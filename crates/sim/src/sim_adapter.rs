//! Adapters running the protocol on the packet-level simulator.
//!
//! [`SimServer`] drives one [`LaneCore`] per ring lane — the same lane
//! policy the TCP runtime runs — over two (possibly identical) simulated
//! networks: the ring network and the client network, matching the
//! paper's dual-homed cluster. Ring batches are *pulled* from the lane
//! whenever its ring NIC reports idle, which is exactly where the paper's
//! fairness rule takes effect. The adapter itself keeps only what a
//! simulated process owns: NIC pacing, the modeled log device and the
//! replay timer.
//!
//! [`SimClient`] is a workload client over a [`SessionCore`] pipeline: at
//! the default window of 1 it is closed-loop (like the paper's client
//! processes); larger [`WorkloadConfig::window`]s keep that many
//! operations in flight concurrently over the one simulated channel. It
//! records every operation into a shared [`History`] for linearizability
//! checking, accumulates latency/throughput counters, and re-issues each
//! timed-out request to the next server independently.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use hts_core::{Config, LaneCore, LaneMap, LinkOp, SessionCore};
use hts_lincheck::{History, OpId};
use hts_types::{ClientId, Message, NodeId, ObjectId, RequestId, RingFrame, ServerId, Tag, Value};

use crate::packet::{Ctx, NetworkId, Process, TimerId};
use crate::{DiskConfig, DiskModel, Nanos};

/// On-log framing overhead per record (frame header + fixed fields),
/// mirroring `hts-wal`'s record layout for byte-accurate disk modeling.
const RECORD_OVERHEAD: usize = 26;

/// Modeled compaction threshold, mirroring `hts-wal`'s default
/// `segment_bytes`: past this, the log rewrites the live state and
/// truncates so the modeled replay time tracks state size, not total
/// history.
const MODELED_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// One parallel ring lane of a [`SimServer`]: a lane core with its own
/// ring NIC, modeled log device and recovery state.
struct SimLane {
    core: LaneCore,
    ring_net: NetworkId,
    /// Modeled log device (durability experiments only) — per lane, so
    /// group commit is modeled per lane exactly like `hts-net`'s
    /// per-lane WALs.
    disk: Option<DiskModel>,
    /// Modeled persisted state: what `hts-wal` would recover after a
    /// crash. Survives crash-restart because the process object does.
    persisted: BTreeMap<ObjectId, (Tag, Value)>,
    /// Instant the last queued append (incl. fsync) completes: the
    /// lane's release gate opens then.
    durable_horizon: Nanos,
    /// Replay-in-progress timer after a restart; pumping waits for it.
    replaying: Option<TimerId>,
}

impl SimLane {
    /// Logs one step's commits into the modeled log. Mirrors `hts-wal`'s
    /// **group commit**: the whole step is one append, and one fsync
    /// covers every commit in it.
    fn persist(&mut self, commits: Vec<(ObjectId, Tag, Value)>, now: Nanos) {
        if let Some(disk) = self.disk.as_mut() {
            let batch_bytes: usize = commits
                .iter()
                .map(|(_, _, value)| RECORD_OVERHEAD + value.len())
                .sum();
            let done = disk.append(now, batch_bytes);
            hts_metrics::histogram!("hts_sim_fsync_nanos")
                .record(done.saturating_sub(now).as_nanos());
            self.durable_horizon = self.durable_horizon.max(done);
        }
        hts_metrics::histogram!("hts_sim_group_commit_records").record(commits.len() as u64);
        for (object, tag, value) in commits {
            let entry = self
                .persisted
                .entry(object)
                .or_insert_with(|| (tag, value.clone()));
            if entry.0 <= tag {
                *entry = (tag, value);
            }
        }
        // Modeled compaction (the real path: Wal::wants_compaction →
        // compact): write the live state as a segment, then the
        // replayable tail shrinks to it. Without this, replay time —
        // and the benchmark's recovery_seconds — would grow with total
        // history instead of state size.
        if let Some(disk) = self.disk.as_mut() {
            if disk.appended_bytes() >= MODELED_SEGMENT_BYTES {
                let state_bytes: u64 = self
                    .persisted
                    .values()
                    .map(|(_, v)| (RECORD_OVERHEAD + v.len()) as u64)
                    .sum();
                let done = disk.append(now, state_bytes as usize);
                self.durable_horizon = self.durable_horizon.max(done);
                disk.truncate(state_bytes);
            }
        }
    }
}

/// A ring storage server as a simulated process, hosting one lane core
/// per configured ring lane (see [`Config::lanes`]).
pub struct SimServer {
    lanes: Vec<SimLane>,
    map: LaneMap,
    me: ServerId,
    n: u16,
    config: Config,
    client_net: NetworkId,
    /// Outgoing client replies, paced one frame at a time so that on a
    /// shared network they interleave fairly with ring traffic instead of
    /// monopolizing the NIC (the kernel's per-socket queues do this on
    /// real hardware).
    replies: VecDeque<(NodeId, Message)>,
    /// Shared-network alternation flag: reply next (vs ring frame).
    prefer_reply: bool,
    /// Virtual-time arrival of each client request still awaiting its
    /// reply: the server-side latency histograms (what fig1's
    /// `srv_write_p50/p99` columns report) measure ack-send minus this.
    arrivals: HashMap<(ClientId, RequestId), Nanos>,
}

impl SimServer {
    /// Creates server `me` of an `n`-ring attached to the given networks
    /// (pass the same id twice for the shared-network experiments).
    /// Hosts a single ring lane regardless of [`Config::lanes`]; use
    /// [`with_ring_lanes`](Self::with_ring_lanes) for the laned runtime.
    pub fn new(
        me: ServerId,
        n: u16,
        mut config: Config,
        ring_net: NetworkId,
        client_net: NetworkId,
    ) -> Self {
        config.lanes = 1;
        SimServer::with_ring_lanes(me, n, config, vec![ring_net], client_net)
    }

    /// Creates server `me` of an `n`-ring with one independent ring lane
    /// per entry of `ring_nets` — each lane owns its NIC, exactly as the
    /// TCP runtime gives each lane its own successor connection.
    /// `config.lanes` must equal `ring_nets.len()`, and the shared-NIC
    /// experiment (`client_net` doubling as a ring net) only supports a
    /// single lane.
    ///
    /// # Panics
    ///
    /// Panics on a lane-count mismatch, or on a multi-lane server whose
    /// client NIC doubles as a ring NIC.
    #[expect(clippy::disallowed_macros, reason = "documented: a harness bug")]
    pub fn with_ring_lanes(
        me: ServerId,
        n: u16,
        config: Config,
        ring_nets: Vec<NetworkId>,
        client_net: NetworkId,
    ) -> Self {
        assert_eq!(
            usize::from(config.lanes.max(1)),
            ring_nets.len(),
            "config.lanes must match the ring NIC count"
        );
        assert!(
            ring_nets.len() == 1 || ring_nets.iter().all(|net| *net != client_net),
            "the shared-network experiment supports a single lane only"
        );
        let lanes = ring_nets
            .into_iter()
            .enumerate()
            .map(|(lane, ring_net)| SimLane {
                core: LaneCore::new(me, n, lane as u16, config.clone()),
                ring_net,
                disk: None,
                persisted: BTreeMap::new(),
                durable_horizon: Nanos::ZERO,
                replaying: None,
            })
            .collect::<Vec<_>>();
        SimServer {
            map: LaneMap::new(lanes.len() as u16),
            lanes,
            me,
            n,
            config,
            client_net,
            replies: VecDeque::new(),
            prefer_reply: true,
            arrivals: HashMap::new(),
        }
    }

    /// Attaches a modeled log device **per lane** (meaningful when the
    /// config's [`Durability`](hts_core::Durability) is persistent:
    /// commits charge disk time, and a lane releases nothing — no reply,
    /// no ring batch — until its fsync completes). Each lane logs — and
    /// group-commits — independently.
    pub fn with_disk(mut self, disk: DiskConfig) -> Self {
        for lane in &mut self.lanes {
            lane.disk = Some(DiskModel::new(disk));
        }
        self
    }

    /// Ends one lane's step: logs its commits to the modeled disk, opens
    /// the release gate at once unless a disk must first finish the
    /// fsync (then a timer reopens it), and queues what it releases.
    fn settle(&mut self, ctx: &mut Ctx<'_, Message>, lane_idx: usize) {
        let now = ctx.now();
        let lane = &mut self.lanes[lane_idx];
        let commits = lane.core.take_commits();
        if !commits.is_empty() {
            lane.persist(commits, now);
            if lane.disk.is_some() {
                ctx.set_timer(lane.durable_horizon.saturating_sub(now));
            } else {
                lane.core.commits_durable();
            }
        }
        self.release(now, lane_idx);
    }

    /// Queues the replies one lane's gate lets out. Write acks are a
    /// couple dozen bytes: real NICs interleave them between large
    /// segments of other sockets, so they jump ahead of queued 64 KiB
    /// read replies here.
    fn release(&mut self, now: Nanos, lane_idx: usize) {
        for (client, reply) in self.lanes[lane_idx].core.take_replies() {
            // A lane replies with acks only.
            let (Message::WriteAck { request, .. } | Message::ReadAck { request, .. }) = reply
            else {
                continue;
            };
            let write = matches!(reply, Message::WriteAck { .. });
            // Server-side latency in *virtual* time: arrival to the
            // instant the reply leaves (the fsync gate counts —
            // durability is part of what the client waits for).
            if let Some(arrived) = self.arrivals.remove(&(client, request)) {
                let latency = now.saturating_sub(arrived).as_nanos();
                if write {
                    hts_metrics::histogram!("hts_sim_server_write_nanos").record(latency);
                } else {
                    hts_metrics::histogram!("hts_sim_server_read_nanos").record(latency);
                }
            }
            let reply = (NodeId::Client(client), reply);
            if write {
                self.replies.push_front(reply);
            } else {
                self.replies.push_back(reply);
            }
        }
    }

    /// Sends the lane's next batch to its successor, claimed through the
    /// lane core's links. A simulated link comes up at once, a sent batch
    /// counts as drained, and crashes come from PacketSim's detector.
    fn send_ring_frame(&mut self, ctx: &mut Ctx<'_, Message>, lane_idx: usize) -> bool {
        let now = ctx.now();
        let lane = &mut self.lanes[lane_idx];
        while let Some(op) = lane.core.poll_links(now) {
            if let LinkOp::Connect(peer) = op {
                lane.core.link_up(peer);
            }
        }
        let Some(successor) = lane.core.successor() else {
            return false;
        };
        // Batch everything ready for the successor into one wire message
        // (one serialization, one per-message processing delay at the
        // receiver) — the simulated analogue of the coalescing TCP
        // writer.
        if lane.core.claim(successor).is_empty() {
            return false;
        }
        let frames = lane.core.link_drained(successor);
        // Only wire messages that actually ship are measured — idle polls
        // would drown the batch-size distribution in zeros.
        hts_metrics::histogram!("hts_sim_ring_batch_frames").record(frames.len() as u64);
        // A single ready frame travels as a plain `Ring`; more coalesce
        // into one `RingBatch` wire message.
        let msg = match <[RingFrame; 1]>::try_from(frames) {
            Ok([frame]) => Message::Ring(frame),
            Err(frames) => Message::RingBatch(frames),
        };
        ctx.send(lane.ring_net, NodeId::Server(successor), msg);
        true
    }

    /// Applies one wire message's ring frames strictly in order — the
    /// batch is the FIFO link's contents, nothing more. A batch is drained
    /// from one lane's scheduler, so every frame routes to the same lane
    /// (routing per frame keeps that a non-assumption), but each lane's
    /// step ends once per BATCH: every commit the batch produced shares
    /// one modeled append + fsync — the group-commit model the durability
    /// benchmarks measure.
    fn on_frames(&mut self, ctx: &mut Ctx<'_, Message>, frames: Vec<RingFrame>) {
        let mut touched = vec![false; self.lanes.len()];
        for frame in frames {
            let lane_idx = usize::from(self.map.lane_of_frame(&frame));
            self.lanes[lane_idx].core.on_frame(frame);
            touched[lane_idx] = true;
        }
        for (lane_idx, touched) in touched.into_iter().enumerate() {
            if touched {
                self.settle(ctx, lane_idx);
            }
        }
    }

    fn send_reply(&mut self, ctx: &mut Ctx<'_, Message>) -> bool {
        let Some((to, msg)) = self.replies.pop_front() else {
            return false;
        };
        ctx.send(self.client_net, to, msg);
        true
    }

    fn pump(&mut self, ctx: &mut Ctx<'_, Message>) {
        if self.lanes.len() == 1 && self.lanes[0].ring_net == self.client_net {
            if self.lanes[0].replaying.is_some() {
                return; // still replaying the log: no traffic yet
            }
            // One NIC for everything: alternate replies and ring frames so
            // neither side starves (Figure 3's shared-network setup).
            if !ctx.tx_is_idle(self.client_net) {
                return;
            }
            if self.prefer_reply {
                if self.send_reply(ctx) || self.send_ring_frame(ctx, 0) {
                    self.prefer_reply = false;
                }
            } else if self.send_ring_frame(ctx, 0) || self.send_reply(ctx) {
                self.prefer_reply = true;
            }
        } else {
            // Replies hold while every lane is still replaying its log
            // (the whole process just rebooted); once any lane is live
            // its traffic — and the shared reply path — flows again.
            if self.lanes.iter().any(|lane| lane.replaying.is_none())
                && ctx.tx_is_idle(self.client_net)
            {
                self.send_reply(ctx);
            }
            for lane_idx in 0..self.lanes.len() {
                if self.lanes[lane_idx].replaying.is_some() {
                    continue; // this lane is still replaying its log
                }
                if ctx.tx_is_idle(self.lanes[lane_idx].ring_net) {
                    self.send_ring_frame(ctx, lane_idx);
                }
            }
        }
    }
}

impl Process<Message> for SimServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::WriteReq { request, .. }
            | Message::ReadReq { request, .. }
            | Message::StatsRequest { request } => {
                if let Some(client) = from.as_client() {
                    let lane_idx = usize::from(self.map.lane_of(msg.object()));
                    match self.lanes[lane_idx].core.on_client(client, msg) {
                        // A stats request is answered at once, and paced
                        // through the ordinary reply queue like any other
                        // client-bound frame.
                        Some(reply) => self.replies.push_back((from, reply)),
                        None => {
                            self.arrivals.insert((client, request), ctx.now());
                            self.settle(ctx, lane_idx);
                        }
                    }
                }
            }
            Message::Ring(frame) => self.on_frames(ctx, vec![frame]),
            Message::RingBatch(frames) => self.on_frames(ctx, frames),
            // Acks are client-bound; a server receiving one is a routing
            // bug in the harness.
            Message::WriteAck { .. } | Message::ReadAck { .. } | Message::StatsReply { .. } => {}
        }
        self.pump(ctx);
    }

    fn on_tx_idle(&mut self, ctx: &mut Ctx<'_, Message>, net: NetworkId) {
        if net == self.client_net || self.lanes.iter().any(|lane| lane.ring_net == net) {
            self.pump(ctx);
        }
    }

    fn on_crashed(&mut self, ctx: &mut Ctx<'_, Message>, node: NodeId) {
        if let Some(s) = node.as_server() {
            // A crash is process-wide on the peer: every lane's link to
            // it died, so every lane splices its own ring view.
            for lane_idx in 0..self.lanes.len() {
                self.lanes[lane_idx].core.on_peer_crashed(s);
                self.settle(ctx, lane_idx);
            }
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, timer: TimerId) {
        // A lane's log replay finished (its rejoin announcement may now
        // leave), or a sync completed: every lane whose last append is
        // now on the modeled disk opens its gate.
        let now = ctx.now();
        for lane_idx in 0..self.lanes.len() {
            let lane = &mut self.lanes[lane_idx];
            if lane.replaying == Some(timer) {
                lane.replaying = None;
            }
            if lane.durable_horizon <= now {
                lane.core.commits_durable();
                self.release(now, lane_idx);
            }
        }
        self.pump(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Message>) {
        // Reboot: volatile state is gone; every lane rebuilds from its
        // own modeled log and rejoins its ring through the announcement
        // protocol, independently.
        self.replies.clear();
        let now = ctx.now();
        let (me, n, config) = (self.me, self.n, self.config.clone());
        for (lane_idx, lane) in self.lanes.iter_mut().enumerate() {
            lane.durable_horizon = now;
            let state = lane.persisted.clone();
            lane.core = LaneCore::restart(me, n, lane_idx as u16, config.clone(), state, true);
            let replay = lane
                .disk
                .as_ref()
                .map_or(Nanos::ZERO, DiskModel::replay_time);
            lane.replaying = (replay > Nanos::ZERO).then(|| ctx.set_timer(replay));
        }
        self.pump(ctx);
    }
}

/// What mix of operations a [`SimClient`] issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMix {
    /// Only reads.
    ReadOnly,
    /// Only writes.
    WriteOnly,
    /// Reads with probability `read_percent`/100, writes otherwise.
    Mixed {
        /// Percentage of reads (0–100).
        read_percent: u8,
    },
}

/// Closed-loop workload parameters for a [`SimClient`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Operation mix.
    pub mix: OpMix,
    /// Payload size of written values, in bytes (≥ 12: the unique header).
    pub value_size: usize,
    /// Stop after this many completed operations (`None` = run forever).
    pub op_limit: Option<u64>,
    /// Delay before the first operation.
    pub start_delay: Nanos,
    /// Reply timeout before re-issuing to the next server.
    pub timeout: Nanos,
    /// Pipeline window: how many operations this client keeps in flight
    /// concurrently (default 1 — the paper's closed-loop client). Larger
    /// windows model open-loop load honestly: one client multiplexes
    /// `window` outstanding requests over its channel, each with its own
    /// retry/timeout state (see [`SessionCore`]).
    pub window: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mix: OpMix::Mixed { read_percent: 50 },
            value_size: 64 * 1024,
            op_limit: None,
            start_delay: Nanos::ZERO,
            timeout: Nanos::from_millis(250),
            window: 1,
        }
    }
}

/// Shared, inspectable counters of one client.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Completed writes.
    pub writes_done: u64,
    /// Completed reads.
    pub reads_done: u64,
    /// Payload bytes written (completed writes × value size).
    pub write_payload_bytes: u64,
    /// Payload bytes read.
    pub read_payload_bytes: u64,
    /// Sum of write latencies.
    pub write_latency_total: Nanos,
    /// Sum of read latencies.
    pub read_latency_total: Nanos,
    /// Individual write latencies (ns), for percentiles.
    pub write_latencies: Vec<u64>,
    /// Individual read latencies (ns), for percentiles.
    pub read_latencies: Vec<u64>,
    /// Re-sends after timeout.
    pub retries: u64,
}

impl ClientStats {
    /// Mean write latency, if any writes completed.
    pub fn mean_write_latency(&self) -> Option<Nanos> {
        (self.writes_done > 0)
            .then(|| Nanos(self.write_latency_total.as_nanos() / self.writes_done))
    }

    /// Mean read latency, if any reads completed.
    pub fn mean_read_latency(&self) -> Option<Nanos> {
        (self.reads_done > 0).then(|| Nanos(self.read_latency_total.as_nanos() / self.reads_done))
    }
}

/// Builds a workload value that is globally unique (first 12 bytes encode
/// the writing client and a sequence number) and padded to `size`.
///
/// Unique values are what let the fast linearizability checker map reads
/// to writes; see `hts-lincheck`.
pub fn unique_value(client: ClientId, seq: u64, size: usize) -> Value {
    let mut bytes = Vec::with_capacity(size.max(12));
    bytes.extend_from_slice(&client.0.to_be_bytes());
    bytes.extend_from_slice(&seq.to_be_bytes());
    if size > bytes.len() {
        bytes.resize(size, 0xA5);
    }
    Value::from(bytes)
}

/// Book-keeping for one in-flight operation of a [`SimClient`].
struct PendingOp {
    op_id: Option<OpId>,
    issued_at: Nanos,
    is_read: bool,
    timer: TimerId,
}

/// A simulated workload client: closed-loop at `window = 1` (the paper's
/// client processes), an open-loop pipeline of `window` concurrent
/// operations otherwise.
pub struct SimClient {
    core: SessionCore,
    workload: WorkloadConfig,
    client_net: NetworkId,
    stats: Rc<RefCell<ClientStats>>,
    history: Option<Rc<RefCell<History>>>,
    pending: HashMap<RequestId, PendingOp>,
    kick: Option<TimerId>,
    value_seq: u64,
    issued: u64,
}

impl SimClient {
    /// Creates a client that talks to `preferred` in an `n`-server ring,
    /// issuing ops per `workload` on `client_net`. `history`, when given,
    /// records every operation for linearizability checking.
    pub fn new(
        id: ClientId,
        n: u16,
        preferred: ServerId,
        workload: WorkloadConfig,
        client_net: NetworkId,
        history: Option<Rc<RefCell<History>>>,
    ) -> (Self, Rc<RefCell<ClientStats>>) {
        SimClient::new_for_object(
            id,
            ObjectId::SINGLE,
            n,
            preferred,
            workload,
            client_net,
            history,
        )
    }

    /// [`new`](Self::new), but every operation targets register `object`
    /// instead of [`ObjectId::SINGLE`] — the multi-object workloads
    /// (e.g. the lane-scaling ablation) give each client its own object
    /// so load spreads across lanes.
    pub fn new_for_object(
        id: ClientId,
        object: ObjectId,
        n: u16,
        preferred: ServerId,
        workload: WorkloadConfig,
        client_net: NetworkId,
        history: Option<Rc<RefCell<History>>>,
    ) -> (Self, Rc<RefCell<ClientStats>>) {
        let stats = Rc::new(RefCell::new(ClientStats::default()));
        let window = workload.window.max(1);
        (
            SimClient {
                core: SessionCore::new(id, object, n, preferred, window),
                workload,
                client_net,
                stats: Rc::clone(&stats),
                history,
                pending: HashMap::new(),
                kick: None,
                value_seq: 0,
                issued: 0,
            },
            stats,
        )
    }

    /// Fills the pipeline: issues operations until the window is full or
    /// the op limit is reached (each issued op completes eventually — the
    /// retry rule re-sends under the same request id — so bounding
    /// *issues* bounds completions identically).
    fn issue_next(&mut self, ctx: &mut Ctx<'_, Message>) {
        while self.core.has_capacity() {
            if let Some(limit) = self.workload.op_limit {
                if self.issued >= limit {
                    return;
                }
            }
            let read = match self.workload.mix {
                OpMix::ReadOnly => true,
                OpMix::WriteOnly => false,
                OpMix::Mixed { read_percent } => ctx.rand_below(100) < u64::from(read_percent),
            };
            let now = ctx.now();
            let (request, server, message, op_id) = if read {
                let op_id = self
                    .history
                    .as_ref()
                    .map(|h| h.borrow_mut().invoke_read(self.core.id(), now.as_nanos()));
                let (request, server, message) = self.core.begin_read();
                (request, server, message, op_id)
            } else {
                self.value_seq += 1;
                let value = unique_value(self.core.id(), self.value_seq, self.workload.value_size);
                let op_id = self.history.as_ref().map(|h| {
                    h.borrow_mut()
                        .invoke_write(self.core.id(), value.clone(), now.as_nanos())
                });
                let (request, server, message) = self.core.begin_write(value);
                (request, server, message, op_id)
            };
            self.issued += 1;
            ctx.send(self.client_net, NodeId::Server(server), message);
            self.pending.insert(
                request,
                PendingOp {
                    op_id,
                    issued_at: now,
                    is_read: read,
                    timer: ctx.set_timer(self.workload.timeout),
                },
            );
        }
    }
}

impl Process<Message> for SimClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        if self.workload.start_delay == Nanos::ZERO {
            self.issue_next(ctx);
        } else {
            self.kick = Some(ctx.set_timer(self.workload.start_delay));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, _from: NodeId, msg: Message) {
        let Some(completion) = self.core.on_reply(&msg) else {
            return; // stale or duplicate reply
        };
        let Some(op) = self.pending.remove(&completion.request) else {
            // The session core only completes requests it launched, and
            // every launch registers an op — but a bookkeeping mismatch
            // should drop a sample, not crash the simulation.
            return;
        };
        ctx.cancel_timer(op.timer);
        let now = ctx.now();
        let latency = now.saturating_sub(op.issued_at);
        {
            let mut stats = self.stats.borrow_mut();
            match (op.is_read, completion.value.as_ref()) {
                (true, Some(value)) => {
                    stats.reads_done += 1;
                    stats.read_payload_bytes += value.len() as u64;
                    stats.read_latency_total += latency;
                    stats.read_latencies.push(latency.as_nanos());
                }
                // A read completing without a value is a session-core
                // contract breach; drop the sample rather than panic.
                (true, None) => {}
                (false, _) => {
                    stats.writes_done += 1;
                    stats.write_payload_bytes += self.workload.value_size as u64;
                    stats.write_latency_total += latency;
                    stats.write_latencies.push(latency.as_nanos());
                }
            }
        }
        if let (Some(h), Some(op_id)) = (&self.history, op.op_id) {
            let mut h = h.borrow_mut();
            match completion.value {
                Some(value) => h.complete_read(op_id, value, now.as_nanos()),
                None => h.complete_write(op_id, now.as_nanos()),
            }
        }
        self.issue_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, timer: TimerId) {
        if self.kick == Some(timer) {
            self.kick = None;
            self.issue_next(ctx);
            return;
        }
        // Per-request timers: only the request whose timer fired retries;
        // the rest of the window is untouched.
        let Some(request) = self
            .pending
            .iter()
            .find(|(_, op)| op.timer == timer)
            .map(|(r, _)| *r)
        else {
            return; // stale timer
        };
        if let Some((server, message)) = self.core.on_timeout(request) {
            self.stats.borrow_mut().retries += 1;
            ctx.send(self.client_net, NodeId::Server(server), message);
            if let Some(op) = self.pending.get_mut(&request) {
                op.timer = ctx.set_timer(self.workload.timeout);
            }
        } else {
            self.pending.remove(&request);
        }
    }

    fn on_crashed(&mut self, ctx: &mut Ctx<'_, Message>, node: NodeId) {
        if let Some(s) = node.as_server() {
            // Every in-flight request stranded on the crashed server is
            // re-sent immediately, each under its own fresh timer.
            for (request, server, message) in self.core.on_server_down(s) {
                self.stats.borrow_mut().retries += 1;
                ctx.send(self.client_net, NodeId::Server(server), message);
                if let Some(op) = self.pending.get_mut(&request) {
                    ctx.cancel_timer(op.timer);
                    op.timer = ctx.set_timer(self.workload.timeout);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_record_overhead_matches_the_real_wal_layout() {
        // The modeled disk charges RECORD_OVERHEAD + value bytes per
        // commit and compacts at MODELED_SEGMENT_BYTES; keep both pinned
        // to what hts-wal actually does, or the durability benchmarks
        // silently drift from reality.
        assert_eq!(
            MODELED_SEGMENT_BYTES,
            hts_wal::WalOptions::default().segment_bytes
        );
        let record = hts_wal::WalRecord {
            object: ObjectId(1),
            tag: Tag::new(1, ServerId(0)),
            value: Value::bottom(), // empty: the encoding is pure overhead
        };
        let mut bytes = Vec::new();
        hts_wal::record::encode_record(&mut bytes, &record);
        assert_eq!(bytes.len(), RECORD_OVERHEAD);
    }
}
