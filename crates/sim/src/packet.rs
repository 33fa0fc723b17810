//! The packet-level network model.
//!
//! Virtual time is continuous ([`Nanos`]); the simulated resources are the
//! ones a switched-ethernet cluster actually contends on:
//!
//! * **TX serialization** — a node's NIC puts one frame on the wire at a
//!   time at the link rate; concurrent sends queue (FIFO).
//! * **RX serialization** — the switch's output port towards a node
//!   delivers one frame at a time at the link rate; concurrent arrivals
//!   from different senders queue (FCFS by arrival instant). This is what
//!   makes one-to-many "broadcast storms" expensive and the paper's ring
//!   pattern cheap.
//! * **Propagation + endpoint processing** — constant per network, with
//!   optional deterministic jitter.
//!
//! Nodes can attach to several networks (the paper's dual-homed servers).
//! Crashes drop a node at an instant; messages it had not finished
//! serializing are lost, and every surviving node receives a
//! perfect-failure-detector callback after a configurable detection delay.
//! Everything is deterministic for a given seed and insertion order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

use hts_types::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Bandwidth, Nanos, Wire};

/// Identifies one simulated network (switch). The default id names the
/// first network added, convenient for single-network setups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NetworkId(pub usize);

/// Handle to a pending timer, returned by [`Ctx::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Physical characteristics of one network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Link rate of every port on this network.
    pub bandwidth: Bandwidth,
    /// One-way propagation (incl. switch forwarding) delay.
    pub propagation: Nanos,
    /// Maximum payload bytes per frame (ethernet MSS).
    pub mss: usize,
    /// Non-payload bytes charged per frame (preamble, MAC/IP/TCP headers,
    /// FCS, inter-frame gap). 78 bytes on a 1460-byte MSS reproduces TCP's
    /// ≈94.9 Mbit/s goodput ceiling on fast ethernet.
    pub frame_overhead: usize,
    /// Fixed endpoint processing delay added to every delivery.
    pub proc_delay: Nanos,
    /// Deterministic uniform jitter in `[0, proc_jitter)` added on top.
    pub proc_jitter: Nanos,
}

impl NetworkConfig {
    /// 100 Mbit/s switched fast ethernet, tuned to the paper's cluster.
    pub fn fast_ethernet() -> Self {
        NetworkConfig {
            bandwidth: Bandwidth::mbps(100),
            propagation: Nanos::from_micros(30),
            mss: 1460,
            frame_overhead: 78,
            proc_delay: Nanos::from_micros(40),
            proc_jitter: Nanos::from_micros(10),
        }
    }

    /// 1 Gbit/s ethernet (for scale-out ablations).
    pub fn gigabit_ethernet() -> Self {
        NetworkConfig {
            bandwidth: Bandwidth::gbps(1),
            propagation: Nanos::from_micros(10),
            mss: 1460,
            frame_overhead: 78,
            proc_delay: Nanos::from_micros(15),
            proc_jitter: Nanos::from_micros(4),
        }
    }

    /// The wire-level bytes charged for a `payload`-byte message.
    pub fn wire_bytes(&self, payload: usize) -> usize {
        let frames = payload.div_ceil(self.mss).max(1);
        payload + frames * self.frame_overhead
    }
}

/// A sans-io process driven by the packet simulator.
///
/// All methods have default no-op implementations except
/// [`on_message`](Process::on_message); implement the ones the protocol
/// needs. Methods receive a [`Ctx`] to emit sends, set timers and query
/// NIC state; effects are applied when the callback returns.
pub trait Process<M> {
    /// Called once before the first event is processed.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// A message arrived (fully received and processed by the NIC).
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: TimerId) {
        let _ = (ctx, timer);
    }

    /// The perfect failure detector reports that `node` crashed.
    fn on_crashed(&mut self, ctx: &mut Ctx<'_, M>, node: NodeId) {
        let _ = (ctx, node);
    }

    /// This node was restarted ([`PacketSim::restart_at`]) after a
    /// crash. The process object survives with its pre-crash state —
    /// the callback models the reboot: reset volatile state, replay the
    /// modeled disk, rejoin the protocol. Messages and timers from the
    /// previous incarnation are dropped by the simulator.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// The TX path of this node's NIC on `net` drained: anything queued
    /// before has fully serialized. Protocol cores with *paced* output (the
    /// ring fairness rule) hand over their next frame here.
    fn on_tx_idle(&mut self, ctx: &mut Ctx<'_, M>, net: NetworkId) {
        let _ = (ctx, net);
    }

    /// An out-of-band nudge injected by the harness via
    /// [`PacketSim::poke`] — synchronous facades use this to hand new work
    /// to a node between `run_*` calls.
    fn on_poke(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }
}

enum Command<M> {
    Send { net: NetworkId, to: NodeId, msg: M },
    SetTimer { id: TimerId, at: Nanos },
    CancelTimer { id: TimerId },
}

/// The callback context: read the clock, send messages, manage timers.
///
/// Sends and timer operations are buffered and applied when the callback
/// returns, in order.
pub struct Ctx<'a, M> {
    now: Nanos,
    node: NodeId,
    rng: &'a mut SmallRng,
    commands: Vec<Command<M>>,
    timer_seq: &'a mut u64,
    /// (net, tx idle?) snapshot, updated pessimistically by sends.
    idle: Vec<(NetworkId, bool)>,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `to` over `net`.
    ///
    /// The message queues at this node's NIC for `net` and serializes at
    /// the link rate; `to` must also be attached to `net` (checked when the
    /// command is applied — a violation panics, it is a harness bug).
    pub fn send(&mut self, net: NetworkId, to: NodeId, msg: M) {
        for (n, idle) in &mut self.idle {
            if *n == net {
                *idle = false;
            }
        }
        self.commands.push(Command::Send { net, to, msg });
    }

    /// Arms a timer to fire `delay` from now; returns its id.
    pub fn set_timer(&mut self, delay: Nanos) -> TimerId {
        *self.timer_seq += 1;
        let id = TimerId(*self.timer_seq);
        self.commands.push(Command::SetTimer {
            id,
            at: self.now + delay,
        });
        id
    }

    /// Cancels a previously armed timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.commands.push(Command::CancelTimer { id });
    }

    /// Whether this node's TX path on `net` is idle (nothing serializing
    /// and nothing sent earlier in this callback).
    pub fn tx_is_idle(&self, net: NetworkId) -> bool {
        self.idle
            .iter()
            .find(|(n, _)| *n == net)
            .map(|(_, i)| *i)
            .unwrap_or(false)
    }

    /// A deterministic uniform sample in `[0, bound)` (zero if `bound` is
    /// zero). Protocol cores use this for randomized backoff in tests.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.rng.gen_range(0..bound)
        }
    }
}

#[derive(Debug, Default, Clone)]
/// Cumulative per-NIC counters; see [`PacketSim::nic_stats`].
pub struct NicStats {
    /// Wire-level bytes serialized out (payload + framing).
    pub tx_wire_bytes: u64,
    /// Wire-level bytes received.
    pub rx_wire_bytes: u64,
    /// Total time the TX path was serializing.
    pub tx_busy: Nanos,
    /// Total time the RX path was serializing.
    pub rx_busy: Nanos,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages delivered to the process.
    pub msgs_delivered: u64,
}

struct Nic {
    tx_free: Nanos,
    rx_free: Nanos,
    /// Monotone delivery clock: processing jitter must never reorder
    /// deliveries from one port (TCP links are FIFO).
    last_delivery: Nanos,
    stats: NicStats,
}

struct NodeSlot<M> {
    id: NodeId,
    proc: Option<Box<dyn Process<M>>>,
    crashed_at: Option<Nanos>,
    /// Incarnation counter, bumped by restart: in-flight messages and
    /// timers stamped with an older epoch are dropped (they belonged to
    /// connections/state of the dead incarnation).
    epoch: u32,
    nics: Vec<(NetworkId, Nic)>,
}

impl<M> NodeSlot<M> {
    fn nic_mut(&mut self, net: NetworkId) -> Option<&mut Nic> {
        self.nics
            .iter_mut()
            .find(|(n, _)| *n == net)
            .map(|(_, nic)| nic)
    }
    fn alive(&self) -> bool {
        self.crashed_at.is_none()
    }
}

enum EvKind<M> {
    Arrival {
        net: NetworkId,
        from: NodeId,
        to: NodeId,
        msg: M,
        wire_bytes: usize,
        src_tx_end: Nanos,
        dst_epoch: u32,
    },
    Deliver {
        net: NetworkId,
        from: NodeId,
        to: NodeId,
        msg: M,
        dst_epoch: u32,
    },
    TimerFire {
        node: NodeId,
        timer: TimerId,
        epoch: u32,
    },
    TxIdle {
        node: NodeId,
        net: NetworkId,
    },
    Crash {
        node: NodeId,
    },
    DetectCrash {
        node: NodeId,
    },
    Restart {
        node: NodeId,
    },
    /// Targeted failure-detector refresh: tells a freshly restarted
    /// `observer` about a `crashed` node it may have forgotten.
    DetectCrashFor {
        observer: NodeId,
        crashed: NodeId,
    },
    Poke {
        node: NodeId,
    },
}

struct Ev<M> {
    at: Nanos,
    seq: u64,
    kind: EvKind<M>,
}

impl<M> PartialEq for Ev<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Ev<M> {}
impl<M> PartialOrd for Ev<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Ev<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One recorded trace entry (when tracing is enabled).
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// When it happened.
    pub at: Nanos,
    /// What happened, pre-rendered.
    pub what: String,
}

/// Shape of the per-event callbacks `dispatch` runs against a process.
type ProcessHook<'a, M> = dyn FnMut(&mut dyn Process<M>, &mut Ctx<'_, M>) + 'a;

/// The packet-level simulator. See the [module docs](self).
pub struct PacketSim<M> {
    networks: Vec<NetworkConfig>,
    nodes: Vec<NodeSlot<M>>,
    index: HashMap<NodeId, usize>,
    queue: BinaryHeap<Reverse<Ev<M>>>,
    now: Nanos,
    seq: u64,
    timer_seq: u64,
    cancelled: HashSet<u64>,
    rng: SmallRng,
    started: bool,
    detection_delay: Nanos,
    dropped_to_crashed: u64,
    /// Pending sender-side "connection refused" detections, deduplicated
    /// per (observer, crashed) so a saturated sender does not flood the
    /// event heap during the detection window.
    refused_pending: HashSet<(NodeId, NodeId)>,
    trace: Option<Vec<TraceEntry>>,
    events_processed: u64,
}

impl<M: Wire + fmt::Debug> PacketSim<M> {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        PacketSim {
            networks: Vec::new(),
            nodes: Vec::new(),
            index: HashMap::new(),
            queue: BinaryHeap::new(),
            now: Nanos::ZERO,
            seq: 0,
            timer_seq: 0,
            cancelled: HashSet::new(),
            rng: SmallRng::seed_from_u64(seed),
            started: false,
            detection_delay: Nanos::from_micros(500),
            dropped_to_crashed: 0,
            refused_pending: HashSet::new(),
            trace: None,
            events_processed: 0,
        }
    }

    /// Sets how long after a crash the perfect failure detector notifies
    /// the survivors (default 500 µs — a couple of TCP keep-alive probes on
    /// a LAN).
    pub fn set_detection_delay(&mut self, delay: Nanos) {
        self.detection_delay = delay;
    }

    /// Adds a network; returns its id.
    pub fn add_network(&mut self, config: NetworkConfig) -> NetworkId {
        self.networks.push(config);
        NetworkId(self.networks.len() - 1)
    }

    /// Registers a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already added.
    #[expect(clippy::disallowed_macros, reason = "documented: a harness bug")]
    pub fn add_node(&mut self, id: NodeId, proc: Box<dyn Process<M>>) {
        assert!(
            self.index.insert(id, self.nodes.len()).is_none(),
            "node {id} added twice"
        );
        self.nodes.push(NodeSlot {
            id,
            proc: Some(proc),
            crashed_at: None,
            epoch: 0,
            nics: Vec::new(),
        });
    }

    /// Attaches `node` to `net` with a fresh NIC.
    ///
    /// # Panics
    ///
    /// Panics if node or network is unknown, or already attached.
    #[expect(clippy::disallowed_macros, reason = "documented: a harness bug")]
    pub fn attach(&mut self, node: NodeId, net: NetworkId) {
        assert!(net.0 < self.networks.len(), "unknown network {net:?}");
        let idx = self.index[&node];
        assert!(
            self.nodes[idx].nics.iter().all(|(n, _)| *n != net),
            "{node} already attached to {net:?}"
        );
        self.nodes[idx].nics.push((
            net,
            Nic {
                tx_free: Nanos::ZERO,
                rx_free: Nanos::ZERO,
                last_delivery: Nanos::ZERO,
                stats: NicStats::default(),
            },
        ));
    }

    /// Schedules a crash of `node` at absolute time `at`.
    #[expect(clippy::disallowed_macros, reason = "an unknown node is a harness bug")]
    pub fn crash_at(&mut self, node: NodeId, at: Nanos) {
        assert!(self.index.contains_key(&node), "unknown node {node}");
        self.push(at, EvKind::Crash { node });
    }

    /// Schedules a crash-**restart** of `node` at absolute time `at`
    /// (a no-op if the node is alive then). The node's
    /// [`Process::on_restart`] runs with fresh NICs; messages and timers
    /// of the dead incarnation are dropped, and the restarted node's
    /// failure detector is re-told about every still-crashed node after
    /// the detection delay.
    #[expect(clippy::disallowed_macros, reason = "an unknown node is a harness bug")]
    pub fn restart_at(&mut self, node: NodeId, at: Nanos) {
        assert!(self.index.contains_key(&node), "unknown node {node}");
        self.push(at, EvKind::Restart { node });
    }

    /// Nudges `node` at the current instant: its
    /// [`Process::on_poke`] runs at the head of the event queue.
    #[expect(clippy::disallowed_macros, reason = "an unknown node is a harness bug")]
    pub fn poke(&mut self, node: NodeId) {
        assert!(self.index.contains_key(&node), "unknown node {node}");
        let now = self.now;
        self.push(now, EvKind::Poke { node });
    }

    /// Enables trace recording (for illustration walkthroughs).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Takes the recorded trace, leaving recording enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.trace.replace(Vec::new()).unwrap_or_default()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Messages dropped because their destination (or mid-transmission
    /// sender) had crashed.
    pub fn dropped_to_crashed(&self) -> u64 {
        self.dropped_to_crashed
    }

    /// Returns `true` if `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[self.index[&node]].crashed_at.is_some()
    }

    /// Cumulative NIC counters for `node` on `net`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not attached to `net`.
    #[expect(clippy::panic, reason = "documented: a harness bug")]
    pub fn nic_stats(&self, node: NodeId, net: NetworkId) -> NicStats {
        let idx = self.index[&node];
        self.nodes[idx]
            .nics
            .iter()
            .find(|(n, _)| *n == net)
            .map(|(_, nic)| nic.stats.clone())
            .unwrap_or_else(|| panic!("{node} not attached to {net:?}"))
    }

    /// Zeroes all NIC counters (used to exclude warm-up from measurements).
    pub fn reset_stats(&mut self) {
        for slot in &mut self.nodes {
            for (_, nic) in &mut slot.nics {
                nic.stats = NicStats::default();
            }
        }
    }

    fn push(&mut self, at: Nanos, kind: EvKind<M>) {
        self.seq += 1;
        self.queue.push(Reverse(Ev {
            at,
            seq: self.seq,
            kind,
        }));
    }

    fn trace_push(&mut self, what: String) {
        let at = self.now;
        if let Some(t) = &mut self.trace {
            t.push(TraceEntry { at, what });
        }
    }

    /// Runs every node's `on_start` (idempotent; run methods call it).
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch(i, false, &mut |proc, ctx| proc.on_start(ctx));
        }
    }

    /// Processes events until the queue is empty.
    pub fn run_to_quiescence(&mut self) {
        self.ensure_started();
        while self.step() {}
    }

    /// Processes events with `at <= deadline`, then advances the clock to
    /// `deadline`.
    pub fn run_until(&mut self, deadline: Nanos) {
        self.ensure_started();
        loop {
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.now = deadline;
    }

    /// Processes a single event; returns `false` when the queue is empty.
    #[expect(clippy::disallowed_macros, reason = "compiled out of release builds")]
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_processed += 1;
        match ev.kind {
            EvKind::Arrival {
                net,
                from,
                to,
                msg,
                wire_bytes,
                src_tx_end,
                dst_epoch,
            } => self.on_arrival(net, from, to, msg, wire_bytes, src_tx_end, dst_epoch),
            EvKind::Deliver {
                net,
                from,
                to,
                msg,
                dst_epoch,
            } => {
                let idx = self.index[&to];
                if !self.nodes[idx].alive() || self.nodes[idx].epoch != dst_epoch {
                    self.dropped_to_crashed += 1;
                } else {
                    if let Some(nic) = self.nodes[idx].nic_mut(net) {
                        nic.stats.msgs_delivered += 1;
                    }
                    if self.trace.is_some() {
                        self.trace_push(format!("{to} <- {from}: deliver {msg:?}"));
                    }
                    let mut slot = Some(msg);
                    #[expect(clippy::expect_used, reason = "`dispatch` runs the hook once")]
                    self.dispatch(idx, false, &mut |proc, ctx| {
                        proc.on_message(ctx, from, slot.take().expect("message consumed twice"))
                    });
                }
            }
            EvKind::TimerFire { node, timer, epoch } => {
                if self.cancelled.remove(&timer.0) {
                    return true;
                }
                let idx = self.index[&node];
                if self.nodes[idx].alive() && self.nodes[idx].epoch == epoch {
                    self.dispatch(idx, false, &mut |proc, ctx| proc.on_timer(ctx, timer));
                }
            }
            EvKind::TxIdle { node, net } => {
                let idx = self.index[&node];
                if self.nodes[idx].alive() {
                    let idle = self.nodes[idx]
                        .nic_mut(net)
                        .map(|nic| nic.tx_free <= ev.at)
                        .unwrap_or(false);
                    if idle {
                        self.dispatch(idx, true, &mut |proc, ctx| proc.on_tx_idle(ctx, net));
                    }
                }
            }
            EvKind::Crash { node } => {
                let idx = self.index[&node];
                if self.nodes[idx].alive() {
                    self.nodes[idx].crashed_at = Some(ev.at);
                    self.trace_push(format!("{node} CRASHED"));
                    self.push(ev.at + self.detection_delay, EvKind::DetectCrash { node });
                }
            }
            EvKind::DetectCrash { node } => {
                // A node that restarted before its own crash finished
                // detecting announces itself through the protocol; stale
                // detections about it would wrongly splice it out again.
                if self.nodes[self.index[&node]].alive() {
                    return true;
                }
                self.trace_push(format!("failure of {node} detected"));
                for i in 0..self.nodes.len() {
                    if self.nodes[i].alive() {
                        self.dispatch(i, false, &mut |proc, ctx| proc.on_crashed(ctx, node));
                    }
                }
            }
            EvKind::Restart { node } => {
                let idx = self.index[&node];
                if self.nodes[idx].alive() {
                    return true; // never crashed (or already restarted)
                }
                self.nodes[idx].crashed_at = None;
                self.nodes[idx].epoch += 1;
                let now = ev.at;
                for (_, nic) in &mut self.nodes[idx].nics {
                    nic.tx_free = now;
                    nic.rx_free = now;
                    nic.last_delivery = now;
                }
                self.trace_push(format!("{node} RESTARTED"));
                // Refresh the rebooted node's failure detector: it comes
                // back assuming a healthy ring and must re-learn which
                // peers are still down.
                let still_down: Vec<NodeId> = self
                    .nodes
                    .iter()
                    .filter(|slot| !slot.alive())
                    .map(|slot| slot.id)
                    .collect();
                for crashed in still_down {
                    self.push(
                        now + self.detection_delay,
                        EvKind::DetectCrashFor {
                            observer: node,
                            crashed,
                        },
                    );
                }
                self.dispatch(idx, false, &mut |proc, ctx| proc.on_restart(ctx));
            }
            EvKind::DetectCrashFor { observer, crashed } => {
                self.refused_pending.remove(&(observer, crashed));
                let crashed_idx = self.index[&crashed];
                let idx = self.index[&observer];
                if !self.nodes[crashed_idx].alive() && self.nodes[idx].alive() {
                    self.dispatch(idx, false, &mut |proc, ctx| proc.on_crashed(ctx, crashed));
                }
            }
            EvKind::Poke { node } => {
                let idx = self.index[&node];
                if self.nodes[idx].alive() {
                    self.dispatch(idx, false, &mut |proc, ctx| proc.on_poke(ctx));
                }
            }
        }
        true
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one `EvKind::Arrival`"
    )]
    fn on_arrival(
        &mut self,
        net: NetworkId,
        from: NodeId,
        to: NodeId,
        msg: M,
        wire_bytes: usize,
        src_tx_end: Nanos,
        dst_epoch: u32,
    ) {
        // A sender that crashed before finishing serialization never put
        // the full frame on the wire.
        let src_idx = self.index[&from];
        if let Some(crashed) = self.nodes[src_idx].crashed_at {
            if crashed < src_tx_end {
                self.dropped_to_crashed += 1;
                return;
            }
        }
        let idx = self.index[&to];
        if !self.nodes[idx].alive() || self.nodes[idx].epoch != dst_epoch {
            self.dropped_to_crashed += 1;
            return;
        }
        let config = self.networks[net.0].clone();
        let rx_time = config.bandwidth.transmission_time(wire_bytes);
        let now = self.now;
        #[expect(clippy::panic, reason = "`apply` refuses a send to an unattached node")]
        let Some(nic) = self.nodes[idx].nic_mut(net) else {
            panic!("{to} not attached to {net:?}");
        };
        let rx_start = nic.rx_free.max(now);
        let rx_end = rx_start + rx_time;
        nic.rx_free = rx_end;
        nic.stats.rx_wire_bytes += wire_bytes as u64;
        nic.stats.rx_busy += rx_time;
        let jitter = if config.proc_jitter.as_nanos() == 0 {
            Nanos::ZERO
        } else {
            Nanos(self.rng.gen_range(0..config.proc_jitter.as_nanos()))
        };
        // Jitter must not reorder deliveries from one port: clamp to the
        // port's monotone delivery clock (links are reliable FIFO, §2).
        let deliver_at = (rx_end + config.proc_delay + jitter).max(nic.last_delivery);
        nic.last_delivery = deliver_at;
        self.push(
            deliver_at,
            EvKind::Deliver {
                net,
                from,
                to,
                msg,
                dst_epoch,
            },
        );
    }

    /// Runs `f` against node `idx`'s process with a fresh [`Ctx`], then
    /// applies the buffered commands. Unless the callback itself was
    /// `on_tx_idle`, NICs left idle afterwards get one `on_tx_idle` pull.
    fn dispatch(&mut self, idx: usize, is_tx_idle_cb: bool, f: &mut ProcessHook<'_, M>) {
        #[expect(clippy::expect_used, reason = "put back before any nested dispatch")]
        let mut proc = self.nodes[idx].proc.take().expect("re-entrant dispatch");
        let node = self.nodes[idx].id;
        let idle: Vec<(NetworkId, bool)> = self.nodes[idx]
            .nics
            .iter()
            .map(|(n, nic)| (*n, nic.tx_free <= self.now))
            .collect();
        let mut ctx = Ctx {
            now: self.now,
            node,
            rng: &mut self.rng,
            commands: Vec::new(),
            timer_seq: &mut self.timer_seq,
            idle,
        };
        f(proc.as_mut(), &mut ctx);
        let commands = ctx.commands;
        self.nodes[idx].proc = Some(proc);
        for cmd in commands {
            self.apply(idx, cmd);
        }
        if !is_tx_idle_cb {
            // Offer the node a chance to refill idle TX paths right away
            // (one level deep: an on_tx_idle that sends nothing ends it).
            let nets: Vec<NetworkId> = self.nodes[idx]
                .nics
                .iter()
                .filter(|(_, nic)| nic.tx_free <= self.now)
                .map(|(n, _)| *n)
                .collect();
            for net in nets {
                let still_idle = self.nodes[idx]
                    .nic_mut(net)
                    .map(|nic| nic.tx_free <= self.now)
                    .unwrap_or(false);
                if still_idle && self.nodes[idx].alive() {
                    self.dispatch(idx, true, &mut |proc, ctx| proc.on_tx_idle(ctx, net));
                }
            }
        }
    }

    fn apply(&mut self, src_idx: usize, cmd: Command<M>) {
        match cmd {
            #[expect(
                clippy::disallowed_macros,
                reason = "a send to an unknown or unattached node is a process bug"
            )]
            Command::Send { net, to, msg } => {
                let from = self.nodes[src_idx].id;
                assert!(self.index.contains_key(&to), "send to unknown node {to}");
                let dst_idx = self.index[&to];
                assert!(
                    self.nodes[dst_idx].nics.iter().any(|(n, _)| *n == net),
                    "{to} not attached to {net:?}"
                );
                let config = self.networks[net.0].clone();
                let wire_bytes = config.wire_bytes(msg.wire_size());
                let tx_time = config.bandwidth.transmission_time(wire_bytes);
                let now = self.now;
                // Sending to a crashed node is the simulator's analogue
                // of a refused/reset TCP connection: the sender's
                // failure detector learns about the peer after the
                // detection delay. This is what lets a node that was
                // wrongly told a peer rejoined (a stale announcement
                // racing a re-crash) re-splice instead of black-holing
                // frames forever.
                if !self.nodes[dst_idx].alive() && self.refused_pending.insert((from, to)) {
                    self.push(
                        now + self.detection_delay,
                        EvKind::DetectCrashFor {
                            observer: from,
                            crashed: to,
                        },
                    );
                }
                #[expect(clippy::panic, reason = "a send on an unattached NIC is a process bug")]
                let Some(nic) = self.nodes[src_idx].nic_mut(net) else {
                    panic!("{from} not attached to {net:?}");
                };
                let tx_start = nic.tx_free.max(now);
                let tx_end = tx_start + tx_time;
                nic.tx_free = tx_end;
                nic.stats.tx_wire_bytes += wire_bytes as u64;
                nic.stats.tx_busy += tx_time;
                nic.stats.msgs_sent += 1;
                if self.trace.is_some() {
                    self.trace_push(format!("{from} -> {to}: send {msg:?}"));
                }
                self.push(
                    tx_end + config.propagation,
                    EvKind::Arrival {
                        net,
                        from,
                        to,
                        msg,
                        wire_bytes,
                        src_tx_end: tx_end,
                        dst_epoch: self.nodes[dst_idx].epoch,
                    },
                );
                self.push(tx_end, EvKind::TxIdle { node: from, net });
            }
            Command::SetTimer { id, at } => {
                let node = self.nodes[src_idx].id;
                let epoch = self.nodes[src_idx].epoch;
                self.push(
                    at,
                    EvKind::TimerFire {
                        node,
                        timer: id,
                        epoch,
                    },
                );
            }
            Command::CancelTimer { id } => {
                self.cancelled.insert(id.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_types::ClientId;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone, PartialEq)]
    struct Blob(usize);
    impl Wire for Blob {
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    /// Shared, inspectable record of everything a probe node observed.
    #[derive(Default)]
    struct ProbeState {
        delivered: Vec<(NodeId, usize, Nanos)>,
        crashes_seen: Vec<NodeId>,
        timer_fires: Vec<Nanos>,
        tx_idles: u64,
        restarts: u64,
    }

    type Shared = Rc<RefCell<ProbeState>>;

    #[derive(Default)]
    struct Probe {
        state: Shared,
        send_on_start: Vec<(NetworkId, NodeId, Blob)>,
    }

    impl Probe {
        fn new() -> (Self, Shared) {
            let state: Shared = Shared::default();
            (
                Probe {
                    state: Rc::clone(&state),
                    send_on_start: Vec::new(),
                },
                state,
            )
        }

        fn sending(sends: Vec<(NetworkId, NodeId, Blob)>) -> (Self, Shared) {
            let (mut probe, state) = Probe::new();
            probe.send_on_start = sends;
            (probe, state)
        }
    }

    impl Process<Blob> for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Blob>) {
            for (net, to, msg) in self.send_on_start.drain(..) {
                ctx.send(net, to, msg);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Blob>, from: NodeId, msg: Blob) {
            self.state
                .borrow_mut()
                .delivered
                .push((from, msg.0, ctx.now()));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Blob>, _timer: TimerId) {
            self.state.borrow_mut().timer_fires.push(ctx.now());
        }
        fn on_crashed(&mut self, _ctx: &mut Ctx<'_, Blob>, node: NodeId) {
            self.state.borrow_mut().crashes_seen.push(node);
        }
        fn on_tx_idle(&mut self, _ctx: &mut Ctx<'_, Blob>, _net: NetworkId) {
            self.state.borrow_mut().tx_idles += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Ctx<'_, Blob>) {
            self.state.borrow_mut().restarts += 1;
        }
    }

    fn quiet_fe() -> NetworkConfig {
        let mut cfg = NetworkConfig::fast_ethernet();
        cfg.proc_jitter = Nanos::ZERO; // exact assertions
        cfg
    }

    fn two_node_sim(payload: usize) -> (PacketSim<Blob>, NodeId, Shared, NodeId, Shared) {
        let mut sim = PacketSim::new(1);
        let net = sim.add_network(quiet_fe());
        let a = NodeId::Client(ClientId(0));
        let b = NodeId::Client(ClientId(1));
        let (pa, sa) = Probe::sending(vec![(net, b, Blob(payload))]);
        let (pb, sb) = Probe::new();
        sim.add_node(a, Box::new(pa));
        sim.add_node(b, Box::new(pb));
        sim.attach(a, net);
        sim.attach(b, net);
        (sim, a, sa, b, sb)
    }

    #[test]
    fn delivery_time_accounts_every_stage() {
        let (mut sim, _a, _sa, _b, sb) = two_node_sim(1000);
        sim.run_to_quiescence();
        let st = sb.borrow();
        assert_eq!(st.delivered.len(), 1);
        // 1000B -> 1 frame -> 1078 wire bytes; tx = 86.24µs; prop = 30µs;
        // rx = 86.24µs; proc = 40µs  => 242.48µs.
        assert_eq!(st.delivered[0].2, Nanos(242_480));
    }

    #[test]
    fn tx_serialization_queues_messages() {
        let mut sim = PacketSim::new(1);
        let net = sim.add_network(quiet_fe());
        let a = NodeId::Client(ClientId(0));
        let b = NodeId::Client(ClientId(1));
        let (pa, _sa) = Probe::sending(vec![(net, b, Blob(1000)), (net, b, Blob(1000))]);
        let (pb, sb) = Probe::new();
        sim.add_node(a, Box::new(pa));
        sim.add_node(b, Box::new(pb));
        sim.attach(a, net);
        sim.attach(b, net);
        sim.run_to_quiescence();
        let st = sb.borrow();
        assert_eq!(st.delivered.len(), 2);
        // Second message serializes after the first: deliveries one
        // tx-time (86.24µs) apart (TX and RX pipelines).
        assert_eq!(st.delivered[1].2 - st.delivered[0].2, Nanos(86_240));
    }

    #[test]
    fn rx_port_contention_serializes_concurrent_senders() {
        let mut sim = PacketSim::new(1);
        let net = sim.add_network(quiet_fe());
        let dst = NodeId::Client(ClientId(9));
        let (pd, sd) = Probe::new();
        sim.add_node(dst, Box::new(pd));
        sim.attach(dst, net);
        for i in 0..2u32 {
            let id = NodeId::Client(ClientId(i));
            let (p, _s) = Probe::sending(vec![(net, dst, Blob(1000))]);
            sim.add_node(id, Box::new(p));
            sim.attach(id, net);
        }
        sim.run_to_quiescence();
        let st = sd.borrow();
        assert_eq!(st.delivered.len(), 2);
        // Both frames arrive simultaneously; the switch output port
        // serializes them: deliveries one rx-time apart.
        assert_eq!(st.delivered[1].2 - st.delivered[0].2, Nanos(86_240));
    }

    #[test]
    fn separate_networks_do_not_contend() {
        let mut sim = PacketSim::new(1);
        let net0 = sim.add_network(quiet_fe());
        let net1 = sim.add_network(quiet_fe());
        let dst = NodeId::Client(ClientId(9));
        let (pd, sd) = Probe::new();
        sim.add_node(dst, Box::new(pd));
        sim.attach(dst, net0);
        sim.attach(dst, net1);
        for (i, net) in [(0u32, net0), (1u32, net1)] {
            let id = NodeId::Client(ClientId(i));
            let (p, _s) = Probe::sending(vec![(net, dst, Blob(1000))]);
            sim.add_node(id, Box::new(p));
            sim.attach(id, net);
        }
        sim.run_to_quiescence();
        let st = sd.borrow();
        assert_eq!(st.delivered.len(), 2);
        // Dual-homed: both frames deliver simultaneously.
        assert_eq!(st.delivered[0].2, st.delivered[1].2);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerNode {
            state: Shared,
        }
        impl Process<Blob> for TimerNode {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Blob>) {
                let _t1 = ctx.set_timer(Nanos::from_micros(10));
                let t2 = ctx.set_timer(Nanos::from_micros(20));
                ctx.cancel_timer(t2);
                let _t3 = ctx.set_timer(Nanos::from_micros(30));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Blob>, _: NodeId, _: Blob) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Blob>, _timer: TimerId) {
                self.state.borrow_mut().timer_fires.push(ctx.now());
            }
        }
        let mut sim = PacketSim::new(1);
        let id = NodeId::Client(ClientId(0));
        let state: Shared = Shared::default();
        sim.add_node(
            id,
            Box::new(TimerNode {
                state: Rc::clone(&state),
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(
            state.borrow().timer_fires,
            vec![Nanos(10_000), Nanos(30_000)]
        );
    }

    #[test]
    fn crash_drops_messages_and_notifies_survivors() {
        let (mut sim, _a, sa, b, sb) = two_node_sim(100_000); // long transmission
        sim.crash_at(b, Nanos::from_micros(1)); // dies before delivery
        sim.run_to_quiescence();
        assert!(sim.is_crashed(b));
        assert_eq!(sb.borrow().delivered.len(), 0);
        assert_eq!(sim.dropped_to_crashed(), 1);
        assert_eq!(sa.borrow().crashes_seen, vec![b]);
    }

    #[test]
    fn sender_crash_mid_transmission_loses_message() {
        let (mut sim, a, _sa, _b, sb) = two_node_sim(100_000);
        // 100 KB ≈ 8.3 ms on the wire: crash the *sender* at 1 ms.
        sim.crash_at(a, Nanos::from_millis(1));
        sim.run_to_quiescence();
        assert_eq!(sb.borrow().delivered.len(), 0);
        assert!(sim.dropped_to_crashed() >= 1);
    }

    #[test]
    fn restart_drops_dead_incarnation_messages_and_reboots() {
        let (mut sim, _a, sa, b, sb) = two_node_sim(100_000); // ≈8.3 ms on the wire
        sim.crash_at(b, Nanos::from_micros(1));
        sim.restart_at(b, Nanos::from_micros(2));
        sim.run_to_quiescence();
        let st = sb.borrow();
        // The in-flight message targeted the dead incarnation.
        assert_eq!(st.delivered.len(), 0);
        assert_eq!(st.restarts, 1);
        assert!(sim.dropped_to_crashed() >= 1);
        assert!(!sim.is_crashed(b));
        // The restart outran detection, so no stale crash report fired.
        assert_eq!(sa.borrow().crashes_seen, Vec::<NodeId>::new());
    }

    #[test]
    fn messages_after_restart_deliver_normally() {
        let (mut sim, a, _sa, b, sb) = two_node_sim(1000);
        sim.crash_at(b, Nanos::ZERO);
        sim.restart_at(b, Nanos::from_micros(1));
        sim.run_to_quiescence();
        assert_eq!(sb.borrow().delivered.len(), 0); // pre-crash send lost
                                                    // A fresh send to the new incarnation goes through.
        let _ = a;
        sim.poke(b); // no-op poke just to confirm liveness
        sim.run_to_quiescence();
        assert!(!sim.is_crashed(b));
    }

    #[test]
    fn pre_crash_timers_do_not_fire_into_the_new_incarnation() {
        struct TimerNode {
            state: Shared,
        }
        impl Process<Blob> for TimerNode {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Blob>) {
                let _ = ctx.set_timer(Nanos::from_millis(2));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Blob>, _: NodeId, _: Blob) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Blob>, _timer: TimerId) {
                self.state.borrow_mut().timer_fires.push(ctx.now());
            }
            fn on_restart(&mut self, _ctx: &mut Ctx<'_, Blob>) {}
        }
        let mut sim = PacketSim::new(1);
        let id = NodeId::Client(ClientId(0));
        let state: Shared = Shared::default();
        sim.add_node(
            id,
            Box::new(TimerNode {
                state: Rc::clone(&state),
            }),
        );
        sim.crash_at(id, Nanos::from_millis(1));
        sim.restart_at(id, Nanos::from_micros(1500));
        sim.run_to_quiescence();
        // The 2 ms timer belonged to epoch 0; the node restarted at 1.5 ms
        // into epoch 1, so the timer must be swallowed.
        assert_eq!(state.borrow().timer_fires, Vec::<Nanos>::new());
    }

    #[test]
    fn restarted_node_relearns_still_crashed_peers() {
        let mut sim = PacketSim::new(1);
        let net = sim.add_network(quiet_fe());
        let a = NodeId::Client(ClientId(0));
        let b = NodeId::Client(ClientId(1));
        let c = NodeId::Client(ClientId(2));
        let (pa, sa) = Probe::new();
        sim.add_node(a, Box::new(pa));
        sim.add_node(b, Box::new(Probe::new().0));
        sim.add_node(c, Box::new(Probe::new().0));
        for n in [a, b, c] {
            sim.attach(n, net);
        }
        sim.crash_at(c, Nanos::from_micros(1)); // c stays down
        sim.crash_at(a, Nanos::from_millis(2));
        sim.restart_at(a, Nanos::from_millis(3));
        sim.run_to_quiescence();
        // a saw c's crash twice: once live, once as the post-restart
        // failure-detector refresh.
        assert_eq!(sa.borrow().crashes_seen, vec![c, c]);
    }

    #[test]
    fn tx_idle_fires_after_sends_drain() {
        let (mut sim, _a, sa, _b, _sb) = two_node_sim(1000);
        sim.run_to_quiescence();
        assert!(sa.borrow().tx_idles >= 1);
    }

    #[test]
    fn stats_account_wire_bytes() {
        let (mut sim, a, _sa, b, _sb) = two_node_sim(1000);
        sim.run_to_quiescence();
        let tx = sim.nic_stats(a, NetworkId(0));
        let rx = sim.nic_stats(b, NetworkId(0));
        assert_eq!(tx.tx_wire_bytes, 1078);
        assert_eq!(rx.rx_wire_bytes, 1078);
        assert_eq!(tx.msgs_sent, 1);
        assert_eq!(rx.msgs_delivered, 1);
        assert!(tx.tx_busy > Nanos::ZERO);
        sim.reset_stats();
        assert_eq!(sim.nic_stats(a, NetworkId(0)).tx_wire_bytes, 0);
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let (mut sim, _a, _sa, _b, _sb) = two_node_sim(1000);
        sim.run_until(Nanos::from_millis(5));
        assert_eq!(sim.now(), Nanos::from_millis(5));
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = || {
            let (mut sim, _a, _sa, _b, sb) = two_node_sim(1000);
            sim.enable_trace();
            sim.run_to_quiescence();
            let delivered = sb.borrow().delivered.clone();
            (delivered, sim.take_trace().len(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let (mut sim, _a, _sa, _b, _sb) = two_node_sim(100);
        sim.enable_trace();
        sim.run_to_quiescence();
        let trace = sim.take_trace();
        assert!(trace.iter().any(|e| e.what.contains("send")));
        assert!(trace.iter().any(|e| e.what.contains("deliver")));
    }

    #[test]
    fn wire_bytes_charges_per_frame_overhead() {
        let cfg = NetworkConfig::fast_ethernet();
        assert_eq!(cfg.wire_bytes(0), 78); // empty message: one frame
        assert_eq!(cfg.wire_bytes(1460), 1460 + 78);
        assert_eq!(cfg.wire_bytes(1461), 1461 + 2 * 78);
        assert_eq!(cfg.wire_bytes(65536), 65536 + 45 * 78);
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_node_panics() {
        let mut sim: PacketSim<Blob> = PacketSim::new(1);
        let id = NodeId::Client(ClientId(0));
        sim.add_node(id, Box::new(Probe::new().0));
        sim.add_node(id, Box::new(Probe::new().0));
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn send_to_detached_node_panics() {
        let mut sim = PacketSim::new(1);
        let net = sim.add_network(NetworkConfig::fast_ethernet());
        let a = NodeId::Client(ClientId(0));
        let b = NodeId::Client(ClientId(1));
        let (pa, _sa) = Probe::sending(vec![(net, b, Blob(10))]);
        sim.add_node(a, Box::new(pa));
        sim.add_node(b, Box::new(Probe::new().0));
        sim.attach(a, net);
        // b never attached.
        sim.run_to_quiescence();
    }
}
