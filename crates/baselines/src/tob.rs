//! A total-order-broadcast register on the ring transport.
//!
//! The modular design the paper's §1 considers and rejects: implement the
//! register by totally ordering **all** operations — including reads —
//! with a ring-based total order broadcast (the authors' own LCR-style
//! primitive \[15\] is the throughput-optimal representative). Each
//! operation is announced around the ring, then committed with a second
//! turn, exactly like the storage algorithm's writes — so writes perform
//! identically, but *reads now consume ring slots too*: aggregate
//! throughput is capped at the broadcast's ≈1 op/round instead of reads
//! scaling with `n`. That is the measured trade-off in `hts-bench`.
//!
//! Ordering note: operations are applied in commit-circulation order,
//! which a single-ring token structure makes consistent across servers in
//! the crash-free runs benchmarked here (recovery is out of scope).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use hts_lincheck::History;
use hts_sim::packet::{Ctx, NetworkId, Process, TimerId};
use hts_sim::{ClientStats, Nanos, Wire, WorkloadConfig};
use hts_types::{ClientId, NodeId, RequestId, ServerId, Tag, Value};

use crate::common::LoopState;

/// A totally-ordered operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TobOp {
    /// Order tag (assigned by the origin server).
    pub tag: Tag,
    /// `Some(value)` for writes, `None` for reads.
    pub value: Option<Value>,
}

/// One ring hop of TOB traffic: at most one announcement plus one commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TobFrame {
    /// A new operation circulating for the first turn.
    pub announce: Option<TobOp>,
    /// A committed tag circulating for the second turn.
    pub commit: Option<Tag>,
}

/// TOB wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TobMsg {
    /// Client → server: write.
    WriteReq {
        /// Correlation id.
        request: RequestId,
        /// Value to write.
        value: Value,
    },
    /// Client → server: read (totally ordered like a write!).
    ReadReq {
        /// Correlation id.
        request: RequestId,
    },
    /// Server → client: write done.
    WriteAck {
        /// Correlation id.
        request: RequestId,
    },
    /// Server → client: read result.
    ReadAck {
        /// Correlation id.
        request: RequestId,
        /// Value read.
        value: Value,
    },
    /// Server → ring successor.
    Ring(TobFrame),
}

impl Wire for TobMsg {
    fn wire_size(&self) -> usize {
        match self {
            TobMsg::WriteReq { value, .. } => 1 + 8 + 4 + value.len(),
            TobMsg::ReadReq { .. } | TobMsg::WriteAck { .. } => 1 + 8,
            TobMsg::ReadAck { value, .. } => 1 + 8 + 4 + value.len(),
            TobMsg::Ring(frame) => {
                let a = frame.announce.as_ref().map_or(0, |op| {
                    10 + 1 + op.value.as_ref().map_or(0, |v| 4 + v.len())
                });
                let c = frame.commit.map_or(0, |_| 10);
                1 + 1 + a + 1 + c
            }
        }
    }
}

/// A TOB ring server.
pub struct TobServer {
    me: ServerId,
    n: u16,
    ring_net: NetworkId,
    client_net: NetworkId,
    next_ts: u64,
    /// Announced-but-uncommitted ops (the op cache for tag-only commits).
    announced: BTreeMap<Tag, Option<Value>>,
    /// Latest committed write.
    stored: (Tag, Value),
    /// My clients' ops awaiting commit.
    local: HashMap<Tag, (ClientId, RequestId, bool)>,
    /// Announcements waiting to be forwarded; alternates with local queue.
    forward_queue: VecDeque<TobOp>,
    local_queue: VecDeque<(ClientId, RequestId, Option<Value>)>,
    commit_queue: VecDeque<Tag>,
    prefer_local: bool,
    /// Per-origin commit watermark (duplicate suppression).
    committed_seen: HashMap<ServerId, u64>,
}

impl TobServer {
    /// Creates TOB server `me` of `n`.
    pub fn new(me: ServerId, n: u16, ring_net: NetworkId, client_net: NetworkId) -> Self {
        TobServer {
            me,
            n,
            ring_net,
            client_net,
            next_ts: 0,
            announced: BTreeMap::new(),
            stored: (Tag::ZERO, Value::bottom()),
            local: HashMap::new(),
            forward_queue: VecDeque::new(),
            local_queue: VecDeque::new(),
            commit_queue: VecDeque::new(),
            prefer_local: true,
            committed_seen: HashMap::new(),
        }
    }

    fn successor(&self) -> NodeId {
        NodeId::Server(ServerId((self.me.0 + 1) % self.n))
    }

    fn pump(&mut self, ctx: &mut Ctx<'_, TobMsg>) {
        if !ctx.tx_is_idle(self.ring_net) {
            return;
        }
        let mut frame = TobFrame {
            announce: None,
            commit: None,
        };
        // Alternate local announcements and forwarded ones (fairness-lite).
        let local_first = self.prefer_local && !self.local_queue.is_empty();
        let forward_available = !self.forward_queue.is_empty();
        if local_first || (!forward_available && !self.local_queue.is_empty()) {
            let (client, request, value) = self.local_queue.pop_front().expect("non-empty");
            self.next_ts = self.next_ts.max(self.stored.0.ts) + 1;
            let tag = Tag::new(self.next_ts, self.me);
            let is_read = value.is_none();
            self.local.insert(tag, (client, request, is_read));
            self.announced.insert(tag, value.clone());
            frame.announce = Some(TobOp { tag, value });
            self.prefer_local = false;
        } else if let Some(op) = self.forward_queue.pop_front() {
            frame.announce = Some(op);
            self.prefer_local = true;
        }
        if let Some(tag) = self.commit_queue.pop_front() {
            frame.commit = Some(tag);
        }
        if frame.announce.is_some() || frame.commit.is_some() {
            ctx.send(self.ring_net, self.successor(), TobMsg::Ring(frame));
        }
    }

    fn process_commit(&mut self, ctx: &mut Ctx<'_, TobMsg>, tag: Tag) {
        let mine = tag.origin == self.me;
        if !mine {
            let seen = self.committed_seen.entry(tag.origin).or_insert(0);
            if *seen >= tag.ts {
                return;
            }
            *seen = tag.ts;
        }
        if let Some(Some(v)) = self.announced.remove(&tag) {
            if tag > self.stored.0 {
                self.stored = (tag, v);
            }
        }
        if mine {
            if let Some((client, request, is_read)) = self.local.remove(&tag) {
                let reply = if is_read {
                    TobMsg::ReadAck {
                        request,
                        value: self.stored.1.clone(),
                    }
                } else {
                    TobMsg::WriteAck { request }
                };
                ctx.send(self.client_net, NodeId::Client(client), reply);
            }
        } else {
            self.commit_queue.push_back(tag);
        }
    }
}

impl Process<TobMsg> for TobServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, TobMsg>, from: NodeId, msg: TobMsg) {
        match msg {
            TobMsg::WriteReq { request, value } => {
                if let Some(client) = from.as_client() {
                    self.local_queue.push_back((client, request, Some(value)));
                }
            }
            TobMsg::ReadReq { request } => {
                if let Some(client) = from.as_client() {
                    self.local_queue.push_back((client, request, None));
                }
            }
            TobMsg::Ring(frame) => {
                if let Some(tag) = frame.commit {
                    self.process_commit(ctx, tag);
                }
                if let Some(op) = frame.announce {
                    if op.tag.origin == self.me {
                        // Announcement completed its turn: commit it.
                        self.commit_queue.push_back(op.tag);
                    } else {
                        // Cache at *receipt*: the commit may arrive while
                        // the announce still waits in the forward queue.
                        self.announced.insert(op.tag, op.value.clone());
                        self.forward_queue.push_back(op);
                    }
                }
            }
            _ => {}
        }
        self.pump(ctx);
    }

    fn on_tx_idle(&mut self, ctx: &mut Ctx<'_, TobMsg>, net: NetworkId) {
        if net == self.ring_net {
            self.pump(ctx);
        }
    }
}

/// A closed-loop TOB client.
pub struct TobClient {
    state: LoopState,
    preferred: ServerId,
    client_net: NetworkId,
    kick: Option<TimerId>,
}

impl TobClient {
    /// Creates a client pinned to `preferred`.
    pub fn new(
        id: ClientId,
        preferred: ServerId,
        workload: WorkloadConfig,
        client_net: NetworkId,
        history: Option<Rc<RefCell<History>>>,
    ) -> (Self, Rc<RefCell<ClientStats>>) {
        let (state, stats) = LoopState::new(id, workload, history);
        (
            TobClient {
                state,
                preferred,
                client_net,
                kick: None,
            },
            stats,
        )
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, TobMsg>) {
        let rand = ctx.rand_below(100);
        let Some(issue) = self.state.next_op(ctx.now(), rand) else {
            return;
        };
        let msg = if issue.is_read {
            TobMsg::ReadReq {
                request: issue.request,
            }
        } else {
            TobMsg::WriteReq {
                request: issue.request,
                value: issue.value.expect("write value"),
            }
        };
        ctx.send(self.client_net, NodeId::Server(self.preferred), msg);
    }
}

impl Process<TobMsg> for TobClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TobMsg>) {
        if self.state.workload.start_delay == Nanos::ZERO {
            self.issue_next(ctx);
        } else {
            self.kick = Some(ctx.set_timer(self.state.workload.start_delay));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TobMsg>, timer: TimerId) {
        if self.kick == Some(timer) {
            self.kick = None;
            self.issue_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, TobMsg>, _from: NodeId, msg: TobMsg) {
        let done = match msg {
            TobMsg::WriteAck { request } if self.state.matches(request) => Some(None),
            TobMsg::ReadAck { request, value } if self.state.matches(request) => Some(Some(value)),
            _ => None,
        };
        if let Some(read_value) = done {
            self.state.complete(ctx.now(), read_value);
            self.issue_next(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_lincheck::check_conditions;
    use hts_sim::packet::{NetworkConfig, PacketSim};
    use hts_sim::OpMix;

    fn run(seed: u64, n: u16, clients: u32, ops: u64, mix: OpMix) -> (u64, Rc<RefCell<History>>) {
        let mut sim = PacketSim::new(seed);
        let ring_net = sim.add_network(NetworkConfig::fast_ethernet());
        let client_net = sim.add_network(NetworkConfig::fast_ethernet());
        let history = Rc::new(RefCell::new(History::new()));
        for i in 0..n {
            let id = NodeId::Server(ServerId(i));
            sim.add_node(
                id,
                Box::new(TobServer::new(ServerId(i), n, ring_net, client_net)),
            );
            sim.attach(id, ring_net);
            sim.attach(id, client_net);
        }
        let mut stats = Vec::new();
        for c in 0..clients {
            let id = NodeId::Client(ClientId(c));
            let workload = WorkloadConfig {
                mix,
                value_size: 64,
                op_limit: Some(ops),
                start_delay: Nanos::ZERO,
                timeout: Nanos::from_millis(500),
                window: 1,
            };
            let (client, s) = TobClient::new(
                ClientId(c),
                ServerId((c % u32::from(n)) as u16),
                workload,
                client_net,
                Some(Rc::clone(&history)),
            );
            sim.add_node(id, Box::new(client));
            sim.attach(id, client_net);
            stats.push(s);
        }
        sim.run_to_quiescence();
        let done = stats
            .iter()
            .map(|s| {
                let s = s.borrow();
                s.writes_done + s.reads_done
            })
            .sum();
        (done, history)
    }

    #[test]
    fn ordered_ops_complete_and_stay_atomic() {
        let (done, history) = run(3, 3, 3, 8, OpMix::Mixed { read_percent: 50 });
        assert_eq!(done, 24);
        let h = history.borrow();
        let violations = check_conditions(&h);
        assert!(violations.is_empty(), "{violations:?}\n{h}");
    }

    #[test]
    fn reads_travel_the_ring() {
        // With a read-only workload the ring still carries traffic — the
        // defining cost of the TOB approach.
        let (done, _) = run(5, 3, 2, 5, OpMix::ReadOnly);
        assert_eq!(done, 10);
    }
}
