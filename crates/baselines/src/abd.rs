//! The majority-quorum atomic register (ABD / Lynch–Shvartsman).
//!
//! Multi-writer multi-reader variant:
//!
//! * **write(v)** — phase 1: query a majority for their highest tag;
//!   phase 2: send `⟨update, (max_ts+1, writer), v⟩` to all, wait for a
//!   majority of acks.
//! * **read()** — phase 1: query a majority for `(tag, value)`; pick the
//!   maximum; phase 2: *write back* that pair to a majority (required for
//!   atomicity — without it the read-inversion anomaly appears), then
//!   return the value.
//!
//! Servers never talk to each other; all cost is client↔server fan-out.
//! Tolerates `⌈n/2⌉ − 1` server crashes. The throughput problem the paper
//! targets is visible in the message pattern: every read moves the value
//! over `⌈(n+1)/2⌉` server NICs (query responses) plus the write-back, so
//! adding servers does not add read capacity.

use std::cell::RefCell;
use std::rc::Rc;

use hts_lincheck::{History, OpId};
use hts_sim::packet::{Ctx, NetworkId, Process, TimerId};
use hts_sim::{ClientStats, Nanos, OpMix, Wire, WorkloadConfig};
use hts_types::{ClientId, NodeId, RequestId, ServerId, Tag, Value};

/// ABD wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbdMsg {
    /// Client → server: report your `(tag, value)` (read phase 1).
    Query {
        /// Correlation id.
        request: RequestId,
    },
    /// Server → client: phase-1 response with the full pair.
    QueryResp {
        /// Correlation id.
        request: RequestId,
        /// Server's current tag.
        tag: Tag,
        /// Server's current value.
        value: Value,
    },
    /// Client → server: report your tag only (write phase 1).
    TagQuery {
        /// Correlation id.
        request: RequestId,
    },
    /// Server → client: phase-1 response for writes (no value).
    TagResp {
        /// Correlation id.
        request: RequestId,
        /// Server's current tag.
        tag: Tag,
    },
    /// Client → server: adopt `(tag, value)` if newer (phase 2 of both
    /// operations; for reads this is the write-back).
    Update {
        /// Correlation id.
        request: RequestId,
        /// Tag to adopt.
        tag: Tag,
        /// Value to adopt.
        value: Value,
    },
    /// Server → client: phase-2 ack.
    UpdateAck {
        /// Correlation id.
        request: RequestId,
    },
}

impl Wire for AbdMsg {
    fn wire_size(&self) -> usize {
        // Mirrors the hts codec cost model: 1 discriminant + 8 request +
        // (10 tag) + (4 + len value).
        match self {
            AbdMsg::Query { .. } | AbdMsg::TagQuery { .. } => 1 + 8,
            AbdMsg::TagResp { .. } => 1 + 8 + 10,
            AbdMsg::UpdateAck { .. } => 1 + 8,
            AbdMsg::QueryResp { value, .. } | AbdMsg::Update { value, .. } => {
                1 + 8 + 10 + 4 + value.len()
            }
        }
    }
}

/// An ABD server: a passive `(tag, value)` store.
pub struct AbdServer {
    tag: Tag,
    value: Value,
    client_net: NetworkId,
}

impl AbdServer {
    /// Creates a server answering on `client_net`.
    pub fn new(client_net: NetworkId) -> Self {
        AbdServer {
            tag: Tag::ZERO,
            value: Value::bottom(),
            client_net,
        }
    }

    /// Current stored pair (tests).
    pub fn stored(&self) -> (Tag, &Value) {
        (self.tag, &self.value)
    }
}

impl Process<AbdMsg> for AbdServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, AbdMsg>, from: NodeId, msg: AbdMsg) {
        let reply = match msg {
            AbdMsg::Query { request } => AbdMsg::QueryResp {
                request,
                tag: self.tag,
                value: self.value.clone(),
            },
            AbdMsg::TagQuery { request } => AbdMsg::TagResp {
                request,
                tag: self.tag,
            },
            AbdMsg::Update {
                request,
                tag,
                value,
            } => {
                if tag > self.tag {
                    self.tag = tag;
                    self.value = value;
                }
                AbdMsg::UpdateAck { request }
            }
            // Responses are client-bound; ignore if misrouted.
            _ => return,
        };
        ctx.send(self.client_net, from, reply);
    }
}

enum OpPhase {
    /// Write phase 1: collecting tags.
    WriteQuery { responses: Vec<Tag>, value: Value },
    /// Write phase 2: collecting update acks.
    WriteUpdate { acks: usize },
    /// Read phase 1: collecting (tag, value) pairs.
    ReadQuery { responses: Vec<(Tag, Value)> },
    /// Read phase 2 (write-back): collecting acks; `value` is returned.
    ReadBack { acks: usize, value: Value },
}

struct CurrentOp {
    request: RequestId,
    phase: OpPhase,
    issued: Nanos,
    op_id: Option<OpId>,
    is_read: bool,
}

/// A closed-loop ABD client (same workload semantics as
/// [`hts_sim::SimClient`]).
pub struct AbdClient {
    id: ClientId,
    n: u16,
    client_net: NetworkId,
    workload: WorkloadConfig,
    stats: Rc<RefCell<ClientStats>>,
    history: Option<Rc<RefCell<History>>>,
    current: Option<CurrentOp>,
    next_request: u64,
    value_seq: u64,
    done: bool,
    kick: Option<TimerId>,
}

impl AbdClient {
    /// Creates a client of `n` ABD servers.
    pub fn new(
        id: ClientId,
        n: u16,
        workload: WorkloadConfig,
        client_net: NetworkId,
        history: Option<Rc<RefCell<History>>>,
    ) -> (Self, Rc<RefCell<ClientStats>>) {
        let stats = Rc::new(RefCell::new(ClientStats::default()));
        (
            AbdClient {
                id,
                n,
                client_net,
                workload,
                stats: Rc::clone(&stats),
                history,
                current: None,
                next_request: 0,
                value_seq: 0,
                done: false,
                kick: None,
            },
            stats,
        )
    }

    fn majority(&self) -> usize {
        usize::from(self.n) / 2 + 1
    }

    fn broadcast(&self, ctx: &mut Ctx<'_, AbdMsg>, msg: &AbdMsg) {
        for i in 0..self.n {
            ctx.send(self.client_net, NodeId::Server(ServerId(i)), msg.clone());
        }
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, AbdMsg>) {
        if self.done || self.current.is_some() {
            return;
        }
        let total = {
            let s = self.stats.borrow();
            s.writes_done + s.reads_done
        };
        if let Some(limit) = self.workload.op_limit {
            if total >= limit {
                self.done = true;
                return;
            }
        }
        let read = match self.workload.mix {
            OpMix::ReadOnly => true,
            OpMix::WriteOnly => false,
            OpMix::Mixed { read_percent } => ctx.rand_below(100) < u64::from(read_percent),
        };
        self.next_request += 1;
        let request = RequestId(self.next_request);
        let now = ctx.now();
        if read {
            let op_id = self
                .history
                .as_ref()
                .map(|h| h.borrow_mut().invoke_read(self.id, now.as_nanos()));
            self.current = Some(CurrentOp {
                request,
                phase: OpPhase::ReadQuery {
                    responses: Vec::new(),
                },
                issued: now,
                op_id,
                is_read: true,
            });
            self.broadcast(ctx, &AbdMsg::Query { request });
        } else {
            self.value_seq += 1;
            let value = hts_sim::unique_value(self.id, self.value_seq, self.workload.value_size);
            let op_id = self.history.as_ref().map(|h| {
                h.borrow_mut()
                    .invoke_write(self.id, value.clone(), now.as_nanos())
            });
            self.current = Some(CurrentOp {
                request,
                phase: OpPhase::WriteQuery {
                    responses: Vec::new(),
                    value,
                },
                issued: now,
                op_id,
                is_read: false,
            });
            self.broadcast(ctx, &AbdMsg::TagQuery { request });
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, AbdMsg>, read_value: Option<Value>) {
        let op = self.current.take().expect("finishing without op");
        let now = ctx.now();
        let latency = now.saturating_sub(op.issued);
        {
            let mut stats = self.stats.borrow_mut();
            if op.is_read {
                let v = read_value.as_ref().expect("read value");
                stats.reads_done += 1;
                stats.read_payload_bytes += v.len() as u64;
                stats.read_latency_total += latency;
                stats.read_latencies.push(latency.as_nanos());
            } else {
                stats.writes_done += 1;
                stats.write_payload_bytes += self.workload.value_size as u64;
                stats.write_latency_total += latency;
                stats.write_latencies.push(latency.as_nanos());
            }
        }
        if let (Some(h), Some(id)) = (&self.history, op.op_id) {
            let mut h = h.borrow_mut();
            match read_value {
                Some(v) => h.complete_read(id, v, now.as_nanos()),
                None => h.complete_write(id, now.as_nanos()),
            }
        }
        self.issue_next(ctx);
    }
}

impl Process<AbdMsg> for AbdClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, AbdMsg>) {
        if self.workload.start_delay == Nanos::ZERO {
            self.issue_next(ctx);
        } else {
            self.kick = Some(ctx.set_timer(self.workload.start_delay));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AbdMsg>, timer: TimerId) {
        if self.kick == Some(timer) {
            self.kick = None;
            self.issue_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, AbdMsg>, _from: NodeId, msg: AbdMsg) {
        let majority = self.majority();
        let Some(op) = self.current.as_mut() else {
            return;
        };
        match (msg, &mut op.phase) {
            (AbdMsg::TagResp { request, tag }, OpPhase::WriteQuery { responses, value })
                if request == op.request =>
            {
                responses.push(tag);
                if responses.len() == majority {
                    let max_ts = responses.iter().map(|t| t.ts).max().unwrap_or(0);
                    // Writer identity breaks ties; clients map into the
                    // tag's origin field (documented narrowing).
                    let tag = Tag::new(max_ts + 1, ServerId(self.id.0 as u16));
                    let value = value.clone();
                    let request = op.request;
                    op.phase = OpPhase::WriteUpdate { acks: 0 };
                    self.broadcast(
                        ctx,
                        &AbdMsg::Update {
                            request,
                            tag,
                            value,
                        },
                    );
                }
            }
            (AbdMsg::UpdateAck { request }, OpPhase::WriteUpdate { acks })
                if request == op.request =>
            {
                *acks += 1;
                if *acks == majority {
                    self.finish(ctx, None);
                }
            }
            (
                AbdMsg::QueryResp {
                    request,
                    tag,
                    value,
                },
                OpPhase::ReadQuery { responses },
            ) if request == op.request => {
                responses.push((tag, value));
                if responses.len() == majority {
                    let (tag, value) = responses
                        .iter()
                        .max_by_key(|(t, _)| *t)
                        .cloned()
                        .expect("majority responses");
                    let request = op.request;
                    op.phase = OpPhase::ReadBack {
                        acks: 0,
                        value: value.clone(),
                    };
                    // Write-back: required for atomicity.
                    self.broadcast(
                        ctx,
                        &AbdMsg::Update {
                            request,
                            tag,
                            value,
                        },
                    );
                }
            }
            (AbdMsg::UpdateAck { request }, OpPhase::ReadBack { acks, .. })
                if request == op.request =>
            {
                *acks += 1;
                if *acks == majority {
                    let value = match &op.phase {
                        OpPhase::ReadBack { value, .. } => value.clone(),
                        _ => unreachable!(),
                    };
                    self.finish(ctx, Some(value));
                }
            }
            _ => {} // stale/extra responses beyond the majority
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_lincheck::check_conditions;
    use hts_sim::packet::{NetworkConfig, PacketSim};

    fn run_cluster(
        seed: u64,
        n: u16,
        clients: u32,
        mix: OpMix,
        ops: u64,
    ) -> (Vec<Rc<RefCell<ClientStats>>>, Rc<RefCell<History>>) {
        let mut sim = PacketSim::new(seed);
        let net = sim.add_network(NetworkConfig::fast_ethernet());
        let history = Rc::new(RefCell::new(History::new()));
        for i in 0..n {
            let id = NodeId::Server(ServerId(i));
            sim.add_node(id, Box::new(AbdServer::new(net)));
            sim.attach(id, net);
        }
        let mut all = Vec::new();
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
            let (client, stats) =
                AbdClient::new(ClientId(c), n, workload, net, Some(Rc::clone(&history)));
            sim.add_node(id, Box::new(client));
            sim.attach(id, net);
            all.push(stats);
        }
        sim.run_to_quiescence();
        (all, history)
    }

    #[test]
    fn sequential_write_then_read() {
        let (stats, history) = run_cluster(1, 3, 1, OpMix::Mixed { read_percent: 50 }, 10);
        let s = stats[0].borrow();
        assert_eq!(s.writes_done + s.reads_done, 10);
        let h = history.borrow();
        assert!(check_conditions(&h).is_empty(), "{h}");
    }

    #[test]
    fn concurrent_clients_remain_atomic() {
        let (stats, history) = run_cluster(7, 3, 4, OpMix::Mixed { read_percent: 60 }, 8);
        let done: u64 = stats
            .iter()
            .map(|s| {
                let s = s.borrow();
                s.writes_done + s.reads_done
            })
            .sum();
        assert_eq!(done, 32);
        let h = history.borrow();
        let violations = check_conditions(&h);
        assert!(violations.is_empty(), "{violations:?}\n{h}");
    }

    #[test]
    fn tolerates_minority_crash() {
        let mut sim = PacketSim::new(3);
        let net = sim.add_network(NetworkConfig::fast_ethernet());
        for i in 0..3u16 {
            let id = NodeId::Server(ServerId(i));
            sim.add_node(id, Box::new(AbdServer::new(net)));
            sim.attach(id, net);
        }
        let workload = WorkloadConfig {
            mix: OpMix::Mixed { read_percent: 50 },
            value_size: 64,
            op_limit: Some(10),
            start_delay: Nanos::ZERO,
            timeout: Nanos::from_millis(500),
            window: 1,
        };
        let (client, stats) = AbdClient::new(ClientId(0), 3, workload, net, None);
        let cid = NodeId::Client(ClientId(0));
        sim.add_node(cid, Box::new(client));
        sim.attach(cid, net);
        sim.crash_at(NodeId::Server(ServerId(2)), Nanos::from_micros(500));
        sim.run_to_quiescence();
        let s = stats.borrow();
        assert_eq!(s.writes_done + s.reads_done, 10, "majority still answers");
    }

    #[test]
    fn wire_sizes_match_shape() {
        assert!(
            AbdMsg::Query {
                request: RequestId(1)
            }
            .wire_size()
                < 16
        );
        let update = AbdMsg::Update {
            request: RequestId(1),
            tag: Tag::new(1, ServerId(0)),
            value: Value::filled(0, 1000),
        };
        assert!(update.wire_size() > 1000);
    }
}
