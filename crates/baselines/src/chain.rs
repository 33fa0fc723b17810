//! Chain replication (van Renesse & Schneider, OSDI 2004) as an atomic
//! register.
//!
//! Servers form a chain `s0 (head) → … → s_{n-1} (tail)`. A write enters
//! at the head, which orders it and streams it down the chain; the tail
//! acknowledges the client. Reads go **only to the tail**, which answers
//! locally. Updates crossing each link once gives chain replication the
//! same per-link write economy as the paper's ring — the paper's §1 credit
//! — but the single read server means read throughput does not scale,
//! which is the comparison `hts-bench` measures.
//!
//! Evaluated crash-free (chain repair is out of scope, as in the paper's
//! experiments).

use std::cell::RefCell;
use std::rc::Rc;

use hts_lincheck::History;
use hts_sim::packet::{Ctx, NetworkId, Process, TimerId};
use hts_sim::{ClientStats, Nanos, Wire, WorkloadConfig};
use hts_types::{ClientId, NodeId, RequestId, ServerId, Value};

use crate::common::LoopState;

/// Chain replication wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainMsg {
    /// Client → head.
    WriteReq {
        /// Correlation id.
        request: RequestId,
        /// Value to write.
        value: Value,
    },
    /// Server → successor: ordered update streaming down the chain.
    Update {
        /// Head-assigned sequence number.
        seq: u64,
        /// The value.
        value: Value,
        /// Originating client (for the tail's ack).
        client: ClientId,
        /// Client's correlation id.
        request: RequestId,
    },
    /// Tail → client.
    WriteAck {
        /// Correlation id.
        request: RequestId,
    },
    /// Client → tail.
    ReadReq {
        /// Correlation id.
        request: RequestId,
    },
    /// Tail → client.
    ReadAck {
        /// Correlation id.
        request: RequestId,
        /// The value read.
        value: Value,
    },
}

impl Wire for ChainMsg {
    fn wire_size(&self) -> usize {
        match self {
            ChainMsg::WriteReq { value, .. } => 1 + 8 + 4 + value.len(),
            ChainMsg::Update { value, .. } => 1 + 8 + 4 + 8 + 4 + value.len(),
            ChainMsg::WriteAck { .. } | ChainMsg::ReadReq { .. } => 1 + 8,
            ChainMsg::ReadAck { value, .. } => 1 + 8 + 4 + value.len(),
        }
    }
}

/// One chain server.
pub struct ChainServer {
    me: ServerId,
    n: u16,
    seq: u64,
    value: Value,
    server_net: NetworkId,
    client_net: NetworkId,
}

impl ChainServer {
    /// Creates chain position `me` of `n`.
    pub fn new(me: ServerId, n: u16, server_net: NetworkId, client_net: NetworkId) -> Self {
        ChainServer {
            me,
            n,
            seq: 0,
            value: Value::bottom(),
            server_net,
            client_net,
        }
    }

    fn is_head(&self) -> bool {
        self.me.0 == 0
    }

    fn is_tail(&self) -> bool {
        self.me.0 + 1 == self.n
    }

    fn apply_and_forward(
        &mut self,
        ctx: &mut Ctx<'_, ChainMsg>,
        seq: u64,
        value: Value,
        client: ClientId,
        request: RequestId,
    ) {
        self.seq = seq;
        self.value = value.clone();
        if self.is_tail() {
            ctx.send(
                self.client_net,
                NodeId::Client(client),
                ChainMsg::WriteAck { request },
            );
        } else {
            ctx.send(
                self.server_net,
                NodeId::Server(ServerId(self.me.0 + 1)),
                ChainMsg::Update {
                    seq,
                    value,
                    client,
                    request,
                },
            );
        }
    }
}

impl Process<ChainMsg> for ChainServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ChainMsg>, from: NodeId, msg: ChainMsg) {
        match msg {
            ChainMsg::WriteReq { request, value } => {
                if let (true, Some(client)) = (self.is_head(), from.as_client()) {
                    let seq = self.seq + 1;
                    self.apply_and_forward(ctx, seq, value, client, request);
                }
            }
            ChainMsg::Update {
                seq,
                value,
                client,
                request,
            } => self.apply_and_forward(ctx, seq, value, client, request),
            ChainMsg::ReadReq { request } => {
                if let (true, Some(client)) = (self.is_tail(), from.as_client()) {
                    ctx.send(
                        self.client_net,
                        NodeId::Client(client),
                        ChainMsg::ReadAck {
                            request,
                            value: self.value.clone(),
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

/// A closed-loop chain-replication client: writes to the head, reads from
/// the tail.
pub struct ChainClient {
    state: LoopState,
    n: u16,
    client_net: NetworkId,
    kick: Option<TimerId>,
}

impl ChainClient {
    /// Creates a client of an `n`-server chain.
    pub fn new(
        id: ClientId,
        n: u16,
        workload: WorkloadConfig,
        client_net: NetworkId,
        history: Option<Rc<RefCell<History>>>,
    ) -> (Self, Rc<RefCell<ClientStats>>) {
        let (state, stats) = LoopState::new(id, workload, history);
        (
            ChainClient {
                state,
                n,
                client_net,
                kick: None,
            },
            stats,
        )
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        let rand = ctx.rand_below(100);
        let Some(issue) = self.state.next_op(ctx.now(), rand) else {
            return;
        };
        if issue.is_read {
            let tail = NodeId::Server(ServerId(self.n - 1));
            ctx.send(
                self.client_net,
                tail,
                ChainMsg::ReadReq {
                    request: issue.request,
                },
            );
        } else {
            let head = NodeId::Server(ServerId(0));
            ctx.send(
                self.client_net,
                head,
                ChainMsg::WriteReq {
                    request: issue.request,
                    value: issue.value.expect("write value"),
                },
            );
        }
    }
}

impl Process<ChainMsg> for ChainClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ChainMsg>) {
        if self.state.workload.start_delay == Nanos::ZERO {
            self.issue_next(ctx);
        } else {
            self.kick = Some(ctx.set_timer(self.state.workload.start_delay));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ChainMsg>, timer: TimerId) {
        if self.kick == Some(timer) {
            self.kick = None;
            self.issue_next(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ChainMsg>, _from: NodeId, msg: ChainMsg) {
        let done = match msg {
            ChainMsg::WriteAck { request } if self.state.matches(request) => Some(None),
            ChainMsg::ReadAck { request, value } if self.state.matches(request) => {
                Some(Some(value))
            }
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

    fn run(seed: u64, n: u16, clients: u32, ops: u64) -> (u64, Rc<RefCell<History>>) {
        let mut sim = PacketSim::new(seed);
        let server_net = sim.add_network(NetworkConfig::fast_ethernet());
        let client_net = sim.add_network(NetworkConfig::fast_ethernet());
        let history = Rc::new(RefCell::new(History::new()));
        for i in 0..n {
            let id = NodeId::Server(ServerId(i));
            sim.add_node(
                id,
                Box::new(ChainServer::new(ServerId(i), n, server_net, client_net)),
            );
            sim.attach(id, server_net);
            sim.attach(id, client_net);
        }
        let mut stats = Vec::new();
        for c in 0..clients {
            let id = NodeId::Client(ClientId(c));
            let workload = WorkloadConfig {
                mix: OpMix::Mixed { read_percent: 50 },
                value_size: 64,
                op_limit: Some(ops),
                start_delay: Nanos::ZERO,
                timeout: Nanos::from_millis(500),
                window: 1,
            };
            let (client, s) = ChainClient::new(
                ClientId(c),
                n,
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
    fn all_ops_complete_and_stay_atomic() {
        let (done, history) = run(5, 3, 4, 10);
        assert_eq!(done, 40);
        let h = history.borrow();
        let violations = check_conditions(&h);
        assert!(violations.is_empty(), "{violations:?}\n{h}");
    }

    #[test]
    fn single_server_chain_works() {
        let (done, history) = run(9, 1, 2, 5);
        assert_eq!(done, 10);
        assert!(check_conditions(&history.borrow()).is_empty());
    }
}
