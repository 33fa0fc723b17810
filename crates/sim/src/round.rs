//! The synchronous round-based model of the paper's §2.
//!
//! Per round `k`, every process:
//!
//! 1. computes (sees the messages popped from its NIC queues),
//! 2. **sends at most one message per network** — possibly a multicast —
//!    and
//! 3. **receives at most one message per network** (excess arrivals wait in
//!    a FIFO NIC input queue; this is the model's stand-in for collisions /
//!    serialized reception on real hardware).
//!
//! Messages sent in round `k` enter the destination queues after the round
//! and are received in round `k + 1` at the earliest. The model is used to
//! validate the paper's analytical claims (read latency 2, write latency
//! `2N + 2`, write throughput 1/round, read throughput `n`/round) and to
//! reproduce Figure 1.

use std::collections::{HashMap, VecDeque};

use hts_types::NodeId;

use crate::packet::NetworkId;

/// A process driven by the round simulator.
pub trait RoundProcess<M> {
    /// One round: inspect `RoundCtx::incoming`, optionally send.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, M>, round: u64);

    /// A crash of `node` detected at the start of this round (perfect
    /// failure detector: fires one round after the crash).
    fn on_crashed(&mut self, node: NodeId) {
        let _ = node;
    }
}

/// Context handed to [`RoundProcess::on_round`].
pub struct RoundCtx<'a, M> {
    node: NodeId,
    incoming: &'a mut Vec<(NetworkId, NodeId, M)>,
    sends: Vec<(NetworkId, Vec<NodeId>, M)>,
    sent_on: Vec<NetworkId>,
}

impl<'a, M> RoundCtx<'a, M> {
    /// The node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Takes the (at most one) message received this round on `net`.
    pub fn take_incoming(&mut self, net: NetworkId) -> Option<(NodeId, M)> {
        let pos = self.incoming.iter().position(|(n, _, _)| *n == net)?;
        let (_, from, msg) = self.incoming.remove(pos);
        Some((from, msg))
    }

    /// Sends `msg` to every node in `to` (a multicast counts as the one
    /// send this round permits on `net`).
    ///
    /// # Panics
    ///
    /// Panics on a second send on the same network in one round — the model
    /// forbids it, so it is a protocol bug worth failing loudly on.
    #[expect(clippy::disallowed_macros, reason = "documented: a protocol bug")]
    pub fn send(&mut self, net: NetworkId, to: &[NodeId], msg: M) {
        assert!(
            !self.sent_on.contains(&net),
            "{}: two sends on {net:?} in one round",
            self.node
        );
        self.sent_on.push(net);
        self.sends.push((net, to.to_vec(), msg));
    }
}

struct RSlot<M> {
    id: NodeId,
    proc: Option<Box<dyn RoundProcess<M>>>,
    crashed: bool,
    /// FIFO input queue per attached network.
    inbox: Vec<(NetworkId, VecDeque<(NodeId, M)>)>,
}

/// The round-based simulator. See the [module docs](self).
pub struct RoundSim<M> {
    nodes: Vec<RSlot<M>>,
    index: HashMap<NodeId, usize>,
    networks: usize,
    round: u64,
    crashes: Vec<(u64, NodeId)>,
    messages_sent: u64,
}

impl<M: Clone> RoundSim<M> {
    /// Creates an empty round simulation.
    pub fn new() -> Self {
        RoundSim {
            nodes: Vec::new(),
            index: HashMap::new(),
            networks: 0,
            round: 0,
            crashes: Vec::new(),
            messages_sent: 0,
        }
    }

    /// Adds a network; returns its id.
    pub fn add_network(&mut self) -> NetworkId {
        self.networks += 1;
        NetworkId(self.networks - 1)
    }

    /// Registers a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already added.
    #[expect(clippy::disallowed_macros, reason = "documented: a harness bug")]
    pub fn add_node(&mut self, id: NodeId, proc: Box<dyn RoundProcess<M>>) {
        assert!(
            self.index.insert(id, self.nodes.len()).is_none(),
            "node {id} added twice"
        );
        self.nodes.push(RSlot {
            id,
            proc: Some(proc),
            crashed: false,
            inbox: Vec::new(),
        });
    }

    /// Attaches `node` to `net`.
    #[expect(
        clippy::disallowed_macros,
        reason = "an unknown network or a double attach is a harness bug"
    )]
    pub fn attach(&mut self, node: NodeId, net: NetworkId) {
        assert!(net.0 < self.networks, "unknown network {net:?}");
        let idx = self.index[&node];
        assert!(
            self.nodes[idx].inbox.iter().all(|(n, _)| *n != net),
            "{node} already attached to {net:?}"
        );
        self.nodes[idx].inbox.push((net, VecDeque::new()));
    }

    /// Schedules `node` to crash at the **start** of round `round`.
    #[expect(clippy::disallowed_macros, reason = "an unknown node is a harness bug")]
    pub fn crash_at_round(&mut self, node: NodeId, round: u64) {
        assert!(self.index.contains_key(&node), "unknown node {node}");
        self.crashes.push((round, node));
    }

    /// The next round to execute (0-based).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total point-to-point messages transferred (a multicast to `m`
    /// destinations counts `m`).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Executes one round.
    pub fn step(&mut self) {
        let round = self.round;

        // Crashes scheduled for this round take effect before computation;
        // survivors learn about them at the start of the *next* round.
        let mut newly_crashed = Vec::new();
        for &(r, node) in &self.crashes {
            if r == round {
                newly_crashed.push(node);
            }
        }
        for node in &newly_crashed {
            let idx = self.index[node];
            self.nodes[idx].crashed = true;
            for (_, q) in &mut self.nodes[idx].inbox {
                q.clear();
            }
        }
        let detected: Vec<NodeId> = self
            .crashes
            .iter()
            .filter(|(r, _)| *r + 1 == round)
            .map(|(_, n)| *n)
            .collect();

        let mut all_sends: Vec<(NodeId, NetworkId, Vec<NodeId>, M)> = Vec::new();
        for i in 0..self.nodes.len() {
            if self.nodes[i].crashed {
                continue;
            }
            #[expect(clippy::expect_used, reason = "the process is put back every round")]
            let mut proc = self.nodes[i].proc.take().expect("re-entrant step");
            for crashed in &detected {
                proc.on_crashed(*crashed);
            }
            // Pop at most one message per attached network.
            let mut incoming: Vec<(NetworkId, NodeId, M)> = Vec::new();
            for (net, q) in &mut self.nodes[i].inbox {
                if let Some((from, msg)) = q.pop_front() {
                    incoming.push((*net, from, msg));
                }
            }
            let mut ctx = RoundCtx {
                node: self.nodes[i].id,
                incoming: &mut incoming,
                sends: Vec::new(),
                sent_on: Vec::new(),
            };
            proc.on_round(&mut ctx, round);
            let sends = ctx.sends;
            self.nodes[i].proc = Some(proc);
            for (net, to, msg) in sends {
                all_sends.push((self.nodes[i].id, net, to, msg));
            }
        }

        // Deliveries become visible next round.
        for (from, net, to, msg) in all_sends {
            for dst in to {
                #[expect(clippy::panic, reason = "a send to an unknown node is a process bug")]
                let idx = *self
                    .index
                    .get(&dst)
                    .unwrap_or_else(|| panic!("send to unknown node {dst}"));
                if self.nodes[idx].crashed {
                    continue;
                }
                #[expect(
                    clippy::panic,
                    reason = "a send on an unattached network is a process bug"
                )]
                let q = self.nodes[idx]
                    .inbox
                    .iter_mut()
                    .find(|(n, _)| *n == net)
                    .unwrap_or_else(|| panic!("{dst} not attached to {net:?}"));
                q.1.push_back((from, msg.clone()));
                self.messages_sent += 1;
            }
        }

        self.round += 1;
    }

    /// Executes `k` rounds.
    pub fn run_rounds(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
    }
}

impl<M: Clone> Default for RoundSim<M> {
    fn default() -> Self {
        RoundSim::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_types::ClientId;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(u64, NodeId, u32)>>>;

    /// Echoes every received message back to its sender, once per round.
    struct Echo {
        log: Log,
        kick: Option<(NodeId, u32)>,
    }

    impl RoundProcess<u32> for Echo {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>, round: u64) {
            if let Some((to, v)) = self.kick.take() {
                ctx.send(NetworkId(0), &[to], v);
            }
            if let Some((from, msg)) = ctx.take_incoming(NetworkId(0)) {
                self.log.borrow_mut().push((round, from, msg));
                if msg < 3 {
                    ctx.send(NetworkId(0), &[from], msg + 1);
                }
            }
        }
    }

    #[test]
    fn messages_take_one_round() {
        let log: Log = Log::default();
        let mut sim = RoundSim::new();
        let net = sim.add_network();
        let a = NodeId::Client(ClientId(0));
        let b = NodeId::Client(ClientId(1));
        sim.add_node(
            a,
            Box::new(Echo {
                log: Rc::clone(&log),
                kick: Some((b, 0)),
            }),
        );
        sim.add_node(
            b,
            Box::new(Echo {
                log: Rc::clone(&log),
                kick: None,
            }),
        );
        sim.attach(a, net);
        sim.attach(b, net);
        sim.run_rounds(6);
        // Sent in round 0 -> received round 1; pong round 2; ...
        assert_eq!(
            *log.borrow(),
            vec![(1, a, 0), (2, b, 1), (3, a, 2), (4, b, 3)]
        );
        assert_eq!(sim.messages_sent(), 4);
    }

    #[test]
    fn reception_is_limited_to_one_per_round() {
        let log: Log = Log::default();
        struct Spray;
        impl RoundProcess<u32> for Spray {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>, round: u64) {
                if round == 0 {
                    ctx.send(NetworkId(0), &[NodeId::Client(ClientId(9))], 7);
                }
            }
        }
        struct Sink {
            log: Log,
        }
        impl RoundProcess<u32> for Sink {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>, round: u64) {
                if let Some((from, msg)) = ctx.take_incoming(NetworkId(0)) {
                    self.log.borrow_mut().push((round, from, msg));
                }
            }
        }
        let mut sim = RoundSim::new();
        let net = sim.add_network();
        let sink = NodeId::Client(ClientId(9));
        sim.add_node(
            sink,
            Box::new(Sink {
                log: Rc::clone(&log),
            }),
        );
        sim.attach(sink, net);
        for i in 0..3u32 {
            let id = NodeId::Client(ClientId(i));
            sim.add_node(id, Box::new(Spray));
            sim.attach(id, net);
        }
        sim.run_rounds(6);
        // Three messages sent in round 0: delivered one per round, 1..=3.
        let rounds: Vec<u64> = log.borrow().iter().map(|(r, _, _)| *r).collect();
        assert_eq!(rounds, vec![1, 2, 3]);
    }

    #[test]
    fn multicast_counts_as_one_send_but_many_deliveries() {
        struct Caster;
        impl RoundProcess<u32> for Caster {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>, round: u64) {
                if round == 0 && ctx.node() == NodeId::Client(ClientId(0)) {
                    let dests: Vec<NodeId> = (1..4).map(|i| NodeId::Client(ClientId(i))).collect();
                    ctx.send(NetworkId(0), &dests, 1);
                }
            }
        }
        let mut sim = RoundSim::new();
        let net = sim.add_network();
        for i in 0..4u32 {
            let id = NodeId::Client(ClientId(i));
            sim.add_node(id, Box::new(Caster));
            sim.attach(id, net);
        }
        sim.run_rounds(2);
        assert_eq!(sim.messages_sent(), 3);
    }

    #[test]
    #[should_panic(expected = "two sends")]
    fn double_send_panics() {
        struct Bad;
        impl RoundProcess<u32> for Bad {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>, _round: u64) {
                let me = ctx.node();
                ctx.send(NetworkId(0), &[me], 1);
                ctx.send(NetworkId(0), &[me], 2);
            }
        }
        let mut sim = RoundSim::new();
        let net = sim.add_network();
        let id = NodeId::Client(ClientId(0));
        sim.add_node(id, Box::new(Bad));
        sim.attach(id, net);
        sim.step();
    }

    #[test]
    fn crashed_nodes_stop_and_are_detected_next_round() {
        let log: Log = Log::default();
        struct Watch {
            log: Log,
        }
        impl RoundProcess<u32> for Watch {
            fn on_round(&mut self, _ctx: &mut RoundCtx<'_, u32>, _round: u64) {}
            fn on_crashed(&mut self, node: NodeId) {
                self.log.borrow_mut().push((0, node, 0));
            }
        }
        let mut sim = RoundSim::new();
        let net = sim.add_network();
        let a = NodeId::Client(ClientId(0));
        let b = NodeId::Client(ClientId(1));
        sim.add_node(
            a,
            Box::new(Watch {
                log: Rc::clone(&log),
            }),
        );
        sim.add_node(
            b,
            Box::new(Watch {
                log: Rc::clone(&log),
            }),
        );
        sim.attach(a, net);
        sim.attach(b, net);
        sim.crash_at_round(b, 2);
        sim.run_rounds(5);
        assert_eq!(*log.borrow(), vec![(0, b, 0)]);
    }

    #[test]
    fn separate_networks_have_independent_receive_slots() {
        let log: Log = Log::default();
        struct DualSink {
            log: Log,
        }
        impl RoundProcess<u32> for DualSink {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>, round: u64) {
                for net in [NetworkId(0), NetworkId(1)] {
                    if let Some((from, msg)) = ctx.take_incoming(net) {
                        self.log.borrow_mut().push((round, from, msg));
                    }
                }
            }
        }
        struct Src {
            net: NetworkId,
            dst: NodeId,
        }
        impl RoundProcess<u32> for Src {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, u32>, round: u64) {
                if round == 0 {
                    ctx.send(self.net, &[self.dst], self.net.0 as u32);
                }
            }
        }
        let mut sim = RoundSim::new();
        let n0 = sim.add_network();
        let n1 = sim.add_network();
        let sink = NodeId::Client(ClientId(9));
        sim.add_node(
            sink,
            Box::new(DualSink {
                log: Rc::clone(&log),
            }),
        );
        sim.attach(sink, n0);
        sim.attach(sink, n1);
        let s0 = NodeId::Client(ClientId(0));
        let s1 = NodeId::Client(ClientId(1));
        sim.add_node(s0, Box::new(Src { net: n0, dst: sink }));
        sim.add_node(s1, Box::new(Src { net: n1, dst: sink }));
        sim.attach(s0, n0);
        sim.attach(s1, n1);
        sim.run_rounds(3);
        // Both messages received in round 1, one per NIC.
        let rounds: Vec<u64> = log.borrow().iter().map(|(r, _, _)| *r).collect();
        assert_eq!(rounds, vec![1, 1]);
    }
}
