//! Adapters running the protocol on the synchronous round model.
//!
//! These validate the paper's §4 analytical claims against the same lane
//! policy used everywhere else: read latency 2 rounds, write latency
//! `2N + 2` rounds, write throughput 1 op/round, read throughput `n`
//! ops/round. Each server has a ring NIC and a client NIC (one send +
//! one receive per round on each, per the model in §2) and sends exactly
//! one (possibly piggybacked) ring frame per round.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use hts_core::{Config, LaneCore, SessionCore};
use hts_types::{ClientId, Message, NodeId, ObjectId, ServerId, Value};

use crate::packet::NetworkId;
use crate::round::{RoundCtx, RoundProcess};

/// A ring server in the round model.
pub struct RoundServer {
    core: LaneCore,
    ring_net: NetworkId,
    client_net: NetworkId,
    replies: VecDeque<(ClientId, Message)>,
}

impl RoundServer {
    /// Creates round-model server `me` of `n` on the given networks. The
    /// model sends one ring frame per round, so batches hold one frame.
    pub fn new(
        me: ServerId,
        n: u16,
        mut config: Config,
        ring_net: NetworkId,
        client_net: NetworkId,
    ) -> Self {
        config.batching.max_frames = 1;
        RoundServer {
            core: LaneCore::new(me, n, 0, config),
            ring_net,
            client_net,
            replies: VecDeque::new(),
        }
    }

    /// Ends the round's step: the model has no disk, so its commits are
    /// durable at once and every reply is released.
    fn settle(&mut self) {
        self.core.take_commits();
        self.core.commits_durable();
        self.replies.extend(self.core.take_replies());
    }
}

impl RoundProcess<Message> for RoundServer {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Message>, _round: u64) {
        // Receive (≤1 per NIC, per the model).
        if let Some((_, Message::Ring(frame))) = ctx.take_incoming(self.ring_net) {
            self.core.on_frame(frame);
        }
        if let Some((from, msg)) = ctx.take_incoming(self.client_net) {
            if let Some(client) = from.as_client() {
                if let Some(reply) = self.core.on_client(client, msg) {
                    self.replies.push_back((client, reply));
                }
            }
        }
        self.settle();
        // Send: one ring frame (the fairness-selected, possibly
        // piggybacked slot) and one client reply.
        if let Some(successor) = self.core.successor() {
            if let Some(frame) = self.core.next_batch().pop() {
                let to = [NodeId::Server(successor)];
                ctx.send(self.ring_net, &to, Message::Ring(frame));
            }
        }
        if let Some((client, msg)) = self.replies.pop_front() {
            ctx.send(self.client_net, &[NodeId::Client(client)], msg);
        }
    }

    fn on_crashed(&mut self, node: NodeId) {
        if let Some(s) = node.as_server() {
            self.core.on_peer_crashed(s);
            self.settle();
        }
    }
}

/// Per-client round-model counters.
#[derive(Debug, Clone, Default)]
pub struct RoundClientStats {
    /// Completed operations.
    pub completed: u64,
    /// Sum of op latencies, in rounds (completion round − issue round).
    pub latency_rounds_total: u64,
    /// Individual latencies in rounds.
    pub latencies: Vec<u64>,
}

/// A closed-loop round-model client issuing only reads or only writes.
pub struct RoundClient {
    /// A window of one: the paper's sequential client.
    core: SessionCore,
    client_net: NetworkId,
    reads: bool,
    op_limit: Option<u64>,
    issue_round: u64,
    value_seq: u64,
    stats: Rc<RefCell<RoundClientStats>>,
}

impl RoundClient {
    /// Creates a client of server `preferred` issuing reads (`reads`) or
    /// writes, up to `op_limit` operations.
    pub fn new(
        id: ClientId,
        n: u16,
        preferred: ServerId,
        reads: bool,
        op_limit: Option<u64>,
        client_net: NetworkId,
    ) -> (Self, Rc<RefCell<RoundClientStats>>) {
        let stats = Rc::new(RefCell::new(RoundClientStats::default()));
        (
            RoundClient {
                core: SessionCore::new(id, ObjectId::SINGLE, n, preferred, 1),
                client_net,
                reads,
                op_limit,
                issue_round: 0,
                value_seq: 0,
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }
}

impl RoundProcess<Message> for RoundClient {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Message>, round: u64) {
        if let Some((_, msg)) = ctx.take_incoming(self.client_net) {
            if self.core.on_reply(&msg).is_some() {
                let mut stats = self.stats.borrow_mut();
                stats.completed += 1;
                let latency = round - self.issue_round;
                stats.latency_rounds_total += latency;
                stats.latencies.push(latency);
            }
        }
        let completed = self.stats.borrow().completed;
        if !self.core.has_capacity() || self.op_limit.is_some_and(|l| completed >= l) {
            return;
        }
        let (_, server, msg) = if self.reads {
            self.core.begin_read()
        } else {
            self.value_seq += 1;
            // Client ids and sequence numbers keep values unique.
            let value = Value::from_u64((u64::from(self.core.id().0) << 32) | self.value_seq);
            self.core.begin_write(value)
        };
        self.issue_round = round;
        ctx.send(self.client_net, &[NodeId::Server(server)], msg);
    }
}
