//! The policy of one ring lane, with no sockets, clocks or files.

use std::collections::HashSet;

use hts_types::{ClientId, Message, ObjectId, RingFrame, ServerId, Tag, Value};

use crate::{Action, BatchConfig, Config, LaneMap, MultiObjectServer};

/// What a failed successor link gets under the strike rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strike {
    /// The first failure: resend these frames — the batch the link had
    /// staged — in order, over one fresh connection. A failure alone is
    /// not yet a verdict: a parked connection may simply predate the
    /// peer's restart (a non-adjacent server never observes the crash of
    /// a peer it was not connected to).
    Retry(Vec<RingFrame>),
    /// The second failure in a row: the peer is crashed and the lane's
    /// ring is spliced past it. The lost frames are covered by the
    /// splice retransmission.
    Crashed,
}

/// The policy of one ring lane, with no sockets, clocks or files.
///
/// A node runs one [`LaneCore`] per ring lane. The TCP reactor drives it
/// with socket events and a real write-ahead log; the simulator drives it
/// with packet deliveries, a modeled disk and virtual timers. Everything
/// the two drivers must agree on lives here, once:
///
/// * **restart** — a lane rebuilt from recovered state restores its
///   registers and, when its log existed, announces its rejoin
///   ([`LaneCore::restart`]);
/// * **input** — client requests, stats requests and inbound ring frames;
/// * **the strike rule** — a failed successor link is retried once over a
///   fresh connection, and only a second failure is a crash verdict
///   ([`LaneCore::on_link_failed`]);
/// * **the release gate** — the driver takes each step's commits
///   ([`LaneCore::take_commits`]), and no reply and no ring batch leaves
///   until it reports them durable ([`LaneCore::commits_durable`]). A
///   replica never passes on, or acknowledges, what it has not made
///   durable;
/// * **batch selection** — [`LaneCore::next_batch`] drains the fair
///   scheduler under [`BatchConfig`];
/// * **replies** — each protocol [`Action`] becomes the client message it
///   answers with.
#[derive(Debug)]
pub struct LaneCore {
    server: MultiObjectServer,
    batching: BatchConfig,
    /// The lane's token object, stamped onto announce-only frames when
    /// the node runs more than one lane (`None` at a single lane).
    token: Option<ObjectId>,
    /// Whether the core records commits at all.
    persistent: bool,
    /// Actions of the current step, before its commits are taken.
    staged: Vec<Action>,
    /// Actions whose step's commits were taken: released once durable.
    held: Vec<Action>,
    /// Commits were taken and not yet reported durable: the gate is shut.
    unsynced: bool,
    /// Peers whose link failed once and runs on its fresh connection.
    struck: HashSet<ServerId>,
}

impl LaneCore {
    /// Lane `lane` of server `me` in a ring of `n`, starting empty.
    /// `config.lanes` is the node's lane count.
    pub fn new(me: ServerId, n: u16, lane: u16, config: Config) -> LaneCore {
        let lanes = config.lanes.max(1);
        LaneCore {
            batching: config.batching.normalized(),
            token: (lanes > 1).then(|| LaneMap::new(lanes).token_object(lane)),
            persistent: config.durability.is_persistent(),
            server: MultiObjectServer::new(me, n, config),
            staged: Vec::new(),
            held: Vec::new(),
            unsynced: false,
            struck: HashSet::new(),
        }
    }

    /// Rebuilds a lane from recovered `state` (each register's latest
    /// committed tag and value). With `rejoin` (a log existed, so the
    /// ring may have moved on during the downtime) the lane resyncs
    /// before serving, and its first ring batch carries its rejoin
    /// announcement.
    pub fn restart(
        me: ServerId,
        n: u16,
        lane: u16,
        config: Config,
        state: impl IntoIterator<Item = (ObjectId, (Tag, Value))>,
        rejoin: bool,
    ) -> LaneCore {
        let mut core = LaneCore::new(me, n, lane, config);
        let state = state
            .into_iter()
            .map(|(object, (tag, value))| (object, tag, value));
        core.server.restore_state(state);
        if rejoin {
            core.server.begin_rejoin();
        }
        core
    }

    /// The current ring successor.
    pub fn successor(&self) -> Option<ServerId> {
        self.server.successor()
    }

    /// Applies a client message. A stats request is answered at once
    /// (the returned reply skips the release gate: stats are
    /// observational and never consume an op slot); reads and writes
    /// reply through [`take_replies`](Self::take_replies).
    pub fn on_client(&mut self, client: ClientId, msg: Message) -> Option<Message> {
        let actions = match msg {
            Message::WriteReq {
                object,
                request,
                value,
            } => self.server.on_client_write(object, client, request, value),
            Message::ReadReq { object, request } => {
                self.server.on_client_read(object, client, request)
            }
            Message::StatsRequest { request } => {
                let text = Value::from(hts_metrics::render().into_bytes());
                return Some(Message::StatsReply { request, text });
            }
            // Clients never send replies or ring traffic; dropped by name
            // so a new wire variant forces a decision here.
            Message::WriteAck { .. }
            | Message::ReadAck { .. }
            | Message::StatsReply { .. }
            | Message::Ring(_)
            | Message::RingBatch(_) => return None,
        };
        self.staged.extend(actions);
        None
    }

    /// Applies one inbound ring frame.
    pub fn on_frame(&mut self, frame: RingFrame) {
        self.staged.extend(self.server.on_frame(frame));
    }

    /// A failure detector reported `peer` crashed: splice the ring past
    /// it. The simulator's detector is perfect and reports here
    /// directly; the TCP driver does on an inbound stream's EOF.
    pub fn on_peer_crashed(&mut self, peer: ServerId) {
        self.struck.remove(&peer);
        self.staged.extend(self.server.on_server_crashed(peer));
    }

    /// The successor link to `peer` failed with `lost` frames unwritten.
    pub fn on_link_failed(&mut self, peer: ServerId, lost: Vec<RingFrame>) -> Strike {
        if self.struck.insert(peer) {
            return Strike::Retry(lost);
        }
        self.on_peer_crashed(peer);
        Strike::Crashed
    }

    /// Everything staged on the link to `peer` reached the socket: the
    /// link is proven healthy and its strike clears.
    pub fn on_link_drained(&mut self, peer: ServerId) {
        self.struck.remove(&peer);
    }

    /// Ends the step: hands the driver every commit applied since the
    /// last call (to log as one group commit) and shuts the release gate
    /// over the step's replies and the ring until
    /// [`commits_durable`](Self::commits_durable).
    pub fn take_commits(&mut self) -> Vec<(ObjectId, Tag, Value)> {
        self.held.append(&mut self.staged);
        if !self.persistent {
            return Vec::new();
        }
        let commits = self.server.drain_commits();
        self.unsynced |= !commits.is_empty();
        commits
    }

    /// The driver made every taken commit durable (or, under a policy
    /// that does not wait for the device, issued its append): the gate
    /// opens.
    pub fn commits_durable(&mut self) {
        self.unsynced = false;
    }

    /// Every register's committed state, for a compaction snapshot.
    pub fn export_state(&self) -> Vec<(ObjectId, Tag, Value)> {
        self.server.export_state()
    }

    /// The replies of every ended step, once the gate is open.
    pub fn take_replies(&mut self) -> impl Iterator<Item = (ClientId, Message)> {
        let released = if self.unsynced {
            Vec::new()
        } else {
            std::mem::take(&mut self.held)
        };
        released.into_iter().map(reply_for)
    }

    /// The next ring batch for the successor — at most `room` frames
    /// (and the configured batch limits), empty while the gate is shut.
    pub fn next_batch(&mut self, room: usize) -> Vec<RingFrame> {
        if self.unsynced {
            // lint: allow(ring_hot_loop): an empty Vec holds no heap buffer
            return Vec::new();
        }
        let mut frames = self
            .server
            .drain_frames(room.min(self.batching.max_frames), self.batching.max_bytes);
        if let Some(token) = self.token {
            // Announce-only frames carry a placeholder object; the token
            // routes them home through a receiver's object-based lane
            // demultiplexer.
            for frame in frames
                .iter_mut()
                .filter(|f| f.pre_write.is_none() && f.write.is_none())
            {
                frame.object = token;
            }
        }
        frames
    }
}

/// The client message that answers `action`, and its addressee.
fn reply_for(action: Action) -> (ClientId, Message) {
    match action {
        Action::WriteAck {
            object,
            client,
            request,
        } => (client, Message::WriteAck { object, request }),
        Action::ReadReply {
            object,
            client,
            request,
            value,
            ..
        } => (
            client,
            Message::ReadAck {
                object,
                request,
                value,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Durability;
    use hts_types::RequestId;

    fn durable() -> Config {
        Config {
            durability: Durability::SyncAlways,
            ..Config::default()
        }
    }

    #[test]
    fn strike_retries_once_then_crashes_and_a_drain_clears_it() {
        let mut lane = LaneCore::new(ServerId(0), 3, 0, Config::default());
        let frame = RingFrame::write(ObjectId(1), Tag::new(1, ServerId(0)));
        let lost = vec![frame];
        // First failure: the lost frames come back for the fresh link.
        assert_eq!(
            lane.on_link_failed(ServerId(1), lost.clone()),
            Strike::Retry(lost.clone())
        );
        // The fresh link drained a batch: proven healthy, strike cleared.
        lane.on_link_drained(ServerId(1));
        assert_eq!(
            lane.on_link_failed(ServerId(1), lost.clone()),
            Strike::Retry(lost.clone())
        );
        // Second failure in a row: a crash verdict splices the ring.
        assert_eq!(lane.on_link_failed(ServerId(1), lost), Strike::Crashed);
        assert_eq!(lane.successor(), Some(ServerId(2)));
        // The verdict cleared the strike: a later link to the rejoined
        // peer starts with its second chance again.
        assert!(matches!(
            lane.on_link_failed(ServerId(1), Vec::new()),
            Strike::Retry(_)
        ));
    }

    #[test]
    fn nothing_leaves_before_its_commits_are_durable() {
        // A write over a 2-ring: each server commits it in turn, and
        // forwards the commit notice (or releases the ack) only once
        // that commit is durable.
        let mut origin = LaneCore::new(ServerId(0), 2, 0, durable());
        let mut peer = LaneCore::new(ServerId(1), 2, 0, durable());
        let write = Message::WriteReq {
            object: ObjectId(1),
            request: RequestId(1),
            value: Value::from_u64(9),
        };
        origin.on_client(ClientId(7), write);
        assert!(
            origin.take_commits().is_empty(),
            "a pre-write commits nothing"
        );
        for frame in origin.next_batch(usize::MAX) {
            peer.on_frame(frame);
        }
        assert!(peer.take_commits().is_empty());
        for frame in peer.next_batch(usize::MAX) {
            origin.on_frame(frame);
        }
        // The pre-write came home: the origin commits and must log it.
        assert_eq!(origin.take_commits().len(), 1);
        assert!(origin.next_batch(usize::MAX).is_empty(), "notice held");
        origin.commits_durable();
        let notice = origin.next_batch(usize::MAX);
        assert_eq!(notice.len(), 1);
        for frame in notice {
            peer.on_frame(frame);
        }
        // The peer commits on the notice and holds its forward.
        assert_eq!(peer.take_commits().len(), 1);
        assert!(peer.next_batch(usize::MAX).is_empty(), "forward held");
        peer.commits_durable();
        for frame in peer.next_batch(usize::MAX) {
            origin.on_frame(frame);
        }
        // The notice's return acks the write; no new commit, so the ack
        // leaves with the step — but not before the step ends.
        assert_eq!(origin.take_replies().count(), 0, "step not ended");
        assert!(origin.take_commits().is_empty());
        let replies: Vec<_> = origin.take_replies().collect();
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            replies[0],
            (ClientId(7), Message::WriteAck { .. })
        ));
    }

    #[test]
    fn a_restarted_lane_leads_with_its_rejoin_announcement() {
        let state = [(ObjectId(1), (Tag::new(4, ServerId(1)), Value::from_u64(5)))];
        let mut lane = LaneCore::restart(ServerId(0), 3, 0, durable(), state, true);
        let batch = lane.next_batch(usize::MAX);
        let first = batch.first().expect("a rejoin announcement");
        assert_eq!(first.rejoin.map(|r| r.server), Some(ServerId(0)));
        assert_eq!(
            first.object,
            ObjectId::SINGLE,
            "a single lane stamps no token"
        );
        assert_eq!(lane.export_state().len(), 1, "state restored");
        // A fresh lane (no log) has nothing to announce.
        let mut fresh = LaneCore::restart(ServerId(0), 3, 0, durable(), [], false);
        assert!(fresh.next_batch(usize::MAX).is_empty());
        // On a laned node the announcement carries the lane's token
        // object, which routes it home through the receiver's demux.
        let laned = Config {
            lanes: 4,
            ..durable()
        };
        let mut lane2 = LaneCore::restart(ServerId(0), 3, 2, laned, [], true);
        let token = LaneMap::new(4).token_object(2);
        assert_eq!(lane2.next_batch(usize::MAX)[0].object, token);
    }
}
