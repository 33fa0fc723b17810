//! The policy of one ring lane, with no sockets, clocks or files.

use std::collections::BTreeMap;

use hts_types::{ClientId, Message, ObjectId, RingFrame, ServerId, Tag, Value};

use crate::link::Link;
use crate::{Action, BatchConfig, Config, LaneMap, MultiObjectServer};

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
/// * **successor links** — the connect back-off, the one staged batch
///   per link and the strike rule that turns link failures into crash
///   verdicts ([`LaneCore::poll_links`] and its siblings, in the `link`
///   module);
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
    /// The successor links, one per peer the lane has linked to.
    pub(crate) links: BTreeMap<ServerId, Link>,
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
            links: BTreeMap::new(),
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
    /// it and forget the lane's link to it. The simulator's detector is
    /// perfect and reports here directly; the TCP runtime does when an
    /// inbound stream closes.
    pub fn on_peer_crashed(&mut self, peer: ServerId) {
        self.links.remove(&peer);
        self.staged.extend(self.server.on_server_crashed(peer));
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

    /// The driver made every taken commit durable: the gate opens.
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

    /// The next ring batch for the successor, within the configured batch
    /// limits; empty while the gate is shut.
    pub fn next_batch(&mut self) -> Vec<RingFrame> {
        if self.unsynced {
            return Vec::new();
        }
        let mut frames = self
            .server
            .drain_frames(self.batching.max_frames, self.batching.max_bytes);
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
        for frame in origin.next_batch() {
            peer.on_frame(frame);
        }
        assert!(peer.take_commits().is_empty());
        for frame in peer.next_batch() {
            origin.on_frame(frame);
        }
        // The pre-write came home: the origin commits and must log it.
        assert_eq!(origin.take_commits().len(), 1);
        assert!(origin.next_batch().is_empty(), "notice held");
        origin.commits_durable();
        let notice = origin.next_batch();
        assert_eq!(notice.len(), 1);
        for frame in notice {
            peer.on_frame(frame);
        }
        // The peer commits on the notice and holds its forward.
        assert_eq!(peer.take_commits().len(), 1);
        assert!(peer.next_batch().is_empty(), "forward held");
        peer.commits_durable();
        for frame in peer.next_batch() {
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
        let batch = lane.next_batch();
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
        assert!(fresh.next_batch().is_empty());
        // On a laned node the announcement carries the lane's token
        // object, which routes it home through the receiver's demux.
        let laned = Config {
            lanes: 4,
            ..durable()
        };
        let mut lane2 = LaneCore::restart(ServerId(0), 3, 2, laned, [], true);
        let token = LaneMap::new(4).token_object(2);
        assert_eq!(lane2.next_batch()[0].object, token);
    }
}
