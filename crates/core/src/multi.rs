//! Multiplexing many register objects over one server ring.
//!
//! Distributed storage systems "combine multiple of these read/write
//! objects, each storing its share of data" (paper §1). One
//! [`MultiObjectServer`] hosts a [`ServerCore`] per object; all objects
//! share the ring links, with transmission slots rotated round-robin
//! across objects that have work (each object's own fairness rule governs
//! *within* the object).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use hts_types::{ClientId, ObjectId, Rejoin, RequestId, RingFrame, ServerId, Tag, Value};

use crate::{Action, Config, RingView, ServerCore};

/// A ring server hosting many independent atomic registers.
///
/// A register costs its [`ServerCore`] (see what a core costs there),
/// boxed, plus the object map's slot for the box: about 0.8 KiB per
/// server with 64 B values, 2.5 KiB over a three-server ring
/// (`tests/footprint.rs`). The configuration is one copy shared by every
/// core. Routing a request or frame to an existing core allocates
/// nothing here, after a crash report as before one. What still grows
/// with the object count is time: [`next_frame`](Self::next_frame),
/// [`has_ring_work`](Self::has_ring_work) and
/// [`drain_commits`](Self::drain_commits) visit every core.
///
/// # Examples
///
/// ```
/// use hts_core::{Config, MultiObjectServer};
/// use hts_types::{ClientId, ObjectId, RequestId, ServerId, Value};
///
/// let mut s = MultiObjectServer::new(ServerId(0), 1, Config::default());
/// // Objects are created on first use; a 1-server ring answers at once.
/// let acks = s.on_client_write(ObjectId(5), ClientId(0), RequestId(1), Value::from_u64(9));
/// assert_eq!(acks.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MultiObjectServer {
    /// The membership every core shares; a core created late replays
    /// the crashes it records.
    ring: RingView,
    /// One copy, shared by every core.
    config: Arc<Config>,
    /// Boxed: a core is several hundred bytes, and inline in the map's
    /// leaves — which ascending inserts leave about half full — it
    /// would cost nearly twice that.
    objects: BTreeMap<ObjectId, Box<ServerCore>>,
    /// Round-robin cursor over objects for ring slots.
    cursor: Option<ObjectId>,
    /// Rejoin announcements awaiting a ring slot (ours at restart,
    /// others' when forwarding). At most one rides per frame, and none
    /// leaves while recovery retransmissions are still queued — FIFO
    /// links then make an announcement's arrival prove the recovery
    /// stream arrived first.
    announce: VecDeque<Rejoin>,
    /// Restart resync in progress: every core queues reads and holds
    /// local writes until our own announcement completes its circuit.
    syncing: bool,
    /// [`hts_metrics::now_nanos`] when the resync began (0 outside one).
    sync_begun_at: u64,
}

impl MultiObjectServer {
    /// Creates server `me` of a ring of `n`, initially hosting no objects
    /// (they are created on first use).
    pub fn new(me: ServerId, n: u16, config: Config) -> Self {
        MultiObjectServer {
            ring: RingView::new(me, n),
            config: Arc::new(config),
            objects: BTreeMap::new(),
            cursor: None,
            announce: VecDeque::new(),
            syncing: false,
            sync_begun_at: 0,
        }
    }

    /// This server's id.
    pub fn me(&self) -> ServerId {
        self.ring.me()
    }

    /// The number of objects currently hosted.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Access to one object's core (if it exists yet).
    pub fn object(&self, object: ObjectId) -> Option<&ServerCore> {
        self.objects.get(&object).map(|core| &**core)
    }

    /// The current ring successor.
    pub fn successor(&self) -> Option<ServerId> {
        self.ring.successor()
    }

    fn core_mut(&mut self, object: ObjectId) -> &mut ServerCore {
        let MultiObjectServer {
            ring,
            config,
            objects,
            syncing,
            ..
        } = self;
        objects.entry(object).or_insert_with(|| {
            let mut core = ServerCore::with_config(ring.me(), ring.n(), object, Arc::clone(config));
            // Late-created objects must share the ring view.
            for s in (0..ring.n()).map(ServerId).filter(|s| !ring.is_alive(*s)) {
                let _ = core.on_server_crashed(s);
            }
            // ...and the resync gate: an object this server has never
            // seen may still have history elsewhere in the ring.
            if *syncing {
                core.begin_sync();
            }
            Box::new(core)
        })
    }

    /// Routes a client write to its object.
    pub fn on_client_write(
        &mut self,
        object: ObjectId,
        client: ClientId,
        request: RequestId,
        value: Value,
    ) -> Vec<Action> {
        self.core_mut(object)
            .on_client_write(client, request, value)
    }

    /// Routes a client read to its object.
    pub fn on_client_read(
        &mut self,
        object: ObjectId,
        client: ClientId,
        request: RequestId,
    ) -> Vec<Action> {
        self.core_mut(object).on_client_read(client, request)
    }

    /// Routes a ring frame to its object and handles any piggybacked
    /// rejoin announcement.
    pub fn on_frame(&mut self, frame: RingFrame) -> Vec<Action> {
        let rejoin = frame.rejoin;
        // Route the protocol phases first: when an announcement rides on
        // the frame that carries the tail of a recovery stream, the
        // state must land before the sync-complete marker is acted on.
        let mut actions = if frame.pre_write.is_some() || frame.write.is_some() {
            self.core_mut(frame.object).on_frame(frame)
        } else {
            Vec::new()
        };
        if let Some(r) = rejoin {
            actions.extend(self.on_rejoin_announcement(r));
        }
        actions
    }

    /// Fans a crash report to every object.
    pub fn on_server_crashed(&mut self, s: ServerId) -> Vec<Action> {
        // Every core ignores a report about itself; so does the view.
        if s != self.me() {
            self.ring.mark_crashed(s);
        }
        let mut actions = Vec::new();
        for core in self.objects.values_mut() {
            actions.extend(core.on_server_crashed(s));
        }
        // A queued or circulating announcement for the crashed server is
        // now a lie: forwarding it would resurrect a dead server in
        // every peer's ring view.
        self.announce.retain(|r| r.server != s);
        if self.syncing {
            if self.ring.alive_count() <= 1 {
                // Lone survivor mid-resync: nobody to sync from *now*,
                // and our restored log may miss acknowledged writes that
                // live in the crashed peers' logs. Stay gated (reads and
                // writes keep queueing) until a peer rejoins — its log
                // holds everything committed while we were down, so the
                // resync then completes linearizably. Announcements are
                // pointless without a successor.
                self.announce.clear();
            } else if !self.announce.iter().any(|r| r.server == self.me()) {
                // Our in-flight announcement may have died with the
                // crashed server; re-announce over the spliced ring.
                self.announce.push_back(Rejoin::announce(self.me()));
            }
        }
        actions
    }

    /// Enters restart-resync mode: restore state first (see
    /// [`restore_state`](Self::restore_state)), then call this. Reads
    /// queue and local writes are withheld until our rejoin announcement
    /// — queued behind the predecessor's recovery stream at every hop —
    /// makes it all the way around the ring and back, proving the
    /// restored state has caught up with everything committed while this
    /// server was down. A single-server ring has nobody to sync from and
    /// skips straight to serving.
    pub fn begin_rejoin(&mut self) {
        if self.ring.n() <= 1 {
            return;
        }
        self.syncing = true;
        self.sync_begun_at = hts_metrics::now_nanos();
        for core in self.objects.values_mut() {
            core.begin_sync();
        }
        self.announce.push_back(Rejoin::announce(self.me()));
    }

    /// Whether this server is still resyncing after a restart.
    pub fn is_syncing(&self) -> bool {
        self.syncing
    }

    /// Convenience wrapper for runtimes with an out-of-band rejoin
    /// detector: equivalent to receiving a fresh announcement for `s`.
    pub fn on_server_rejoined(&mut self, s: ServerId) -> Vec<Action> {
        self.on_rejoin_announcement(Rejoin::announce(s))
    }

    /// Handles a rejoin announcement (usually piggybacked on a ring
    /// frame). Our own announcement returning certifies the resync —
    /// unless the flags say the predecessor that vouched for the
    /// recovery stream was itself still syncing, in which case we
    /// re-announce and wait for it to catch up (see [`Rejoin`]). Anyone
    /// else's announcement is applied to every core (the new
    /// predecessor re-sends its state) and forwarded with the flags
    /// updated.
    pub fn on_rejoin_announcement(&mut self, r: Rejoin) -> Vec<Action> {
        if r.server == self.me() {
            if !self.syncing {
                return Vec::new(); // duplicate announcement return
            }
            if r.stale_source && !r.all_syncing {
                // The predecessor's stream may miss writes committed
                // during our overlapping downtimes, and somewhere in the
                // ring a non-syncing server holds the truth. Go again:
                // by the time the retry circulates, the predecessor has
                // had its own stream FIFO-ahead of our announcement.
                self.announce.push_back(Rejoin::announce(self.me()));
                return Vec::new();
            }
            // Clean certificate — or a whole-cluster cold start, where
            // the recovery logs are collectively all there is.
            self.syncing = false;
            hts_metrics::histogram!("hts_core_resync_nanos")
                .record(hts_metrics::now_nanos().saturating_sub(self.sync_begun_at));
            hts_metrics::counter!("hts_core_resyncs_total").inc();
            self.sync_begun_at = 0;
            let mut actions = Vec::new();
            for core in self.objects.values_mut() {
                actions.extend(core.finish_sync());
            }
            return actions;
        }
        self.ring.mark_rejoined(r.server);
        for core in self.objects.values_mut() {
            core.on_server_rejoined(r.server);
        }
        if self.syncing && !self.announce.iter().any(|a| a.server == self.me()) {
            // A peer coming back ends a lone-survivor wait (and generally
            // gives our own announcement a ring to circulate on): make
            // sure one is in flight so our resync can complete.
            self.announce.push_back(Rejoin::announce(self.me()));
        }
        let serving = self.successor() == Some(r.server);
        self.announce.push_back(Rejoin {
            server: r.server,
            // We are the hop the certificate vouches for: flag our own
            // resync state so the rejoiner knows whether to trust it.
            stale_source: r.stale_source || (serving && self.syncing),
            all_syncing: r.all_syncing && self.syncing,
        });
        Vec::new()
    }

    /// Whether any object has ring work queued (or an announcement
    /// waits for a slot).
    pub fn has_ring_work(&self) -> bool {
        !self.announce.is_empty() || self.objects.values().any(|c| c.has_ring_work())
    }

    /// Pulls the next ring frame, rotating fairly across objects. A
    /// pending rejoin announcement piggybacks on the frame (or rides
    /// alone) once no core still queues recovery retransmissions.
    pub fn next_frame(&mut self) -> Option<RingFrame> {
        let mut frame = self.next_object_frame();
        if !self.announce.is_empty() && self.objects.values().all(|c| !c.has_recovery_backlog()) {
            let r = self.announce.pop_front();
            match &mut frame {
                Some(f) => f.rejoin = r,
                None => frame = r.map(RingFrame::announce_rejoin),
            }
        }
        frame
    }

    /// Pulls up to `max_frames` frames for the current successor,
    /// rotating fairly across objects and piggybacking queued rejoin
    /// announcements exactly as repeated [`next_frame`](Self::next_frame)
    /// calls would — this is the batch scheduler the transports drain
    /// into one [`RingBatch`](hts_types::Message::RingBatch) wire
    /// message. `max_bytes` is a soft cap on the batch's encoded frame
    /// bodies: the frame that crosses it is included, then draining
    /// stops. Per-link FIFO (which the rejoin/resync protocol depends
    /// on) is preserved because the batch is written sequentially on the
    /// same link in drain order.
    pub fn drain_frames(&mut self, max_frames: usize, max_bytes: usize) -> Vec<RingFrame> {
        crate::server::drain_frames_with(|| self.next_frame(), max_frames, max_bytes)
    }

    fn next_object_frame(&mut self) -> Option<RingFrame> {
        if self.objects.is_empty() {
            return None;
        }
        // Start after the cursor, wrap once around all objects.
        let ids: Vec<ObjectId> = self.objects.keys().copied().collect();
        let start = match self.cursor {
            Some(c) => ids.iter().position(|&o| o > c).unwrap_or(0),
            None => 0,
        };
        for k in 0..ids.len() {
            let id = ids[(start + k) % ids.len()];
            let core = self.objects.get_mut(&id)?; // ids came from the map
            if let Some(frame) = core.next_frame() {
                self.cursor = Some(id);
                return Some(frame);
            }
        }
        None
    }

    /// Exports every object's committed `(tag, value)` pair — the state
    /// a snapshot persists. Objects still at the initial `⊥` are
    /// skipped (recovery recreates them on demand).
    pub fn export_state(&self) -> Vec<(ObjectId, Tag, Value)> {
        self.objects
            .iter()
            .filter_map(|(object, core)| {
                let (tag, value) = core.stored();
                (tag != Tag::ZERO).then(|| (*object, tag, value.clone()))
            })
            .collect()
    }

    /// Restores objects from recovered log state (boot-time only; pair
    /// with [`begin_rejoin`](Self::begin_rejoin) when other servers may
    /// have moved on during the downtime).
    pub fn restore_state(&mut self, state: impl IntoIterator<Item = (ObjectId, Tag, Value)>) {
        for (object, tag, value) in state {
            self.core_mut(object).restore(tag, value);
        }
    }

    /// Takes the `(object, tag, value)` commits applied since the last
    /// drain (empty unless [`Config::durability`] is persistent). The
    /// runtime logs them before flushing client acks.
    ///
    /// [`Config::durability`]: crate::Config
    pub fn drain_commits(&mut self) -> Vec<(ObjectId, Tag, Value)> {
        let mut commits = Vec::new();
        for (object, core) in self.objects.iter_mut() {
            commits.extend(
                core.drain_commits()
                    .into_iter()
                    .map(|(tag, value)| (*object, tag, value)),
            );
        }
        commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_types::Tag;

    #[test]
    fn objects_are_independent_registers() {
        let mut s = MultiObjectServer::new(ServerId(0), 1, Config::default());
        s.on_client_write(ObjectId(1), ClientId(0), RequestId(1), Value::from_u64(10));
        s.on_client_write(ObjectId(2), ClientId(0), RequestId(2), Value::from_u64(20));
        assert_eq!(s.object_count(), 2);
        assert_eq!(
            s.object(ObjectId(1)).unwrap().stored().1,
            &Value::from_u64(10)
        );
        assert_eq!(
            s.object(ObjectId(2)).unwrap().stored().1,
            &Value::from_u64(20)
        );
    }

    #[test]
    fn ring_slots_rotate_across_objects() {
        let mut s = MultiObjectServer::new(ServerId(0), 3, Config::default());
        // Queue one write in each of three objects.
        for o in 1..=3u32 {
            s.on_client_write(
                ObjectId(o),
                ClientId(0),
                RequestId(u64::from(o)),
                Value::from_u64(u64::from(o)),
            );
        }
        let mut seen = Vec::new();
        while let Some(frame) = s.next_frame() {
            seen.push(frame.object);
            if seen.len() > 10 {
                break;
            }
        }
        assert_eq!(seen, vec![ObjectId(1), ObjectId(2), ObjectId(3)]);
        assert!(s.has_ring_work() || !seen.is_empty());
    }

    #[test]
    fn late_objects_inherit_crash_knowledge() {
        let mut s = MultiObjectServer::new(ServerId(0), 3, Config::default());
        s.on_server_crashed(ServerId(1));
        // Object created after the crash still skips s1.
        s.on_client_write(ObjectId(9), ClientId(0), RequestId(1), Value::from_u64(1));
        let core = s.object(ObjectId(9)).unwrap();
        assert_eq!(core.successor(), Some(ServerId(2)));
        assert_eq!(s.successor(), Some(ServerId(2)));
    }

    #[test]
    fn successor_without_objects_matches_a_fresh_core() {
        // Every subset of a 4-ring reported crashed, `me` included (a
        // core ignores a report about itself).
        for me in 0..4u16 {
            for mask in 0u8..16 {
                let mut server = MultiObjectServer::new(ServerId(me), 4, Config::default());
                let mut core =
                    ServerCore::new(ServerId(me), 4, ObjectId::SINGLE, Config::default());
                for s in (0..4u16).filter(|s| mask & (1 << s) != 0) {
                    server.on_server_crashed(ServerId(s));
                    core.on_server_crashed(ServerId(s));
                }
                assert_eq!(
                    server.successor(),
                    core.successor(),
                    "me {me}, crashed {mask:04b}"
                );
            }
        }
    }

    #[test]
    fn drain_frames_matches_sequential_next_frame_order() {
        // A forwarding server with traffic across two objects, queued
        // local writes AND a rejoin announcement waiting for a slot: the
        // batch drain must produce byte-for-byte the frame sequence the
        // one-at-a-time pull would, announcements included — that is
        // what makes a batch FIFO-transparent on the link.
        let build = || {
            let mut s = MultiObjectServer::new(ServerId(1), 3, Config::default());
            for (o, ts) in [(1u32, 1u64), (2, 2), (1, 3)] {
                s.on_frame(RingFrame::pre_write(
                    ObjectId(o),
                    Tag::new(ts, ServerId(0)),
                    Value::from_u64(ts),
                ));
            }
            s.on_client_write(ObjectId(1), ClientId(9), RequestId(1), Value::from_u64(100));
            // s0 restarted: its announcement forwards with the flags
            // updated, competing with protocol frames for slots.
            s.on_rejoin_announcement(hts_types::Rejoin::announce(ServerId(0)));
            s
        };

        let mut batched = build();
        let mut sequential = build();
        let drained = batched.drain_frames(16, usize::MAX);
        let mut one_at_a_time = Vec::new();
        while let Some(frame) = sequential.next_frame() {
            one_at_a_time.push(frame);
        }
        assert!(drained.len() >= 4, "expected real traffic, got {drained:?}");
        assert_eq!(drained, one_at_a_time);
        assert!(
            drained.iter().any(|f| f.rejoin.is_some()),
            "announcement must ride in the batch"
        );
        assert!(!batched.has_ring_work(), "drain leaves nothing behind");
    }

    #[test]
    fn drain_frames_respects_frame_and_byte_caps() {
        let mut s = MultiObjectServer::new(ServerId(1), 3, Config::default());
        for ts in 1..=6u64 {
            s.on_frame(RingFrame::pre_write(
                ObjectId(1),
                Tag::new(ts, ServerId(0)),
                Value::filled(1, 1000),
            ));
        }
        // Frame cap.
        assert_eq!(s.drain_frames(2, usize::MAX).len(), 2);
        // Byte cap is soft: the frame crossing the budget still ships,
        // and a zero/tiny budget still yields one frame.
        assert_eq!(s.drain_frames(16, 0).len(), 1);
        assert_eq!(s.drain_frames(16, 1500).len(), 2);
        assert_eq!(s.drain_frames(16, usize::MAX).len(), 1);
        assert!(s.drain_frames(16, usize::MAX).is_empty());
    }

    #[test]
    fn frames_route_to_their_object() {
        let mut s = MultiObjectServer::new(ServerId(1), 3, Config::default());
        let frame = RingFrame::pre_write(ObjectId(4), Tag::new(1, ServerId(0)), Value::from_u64(4));
        s.on_frame(frame);
        assert!(s.has_ring_work());
        let out = s.next_frame().unwrap();
        assert_eq!(out.object, ObjectId(4));
        assert_eq!(s.object(ObjectId(4)).unwrap().pending().len(), 1);
    }
}
