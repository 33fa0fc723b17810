//! The server state machine of the high-throughput atomic storage
//! algorithm.
//!
//! This is a **sans-io** translation of the paper's server pseudo-code
//! (§3): events come in through the `on_*` methods, client-visible effects
//! come out as [`Action`]s, and ring transmissions are *pulled* by the
//! transport through [`MultiObjectServer::next_frame`] whenever the ring
//! NIC can send — which is where the fairness rule runs. The same core
//! drives the packet-level simulator, the round-model simulator and the
//! real TCP runtime.
//!
//! [`MultiObjectServer::next_frame`]: crate::MultiObjectServer::next_frame
//!
//! The protocol in one paragraph: a write is assigned a [`Tag`] greater
//! than everything its coordinator has seen and circulates the ring twice —
//! once as a value-carrying *pre-write* announcing it, once as a (tag-only)
//! *write* notice committing it. Every server caches pre-written values in
//! its [`PendingSet`]; a read is served locally and immediately unless the
//! server knows of a pending pre-write, in which case it waits until a
//! write notice at or above that tag arrives (this is what prevents the
//! read-inversion anomaly). Failure handling splices the ring, retransmits
//! in-flight state, and *adopts* writes orphaned by their coordinator's
//! crash. Where the conference pseudo-code is ambiguous, the comment at
//! the resolving code says which reading was taken and why.

use hts_types::{
    ClientId, ObjectId, PreWrite, RequestId, RingFrame, ServerId, Tag, Value, WriteNotice,
};

use crate::fairness::{ForwardScheduler, Selection};
use crate::multi::Lane;
use crate::small::{SmallMap, SmallQueue};
use crate::{Config, PendingSet};

/// A client-visible effect produced by the server core; the transport
/// layer turns these into reply messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Acknowledge a completed write (paper line 50).
    WriteAck {
        /// The register object written.
        object: ObjectId,
        /// The client to reply to.
        client: ClientId,
        /// Its request id.
        request: RequestId,
    },
    /// Answer a read (paper lines 78 and 82).
    ReadReply {
        /// The register object read.
        object: ObjectId,
        /// The client to reply to.
        client: ClientId,
        /// Its request id.
        request: RequestId,
        /// The value read.
        value: Value,
        /// The tag of that value (white-box witness for the
        /// linearizability checker; not sent to clients).
        tag: Tag,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    PreWrite,
    Write,
}

#[derive(Debug, Clone)]
struct Outstanding {
    client: Option<(ClientId, RequestId)>,
    phase: Phase,
    /// [`hts_metrics::now_nanos`] when the pre-write was framed.
    begun_at: u64,
    /// When the own pre-write returned and the write phase started; 0
    /// while still in [`Phase::PreWrite`].
    prewrite_done_at: u64,
}

#[derive(Debug, Clone)]
struct WaitingRead {
    client: ClientId,
    request: RequestId,
    /// The read unblocks on the first write notice with tag >= target
    /// (paper line 81).
    target: Tag,
    /// [`hts_metrics::now_nanos`] when the read blocked.
    begun_at: u64,
}

/// Index into an entry of `ServerCore::seen`: the highest pre-write
/// timestamp seen from an origin (duplicate suppression).
const PREWRITE: usize = 0;
/// Index into an entry of `ServerCore::seen`: the highest write
/// timestamp seen from an origin.
const WRITE: usize = 1;

/// The per-object server state machine: the paper's §3 server, sans-io.
///
/// A register holds only its own state; the ring view, the configuration
/// and the restart-resync gate are its lane's, held once by the
/// [`MultiObjectServer`] that hosts it and lent to every event. Reach a
/// register through [`MultiObjectServer::object`].
///
/// # What a register costs
///
/// **At rest** a core is its stored tag and value, one pair of
/// duplicate-suppression watermarks per ring member and the protocol's
/// queues, all empty — and an emptied queue, set or map owns no heap.
/// On a 64-bit target the core is 576 B; the heap adds the value and
/// `16·n` B of watermarks.
/// **In flight**, one write per register — the common case, since a
/// client waits for its ack before writing the register again — keeps
/// its pending entry, its outstanding entry and every queued frame
/// inline, so a write allocates nothing of the core's own. Several
/// writes in flight spill a queue or map to the heap, and the spill is
/// kept until that collection empties again. The crate's
/// `tests/footprint.rs` pins both over three [`MultiObjectServer`]s in a
/// ring with 64 B values: 2.0 KiB of live heap per register summed over
/// the three servers, flat from 1024 to 4096 registers, and 7
/// allocations per write to a hot register, none of them in a core: one
/// object list per pulled frame and the acknowledgement's `Vec`.
///
/// [`MultiObjectServer`]: crate::MultiObjectServer
/// [`MultiObjectServer::object`]: crate::MultiObjectServer::object
#[derive(Debug, Clone)]
pub struct ServerCore {
    object: ObjectId,
    stored_tag: Tag,
    stored_value: Value,
    pending: PendingSet,
    sched: ForwardScheduler,
    write_queue: SmallQueue<(Option<(ClientId, RequestId)>, Value)>,
    notice_queue: SmallQueue<WriteNotice>,
    outstanding: SmallMap<Tag, Outstanding>,
    /// Orphaned writes this server completes as surrogate origin.
    adopted: SmallMap<Tag, Value>,
    waiting_reads: Vec<WaitingRead>,
    /// Per-origin duplicate-suppression watermarks, indexed by origin
    /// id: `[PREWRITE]` and `[WRITE]` timestamps, one entry per ring
    /// member.
    seen: Box<[[u64; 2]]>,
    /// Commits applied since the last [`drain_commits`](Self::drain_commits)
    /// (populated only under a persistent [`Durability`](crate::Durability)).
    commit_log: Vec<(Tag, Value)>,
}

impl ServerCore {
    /// Register `object` of a server in a ring of `n`.
    pub(crate) fn new(object: ObjectId, n: u16, config: &Config) -> Self {
        ServerCore {
            object,
            sched: ForwardScheduler::new(config.fairness),
            stored_tag: Tag::ZERO,
            stored_value: Value::bottom(),
            pending: PendingSet::new(),
            write_queue: SmallQueue::default(),
            notice_queue: SmallQueue::default(),
            outstanding: SmallMap::default(),
            adopted: SmallMap::default(),
            waiting_reads: Vec::new(),
            seen: vec![[0; 2]; usize::from(n)].into_boxed_slice(),
            commit_log: Vec::new(),
        }
    }

    /// The currently stored `(tag, value)` pair.
    pub fn stored(&self) -> (Tag, &Value) {
        (self.stored_tag, &self.stored_value)
    }

    /// The pending (pre-written, uncommitted) set.
    pub fn pending(&self) -> &PendingSet {
        &self.pending
    }

    /// Number of reads currently blocked on a pending write.
    pub fn waiting_reads(&self) -> usize {
        self.waiting_reads.len()
    }

    /// Whether anything waits for a ring transmission slot.
    pub(crate) fn has_ring_work(&self) -> bool {
        !self.write_queue.is_empty() || self.sched.has_queued() || !self.notice_queue.is_empty()
    }

    /// Restores the stored register from a recovery log (boot-time only:
    /// never emits ring traffic, never logs the restore as a commit).
    /// Duplicate-suppression watermarks advance so stale ring traffic at
    /// or below the restored tag is dropped.
    pub(crate) fn restore(&mut self, tag: Tag, value: Value) {
        if tag > self.stored_tag {
            self.stored_tag = tag;
            self.stored_value = value;
        }
        self.note_prewrite_seen(tag);
        self.note_write_seen(tag);
    }

    /// Takes the commits applied since the last drain (empty unless
    /// [`Config::durability`] is persistent). The runtime appends these
    /// to its log **before** flushing client acks, so `SyncAlways`
    /// really means ack-after-fsync.
    ///
    /// [`Config::durability`]: crate::Config
    pub(crate) fn drain_commits(&mut self) -> Vec<(Tag, Value)> {
        std::mem::take(&mut self.commit_log)
    }

    /// Whether recovery retransmissions (value-carrying notices or
    /// recovery pre-writes) still wait in the outbound queues. A rejoin
    /// announcement must not leave before them: its arrival at the
    /// rejoiner certifies, via FIFO links, that the recovery stream
    /// arrived first.
    pub(crate) fn has_recovery_backlog(&self) -> bool {
        self.notice_queue.iter().any(|n| n.value.is_some()) || self.sched.has_recovery_queued()
    }

    /// A restarted server rejoined the ring as this server's successor:
    /// this server is the one the rejoiner syncs from. It re-sends its
    /// stored value and every pending pre-write, exactly like the splice
    /// path — everything committed anywhere is either ≤ our stored tag
    /// or still in our pending set, so the FIFO stream to the rejoiner
    /// covers all of it.
    pub(crate) fn on_successor_rejoined(&mut self) {
        self.resend_to_new_successor();
    }

    /// Re-sends everything a new successor may lack: the stored value as
    /// a value-carrying notice, then every pending pre-write as a
    /// recovery pre-write (which bypasses duplicate suppression, so it
    /// can complete a full turn even through servers that saw it
    /// already).
    fn resend_to_new_successor(&mut self) {
        if self.stored_tag != Tag::ZERO {
            self.notice_queue.push_front(WriteNotice {
                tag: self.stored_tag,
                value: Some(self.stored_value.clone()),
            });
        }
        let resend: Vec<PreWrite> = self
            .pending
            .iter()
            .map(|(tag, value)| PreWrite {
                tag,
                value: value.clone(),
                recovery: true,
            })
            .collect();
        self.sched.enqueue_front(resend);
    }

    /// A client asked to write `value` (paper lines 18–20).
    pub(crate) fn on_client_write(
        &mut self,
        lane: &Lane,
        client: ClientId,
        request: RequestId,
        value: Value,
    ) -> Vec<Action> {
        if lane.ring.alive_count() == 1 && !lane.syncing() {
            // Degenerate ring: the full circulation is a no-op. (A lone
            // survivor that is still mid-resync must NOT take this
            // shortcut: its restored tag watermark may be behind tags
            // already committed cluster-wide, and a tag minted from it
            // would order this write into the observed past.)
            let tag = self.next_tag(lane.me());
            self.apply(lane, tag, value);
            return vec![Action::WriteAck {
                object: self.object,
                client,
                request,
            }];
        }
        self.write_queue.push_back((Some((client, request)), value));
        hts_metrics::histogram!("hts_core_write_queue_depth").record(self.write_queue.len() as u64);
        Vec::new()
    }

    /// A client asked to read (paper lines 76–84). The lane holds reads
    /// while its resync gate is shut; this is the read once it is open.
    pub(crate) fn on_client_read(
        &mut self,
        lane: &Lane,
        client: ClientId,
        request: RequestId,
    ) -> Vec<Action> {
        // A read blocks only on a pending write it must wait out; with
        // none pending (or the fast path satisfied, or no peers left to
        // wait for) it is served immediately.
        let target = self.pending.max_tag().filter(|&max| {
            !(lane.config.read_fast_path && self.stored_tag >= max) && lane.ring.alive_count() > 1
        });
        let Some(target) = target else {
            return vec![Action::ReadReply {
                object: self.object,
                client,
                request,
                value: self.stored_value.clone(),
                tag: self.stored_tag,
            }];
        };
        self.waiting_reads.push(WaitingRead {
            client,
            request,
            target,
            begun_at: hts_metrics::now_nanos(),
        });
        Vec::new()
    }

    /// A ring frame arrived from the predecessor.
    ///
    /// # Panics
    ///
    /// Panics if the frame belongs to a different object (routing bug).
    #[expect(clippy::disallowed_macros, reason = "documented: a routing bug")]
    pub(crate) fn on_frame(&mut self, lane: &Lane, frame: RingFrame) -> Vec<Action> {
        assert_eq!(frame.object, self.object, "frame routed to wrong object");
        let mut actions = Vec::new();
        // Commit before announce: a piggybacked frame carries an older
        // write notice next to a newer pre-write.
        if let Some(notice) = frame.write {
            if Self::admits_origin(lane, notice.tag) {
                self.process_write_notice(lane, notice, &mut actions);
            }
        }
        if let Some(pw) = frame.pre_write {
            if Self::admits_origin(lane, pw.tag) {
                self.process_pre_write(lane, pw, &mut actions);
            }
        }
        actions
    }

    /// The perfect failure detector reported the crash of `s`, which
    /// `lane.ring` already has spliced out; `was_successor` says whether
    /// `s` was this server's successor until then.
    pub(crate) fn on_server_crashed(
        &mut self,
        lane: &Lane,
        s: ServerId,
        was_successor: bool,
    ) -> Vec<Action> {
        let mut actions = Vec::new();

        if lane.ring.alive_count() == 1 {
            if lane.syncing() {
                // A lone survivor that is itself mid-resync must NOT
                // serve: its restored log may miss writes acknowledged
                // while it was down, and those writes still exist in the
                // crashed peers' logs. Linearizability over availability:
                // reads and writes stay queued until a peer rejoins and
                // the resync completes (see the lane's rejoin handling),
                // rather than time-traveling clients.
                return actions;
            }
            self.complete_everything_alone(lane, &mut actions);
            return actions;
        }

        if was_successor {
            // Everything forwarded to the dead successor may be lost
            // (paper lines 85–92).
            self.resend_to_new_successor();
        }

        if lane.ring.is_adopter_of(s) {
            // Writes initiated by the dead server that never committed
            // would block readers forever; as its first alive successor we
            // complete them under their original tags.
            let orphans = self.pending.with_origin(s);
            let mut resend = Vec::new();
            for (tag, value) in orphans {
                self.adopted.insert(tag, value.clone());
                if !was_successor {
                    resend.push(PreWrite {
                        tag,
                        value,
                        recovery: true,
                    });
                }
                // (if `was_successor`, the blanket re-send above already
                // queued a recovery copy.)
            }
            self.sched.enqueue_front(resend);
            // Pre-writes from the dead origin still waiting in our forward
            // queues were seen by no one downstream; adopt them and let
            // their (first) forwarding double as the adoption circulation.
            let queued = self.sched.drain_origin(s);
            if !queued.is_empty() {
                for pw in &queued {
                    self.adopted.insert(pw.tag, pw.value.clone());
                }
                self.sched.enqueue_front(queued);
            }
        }
        actions
    }

    /// Pulls the next ring frame for the current successor, running the
    /// fairness rule. Returns `None` when nothing needs the slot. The
    /// lane asks only while this server has a successor.
    pub(crate) fn next_frame(&mut self, lane: &Lane) -> Option<RingFrame> {
        loop {
            // While resyncing, hold local initiations: a tag minted from
            // restored (possibly stale) state could order a new write
            // before already-completed ones.
            let want_local = !lane.syncing() && !self.write_queue.is_empty();
            let me = lane.me();
            let mut frame = RingFrame {
                object: self.object,
                pre_write: None,
                write: None,
                rejoin: None,
            };
            match self.sched.select(me, want_local) {
                Some(Selection::InitiateLocal) => {
                    // Offered only when a write is queued (`want_local`);
                    // if that ever drifts, skip the slot instead of
                    // panicking the server.
                    let (client, value) = self.write_queue.pop_front()?;
                    let tag = self.next_tag(me);
                    self.pending.insert(tag, value.clone());
                    hts_metrics::flight::record(
                        hts_metrics::flight::KIND_OP_BEGIN,
                        client.map_or(0, |(_, r)| r.0),
                        tag.ts,
                        u64::from(tag.origin.0),
                    );
                    self.outstanding.insert(
                        tag,
                        Outstanding {
                            client,
                            phase: Phase::PreWrite,
                            begun_at: hts_metrics::now_nanos(),
                            prewrite_done_at: 0,
                        },
                    );
                    self.note_prewrite_seen(tag);
                    self.sched.record_initiation(me);
                    frame.pre_write = Some(PreWrite {
                        tag,
                        value,
                        recovery: false,
                    });
                }
                Some(Selection::Forward(pw)) => {
                    // Late guard: the tag may have committed while queued.
                    if pw.tag <= self.stored_tag || self.write_seen_ts(pw.tag.origin) >= pw.tag.ts {
                        continue;
                    }
                    // Paper line 71: the tag becomes pending at forward
                    // time (with its value cached for the tag-only commit).
                    self.pending.insert(pw.tag, pw.value.clone());
                    frame.pre_write = Some(pw);
                }
                None => {}
            }
            // Piggyback at most one write notice (§4.2 "(2)").
            if let Some(notice) = self.notice_queue.pop_front() {
                frame.write = Some(notice);
            }
            if frame.is_empty() {
                return None;
            }
            return Some(frame);
        }
    }

    fn next_tag(&self, me: ServerId) -> Tag {
        let highest = self
            .pending
            .max_tag()
            .map_or(self.stored_tag.ts, |t| t.ts.max(self.stored_tag.ts));
        Tag::new(highest + 1, me)
    }

    fn apply(&mut self, lane: &Lane, tag: Tag, value: Value) {
        if tag > self.stored_tag {
            if lane.config.durability.is_persistent() {
                self.commit_log.push((tag, value.clone()));
            }
            self.stored_tag = tag;
            self.stored_value = value;
        }
    }

    fn prewrite_seen_ts(&self, origin: ServerId) -> u64 {
        self.seen.get(origin.index()).map_or(0, |s| s[PREWRITE])
    }

    fn write_seen_ts(&self, origin: ServerId) -> u64 {
        self.seen.get(origin.index()).map_or(0, |s| s[WRITE])
    }

    fn note_prewrite_seen(&mut self, tag: Tag) {
        self.note_seen(tag, PREWRITE);
    }

    fn note_write_seen(&mut self, tag: Tag) {
        self.note_seen(tag, WRITE);
    }

    fn note_seen(&mut self, tag: Tag, which: usize) {
        // One slot per ring member; `on_frame` turns away tags from
        // origins outside the ring, so only a recovery log written for
        // another ring could miss here.
        if let Some(slot) = self.seen.get_mut(tag.origin.index()) {
            slot[which] = slot[which].max(tag.ts);
        }
    }

    /// Whether `tag`'s origin is a ring member. Only a misbehaving peer
    /// sends one that is not; having no watermark to check it against,
    /// it is dropped.
    fn admits_origin(lane: &Lane, tag: Tag) -> bool {
        tag.origin.0 < lane.ring.n()
    }

    fn process_pre_write(&mut self, lane: &Lane, pw: PreWrite, actions: &mut Vec<Action>) {
        let tag = pw.tag;

        // Already committed (here or anywhere upstream): never re-pend.
        if tag <= self.stored_tag || self.write_seen_ts(tag.origin) >= tag.ts {
            return;
        }

        // Surrogate return: an adopted orphan completed its ring turn.
        if self.adopted.remove(&tag).is_some() {
            self.apply(lane, tag, pw.value.clone());
            self.pending.remove(tag);
            self.note_write_seen(tag);
            self.notice_queue.push_back(WriteNotice {
                tag,
                value: Some(pw.value),
            });
            self.check_waiting_reads(tag, actions);
            return;
        }

        if tag.origin == lane.me() {
            // Own pre-write returned: every server saw it; start the write
            // phase (paper lines 32–38). "Every server" has one exception:
            // a rejoiner whose recovery copy of this pre-write still waits
            // in our forward queues — then the commit notice must carry
            // the value or it can overtake the copy (see
            // `process_write_notice`).
            match self.outstanding.get_mut(&tag) {
                Some(out) if out.phase == Phase::PreWrite => {
                    out.phase = Phase::Write;
                    out.prewrite_done_at = hts_metrics::now_nanos();
                    hts_metrics::histogram!("hts_core_write_prewrite_nanos")
                        .record(out.prewrite_done_at.saturating_sub(out.begun_at));
                    hts_metrics::flight::record(
                        hts_metrics::flight::KIND_OP_PHASE,
                        out.client.map_or(0, |(_, r)| r.0),
                        tag.ts,
                        u64::from(tag.origin.0),
                    );
                    self.apply(lane, tag, pw.value.clone());
                    self.pending.remove(tag);
                    let value = (lane.config.write_carries_value
                        || self.sched.has_recovery_for(tag))
                    .then_some(pw.value);
                    self.notice_queue.push_back(WriteNotice { tag, value });
                }
                // A duplicate: its write phase has started already.
                Some(_) => {}
                None => {
                    // Our own pre-write, but no outstanding entry: it was
                    // issued by a previous incarnation of this server
                    // (crash-restart lost the bookkeeping, and the restart
                    // outran failure detection so nobody adopted it).
                    // It has completed a full circulation — every alive
                    // server holds it pending — so commit it; dropping it
                    // would leave the tag pending ring-wide, blocking
                    // readers until some newer write subsumes it. There is
                    // no client to ack (it died with the old incarnation
                    // and has long since retried elsewhere).
                    self.apply(lane, tag, pw.value.clone());
                    self.pending.remove(tag);
                    self.notice_queue.push_back(WriteNotice {
                        tag,
                        value: Some(pw.value),
                    });
                    self.check_waiting_reads(tag, actions);
                }
            }
            return;
        }

        // Foreign pre-write: suppress duplicates unless it is a recovery
        // re-circulation, which must pass through servers that saw it to
        // reach whoever consumes it. Every recovery frame has a consumer:
        // the alive origin, or the adopter of a dead one, which claims it
        // on arrival (below) and ends its turn when it comes back.
        if !pw.recovery && self.prewrite_seen_ts(tag.origin) >= tag.ts {
            return;
        }
        self.note_prewrite_seen(tag);

        // If the origin is already known to be dead and we are its
        // designated adopter, claim the orphan now; its forwarding below
        // doubles as the adoption circulation.
        if lane.ring.is_adopter_of(tag.origin) {
            self.adopted.insert(tag, pw.value.clone());
        }

        self.sched.enqueue(pw);
    }

    fn process_write_notice(
        &mut self,
        lane: &Lane,
        notice: WriteNotice,
        actions: &mut Vec<Action>,
    ) {
        let tag = notice.tag;
        let mine = tag.origin == lane.me();

        if !mine && self.write_seen_ts(tag.origin) >= tag.ts {
            return;
        }
        self.note_write_seen(tag);

        // Resolve the committed value: carried explicitly, from the
        // pending cache filled by the matching pre-write, or from a
        // pre-write still waiting in the forward queues (possible after
        // a splice-and-rejoin, when the commit's recovery circulation
        // bypassed this server; the stale queue entry is dropped later
        // by `next_frame`'s late guard).
        let resolved = notice
            .value
            .clone()
            .or_else(|| self.pending.get(tag).cloned())
            .or_else(|| self.sched.queued_value(tag).cloned());
        match &resolved {
            Some(v) => self.apply(lane, tag, v.clone()),
            #[expect(clippy::disallowed_macros, reason = "compiled out of release builds")]
            None => {
                // Only already-applied tags may lack a cached value.
                debug_assert!(
                    tag <= self.stored_tag,
                    "tag-only write {tag} without a cached pre-write at {me} \
                     (stored {stored}, syncing {syncing}, pending {pending:?}, \
                     seen {seen:?})",
                    me = lane.me(),
                    stored = self.stored_tag,
                    syncing = lane.syncing(),
                    pending = self.pending.iter().map(|(t, _)| t).collect::<Vec<_>>(),
                    seen = self.seen,
                );
            }
        }

        // Subsumption: a committed tag proves every lower pre-write can
        // never be read again.
        while self.pending.pop_le(tag).is_some() {}
        self.adopted.retain(|t, _| *t > tag);

        // Acknowledge own writes at or below the committed tag — the exact
        // own-write return (paper line 49) and any of ours it subsumes.
        while let Some((t, out)) = self.outstanding.pop_first_le(&tag) {
            let done = hts_metrics::now_nanos();
            if out.prewrite_done_at != 0 {
                hts_metrics::histogram!("hts_core_write_commit_nanos")
                    .record(done.saturating_sub(out.prewrite_done_at));
            }
            hts_metrics::histogram!("hts_core_write_total_nanos")
                .record(done.saturating_sub(out.begun_at));
            hts_metrics::flight::record(
                hts_metrics::flight::KIND_OP_COMPLETE,
                out.client.map_or(0, |(_, r)| r.0),
                t.ts,
                u64::from(t.origin.0),
            );
            if let Some((client, request)) = out.client {
                actions.push(Action::WriteAck {
                    object: self.object,
                    client,
                    request,
                });
            }
        }

        self.check_waiting_reads(tag, actions);

        if !mine {
            // Forward the commit around the ring (tag-only in steady
            // state; keep the explicit value in recovery/ablation
            // frames). One extra case must carry the value: while a
            // recovery copy of this tag still waits in our forward
            // queues, the successor is a resyncing rejoiner that has
            // never seen the pre-write — fairness across origins can
            // let this notice overtake the copy, and a tag-only notice
            // would then commit a value the rejoiner cannot resolve.
            let value = if lane.config.write_carries_value || self.sched.has_recovery_for(tag) {
                resolved
            } else {
                notice.value
            };
            self.notice_queue.push_back(WriteNotice { tag, value });
        }
    }

    /// Unblocks reads whose target the committed `tag` satisfies (paper
    /// line 81). Replies carry the *stored* value: the pseudo-code's
    /// literal reply (the message value) admits a read inversion when
    /// ring writes overtake each other — the unblocking message can carry
    /// an older value than one a previous read already returned.
    fn check_waiting_reads(&mut self, tag: Tag, actions: &mut Vec<Action>) {
        if self.waiting_reads.is_empty() {
            return;
        }
        let (reply_value, reply_tag) = (self.stored_value.clone(), self.stored_tag);
        let object = self.object;
        self.waiting_reads.retain(|wr| {
            if wr.target > tag {
                return true;
            }
            hts_metrics::histogram!("hts_core_read_block_nanos")
                .record(hts_metrics::now_nanos().saturating_sub(wr.begun_at));
            actions.push(Action::ReadReply {
                object,
                client: wr.client,
                request: wr.request,
                value: reply_value.clone(),
                tag: reply_tag,
            });
            false
        });
        if self.waiting_reads.is_empty() {
            self.waiting_reads = Vec::new();
        }
    }

    /// Last survivor: every circulation is a no-op, so finish all
    /// in-flight work locally.
    fn complete_everything_alone(&mut self, lane: &Lane, actions: &mut Vec<Action>) {
        // Commit every pending pre-write under its original tag (nothing
        // newer can be overwritten, and readers blocked on them unblock).
        let everything = Tag {
            ts: u64::MAX,
            origin: ServerId(u16::MAX),
        };
        while let Some((tag, value)) = self.pending.pop_le(everything) {
            self.apply(lane, tag, value);
            self.note_write_seen(tag);
        }
        // Same for pre-writes still waiting in the forward queues and for
        // adopted orphans.
        for origin in (0..lane.ring.n()).map(ServerId) {
            for pw in self.sched.drain_origin(origin) {
                self.apply(lane, pw.tag, pw.value);
                self.note_write_seen(pw.tag);
            }
        }
        while let Some((tag, value)) = self.adopted.pop_first_le(&everything) {
            self.apply(lane, tag, value);
            self.note_write_seen(tag);
        }
        // Local writes apply directly now.
        while let Some((client, value)) = self.write_queue.pop_front() {
            let tag = self.next_tag(lane.me());
            self.apply(lane, tag, value);
            if let Some((client, request)) = client {
                actions.push(Action::WriteAck {
                    object: self.object,
                    client,
                    request,
                });
            }
        }
        // Outstanding two-phase writes are complete by fiat.
        while let Some((_, out)) = self.outstanding.pop_first_le(&everything) {
            if let Some((client, request)) = out.client {
                actions.push(Action::WriteAck {
                    object: self.object,
                    client,
                    request,
                });
            }
        }
        self.notice_queue.clear();
        // All blocked reads can be answered from the store.
        let waiting = std::mem::take(&mut self.waiting_reads);
        for wr in waiting {
            actions.push(Action::ReadReply {
                object: self.object,
                client: wr.client,
                request: wr.request,
                value: self.stored_value.clone(),
                tag: self.stored_tag,
            });
        }
    }
}
