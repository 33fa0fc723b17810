//! The fairness scheduler for ring transmission slots.
//!
//! Each time a server's ring NIC can transmit, it must choose between
//! **initiating** a write from its own client queue and **forwarding** a
//! pre-write received from its predecessor. The paper's rule (lines 53–75):
//! count, per originating server, how many of its messages this server has
//! forwarded (`nb_msg`), and serve the origin with the smallest count — the
//! local server competes as its own origin, its counter incremented by
//! initiations. When nothing waits to be forwarded, the counters reset.
//!
//! This guarantees every origin a `1/n` share of every ring link, which is
//! what bounds write latency (`l_max` in §4.2) and makes the write
//! throughput claim (1 per round) hold under saturation. The
//! [`FairnessMode::LocalFirst`] and [`FairnessMode::ForwardFirst`]
//! ablations demonstrate the starvation each naive policy causes.

use hts_types::{PreWrite, ServerId, Value};

use crate::small::{SmallMap, SmallQueue};
use crate::FairnessMode;

/// What the scheduler picked for the next ring transmission slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Initiate the next write from the local client queue.
    InitiateLocal,
    /// Forward this queued pre-write.
    Forward(PreWrite),
}

/// Per-origin forward queues plus the paper's `nb_msg` counters.
///
/// A register usually has one pre-write queued at a time, which the
/// queues and counters hold inline; an origin's queue goes when it
/// empties, so an idle scheduler owns no heap.
#[derive(Debug, Clone, Default)]
pub struct ForwardScheduler {
    /// Each origin's queued pre-writes, FIFO, with their arrival number
    /// (0 for re-queued ones, logically the oldest). No queue is empty.
    queues: SmallMap<ServerId, SmallQueue<(u64, PreWrite)>>,
    nb_msg: SmallMap<ServerId, u64>,
    arrival_seq: u64,
    mode: FairnessMode,
}

impl ForwardScheduler {
    /// Creates an empty scheduler with the given policy.
    pub fn new(mode: FairnessMode) -> Self {
        ForwardScheduler {
            mode,
            ..ForwardScheduler::default()
        }
    }

    /// Queues a received pre-write for forwarding (per-origin FIFO).
    pub fn enqueue(&mut self, pw: PreWrite) {
        self.arrival_seq += 1;
        self.push((self.arrival_seq, pw), false);
    }

    /// Re-queues pre-writes at the **front** of their origin's queue,
    /// preserving the given (ascending-tag) order — used by crash recovery,
    /// where retransmitted pre-writes must precede anything queued later
    /// from the same origin or downstream duplicate suppression would
    /// discard the fresher entries.
    pub fn enqueue_front(&mut self, pre_writes: Vec<PreWrite>) {
        for pw in pre_writes.into_iter().rev() {
            self.push((0, pw), true); // seq 0: logically "oldest"
        }
    }

    fn push(&mut self, entry: (u64, PreWrite), at_front: bool) {
        let origin = entry.1.tag.origin;
        match self.queues.get_mut(&origin) {
            Some(queue) if at_front => queue.push_front(entry),
            Some(queue) => queue.push_back(entry),
            None => {
                let mut queue = SmallQueue::default();
                queue.push_back(entry);
                self.queues.insert(origin, queue);
            }
        }
    }

    /// Pops the front of `origin`'s queue, dropping the queue if that
    /// empties it.
    fn pop_from(&mut self, origin: ServerId) -> Option<PreWrite> {
        let queue = self.queues.get_mut(&origin)?;
        let (_, pw) = queue.pop_front()?;
        if queue.is_empty() {
            self.queues.remove(&origin);
        }
        Some(pw)
    }

    /// Whether any pre-write waits to be forwarded.
    pub fn has_queued(&self) -> bool {
        !self.queues.is_empty()
    }

    /// Whether any queued pre-write is a recovery re-circulation — the
    /// resync backlog a rejoin announcement must stay behind (FIFO links
    /// make the announcement's arrival prove the backlog arrived first).
    pub fn has_recovery_queued(&self) -> bool {
        self.queues
            .iter()
            .flat_map(|(_, queue)| queue.iter())
            .any(|(_, pw)| pw.recovery)
    }

    /// Whether a recovery copy of exactly `tag` still waits to be
    /// forwarded. While it does, the successor (a resyncing rejoiner)
    /// has not seen the value yet, so a commit notice for the tag must
    /// carry the value explicitly instead of being tag-only — fairness
    /// across origins can otherwise let the notice overtake the copy.
    pub fn has_recovery_for(&self, tag: hts_types::Tag) -> bool {
        self.queues
            .get(&tag.origin)
            .is_some_and(|q| q.iter().any(|(_, pw)| pw.recovery && pw.tag == tag))
    }

    /// The value of a queued-but-not-yet-forwarded pre-write for `tag`,
    /// if any. The pending cache is only filled at *forward* time (paper
    /// line 71), but after a splice-and-rejoin a commit notice can reach
    /// a server while the matching pre-write still waits in its forward
    /// queue (the commit's recovery circulation bypassed it): the value
    /// is resolvable from here.
    pub fn queued_value(&self, tag: hts_types::Tag) -> Option<&Value> {
        self.queues
            .get(&tag.origin)?
            .iter()
            .find(|(_, pw)| pw.tag == tag)
            .map(|(_, pw)| &pw.value)
    }

    /// Total queued pre-writes.
    pub fn queued_len(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.len()).sum()
    }

    /// Removes and returns every queued pre-write originated by `origin`
    /// (used by orphan adoption: entries this server never forwarded were
    /// seen by no one else and are simply re-issued).
    pub fn drain_origin(&mut self, origin: ServerId) -> Vec<PreWrite> {
        let mut queue = self.queues.remove(&origin).unwrap_or_default();
        std::iter::from_fn(|| queue.pop_front())
            .map(|(_, pw)| pw)
            .collect()
    }

    /// Records that the local server initiated a write (counts against its
    /// own origin, paper line 26).
    pub fn record_initiation(&mut self, me: ServerId) {
        self.count_one(me);
    }

    fn count_one(&mut self, origin: ServerId) {
        let count = self.nb_msg.get(&origin).map_or(1, |c| c + 1);
        self.nb_msg.insert(origin, count);
    }

    /// Picks the next transmission: a local initiation (only offered when
    /// `want_local`) or a queued pre-write. Returns `None` when there is
    /// nothing to send.
    ///
    /// Counter bookkeeping (increments, the empty-queue reset) happens
    /// here, except the local-initiation increment, which the caller
    /// triggers via [`record_initiation`](Self::record_initiation) once the
    /// write is actually created.
    pub fn select(&mut self, me: ServerId, want_local: bool) -> Option<Selection> {
        match self.mode {
            FairnessMode::Fair => self.select_fair(me, want_local),
            FairnessMode::LocalFirst => {
                if want_local {
                    Some(Selection::InitiateLocal)
                } else {
                    self.pop_oldest().map(Selection::Forward)
                }
            }
            FairnessMode::ForwardFirst => {
                self.pop_oldest().map(Selection::Forward).or(if want_local {
                    Some(Selection::InitiateLocal)
                } else {
                    None
                })
            }
        }
    }

    fn select_fair(&mut self, me: ServerId, want_local: bool) -> Option<Selection> {
        if !self.has_queued() {
            // Paper line 55: reset the counters whenever the forward queue
            // drains; fairness is relative to the current busy period.
            self.nb_msg = SmallMap::default();
            return want_local.then_some(Selection::InitiateLocal);
        }
        // Candidates: origins with queued traffic, plus (if a local write
        // waits) this server itself. Minimal nb_msg wins; ties break by
        // smallest server id — any deterministic rule works, the paper
        // leaves it open.
        let local = want_local.then_some(me);
        let queued = self.queues.iter().map(|(origin, _)| *origin);
        let (_, chosen) = queued
            .chain(local)
            .map(|origin| (self.nb_msg.get(&origin).copied().unwrap_or(0), origin))
            .min()?;
        if chosen == me && want_local {
            return Some(Selection::InitiateLocal);
        }
        // `chosen` came from a queue above, so the pop cannot miss; `?`
        // still beats a panic if that ever drifts.
        let pw = self.pop_from(chosen)?;
        self.count_one(chosen);
        Some(Selection::Forward(pw))
    }

    /// Pops the globally oldest queued pre-write (arrival order).
    fn pop_oldest(&mut self) -> Option<PreWrite> {
        let (_, origin) = self
            .queues
            .iter()
            .filter_map(|(origin, q)| q.front().map(|(arrival, _)| (*arrival, *origin)))
            .min()?;
        self.pop_from(origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_types::{Tag, Value};

    fn pw(ts: u64, origin: u16) -> PreWrite {
        PreWrite {
            tag: Tag::new(ts, ServerId(origin)),
            value: Value::from_u64(ts),
            recovery: false,
        }
    }

    fn origin_of(sel: Selection) -> ServerId {
        match sel {
            Selection::Forward(p) => p.tag.origin,
            Selection::InitiateLocal => ServerId(u16::MAX),
        }
    }

    #[test]
    fn empty_scheduler_offers_local_only_when_wanted() {
        let mut s = ForwardScheduler::new(FairnessMode::Fair);
        assert_eq!(s.select(ServerId(0), false), None);
        assert_eq!(s.select(ServerId(0), true), Some(Selection::InitiateLocal));
    }

    #[test]
    fn fair_mode_alternates_between_origins() {
        let mut s = ForwardScheduler::new(FairnessMode::Fair);
        for ts in 1..=3 {
            s.enqueue(pw(ts, 1));
            s.enqueue(pw(ts, 2));
        }
        let mut picks = Vec::new();
        for _ in 0..6 {
            picks.push(origin_of(s.select(ServerId(0), false).unwrap()));
        }
        assert_eq!(
            picks,
            vec![
                ServerId(1),
                ServerId(2),
                ServerId(1),
                ServerId(2),
                ServerId(1),
                ServerId(2)
            ]
        );
    }

    #[test]
    fn fair_mode_gives_local_its_share() {
        let mut s = ForwardScheduler::new(FairnessMode::Fair);
        for ts in 1..=4 {
            s.enqueue(pw(ts, 1));
        }
        // Local writes wait too: me=0 competes with origin 1.
        let first = s.select(ServerId(0), true).unwrap();
        assert_eq!(first, Selection::InitiateLocal); // both at 0, id 0 wins tie
        s.record_initiation(ServerId(0));
        let second = s.select(ServerId(0), true).unwrap();
        assert!(matches!(second, Selection::Forward(_)));
        let third = s.select(ServerId(0), true).unwrap();
        assert_eq!(third, Selection::InitiateLocal);
        s.record_initiation(ServerId(0));
        let fourth = s.select(ServerId(0), true).unwrap();
        assert!(matches!(fourth, Selection::Forward(_)));
    }

    #[test]
    fn per_origin_fifo_is_preserved() {
        let mut s = ForwardScheduler::new(FairnessMode::Fair);
        s.enqueue(pw(1, 1));
        s.enqueue(pw(2, 1));
        s.enqueue(pw(3, 1));
        let tags: Vec<u64> = (0..3)
            .map(|_| match s.select(ServerId(0), false).unwrap() {
                Selection::Forward(p) => p.tag.ts,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn counters_reset_when_queues_drain() {
        let mut s = ForwardScheduler::new(FairnessMode::Fair);
        s.enqueue(pw(1, 1));
        let _ = s.select(ServerId(0), false); // nb_msg[1] = 1
        assert!(!s.has_queued());
        // Queue drained: next select resets counters.
        assert_eq!(s.select(ServerId(0), false), None);
        s.enqueue(pw(2, 2));
        s.enqueue(pw(2, 1));
        // After reset both origins are at 0; smallest id (1) wins the tie.
        assert_eq!(
            origin_of(s.select(ServerId(0), false).unwrap()),
            ServerId(1)
        );
    }

    #[test]
    fn local_first_starves_the_ring() {
        let mut s = ForwardScheduler::new(FairnessMode::LocalFirst);
        s.enqueue(pw(1, 1));
        for _ in 0..10 {
            assert_eq!(s.select(ServerId(0), true), Some(Selection::InitiateLocal));
        }
        assert_eq!(s.queued_len(), 1); // never forwarded
    }

    #[test]
    fn forward_first_starves_local_writes() {
        let mut s = ForwardScheduler::new(FairnessMode::ForwardFirst);
        for ts in 1..=10 {
            s.enqueue(pw(ts, 1));
        }
        for _ in 0..10 {
            assert!(matches!(
                s.select(ServerId(0), true),
                Some(Selection::Forward(_))
            ));
        }
        // Only once the ring is empty does the local write go.
        assert_eq!(s.select(ServerId(0), true), Some(Selection::InitiateLocal));
    }

    #[test]
    fn enqueue_front_precedes_queued_traffic_of_same_origin() {
        let mut s = ForwardScheduler::new(FairnessMode::Fair);
        s.enqueue(pw(5, 1));
        s.enqueue_front(vec![pw(2, 1), pw(3, 1)]);
        let tags: Vec<u64> = (0..3)
            .map(|_| match s.select(ServerId(0), false).unwrap() {
                Selection::Forward(p) => p.tag.ts,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![2, 3, 5]);
    }

    #[test]
    fn drain_origin_removes_only_that_origin() {
        let mut s = ForwardScheduler::new(FairnessMode::Fair);
        s.enqueue(pw(1, 1));
        s.enqueue(pw(2, 2));
        s.enqueue(pw(3, 1));
        let drained = s.drain_origin(ServerId(1));
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].tag.ts, 1);
        assert_eq!(drained[1].tag.ts, 3);
        assert_eq!(s.queued_len(), 1);
    }
}
