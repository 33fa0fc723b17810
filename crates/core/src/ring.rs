//! Ring membership as seen by one server.

use hts_types::ServerId;

/// One server's view of the ring: the full (static) membership and which
/// members are still believed alive.
///
/// The paper's model has a fixed initial membership of `n` servers; crashed
/// servers are spliced out of the ring, never re-added. The perfect failure
/// detector guarantees all views converge.
///
/// # Examples
///
/// The view is crate-private; a server's public successor is read from
/// the one view its lane holds:
///
/// ```
/// use hts_core::{Config, MultiObjectServer};
/// use hts_types::ServerId;
///
/// let mut s1 = MultiObjectServer::new(ServerId(1), 4, Config::default());
/// assert_eq!(s1.successor(), Some(ServerId(2)));
/// s1.on_server_crashed(ServerId(2));
/// assert_eq!(s1.successor(), Some(ServerId(3)));
/// s1.on_server_crashed(ServerId(3));
/// s1.on_server_crashed(ServerId(0));
/// assert_eq!(s1.successor(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RingView {
    me: ServerId,
    alive: Vec<bool>,
}

impl RingView {
    /// Creates the view of server `me` in a healthy ring of `n` servers
    /// (`0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside `0..n` or `n` is zero.
    #[expect(clippy::disallowed_macros, reason = "documented caller preconditions")]
    pub(crate) fn new(me: ServerId, n: u16) -> Self {
        assert!(n > 0, "a ring needs at least one server");
        assert!(me.0 < n, "server {me} outside ring of {n}");
        RingView {
            me,
            alive: vec![true; usize::from(n)],
        }
    }

    /// This server's id.
    pub(crate) fn me(&self) -> ServerId {
        self.me
    }

    /// Total (initial) membership, alive or not.
    pub(crate) fn n(&self) -> u16 {
        self.alive.len() as u16
    }

    /// Number of servers still believed alive.
    pub(crate) fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Whether `s` is still believed alive.
    pub(crate) fn is_alive(&self, s: ServerId) -> bool {
        self.alive.get(s.index()).copied().unwrap_or(false)
    }

    /// Marks `s` crashed; returns `true` if it was previously alive.
    ///
    /// Marking oneself crashed is a protocol bug and panics.
    #[expect(clippy::disallowed_macros, reason = "documented: a protocol bug")]
    pub(crate) fn mark_crashed(&mut self, s: ServerId) -> bool {
        assert_ne!(s, self.me, "{s} asked to mark itself crashed");
        if s.index() >= self.alive.len() {
            return false;
        }
        std::mem::replace(&mut self.alive[s.index()], false)
    }

    /// Marks `s` alive again (crash-**recovery** rejoin: a restarted
    /// server announced itself back). Returns `true` if `s` was
    /// previously marked crashed. Rejoining oneself or an out-of-range
    /// id is a no-op.
    pub(crate) fn mark_rejoined(&mut self, s: ServerId) -> bool {
        if s == self.me || s.index() >= self.alive.len() {
            return false;
        }
        !std::mem::replace(&mut self.alive[s.index()], true)
    }

    /// The next alive server after `me` in ring order, or `None` when this
    /// server is the only survivor.
    pub(crate) fn successor(&self) -> Option<ServerId> {
        self.next_alive_after(self.me)
    }

    /// The next alive server after `s` (exclusive), or `None` if no *other*
    /// server is alive. `s` itself need not be alive.
    pub(crate) fn next_alive_after(&self, s: ServerId) -> Option<ServerId> {
        let n = self.alive.len();
        for step in 1..=n {
            let idx = (s.index() + step) % n;
            let candidate = ServerId(idx as u16);
            if candidate != s && self.is_alive(candidate) {
                if candidate == self.me && s == self.me {
                    return None; // alone in the ring
                }
                return Some(candidate);
            }
        }
        None
    }

    /// Whether this server is the designated **adopter** of writes orphaned
    /// by the crash of `origin`: the first alive server after it in ring
    /// order. All correct servers compute the same adopter once their
    /// failure detectors converge.
    pub(crate) fn is_adopter_of(&self, origin: ServerId) -> bool {
        !self.is_alive(origin) && self.next_alive_after(origin) == Some(self.me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_ring_successors_wrap() {
        let r0 = RingView::new(ServerId(0), 3);
        let r2 = RingView::new(ServerId(2), 3);
        assert_eq!(r0.successor(), Some(ServerId(1)));
        assert_eq!(r2.successor(), Some(ServerId(0)));
        assert_eq!(r0.n(), 3);
        assert_eq!(r0.alive_count(), 3);
    }

    #[test]
    fn crashes_splice_the_ring() {
        let mut r = RingView::new(ServerId(0), 4);
        assert_eq!(r.successor(), Some(ServerId(1)));
        assert!(r.mark_crashed(ServerId(1)));
        assert!(!r.mark_crashed(ServerId(1))); // second report is stale
        assert_eq!(r.successor(), Some(ServerId(2)));
        assert_eq!(r.alive_count(), 3);
        r.mark_crashed(ServerId(2));
        r.mark_crashed(ServerId(3));
        assert_eq!(r.successor(), None);
        assert_eq!(r.alive_count(), 1);
    }

    #[test]
    fn rejoin_splices_back_in() {
        let mut r = RingView::new(ServerId(0), 3);
        r.mark_crashed(ServerId(1));
        assert_eq!(r.successor(), Some(ServerId(2)));
        assert!(r.mark_rejoined(ServerId(1)));
        assert!(!r.mark_rejoined(ServerId(1))); // second report is stale
        assert_eq!(r.successor(), Some(ServerId(1)));
        assert_eq!(r.alive_count(), 3);
        // Self and out-of-range rejoins are no-ops.
        assert!(!r.mark_rejoined(ServerId(0)));
        assert!(!r.mark_rejoined(ServerId(9)));
    }

    #[test]
    fn single_server_ring_has_no_successor() {
        let r = RingView::new(ServerId(0), 1);
        assert_eq!(r.successor(), None);
        assert_eq!(r.alive_count(), 1);
    }

    #[test]
    fn next_alive_after_skips_dead_runs() {
        let mut r = RingView::new(ServerId(0), 5);
        r.mark_crashed(ServerId(2));
        r.mark_crashed(ServerId(3));
        assert_eq!(r.next_alive_after(ServerId(1)), Some(ServerId(4)));
        assert_eq!(r.next_alive_after(ServerId(4)), Some(ServerId(0)));
        // Dead server as reference point works too.
        assert_eq!(r.next_alive_after(ServerId(2)), Some(ServerId(4)));
    }

    #[test]
    fn adopter_is_first_alive_successor_of_the_dead() {
        let mut r1 = RingView::new(ServerId(1), 4);
        let mut r2 = RingView::new(ServerId(2), 4);
        r1.mark_crashed(ServerId(0));
        r2.mark_crashed(ServerId(0));
        assert!(r1.is_adopter_of(ServerId(0)));
        assert!(!r2.is_adopter_of(ServerId(0)));
        // If the adopter dies too, the role shifts.
        r2.mark_crashed(ServerId(1));
        assert!(r2.is_adopter_of(ServerId(0)));
        // Alive origins have no adopter.
        let healthy = RingView::new(ServerId(1), 4);
        assert!(!healthy.is_adopter_of(ServerId(0)));
    }

    #[test]
    #[should_panic(expected = "outside ring")]
    fn out_of_range_me_panics() {
        let _ = RingView::new(ServerId(3), 3);
    }

    #[test]
    #[should_panic(expected = "mark itself crashed")]
    fn marking_self_crashed_panics() {
        let mut r = RingView::new(ServerId(0), 3);
        r.mark_crashed(ServerId(0));
    }
}
