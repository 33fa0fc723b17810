//! The successor-link policy of one ring lane, with no sockets or clocks.
//!
//! The paper's ring assumes a perfect failure detector. The TCP runtime
//! builds one out of its successor links with three rules, kept here so
//! that every runtime runs the same ones:
//!
//! * **connect back-off** — a link's first connect attempt runs at once.
//!   A failed attempt is retried after 1 ms, the pause doubling up to
//!   50 ms, for 2 s; an attempt still in flight after 1 s has failed;
//! * **one staged batch** — a link claims its next batch only once the
//!   last has drained, and only while its peer is the lane's successor:
//!   a parked link finishes its batch and claims nothing more;
//! * **the strike rule** — a link that breaks, or whose back-off runs
//!   out, re-sends its staged batch over one fresh connection, which
//!   tries on the same back-off for 100 ms. A second failure in a row is
//!   a crash verdict; a drain in between clears the strike. One failure
//!   is no verdict: a parked connection may predate its peer's restart.
//!
//! Time is a [`Nanos`] reading of the runtime's clock: the reactor's
//! monotonic clock, or the simulator's virtual one.

use hts_types::{Nanos, RingFrame, ServerId};

use crate::LaneCore;

const MS: u64 = 1_000_000;
/// How long one connect attempt may stay in flight.
const CONNECT_TIMEOUT: Nanos = Nanos(1_000 * MS);
/// The back-off's first pause, doubled per failure up to the longest.
const FIRST_CONNECT_PAUSE: Nanos = Nanos(MS);
const MAX_CONNECT_PAUSE: Nanos = Nanos(50 * MS);
/// How long a new link keeps trying: outlasts a peer that is still
/// booting (or restarting). A peer not listening yet refuses at once, so
/// the link comes up within a millisecond or two of its `listen`.
const CONNECT_BUDGET: Nanos = Nanos(2_000 * MS);
/// How long the strike rule's fresh connection keeps trying: the peer
/// was reachable moments ago, so a short budget keeps the verdict prompt.
const RETRY_BUDGET: Nanos = Nanos(100 * MS);

/// What the runtime does next for a successor link
/// ([`LaneCore::poll_links`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOp {
    /// Start a connect attempt to the peer, and report its outcome with
    /// [`LaneCore::link_up`] or [`LaneCore::link_failed`].
    Connect(ServerId),
    /// The attempt in flight timed out: close its socket. The next
    /// attempt is scheduled.
    Close(ServerId),
    /// The link's failures are a crash verdict: the lane's ring is
    /// spliced past the peer. Close the link's socket, if any.
    Crashed(ServerId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No attempt in flight; the next one starts at the instant held.
    Waiting(Nanos),
    /// An attempt in flight, which times out at the instant held.
    Connecting(Nanos),
    Up,
}

/// One successor link: its phase, staged batch, schedule and strike.
#[derive(Debug)]
pub(crate) struct Link {
    phase: Phase,
    /// The claimed batch, kept until the runtime reports it drained: what
    /// a broken link loses and its fresh connection re-sends.
    staged: Vec<RingFrame>,
    /// When the schedule's attempts stop.
    budget_end: Nanos,
    /// The pause after the next failed attempt.
    pause: Nanos,
    /// The link failed once and runs on its fresh connection.
    struck: bool,
}

impl Link {
    /// A link whose first attempt runs at `now`, and its last `budget`
    /// later.
    fn new(now: Nanos, budget: Nanos) -> Link {
        Link {
            phase: Phase::Waiting(now),
            staged: Vec::new(),
            budget_end: now + budget,
            pause: FIRST_CONNECT_PAUSE,
            struck: false,
        }
    }

    /// After an attempt failed at `now`: waits for the next one, the last
    /// pause clamped so the final attempt starts exactly at the budget's
    /// end. `false` once that end has passed.
    fn back_off(&mut self, now: Nanos) -> bool {
        if now >= self.budget_end {
            return false;
        }
        self.phase = Phase::Waiting((now + self.pause).min(self.budget_end));
        self.pause = Nanos(self.pause.0 * 2).min(MAX_CONNECT_PAUSE);
        true
    }

    /// When the link's next op falls due.
    fn timer(&self) -> Option<Nanos> {
        match self.phase {
            Phase::Waiting(at) | Phase::Connecting(at) => Some(at),
            Phase::Up => None,
        }
    }
}

impl LaneCore {
    /// The next op due at `now` on any of the lane's links, or `None`.
    /// The runtime calls it until it returns `None`, and again by
    /// [`next_link_timer`](Self::next_link_timer). A successor without a
    /// link gets one here.
    pub fn poll_links(&mut self, now: Nanos) -> Option<LinkOp> {
        if let Some(next) = self.successor() {
            let new = || Link::new(now, CONNECT_BUDGET);
            self.links.entry(next).or_insert_with(new);
        }
        let (&peer, link) = self
            .links
            .iter_mut()
            .find(|(_, link)| link.timer().is_some_and(|at| at <= now))?;
        if let Phase::Waiting(_) = link.phase {
            link.phase = Phase::Connecting(now + CONNECT_TIMEOUT);
            return Some(LinkOp::Connect(peer));
        }
        // The attempt in flight timed out.
        Some(if self.link_failed(peer, now) {
            LinkOp::Crashed(peer)
        } else {
            LinkOp::Close(peer)
        })
    }

    /// The connect attempt to `peer` completed. Returns the batch the
    /// link lost, for the runtime to send behind its handshake: empty
    /// unless this is the strike rule's fresh connection.
    pub fn link_up(&mut self, peer: ServerId) -> &[RingFrame] {
        let Some(link) = self.links.get_mut(&peer) else {
            return &[];
        };
        link.phase = Phase::Up;
        &link.staged
    }

    /// The link to `peer` failed at `now`: a connect attempt was refused,
    /// or the connection broke. A failed attempt backs off to the next;
    /// a broken link, or a spent schedule, falls under the strike rule.
    /// Returns whether this failure is the crash verdict, which splices
    /// the lane's ring past `peer` and forgets its link.
    pub fn link_failed(&mut self, peer: ServerId, now: Nanos) -> bool {
        let Some(link) = self.links.get_mut(&peer) else {
            return false;
        };
        let phase = link.phase;
        match phase {
            // No attempt in flight: a stale report.
            Phase::Waiting(_) => return false,
            Phase::Connecting(_) if link.back_off(now) => return false,
            Phase::Connecting(_) | Phase::Up => {}
        }
        if !link.struck {
            // The first strike: one fresh connection, tried at once.
            let staged = std::mem::take(&mut link.staged);
            *link = Link {
                staged,
                struck: true,
                ..Link::new(now, RETRY_BUDGET)
            };
            return false;
        }
        self.on_peer_crashed(peer);
        true
    }

    /// Everything written to `peer`'s link reached its socket: the link
    /// is proven healthy, its strike clears and it may claim again.
    /// Returns the drained batch.
    pub fn link_drained(&mut self, peer: ServerId) -> Vec<RingFrame> {
        let Some(link) = self.links.get_mut(&peer) else {
            return Vec::new();
        };
        link.struck = false;
        std::mem::take(&mut link.staged)
    }

    /// Stages the next batch on `peer`'s link and returns it, for the
    /// runtime to write. Empty unless the link is up, its last batch has
    /// drained and `peer` is the lane's successor: a parked link never
    /// claims.
    pub fn claim(&mut self, peer: ServerId) -> &[RingFrame] {
        let idle = |link: &Link| link.phase == Phase::Up && link.staged.is_empty();
        if self.successor() != Some(peer) || !self.links.get(&peer).is_some_and(idle) {
            return &[];
        }
        let batch = self.next_batch();
        let Some(link) = self.links.get_mut(&peer) else {
            return &[];
        };
        link.staged = batch;
        &link.staged
    }

    /// When the next link op falls due, for the runtime's timer.
    pub fn next_link_timer(&self) -> Option<Nanos> {
        self.links.values().filter_map(Link::timer).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use hts_types::{ClientId, Message, ObjectId, Rejoin, RequestId, Value};

    fn ms(n: u64) -> Nanos {
        Nanos::from_millis(n)
    }

    /// Server 0 of a 3-ring, with a write queued for its successor.
    fn lane_with_work() -> LaneCore {
        let mut lane = LaneCore::new(ServerId(0), 3, 0, Config::default());
        let write = Message::WriteReq {
            object: ObjectId(1),
            request: RequestId(1),
            value: Value::from_u64(7),
        };
        lane.on_client(ClientId(1), write);
        lane
    }

    /// The start times of every connect attempt `lane` makes to `peer`
    /// from `t0`, when each fails the instant it starts, up to (not
    /// including) the attempt whose failure is not a plain back-off.
    fn refused_attempts(lane: &mut LaneCore, peer: ServerId, t0: Nanos) -> Vec<Nanos> {
        let mut starts = Vec::new();
        let mut now = t0;
        loop {
            assert_eq!(lane.poll_links(now), Some(LinkOp::Connect(peer)));
            starts.push(now - t0);
            let verdict = lane.link_failed(peer, now);
            match lane.next_link_timer() {
                Some(at) if !verdict && at > now => now = at,
                _ => return starts,
            }
        }
    }

    #[test]
    fn back_off_doubles_to_the_cap_then_the_retry_runs_100_ms() {
        let mut lane = lane_with_work();
        let peer = ServerId(1);
        let starts = refused_attempts(&mut lane, peer, Nanos::ZERO);
        let pauses: Vec<Nanos> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(
            pauses[..7],
            [ms(1), ms(2), ms(4), ms(8), ms(16), ms(32), ms(50)]
        );
        // Capped at 50 ms, except the last pause, clamped so the final
        // attempt starts exactly at the 2 s budget's end.
        let (last, capped) = pauses[6..].split_last().expect("many pauses");
        assert!(capped.iter().all(|&p| p == MAX_CONNECT_PAUSE));
        assert!(*last > Nanos::ZERO && *last <= MAX_CONNECT_PAUSE);
        assert_eq!(starts.last(), Some(&ms(2_000)));

        // The spent schedule is the first strike: one fresh connection,
        // its first attempt at once, then the same back-off for 100 ms.
        let retry = refused_attempts(&mut lane, peer, ms(2_000));
        assert_eq!(retry, [0, 1, 3, 7, 15, 31, 63, 100].map(ms));
        // Its last failure was the second in a row: the verdict spliced
        // the ring past the peer and forgot its link.
        assert_eq!(lane.successor(), Some(ServerId(2)));
        assert_eq!(
            lane.poll_links(ms(2_100)),
            Some(LinkOp::Connect(ServerId(2)))
        );
    }

    #[test]
    fn an_attempt_in_flight_times_out_after_a_second() {
        let mut lane = lane_with_work();
        let peer = ServerId(1);
        assert_eq!(lane.poll_links(Nanos::ZERO), Some(LinkOp::Connect(peer)));
        assert_eq!(lane.poll_links(ms(999)), None);
        assert_eq!(lane.next_link_timer(), Some(ms(1_000)));
        assert_eq!(lane.poll_links(ms(1_000)), Some(LinkOp::Close(peer)));
        assert_eq!(lane.poll_links(ms(1_001)), Some(LinkOp::Connect(peer)));
        // An attempt that hangs past the budget's end is the first
        // strike; on the fresh connection, a second one is the verdict.
        assert_eq!(lane.poll_links(ms(2_001)), Some(LinkOp::Close(peer)));
        assert_eq!(lane.poll_links(ms(2_001)), Some(LinkOp::Connect(peer)));
        assert_eq!(lane.poll_links(ms(3_001)), Some(LinkOp::Crashed(peer)));
        assert_eq!(lane.successor(), Some(ServerId(2)));
    }

    #[test]
    fn a_second_failure_in_a_row_is_a_verdict_and_a_drain_clears_the_strike() {
        let mut lane = lane_with_work();
        let peer = ServerId(1);
        let now = Nanos::ZERO;
        assert_eq!(lane.poll_links(now), Some(LinkOp::Connect(peer)));
        assert!(
            lane.link_up(peer).is_empty(),
            "a first connection lost nothing"
        );
        let batch = lane.claim(peer).to_vec();
        assert_eq!(batch.len(), 1, "the write's pre-write");

        // The link breaks: the fresh connection re-sends the staged batch.
        assert!(!lane.link_failed(peer, now));
        assert_eq!(lane.poll_links(now), Some(LinkOp::Connect(peer)));
        assert_eq!(lane.link_up(peer), &batch[..]);
        // It drained: proven healthy, the strike clears.
        assert_eq!(lane.link_drained(peer), batch);
        assert!(!lane.link_failed(peer, now), "a cleared strike retries");
        assert_eq!(lane.poll_links(now), Some(LinkOp::Connect(peer)));
        lane.link_up(peer);
        // Second failure in a row: the verdict splices the ring.
        assert!(lane.link_failed(peer, now));
        assert_eq!(lane.successor(), Some(ServerId(2)));
        // The verdict forgot the link: a later one to the rejoined peer
        // starts afresh, with its second chance again.
        assert!(!lane.link_failed(peer, now), "no link, no verdict");
    }

    #[test]
    fn a_link_holds_one_staged_batch_and_a_parked_link_never_claims() {
        let mut lane = lane_with_work();
        let peer = ServerId(1);
        assert!(lane.claim(peer).is_empty(), "no link yet");
        assert_eq!(lane.poll_links(Nanos::ZERO), Some(LinkOp::Connect(peer)));
        assert!(lane.claim(peer).is_empty(), "still connecting");
        lane.link_up(peer);
        assert_eq!(lane.claim(peer).len(), 1);
        // More work arrives; the staged batch has not drained.
        let write = Message::WriteReq {
            object: ObjectId(2),
            request: RequestId(2),
            value: Value::from_u64(8),
        };
        lane.on_client(ClientId(1), write);
        assert!(lane.claim(peer).is_empty(), "one staged batch at a time");
        assert_eq!(lane.link_drained(peer).len(), 1);

        // Peer 1 crashes: its link is forgotten, and the lane links up
        // with server 2, whose first batch stays staged.
        lane.on_peer_crashed(peer);
        assert_eq!(
            lane.poll_links(Nanos::ZERO),
            Some(LinkOp::Connect(ServerId(2)))
        );
        lane.link_up(ServerId(2));
        assert!(!lane.claim(ServerId(2)).is_empty());
        // Peer 1 rejoins: it is the successor again, and the link to
        // server 2 is parked. It drains its staged batch and claims no
        // more, though the rejoin gave the lane work to send.
        let rejoin = RingFrame::announce_rejoin(Rejoin::announce(peer));
        lane.on_frame(rejoin);
        assert_eq!(lane.successor(), Some(peer));
        assert!(!lane.link_drained(ServerId(2)).is_empty());
        assert!(
            lane.claim(ServerId(2)).is_empty(),
            "a parked link never claims"
        );
        assert_eq!(lane.poll_links(Nanos::ZERO), Some(LinkOp::Connect(peer)));
        lane.link_up(peer);
        assert!(!lane.claim(peer).is_empty(), "the successor does");
    }
}
