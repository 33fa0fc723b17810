//! The per-op flight recorder: a fixed-size ring of structured trace
//! events behind one mutex.
//!
//! Recording locks, writes one slot and unlocks; the ring wraps, keeping
//! the most recent [`SLOTS`] events. When a linearizability check fails
//! or a server reaches a crash verdict, [`dump_to_stderr`] prints the
//! recent event tail so the failure is diagnosable after the fact. The
//! dump copies the ring out first and prints with the lock released.
//!
//! An uncontended record costs tens of nanoseconds, most of it the clock
//! read (EXPERIMENTS.md, "What recording costs"), against tens of
//! microseconds of server CPU per op, and a snapshot never sees a torn
//! event.
//!
//! Events are three `u64`s of caller payload with a kind tag; each
//! `KIND_*` code documents what its recording sites put in `a`, `b` and
//! `c`.

use std::sync::{MutexGuard, PoisonError};

/// Ring capacity: the recorder keeps the most recent this-many events.
pub const SLOTS: usize = 4096;

/// A server framed the pre-write of a write it originates
/// (`a` = client request id, 0 for none; `b` = tag timestamp;
/// `c` = tag origin server).
pub const KIND_OP_BEGIN: u8 = 1;
/// A write's pre-write phase completed at its origin server; the payload
/// is the same as [`KIND_OP_BEGIN`]'s.
pub const KIND_OP_PHASE: u8 = 2;
/// A client session re-sent an op after a timeout or a server-down
/// report (`a` = request id, `b` = server it left, `c` = server it
/// retries at).
pub const KIND_OP_RETRY: u8 = 3;
/// A write was acknowledged at its origin server; the payload is the
/// same as [`KIND_OP_BEGIN`]'s.
pub const KIND_OP_COMPLETE: u8 = 4;
/// A server reached a crash verdict on a peer (`a` = suspect server,
/// `b` = reporting server, `c` = lane).
pub const KIND_CRASH_VERDICT: u8 = 5;
/// A client session's routing transition (`a` = server, `b` = 1 up /
/// 0 down, `c` = session id).
pub const KIND_ALIVE_TRANSITION: u8 = 6;

/// Human-readable name of a kind code (for dumps).
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_OP_BEGIN => "op_begin",
        KIND_OP_PHASE => "op_phase",
        KIND_OP_RETRY => "op_retry",
        KIND_OP_COMPLETE => "op_complete",
        KIND_CRASH_VERDICT => "crash_verdict",
        KIND_ALIVE_TRANSITION => "alive_transition",
        _ => "unknown",
    }
}

/// One recovered trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global recording order (later events have larger sequence
    /// numbers, including across wraparounds).
    pub seq: u64,
    /// [`crate::now_nanos`] at recording time.
    pub at_nanos: u64,
    /// Event kind — one of the `KIND_*` codes.
    pub kind: u8,
    /// First payload word (see the event's `KIND_*` code).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

/// Bits of a slot's first word that hold the timestamp; the kind tag
/// sits in the top byte (monotonic nanos fit 56 bits for ~2 years of
/// process uptime).
const AT_MASK: u64 = (1 << 56) - 1;

/// An event ring of `N` slots. Slot `seq % N` holds event `seq` as
/// `[at_nanos | kind << 56, a, b, c]`, so a slot costs 32 bytes and the
/// sequence number is implied by `recorded`.
struct Ring<const N: usize> {
    /// Events recorded so far, which is also the next event's `seq`.
    recorded: u64,
    slots: [[u64; 4]; N],
}

impl<const N: usize> Ring<N> {
    const fn new() -> Ring<N> {
        Ring {
            recorded: 0,
            slots: [[0; 4]; N],
        }
    }

    fn push(&mut self, at_nanos: u64, kind: u8, a: u64, b: u64, c: u64) {
        let slot = (self.recorded % N as u64) as usize;
        self.slots[slot] = [(at_nanos & AT_MASK) | (u64::from(kind) << 56), a, b, c];
        self.recorded += 1;
    }

    fn events(&self) -> Vec<FlightEvent> {
        let oldest = self.recorded.saturating_sub(N as u64);
        (oldest..self.recorded)
            .map(|seq| {
                let [at_kind, a, b, c] = self.slots[(seq % N as u64) as usize];
                FlightEvent {
                    seq,
                    at_nanos: at_kind & AT_MASK,
                    kind: (at_kind >> 56) as u8,
                    a,
                    b,
                    c,
                }
            })
            .collect()
    }
}

#[expect(clippy::disallowed_types, reason = "one ring behind one lock")]
static RING: std::sync::Mutex<Ring<SLOTS>> = std::sync::Mutex::new(Ring::new());

/// The global ring, locked. A poisoned lock only means a panic elsewhere
/// while it was held; a slot is written in one assignment, so the ring is
/// still coherent, and recording must never panic the data path.
fn ring() -> MutexGuard<'static, Ring<SLOTS>> {
    RING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records one event into the global ring (allocation-free). The clock is read before the lock is
/// taken, so the lock covers only the slot write.
#[inline]
pub fn record(kind: u8, a: u64, b: u64, c: u64) {
    let at_nanos = crate::now_nanos();
    ring().push(at_nanos, kind, a, b, c);
}

/// The recorded tail, oldest first: at most [`SLOTS`] events, each one
/// as it was recorded, copied out under the lock.
pub fn snapshot() -> Vec<FlightEvent> {
    ring().events()
}

/// Dumps the recorded tail to stderr with a reason header — called on
/// lincheck failures and crash verdicts so a failing run leaves its
/// recent per-op trace behind. Silent when the recorder is empty
/// (nothing instrumented ran).
pub fn dump_to_stderr(reason: &str) {
    let events = snapshot();
    if events.is_empty() {
        return;
    }
    eprintln!(
        "=== flight recorder: {} event(s), reason: {reason} ===",
        events.len()
    );
    for e in &events {
        eprintln!(
            "  [{:>12} ns] #{:<8} {:<16} a={} b={} c={}",
            e.at_nanos,
            e.seq,
            kind_name(e.kind),
            e.a,
            e.b,
            e.c
        );
    }
    eprintln!("=== end flight recorder dump ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order_with_payload() {
        record(KIND_OP_BEGIN, 1, 100, 7);
        record(KIND_OP_COMPLETE, 1, 100, 7);
        let events = snapshot();
        assert!(events.len() >= 2);
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
        // Our two events are in the tail (other tests share the ring).
        let begin = events
            .iter()
            .find(|e| e.kind == KIND_OP_BEGIN && e.b == 100)
            .expect("begin event recorded");
        assert_eq!((begin.a, begin.c), (1, 7));
    }

    #[test]
    fn tiny_ring_wraps_keeping_the_tail() {
        let mut ring: Ring<2> = Ring::new();
        for i in 0..5u64 {
            ring.push(i, KIND_OP_BEGIN, i, 0, 0);
        }
        let events = ring.events();
        assert_eq!(events.len(), 2, "a 2-slot ring holds 2 events");
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![3, 4],
            "the ring keeps the most recent events"
        );
    }

    #[test]
    fn kind_names_cover_all_codes() {
        for kind in 1..=6u8 {
            assert_ne!(kind_name(kind), "unknown");
        }
        assert_eq!(kind_name(0), "unknown");
    }
}
