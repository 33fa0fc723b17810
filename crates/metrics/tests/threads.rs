//! The metrics primitives under real threads: concurrent counter adds
//! lose nothing, a histogram snapshot taken while recorders run is a
//! consistent prefix of the final one, and a flight snapshot taken while
//! writers run holds only intact, consecutive events.
//!
//! This binary is the only user of the global flight ring in its
//! process, so the flight test may check the ring's exact contents.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use hts_metrics::flight::{self, FlightEvent};
use hts_metrics::{Counter, Histogram};

#[test]
fn concurrent_counter_adds_are_never_lost() {
    let c = Arc::new(Counter::new());
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                for _ in 0..10_000 {
                    c.add(3);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("adder thread");
    }
    assert_eq!(c.get(), 120_000);
}

#[test]
fn histogram_snapshot_mid_recording_is_a_prefix_of_the_total() {
    const PER_THREAD: u64 = 20_000;
    let h = Arc::new(Histogram::new());
    let recorders: Vec<_> = [3u64, 300]
        .into_iter()
        .map(|v| {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    h.record(v);
                }
            })
        })
        .collect();
    let mid = h.snapshot();
    for t in recorders {
        t.join().expect("recorder thread");
    }
    let done = h.snapshot();
    assert!(mid.count() <= done.count(), "phantom recordings");
    assert_eq!(done.count(), 2 * PER_THREAD, "a recording was lost");
    assert_eq!(done.sum(), 303 * PER_THREAD);
    // The window since `mid`, merged with `mid`, rebuilds the total.
    let mut merged = done.since(&mid);
    merged.merge(&mid);
    assert_eq!(merged, done);
}

/// Writers record `c = a ^ b ^ TAG`; checks that relation, that the
/// snapshot is one run of consecutive sequence numbers, and that each
/// writer's events appear in the order it recorded them.
fn assert_intact(events: &[FlightEvent], writers: u64, tag: u64) {
    for e in events {
        assert_eq!(e.kind, flight::KIND_OP_BEGIN, "kind corrupted: {e:?}");
        assert!(e.a < writers, "unknown writer: {e:?}");
        assert_eq!(e.c, e.a ^ e.b ^ tag, "torn event: {e:?}");
    }
    for pair in events.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "a gap in the ring");
    }
    for w in 0..writers {
        let order: Vec<u64> = events.iter().filter(|e| e.a == w).map(|e| e.b).collect();
        assert!(
            order.windows(2).all(|p| p[0] < p[1]),
            "writer {w} reordered"
        );
    }
}

#[test]
fn flight_snapshots_taken_while_writers_run_hold_only_intact_events() {
    const WRITERS: u64 = 4;
    const TAG: u64 = 0x5EED_F11E;
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    flight::record(flight::KIND_OP_BEGIN, w, i, w ^ i ^ TAG);
                    i += 1;
                }
                i
            })
        })
        .collect();
    // Keep snapshotting until the ring has wrapped at least twice, so
    // some snapshots race writers that are overwriting the oldest slots.
    let mut snapshots = 0;
    loop {
        let events = flight::snapshot();
        assert_intact(&events, WRITERS, TAG);
        snapshots += 1;
        let wrapped_twice = events
            .first()
            .is_some_and(|e| e.seq >= 2 * flight::SLOTS as u64);
        if snapshots >= 20 && wrapped_twice {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let recorded: u64 = writers
        .into_iter()
        .map(|t| t.join().expect("writer thread"))
        .sum();
    let events = flight::snapshot();
    assert_intact(&events, WRITERS, TAG);
    assert_eq!(events.len(), flight::SLOTS, "a wrapped ring is full");
    assert_eq!(
        events.last().map(|e| e.seq + 1),
        Some(recorded),
        "the newest event is the last one recorded"
    );
}
