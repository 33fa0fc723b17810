//! Property tests for the histogram bucketing and the flight recorder.
//!
//! The histogram invariants: bucket bounds are strictly monotone and
//! cover `u64`; merging two snapshots equals one histogram fed the
//! concatenated stream; and every quantile answer lands in the same
//! bucket as the exact order statistic of a sorted reference (i.e. the
//! log-bucketing error bound really holds). The flight recorder: under
//! wraparound and concurrent writers, every event a snapshot returns is
//! one that was actually recorded, intact.

use hts_metrics::flight;
use hts_metrics::{bucket_bound, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
use proptest::prelude::*;

fn feed(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn bounds_are_monotone_and_values_land_in_their_bucket(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        prop_assert!(v <= bucket_bound(i));
        if i > 0 {
            prop_assert!(v > bucket_bound(i - 1));
            prop_assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
    }

    #[test]
    fn merge_equals_concat(
        xs in prop::collection::vec(any::<u64>(), 0..200),
        ys in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut merged = feed(&xs);
        merged.merge(&feed(&ys));
        let concat: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert_eq!(merged, feed(&concat));
    }

    #[test]
    fn since_inverts_merge(
        xs in prop::collection::vec(any::<u64>(), 0..100),
        ys in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let h = Histogram::new();
        for &v in &xs {
            h.record(v);
        }
        let before = h.snapshot();
        for &v in &ys {
            h.record(v);
        }
        prop_assert_eq!(h.snapshot().since(&before), feed(&ys));
    }

    #[test]
    fn quantiles_match_the_exact_reference_bucket(
        values in prop::collection::vec(any::<u64>(), 1..300),
        q_permille in 0u64..=1000,
    ) {
        let q = q_permille as f64 / 1000.0;
        let snap = feed(&values);
        let mut values = values.clone();
        values.sort_unstable();
        // The histogram's rank rule: order statistic ceil(q·n), 1-based.
        let n = values.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let exact = values[(rank - 1) as usize];
        let answered = snap.quantile(q).expect("non-empty");
        prop_assert_eq!(
            bucket_index(answered),
            bucket_index(exact),
            "quantile {} answered {} but exact is {}",
            q,
            answered,
            exact
        );
        // And the answer is the bound of that bucket: exact <= answer.
        prop_assert!(answered >= exact);
    }

    #[test]
    fn snapshot_count_and_sum_track_the_stream(
        values in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let snap = feed(&values);
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.sum(), values.iter().sum::<u64>());
    }
}

/// Concurrent writers hammering the (global, shared) ring through
/// wraparound: every event a snapshot returns must be internally
/// consistent — its payload checksum matches — proving readers never see
/// a torn or frankensteined slot. Uses a payload relation (c = a XOR b
/// XOR a fixed tag) as the witness.
#[test]
fn flight_recorder_survives_wraparound_and_concurrent_writers() {
    const WRITERS: u64 = 8;
    const EVENTS_PER_WRITER: u64 = 2 * flight::SLOTS as u64; // several full laps combined
    const TAG: u64 = 0xF11E_7EC0;
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..EVENTS_PER_WRITER {
                    flight::record(flight::KIND_OP_BEGIN, w, i, w ^ i ^ TAG);
                }
            })
        })
        .collect();
    // Snapshot concurrently with the writers: mid-flight snapshots must
    // already be consistent, not just the final one.
    for _ in 0..20 {
        for e in flight::snapshot() {
            if e.kind == flight::KIND_OP_BEGIN && (e.a ^ e.b ^ TAG) == e.c {
                continue; // one of ours, intact
            }
            // Other tests in this process may share the ring; only our
            // tagged events are checkable. An event claiming our shape
            // but failing the relation would be a torn read.
            assert!(
                e.c & 0xFFFF_FFFF != TAG & 0xFFFF_FFFF || (e.a ^ e.b ^ TAG) == e.c,
                "torn flight event surfaced: {e:?}"
            );
        }
    }
    for t in threads {
        t.join().expect("writer thread");
    }
    let final_events = flight::snapshot();
    assert!(
        final_events.len() >= flight::SLOTS / 2,
        "after {} recordings the ring should be mostly full, got {}",
        WRITERS * EVENTS_PER_WRITER,
        final_events.len()
    );
    for e in &final_events {
        if e.a < WRITERS && e.kind == flight::KIND_OP_BEGIN {
            assert_eq!(e.c, e.a ^ e.b ^ TAG, "inconsistent event {e:?}");
        }
    }
    // Sequence numbers stay strictly increasing across wraparounds.
    for pair in final_events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}
