//! Models of the **real** hts primitives, running on the shims via the
//! `model-check` features of `hts-core` and `hts-metrics` (see the
//! `mc-models.toml` manifest at the workspace root — the L7 lint checks
//! every protocol-crate atomic lives in a module modeled here or is
//! explicitly exempted).
//!
//! What exhaustive exploration proves, per model:
//!
//! * [`ReadCell`] — the seqlock invariant: `try_read` never returns a
//!   torn `(tag, value)` pair (the shim's `UnsafeCell` access windows
//!   catch any read overlapping the writer's slot update as a data
//!   race), the BLOCKED bit always forces `None`, and the WRITING bit
//!   keeps readers out of the write window.
//! * [`ReadCellRegistry`] — the snapshot-published index: a wait-free
//!   `try_read` racing a register creation sees the old or new map,
//!   never a torn pointer, and a lookup through either snapshot reaches
//!   the same live cell.
//! * [`FlightRing`] — concurrent `record`s never lose an event within
//!   capacity, and a concurrent `snapshot` never observes a torn slot
//!   (every event's payload passes the consistency checks).
//! * [`Histogram`] / [`Counter`] — concurrent recording loses nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hts_core::{ReadCell, ReadCellRegistry};
use hts_mc::{check, explore, spawn, Mode, Options};
use hts_metrics::flight::{FlightRing, KIND_OP_BEGIN};
use hts_metrics::{Counter, Histogram};
use hts_types::{ObjectId, ServerId, Tag, Value};

// ---------------------------------------------------------------------
// ReadCell: the published-snapshot seqlock from crates/core/snapshot.rs.
// ---------------------------------------------------------------------

/// One publish racing one optimistic read: the reader sees `None` (cell
/// fresh ⇒ BLOCKED, or mid-write) or the exactly-published pair — never
/// a torn one. The shim turns any slot access overlapping the writer's
/// into a reported data race, so the seqlock protocol itself is what is
/// being verified, not just the value equality.
fn readcell_publish_vs_read(publishes: u64, readers: usize) {
    let cell = Arc::new(ReadCell::new());
    let writer = {
        let cell = Arc::clone(&cell);
        spawn(move || {
            for ts in 1..=publishes {
                cell.publish(Tag::new(ts, ServerId(0)), &Value::from_u64(ts), false);
            }
        })
    };
    let reader_hs: Vec<_> = (0..readers)
        .map(|_| {
            let cell = Arc::clone(&cell);
            spawn(move || {
                if let Some((tag, value)) = cell.try_read() {
                    assert_eq!(
                        value.as_u64(),
                        Some(tag.ts),
                        "torn read: tag {tag} with mismatched value"
                    );
                    assert!(tag.ts >= 1 && tag.ts <= publishes, "impossible tag");
                }
            })
        })
        .collect();
    for h in reader_hs {
        h.join();
    }
    writer.join();
    // Quiescent: the final publish must now be readable.
    let (tag, value) = cell.try_read().expect("unblocked published cell reads");
    assert_eq!(tag.ts, publishes);
    assert_eq!(value.as_u64(), Some(publishes));
}

#[test]
fn readcell_one_publish_one_reader_exhaustive() {
    let report = check(Mode::Exhaustive, Options::named("readcell-1w1r"), || {
        readcell_publish_vs_read(1, 1)
    });
    assert!(report.schedules > 1, "explored: {report:?}");
}

#[test]
fn readcell_two_publishes_one_reader_exhaustive() {
    check(Mode::Exhaustive, Options::named("readcell-2w1r"), || {
        readcell_publish_vs_read(2, 1)
    });
}

#[test]
fn readcell_multi_reader_random() {
    check(
        Mode::Random {
            seed: 0x5EA_10C4,
            iters: 400,
        },
        Options::named("readcell-multi"),
        || readcell_publish_vs_read(3, 2),
    );
}

#[test]
fn readcell_blocked_bit_forces_none_exhaustive() {
    // A blocked publish must never satisfy a reader, under any schedule:
    // the fast read path bails and the event loop serves the read.
    check(Mode::Exhaustive, Options::named("readcell-blocked"), || {
        let cell = Arc::new(ReadCell::new());
        let c2 = Arc::clone(&cell);
        let writer = spawn(move || {
            c2.publish(Tag::new(1, ServerId(0)), &Value::from_u64(1), true);
        });
        assert!(
            cell.try_read().is_none(),
            "read satisfied from a BLOCKED cell"
        );
        writer.join();
    });
}

#[test]
fn readcell_set_blocked_vs_read_exhaustive() {
    // Toggling BLOCKED on a published cell races a reader: the reader
    // gets the published pair or None, and afterwards reads stay None.
    check(
        Mode::Exhaustive,
        Options::named("readcell-setblocked"),
        || {
            let cell = Arc::new(ReadCell::new());
            cell.publish(Tag::new(1, ServerId(0)), &Value::from_u64(1), false);
            let c2 = Arc::clone(&cell);
            let blocker = spawn(move || c2.set_blocked(true));
            if let Some((tag, value)) = cell.try_read() {
                assert_eq!(value.as_u64(), Some(tag.ts), "torn read under set_blocked");
            }
            blocker.join();
            assert!(cell.try_read().is_none(), "BLOCKED bit lost");
        },
    );
}

// ---------------------------------------------------------------------
// ReadCellRegistry: the snapshot-published index from snapshot.rs.
// ---------------------------------------------------------------------

#[test]
fn registry_lookup_vs_insert_exhaustive() {
    // The writer registers object 2 (clone-insert-swap of the published
    // snapshot) while a reader looks up the pre-existing object 1 and
    // the in-flight object 2. Either snapshot generation is fine; a
    // torn pointer, a lost pre-existing entry, or a phantom hit on an
    // unregistered object are not.
    let report = check(Mode::Exhaustive, Options::named("registry-ins"), || {
        let reg = Arc::new(ReadCellRegistry::new());
        reg.cell(ObjectId(1))
            .publish(Tag::new(1, ServerId(0)), &Value::from_u64(1), false);
        let r2 = Arc::clone(&reg);
        let writer = spawn(move || {
            r2.cell(ObjectId(2))
                .publish(Tag::new(2, ServerId(0)), &Value::from_u64(2), false);
        });
        // Object 1 predates the race: visible through every snapshot.
        let (tag, value) = reg.try_read(ObjectId(1)).expect("old entry lost");
        assert_eq!((tag.ts, value.as_u64()), (1, Some(1)));
        // Object 2 is being registered: None (old snapshot or still
        // blocked) or the published pair — nothing else.
        if let Some((tag, value)) = reg.try_read(ObjectId(2)) {
            assert_eq!((tag.ts, value.as_u64()), (2, Some(2)), "torn lookup");
        }
        writer.join();
        let (tag, _) = reg.try_read(ObjectId(2)).expect("new entry published");
        assert_eq!(tag.ts, 2);
    });
    assert!(report.schedules > 1, "explored: {report:?}");
}

#[test]
fn registry_same_cell_across_snapshots_exhaustive() {
    // A publish through a cell handle obtained before a concurrent
    // snapshot swap must land in the cell the new snapshot serves:
    // snapshots share cells by Arc, they don't copy them.
    check(Mode::Exhaustive, Options::named("registry-alias"), || {
        let reg = Arc::new(ReadCellRegistry::new());
        let cell = reg.cell(ObjectId(1));
        let r2 = Arc::clone(&reg);
        let swapper = spawn(move || {
            r2.cell(ObjectId(2)); // forces a snapshot swap
        });
        cell.publish(Tag::new(9, ServerId(0)), &Value::from_u64(9), false);
        swapper.join();
        let (tag, _) = reg
            .try_read(ObjectId(1))
            .expect("publish visible through the swapped snapshot");
        assert_eq!(tag.ts, 9, "snapshot swap cloned the cell");
    });
}

// ---------------------------------------------------------------------
// FlightRing: the per-op recorder from crates/metrics/flight.rs.
// ---------------------------------------------------------------------

/// Events record `a == b` so any torn slot that slipped past the seq +
/// checksum validation is detectable in the payload itself.
fn assert_coherent<const N: usize>(ring: &FlightRing<N>) -> usize {
    let events = ring.snapshot();
    for e in &events {
        assert_eq!(e.a, e.b, "torn flight slot escaped validation: {e:?}");
        assert_eq!(e.kind, KIND_OP_BEGIN, "kind byte corrupted");
    }
    events.len()
}

#[test]
fn flight_ring_two_writers_exhaustive() {
    // Two concurrent writers into a 2-slot ring: both events must be
    // readable after the dust settles, with intact payloads.
    let report = check(Mode::Exhaustive, Options::named("flight-2w"), || {
        let ring: Arc<FlightRing<2>> = Arc::new(FlightRing::new());
        let hs: Vec<_> = (1..=2u64)
            .map(|i| {
                let ring = Arc::clone(&ring);
                spawn(move || ring.record(KIND_OP_BEGIN, i, i, 0))
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(assert_coherent(&*ring), 2, "an event was lost");
    });
    assert!(report.schedules > 1, "explored: {report:?}");
}

#[test]
fn flight_ring_wrap_vs_snapshot_random() {
    // A writer lapping the 2-slot ring while the main thread snapshots:
    // the snapshot may skip in-progress slots but must never return a
    // torn event. Exercises the wraparound checksum path.
    check(
        Mode::Random {
            seed: 0xF1_16_47,
            iters: 300,
        },
        Options::named("flight-wrap"),
        || {
            let ring: Arc<FlightRing<2>> = Arc::new(FlightRing::new());
            let r2 = Arc::clone(&ring);
            let writer = spawn(move || {
                for i in 1..=3u64 {
                    r2.record(KIND_OP_BEGIN, i, i, 0);
                }
            });
            assert_coherent(&*ring); // concurrent with the writer
            writer.join();
            let n = assert_coherent(&*ring);
            assert!(n >= 1, "quiescent 2-slot ring readable after 3 records");
        },
    );
}

/// Satellite wiring: a failing model dumps its flight ring's per-op
/// event trace alongside the seed, via `Options::failure_hook`. The ring
/// outlives the executions (diagnostics, not model state), so this runs
/// under `Mode::Random` — replay determinism is the seed's job, the dump
/// is the post-mortem's.
#[test]
fn failing_model_dumps_flight_ring() {
    let ring: Arc<FlightRing<8>> = Arc::new(FlightRing::new());
    let dumped = Arc::new(AtomicBool::new(false));
    let hook_ring = Arc::clone(&ring);
    let hook_dumped = Arc::clone(&dumped);
    let opts = Options {
        failure_hook: Some(Arc::new(move |failure| {
            hook_ring.dump_to_stderr(&format!("model '{}' failed", failure.model));
            hook_dumped.store(true, Ordering::SeqCst);
        })),
        ..Options::named("flight-dump-on-failure")
    };
    let model_ring = Arc::clone(&ring);
    let failure = explore(
        Mode::Random {
            seed: 0xDEAD_10AD,
            iters: 200,
        },
        opts,
        move || {
            // The op-begin event precedes the bug, so the post-mortem
            // dump always shows what led up to the failure.
            model_ring.record(KIND_OP_BEGIN, 7, 7, 0);
            let flag = Arc::new(hts_mc::shim::McAtomicU64::new(0));
            let f2 = Arc::clone(&flag);
            let t = spawn(move || {
                f2.store(1, Ordering::SeqCst);
            });
            // BUG under some schedules: asserts the store already landed.
            assert_eq!(flag.load(Ordering::SeqCst), 1, "raced ahead of the store");
            t.join();
        },
    )
    .expect_err("the racy assert must fail under some schedule");
    assert!(failure.seed.is_some(), "random failure reports its seed");
    assert!(dumped.load(Ordering::SeqCst), "failure hook did not run");
    assert!(
        !ring.snapshot().is_empty(),
        "the dumped ring held the recorded events"
    );
}

// ---------------------------------------------------------------------
// Histogram / Counter: crates/metrics/hist.rs and lib.rs.
// ---------------------------------------------------------------------

#[test]
fn counter_concurrent_incs_exhaustive() {
    check(Mode::Exhaustive, Options::named("counter-incs"), || {
        let c = Arc::new(Counter::new());
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                spawn(move || c.add(3))
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(c.get(), 6, "an add was lost");
    });
}

#[test]
fn histogram_record_snapshot_merge_random() {
    // Two recorders + a concurrent snapshot: recording loses nothing,
    // and merging per-thread-window snapshots equals the total.
    check(
        Mode::Random {
            seed: 0x4157_061A,
            iters: 100,
        },
        Options {
            // A snapshot loads all 256 buckets: deeper schedules than
            // the other models.
            max_steps: 50_000,
            ..Options::named("hist-record")
        },
        || {
            let h = Arc::new(Histogram::new());
            let hs: Vec<_> = [3u64, 300]
                .iter()
                .map(|&v| {
                    let h = Arc::clone(&h);
                    spawn(move || h.record(v))
                })
                .collect();
            let mid = h.snapshot(); // concurrent with the recorders
            assert!(mid.count() <= 2, "phantom recordings");
            for t in hs {
                t.join();
            }
            let done = h.snapshot();
            assert_eq!(done.count(), 2, "a recording was lost");
            assert_eq!(done.sum(), 303);
            // The window since `mid` plus `mid` merges back to the total.
            let mut merged = done.since(&mid);
            merged.merge(&mid);
            assert_eq!(merged.count(), done.count(), "since/merge disagree");
        },
    );
}
