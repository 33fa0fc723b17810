//! Recovery holds the state it rebuilds, not the log it reads. Its own
//! test binary, because the live-heap counter is process-wide.

mod common;

use hts_types::{ObjectId, ServerId, Tag, Value};
use hts_wal::{recover, Wal, WalOptions, WalRecord};

#[test]
fn recovering_a_full_segment_grows_the_peak_by_the_state_only() {
    let dir = common::tmp_dir("recover-memory");
    // One full 8 MiB segment of 1 KiB overwrites of 64 registers, in
    // group commits of 64 (each append pays one fsync).
    let mut wal = Wal::open(&dir, WalOptions::default()).expect("open");
    let value = Value::filled(0xA5, 1024);
    let mut ts = 0;
    while !wal.wants_compaction() {
        let batch: Vec<WalRecord> = (ts + 1..=ts + 64)
            .map(|ts| WalRecord {
                object: ObjectId((ts % 64) as u32),
                tag: Tag::new(ts, ServerId(0)),
                value: value.clone(),
            })
            .collect();
        wal.append_batch(&batch).expect("append");
        ts += 64;
    }
    drop(wal);

    let (grown, recovery) = common::peak_growth_kib(|| recover(&dir).expect("recover"));
    eprintln!("recovering {ts} records: peak live heap +{grown} KiB");
    assert_eq!(recovery.records_replayed, ts);
    assert_eq!(recovery.state.len(), 64);
    assert!(recovery.state.values().all(|(_, v)| *v == value));
    assert!(
        grown < 2 << 10,
        "recovering {ts} records grew the peak live heap by {grown} KiB"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
