//! Compaction streams the state to disk: it never holds a second copy
//! of it. Its own test binary, because the live-heap counter is
//! process-wide.

mod common;

use hts_types::{ObjectId, ServerId, Tag, Value};
use hts_wal::segment::list_segments;
use hts_wal::{Wal, WalOptions, WalRecord};

#[test]
fn writing_a_snapshot_grows_the_peak_by_its_buffer_only() {
    let dir = common::tmp_dir("snapshot-memory");
    // 8 MiB of state: 2048 registers of 4 KiB.
    let state: Vec<WalRecord> = (0..2048u32)
        .map(|i| WalRecord {
            object: ObjectId(i),
            tag: Tag::new(u64::from(i) + 1, ServerId(0)),
            value: Value::filled(i as u8, 4096),
        })
        .collect();
    let mut wal = Wal::open(&dir, WalOptions::default()).expect("open");

    let (grown, ()) = common::peak_growth_kib(|| wal.compact(&state).expect("compact"));
    eprintln!("compacting 8 MiB of state: peak live heap +{grown} KiB");
    let segments = list_segments(&dir).expect("list");
    let (_, compacted) = segments.first().expect("the compacted segment");
    assert!(std::fs::metadata(compacted).expect("segment file").len() > 8 << 20);
    assert!(
        grown < 1 << 10,
        "compacting 8 MiB of state grew the peak live heap by {grown} KiB"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
