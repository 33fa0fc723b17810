//! A snapshot streams to disk: compaction never holds a second copy of
//! the state. Its own test binary, because `VmHWM` is per process.

mod common;

use hts_types::{ObjectId, ServerId, Tag, Value};
use hts_wal::snapshot::write_snapshot;
use hts_wal::WalRecord;

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

    let (grown, path) =
        common::peak_growth_kib(|| write_snapshot(&dir, 1, &state).expect("snapshot"));
    assert!(std::fs::metadata(path).expect("snapshot file").len() > 8 << 20);
    assert!(
        grown < 1 << 10,
        "snapshotting 8 MiB of state grew the peak resident set by {grown} KiB"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
