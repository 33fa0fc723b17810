//! The recovery reader: every segment, in sequence order → register
//! state.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use hts_types::{ObjectId, Tag, Value};

use crate::record::WalRecord;
use crate::segment::{list_segments, replay_segment};

/// Everything recovery reconstructed from a log directory.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The highest-tag committed value per object.
    pub state: BTreeMap<ObjectId, (Tag, Value)>,
    /// Log records replayed, a compacted segment's included.
    pub records_replayed: u64,
    /// `true` when some segment ended in a torn or corrupt frame
    /// (replay stopped cleanly at the last valid record).
    pub torn_tail: bool,
    /// `true` when the directory held any log artifacts at all — the
    /// marker distinguishing a *restart* (rejoin the ring, resync) from
    /// a first boot.
    pub had_log: bool,
}

impl Recovery {
    fn apply(&mut self, record: WalRecord) {
        match self.state.get_mut(&record.object) {
            Some((tag, value)) if *tag < record.tag => {
                *tag = record.tag;
                *value = record.value;
            }
            Some(_) => {} // stale replay: tags order all writes
            None => {
                self.state.insert(record.object, (record.tag, record.value));
            }
        }
    }
}

/// Rebuilds register state from a log directory: replays every segment
/// in sequence order, keeping the highest tag per object (replay is
/// idempotent because tags totally order writes, so a compacted
/// segment overlapping the segments it replaces is harmless). Stops
/// cleanly at the first bad CRC of each segment and goes on with the
/// next. Files stream through a bounded buffer, record by record, so
/// recovery holds the state it rebuilds and not the log it reads.
///
/// A missing directory recovers to the empty state with
/// [`Recovery::had_log`] `false`.
///
/// # Errors
///
/// Propagates I/O failures; corruption is never an error.
pub fn recover(dir: impl AsRef<Path>) -> io::Result<Recovery> {
    let mut recovery = Recovery::default();
    for (_, path) in list_segments(dir.as_ref())? {
        recovery.had_log = true;
        let torn = replay_segment(&path, |record| {
            recovery.records_replayed += 1;
            recovery.apply(record);
        })?;
        recovery.torn_tail |= torn;
    }
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Wal, WalOptions};
    use hts_types::ServerId;
    use std::fs;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hts-wal-rec-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(object: u32, ts: u64, v: u64) -> WalRecord {
        WalRecord {
            object: ObjectId(object),
            tag: Tag::new(ts, ServerId(1)),
            value: Value::from_u64(v),
        }
    }

    #[test]
    fn missing_dir_is_a_first_boot() {
        let recovery = recover("/nonexistent/hts-wal-recovery").unwrap();
        assert!(!recovery.had_log);
        assert!(recovery.state.is_empty());
    }

    #[test]
    fn torn_tail_stops_at_last_valid_record() {
        let dir = tmp_dir("torn");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&rec(1, 1, 10)).unwrap();
        wal.append(&rec(1, 2, 20)).unwrap();
        drop(wal);
        // Tear the tail: chop bytes off the only segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let recovery = recover(&dir).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.records_replayed, 1);
        assert_eq!(
            recovery.state.get(&ObjectId(1)).unwrap().1,
            Value::from_u64(10)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_after_valid_records_is_ignored() {
        let dir = tmp_dir("garbage");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&rec(1, 1, 10)).unwrap();
        drop(wal);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00, 0x00, 0x00, 0x01])
            .unwrap();
        drop(file);
        let recovery = recover(&dir).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.records_replayed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_compacted_segment_stops_only_that_segment() {
        let dir = tmp_dir("compactflip");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&rec(1, 1, 10)).unwrap();
        wal.append(&rec(2, 1, 10)).unwrap();
        // The compacted segment holds objects 1, 2 and 3, in that order.
        wal.compact(&[rec(1, 1, 10), rec(2, 2, 20), rec(3, 1, 30)])
            .unwrap();
        let compacted = wal.active_segment() - 1;
        wal.append(&rec(3, 2, 40)).unwrap();
        wal.append(&rec(4, 1, 50)).unwrap();
        drop(wal);
        // Flip one byte of object 2's value: replay of the compacted
        // segment stops there...
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2, "compaction deleted the old segments");
        let (seq, path) = &segments[0];
        assert_eq!(*seq, compacted);
        let mut bytes = fs::read(path).unwrap();
        let mut first = Vec::new();
        crate::record::encode_record(&mut first, &rec(1, 1, 10));
        let flip = crate::segment::SEGMENT_MAGIC.len() + first.len() + first.len() - 1;
        bytes[flip] ^= 0x01;
        fs::write(path, &bytes).unwrap();
        let recovery = recover(&dir).unwrap();
        assert!(recovery.torn_tail);
        // ...while its first record and every later segment still apply.
        // Object 2's older records went with the deleted segments.
        assert_eq!(recovery.records_replayed, 3);
        let value = |o| recovery.state.get(&ObjectId(o)).map(|(_, v)| v.clone());
        assert_eq!(value(1), Some(Value::from_u64(10)));
        assert_eq!(value(2), None);
        assert_eq!(value(3), Some(Value::from_u64(40)));
        assert_eq!(value(4), Some(Value::from_u64(50)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_records_never_overwrite_newer_tags() {
        let mut recovery = Recovery::default();
        recovery.apply(rec(1, 5, 50));
        recovery.apply(rec(1, 3, 30));
        assert_eq!(
            recovery.state.get(&ObjectId(1)).unwrap().1,
            Value::from_u64(50)
        );
    }
}
