//! The recovery reader: snapshot + log tail → register state.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use hts_types::{ObjectId, Tag, Value};

use crate::record::WalRecord;
use crate::segment::{list_segments, replay_segment};
use crate::snapshot::{list_snapshots, replay_snapshot};

/// Everything recovery reconstructed from a log directory.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The highest-tag committed value per object.
    pub state: BTreeMap<ObjectId, (Tag, Value)>,
    /// Log records replayed (after the snapshot, if any).
    pub records_replayed: u64,
    /// Valid snapshots folded in.
    pub snapshots_loaded: u32,
    /// `true` when some segment ended in a torn or corrupt frame
    /// (replay stopped cleanly at the last valid record).
    pub torn_tail: bool,
    /// `true` when the directory held any log artifacts at all — the
    /// marker distinguishing a *restart* (rejoin the ring, resync) from
    /// a first boot.
    pub had_log: bool,
}

impl Recovery {
    /// The recovered state as a flat record list (snapshot input shape).
    pub fn to_records(&self) -> Vec<WalRecord> {
        self.state
            .iter()
            .map(|(object, (tag, value))| WalRecord {
                object: *object,
                tag: *tag,
                value: value.clone(),
            })
            .collect()
    }

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

/// Rebuilds register state from a log directory: folds every valid
/// snapshot, then replays every segment in sequence order, keeping the
/// highest tag per object (replay is idempotent because tags totally
/// order writes, so overlapping snapshots and segments are harmless).
/// Stops cleanly at the first bad CRC of each segment. Files stream
/// through a bounded buffer, record by record, so recovery holds the
/// state it rebuilds and not the log it reads.
///
/// A missing directory recovers to the empty state with
/// [`Recovery::had_log`] `false`.
///
/// # Errors
///
/// Propagates I/O failures; corruption is never an error.
pub fn recover(dir: impl AsRef<Path>) -> io::Result<Recovery> {
    let dir = dir.as_ref();
    let mut recovery = Recovery::default();
    for (_, path) in list_snapshots(dir)? {
        recovery.had_log = true;
        if replay_snapshot(&path, |record| recovery.apply(record)).is_some() {
            recovery.snapshots_loaded += 1;
        }
    }
    for (_, path) in list_segments(dir)? {
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
    fn corrupt_snapshot_falls_back_to_segments() {
        let dir = tmp_dir("snapfall");
        let options = WalOptions {
            segment_bytes: 1, // force compaction opportunities immediately
            ..WalOptions::default()
        };
        let mut wal = Wal::open(&dir, options).unwrap();
        wal.append(&rec(1, 1, 10)).unwrap();
        wal.compact(&[rec(1, 1, 10)]).unwrap();
        wal.append(&rec(1, 2, 20)).unwrap();
        drop(wal);
        // Corrupt the snapshot: state must still come from segments...
        let (_, snap) = list_snapshots(&dir).unwrap().pop().unwrap();
        fs::write(&snap, b"HTSSNAP1 not a snapshot").unwrap();
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.snapshots_loaded, 0);
        assert!(recovery.had_log);
        // ...which still hold the post-compaction append.
        assert_eq!(
            recovery.state.get(&ObjectId(1)).unwrap().1,
            Value::from_u64(20)
        );
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
