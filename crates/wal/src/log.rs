//! The append side: [`Wal`], fsync policy, rotation and compaction.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::record::{encode_record, WalRecord};
use crate::segment::{list_segments, segment_path, sync_dir, SEGMENT_MAGIC};
use crate::snapshot::{list_snapshots, write_snapshot};

/// When appended records reach the disk.
///
/// The policy trades write latency for the amount of acknowledged data
/// a power failure can lose; see EXPERIMENTS.md for the measured
/// throughput overhead of each setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged write is on stable
    /// storage before the client hears about it.
    #[default]
    Always,
    /// `fsync` once per `n` appends: bounds the loss window to `n − 1`
    /// acknowledged writes.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS page cache flushes on its own
    /// schedule. Survives process crashes (the data is in kernel
    /// buffers) but not power loss.
    OsDefault,
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Size at which the active segment asks for compaction
    /// ([`Wal::wants_compaction`]).
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Cumulative log counters (inspected by benchmarks and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Explicit fsyncs issued.
    pub fsyncs: u64,
    /// Segments created (including the one opened at boot).
    pub segments_created: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Multi-record [`Wal::append_batch`] calls (group commits): batches
    /// whose records shared one buffer fill and at most one fsync.
    pub group_commits: u64,
}

/// A segmented append-only log of committed writes.
///
/// Opening a `Wal` always starts a **fresh** segment (sequence one past
/// anything on disk): old segments are never reopened for writing, so a
/// torn tail can only live in the segment that was active at the crash,
/// and [`recover`](crate::recover::recover) stops cleanly there.
///
/// # Examples
///
/// ```no_run
/// use hts_types::{ObjectId, ServerId, Tag, Value};
/// use hts_wal::{recover, Wal, WalOptions, WalRecord};
///
/// let mut wal = Wal::open("/tmp/server-0-wal", WalOptions::default())?;
/// wal.append(&WalRecord {
///     object: ObjectId(0),
///     tag: Tag::new(1, ServerId(0)),
///     value: Value::from_u64(42),
/// })?;
///
/// // After a crash: rebuild the register state.
/// let recovery = recover("/tmp/server-0-wal")?;
/// assert_eq!(recovery.state.len(), 1);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    active: fs::File,
    active_seq: u64,
    active_bytes: u64,
    appends_since_sync: u32,
    stats: WalStats,
    scratch: Vec<u8>,
}

impl Wal {
    /// Opens (creating if needed) the log directory and starts a fresh
    /// active segment.
    ///
    /// # Errors
    ///
    /// Propagates directory creation, scan and file creation failures.
    pub fn open(dir: impl Into<PathBuf>, options: WalOptions) -> io::Result<Wal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // Sweep temp files orphaned by a crash mid-compaction (the
        // snapshot rename never happened; recovery ignores them, but
        // each one leaks a full-state snapshot of disk space).
        for entry in fs::read_dir(&dir)?.flatten() {
            if entry
                .file_name()
                .to_str()
                .is_some_and(|name| name.ends_with(".tmp"))
            {
                let _ = fs::remove_file(entry.path());
            }
        }
        let last_seq = list_segments(&dir)?
            .last()
            .map(|(seq, _)| *seq)
            .unwrap_or(0)
            .max(list_snapshots(&dir)?.last().map(|(m, _)| *m).unwrap_or(0));
        let seq = last_seq + 1;
        let mut active = fs::File::create(segment_path(&dir, seq))?;
        active.write_all(SEGMENT_MAGIC)?;
        sync_dir(&dir)?;
        Ok(Wal {
            dir,
            options,
            active,
            active_seq: seq,
            active_bytes: SEGMENT_MAGIC.len() as u64,
            appends_since_sync: 0,
            stats: WalStats {
                segments_created: 1,
                ..WalStats::default()
            },
            scratch: Vec::new(),
        })
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number of the active segment.
    pub fn active_segment(&self) -> u64 {
        self.active_seq
    }

    /// Cumulative counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    fn start_segment(&mut self, seq: u64) -> io::Result<()> {
        let mut file = fs::File::create(segment_path(&self.dir, seq))?;
        file.write_all(SEGMENT_MAGIC)?;
        // Persist the directory entry: a synced data file whose creation
        // the directory forgot is unrecoverable after power loss.
        sync_dir(&self.dir)?;
        self.active = file;
        self.active_seq = seq;
        self.active_bytes = SEGMENT_MAGIC.len() as u64;
        self.appends_since_sync = 0;
        self.stats.segments_created += 1;
        Ok(())
    }

    /// Appends one committed write and applies the fsync policy.
    ///
    /// # Errors
    ///
    /// Propagates write and sync failures; an error leaves the record
    /// possibly half-written, which recovery treats as a torn tail.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// **Group commit**: appends a whole batch of committed writes with
    /// one buffer fill, one `write_all`, and the fsync policy applied
    /// **once** for the batch — under [`FsyncPolicy::Always`] a single
    /// fsync makes every record in the batch durable, so the runtime can
    /// still ack-after-fsync while paying the flush per batch instead of
    /// per commit. Under [`FsyncPolicy::EveryN`] the batch counts as
    /// `records.len()` appends. An empty batch is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates write and sync failures; an error leaves the tail
    /// possibly torn, which recovery truncates cleanly.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let t0 = hts_metrics::now_nanos();
        self.scratch.clear();
        for record in records {
            encode_record(&mut self.scratch, record);
        }
        self.active.write_all(&self.scratch)?;
        self.active_bytes += self.scratch.len() as u64;
        self.stats.appends += records.len() as u64;
        if records.len() > 1 {
            self.stats.group_commits += 1;
        }
        self.appends_since_sync += records.len() as u32;
        match self.options.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.appends_since_sync >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::OsDefault => {}
        }
        // The whole group commit, fsync (per policy) included: what one
        // event-loop iteration's durability actually cost.
        hts_metrics::histogram!("hts_wal_append_nanos").record(hts_metrics::now_nanos() - t0);
        hts_metrics::histogram!("hts_wal_group_commit_records").record(records.len() as u64);
        Ok(())
    }

    /// Forces appended records to stable storage regardless of policy.
    ///
    /// # Errors
    ///
    /// Propagates the `fsync` failure.
    pub fn sync(&mut self) -> io::Result<()> {
        let t0 = hts_metrics::now_nanos();
        self.active.sync_data()?;
        hts_metrics::histogram!("hts_wal_fsync_nanos").record(hts_metrics::now_nanos() - t0);
        self.stats.fsyncs += 1;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Whether the active segment has outgrown
    /// [`WalOptions::segment_bytes`] and the owner should call
    /// [`compact`](Wal::compact) with its current state.
    pub fn wants_compaction(&self) -> bool {
        self.active_bytes >= self.options.segment_bytes
    }

    /// Compacts the log: seals the active segment, durably snapshots
    /// `state`, starts a fresh segment and deletes every segment and
    /// snapshot the new snapshot supersedes.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the log is still recoverable
    /// (the snapshot rename is atomic and segments are only deleted
    /// after it lands).
    pub fn compact(&mut self, state: &[WalRecord]) -> io::Result<()> {
        self.sync()?;
        let watermark = self.active_seq + 1;
        write_snapshot(&self.dir, watermark, state)?;
        self.start_segment(watermark)?;
        self.stats.compactions += 1;
        for (seq, path) in list_segments(&self.dir)? {
            if seq < watermark {
                let _ = fs::remove_file(path);
            }
        }
        for (mark, path) in list_snapshots(&self.dir)? {
            if mark < watermark {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover;
    use hts_types::{ObjectId, ServerId, Tag, Value};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hts-wal-log-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(object: u32, ts: u64, v: u64) -> WalRecord {
        WalRecord {
            object: ObjectId(object),
            tag: Tag::new(ts, ServerId(0)),
            value: Value::from_u64(v),
        }
    }

    #[test]
    fn append_then_recover() {
        let dir = tmp_dir("append");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&rec(1, 1, 10)).unwrap();
        wal.append(&rec(1, 2, 20)).unwrap();
        wal.append(&rec(2, 1, 30)).unwrap();
        drop(wal);
        let recovery = recover(&dir).unwrap();
        assert!(recovery.had_log);
        assert_eq!(recovery.records_replayed, 3);
        assert_eq!(
            recovery.state.get(&ObjectId(1)).unwrap().1,
            Value::from_u64(20)
        );
        assert_eq!(
            recovery.state.get(&ObjectId(2)).unwrap().1,
            Value::from_u64(30)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_starts_fresh_segment_and_keeps_history() {
        let dir = tmp_dir("reopen");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(&rec(1, 1, 10)).unwrap();
        assert_eq!(wal.active_segment(), 1);
        drop(wal);
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.active_segment(), 2);
        wal.append(&rec(1, 2, 20)).unwrap();
        drop(wal);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.records_replayed, 2);
        assert_eq!(
            recovery.state.get(&ObjectId(1)).unwrap(),
            &(Tag::new(2, ServerId(0)), Value::from_u64(20))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_prunes_segments_but_preserves_state() {
        let dir = tmp_dir("compact");
        let options = WalOptions {
            fsync: FsyncPolicy::OsDefault,
            segment_bytes: 256,
        };
        let mut wal = Wal::open(&dir, options).unwrap();
        for ts in 1..=50 {
            wal.append(&rec(1, ts, ts)).unwrap();
            if wal.wants_compaction() {
                // The owner would export its real state here.
                wal.compact(&[rec(1, ts, ts)]).unwrap();
            }
        }
        assert!(wal.stats().compactions > 0);
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        assert!(
            segments.len() <= 2,
            "compaction left {} segments",
            segments.len()
        );
        let recovery = recover(&dir).unwrap();
        assert_eq!(
            recovery.state.get(&ObjectId(1)).unwrap(),
            &(Tag::new(50, ServerId(0)), Value::from_u64(50))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_is_one_fsync_per_batch() {
        let dir = tmp_dir("group");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let batch: Vec<WalRecord> = (1..=10).map(|ts| rec(1, ts, ts)).collect();
        wal.append_batch(&batch).unwrap();
        // SyncAlways semantics, group-commit cost: every record durable,
        // ONE fsync for the whole batch.
        assert_eq!(wal.stats().appends, 10);
        assert_eq!(wal.stats().fsyncs, 1);
        assert_eq!(wal.stats().group_commits, 1);
        // Empty batches are free.
        wal.append_batch(&[]).unwrap();
        assert_eq!(wal.stats().fsyncs, 1);
        drop(wal);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.records_replayed, 10);
        assert_eq!(
            recovery.state.get(&ObjectId(1)).unwrap().1,
            Value::from_u64(10)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_counts_against_every_n() {
        let dir = tmp_dir("group-everyn");
        let options = WalOptions {
            fsync: FsyncPolicy::EveryN(8),
            ..WalOptions::default()
        };
        let mut wal = Wal::open(&dir, options).unwrap();
        let batch: Vec<WalRecord> = (1..=5).map(|ts| rec(1, ts, ts)).collect();
        wal.append_batch(&batch).unwrap(); // 5 < 8: no fsync yet
        assert_eq!(wal.stats().fsyncs, 0);
        wal.append_batch(&batch).unwrap(); // 10 >= 8: one fsync
        assert_eq!(wal.stats().fsyncs, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_policy_batches_fsyncs() {
        let dir = tmp_dir("everyn");
        let options = WalOptions {
            fsync: FsyncPolicy::EveryN(8),
            ..WalOptions::default()
        };
        let mut wal = Wal::open(&dir, options).unwrap();
        for ts in 1..=16 {
            wal.append(&rec(1, ts, ts)).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
