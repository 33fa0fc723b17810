//! The append side: [`Wal`], fsync, rotation and compaction.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::record::{encode_record, WalRecord};
use crate::segment::{list_segments, segment_path, sync_dir, IO_BUF, SEGMENT_MAGIC};

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Size at which the active segment asks for compaction
    /// ([`Wal::wants_compaction`]).
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Cumulative log counters (inspected by benchmarks and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Fsyncs of the active segment: one per non-empty append.
    pub fsyncs: u64,
    /// Active segments started (including the one opened at boot).
    pub segments_created: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Multi-record [`Wal::append_batch`] calls (group commits): batches
    /// whose records shared one buffer fill and one fsync.
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
        // rename never happened; recovery ignores them, but each one
        // leaks a full copy of the state in disk space).
        for entry in fs::read_dir(&dir)?.flatten() {
            if entry
                .file_name()
                .to_str()
                .is_some_and(|name| name.ends_with(".tmp"))
            {
                let _ = fs::remove_file(entry.path());
            }
        }
        let last_seq = list_segments(&dir)?.last().map_or(0, |(seq, _)| *seq);
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
        self.stats.segments_created += 1;
        Ok(())
    }

    /// Appends one committed write and fsyncs it.
    ///
    /// # Errors
    ///
    /// Propagates write and sync failures; an error leaves the record
    /// possibly half-written, which recovery treats as a torn tail.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// **Group commit**: appends a whole batch of committed writes with
    /// one buffer fill, one `write_all` and **one** fsync, which makes
    /// every record in the batch durable before this returns — so the
    /// runtime still acks after the fsync while paying the flush per
    /// batch instead of per commit. An empty batch is a no-op.
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
        let t_sync = hts_metrics::now_nanos();
        self.active.sync_data()?;
        let t1 = hts_metrics::now_nanos();
        self.stats.fsyncs += 1;
        hts_metrics::histogram!("hts_wal_fsync_nanos").record(t1 - t_sync);
        // The whole group commit, fsync included: what one event-loop
        // iteration's durability actually cost.
        hts_metrics::histogram!("hts_wal_append_nanos").record(t1 - t0);
        hts_metrics::histogram!("hts_wal_group_commit_records").record(records.len() as u64);
        Ok(())
    }

    /// Whether the active segment has outgrown
    /// [`WalOptions::segment_bytes`] and the owner should call
    /// [`compact`](Wal::compact) with its current state.
    pub fn wants_compaction(&self) -> bool {
        self.active_bytes >= self.options.segment_bytes
    }

    /// Compacts the log: writes `state` as the ordinary segment `s` one
    /// past the active one, starts a fresh active segment `s + 1` and
    /// deletes every segment below `s`.
    ///
    /// The records stream through a 64 KiB buffer into a temp file,
    /// which is fsynced and renamed into place, and the rename is made
    /// durable before anything is deleted. Segments overlap harmlessly
    /// (recovery keeps the highest tag per object), so a crash at any
    /// point recovers the same state.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the log is still recoverable
    /// (the rename is atomic and segments are only deleted after it
    /// lands). If the fresh segment cannot be started, appends go on
    /// into the old active segment.
    pub fn compact(&mut self, state: &[WalRecord]) -> io::Result<()> {
        // No leading sync: each append is synced before it returns; a failed one stops the lane.
        let seq = self.active_seq + 1;
        let target = segment_path(&self.dir, seq);
        let tmp = target.with_extension("seg.tmp");
        let mut out = BufWriter::with_capacity(IO_BUF, fs::File::create(&tmp)?);
        out.write_all(SEGMENT_MAGIC)?;
        for record in state {
            self.scratch.clear();
            encode_record(&mut self.scratch, record);
            out.write_all(&self.scratch)?;
        }
        out.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_data()?;
        fs::rename(&tmp, &target)?;
        // Persist the rename before the deletions: otherwise power loss
        // can keep the deletions but forget the compacted segment.
        sync_dir(&self.dir)?;
        self.start_segment(seq + 1)?;
        self.stats.compactions += 1;
        for (old, path) in list_segments(&self.dir)? {
            if old < seq {
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
        let options = WalOptions { segment_bytes: 256 };
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
        // Empty batches are free; a single append pays its own fsync.
        wal.append_batch(&[]).unwrap();
        assert_eq!(wal.stats().fsyncs, 1);
        wal.append(&rec(1, 11, 11)).unwrap();
        assert_eq!(wal.stats().fsyncs, 2);
        assert_eq!(wal.stats().group_commits, 1);
        drop(wal);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.records_replayed, 11);
        assert_eq!(
            recovery.state.get(&ObjectId(1)).unwrap().1,
            Value::from_u64(11)
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
