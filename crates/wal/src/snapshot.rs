//! State snapshots: the compaction anchor.
//!
//! A snapshot file `snap-<watermark>.snap` captures the full register
//! state at a compaction point: every `(object, tag, value)` the server
//! stored, under **one** CRC frame (a snapshot is valid in full or not
//! at all). The *watermark* is the sequence number of the first segment
//! that may contain records newer than the snapshot; segments below it
//! are deleted after the snapshot is durably on disk.
//!
//! Snapshots are written to a temp file and renamed into place, so a
//! crash mid-snapshot leaves the previous snapshot (and the segments it
//! anchors) untouched.

use std::fs;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hts_types::Value;

use crate::crc::Crc32;
use crate::record::{
    frame_header, parse_frame_header, parse_record_header, record_header, WalRecord, FRAME_HEADER,
    RECORD_FIXED,
};
use crate::segment::IO_BUF;

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HTSSNAP1";

/// The file name of the snapshot anchored at `watermark`.
pub fn snapshot_file_name(watermark: u64) -> String {
    format!("snap-{watermark:08}.snap")
}

/// Parses a snapshot file name back to its watermark.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Lists the snapshots under `dir` in ascending watermark order. A
/// missing directory lists as empty.
///
/// # Errors
///
/// Propagates directory-read failures other than `NotFound`.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut snapshots = Vec::new();
    for entry in entries {
        let entry = entry?;
        if let Some(mark) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            snapshots.push((mark, entry.path()));
        }
    }
    snapshots.sort_unstable_by_key(|(mark, _)| *mark);
    Ok(snapshots)
}

/// Bytes a snapshot's payload holds before its records: watermark and
/// record count.
const PAYLOAD_FIXED: usize = 8 + 4;

/// Durably writes the snapshot anchored at `watermark` under `dir`
/// (temp file + fsync + rename) and returns its path.
///
/// The records stream through a small buffered writer that keeps a
/// running length and CRC, then the frame header is filled in before
/// the fsync: the file is byte-identical to framing the whole payload
/// in memory, without ever holding a second copy of the state.
///
/// # Errors
///
/// Propagates file creation, write, sync and rename failures, and fails
/// with `InvalidInput` when the state does not fit one frame (more than
/// `u32::MAX` records or payload bytes).
pub fn write_snapshot(dir: &Path, watermark: u64, state: &[WalRecord]) -> io::Result<PathBuf> {
    let too_large = |_| io::Error::new(io::ErrorKind::InvalidInput, "snapshot exceeds one frame");
    let count = u32::try_from(state.len()).map_err(too_large)?;
    let target = dir.join(snapshot_file_name(watermark));
    let tmp = dir.join(format!("{}.tmp", snapshot_file_name(watermark)));
    {
        let mut buffered = BufWriter::with_capacity(IO_BUF, fs::File::create(&tmp)?);
        buffered.write_all(SNAPSHOT_MAGIC)?;
        buffered.write_all(&[0; FRAME_HEADER])?; // length + CRC, filled in below
        let mut out = Summed::new(buffered);
        out.write_all(&watermark.to_be_bytes())?;
        out.write_all(&count.to_be_bytes())?;
        for record in state {
            out.write_all(&record_header(record))?;
            out.write_all(record.value.as_bytes())?;
        }
        let len = u32::try_from(out.bytes).map_err(too_large)?;
        let crc = out.crc.finish();
        let mut file = out
            .inner
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        file.seek(SeekFrom::Start(SNAPSHOT_MAGIC.len() as u64))?;
        file.write_all(&frame_header(len, crc))?;
        file.sync_data()?;
    }
    fs::rename(&tmp, &target)?;
    // Persist the rename's directory entry before the caller deletes the
    // segments this snapshot supersedes — otherwise power loss can keep
    // the deletions but forget the snapshot.
    crate::segment::sync_dir(dir)?;
    Ok(target)
}

/// Replays a snapshot's records into `apply` and returns its watermark —
/// or `None`, having applied nothing, when the file is torn, corrupt or
/// not a snapshot (an invalid snapshot is simply ignored by recovery;
/// the segments it would have replaced are still on disk).
///
/// Two streaming passes, so memory stays at one buffered read and one
/// record: the first checks the CRC and the layout without keeping any
/// value, the second decodes and applies the records.
pub fn replay_snapshot(path: &Path, mut apply: impl FnMut(WalRecord)) -> Option<u64> {
    scan_snapshot(path, None).ok()??;
    scan_snapshot(path, Some(&mut apply)).ok()?
}

/// One pass over a snapshot file: `Ok(Some(watermark))` when its CRC and
/// layout check out, having handed every record to `apply` if given.
fn scan_snapshot(
    path: &Path,
    mut apply: Option<&mut dyn FnMut(WalRecord)>,
) -> io::Result<Option<u64>> {
    let file = fs::File::open(path)?;
    let size = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(IO_BUF, file);
    let mut magic = [0u8; SNAPSHOT_MAGIC.len()];
    let mut frame = [0u8; FRAME_HEADER];
    if size < (magic.len() + frame.len()) as u64 {
        return Ok(None);
    }
    reader.read_exact(&mut magic)?;
    reader.read_exact(&mut frame)?;
    let (len, crc) = parse_frame_header(&frame);
    let len = len as u64;
    if &magic != SNAPSHOT_MAGIC
        || size != (magic.len() + frame.len()) as u64 + len
        || len < PAYLOAD_FIXED as u64
    {
        return Ok(None);
    }
    let mut payload = Summed::new(reader.take(len));
    let mut watermark = [0u8; 8];
    let mut count = [0u8; 4];
    payload.read_exact(&mut watermark)?;
    payload.read_exact(&mut count)?;
    let watermark = u64::from_be_bytes(watermark);
    let count = u32::from_be_bytes(count);
    for _ in 0..count {
        let mut header = [0u8; RECORD_FIXED];
        if len - payload.bytes < RECORD_FIXED as u64 {
            return Ok(None);
        }
        payload.read_exact(&mut header)?;
        let (object, tag, value_len) = parse_record_header(&header);
        let value_len = value_len as u64;
        if len - payload.bytes < value_len {
            return Ok(None);
        }
        match apply.as_mut() {
            None => {
                io::copy(&mut (&mut payload).take(value_len), &mut io::sink())?;
            }
            Some(apply) => {
                let mut value = Vec::with_capacity(value_len as usize);
                (&mut payload).take(value_len).read_to_end(&mut value)?;
                apply(WalRecord {
                    object,
                    tag,
                    value: Value::from(value),
                });
            }
        }
    }
    if payload.bytes != len || payload.crc.finish() != crc {
        return Ok(None);
    }
    Ok(Some(watermark))
}

/// A reader or writer that keeps a running CRC and byte count of the
/// data passing through it.
struct Summed<T> {
    inner: T,
    crc: Crc32,
    bytes: u64,
}

impl<T> Summed<T> {
    fn new(inner: T) -> Self {
        Summed {
            inner,
            crc: Crc32::new(),
            bytes: 0,
        }
    }

    fn count(&mut self, data: &[u8]) {
        self.crc.update(data);
        self.bytes += data.len() as u64;
    }
}

impl<R: Read> Read for Summed<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count(&buf[..n]);
        Ok(n)
    }
}

impl<W: Write> Write for Summed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.count(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{put_frame, put_record_payload};
    use hts_types::{ObjectId, ServerId, Tag};
    use rand::{Rng, RngCore, SeedableRng};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hts-wal-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_state() -> Vec<WalRecord> {
        (0..3)
            .map(|i| WalRecord {
                object: ObjectId(i),
                tag: Tag::new(u64::from(i) + 1, ServerId(0)),
                value: Value::from_u64(u64::from(i) * 10),
            })
            .collect()
    }

    fn read_snapshot(path: &Path) -> Option<(u64, Vec<WalRecord>)> {
        let mut records = Vec::new();
        let watermark = replay_snapshot(path, |record| records.push(record))?;
        Some((watermark, records))
    }

    /// The in-memory builder the streamed writer replaced: the whole
    /// payload, then the whole file. The on-disk format is pinned to it.
    fn in_memory_snapshot(watermark: u64, state: &[WalRecord]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&watermark.to_be_bytes());
        payload.extend_from_slice(&(state.len() as u32).to_be_bytes());
        for record in state {
            put_record_payload(&mut payload, record);
        }
        let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + payload.len() + 8);
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        put_frame(&mut bytes, &payload);
        bytes
    }

    #[test]
    fn roundtrip() {
        let dir = tmp_dir("roundtrip");
        let state = sample_state();
        let path = write_snapshot(&dir, 5, &state).unwrap();
        assert_eq!(read_snapshot(&path), Some((5, state)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_file_is_byte_identical_to_the_in_memory_builder() {
        let dir = tmp_dir("oracle");
        let mut rng = rand::rngs::SmallRng::seed_from_u64(29);
        for round in 0..12u64 {
            // Round 0 is the empty state; some values outgrow the
            // writer's buffer and go straight to the file.
            let count = if round == 0 {
                0
            } else {
                rng.gen_range(1..24u32)
            };
            let state: Vec<WalRecord> = (0..count)
                .map(|_| {
                    let len = match rng.gen_range(0..16u32) {
                        0 => rng.gen_range(IO_BUF..2 * IO_BUF),
                        _ => rng.gen_range(0..2048),
                    };
                    WalRecord {
                        object: ObjectId(rng.gen_range(0..u32::MAX)),
                        tag: Tag::new(rng.next_u64(), ServerId(rng.gen_range(0..u16::MAX))),
                        value: Value::filled(rng.gen_range(0..=255u8), len),
                    }
                })
                .collect();
            let watermark = rng.next_u64();
            let path = write_snapshot(&dir, watermark, &state).unwrap();
            assert_eq!(
                fs::read(&path).unwrap(),
                in_memory_snapshot(watermark, &state),
                "round {round}: {count} records"
            );
            assert_eq!(read_snapshot(&path), Some((watermark, state)));
            fs::remove_file(&path).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_reads_as_none() {
        let dir = tmp_dir("corrupt");
        let path = write_snapshot(&dir, 2, &sample_state()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path), None);
        // Truncated mid-body: also None, never a panic.
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(read_snapshot(&path), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_invalid_snapshot_applies_nothing() {
        let dir = tmp_dir("nothing");
        let path = dir.join(snapshot_file_name(4));
        let state = sample_state();
        // The CRC fails only at the end of the payload...
        let mut bytes = in_memory_snapshot(4, &state);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let mut applied = 0;
        assert_eq!(replay_snapshot(&path, |_| applied += 1), None);
        // ...and a frame whose CRC holds can still promise more records
        // than its payload carries.
        let mut payload = Vec::new();
        payload.extend_from_slice(&4u64.to_be_bytes());
        payload.extend_from_slice(&3u32.to_be_bytes());
        for record in &state[..2] {
            put_record_payload(&mut payload, record);
        }
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        put_frame(&mut bytes, &payload);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(replay_snapshot(&path, |_| applied += 1), None);
        assert_eq!(applied, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
