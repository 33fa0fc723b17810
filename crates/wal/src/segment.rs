//! Segment files: naming, listing, streaming replay.
//!
//! A segment is `wal-<seq>.seg`: an 8-byte magic followed by CRC-framed
//! records (see [`crate::record`]). Segments are strictly append-only
//! and never reopened for writing — a restarting server always starts a
//! fresh segment, and compaction writes its segment whole under a
//! temporary name before renaming it into place — so a torn tail can
//! only exist in the segment that was active when the process died.

use std::fs;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

use crate::record::{decode_record, frame_len, WalRecord, FRAME_HEADER};

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"HTSWAL01";

/// Fsyncs the directory itself, making file creations, renames and
/// deletions under it durable. Data-file fsyncs alone do not persist
/// the *directory entry*; without this, a power failure can forget that
/// a fully-synced segment ever existed.
///
/// # Errors
///
/// Propagates the open/sync failure.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// The file name of segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:08}.seg")
}

/// The path of segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(segment_file_name(seq))
}

/// Parses a segment file name back to its sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Lists the segments under `dir` in ascending sequence order. A missing
/// directory lists as empty.
///
/// # Errors
///
/// Propagates directory-read failures other than `NotFound`.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut segments = Vec::new();
    for entry in entries {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Buffer size of the streaming replay reader and the compaction writer:
/// the most either holds besides the state and the one record in hand.
pub(crate) const IO_BUF: usize = 64 * 1024;

/// Replays every valid record of one segment into `apply`, in append
/// order, frame by frame: memory stays at one buffered read and one
/// record, whatever the segment's size. Stops cleanly at the first torn
/// or corrupt frame and returns `true` (`false` when the segment ended
/// on a frame boundary).
///
/// A file too short for its magic, or carrying the wrong magic, applies
/// zero records and counts as torn (it is a half-created segment, not an
/// error).
///
/// # Errors
///
/// Propagates I/O failures reading the file; corruption is *not* an
/// error.
pub fn replay_segment(path: &Path, mut apply: impl FnMut(WalRecord)) -> io::Result<bool> {
    let file = fs::File::open(path)?;
    let mut left = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(IO_BUF, file);
    let mut magic = [0u8; SEGMENT_MAGIC.len()];
    if left < magic.len() as u64 {
        return Ok(left > 0);
    }
    reader.read_exact(&mut magic)?;
    if &magic != SEGMENT_MAGIC {
        return Ok(true);
    }
    left -= magic.len() as u64;
    let mut frame = Vec::new();
    while left > 0 {
        match next_record(&mut reader, &mut left, &mut frame)? {
            Some(record) => apply(record),
            None => return Ok(true),
        }
    }
    Ok(false)
}

/// Reads the next framed record, of the `left` bytes still in the file,
/// through the reusable `frame` buffer; `None` when the frame is torn,
/// fails its CRC or does not hold exactly one record.
fn next_record(
    reader: &mut impl Read,
    left: &mut u64,
    frame: &mut Vec<u8>,
) -> io::Result<Option<WalRecord>> {
    let mut header = [0u8; FRAME_HEADER];
    if *left < header.len() as u64 {
        return Ok(None);
    }
    reader.read_exact(&mut header)?;
    let len = frame_len(&header) as u64;
    *left -= header.len() as u64;
    if len > *left {
        return Ok(None);
    }
    *left -= len;
    frame.clear();
    frame.extend_from_slice(&header);
    reader.take(len).read_to_end(frame)?;
    Ok(decode_record(&mut &frame[..]).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_and_sort() {
        assert_eq!(segment_file_name(3), "wal-00000003.seg");
        assert_eq!(parse_segment_name("wal-00000003.seg"), Some(3));
        assert_eq!(parse_segment_name("wal-x.seg"), None);
        // A compaction's unrenamed temp file is not a segment.
        assert_eq!(parse_segment_name("wal-00000003.seg.tmp"), None);
        // Zero-padding keeps lexicographic = numeric order up to 10^8.
        assert!(segment_file_name(9) < segment_file_name(10));
    }

    #[test]
    fn missing_dir_lists_empty() {
        let segments = list_segments(Path::new("/nonexistent/hts-wal-test")).unwrap();
        assert!(segments.is_empty());
    }
}
