//! The CRC-framed record codec.
//!
//! Every entry in a segment is one **frame**: a 4-byte big-endian
//! payload length, a 4-byte CRC-32 of the payload, then the payload
//! itself. A reader that hits a short frame or a CRC mismatch knows the
//! tail was torn by a crash and stops *cleanly* — torn tails are an
//! expected outcome, never an error or a panic.
//!
//! A committed-write payload is `object (u32) · tag.ts (u64) ·
//! tag.origin (u16) · value length (u32) · value bytes`, all big-endian
//! — the same field encodings as the wire codec in `hts-types`, so a
//! hexdump of a segment reads like a hexdump of ring traffic.

use hts_types::{ObjectId, ServerId, Tag, Value};

/// One committed write as persisted in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The register object written.
    pub object: ObjectId,
    /// The committing tag (its origin identifies the coordinator).
    pub tag: Tag,
    /// The committed value.
    pub value: Value,
}

/// Why decoding stopped. Every variant means "stop replaying here"; they
/// are distinguished only for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended inside a frame (torn tail).
    Truncated,
    /// The payload did not match its CRC (torn or corrupted tail).
    BadCrc,
    /// The payload decoded to nonsense (e.g. an inner length overrunning
    /// the frame).
    Malformed,
}

/// Frame header: payload length + CRC.
pub const FRAME_HEADER: usize = 8;

/// Bytes of a record payload before its value: object + ts + origin +
/// value length.
const RECORD_FIXED: usize = 4 + 8 + 2 + 4;

/// The payload length a frame header declares.
pub(crate) fn frame_len(header: &[u8; FRAME_HEADER]) -> usize {
    let [l0, l1, l2, l3, ..] = *header;
    u32::from_be_bytes([l0, l1, l2, l3]) as usize
}

/// Encodes `record` as one frame appended to `out` — **borrowed-batch**
/// form: the frame is built directly in `out` (a zeroed header first,
/// then the payload — the value bytes are appended exactly **once**),
/// and the length + CRC are patched over the written range. No
/// per-record payload allocation, so a group commit of `n` records
/// fills one scratch buffer with `n` in-place frames and zero
/// intermediate copies of the values.
pub fn encode_record(out: &mut Vec<u8>, record: &WalRecord) {
    let header_at = out.len();
    out.reserve(FRAME_HEADER + RECORD_FIXED + record.value.len());
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    let payload_at = out.len();
    out.extend_from_slice(&record.object.0.to_be_bytes());
    out.extend_from_slice(&record.tag.ts.to_be_bytes());
    out.extend_from_slice(&record.tag.origin.0.to_be_bytes());
    out.extend_from_slice(&(record.value.len() as u32).to_be_bytes());
    out.extend_from_slice(record.value.as_bytes());
    let len = (out.len() - payload_at) as u32;
    let crc = crate::crc::crc32(&out[payload_at..]);
    out[header_at..header_at + 4].copy_from_slice(&len.to_be_bytes());
    out[header_at + 4..payload_at].copy_from_slice(&crc.to_be_bytes());
}

/// Decodes one framed record from the front of `buf`, advancing it.
///
/// # Errors
///
/// Returns [`FrameError::Truncated`] when the buffer ends mid-frame,
/// [`FrameError::BadCrc`] when the payload fails its CRC, and
/// [`FrameError::Malformed`] when the payload is not exactly one record
/// — each the signal to stop replaying.
pub fn decode_record(buf: &mut &[u8]) -> Result<WalRecord, FrameError> {
    let Some((header, rest)) = buf.split_first_chunk::<FRAME_HEADER>() else {
        return Err(FrameError::Truncated);
    };
    let [.., c0, c1, c2, c3] = *header;
    let len = frame_len(header);
    if rest.len() < len {
        return Err(FrameError::Truncated);
    }
    let (payload, rest) = rest.split_at(len);
    if crate::crc::crc32(payload) != u32::from_be_bytes([c0, c1, c2, c3]) {
        return Err(FrameError::BadCrc);
    }
    let Some((fixed, value)) = payload.split_first_chunk::<RECORD_FIXED>() else {
        return Err(FrameError::Malformed);
    };
    let [o0, o1, o2, o3, t0, t1, t2, t3, t4, t5, t6, t7, r0, r1, l0, l1, l2, l3] = *fixed;
    if value.len() != u32::from_be_bytes([l0, l1, l2, l3]) as usize {
        return Err(FrameError::Malformed);
    }
    *buf = rest;
    Ok(WalRecord {
        object: ObjectId(u32::from_be_bytes([o0, o1, o2, o3])),
        tag: Tag::new(
            u64::from_be_bytes([t0, t1, t2, t3, t4, t5, t6, t7]),
            ServerId(u16::from_be_bytes([r0, r1])),
        ),
        value: Value::from(value),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ts: u64, len: usize) -> WalRecord {
        WalRecord {
            object: ObjectId(7),
            tag: Tag::new(ts, ServerId(2)),
            value: Value::filled(0x5A, len),
        }
    }

    /// The record payload built field by field: the on-disk layout,
    /// written out independently of `encode_record`.
    fn payload_of(record: &WalRecord) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&record.object.0.to_be_bytes());
        payload.extend_from_slice(&record.tag.ts.to_be_bytes());
        payload.extend_from_slice(&record.tag.origin.0.to_be_bytes());
        payload.extend_from_slice(&(record.value.len() as u32).to_be_bytes());
        payload.extend_from_slice(record.value.as_bytes());
        payload
    }

    /// Appends one CRC frame wrapping `payload` to `out`.
    fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&crate::crc::crc32(payload).to_be_bytes());
        out.extend_from_slice(payload);
    }

    #[test]
    fn roundtrip() {
        for record in [sample(1, 0), sample(9, 1), sample(u64::MAX, 4096)] {
            let mut bytes = Vec::new();
            encode_record(&mut bytes, &record);
            let mut cursor = &bytes[..];
            assert_eq!(decode_record(&mut cursor).unwrap(), record);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn in_place_encode_matches_framed_payload() {
        // The borrowed-batch encoder must be byte-identical to framing a
        // separately built payload — the on-disk format is pinned.
        for record in [sample(1, 0), sample(9, 1), sample(u64::MAX, 4096)] {
            let mut expect = vec![0xAB; 3]; // non-empty prefix: append semantics
            put_frame(&mut expect, &payload_of(&record));
            let mut in_place = vec![0xAB; 3];
            encode_record(&mut in_place, &record);
            assert_eq!(in_place, expect);
        }
    }

    #[test]
    fn truncation_at_every_cut_stops_cleanly() {
        let mut bytes = Vec::new();
        encode_record(&mut bytes, &sample(3, 100));
        for cut in 0..bytes.len() {
            let mut cursor = &bytes[..cut];
            let err = decode_record(&mut cursor).expect_err("torn frame must not decode");
            assert!(
                matches!(err, FrameError::Truncated),
                "cut={cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bit_flip_fails_crc() {
        let mut bytes = Vec::new();
        encode_record(&mut bytes, &sample(3, 100));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut cursor = &bytes[..];
        assert_eq!(decode_record(&mut cursor), Err(FrameError::BadCrc));
    }

    #[test]
    fn inner_overrun_is_malformed() {
        // A frame whose CRC is valid but whose inner value length lies,
        // in either direction.
        let mut short = payload_of(&sample(1, 4));
        short.truncate(short.len() - 2); // drop value bytes, keep length
        let mut long = payload_of(&sample(1, 4));
        long.push(0); // a trailing byte after the record
        for payload in [short, long] {
            let mut bytes = Vec::new();
            put_frame(&mut bytes, &payload);
            let mut cursor = &bytes[..];
            assert_eq!(decode_record(&mut cursor), Err(FrameError::Malformed));
        }
    }
}
