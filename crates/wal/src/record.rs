//! The CRC-framed record codec.
//!
//! Every entry in a segment (and the body of a snapshot) is one
//! **frame**: a 4-byte big-endian payload length, a 4-byte CRC-32 of the
//! payload, then the payload itself. A reader that hits a short frame or
//! a CRC mismatch knows the tail was torn by a crash and stops *cleanly*
//! — torn tails are an expected outcome, never an error or a panic.
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

/// Why decoding stopped. Both variants mean "stop replaying here"; they
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
pub(crate) const RECORD_FIXED: usize = 4 + 8 + 2 + 4;

/// Appends one CRC frame wrapping `payload` to `out`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&frame_header(
        payload.len() as u32,
        crate::crc::crc32(payload),
    ));
    out.extend_from_slice(payload);
}

/// Reads one CRC frame from the front of `buf`, advancing past it.
///
/// # Errors
///
/// Returns a [`FrameError`] when the buffer ends mid-frame or the CRC
/// does not match — the signal to stop replaying.
pub fn take_frame<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], FrameError> {
    let Some((header, rest)) = buf.split_first_chunk::<FRAME_HEADER>() else {
        return Err(FrameError::Truncated);
    };
    let (len, crc) = parse_frame_header(header);
    if rest.len() < len {
        return Err(FrameError::Truncated);
    }
    let payload = &rest[..len];
    if crate::crc::crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    *buf = &rest[len..];
    Ok(payload)
}

/// The frame header of a `len`-byte payload with CRC `crc`.
pub(crate) fn frame_header(len: u32, crc: u32) -> [u8; FRAME_HEADER] {
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&len.to_be_bytes());
    header[4..].copy_from_slice(&crc.to_be_bytes());
    header
}

/// Splits a [`frame_header`] into payload length and CRC.
pub(crate) fn parse_frame_header(header: &[u8; FRAME_HEADER]) -> (usize, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    (
        u32::from_be_bytes([l0, l1, l2, l3]) as usize,
        u32::from_be_bytes([c0, c1, c2, c3]),
    )
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
    put_record_payload(out, record);
    let len = (out.len() - payload_at) as u32;
    let crc = crate::crc::crc32(&out[payload_at..]);
    out[header_at..payload_at].copy_from_slice(&frame_header(len, crc));
}

/// Appends the raw (unframed) record payload to `out` — shared with the
/// snapshot codec, which frames many records under one CRC.
pub fn put_record_payload(out: &mut Vec<u8>, record: &WalRecord) {
    out.extend_from_slice(&record_header(record));
    out.extend_from_slice(record.value.as_bytes());
}

/// The fixed fields that precede a record's value bytes in its payload:
/// object, tag and value length.
pub(crate) fn record_header(record: &WalRecord) -> [u8; RECORD_FIXED] {
    let mut header = [0u8; RECORD_FIXED];
    header[0..4].copy_from_slice(&record.object.0.to_be_bytes());
    header[4..12].copy_from_slice(&record.tag.ts.to_be_bytes());
    header[12..14].copy_from_slice(&record.tag.origin.0.to_be_bytes());
    header[14..].copy_from_slice(&(record.value.len() as u32).to_be_bytes());
    header
}

/// Splits a [`record_header`] back into object, tag and value length.
pub(crate) fn parse_record_header(header: &[u8; RECORD_FIXED]) -> (ObjectId, Tag, usize) {
    let [o0, o1, o2, o3, t0, t1, t2, t3, t4, t5, t6, t7, r0, r1, l0, l1, l2, l3] = *header;
    let object = ObjectId(u32::from_be_bytes([o0, o1, o2, o3]));
    let ts = u64::from_be_bytes([t0, t1, t2, t3, t4, t5, t6, t7]);
    let origin = ServerId(u16::from_be_bytes([r0, r1]));
    let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    (object, Tag::new(ts, origin), len)
}

/// Decodes one record payload from the front of `buf`, advancing it.
///
/// # Errors
///
/// Returns [`FrameError::Malformed`] when the payload is too short or
/// its inner value length overruns it.
pub fn take_record_payload(buf: &mut &[u8]) -> Result<WalRecord, FrameError> {
    let Some((header, rest)) = buf.split_first_chunk::<RECORD_FIXED>() else {
        return Err(FrameError::Malformed);
    };
    let (object, tag, len) = parse_record_header(header);
    if rest.len() < len {
        return Err(FrameError::Malformed);
    }
    let value = Value::from(&rest[..len]);
    *buf = &rest[len..];
    Ok(WalRecord { object, tag, value })
}

/// Decodes one framed record from the front of `buf`, advancing it.
///
/// # Errors
///
/// Propagates frame and payload errors; additionally returns
/// [`FrameError::Malformed`] if the frame carries trailing bytes after
/// the record.
pub fn decode_record(buf: &mut &[u8]) -> Result<WalRecord, FrameError> {
    let mut payload = take_frame(buf)?;
    let record = take_record_payload(&mut payload)?;
    if !payload.is_empty() {
        return Err(FrameError::Malformed);
    }
    Ok(record)
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
            let mut payload = Vec::new();
            put_record_payload(&mut payload, &record);
            let mut expect = vec![0xAB; 3]; // non-empty prefix: append semantics
            put_frame(&mut expect, &payload);
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
        // A frame whose CRC is valid but whose inner value length lies.
        let mut payload = Vec::new();
        put_record_payload(&mut payload, &sample(1, 4));
        payload.truncate(payload.len() - 2); // drop value bytes, keep length
        let mut bytes = Vec::new();
        put_frame(&mut bytes, &payload);
        let mut cursor = &bytes[..];
        assert_eq!(decode_record(&mut cursor), Err(FrameError::Malformed));
    }
}
