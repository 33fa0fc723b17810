//! Property tests for the WAL record/segment codec and recovery.
//!
//! The central invariant: however a log is cut short or corrupted,
//! decoding yields an intact **prefix** of what was appended and never
//! panics — a torn tail costs the torn suffix, nothing more.

use std::fs;
use std::path::PathBuf;

use hts_types::{ObjectId, ServerId, Tag, Value};
use hts_wal::record::{decode_record, encode_record};
use hts_wal::segment::list_segments;
use hts_wal::{recover, Wal, WalOptions, WalRecord};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        any::<u32>(),
        1..=u64::MAX,
        any::<u16>(),
        prop::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(object, ts, origin, value)| WalRecord {
            object: ObjectId(object),
            tag: Tag::new(ts, ServerId(origin)),
            value: Value::from(value),
        })
}

/// Encodes `records` back-to-back and returns (bytes, frame end offsets).
fn encode_all(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for record in records {
        encode_record(&mut bytes, record);
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// Decodes until the first error, returning the recovered prefix.
fn decode_all(mut cursor: &[u8]) -> Vec<WalRecord> {
    let mut out = Vec::new();
    while !cursor.is_empty() {
        match decode_record(&mut cursor) {
            Ok(record) => out.push(record),
            Err(_) => break,
        }
    }
    out
}

proptest! {
    #[test]
    fn record_roundtrip(record in arb_record()) {
        let mut bytes = Vec::new();
        encode_record(&mut bytes, &record);
        let mut cursor = &bytes[..];
        prop_assert_eq!(decode_record(&mut cursor).unwrap(), record);
        prop_assert!(cursor.is_empty());
    }

    #[test]
    fn stream_roundtrip(records in prop::collection::vec(arb_record(), 0..12)) {
        let (bytes, _) = encode_all(&records);
        prop_assert_eq!(decode_all(&bytes), records);
    }

    #[test]
    fn truncation_recovers_exactly_the_complete_frames(
        records in prop::collection::vec(arb_record(), 1..10),
        cut_permille in 0u32..1000,
    ) {
        let (bytes, ends) = encode_all(&records);
        let cut = bytes.len() * cut_permille as usize / 1000;
        let complete = ends.iter().filter(|&&end| end <= cut).count();
        let decoded = decode_all(&bytes[..cut]);
        prop_assert_eq!(&decoded, &records[..complete]);
    }

    #[test]
    fn corruption_yields_an_intact_prefix(
        records in prop::collection::vec(arb_record(), 1..10),
        flip_permille in 0u32..1000,
        flip_bit in 0u8..8,
    ) {
        let (mut bytes, _) = encode_all(&records);
        let at = (bytes.len() - 1) * flip_permille as usize / 1000;
        bytes[at] ^= 1 << flip_bit;
        // Must not panic; whatever decodes must be a prefix of the truth.
        let decoded = decode_all(&bytes);
        prop_assert!(decoded.len() <= records.len());
        prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-wal-prop-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end on real files: append in batches, tear the active
    /// segment at an arbitrary byte, recover. Recovery stops at the first
    /// bad CRC, never panics, and reconstructs the tag-maximum of an
    /// intact prefix of the appends.
    #[test]
    fn torn_segment_recovery_is_a_clean_prefix(
        values in prop::collection::vec(0u64..1_000_000, 1..20),
        cut_permille in 0u32..1000,
        batch in 1usize..8,
    ) {
        let dir = tmp_dir("torn");
        let mut wal = Wal::open(&dir, WalOptions::default()).unwrap();
        let records: Vec<WalRecord> = values.iter().enumerate().map(|(i, v)| WalRecord {
            object: ObjectId(0),
            tag: Tag::new(i as u64 + 1, ServerId(0)),
            value: Value::from_u64(*v),
        }).collect();
        for chunk in records.chunks(batch) {
            wal.append_batch(chunk).unwrap();
        }
        drop(wal);

        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        let cut = bytes.len() * cut_permille as usize / 1000;
        fs::write(&path, &bytes[..cut]).unwrap();

        let recovery = recover(&dir).unwrap();
        let n = recovery.records_replayed as usize;
        prop_assert!(n < records.len(), "cut strictly inside the segment loses the tail");
        // A torn flag always means replay stopped early; the converse can
        // miss (a cut exactly on a frame boundary parses cleanly).
        if recovery.torn_tail {
            prop_assert!(n < records.len());
        }
        if n > 0 {
            // Highest tag of the surviving prefix wins.
            let (tag, value) = &recovery.state[&ObjectId(0)];
            prop_assert_eq!(*tag, records[n - 1].tag);
            prop_assert_eq!(value, &records[n - 1].value);
        } else {
            prop_assert!(recovery.state.is_empty());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
