//! Property tests for the wire codec and tag ordering laws.

use hts_types::{
    codec, Message, ObjectId, PreWrite, Rejoin, RequestId, RingFrame, ServerId, Tag, Value,
    WriteNotice,
};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop::collection::vec(any::<u8>(), 0..2048).prop_map(Value::from)
}

fn arb_tag() -> impl Strategy<Value = Tag> {
    (any::<u64>(), any::<u16>()).prop_map(|(ts, origin)| Tag::new(ts, ServerId(origin)))
}

fn arb_frame() -> impl Strategy<Value = RingFrame> {
    (
        any::<u32>(),
        prop::option::of((arb_tag(), arb_value(), any::<bool>())),
        prop::option::of((arb_tag(), prop::option::of(arb_value()))),
        prop::option::of((any::<u16>(), any::<bool>(), any::<bool>())),
    )
        .prop_map(|(object, pw, w, rejoin)| RingFrame {
            object: ObjectId(object),
            pre_write: pw.map(|(tag, value, recovery)| PreWrite {
                tag,
                value,
                recovery,
            }),
            write: w.map(|(tag, value)| WriteNotice { tag, value }),
            rejoin: rejoin.map(|(server, stale_source, all_syncing)| Rejoin {
                server: ServerId(server),
                stale_source,
                all_syncing,
            }),
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), arb_value()).prop_map(|(o, r, value)| Message::WriteReq {
            object: ObjectId(o),
            request: RequestId(r),
            value,
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(o, r)| Message::ReadReq {
            object: ObjectId(o),
            request: RequestId(r),
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(o, r)| Message::WriteAck {
            object: ObjectId(o),
            request: RequestId(r),
        }),
        (any::<u32>(), any::<u64>(), arb_value()).prop_map(|(o, r, value)| Message::ReadAck {
            object: ObjectId(o),
            request: RequestId(r),
            value,
        }),
        arb_frame().prop_map(Message::Ring),
        prop::collection::vec(arb_frame(), 0..12).prop_map(Message::RingBatch),
    ]
}

/// Every value carried by `msg`, in encoding order.
fn values_of(msg: &Message) -> Vec<&Value> {
    fn frame_values<'a>(frame: &'a RingFrame, out: &mut Vec<&'a Value>) {
        if let Some(pw) = &frame.pre_write {
            out.push(&pw.value);
        }
        if let Some(w) = &frame.write {
            if let Some(v) = &w.value {
                out.push(v);
            }
        }
    }
    let mut out = Vec::new();
    match msg {
        Message::WriteReq { value, .. } | Message::ReadAck { value, .. } => out.push(value),
        Message::StatsReply { text, .. } => out.push(text),
        Message::Ring(frame) => frame_values(frame, &mut out),
        Message::RingBatch(frames) => {
            for frame in frames {
                frame_values(frame, &mut out);
            }
        }
        Message::ReadReq { .. } | Message::WriteAck { .. } | Message::StatsRequest { .. } => {}
    }
    out
}

proptest! {
    #[test]
    fn codec_roundtrip(msg in arb_message()) {
        let bytes = codec::encode(&msg);
        prop_assert_eq!(bytes.len(), codec::wire_size(&msg));
        let back = codec::decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn decode_shared_matches_decode(msg in arb_message()) {
        // The zero-copy decoder is byte-for-byte equivalent to the
        // copying one over every message variant.
        let bytes = codec::encode(&msg);
        let shared = codec::decode_shared(&bytes).unwrap();
        let copied = codec::decode(&bytes).unwrap();
        prop_assert_eq!(&shared, &copied);
        prop_assert_eq!(&shared, &msg);
    }

    #[test]
    fn decode_shared_views_only_values_over_half_the_input(msg in arb_message()) {
        // The share rule: a value longer than half the input is a view
        // that lies INSIDE it; every other value is a copy that lies
        // outside it and equals the encoded bytes.
        let bytes = codec::encode(&msg);
        let start = bytes.as_ptr() as usize;
        let end = start + bytes.len();
        let decoded = codec::decode_shared(&bytes).unwrap();
        for (value, sent) in values_of(&decoded).into_iter().zip(values_of(&msg)) {
            let p = value.as_bytes().as_ptr() as usize;
            let inside = p >= start && p + value.len() <= end;
            if 2 * value.len() > bytes.len() {
                prop_assert!(
                    inside,
                    "{}-byte value at {:#x} escapes input {:#x}..{:#x}",
                    value.len(), p, start, end
                );
            } else {
                prop_assert!(
                    p + value.len() <= start || p >= end,
                    "{}-byte value at {:#x} aliases input {:#x}..{:#x}",
                    value.len(), p, start, end
                );
            }
            prop_assert_eq!(value, sent);
        }
    }

    #[test]
    fn decode_shared_batch_empty_and_order(frames in prop::collection::vec(arb_frame(), 0..32)) {
        // RingBatch through the shared decoder, including the empty edge;
        // the u16::MAX edge is pinned by a unit test in the codec module.
        let msg = Message::RingBatch(frames.clone());
        let bytes = codec::encode(&msg);
        match codec::decode_shared(&bytes).unwrap() {
            Message::RingBatch(back) => prop_assert_eq!(back, frames),
            other => prop_assert!(false, "decoded wrong variant: {}", other),
        }
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Any outcome is fine as long as it does not panic.
        let _ = codec::decode(&bytes);
    }

    #[test]
    fn decode_partial_stream(msgs in prop::collection::vec(arb_message(), 1..8)) {
        let mut buf = Vec::new();
        for m in &msgs {
            buf.extend_from_slice(&codec::encode(m));
        }
        let mut cursor = &buf[..];
        for m in &msgs {
            let got = codec::decode_partial(&mut cursor).unwrap();
            prop_assert_eq!(&got, m);
        }
        prop_assert!(cursor.is_empty());
    }

    #[test]
    fn batch_roundtrip_preserves_frame_order(frames in prop::collection::vec(arb_frame(), 0..32)) {
        // Includes the empty edge (0 frames); the u16::MAX edge is pinned
        // by a unit test in the codec module (too large to shrink well).
        let msg = Message::RingBatch(frames.clone());
        let bytes = codec::encode(&msg);
        prop_assert_eq!(bytes.len(), codec::wire_size(&msg));
        match codec::decode(&bytes).unwrap() {
            Message::RingBatch(back) => prop_assert_eq!(back, frames),
            other => prop_assert!(false, "decoded wrong variant: {}", other),
        }
    }

    #[test]
    fn batch_costs_no_more_than_separate_frames(frames in prop::collection::vec(arb_frame(), 1..16)) {
        // The point of RingBatch: coalescing strictly shrinks the payload
        // (one discriminant + count vs. a discriminant per frame).
        let separate: usize = frames
            .iter()
            .map(|f| codec::wire_size(&Message::Ring(f.clone())))
            .sum();
        let batched = codec::wire_size(&Message::RingBatch(frames.clone()));
        prop_assert!(batched <= separate + 2);
    }

    #[test]
    fn tag_order_is_total_and_lexicographic(a in arb_tag(), b in arb_tag()) {
        use std::cmp::Ordering;
        let expected = match a.ts.cmp(&b.ts) {
            Ordering::Equal => a.origin.cmp(&b.origin),
            other => other,
        };
        prop_assert_eq!(a.cmp(&b), expected);
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }

    #[test]
    fn tag_successor_dominates(a in arb_tag(), origin in any::<u16>()) {
        prop_assume!(a.ts < u64::MAX);
        let s = a.successor(ServerId(origin));
        prop_assert!(s > a);
    }
}
