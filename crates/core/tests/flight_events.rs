//! The flight recorder's op events carry what the `KIND_*` docs say:
//! a write's begin and complete events are `(request, tag.ts,
//! tag.origin)`, recorded at its origin server.

use hts_core::{Config, LaneCore};
use hts_metrics::flight::{self, KIND_OP_BEGIN, KIND_OP_COMPLETE};
use hts_types::{ClientId, Message, ObjectId, RequestId, ServerId, Value};

#[test]
fn a_write_records_begin_and_complete_as_request_ts_origin() {
    // Unique, so other recordings in this process cannot match.
    const REQUEST: u64 = 0x0F11_6E7E_5700;
    let mut origin = LaneCore::new(ServerId(1), 2, 0, Config::default());
    let mut peer = LaneCore::new(ServerId(0), 2, 0, Config::default());
    origin.on_client(
        ClientId(7),
        Message::WriteReq {
            object: ObjectId(3),
            request: RequestId(REQUEST),
            value: Value::from_u64(9),
        },
    );
    // Pass frames around the 2-ring until the origin acks the write.
    let mut tag = None;
    let mut acked = false;
    for _ in 0..8 {
        for lane in [&mut origin, &mut peer] {
            lane.take_commits();
        }
        acked |= origin
            .take_replies()
            .any(|(_, m)| matches!(m, Message::WriteAck { request, .. } if request.0 == REQUEST));
        if acked {
            break;
        }
        let out = origin.next_batch();
        tag = tag.or_else(|| out.iter().find_map(|f| f.pre_write.as_ref().map(|p| p.tag)));
        for frame in out {
            peer.on_frame(frame);
        }
        for frame in peer.next_batch() {
            origin.on_frame(frame);
        }
    }
    assert!(acked, "the write completed");
    let tag = tag.expect("the origin framed a pre-write");
    assert_eq!(tag.origin, ServerId(1));

    let ours: Vec<_> = flight::snapshot()
        .into_iter()
        .filter(|e| e.a == REQUEST && (e.kind == KIND_OP_BEGIN || e.kind == KIND_OP_COMPLETE))
        .map(|e| (e.kind, e.a, e.b, e.c))
        .collect();
    let expect = |kind| (kind, REQUEST, tag.ts, u64::from(tag.origin.0));
    assert_eq!(ours, vec![expect(KIND_OP_BEGIN), expect(KIND_OP_COMPLETE)]);
}
