//! Compact binary wire codec for [`Message`].
//!
//! The format is a hand-rolled, length-prefixed binary encoding: one
//! discriminant byte followed by fixed-width big-endian fields; values are
//! `u32`-length-prefixed byte strings; options are a one-byte presence flag.
//! It is deliberately trivial — the point is that [`wire_size`] computes the
//! exact on-wire size without allocating, which the simulator uses for
//! byte-accurate bandwidth accounting, and that the same bytes flow over the
//! real TCP transport in `hts-net`.
//!
//! # Examples
//!
//! ```
//! use hts_types::{codec, Message, ObjectId, RequestId};
//!
//! let msg = Message::ReadReq { object: ObjectId(1), request: RequestId(2) };
//! let bytes = codec::encode(&msg);
//! assert_eq!(codec::decode(&bytes)?, msg);
//! assert_eq!(bytes.len(), codec::wire_size(&msg));
//! # Ok::<(), hts_types::DecodeError>(())
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{
    ClientId, DecodeError, Message, ObjectId, PreWrite, Rejoin, RequestId, RingFrame, ServerId,
    Tag, Value, WriteNotice,
};

const D_WRITE_REQ: u8 = 0x01;
const D_READ_REQ: u8 = 0x02;
const D_WRITE_ACK: u8 = 0x03;
const D_READ_ACK: u8 = 0x04;
const D_RING: u8 = 0x05;
const D_RING_BATCH: u8 = 0x06;
const D_STATS_REQ: u8 = 0x07;
const D_STATS_REPLY: u8 = 0x08;

/// Most frames one [`Message::RingBatch`] can carry (the count prefix is
/// 16-bit). Writers coalesce far below this; the cap bounds what a decoder
/// will attempt to materialize from one wire message.
pub const MAX_BATCH_FRAMES: usize = u16::MAX as usize;

const TAG_SIZE: usize = 8 + 2; // ts + origin
const OBJECT_SIZE: usize = 4;
const REQUEST_SIZE: usize = 8;
const LEN_PREFIX: usize = 4;
const FLAG_SIZE: usize = 1;

/// Encodes a message into a freshly allocated buffer.
///
/// # Panics
///
/// Panics if a contained value is longer than `u32::MAX` bytes (the length
/// prefix is 32-bit).
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(wire_size(msg));
    encode_into(msg, &mut buf);
    buf.freeze()
}

/// Encodes a message by appending to `buf`.
///
/// # Panics
///
/// Panics if a contained value is longer than `u32::MAX` bytes.
pub fn encode_into(msg: &Message, buf: &mut BytesMut) {
    match msg {
        Message::WriteReq {
            object,
            request,
            value,
        } => {
            buf.put_u8(D_WRITE_REQ);
            put_object(buf, *object);
            put_request(buf, *request);
            put_value(buf, value);
        }
        Message::ReadReq { object, request } => {
            buf.put_u8(D_READ_REQ);
            put_object(buf, *object);
            put_request(buf, *request);
        }
        Message::WriteAck { object, request } => {
            buf.put_u8(D_WRITE_ACK);
            put_object(buf, *object);
            put_request(buf, *request);
        }
        Message::ReadAck {
            object,
            request,
            value,
        } => {
            buf.put_u8(D_READ_ACK);
            put_object(buf, *object);
            put_request(buf, *request);
            put_value(buf, value);
        }
        Message::Ring(frame) => encode_ring_into(frame, buf),
        Message::RingBatch(frames) => encode_ring_batch_into(frames, buf),
        Message::StatsRequest { request } => {
            buf.put_u8(D_STATS_REQ);
            put_request(buf, *request);
        }
        Message::StatsReply { request, text } => {
            buf.put_u8(D_STATS_REPLY);
            put_request(buf, *request);
            put_value(buf, text);
        }
    }
}

/// Encodes `Message::Ring(frame)` by appending to `buf`, without
/// constructing the enum — hot-path helper for transports that hold
/// frames by reference.
///
/// # Panics
///
/// Panics if a contained value is longer than `u32::MAX` bytes.
pub fn encode_ring_into(frame: &RingFrame, buf: &mut BytesMut) {
    buf.put_u8(D_RING);
    put_frame(buf, frame);
}

/// Encodes `Message::RingBatch(frames)` by appending to `buf`, without
/// constructing the enum.
///
/// # Panics
///
/// Panics if `frames.len()` exceeds [`MAX_BATCH_FRAMES`] or a contained
/// value is longer than `u32::MAX` bytes.
pub fn encode_ring_batch_into(frames: &[RingFrame], buf: &mut BytesMut) {
    buf.put_u8(D_RING_BATCH);
    #[expect(clippy::panic, reason = "documented: a caller bug, not a wire input")]
    let count = u16::try_from(frames.len())
        .unwrap_or_else(|_| panic!("batch of {} frames exceeds u16::MAX", frames.len()));
    buf.put_u16(count);
    for frame in frames {
        put_frame(buf, frame);
    }
}

fn put_frame(buf: &mut BytesMut, frame: &RingFrame) {
    put_object(buf, frame.object);
    match &frame.pre_write {
        None => buf.put_u8(0),
        Some(pw) => {
            buf.put_u8(1);
            put_tag(buf, pw.tag);
            buf.put_u8(u8::from(pw.recovery));
            put_value(buf, &pw.value);
        }
    }
    match &frame.write {
        None => buf.put_u8(0),
        Some(w) => {
            buf.put_u8(1);
            put_tag(buf, w.tag);
            match &w.value {
                None => buf.put_u8(0),
                Some(v) => {
                    buf.put_u8(1);
                    put_value(buf, v);
                }
            }
        }
    }
    match frame.rejoin {
        None => buf.put_u8(0),
        Some(r) => {
            buf.put_u8(1);
            buf.put_u16(r.server.0);
            buf.put_u8(u8::from(r.stale_source) | (u8::from(r.all_syncing) << 1));
        }
    }
}

/// The exact encoded size of `msg` in bytes, without encoding it.
///
/// Guaranteed equal to `encode(msg).len()` (tested exhaustively and by
/// property tests).
pub fn wire_size(msg: &Message) -> usize {
    1 + match msg {
        Message::WriteReq { value, .. } => OBJECT_SIZE + REQUEST_SIZE + LEN_PREFIX + value.len(),
        Message::ReadReq { .. } => OBJECT_SIZE + REQUEST_SIZE,
        Message::WriteAck { .. } => OBJECT_SIZE + REQUEST_SIZE,
        Message::ReadAck { value, .. } => OBJECT_SIZE + REQUEST_SIZE + LEN_PREFIX + value.len(),
        Message::Ring(frame) => frame_wire_size(frame),
        Message::RingBatch(frames) => 2 + frames.iter().map(frame_wire_size).sum::<usize>(),
        Message::StatsRequest { .. } => REQUEST_SIZE,
        Message::StatsReply { text, .. } => REQUEST_SIZE + LEN_PREFIX + text.len(),
    }
}

/// The exact encoded size of one ring frame's body (no discriminant), as
/// it appears inside [`Message::Ring`] and [`Message::RingBatch`]. Batch
/// schedulers use this to enforce byte budgets without encoding.
pub fn frame_wire_size(frame: &RingFrame) -> usize {
    let pw = match &frame.pre_write {
        None => 0,
        Some(pw) => TAG_SIZE + FLAG_SIZE + LEN_PREFIX + pw.value.len(),
    };
    let w = match &frame.write {
        None => 0,
        Some(wn) => TAG_SIZE + FLAG_SIZE + wn.value.as_ref().map_or(0, |v| LEN_PREFIX + v.len()),
    };
    let rejoin = frame.rejoin.map_or(0, |_| 2 + FLAG_SIZE);
    OBJECT_SIZE + FLAG_SIZE + pw + FLAG_SIZE + w + FLAG_SIZE + rejoin
}

/// Decodes a message from a complete buffer.
///
/// # Errors
///
/// Returns [`DecodeError`] if the buffer is truncated, carries an unknown
/// discriminant, or contains trailing bytes after the message.
pub fn decode(mut buf: &[u8]) -> Result<Message, DecodeError> {
    let msg = decode_partial(&mut buf)?;
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes {
            remaining: buf.len(),
        });
    }
    Ok(msg)
}

/// Decodes a message from a complete refcounted buffer — the zero-copy
/// receive path. A [`Value`] longer than half of `bytes` becomes a
/// [`Bytes::slice`] **view** of it; every other value is copied out.
/// A view keeps the whole buffer alive, so this share rule is what
/// bounds it: a decoded value never pins more than twice its own size.
/// At most one value per message can be a view, so a lone client write
/// or pre-write stays zero-copy while a ring batch of small values
/// leaves its buffer unreferenced, and callers may reclaim it
/// (`Bytes::try_into_mut`) for the next read, as they may after any
/// value-free message.
///
/// Byte-for-byte equivalent to [`decode`] (property-tested).
///
/// # Errors
///
/// As [`decode`].
pub fn decode_shared(bytes: &Bytes) -> Result<Message, DecodeError> {
    let mut buf: &[u8] = bytes;
    let msg = decode_one(&mut buf, ValueSrc::Shared(bytes))?;
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes {
            remaining: buf.len(),
        });
    }
    Ok(msg)
}

/// Decodes one message from the front of `buf`, advancing it past the
/// consumed bytes. Useful for transports that batch several messages into
/// one segment.
///
/// # Errors
///
/// Returns [`DecodeError`] if the buffer does not start with a complete,
/// well-formed message.
pub fn decode_partial(buf: &mut &[u8]) -> Result<Message, DecodeError> {
    decode_one(buf, ValueSrc::Copied)
}

/// Where decoded [`Value`] bytes come from: copied out of the transient
/// input slice, or — when the value is more than half of it — sliced as
/// a refcounted view of the shared buffer the cursor is reading (the
/// cursor must always be a suffix of that buffer for the offset
/// arithmetic to hold).
#[derive(Clone, Copy)]
enum ValueSrc<'a> {
    Copied,
    Shared(&'a Bytes),
}

impl ValueSrc<'_> {
    fn take(self, buf: &mut &[u8], len: usize) -> Value {
        let value = match self {
            ValueSrc::Shared(bytes) if 2 * len > bytes.len() => {
                let off = bytes.len() - buf.len();
                Value::from(bytes.slice(off..off + len))
            }
            ValueSrc::Copied | ValueSrc::Shared(_) => Value::from(&buf[..len]),
        };
        buf.advance(len);
        value
    }
}

fn decode_one(buf: &mut &[u8], src: ValueSrc<'_>) -> Result<Message, DecodeError> {
    let disc = get_u8(buf)?;
    match disc {
        D_WRITE_REQ => Ok(Message::WriteReq {
            object: get_object(buf)?,
            request: get_request(buf)?,
            value: get_value(buf, src)?,
        }),
        D_READ_REQ => Ok(Message::ReadReq {
            object: get_object(buf)?,
            request: get_request(buf)?,
        }),
        D_WRITE_ACK => Ok(Message::WriteAck {
            object: get_object(buf)?,
            request: get_request(buf)?,
        }),
        D_READ_ACK => Ok(Message::ReadAck {
            object: get_object(buf)?,
            request: get_request(buf)?,
            value: get_value(buf, src)?,
        }),
        D_RING => Ok(Message::Ring(get_frame(buf, src)?)),
        D_RING_BATCH => {
            need(buf, 2)?;
            let count = usize::from(buf.get_u16());
            // Cap the pre-allocation: a corrupt count must not reserve
            // megabytes before the truncation error surfaces.
            let mut frames = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                frames.push(get_frame(buf, src)?);
            }
            Ok(Message::RingBatch(frames))
        }
        D_STATS_REQ => Ok(Message::StatsRequest {
            request: get_request(buf)?,
        }),
        D_STATS_REPLY => Ok(Message::StatsReply {
            request: get_request(buf)?,
            text: get_value(buf, src)?,
        }),
        other => Err(DecodeError::UnknownDiscriminant(other)),
    }
}

fn get_frame(buf: &mut &[u8], src: ValueSrc<'_>) -> Result<RingFrame, DecodeError> {
    let object = get_object(buf)?;
    let pre_write = if get_flag(buf)? {
        let tag = get_tag(buf)?;
        let recovery = get_flag(buf)?;
        let value = get_value(buf, src)?;
        Some(PreWrite {
            tag,
            value,
            recovery,
        })
    } else {
        None
    };
    let write = if get_flag(buf)? {
        let tag = get_tag(buf)?;
        let value = if get_flag(buf)? {
            Some(get_value(buf, src)?)
        } else {
            None
        };
        Some(WriteNotice { tag, value })
    } else {
        None
    };
    let rejoin = if get_flag(buf)? {
        need(buf, 3)?;
        let server = ServerId(buf.get_u16());
        let flags = buf.get_u8();
        if flags > 0b11 {
            return Err(DecodeError::BadOptionFlag(flags));
        }
        Some(Rejoin {
            server,
            stale_source: flags & 0b01 != 0,
            all_syncing: flags & 0b10 != 0,
        })
    } else {
        None
    };
    Ok(RingFrame {
        object,
        pre_write,
        write,
        rejoin,
    })
}

fn put_object(buf: &mut BytesMut, object: ObjectId) {
    buf.put_u32(object.0);
}

fn put_request(buf: &mut BytesMut, request: RequestId) {
    buf.put_u64(request.0);
}

fn put_tag(buf: &mut BytesMut, tag: Tag) {
    buf.put_u64(tag.ts);
    buf.put_u16(tag.origin.0);
}

fn put_value(buf: &mut BytesMut, value: &Value) {
    #[expect(
        clippy::expect_used,
        reason = "documented on the encoders: a 4 GiB value"
    )]
    let len = u32::try_from(value.len()).expect("value length exceeds u32::MAX");
    buf.put_u32(len);
    buf.put_slice(value.as_bytes());
}

fn need(buf: &[u8], n: usize) -> Result<(), DecodeError> {
    if buf.len() < n {
        Err(DecodeError::UnexpectedEof {
            needed: n,
            remaining: buf.len(),
        })
    } else {
        Ok(())
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_flag(buf: &mut &[u8]) -> Result<bool, DecodeError> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DecodeError::BadOptionFlag(other)),
    }
}

fn get_object(buf: &mut &[u8]) -> Result<ObjectId, DecodeError> {
    need(buf, 4)?;
    Ok(ObjectId(buf.get_u32()))
}

fn get_request(buf: &mut &[u8]) -> Result<RequestId, DecodeError> {
    need(buf, 8)?;
    Ok(RequestId(buf.get_u64()))
}

fn get_tag(buf: &mut &[u8]) -> Result<Tag, DecodeError> {
    need(buf, TAG_SIZE)?;
    let ts = buf.get_u64();
    let origin = ServerId(buf.get_u16());
    Ok(Tag { ts, origin })
}

fn get_value(buf: &mut &[u8], src: ValueSrc<'_>) -> Result<Value, DecodeError> {
    need(buf, 4)?;
    let len = buf.get_u32() as usize;
    need(buf, len)?;
    Ok(src.take(buf, len))
}

/// Identifies the sender on a freshly accepted `hts-net` connection; see
/// that crate's handshake. Kept here so both ends agree on the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hello {
    /// The peer is ring server `ServerId` and this connection carries
    /// lane `lane`'s ring stream (lane 0 at a single-lane node).
    ServerLane(ServerId, u16),
    /// The peer is client `ClientId`.
    Client(ClientId),
}

impl Hello {
    /// Encodes the handshake (5 bytes) as a refcounted buffer, so
    /// connection setup paths hand the writer the same allocation.
    pub fn encode(self) -> Bytes {
        let mut v = BytesMut::with_capacity(5);
        match self {
            Hello::Client(c) => {
                v.put_u8(0x02);
                v.put_u32(c.0);
            }
            Hello::ServerLane(s, lane) => {
                v.put_u8(0x03);
                v.put_u16(s.0);
                v.put_u16(lane);
            }
        }
        v.freeze()
    }

    /// The encoded length of a hello whose first byte is `role`, or
    /// `None` for a role byte no hello starts with.
    pub fn encoded_len(role: u8) -> Option<usize> {
        matches!(role, 0x02 | 0x03).then_some(5)
    }

    /// Decodes a handshake produced by [`Hello::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or an unknown role byte.
    pub fn decode(mut buf: &[u8]) -> Result<Hello, DecodeError> {
        let b = &mut buf;
        match get_u8(b)? {
            0x02 => {
                need(b, 4)?;
                Ok(Hello::Client(ClientId(b.get_u32())))
            }
            0x03 => {
                need(b, 4)?;
                let server = ServerId(b.get_u16());
                Ok(Hello::ServerLane(server, b.get_u16()))
            }
            other => Err(DecodeError::UnknownDiscriminant(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let tag = Tag::new(5, ServerId(2));
        vec![
            Message::WriteReq {
                object: ObjectId(0),
                request: RequestId(1),
                value: Value::from_u64(77),
            },
            Message::WriteReq {
                object: ObjectId(9),
                request: RequestId(u64::MAX),
                value: Value::bottom(),
            },
            Message::ReadReq {
                object: ObjectId(3),
                request: RequestId(2),
            },
            Message::WriteAck {
                object: ObjectId(3),
                request: RequestId(2),
            },
            Message::ReadAck {
                object: ObjectId(3),
                request: RequestId(2),
                value: Value::filled(0xAB, 100),
            },
            Message::Ring(RingFrame {
                object: ObjectId(1),
                pre_write: None,
                write: None,
                rejoin: None,
            }),
            Message::Ring(RingFrame::announce_rejoin(Rejoin::announce(ServerId(5)))),
            Message::Ring(RingFrame::pre_write(ObjectId(1), tag, Value::filled(1, 33))),
            Message::Ring(RingFrame::write(ObjectId(1), tag)),
            Message::Ring(RingFrame::write_with_value(
                ObjectId(1),
                tag,
                Value::filled(2, 65_536),
            )),
            Message::Ring(RingFrame {
                object: ObjectId(2),
                pre_write: Some(PreWrite {
                    tag,
                    value: Value::from_u64(1),
                    recovery: true,
                }),
                write: Some(WriteNotice {
                    tag: Tag::new(4, ServerId(0)),
                    value: None,
                }),
                rejoin: Some(Rejoin {
                    server: ServerId(3),
                    stale_source: true,
                    all_syncing: true,
                }),
            }),
            Message::RingBatch(Vec::new()),
            Message::RingBatch(vec![
                RingFrame::pre_write(ObjectId(1), tag, Value::filled(3, 100)),
                RingFrame::write(ObjectId(2), tag),
                RingFrame::announce_rejoin(Rejoin::announce(ServerId(1))),
            ]),
            Message::StatsRequest {
                request: RequestId(11),
            },
            Message::StatsReply {
                request: RequestId(11),
                text: Value::from(b"hts_up 1\n".to_vec()),
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            assert_eq!(bytes.len(), wire_size(&msg), "wire_size mismatch: {msg}");
            let back = decode(&bytes).expect("decode");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                let err = decode(&bytes[..cut]).expect_err("truncated decode must fail");
                assert!(
                    matches!(err, DecodeError::UnexpectedEof { .. }),
                    "cut={cut} gave {err:?} for {msg}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let msg = Message::ReadReq {
            object: ObjectId(0),
            request: RequestId(1),
        };
        // Deliberate copy (`to_vec`): the test mutates the encoding,
        // which needs an owned, growable buffer.
        let mut bytes = encode(&msg).to_vec();
        bytes.push(0);
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn unknown_discriminant_rejected() {
        assert_eq!(decode(&[0x7F]), Err(DecodeError::UnknownDiscriminant(0x7F)));
    }

    #[test]
    fn bad_option_flag_rejected() {
        // Ring frame with pre_write flag = 2.
        let mut bytes = vec![D_RING];
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.push(2);
        assert_eq!(decode(&bytes), Err(DecodeError::BadOptionFlag(2)));
    }

    #[test]
    fn decode_partial_consumes_exactly_one_message() {
        let a = Message::ReadReq {
            object: ObjectId(1),
            request: RequestId(2),
        };
        let b = Message::WriteAck {
            object: ObjectId(3),
            request: RequestId(4),
        };
        // Deliberate copy (`to_vec`): the test concatenates two
        // messages, which needs an owned, growable buffer.
        let mut bytes = encode(&a).to_vec();
        bytes.extend_from_slice(&encode(&b));
        let mut cursor = &bytes[..];
        assert_eq!(decode_partial(&mut cursor).unwrap(), a);
        assert_eq!(decode_partial(&mut cursor).unwrap(), b);
        assert!(cursor.is_empty());
    }

    #[test]
    fn max_size_batch_roundtrips() {
        // The count prefix is 16-bit: a batch of exactly MAX_BATCH_FRAMES
        // frames must encode and come back intact.
        let frame = RingFrame::write(ObjectId(7), Tag::new(9, ServerId(1)));
        let msg = Message::RingBatch(vec![frame; MAX_BATCH_FRAMES]);
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), wire_size(&msg));
        assert_eq!(decode(&bytes).unwrap(), msg);
    }

    #[test]
    #[should_panic(expected = "exceeds u16::MAX")]
    fn oversized_batch_panics_at_encode() {
        let frame = RingFrame::write(ObjectId(0), Tag::new(1, ServerId(0)));
        let msg = Message::RingBatch(vec![frame; MAX_BATCH_FRAMES + 1]);
        let _ = encode(&msg);
    }

    #[test]
    fn batch_wire_size_is_sum_of_frames_plus_count() {
        let frames = vec![
            RingFrame::write(ObjectId(1), Tag::new(1, ServerId(0))),
            RingFrame::pre_write(ObjectId(2), Tag::new(2, ServerId(1)), Value::filled(1, 64)),
        ];
        let per_frame: usize = frames.iter().map(frame_wire_size).sum();
        assert_eq!(
            wire_size(&Message::RingBatch(frames.clone())),
            1 + 2 + per_frame
        );
        // A batched frame costs exactly its Ring encoding minus the
        // discriminant — coalescing never inflates the payload.
        for frame in frames {
            assert_eq!(
                frame_wire_size(&frame) + 1,
                wire_size(&Message::Ring(frame.clone()))
            );
        }
    }

    #[test]
    fn by_ref_ring_encoders_match_the_enum_path() {
        let frames = vec![
            RingFrame::pre_write(ObjectId(1), Tag::new(2, ServerId(0)), Value::filled(9, 33)),
            RingFrame::write(ObjectId(1), Tag::new(2, ServerId(0))),
        ];
        let mut by_ref = BytesMut::new();
        encode_ring_into(&frames[0], &mut by_ref);
        assert_eq!(&by_ref[..], &encode(&Message::Ring(frames[0].clone()))[..]);

        by_ref.clear();
        encode_ring_batch_into(&frames, &mut by_ref);
        assert_eq!(&by_ref[..], &encode(&Message::RingBatch(frames))[..]);
    }

    #[test]
    fn tag_only_write_is_small() {
        // The whole point of the piggyback optimization: a committed-write
        // notice must be tiny compared to the value it commits.
        let size = wire_size(&Message::Ring(RingFrame::write(
            ObjectId(0),
            Tag::new(1, ServerId(0)),
        )));
        assert!(size <= 32, "tag-only write frame is {size} bytes");
    }

    #[test]
    fn hello_roundtrip() {
        for hello in [
            Hello::ServerLane(ServerId(3), 0),
            Hello::Client(ClientId(900)),
            Hello::ServerLane(ServerId(2), 3),
            Hello::ServerLane(ServerId(0), u16::MAX),
        ] {
            let bytes = hello.encode();
            assert_eq!(Hello::decode(&bytes).unwrap(), hello);
            assert_eq!(Hello::encoded_len(bytes[0]), Some(bytes.len()));
        }
        assert_eq!(Hello::encoded_len(0x09), None);
        assert!(Hello::decode(&[0x09]).is_err());
        assert!(Hello::decode(&[0x03, 0x00, 0x01]).is_err());
    }

    #[test]
    fn every_server_hello_names_its_lane() {
        // Lane 0 included: the pre-lane server role (0x01) is retired,
        // and a peer still sending it is turned away.
        assert_eq!(
            &Hello::ServerLane(ServerId(4), 0).encode()[..],
            [0x03, 0x00, 0x04, 0x00, 0x00]
        );
        assert_eq!(
            &Hello::ServerLane(ServerId(4), 1).encode()[..],
            [0x03, 0x00, 0x04, 0x00, 0x01]
        );
        assert_eq!(Hello::encoded_len(0x01), None);
        assert!(Hello::decode(&[0x01, 0x00, 0x04]).is_err());
    }

    #[test]
    fn decode_shared_agrees_on_every_sample() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            assert_eq!(decode_shared(&bytes).expect("decode_shared"), msg);
            assert_eq!(
                decode_shared(&bytes).expect("decode_shared"),
                decode(&bytes).expect("decode"),
                "shared/copied divergence for {msg}"
            );
        }
    }

    #[test]
    fn decode_shared_rejects_trailing_bytes_and_truncation() {
        let msg = Message::ReadReq {
            object: ObjectId(0),
            request: RequestId(1),
        };
        // Deliberate copy: the test appends a trailing byte, which needs
        // an owned, growable buffer.
        let mut bytes = encode(&msg).to_vec();
        bytes.push(0);
        assert_eq!(
            decode_shared(&Bytes::from(bytes.clone())),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
        bytes.truncate(3);
        assert!(matches!(
            decode_shared(&Bytes::from(bytes)),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn decode_shared_values_are_views_not_copies() {
        let value = Value::filled(0x5A, 64 * 1024);
        let msg = Message::WriteReq {
            object: ObjectId(7),
            request: RequestId(9),
            value,
        };
        let bytes = encode(&msg);
        let start = bytes.as_ptr() as usize;
        let end = start + bytes.len();
        match decode_shared(&bytes).expect("decode_shared") {
            Message::WriteReq { value, .. } => {
                let p = value.as_bytes().as_ptr() as usize;
                assert!(
                    p >= start && p + value.len() <= end,
                    "decoded value was copied out of the input buffer"
                );
            }
            other => panic!("decoded wrong variant: {other}"),
        }
    }

    #[test]
    fn only_a_value_over_half_its_buffer_keeps_it_pinned() {
        // A full ring batch of 1 KiB pre-writes: every value is copied
        // out, so the body is free while all 14 values are still held.
        let frames: Vec<RingFrame> = (0..14u8)
            .map(|i| {
                RingFrame::pre_write(
                    ObjectId(u32::from(i)),
                    Tag::new(1, ServerId(0)),
                    Value::filled(i, 1024),
                )
            })
            .collect();
        let batch = Message::RingBatch(frames);
        let bytes = encode(&batch);
        let held = decode_shared(&bytes).expect("decode_shared");
        assert_eq!(held, batch);
        assert!(
            bytes.try_into_mut().is_ok(),
            "a batch of small values pinned its body"
        );
        drop(held);

        // A lone 64 KiB write is a view: its body stays pinned for as
        // long as the value lives, and no longer.
        let bytes = encode(&Message::WriteReq {
            object: ObjectId(7),
            request: RequestId(9),
            value: Value::filled(0x5A, 64 * 1024),
        });
        let held = decode_shared(&bytes).expect("decode_shared");
        let bytes = bytes
            .try_into_mut()
            .expect_err("a 64 KiB value must pin its body");
        drop(held);
        assert!(bytes.try_into_mut().is_ok());
    }

    #[test]
    fn max_size_batch_roundtrips_through_decode_shared() {
        let frame = RingFrame::write(ObjectId(7), Tag::new(9, ServerId(1)));
        let msg = Message::RingBatch(vec![frame; MAX_BATCH_FRAMES]);
        let bytes = encode(&msg);
        assert_eq!(decode_shared(&bytes).expect("decode_shared"), msg);
        // And the empty edge.
        let empty = Message::RingBatch(Vec::new());
        assert_eq!(
            decode_shared(&encode(&empty)).expect("decode_shared"),
            empty
        );
    }
}
