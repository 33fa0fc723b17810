//! Length-prefixed message framing over TCP.
//!
//! Every wire message is a `u32` big-endian length followed by the codec
//! bytes. The write paths thread a reusable scratch [`BytesMut`] so the
//! hot loops (ring-batch staging, client-reply flushing, the blocking
//! client) never allocate a fresh buffer per message, and
//! [`encode_ring_frames`] turns a whole frame batch into **one** wire
//! message.

use std::io::{self, Read, Write};

use bytes::BytesMut;
use hts_poll::{read_nb, ReadStatus};
use hts_types::{codec, Message, RingFrame};

/// Upper bound on a frame body (64 MiB): guards against corrupt length
/// prefixes allocating unbounded memory.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Appends one length-prefixed message to `buf` without touching the
/// socket (compose several, then flush once).
pub fn frame_into(buf: &mut BytesMut, msg: &Message) {
    let size = codec::wire_size(msg);
    buf.reserve(4 + size);
    buf.extend_from_slice(&(size as u32).to_be_bytes());
    codec::encode_into(msg, buf);
}

/// Writes one message through a caller-owned scratch buffer (cleared
/// first), avoiding the per-call allocation of [`write_message`].
///
/// # Errors
///
/// Propagates socket errors; the caller treats any error as a dead peer.
pub fn write_message_with<W: Write>(
    writer: &mut W,
    msg: &Message,
    scratch: &mut BytesMut,
) -> io::Result<()> {
    scratch.clear();
    frame_into(scratch, msg);
    writer.write_all(scratch)?;
    writer.flush()
}

/// Writes one message: `u32` big-endian length, then the codec bytes.
/// Allocates a fresh buffer per call — prefer [`write_message_with`] on
/// hot paths.
///
/// # Errors
///
/// Propagates socket errors; the caller treats any error as a dead peer.
pub fn write_message<W: Write>(writer: &mut W, msg: &Message) -> io::Result<()> {
    let mut scratch = BytesMut::with_capacity(4 + codec::wire_size(msg));
    write_message_with(writer, msg, &mut scratch)
}

/// Encodes a coalesced batch of ring frames as **one** wire message: a
/// lone frame travels as [`Message::Ring`], several as
/// [`Message::RingBatch`] (frames keep their order — the batch is the
/// FIFO link's contents). Clears `scratch` and fills it with the
/// complete wire bytes, length prefix included; the lane stages them in
/// its per-connection write buffer and lets epoll writability drive the
/// actual sends. An empty batch encodes to nothing.
pub(crate) fn encode_ring_frames(frames: &[RingFrame], scratch: &mut BytesMut) {
    scratch.clear();
    if frames.is_empty() {
        return;
    }
    let body = if frames.len() == 1 {
        1 + codec::frame_wire_size(&frames[0])
    } else {
        3 + frames.iter().map(codec::frame_wire_size).sum::<usize>()
    };
    scratch.reserve(4 + body);
    scratch.extend_from_slice(&(body as u32).to_be_bytes());
    if frames.len() == 1 {
        codec::encode_ring_into(&frames[0], scratch);
    } else {
        codec::encode_ring_batch_into(frames, scratch);
    }
}

/// Reads one message framed by [`write_message`].
///
/// One-shot form of [`MessageReader`]; loops should hold a
/// `MessageReader` so value-free messages recycle their read buffer.
///
/// # Errors
///
/// `UnexpectedEof` on clean peer shutdown, `InvalidData` on oversized or
/// undecodable frames, otherwise the underlying socket error.
pub fn read_message<R: Read>(reader: &mut R) -> io::Result<Message> {
    MessageReader::new().read(reader)
}

/// The zero-copy inbound path: reads each length-prefixed message into a
/// single [`Bytes`] allocation and decodes it with
/// [`codec::decode_shared`], so every contained [`Value`] is a
/// refcounted **view** of the receive buffer — no per-value copy.
///
/// The reader keeps one spare buffer: when a decoded message carries no
/// value views (acks, read requests, tag-only ring notices — the
/// majority of wire traffic), the buffer's refcount drops back to one
/// and it is reclaimed for the next read, mirroring the write side's
/// scratch framing. Value-bearing messages keep their buffer alive for
/// exactly as long as the values do.
///
/// [`Value`]: hts_types::Value
#[derive(Default)]
pub struct MessageReader {
    spare: BytesMut,
}

impl MessageReader {
    /// An empty reader (no buffer until the first read needs one).
    pub fn new() -> MessageReader {
        MessageReader::default()
    }

    /// Reads one message framed by [`write_message`].
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` on clean peer shutdown, `InvalidData` on
    /// oversized or undecodable frames, otherwise the underlying socket
    /// error.
    pub fn read<R: Read>(&mut self, reader: &mut R) -> io::Result<Message> {
        let mut len_bytes = [0u8; 4];
        reader.read_exact(&mut len_bytes)?;
        let len = u32::from_be_bytes(len_bytes) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
            ));
        }
        let mut body = std::mem::take(&mut self.spare);
        body.clear();
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
        let bytes = body.freeze();
        let msg =
            codec::decode_shared(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
        // No value view took a reference (or the decode failed): take
        // the allocation back for the next message.
        if let Ok(reclaimed) = bytes.try_into_mut() {
            self.spare = reclaimed;
        }
        msg
    }
}

/// Result of one [`NbMessageReader::poll`].
#[derive(Debug)]
pub enum MessagePoll {
    /// A complete decoded message.
    Msg(Message),
    /// Mid-frame or nothing buffered; wait for readability.
    Pending,
    /// Clean EOF on a frame boundary.
    Closed,
}

/// Nonblocking twin of [`MessageReader`] for epoll-driven loops: the
/// same zero-copy decode and spare-buffer recycling, but assembled
/// across any number of partial reads instead of `read_exact`. Call
/// [`poll`] in a loop on each readability report until it returns
/// `Pending`.
///
/// [`poll`]: NbMessageReader::poll
pub struct NbMessageReader {
    header: [u8; 4],
    filled: usize,
    body: BytesMut,
    in_body: bool,
}

impl NbMessageReader {
    /// An empty reader.
    pub fn new() -> NbMessageReader {
        NbMessageReader {
            header: [0; 4],
            filled: 0,
            body: BytesMut::new(),
            in_body: false,
        }
    }

    /// Pulls bytes until a message completes, the socket would block,
    /// or it cleanly closes. Each `Msg` may be followed by more — drain
    /// the readiness burst by looping until `Pending`.
    ///
    /// # Errors
    ///
    /// `InvalidData` on oversized or undecodable frames,
    /// `UnexpectedEof` on a mid-frame close, otherwise the socket
    /// error (`Interrupted` is retried internally).
    pub fn poll<R: Read>(&mut self, reader: &mut R) -> io::Result<MessagePoll> {
        loop {
            if !self.in_body {
                let n = match read_nb(reader, &mut self.header[self.filled..])? {
                    ReadStatus::Data(n) => n,
                    ReadStatus::WouldBlock => return Ok(MessagePoll::Pending),
                    ReadStatus::Eof => {
                        if self.filled == 0 {
                            return Ok(MessagePoll::Closed);
                        }
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                };
                self.filled += n;
                if self.filled < 4 {
                    continue;
                }
                let len = u32::from_be_bytes(self.header) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
                    ));
                }
                self.body.clear();
                self.body.resize(len, 0);
                self.filled = 0;
                self.in_body = true;
                continue;
            }
            if self.filled < self.body.len() {
                let n = match read_nb(reader, &mut self.body[self.filled..])? {
                    ReadStatus::Data(n) => n,
                    ReadStatus::WouldBlock => return Ok(MessagePoll::Pending),
                    ReadStatus::Eof => return Err(io::ErrorKind::UnexpectedEof.into()),
                };
                self.filled += n;
                if self.filled < self.body.len() {
                    continue;
                }
            }
            self.in_body = false;
            self.filled = 0;
            let bytes = std::mem::take(&mut self.body).freeze();
            let msg = codec::decode_shared(&bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            // Value-free message (or failed decode): reclaim the
            // allocation for the next frame, like MessageReader.
            if let Ok(reclaimed) = bytes.try_into_mut() {
                self.body = reclaimed;
            }
            return Ok(MessagePoll::Msg(msg?));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_types::{ObjectId, RequestId, ServerId, Tag, Value};

    #[test]
    fn roundtrip_over_a_buffer() {
        let msg = Message::WriteReq {
            object: ObjectId(1),
            request: RequestId(2),
            value: Value::filled(7, 10_000),
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_message(&mut cursor).unwrap(), msg);
    }

    #[test]
    fn scratch_writer_matches_allocating_writer() {
        let msg = Message::ReadReq {
            object: ObjectId(4),
            request: RequestId(9),
        };
        let mut scratch = BytesMut::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_message(&mut a, &msg).unwrap();
        write_message_with(&mut b, &msg, &mut scratch).unwrap();
        // Re-use immediately: the scratch must be self-cleaning.
        let mut c = Vec::new();
        write_message_with(&mut c, &msg, &mut scratch).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn ring_batch_framing_roundtrips_both_arities() {
        let tag = Tag::new(3, ServerId(1));
        let mut scratch = BytesMut::new();

        // One frame: travels as a plain Ring message.
        let single = [RingFrame::write(ObjectId(1), tag)];
        encode_ring_frames(&single, &mut scratch);
        let mut cursor = &scratch[..];
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            Message::Ring(single[0].clone())
        );

        // Several frames: one RingBatch wire message, order preserved.
        let many = vec![
            RingFrame::pre_write(ObjectId(1), tag, Value::filled(1, 100)),
            RingFrame::write(ObjectId(2), tag),
            RingFrame::write(ObjectId(3), tag),
        ];
        encode_ring_frames(&many, &mut scratch);
        let mut cursor = &scratch[..];
        assert_eq!(read_message(&mut cursor).unwrap(), Message::RingBatch(many));

        // Empty batch: nothing on the wire.
        encode_ring_frames(&[], &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn reader_hands_out_views_and_recycles_value_free_buffers() {
        let with_value = Message::WriteReq {
            object: ObjectId(1),
            request: RequestId(2),
            value: Value::filled(9, 4096),
        };
        let value_free = Message::WriteAck {
            object: ObjectId(1),
            request: RequestId(2),
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &with_value).unwrap();
        write_message(&mut buf, &value_free).unwrap();
        write_message(&mut buf, &value_free).unwrap();

        let mut reader = MessageReader::new();
        let mut cursor = &buf[..];
        let decoded = reader.read(&mut cursor).unwrap();
        match &decoded {
            Message::WriteReq { value, .. } => assert_eq!(value.len(), 4096),
            other => panic!("wrong message: {other}"),
        }
        // The value pinned its buffer: the reader had to give it up.
        assert_eq!(reader.spare.len(), 0);

        assert_eq!(reader.read(&mut cursor).unwrap(), value_free);
        // A value-free message returns its buffer to the reader...
        let recycled = reader.spare.as_ptr();
        assert!(!reader.spare.is_empty() || reader.spare.capacity() > 0);
        assert_eq!(reader.read(&mut cursor).unwrap(), value_free);
        // ...and the next read reuses that same allocation.
        assert_eq!(reader.spare.as_ptr(), recycled);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut cursor = &buf[..];
        let err = read_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A nonblocking source that doles out a script of read results one
    /// call at a time.
    struct Script(std::collections::VecDeque<Step>);

    enum Step {
        Data(Vec<u8>),
        WouldBlock,
        Interrupt,
        Eof,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                Some(Step::Data(d)) => {
                    let n = d.len().min(buf.len());
                    buf[..n].copy_from_slice(&d[..n]);
                    if n < d.len() {
                        self.0.push_front(Step::Data(d[n..].to_vec()));
                    }
                    Ok(n)
                }
                Some(Step::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Step::Interrupt) => Err(io::ErrorKind::Interrupted.into()),
                Some(Step::Eof) | None => Ok(0),
            }
        }
    }

    fn wire(msgs: &[&Message]) -> Vec<u8> {
        let mut buf = Vec::new();
        for msg in msgs {
            write_message(&mut buf, msg).unwrap();
        }
        buf
    }

    fn expect_msg(poll: io::Result<MessagePoll>) -> Message {
        match poll.unwrap() {
            MessagePoll::Msg(msg) => msg,
            other => panic!("expected a message, got {other:?}"),
        }
    }

    #[test]
    fn nb_reader_survives_byte_at_a_time_delivery() {
        let msg = Message::WriteReq {
            object: ObjectId(3),
            request: RequestId(4),
            value: Value::filled(5, 40),
        };
        let bytes = wire(&[&msg]);
        let mut steps = std::collections::VecDeque::new();
        for b in &bytes {
            steps.push_back(Step::Data(vec![*b]));
            steps.push_back(Step::WouldBlock);
        }
        let mut src = Script(steps);
        let mut reader = NbMessageReader::new();
        // Every byte but the last leaves the reader pending.
        for _ in 1..bytes.len() {
            assert!(matches!(reader.poll(&mut src), Ok(MessagePoll::Pending)));
        }
        assert_eq!(expect_msg(reader.poll(&mut src)), msg);
    }

    #[test]
    fn nb_reader_drains_a_burst_and_retries_eintr() {
        let one = Message::ReadReq {
            object: ObjectId(1),
            request: RequestId(1),
        };
        let two = Message::WriteAck {
            object: ObjectId(2),
            request: RequestId(2),
        };
        let mut src =
            Script(vec![Step::Interrupt, Step::Data(wire(&[&one, &two])), Step::Eof].into());
        let mut reader = NbMessageReader::new();
        assert_eq!(expect_msg(reader.poll(&mut src)), one);
        assert_eq!(expect_msg(reader.poll(&mut src)), two);
        assert!(matches!(reader.poll(&mut src), Ok(MessagePoll::Closed)));
    }

    #[test]
    fn nb_reader_reports_midframe_close_and_oversize() {
        let msg = Message::ReadReq {
            object: ObjectId(0),
            request: RequestId(1),
        };
        let bytes = wire(&[&msg]);
        let mut src = Script(vec![Step::Data(bytes[..5].to_vec()), Step::Eof].into());
        let err = NbMessageReader::new().poll(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut src = Script(vec![Step::Data(u32::MAX.to_be_bytes().to_vec())].into());
        let err = NbMessageReader::new().poll(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_reports_eof() {
        let msg = Message::ReadReq {
            object: ObjectId(0),
            request: RequestId(1),
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = &buf[..];
        let err = read_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
