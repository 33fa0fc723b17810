//! Length-prefixed message framing over TCP.
//!
//! Every wire message is a `u32` big-endian length followed by the codec
//! bytes. The write paths frame straight into the connection's own
//! reusable [`WriteBuf`] (at both the server and the session end), so
//! the hot loops (ring-batch staging, client-reply flushing, request
//! coalescing) neither allocate nor copy a message on its way to the
//! socket, and [`encode_ring_frames`] turns a whole frame batch into
//! **one** wire message (several only past the receiver's cap). The
//! read paths receive each body into reserved, unwritten capacity: a
//! declared length costs memory only as its bytes arrive.

use std::io::{self, Read, Write};

use bytes::{Bytes, BytesMut};
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

/// Writes one message: `u32` big-endian length, then the codec bytes,
/// then a flush. Allocates a fresh buffer per call; the runtime's own
/// write paths frame into reused buffers instead.
///
/// # Errors
///
/// Propagates socket errors; the caller treats any error as a dead peer.
pub fn write_message<W: Write>(writer: &mut W, msg: &Message) -> io::Result<()> {
    let mut buf = BytesMut::with_capacity(4 + codec::wire_size(msg));
    frame_into(&mut buf, msg);
    writer.write_all(&buf)?;
    writer.flush()
}

/// Encodes a staged batch of ring frames onto `buf`, length prefixes
/// included: a lone frame travels as [`Message::Ring`], several as
/// [`Message::RingBatch`], in order (the batch is the FIFO link's
/// contents). A batch too large for one message under
/// [`MAX_FRAME_BYTES`] goes as several consecutive ones: the receiver
/// takes an oversized message for a broken link. The lane passes its
/// link's [`WriteBuf`] and lets epoll writability drive the sends.
/// Returns the frames' summed [`codec::frame_wire_size`]; an empty batch
/// encodes to nothing.
pub(crate) fn encode_ring_frames(frames: &[RingFrame], buf: &mut BytesMut) -> usize {
    encode_ring_frames_within(frames, buf, MAX_FRAME_BYTES)
}

/// [`encode_ring_frames`] with each wire message at most `cap` bytes,
/// length prefix included — but for a lone frame larger than that, which
/// goes alone.
fn encode_ring_frames_within(frames: &[RingFrame], buf: &mut BytesMut, cap: usize) -> usize {
    let mut total = 0;
    let mut rest = frames;
    while !rest.is_empty() {
        // The longest prefix that fits behind a batch message's length
        // prefix, discriminant and count (7 bytes).
        let (mut n, mut sum) = (0, 0);
        for size in rest.iter().map(codec::frame_wire_size) {
            if n > 0 && 7 + sum + size > cap {
                break;
            }
            (n, sum) = (n + 1, sum + size);
        }
        let (chunk, tail) = rest.split_at(n);
        let body = if n == 1 { 1 + sum } else { 3 + sum };
        buf.reserve(4 + body);
        buf.extend_from_slice(&(body as u32).to_be_bytes());
        if n == 1 {
            codec::encode_ring_into(&chunk[0], buf);
        } else {
            codec::encode_ring_batch_into(chunk, buf);
        }
        total += sum;
        rest = tail;
    }
    total
}

/// A connection's outbound bytes. Messages are framed straight into
/// [`tail`]; [`flush`] pushes as much as the socket accepts, remembers
/// its position across `WouldBlock` and retries `EINTR` internally.
///
/// [`tail`]: WriteBuf::tail
/// [`flush`]: WriteBuf::flush
#[derive(Default)]
pub(crate) struct WriteBuf {
    buf: BytesMut,
    pos: usize,
    /// Bytes the socket has taken over the buffer's lifetime.
    flushed: u64,
}

impl WriteBuf {
    /// An empty buffer.
    pub(crate) fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Bytes queued and not yet flushed.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything queued has been flushed.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the socket has taken over the buffer's lifetime: a message
    /// appended when `flushed() + len()` read `end` has entirely left
    /// once this reaches `end`.
    pub(crate) fn flushed(&self) -> u64 {
        self.flushed
    }

    /// The buffer to append the next bytes to, behind whatever is still
    /// unflushed. The flushed prefix is compacted away once it is at
    /// least as long as the unflushed rest, so every byte copied is paid
    /// for by a byte already gone.
    pub(crate) fn tail(&mut self) -> &mut BytesMut {
        let rest = self.len();
        if self.pos > 0 && self.pos >= rest {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(rest);
            self.pos = 0;
        }
        &mut self.buf
    }

    /// Writes as much as the socket accepts. `Ok(true)` means fully
    /// drained; `Ok(false)` means the socket pushed back (`WouldBlock`)
    /// and the caller should wait for write readiness. `EINTR` retries
    /// internally; partial writes advance the position.
    ///
    /// # Errors
    ///
    /// Real socket errors, plus `WriteZero` if the socket claims to
    /// accept zero bytes.
    pub(crate) fn flush<W: Write>(&mut self, writer: &mut W) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match writer.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.pos += n;
                    self.flushed += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// Checks a declared body length against [`MAX_FRAME_BYTES`].
fn check_frame_len(len: usize) -> io::Result<()> {
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    Ok(())
}

/// Reads the rest of a `len`-byte body into `body`'s spare capacity:
/// std's `read_to_end` hands the socket uninitialised memory, so nothing
/// is zero-filled first and a body that never arrives costs no resident
/// memory. A buffer that has to grow grows to exactly `len`, so a value
/// view pins no slack. `Ok` means the body is complete; a `WouldBlock`
/// from a nonblocking `reader` surfaces as an error with the bytes read
/// so far kept in `body`.
fn read_body<R: Read>(reader: &mut R, body: &mut Vec<u8>, len: usize) -> io::Result<()> {
    let rest = len - body.len();
    if rest > 0 {
        body.reserve_exact(rest);
        Read::take(reader, rest as u64).read_to_end(body)?;
        if body.len() < len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
    }
    Ok(())
}

/// Decodes a complete body with [`codec::decode_shared`]. When no value
/// view took a reference to it (or the decode failed), the allocation
/// goes back into `spare` for the next message. A body that landed in a
/// recycled buffer larger than itself is decoded by copy instead: a view
/// would pin the whole buffer, not just the body.
fn decode_body(body: Vec<u8>, spare: &mut Vec<u8>) -> io::Result<Message> {
    let invalid = |e| io::Error::new(io::ErrorKind::InvalidData, e);
    if body.capacity() > body.len() {
        let msg = codec::decode(&body).map_err(invalid);
        *spare = body;
        return msg;
    }
    let bytes = Bytes::from(body);
    let msg = codec::decode_shared(&bytes).map_err(invalid);
    if let Ok(reclaimed) = bytes.try_into_mut() {
        *spare = reclaimed.into();
    }
    msg
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
/// single [`Bytes`](bytes::Bytes) allocation and decodes it with
/// [`codec::decode_shared`], so a [`Value`] that is most of its message
/// (a client write, a lone pre-write) is a refcounted **view** of the
/// receive buffer — no copy — and smaller values are copied out.
///
/// The reader keeps one spare buffer: when a decoded message holds no
/// value view (acks, read requests, tag-only ring notices, batches of
/// small values — the majority of wire traffic), the buffer's refcount
/// drops back to one and it is reclaimed for the next read, mirroring
/// the write side's reused per-connection buffers. A message with a
/// view keeps its buffer alive for exactly as long as the value does.
///
/// [`Value`]: hts_types::Value
#[derive(Default)]
pub struct MessageReader {
    spare: Vec<u8>,
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
        check_frame_len(len)?;
        let mut body = std::mem::take(&mut self.spare);
        body.clear();
        read_body(reader, &mut body, len)?;
        decode_body(body, &mut self.spare)
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
    /// Header bytes read so far.
    filled: usize,
    body: Vec<u8>,
    /// The declared body length, from a complete header until the body
    /// completes.
    want: Option<usize>,
}

impl NbMessageReader {
    /// An empty reader.
    pub fn new() -> NbMessageReader {
        NbMessageReader {
            header: [0; 4],
            filled: 0,
            body: Vec::new(),
            want: None,
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
            let Some(len) = self.want else {
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
                check_frame_len(len)?;
                self.body.clear();
                self.filled = 0;
                self.want = Some(len);
                continue;
            };
            match read_body(reader, &mut self.body, len) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(MessagePoll::Pending),
                Err(e) => return Err(e),
            }
            self.want = None;
            let body = std::mem::take(&mut self.body);
            return decode_body(body, &mut self.body).map(MessagePoll::Msg);
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
        let mut a = Vec::new();
        write_message(&mut a, &msg).unwrap();
        // A reused buffer frames the same bytes, message after message.
        let mut scratch = BytesMut::new();
        frame_into(&mut scratch, &msg);
        frame_into(&mut scratch, &msg);
        assert_eq!(&scratch[..a.len()], &a[..]);
        assert_eq!(&scratch[a.len()..], &a[..]);
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

        // Several frames: one RingBatch wire message, order preserved,
        // appended behind what the buffer already holds.
        let many = vec![
            RingFrame::pre_write(ObjectId(1), tag, Value::filled(1, 100)),
            RingFrame::write(ObjectId(2), tag),
            RingFrame::write(ObjectId(3), tag),
        ];
        encode_ring_frames(&many, &mut scratch);
        let mut cursor = &scratch[..];
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            Message::Ring(single[0].clone())
        );
        assert_eq!(read_message(&mut cursor).unwrap(), Message::RingBatch(many));
        assert!(cursor.is_empty());

        // Empty batch: nothing on the wire.
        scratch.clear();
        encode_ring_frames(&[], &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn a_batch_past_the_receiver_cap_goes_as_consecutive_messages_within_it() {
        let tag = Tag::new(2, ServerId(1));
        let frames: Vec<RingFrame> = (0..12)
            .map(|i| RingFrame::pre_write(ObjectId(i), tag, Value::filled(i as u8, 40)))
            .collect();
        let summed: usize = frames.iter().map(codec::frame_wire_size).sum();
        let cap = 200;
        assert!(summed > 2 * cap);
        let mut buf = BytesMut::new();
        assert_eq!(encode_ring_frames_within(&frames, &mut buf, cap), summed);

        let mut cursor = &buf[..];
        let (mut messages, mut got) = (0, Vec::new());
        while !cursor.is_empty() {
            let len = u32::from_be_bytes(cursor[..4].try_into().unwrap()) as usize;
            assert!(4 + len <= cap, "a {}-byte message past the cap", 4 + len);
            match read_message(&mut cursor).unwrap() {
                Message::Ring(frame) => got.push(frame),
                Message::RingBatch(batch) => got.extend(batch),
                other => panic!("not ring traffic: {other}"),
            }
            messages += 1;
        }
        assert!(messages > 2, "{messages} messages");
        assert_eq!(got, frames, "every frame, in order");

        // A lone frame past the cap is unshippable batched or not: it
        // goes alone rather than wedge the link.
        let big = RingFrame::pre_write(ObjectId(1), tag, Value::filled(1, 500));
        buf.clear();
        encode_ring_frames_within(std::slice::from_ref(&big), &mut buf, cap);
        assert_eq!(read_message(&mut &buf[..]).unwrap(), Message::Ring(big));
    }

    /// A writer that doles out a script of results one call at a time and
    /// keeps what it accepted.
    struct Sink {
        steps: std::collections::VecDeque<WriteStep>,
        got: Vec<u8>,
    }

    enum WriteStep {
        WouldBlock,
        Interrupt,
        Accept(usize),
    }

    impl Sink {
        fn new(steps: Vec<WriteStep>) -> Sink {
            Sink {
                steps: steps.into(),
                got: Vec::new(),
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                Some(WriteStep::Accept(n)) => {
                    let n = n.min(buf.len());
                    self.got.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                Some(WriteStep::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
                Some(WriteStep::Interrupt) => Err(io::ErrorKind::Interrupted.into()),
                None => unreachable!("write past the end of the script"),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_resumes_partial_writes_across_wouldblock() {
        let mut wb = WriteBuf::new();
        wb.tail().extend_from_slice(b"abcdefgh");
        let mut sink = Sink::new(vec![
            WriteStep::Accept(5),
            WriteStep::Interrupt,
            WriteStep::WouldBlock,
        ]);
        assert!(!wb.flush(&mut sink).unwrap());
        assert!(!wb.is_empty());

        // More bytes arrive while blocked; the drained prefix compacts.
        wb.tail().extend_from_slice(b"ij");
        assert_eq!(&wb.buf[..], b"fghij");
        sink.steps = vec![WriteStep::Accept(4), WriteStep::Accept(64)].into();
        assert!(wb.flush(&mut sink).unwrap());
        assert!(wb.is_empty());
        assert_eq!(sink.got, b"abcdefghij");
    }

    #[test]
    fn write_buf_compacts_only_a_prefix_as_long_as_the_rest_and_counts_flushed_bytes() {
        let mut wb = WriteBuf::new();
        wb.tail().extend_from_slice(b"abcdefgh");
        let mut sink = Sink::new(vec![WriteStep::Accept(3), WriteStep::WouldBlock]);
        assert!(!wb.flush(&mut sink).unwrap());
        assert_eq!((wb.len(), wb.flushed()), (5, 3));

        // 3 flushed bytes against 5 unflushed: appending copies nothing.
        wb.tail().extend_from_slice(b"ij");
        assert_eq!(&wb.buf[..], b"abcdefghij");
        sink.steps = vec![WriteStep::Accept(4), WriteStep::WouldBlock].into();
        assert!(!wb.flush(&mut sink).unwrap());
        assert_eq!((wb.len(), wb.flushed()), (3, 7));

        // 7 flushed against 3 unflushed: the next append compacts first.
        wb.tail().extend_from_slice(b"k");
        assert_eq!(&wb.buf[..], b"hijk");
        sink.steps = vec![WriteStep::Accept(64)].into();
        assert!(wb.flush(&mut sink).unwrap());
        assert_eq!((wb.len(), wb.flushed()), (0, 11));
        assert_eq!(sink.got, b"abcdefghijk");
    }

    #[test]
    fn write_buf_surfaces_write_zero() {
        let mut wb = WriteBuf::new();
        wb.tail().extend_from_slice(b"x");
        let mut sink = Sink::new(vec![WriteStep::Accept(0)]);
        assert_eq!(
            wb.flush(&mut sink).unwrap_err().kind(),
            io::ErrorKind::WriteZero
        );
    }

    #[test]
    fn write_buf_frames_in_place() {
        let msg = Message::WriteAck {
            object: ObjectId(2),
            request: RequestId(8),
        };
        let mut wb = WriteBuf::new();
        frame_into(wb.tail(), &msg);
        frame_into(wb.tail(), &msg);
        let mut sink = Sink::new(vec![WriteStep::Accept(usize::MAX)]);
        assert!(wb.flush(&mut sink).unwrap());
        assert_eq!(sink.got, wire(&[&msg, &msg]));
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
    fn a_value_never_pins_a_recycled_buffer_larger_than_its_body() {
        let batch = Message::RingBatch(
            (0..14)
                .map(|i| {
                    RingFrame::pre_write(
                        ObjectId(i),
                        Tag::new(1, ServerId(0)),
                        Value::filled(1, 1024),
                    )
                })
                .collect(),
        );
        let write = Message::WriteReq {
            object: ObjectId(1),
            request: RequestId(2),
            value: Value::filled(9, 1024),
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &batch).unwrap();
        write_message(&mut buf, &write).unwrap();

        let mut reader = MessageReader::new();
        let mut cursor = &buf[..];
        let held_batch = reader.read(&mut cursor).unwrap();
        // Every batched value was copied out, so the body came back.
        let recycled = reader.spare.as_ptr() as usize;
        let recycled_end = recycled + reader.spare.capacity();
        assert!(reader.spare.capacity() > 14 * 1024);

        // The write's value is most of its body, but the body sat in
        // the batch's larger buffer: it is copied and the buffer kept.
        let Message::WriteReq { value, .. } = reader.read(&mut cursor).unwrap() else {
            panic!("wrong message");
        };
        assert_eq!(reader.spare.as_ptr() as usize, recycled);
        let p = value.as_bytes().as_ptr() as usize;
        assert!(p + value.len() <= recycled || p >= recycled_end);
        assert_eq!(held_batch, batch);
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
    fn nb_reader_matches_the_blocking_reader_under_random_chunking() {
        use rand::{Rng, SeedableRng};

        let tag = Tag::new(5, ServerId(2));
        let msgs = [
            Message::WriteReq {
                object: ObjectId(1),
                request: RequestId(1),
                value: Value::filled(3, 70_000),
            },
            Message::ReadReq {
                object: ObjectId(2),
                request: RequestId(2),
            },
            Message::RingBatch(vec![
                RingFrame::pre_write(ObjectId(3), tag, Value::filled(4, 9_000)),
                RingFrame::write(ObjectId(4), tag),
            ]),
            Message::WriteAck {
                object: ObjectId(5),
                request: RequestId(3),
            },
            Message::ReadAck {
                object: ObjectId(6),
                request: RequestId(4),
                value: Value::filled(6, 20),
            },
            Message::Ring(RingFrame::write(ObjectId(7), tag)),
        ];
        let bytes = wire(&msgs.iter().collect::<Vec<_>>());
        let mut blocking = MessageReader::new();
        let mut cursor = &bytes[..];
        let expected: Vec<Message> = msgs
            .iter()
            .map(|_| blocking.read(&mut cursor).unwrap())
            .collect();
        assert!(cursor.is_empty());

        for seed in 0..64u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut steps = std::collections::VecDeque::new();
            let mut at = 0;
            while at < bytes.len() {
                let max: usize = if rng.gen_bool(0.5) { 16 } else { 40_000 };
                let end = (at + rng.gen_range(1..=max)).min(bytes.len());
                steps.push_back(Step::Data(bytes[at..end].to_vec()));
                if rng.gen_bool(0.2) {
                    steps.push_back(Step::Interrupt);
                }
                steps.push_back(Step::WouldBlock);
                at = end;
            }
            steps.push_back(Step::Eof);
            let mut src = Script(steps);
            let mut reader = NbMessageReader::new();
            let mut got = Vec::new();
            loop {
                match reader.poll(&mut src) {
                    Ok(MessagePoll::Msg(msg)) => got.push(msg),
                    Ok(MessagePoll::Pending) => {}
                    Ok(MessagePoll::Closed) => break,
                    Err(e) => panic!("seed {seed}: {e}"),
                }
            }
            assert_eq!(got, expected, "seed {seed}");
        }
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
