//! A blocking TCP client.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use hts_core::ClientCore;
use hts_types::{codec::Hello, ClientId, Message, ObjectId, RequestId, ServerId, Value};

use crate::framing::{write_message_with, MessageReader};

/// A synchronous client of a TCP `hts` cluster.
///
/// Wraps [`ClientCore`]: one operation in flight, a reply timeout, and
/// retry against the next server when the contacted one is silent or its
/// connection breaks — the paper's client behaviour (§3).
///
/// See the [crate docs](crate) for an example.
pub struct Client {
    core: ClientCore,
    addrs: Vec<SocketAddr>,
    connections: Vec<Option<TcpStream>>,
    id: ClientId,
    timeout: Duration,
    /// Reusable encode buffer: one allocation for the client's lifetime
    /// instead of one per request.
    scratch: BytesMut,
    /// Reusable decode buffer, same deal: value-free replies (write
    /// acks) recycle one receive allocation across messages.
    reader: MessageReader,
    /// Stats requests issued so far; their ids count *down* from
    /// `u64::MAX` so they can never collide with the core's op request
    /// ids (which count up from 1).
    stats_seq: u64,
}

/// Retry budget shared by [`Client`] and [`Session`](crate::Session):
/// an operation is abandoned after this many full cycles of attempts
/// around the ring (`addrs.len() * RETRY_CYCLES` sends in total).
pub(crate) const RETRY_CYCLES: usize = 8;

/// Validates a cluster address map: non-empty, small enough to index by
/// [`ServerId`], and containing `preferred`. Shared by [`Client`] and
/// [`Session`](crate::Session) so a bad deployment description surfaces
/// as a real connect error instead of a panic deep in a worker thread.
pub(crate) fn validate_addrs(addrs: &[SocketAddr], preferred: ServerId) -> io::Result<()> {
    if addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "need at least one server address",
        ));
    }
    if addrs.len() > usize::from(u16::MAX) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} servers exceed the u16 ServerId space", addrs.len()),
        ));
    }
    if preferred.index() >= addrs.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{preferred} outside the {}-server address map", addrs.len()),
        ));
    }
    Ok(())
}

/// Unwraps the value of a completed read: the core attaches one to every
/// read completion, so its absence is a protocol bug — reported to the
/// caller, not panicked on the client thread. Shared by [`Client`] and
/// [`Session`](crate::Session).
pub(crate) fn require_read_value(value: Option<Value>) -> io::Result<Value> {
    value.ok_or_else(|| io::Error::other("read completed without a value"))
}

impl Client {
    /// Connects lazily to a cluster at `addrs` (indexed by [`ServerId`]).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] for an empty or oversized
    /// address map. Connections themselves are opened on first use, so
    /// unreachable servers surface from the operations, not from here.
    pub fn connect(id: u32, addrs: Vec<SocketAddr>) -> io::Result<Client> {
        Client::connect_preferring(id, addrs, ServerId(0))
    }

    /// Connects lazily, preferring `preferred` as the first server to
    /// contact (useful for pinning load, and for tests that must observe
    /// one specific server — e.g. a freshly restarted one).
    ///
    /// # Errors
    ///
    /// As [`Client::connect`], plus [`io::ErrorKind::InvalidInput`] when
    /// `preferred` is outside the address map.
    pub fn connect_preferring(
        id: u32,
        addrs: Vec<SocketAddr>,
        preferred: ServerId,
    ) -> io::Result<Client> {
        validate_addrs(&addrs, preferred)?;
        let n = addrs.len() as u16;
        let id = ClientId(id);
        Ok(Client {
            core: ClientCore::new(id, ObjectId::SINGLE, n, preferred),
            addrs,
            connections: (0..n).map(|_| None).collect(),
            id,
            timeout: Duration::from_millis(500),
            scratch: BytesMut::new(),
            reader: MessageReader::new(),
            stats_seq: 0,
        })
    }

    /// Sets the per-attempt reply timeout (default 500 ms).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// The alive-map the client routes by (test/diagnostic hook): entry
    /// `s` is `false` while server `s` is suspected crashed. Suspicions
    /// recover on successful reconnects and periodic re-probes.
    pub fn believed_alive(&self) -> &[bool] {
        self.core.believed_alive()
    }

    /// Writes `value` to the register, blocking until acknowledged.
    ///
    /// # Errors
    ///
    /// Fails only when every server is unreachable for a full retry cycle.
    pub fn write(&mut self, value: Value) -> io::Result<()> {
        let (request, server, msg) = self.core.begin_write(value);
        let _ = request;
        self.run_to_completion(server, msg).map(|_| ())
    }

    /// Writes `value` into register `object` (multi-register stores).
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn write_to(&mut self, object: ObjectId, value: Value) -> io::Result<()> {
        let (_, server, msg) = self.core.begin_write_to(object, value);
        self.run_to_completion(server, msg).map(|_| ())
    }

    /// Reads the register, blocking until a server answers.
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn read(&mut self) -> io::Result<Value> {
        let (_, server, msg) = self.core.begin_read();
        self.run_to_completion(server, msg)
            .and_then(require_read_value)
    }

    /// Reads register `object`.
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn read_from(&mut self, object: ObjectId) -> io::Result<Value> {
        let (_, server, msg) = self.core.begin_read_from(object);
        self.run_to_completion(server, msg)
            .and_then(require_read_value)
    }

    fn run_to_completion(
        &mut self,
        mut server: ServerId,
        mut msg: Message,
    ) -> io::Result<Option<Value>> {
        // Each attempt: (re)connect, send, await the matching reply until
        // the timeout, else rotate to the next server via the core.
        let max_attempts = self.addrs.len() * RETRY_CYCLES;
        for _ in 0..max_attempts {
            let outcome = self.attempt(server, &msg);
            match outcome {
                Ok(Some(value)) => return Ok(value),
                Ok(None) | Err(_) => {
                    self.connections[server.index()] = None;
                    let request = match &msg {
                        Message::WriteReq { request, .. } | Message::ReadReq { request, .. } => {
                            *request
                        }
                        // ClientCore only ever hands out register requests
                        // (stats go through [`Client::stats`], not the
                        // core); a reply or ring frame here is a core bug,
                        // surfaced as an error rather than a client-thread
                        // panic.
                        Message::WriteAck { .. }
                        | Message::ReadAck { .. }
                        | Message::StatsRequest { .. }
                        | Message::StatsReply { .. }
                        | Message::Ring(_)
                        | Message::RingBatch(_) => {
                            return Err(io::Error::other("client core produced a non-request"))
                        }
                    };
                    // A socket-level error (refused, reset, broken pipe)
                    // is the failure detector speaking: mark the server
                    // suspect so future operations skip it, where a mere
                    // silence (`Ok(None)`) only rotates this request. A
                    // suspicion is never forever — reconnects, re-probes
                    // and completions heal the alive-map.
                    let resend = if outcome.is_err() {
                        self.core.on_server_down(server)
                    } else {
                        None
                    }
                    .or_else(|| self.core.on_timeout(request));
                    match resend {
                        Some((next_server, next_msg)) => {
                            server = next_server;
                            msg = next_msg;
                        }
                        None => return Err(io::Error::other("request completed out of band")),
                    }
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no server answered after a full retry cycle",
        ))
    }

    /// One attempt against one server. `Ok(Some)` = completed; `Ok(None)` =
    /// timed out waiting (server alive but slow, or reply lost). The
    /// whole attempt — including any number of stale replies from
    /// earlier attempts — runs under ONE deadline: each stale reply
    /// shrinks the remaining read budget instead of resetting it, so a
    /// burst of stale traffic can never extend an attempt beyond its
    /// per-attempt timeout (the retry/rotation logic upstream depends on
    /// attempts actually ending on time).
    fn attempt(&mut self, server: ServerId, msg: &Message) -> io::Result<Option<Option<Value>>> {
        self.ensure_connection(server)?;
        let deadline = Instant::now() + self.timeout;
        // Field-disjoint borrows: the socket, the protocol core and the
        // scratch encode buffer.
        let Client {
            connections,
            core,
            scratch,
            reader,
            timeout,
            ..
        } = self;
        let Some(stream) = connections[server.index()].as_mut() else {
            return Err(io::Error::other("connection lost between ensure and send"));
        };
        // A previous attempt's stale-reply handling may have left a
        // shrunken read timeout on this reused connection.
        stream.set_read_timeout(Some(*timeout))?;
        write_message_with(stream, msg, scratch)?;
        loop {
            match reader.read(stream) {
                Ok(reply) => {
                    if let Some(done) = core.on_reply(&reply) {
                        return Ok(Some(done.value));
                    }
                    // Stale reply from an earlier attempt: keep waiting,
                    // but only for what is left of THIS attempt's budget.
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Ok(None);
                    }
                    stream.set_read_timeout(Some(remaining))?;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches `server`'s live metrics registry as Prometheus-style text
    /// exposition (the server-side [`hts_metrics::render`]; empty when
    /// the server was built with the `metrics` feature off).
    ///
    /// Stats deliberately bypass the retry rotation: the caller asks ONE
    /// server for ITS process-wide registry — a different server
    /// answering would silently report the wrong process. The exchange
    /// still runs under the ordinary per-attempt timeout and tolerates
    /// stale op replies arriving on the shared connection.
    ///
    /// # Errors
    ///
    /// Connect, send and timeout errors against that specific server.
    pub fn stats(&mut self, server: ServerId) -> io::Result<String> {
        if server.index() >= self.addrs.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{server} outside the {}-server address map",
                    self.addrs.len()
                ),
            ));
        }
        self.ensure_connection(server)?;
        self.stats_seq += 1;
        let request = RequestId(u64::MAX - self.stats_seq);
        let deadline = Instant::now() + self.timeout;
        let result = await_stats_reply(
            self.connections[server.index()].as_mut(),
            &mut self.scratch,
            &mut self.reader,
            self.timeout,
            deadline,
            request,
        );
        if result.is_err() {
            // Socket-level failures poison the connection exactly like a
            // failed op attempt; the next call reconnects.
            self.connections[server.index()] = None;
        }
        result
    }

    /// (Re)opens the connection to `server`, bounding the TCP connect by
    /// the same per-attempt timeout as replies: a SYN-blackholed server
    /// (dead host, dropped packets, full accept backlog) must cost one
    /// attempt budget, not the OS connect timeout of minutes — the
    /// caller then rotates to the next server exactly as it does for a
    /// silent one.
    fn ensure_connection(&mut self, server: ServerId) -> io::Result<()> {
        if self.connections[server.index()].is_none() {
            let mut stream = TcpStream::connect_timeout(&self.addrs[server.index()], self.timeout)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(self.timeout))?;
            stream.write_all(&Hello::Client(self.id).encode())?;
            self.connections[server.index()] = Some(stream);
            // A successful (re)connect is proof of life: clear any
            // suspicion so routing may prefer this server again — this
            // is how a restarted server stops being shunned forever.
            self.core.on_server_up(server);
        }
        Ok(())
    }
}

/// One send-and-await round for [`Client::stats`]: writes the request,
/// then reads until the matching [`Message::StatsReply`] arrives. Stale
/// replies (from earlier timed-out ops or stats attempts) only spend the
/// remaining attempt budget — they never reset it.
fn await_stats_reply(
    stream: Option<&mut TcpStream>,
    scratch: &mut BytesMut,
    reader: &mut MessageReader,
    timeout: Duration,
    deadline: Instant,
    request: RequestId,
) -> io::Result<String> {
    let Some(stream) = stream else {
        return Err(io::Error::other("connection lost between ensure and send"));
    };
    stream.set_read_timeout(Some(timeout))?;
    write_message_with(stream, &Message::StatsRequest { request }, scratch)?;
    let timed_out = || io::Error::new(io::ErrorKind::TimedOut, "no stats reply within the timeout");
    loop {
        match reader.read(stream) {
            Ok(Message::StatsReply { request: r, text }) if r == request => {
                return Ok(String::from_utf8_lossy(text.as_bytes()).into_owned());
            }
            // Every non-matching message is equally stale here: it only
            // spends budget, nothing dispatches on its variant.
            // lint: allow(message_catch_all): no per-variant behavior
            Ok(_) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(timed_out());
                }
                stream.set_read_timeout(Some(remaining))?;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(timed_out());
            }
            Err(e) => return Err(e),
        }
    }
}
