//! A pipelined TCP client session: many operations in flight on one
//! socket.
//!
//! [`Session`] is the transport for [`SessionCore`]: a **window** of
//! concurrent operations multiplexed over one connection per server.
//! The session is its own event loop, run on the caller's thread: it
//! owns one `hts-poll` poller and each connection's single nonblocking
//! socket, and one pipeline turn is one `epoll_wait` that reads every
//! reply that arrived (completions are matched asynchronously and out
//! of order) and resumes any send the socket pushed back on. There is
//! **no helper thread** — a session costs zero threads, however many
//! servers it talks to. The writer **coalesces** back-to-back requests
//! into one buffered write per burst (a pipeline fill of 64 small
//! requests costs one syscall, not 64). Every request keeps its own
//! deadline and retry budget: a bounded `connect_timeout`, per-attempt
//! deadlines that stale traffic cannot extend, and rotation to the next
//! server believed alive. The sequential [`Client`](crate::Client) is a
//! session with a window of one.

#![expect(
    clippy::disallowed_types,
    reason = "request deadlines and send stalls read the monotonic clock"
)]

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use hts_core::SessionCore;
use hts_poll::{Event, Events, Interest, Poller, Token};
use hts_types::{codec::Hello, ClientId, Message, ObjectId, RequestId, ServerId, Value};

use crate::framing::{frame_into, MessagePoll, NbMessageReader, WriteBuf};
use crate::server::validate_addrs;

/// Retry budget: an operation is abandoned after this many full cycles
/// of attempts around the ring (`addrs.len() * RETRY_CYCLES` sends in
/// total).
const RETRY_CYCLES: usize = 8;

/// A connection holding this many unsent bytes is flushed at once, and
/// no further operation begins until it is back under the cap (bounds
/// the send buffers under a pipeline of large writes).
const SEND_FLUSH_BYTES: usize = 256 * 1024;

struct Conn {
    /// The connection's one descriptor: nonblocking, registered with the
    /// session's poller under [`token`]`(gen, server)`.
    stream: TcpStream,
    reader: NbMessageReader,
    /// Encoded requests: the coalescing writer's buffer.
    out: WriteBuf,
    /// Requests with bytes still in `out`, oldest first, each with the
    /// value `out.flushed()` reaches as its last byte leaves. Retry deadlines
    /// arm at that moment, not when the request was encoded — a caller
    /// that sits between `begin_*` and `wait` must not make its own
    /// requests look timed out.
    staged: VecDeque<(RequestId, u64)>,
    /// `Some` while a send is parked on write readiness (a flush hit
    /// `WouldBlock`; the registration carries write interest exactly
    /// that long): the instant, one timeout after the socket last took
    /// bytes, at which the connection counts as stalled.
    stalls_at: Option<Instant>,
    /// Connection generation. Readiness reports carry it, so one for a
    /// connection replaced earlier in the same batch is ignored.
    gen: u64,
}

/// Unwraps the value of a completed read: the core attaches one to every
/// read completion, so its absence is a protocol bug — reported to the
/// caller, not panicked on the caller's thread.
pub(crate) fn require_read_value(value: Option<Value>) -> io::Result<Value> {
    value.ok_or_else(|| io::Error::other("read completed without a value"))
}

/// The poller token of connection generation `gen` to `server`.
fn token(gen: u64, server: ServerId) -> Token {
    Token(gen << 16 | u64::from(server.0))
}

/// A pipelined client of a TCP `hts` cluster: up to `window` operations
/// in flight concurrently over one session.
///
/// Operations start with [`begin_write`](Session::begin_write) /
/// [`begin_read`](Session::begin_read) (non-blocking while the window
/// has room, otherwise driving the pipeline until a slot frees) and
/// finish with [`wait`](Session::wait), in any order. Replies complete
/// whichever request they name — the server is free to answer
/// interleaved outstanding requests in any order.
///
/// The session runs on the thread that calls it and nowhere else.
/// Replies are consumed only inside `begin_*` (while the window or a
/// send buffer is full), [`wait`](Session::wait) and
/// [`drain`](Session::drain), so at most `window` replies ever sit
/// unread in a socket. A dead connection is noticed at the next of those
/// calls, which is when [`believed_alive`](Session::believed_alive)
/// moves. Dropping the session closes every socket and its poller; there
/// is nothing to join. `Session` is [`Send`].
///
/// # Examples
///
/// ```no_run
/// use hts_net::Session;
/// use hts_types::Value;
///
/// # fn main() -> std::io::Result<()> {
/// # let addrs = vec!["127.0.0.1:4000".parse().unwrap()];
/// let mut session = Session::connect(7, addrs, 8)?;
/// let puts: Vec<_> = (0..8)
///     .map(|i| session.begin_write(Value::from_u64(i)))
///     .collect::<Result<_, _>>()?;
/// for put in puts {
///     session.wait(put)?; // completions may arrive out of order
/// }
/// # Ok(())
/// # }
/// ```
pub struct Session {
    core: SessionCore,
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<Conn>>,
    /// Generation of the next connection opened.
    next_gen: u64,
    id: ClientId,
    timeout: Duration,
    poller: Poller,
    /// Readiness reports of the last wait: one slot per server.
    events: Events,
    /// Per-request retry deadline, armed when the request's bytes have
    /// left. A staged request has none: it leaves with the next flush,
    /// or its parked connection's stall clock covers it.
    deadlines: HashMap<RequestId, Instant>,
    /// Finished operations awaiting their `wait` call.
    completed: HashMap<RequestId, io::Result<Option<Value>>>,
    /// Stats requests issued so far; their ids count *down* from
    /// `u64::MAX` so they never collide with the core's op request ids
    /// (which count up from 1).
    stats_seq: u64,
    /// The last stats reply read, whichever exchange it answers.
    stats_reply: Option<(RequestId, Value)>,
}

// A session moves between threads freely; it is only ever driven by one.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

impl Session {
    /// Connects lazily to a cluster at `addrs` (indexed by [`ServerId`]),
    /// admitting up to `window` concurrent operations.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if `addrs` is empty or
    /// `window` is zero, or the `hts-poll` error if the session's poller
    /// cannot be created. Connections themselves are opened on first
    /// use.
    pub fn connect(id: u32, addrs: Vec<SocketAddr>, window: usize) -> io::Result<Session> {
        Session::connect_preferring(id, addrs, ServerId(0), window)
    }

    /// Connects lazily, preferring `preferred` as the first server to
    /// contact (pins load, and lets tests observe one specific server).
    ///
    /// # Errors
    ///
    /// As [`Session::connect`], plus [`io::ErrorKind::InvalidInput`] if
    /// `preferred` is outside the address map.
    pub fn connect_preferring(
        id: u32,
        addrs: Vec<SocketAddr>,
        preferred: ServerId,
        window: usize,
    ) -> io::Result<Session> {
        validate_addrs(&addrs, preferred)?;
        if window == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a session window must admit at least one operation",
            ));
        }
        let n = addrs.len() as u16;
        let id = ClientId(id);
        Ok(Session {
            core: SessionCore::new(id, ObjectId::SINGLE, n, preferred, window),
            conns: (0..n).map(|_| None).collect(),
            next_gen: 0,
            events: Events::with_capacity(addrs.len()),
            addrs,
            id,
            timeout: Duration::from_millis(500),
            poller: Poller::new()?,
            deadlines: HashMap::new(),
            completed: HashMap::new(),
            stats_seq: 0,
            stats_reply: None,
        })
    }

    /// Sets the per-attempt reply timeout (default 500 ms).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// The session's pipeline window.
    pub fn window(&self) -> usize {
        self.core.window()
    }

    /// Operations currently in flight (begun, not yet completed).
    pub fn in_flight(&self) -> usize {
        self.core.in_flight()
    }

    /// The alive-map the session routes by (test/diagnostic hook): entry
    /// `s` is `false` while server `s` is suspected crashed. Suspicions
    /// recover on successful reconnects and periodic re-probes.
    pub fn believed_alive(&self) -> &[bool] {
        self.core.believed_alive()
    }

    /// Starts a write of the register; returns a handle for
    /// [`wait`](Session::wait). Blocks only while the window is full.
    ///
    /// # Errors
    ///
    /// Fails when every server is unreachable for a full retry cycle
    /// while the session drains a slot.
    pub fn begin_write(&mut self, value: Value) -> io::Result<RequestId> {
        self.begin_write_to(ObjectId::SINGLE, value)
    }

    /// Starts a write of register `object` (multi-register stores).
    ///
    /// # Errors
    ///
    /// As [`Session::begin_write`].
    pub fn begin_write_to(&mut self, object: ObjectId, value: Value) -> io::Result<RequestId> {
        self.admit()?;
        let (request, server, msg) = self.core.begin_write_to(object, value);
        self.dispatch(request, server, &msg)?;
        Ok(request)
    }

    /// Starts a read of the register; returns a handle for
    /// [`wait`](Session::wait).
    ///
    /// # Errors
    ///
    /// As [`Session::begin_write`].
    pub fn begin_read(&mut self) -> io::Result<RequestId> {
        self.begin_read_from(ObjectId::SINGLE)
    }

    /// Starts a read of register `object`.
    ///
    /// # Errors
    ///
    /// As [`Session::begin_write`].
    pub fn begin_read_from(&mut self, object: ObjectId) -> io::Result<RequestId> {
        self.admit()?;
        let (request, server, msg) = self.core.begin_read_from(object);
        self.dispatch(request, server, &msg)?;
        Ok(request)
    }

    /// Blocks until `request` completes; returns `None` for writes and
    /// the value for reads. Handles may be waited in any order —
    /// completions are matched by request id, not arrival order.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] if the request exhausted its retry
    /// cycle; [`io::ErrorKind::NotFound`] for a handle this session never
    /// issued (or already waited).
    pub fn wait(&mut self, request: RequestId) -> io::Result<Option<Value>> {
        while !self.completed.contains_key(&request) {
            if !self.core.is_inflight(request) {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("{request} is not an outstanding operation of this session"),
                ));
            }
            self.pump()?;
        }
        match self.completed.remove(&request) {
            Some(result) => result,
            None => Err(io::Error::other("completion vanished before wait")),
        }
    }

    /// Convenience: writes `value`, blocking until acknowledged (a
    /// one-op pipeline).
    ///
    /// # Errors
    ///
    /// As [`Session::wait`].
    pub fn write(&mut self, value: Value) -> io::Result<()> {
        let request = self.begin_write(value)?;
        self.wait(request).map(|_| ())
    }

    /// Convenience: reads the register, blocking until a server answers.
    ///
    /// # Errors
    ///
    /// As [`Session::wait`].
    pub fn read(&mut self) -> io::Result<Value> {
        let request = self.begin_read()?;
        self.wait(request).and_then(require_read_value)
    }

    /// Waits for every outstanding operation, returning the first error
    /// (after draining the rest).
    ///
    /// # Errors
    ///
    /// As [`Session::wait`].
    pub fn drain(&mut self) -> io::Result<()> {
        // Both the still-in-flight requests and the ones that already
        // finished (or exhausted their retries) without being waited —
        // their results/errors must not be silently dropped or leak.
        let outstanding: Vec<RequestId> = self
            .core
            .inflight_requests()
            .chain(self.completed.keys().copied())
            .collect();
        let mut first_err = None;
        for request in outstanding {
            if let Err(e) = self.wait(request) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Asks `server` — that one, never another — for its metrics
    /// exposition, outside the window, and drives the pipeline until the
    /// reply arrives, the per-attempt timeout passes or the connection
    /// dies ([`Client::stats`](crate::Client::stats)).
    pub(crate) fn stats(&mut self, server: ServerId) -> io::Result<String> {
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
        let Some(conn) = self.conns[server.index()].as_mut() else {
            return Err(io::Error::other("connection lost between ensure and send"));
        };
        let gen = conn.gen;
        self.stats_seq += 1;
        let request = RequestId(u64::MAX - self.stats_seq);
        frame_into(conn.out.tail(), &Message::StatsRequest { request });
        // Armed like an op's deadline so `pump` sleeps no longer than the
        // budget; the core knows no such request, so expiry only disarms.
        let deadline = Instant::now() + self.timeout;
        self.deadlines.insert(request, deadline);
        let result = loop {
            if let Some((r, text)) = self.stats_reply.take() {
                if r == request {
                    break Ok(String::from_utf8_lossy(text.as_bytes()).into_owned());
                }
            }
            if !matches!(&self.conns[server.index()], Some(conn) if conn.gen == gen) {
                break Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("connection to {server} lost awaiting stats"),
                ));
            }
            if Instant::now() >= deadline {
                break Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no stats reply within the timeout",
                ));
            }
            if let Err(e) = self.pump() {
                break Err(e);
            }
        };
        self.deadlines.remove(&request);
        result
    }

    /// Makes room for one more operation, driving the pipeline while the
    /// window is full or a connection is over its send cap (`dispatch`
    /// flushes at the cap, so only a parked send still holds that much).
    fn admit(&mut self) -> io::Result<()> {
        let over_cap = |conn: &Conn| conn.out.len() >= SEND_FLUSH_BYTES;
        while !self.core.has_capacity() || self.conns.iter().flatten().any(over_cap) {
            self.pump()?;
        }
        Ok(())
    }

    /// Routes `msg` for `request` towards `server`: ensures a connection
    /// (reporting a successful reconnect as `server` being up) and
    /// encodes into its coalescing buffer. On connection failure the
    /// request — and everything else stranded on that server — is
    /// rerouted immediately.
    fn dispatch(&mut self, request: RequestId, server: ServerId, msg: &Message) -> io::Result<()> {
        if self.ensure_connection(server).is_err() {
            return self.fail_server(server);
        }
        let Some(conn) = self.conns[server.index()].as_mut() else {
            return self.fail_server(server);
        };
        frame_into(conn.out.tail(), msg);
        let end = conn.out.flushed() + conn.out.len() as u64;
        conn.staged.push_back((request, end));
        if conn.out.len() >= SEND_FLUSH_BYTES {
            self.flush_server(server)?;
        }
        Ok(())
    }

    /// Starts sending what `server`'s connection has staged, unless a
    /// send is already parked there waiting for write readiness.
    fn flush_server(&mut self, server: ServerId) -> io::Result<()> {
        match &self.conns[server.index()] {
            Some(conn) if !conn.out.is_empty() && conn.stalls_at.is_none() => {
                self.write_staged(server)
            }
            _ => Ok(()),
        }
    }

    /// Flushes every connection that is not parked.
    fn flush_all(&mut self) -> io::Result<()> {
        for i in 0..self.conns.len() {
            self.flush_server(ServerId(i as u16))?;
        }
        Ok(())
    }

    /// Hands `server`'s socket as much of the staged bytes as it takes —
    /// never waiting: a send must not stop the session reading. What the
    /// socket refuses stays parked under write interest and resumes from
    /// the same `Poller::wait` that reads replies. Requests whose bytes
    /// have entirely left get their retry deadlines armed from this
    /// instant (the moment they are actually on the wire).
    fn write_staged(&mut self, server: ServerId) -> io::Result<()> {
        let Some(conn) = self.conns[server.index()].as_mut() else {
            return Ok(());
        };
        let before = conn.out.flushed();
        // The stranded requests reroute through the failure path.
        let Ok(drained) = conn.out.flush(&mut conn.stream) else {
            return self.fail_server(server);
        };
        let parked = !drained;
        let now = Instant::now();
        while let Some(&(request, end)) = conn.staged.front() {
            if end > conn.out.flushed() {
                break;
            }
            conn.staged.pop_front();
            // Still on this server and unanswered? A completed request
            // has no deadline to arm; a rerouted one is owned by its new
            // server's flush.
            if self.core.server_of(request) == Some(server) {
                self.deadlines.insert(request, now + self.timeout);
            }
        }
        let was_parked = conn.stalls_at.is_some();
        if !parked {
            conn.stalls_at = None;
        } else if conn.out.flushed() > before || !was_parked {
            conn.stalls_at = Some(now + self.timeout);
        }
        if parked != was_parked {
            let (fd, token) = (conn.stream.as_raw_fd(), token(conn.gen, server));
            let interest = if parked {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            if self.poller.reregister(fd, token, interest).is_err() {
                return self.fail_server(server);
            }
        }
        Ok(())
    }

    /// One pipeline turn: flush buffered requests, block in one
    /// `Poller::wait` until a socket is ready or something is due (the
    /// earliest retry deadline, or a parked send out of patience), read
    /// every ready connection dry and resume its parked send, re-issue
    /// what expired, flush again.
    fn pump(&mut self) -> io::Result<()> {
        self.flush_all()?;
        let stalls = self.conns.iter().flatten();
        let stalls = stalls.filter_map(|conn| conn.stalls_at);
        // Nothing armed, nothing parked: nothing can wake us — the
        // callers (admit/wait) re-check their predicates before pumping.
        let Some(earliest) = self.deadlines.values().copied().chain(stalls).min() else {
            return Ok(());
        };
        let budget = earliest.saturating_duration_since(Instant::now());
        let woken = self.poller.wait(&mut self.events, Some(budget))?;
        let mut replies = 0;
        for i in 0..woken {
            // By index: serving a report needs all of `self`.
            let Some(ev) = self.events.iter().nth(i) else {
                break;
            };
            replies += self.on_ready(ev)?;
        }
        hts_metrics::counter!("hts_net_session_wakeups_total").inc();
        hts_metrics::histogram!("hts_net_session_replies_per_wake").record(replies);
        self.fire_expired(earliest)?;
        self.flush_all()
    }

    /// Serves one readiness report and returns how many replies it read.
    fn on_ready(&mut self, ev: Event) -> io::Result<u64> {
        let (gen, server) = (ev.token().0 >> 16, ServerId(ev.token().0 as u16));
        // Stale: its connection was replaced earlier in this batch.
        if !matches!(&self.conns[server.index()], Some(conn) if conn.gen == gen) {
            return Ok(0);
        }
        let replies = self.drain_replies(server)?;
        // Only a parked send asks for writability.
        if ev.writable() {
            self.write_staged(server)?;
        }
        Ok(replies)
    }

    /// Reads `server`'s socket dry, completing whichever requests the
    /// replies name; EOF or a read error fails the server. Hot: runs
    /// once per reply, so no clock read and no allocation of its own.
    fn drain_replies(&mut self, server: ServerId) -> io::Result<u64> {
        let mut replies = 0;
        loop {
            let Some(conn) = self.conns[server.index()].as_mut() else {
                return Ok(replies);
            };
            match conn.reader.poll(&mut conn.stream) {
                Ok(MessagePoll::Msg(Message::StatsReply { request, text })) => {
                    self.stats_reply = Some((request, text));
                }
                Ok(MessagePoll::Msg(msg)) => {
                    replies += 1;
                    if let Some(done) = self.core.on_reply(&msg) {
                        self.deadlines.remove(&done.request);
                        self.completed.insert(done.request, Ok(done.value));
                    }
                }
                Ok(MessagePoll::Pending) => return Ok(replies),
                Ok(MessagePoll::Closed) | Err(_) => {
                    self.fail_server(server)?;
                    return Ok(replies);
                }
            }
        }
    }

    /// Fails every connection whose parked send made no progress for a
    /// whole timeout, then re-issues every request whose deadline
    /// passed, each to its next server (independently — one slow request
    /// never stalls the rest of the window). `earliest` is the minimum
    /// `pump` computed before waiting: replies only remove deadlines and
    /// whatever was armed since is a full timeout away, so before that
    /// instant nothing is due and the scan is skipped.
    fn fire_expired(&mut self, earliest: Instant) -> io::Result<()> {
        let now = Instant::now();
        if now < earliest {
            return Ok(());
        }
        for i in 0..self.conns.len() {
            let stalls_at = self.conns[i].as_ref().and_then(|conn| conn.stalls_at);
            if stalls_at.is_some_and(|at| at <= now) {
                self.fail_server(ServerId(i as u16))?;
            }
        }
        let expired: Vec<RequestId> = self
            .deadlines
            .iter()
            .filter(|(_, at)| **at <= now)
            .map(|(r, _)| *r)
            .collect();
        for request in expired {
            // Only THIS request rotates: the connection stays up — other
            // requests' replies are still in flight on it, and a late
            // reply to the rotated request remains a valid completion
            // (same request id; the paper's retry rule). A genuinely
            // dead connection reads as EOF, which reroutes everything at
            // once.
            match self.core.on_timeout(request) {
                Some((server, msg)) => self.retry(request, server, &msg)?,
                None => {
                    self.deadlines.remove(&request);
                }
            }
        }
        Ok(())
    }

    /// The connection to `server` failed: tear it down, mark the server
    /// suspect, and re-dispatch every request stranded on it.
    fn fail_server(&mut self, server: ServerId) -> io::Result<()> {
        // Dropping the stream, the connection's only descriptor, closes it.
        if let Some(conn) = self.conns[server.index()].take() {
            self.poller.deregister(conn.stream.as_raw_fd());
        }
        for (request, next, msg) in self.core.on_server_down(server) {
            // A nested failure while re-dispatching an earlier entry of
            // this very loop may already have rerouted (or aborted) this
            // request; re-sending the stale snapshot would target a
            // server known dead and pay a blocking connect for it.
            if self.core.server_of(request) != Some(next) {
                continue;
            }
            self.retry(request, next, &msg)?;
        }
        Ok(())
    }

    /// One rerouted attempt of `request`, under the retry budget of a
    /// full cycle around the ring (counted by the core — see
    /// [`SessionCore::attempts_of`]). Over budget, the operation is
    /// abandoned and its `wait` reports `TimedOut`.
    fn retry(&mut self, request: RequestId, server: ServerId, msg: &Message) -> io::Result<()> {
        // Unarmed again until the new attempt's bytes have left.
        self.deadlines.remove(&request);
        // `attempts` counts re-sends, so this bounds total sends at
        // `addrs.len() * RETRY_CYCLES`.
        let attempts = self.core.attempts_of(request).unwrap_or(0);
        if (attempts as usize) >= self.addrs.len() * RETRY_CYCLES {
            self.core.abort(request);
            self.completed.insert(
                request,
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no server answered after a full retry cycle",
                )),
            );
            return Ok(());
        }
        self.dispatch(request, server, msg)
    }

    /// (Re)opens the connection to `server`, bounded by the per-attempt
    /// timeout (a SYN-blackholed server costs one attempt, not the OS
    /// connect timeout), and registers it with the session's poller.
    /// Success clears any suspicion against `server` — this is how a
    /// restarted server re-earns its place in the routing map.
    fn ensure_connection(&mut self, server: ServerId) -> io::Result<()> {
        if self.conns[server.index()].is_some() {
            return Ok(());
        }
        let mut stream = TcpStream::connect_timeout(&self.addrs[server.index()], self.timeout)?;
        stream.set_nodelay(true).ok();
        stream.write_all(&Hello::Client(self.id).encode())?;
        stream.set_nonblocking(true)?;
        let gen = self.next_gen;
        self.next_gen += 1;
        self.poller
            .register(stream.as_raw_fd(), token(gen, server), Interest::READABLE)?;
        self.conns[server.index()] = Some(Conn {
            stream,
            reader: NbMessageReader::new(),
            out: WriteBuf::new(),
            staged: VecDeque::new(),
            stalls_at: None,
            gen,
        });
        self.core.on_server_up(server);
        Ok(())
    }
}
