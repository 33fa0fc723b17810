//! The server's I/O runtime: one epoll poller thread per ring lane owns
//! every socket.
//!
//! Each lane is a single loop that takes client requests, inbound ring
//! frames, outbound write readiness and connect completions as
//! readiness reports on one `epoll` instance (`hts-poll`). A node
//! therefore runs on exactly `lanes` threads regardless of how many
//! clients or peers connect: one at the default single lane.
//!
//! Each lane is a thin I/O shell over a [`LaneCore`], which holds the
//! lane's policy: restart, the release gate (a step's commits reach the
//! WAL before its replies and ring batches leave), batch selection and
//! the successor links' rules — the connect back-off, one staged batch
//! per link and the strike rule. The shell owns the sockets and the WAL.
//! Each pump runs the core's due [`LinkOp`]s (connect, close a timed-out
//! attempt, act on a crash verdict) and writes what the successor's link
//! may [`claim`](LaneCore::claim); the shell reports back when a connect
//! completes or fails and when a link's buffer drains, and the core's
//! next link timer bounds the epoll wait.
//!
//! Crash verdicts come from the links. An inbound ring stream that closes
//! or fails to decode condemns its peer at once. An outbound link's
//! failures become a verdict through the strike rule: about 100 ms after
//! it first breaks, its fresh connection still refused. A server whose
//! links do not touch the dead peer learns of the crash only when its
//! ring routes it there.
//!
//! Each lane owns its lane core, WAL and every socket routed to it.
//! Lane 0 also owns the listener and every connection still mid
//! handshake (closed if its hello is not complete within a second): a
//! completed hello hands the socket to its lane (ring streams to the
//! lane the handshake names, clients to their [`home_lane`]), keeping
//! it when that lane is lane 0. Sockets and cross-lane client traffic
//! travel as [`Inject`] messages over a channel plus an eventfd wake:
//! requests go to the object's lane, replies to the client's home lane,
//! which every lane computes from the client id alone.
//!
//! Shutdown is deterministic: `ReactorHandle::stop` sends every lane an
//! [`Inject::Stop`], wakes it, and joins them all; each lane deregisters
//! and closes every fd it owns — lane 0 the listener too — before
//! exiting, so the listen port is immediately rebindable. The lanes
//! share no state: everything between them is an [`Inject`].

#![expect(
    clippy::disallowed_types,
    reason = "hello deadlines, the accept pause and the link timers read the monotonic clock"
)]

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hts_core::{LaneCore, LaneMap, LinkOp};
use hts_poll::{
    connect_nonblocking, read_nb, Event, Events, Interest, Poller, ReadStatus, Token, Waker,
};
use hts_types::codec::Hello;
use hts_types::{ClientId, Message, Nanos, RingFrame, ServerId};
use hts_wal::{Recovery, Wal, WalRecord};

use crate::framing::{encode_ring_frames, frame_into, MessagePoll, NbMessageReader, WriteBuf};
use crate::server::{note_crash_verdict, recover_lanes, LaneConfig, ServerConfig, ThreadTally};

/// Token 0 is every poller's eventfd waker.
const WAKER_TOKEN: u64 = 0;
/// Lane 0's listener registers under token 1.
const LISTENER_TOKEN: u64 = 1;
/// How long an accepted socket has to complete its hello before lane 0
/// closes it.
const HELLO_TIMEOUT: Duration = Duration::from_secs(1);
/// How long the listener stays unwatched after an accept error. It waits
/// for a resource (a free descriptor, say), not for a peer, so it keeps
/// a fixed pause.
const ACCEPT_PAUSE: Duration = Duration::from_millis(50);

/// Handle to a running reactor: each lane thread's inject channel,
/// waker and join handle.
pub(crate) struct ReactorHandle {
    peers: Vec<(Sender<Inject>, Arc<Waker>)>,
    handles: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Tells every lane to stop and waits them out. A lane that already
    /// exited (on a WAL failure) has dropped its receiver; its send fails
    /// and is ignored.
    pub(crate) fn stop(&mut self) {
        for (tx, waker) in &self.peers {
            if tx.send(Inject::Stop).is_ok() {
                waker.wake();
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns the runtime for `config`: binds the listen address, recovers
/// every lane's WAL, and starts `lanes` poller threads, lane 0 watching
/// the listener. All pollers, wakers and channels are created before any
/// thread spawns, so setup errors abort cleanly. Returns the handle and
/// the bound listen address.
pub(crate) fn spawn(config: ServerConfig) -> io::Result<(ReactorHandle, SocketAddr)> {
    let lanes = usize::from(config.config.lanes.max(1));
    let wal_states = recover_lanes(&config)?;
    let listener = TcpListener::bind(config.addrs[config.id.index()])?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let mut plumbing = Vec::with_capacity(lanes);
    let mut peers: Vec<(Sender<Inject>, Arc<Waker>)> = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, Token(WAKER_TOKEN))?);
        let (tx, rx) = channel::<Inject>();
        peers.push((tx, Arc::clone(&waker)));
        plumbing.push((poller, waker, rx));
    }
    plumbing[0].0.register(
        listener.as_raw_fd(),
        Token(LISTENER_TOKEN),
        Interest::READABLE,
    )?;
    let mut listener = Some(listener);
    let mut handles = Vec::with_capacity(lanes);
    for (lane, ((poller, waker, injects), wal_state)) in
        plumbing.into_iter().zip(wal_states).enumerate()
    {
        let lc = LaneConfig {
            lane: lane as u16,
            id: config.id,
            addrs: config.addrs.clone(),
            config: config.config.clone(),
        };
        let state = Lane::new(
            lc,
            LanePlumbing {
                poller,
                waker,
                injects,
                peers: peers.clone(),
                listener: listener.take(),
            },
            wal_state,
        );
        handles.push(thread::spawn(move || state.run()));
    }

    Ok((ReactorHandle { peers, handles }, addr))
}

/// Work handed to a lane by lane 0's handshakes or by a sibling lane.
enum Inject {
    /// A handshaken inbound ring stream from server `s`.
    NewRing(ServerId, TcpStream),
    /// A handshaken connection of client `c`, whose home lane this is.
    NewClient(ClientId, TcpStream),
    /// A request from client `c` for one of this lane's objects,
    /// forwarded by the client's home lane.
    FromClient(ClientId, Message),
    /// A reply for client `c`, sent to its home lane.
    Reply(ClientId, Message),
    /// The server is stopping: the lane exits once its injects drain.
    Stop,
}

/// The lane that owns every connection of client `c` on a node of
/// `lanes` lanes: the hello hands the socket there, and every lane sends
/// the client's replies there.
fn home_lane(c: ClientId, lanes: usize) -> usize {
    c.0 as usize % lanes
}

/// What kind of connection a poller token identifies.
enum SlotKind {
    /// Accepted by lane 0, still reading its hello.
    Hello,
    Client,
    RingIn,
    RingOut(ServerId),
}

struct ClientConn {
    token: u64,
    stream: TcpStream,
    id: ClientId,
    reader: NbMessageReader,
    out: WriteBuf,
    /// Whether the registration currently includes write interest.
    writing: bool,
}

struct RingInConn {
    stream: TcpStream,
    from: ServerId,
    reader: NbMessageReader,
}

/// The socket of one outbound ring link. Its policy (phase, staged
/// batch, connect schedule, strike) lives in the lane core's link table.
struct OutConn {
    token: u64,
    stream: TcpStream,
    out: WriteBuf,
    /// Whether the nonblocking connect is still in flight.
    connecting: bool,
    /// Whether the registration currently includes write interest.
    writing: bool,
    /// When the batch in `out` was encoded (`now_nanos`; 0 = none).
    /// Feeds `hts_net_ring_write_nanos`: the wall time a batch takes to
    /// fully drain into the socket.
    staged_at: u64,
}

impl OutConn {
    /// Encodes `frames` behind whatever `out` already holds and starts
    /// the batch's write clock.
    fn encode(&mut self, frames: &[RingFrame]) {
        let bytes = encode_ring_frames(frames, self.out.tail());
        hts_metrics::histogram!("hts_net_ring_batch_frames").record(frames.len() as u64);
        hts_metrics::histogram!("hts_net_ring_batch_bytes").record(bytes as u64);
        self.staged_at = hts_metrics::now_nanos();
    }
}

/// Everything a lane shares with the rest of the reactor.
struct LanePlumbing {
    poller: Poller,
    waker: Arc<Waker>,
    injects: Receiver<Inject>,
    peers: Vec<(Sender<Inject>, Arc<Waker>)>,
    /// Lane 0's: the listen socket, already registered with its poller.
    listener: Option<TcpListener>,
}

/// A freshly accepted connection still reading its hello bytes.
struct HelloConn {
    stream: TcpStream,
    buf: [u8; 5],
    filled: usize,
    /// When lane 0 gives up on the hello and closes the socket.
    deadline: Instant,
}

struct Lane {
    lc: LaneConfig,
    core: LaneCore,
    wal: Option<Wal>,
    poller: Poller,
    waker: Arc<Waker>,
    injects: Receiver<Inject>,
    peers: Vec<(Sender<Inject>, Arc<Waker>)>,
    map: LaneMap,
    /// An [`Inject::Stop`] arrived: the loop exits after this wake.
    stopping: bool,
    /// Lane 0 only; `None` elsewhere.
    listener: Option<TcpListener>,
    /// When the listener, unwatched after an accept error, is watched
    /// again.
    accept_paused_until: Option<Instant>,
    hellos: HashMap<u64, HelloConn>,
    next_token: u64,
    slots: HashMap<u64, SlotKind>,
    client_conns: HashMap<u64, ClientConn>,
    /// The clients whose home lane this is, each with the poller token
    /// of its newest socket.
    clients: HashMap<ClientId, u64>,
    ring_ins: HashMap<u64, RingInConn>,
    /// The sockets of the lane core's links that have one.
    ring_outs: HashMap<ServerId, OutConn>,
    dirty: Vec<u64>,
    /// The zero of the clock the lane core's links read.
    epoch: Instant,
}

impl Lane {
    fn new(lc: LaneConfig, plumbing: LanePlumbing, wal_state: Option<(Wal, Recovery)>) -> Lane {
        let n = lc.addrs.len() as u16;
        let lanes = lc.config.lanes.max(1);
        // A lane whose directory already held a log restarts: it restores
        // the registers the log proves committed and rejoins its ring.
        let (wal, state, rejoin) = match wal_state {
            Some((wal, recovery)) => (Some(wal), recovery.state, recovery.had_log),
            None => (None, Default::default(), false),
        };
        let core = LaneCore::restart(lc.id, n, lc.lane, lc.config.clone(), state, rejoin);
        Lane {
            lc,
            core,
            wal,
            poller: plumbing.poller,
            waker: plumbing.waker,
            injects: plumbing.injects,
            peers: plumbing.peers,
            map: LaneMap::new(lanes),
            stopping: false,
            listener: plumbing.listener,
            accept_paused_until: None,
            hellos: HashMap::new(),
            next_token: LISTENER_TOKEN + 1,
            slots: HashMap::new(),
            client_conns: HashMap::new(),
            clients: HashMap::new(),
            ring_ins: HashMap::new(),
            ring_outs: HashMap::new(),
            dirty: Vec::new(),
            epoch: Instant::now(),
        }
    }

    fn run(mut self) {
        let _tally = ThreadTally::new();
        let mut events = Events::with_capacity(256);
        // Prime the ring before the first inbound event: a freshly
        // booted server eagerly connects to its successor, and a
        // *restarted* one must push its rejoin announcement without
        // waiting to be spoken to.
        self.pump();
        self.flush_dirty();
        loop {
            let timeout = self.next_timeout();
            if self.poll_ready(&mut events, timeout).is_err() {
                break;
            }
            for ev in events.iter() {
                self.dispatch_event(ev);
            }
            self.drain_injects();
            if self.stopping {
                break;
            }
            self.resume_accepting();
            self.expire_hellos();
            if !self.persist_commits() {
                break;
            }
            for (client, msg) in self.core.take_replies() {
                self.deliver_reply(client, msg);
            }
            self.pump();
            self.flush_dirty();
        }
        self.teardown();
    }

    /// Appends the lane's freshly committed writes to the log as ONE
    /// group-committed batch — a single fsync covers every commit of
    /// this loop iteration — then opens the lane core's release gate.
    /// Runs BEFORE replies flush and the ring pumps, so neither a client
    /// nor the successor sees a write that is not on stable storage.
    /// Without a `wal_dir` the commits are dropped. Returns `false` on an
    /// unrecoverable log failure (the server then stops = crash-stop).
    fn persist_commits(&mut self) -> bool {
        let (id, lane) = (self.lc.id, self.lc.lane);
        let commits = self.core.take_commits();
        if let Some(wal) = self.wal.as_mut() {
            let records: Vec<WalRecord> = commits
                .into_iter()
                .map(|(object, tag, value)| WalRecord { object, tag, value })
                .collect();
            if let Err(e) = wal.append_batch(&records) {
                eprintln!(
                    "hts-net server {id} lane {lane}: wal append failed ({e}); stopping to avoid \
                     acknowledging non-durable writes"
                );
                return false;
            }
            if wal.wants_compaction() {
                let state: Vec<WalRecord> = self
                    .core
                    .export_state()
                    .into_iter()
                    .map(|(object, tag, value)| WalRecord { object, tag, value })
                    .collect();
                if let Err(e) = wal.compact(&state) {
                    // Non-fatal: the uncompacted log remains recoverable.
                    eprintln!("hts-net server {id} lane {lane}: wal compaction failed ({e})");
                }
            }
        }
        self.core.commits_durable();
        true
    }

    /// One epoll wait plus its bookkeeping. Hot: alloc-free.
    fn poll_ready(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let n = self.poller.wait(events, timeout)?;
        hts_metrics::counter!("hts_net_reactor_wakeups_total").inc();
        hts_metrics::histogram!("hts_net_reactor_events_per_wake").record(n as u64);
        Ok(n)
    }

    /// Routes one readiness report to its connection's handler. Hot:
    /// the dispatch shell itself is alloc-free.
    fn dispatch_event(&mut self, ev: Event) {
        let token = ev.token().0;
        match token {
            WAKER_TOKEN => self.waker.drain(),
            LISTENER_TOKEN => self.accept_burst(),
            _ => match self.slots.get(&token) {
                Some(SlotKind::Hello) => self.drive_hello(token),
                Some(SlotKind::Client) => self.on_client_event(token),
                Some(SlotKind::RingIn) => self.on_ring_in_event(token),
                Some(&SlotKind::RingOut(peer)) => self.on_out_event(peer, ev),
                None => {}
            },
        }
    }

    /// Deregisters every fd the lane owns; dropping the lane (at the end
    /// of [`run`](Self::run)) then closes them.
    fn teardown(&self) {
        let hellos = self.hellos.values().map(|c| &c.stream);
        let clients = self.client_conns.values().map(|c| &c.stream);
        let ring_ins = self.ring_ins.values().map(|c| &c.stream);
        let ring_outs = self.ring_outs.values().map(|c| &c.stream);
        let streams = hellos.chain(clients).chain(ring_ins).chain(ring_outs);
        let listener = self.listener.as_ref().map(AsRawFd::as_raw_fd);
        for fd in streams.map(AsRawFd::as_raw_fd).chain(listener) {
            self.poller.deregister(fd);
        }
    }

    // ---- client connections ------------------------------------------

    fn on_client_event(&mut self, token: u64) {
        let Some(mut conn) = self.client_conns.remove(&token) else {
            return;
        };
        loop {
            match conn.reader.poll(&mut conn.stream) {
                Ok(MessagePoll::Msg(msg)) => self.on_client_msg(&mut conn, msg),
                Ok(MessagePoll::Pending) => break,
                Ok(MessagePoll::Closed) | Err(_) => {
                    self.client_down(conn);
                    return;
                }
            }
        }
        // Coalesce the burst's inline replies (stats) into
        // one flush; a writable-only event resumes a partial write the
        // same way.
        self.flush_client(conn);
    }

    /// Hands a request to its object's lane — a sibling via inject, or
    /// this lane's core. A stats request is answered inline.
    fn on_client_msg(&mut self, conn: &mut ClientConn, msg: Message) {
        let request = matches!(msg, Message::WriteReq { .. } | Message::ReadReq { .. });
        let lane = self.map.lane_of(msg.object());
        if request && lane != self.lc.lane {
            self.send_inject(usize::from(lane), Inject::FromClient(conn.id, msg));
        } else if let Some(reply) = self.core.on_client(conn.id, msg) {
            frame_into(conn.out.tail(), &reply);
        }
    }

    /// Flushes a client's pending replies and keeps its write interest
    /// in sync (armed only while bytes wait on the socket), then puts
    /// the connection back — or takes it down on a write error.
    fn flush_client(&mut self, mut conn: ClientConn) {
        let Ok(drained) = conn.out.flush(&mut conn.stream) else {
            self.client_down(conn);
            return;
        };
        let fd = conn.stream.as_raw_fd();
        self.want_write(fd, conn.token, &mut conn.writing, !drained);
        self.client_conns.insert(conn.token, conn);
    }

    /// Arms write interest on `fd` exactly while `want` holds; `writing`
    /// tracks what the registration currently asks for.
    fn want_write(&self, fd: RawFd, token: u64, writing: &mut bool, want: bool) {
        if *writing != want {
            let interest = if want {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            self.poller.reregister(fd, Token(token), interest).ok();
            *writing = want;
        }
    }

    fn client_down(&mut self, conn: ClientConn) {
        self.poller.deregister(conn.stream.as_raw_fd());
        self.slots.remove(&conn.token);
        // A newer connection under the same id may already own the
        // route; only the socket that died takes its own route down.
        if self.clients.get(&conn.id) == Some(&conn.token) {
            self.clients.remove(&conn.id);
        }
    }

    // ---- inbound ring connections ------------------------------------

    fn on_ring_in_event(&mut self, token: u64) {
        let Some(mut conn) = self.ring_ins.remove(&token) else {
            return;
        };
        loop {
            match conn.reader.poll(&mut conn.stream) {
                Ok(MessagePoll::Msg(Message::Ring(frame))) => self.core.on_frame(frame),
                Ok(MessagePoll::Msg(Message::RingBatch(frames))) => {
                    for frame in frames {
                        self.core.on_frame(frame);
                    }
                }
                // Requests, replies and stats never arrive on a ring
                // stream; drop them by name so a new wire variant
                // forces a decision here.
                Ok(MessagePoll::Msg(
                    Message::WriteReq { .. }
                    | Message::ReadReq { .. }
                    | Message::WriteAck { .. }
                    | Message::ReadAck { .. }
                    | Message::StatsRequest { .. }
                    | Message::StatsReply { .. },
                )) => {}
                Ok(MessagePoll::Pending) => break,
                Ok(MessagePoll::Closed) | Err(_) => {
                    self.ring_in_down(token, conn);
                    return;
                }
            }
        }
        self.ring_ins.insert(token, conn);
    }

    fn ring_in_down(&mut self, token: u64, conn: RingInConn) {
        self.poller.deregister(conn.stream.as_raw_fd());
        self.slots.remove(&token);
        let s = conn.from;
        // Any connection to the crashed server died with it; a parked
        // one must not be reused after a rejoin. The core forgets the
        // link too, and the next pump links up with whichever successor
        // it moves to.
        self.close_out(s);
        note_crash_verdict(self.lc.id, self.lc.lane, s);
        self.core.on_peer_crashed(s);
    }

    // ---- outbound ring connections -----------------------------------

    /// The lane's clock, as the lane core's links read it.
    fn now(&self) -> Nanos {
        Nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn on_out_event(&mut self, peer: ServerId, ev: Event) {
        let Some(mut conn) = self.ring_outs.remove(&peer) else {
            return;
        };
        if self.drive_out(peer, &mut conn, ev) {
            self.update_out_interest(&mut conn);
            self.ring_outs.insert(peer, conn);
        } else {
            self.out_failed(peer, &conn);
        }
    }

    /// Advances one outbound link on a readiness report. Returns
    /// `false` when the link failed.
    fn drive_out(&mut self, peer: ServerId, conn: &mut OutConn, ev: Event) -> bool {
        if conn.connecting {
            // Writable resolves the attempt; SO_ERROR says how.
            if !(ev.is_error() || ev.writable()) {
                return true;
            }
            if ev.is_error() || !matches!(conn.stream.take_error(), Ok(None)) {
                return false;
            }
            self.link_up(peer, conn);
        }
        // The successor never sends data back on this link: anything
        // readable is EOF or an error, caught here without waiting
        // for the next write to fail.
        if ev.readable() && !drain_out_readable(&mut conn.stream) {
            return false;
        }
        if ev.writable() && self.resume_write(peer, conn).is_err() {
            return false;
        }
        true
    }

    /// Moves the link's bytes into the socket until it pushes back or
    /// the lane core has no batch for it to claim. Each full drain is
    /// reported to the core. Hot: alloc-free — the core stages batches.
    fn resume_write(&mut self, peer: ServerId, conn: &mut OutConn) -> io::Result<()> {
        loop {
            if conn.out.is_empty() {
                let batch = self.core.claim(peer);
                if batch.is_empty() {
                    return Ok(());
                }
                conn.encode(batch);
            }
            if !conn.out.flush(&mut conn.stream)? {
                return Ok(());
            }
            if conn.staged_at != 0 {
                hts_metrics::histogram!("hts_net_ring_write_nanos")
                    .record(hts_metrics::now_nanos().saturating_sub(conn.staged_at));
                conn.staged_at = 0;
            }
            self.core.link_drained(peer);
        }
    }

    /// Begins a nonblocking connect to `peer`, as the lane core asked.
    fn connect(&mut self, peer: ServerId) {
        let Ok((stream, done)) = connect_nonblocking(self.lc.addrs[peer.index()]) else {
            self.report_failure(peer);
            return;
        };
        stream.set_nodelay(true).ok();
        let Some(token) = self.watch(&stream, SlotKind::RingOut(peer), Interest::BOTH) else {
            self.report_failure(peer);
            return;
        };
        let mut conn = OutConn {
            token,
            stream,
            out: WriteBuf::new(),
            connecting: true,
            writing: true,
            staged_at: 0,
        };
        if done {
            // Connected synchronously (the localhost common case): the
            // level-triggered EPOLLOUT flushes the hello on the next wait.
            self.link_up(peer, &mut conn);
        }
        self.ring_outs.insert(peer, conn);
    }

    /// A connect completed: stage the lane-tagged handshake and, behind
    /// it, the batch a failed connection lost, if any.
    fn link_up(&mut self, peer: ServerId, conn: &mut OutConn) {
        conn.connecting = false;
        let hello = Hello::ServerLane(self.lc.id, self.lc.lane);
        conn.out.tail().extend_from_slice(&hello.encode());
        let lost = self.core.link_up(peer);
        if !lost.is_empty() {
            conn.encode(lost);
        }
    }

    /// Keeps write interest armed only while the link has (or is about
    /// to learn whether it has) bytes to move.
    fn update_out_interest(&mut self, conn: &mut OutConn) {
        let want = conn.connecting || !conn.out.is_empty();
        let fd = conn.stream.as_raw_fd();
        self.want_write(fd, conn.token, &mut conn.writing, want);
    }

    /// A link's socket failed: close it and tell the lane core.
    fn out_failed(&mut self, peer: ServerId, conn: &OutConn) {
        self.drop_out_socket(conn);
        self.report_failure(peer);
    }

    /// Reports a failed link to the lane core, noting a crash verdict.
    fn report_failure(&mut self, peer: ServerId) {
        if self.core.link_failed(peer, self.now()) {
            note_crash_verdict(self.lc.id, self.lc.lane, peer);
        }
    }

    /// Closes the socket of the link to `peer`, if it has one.
    fn close_out(&mut self, peer: ServerId) {
        if let Some(conn) = self.ring_outs.remove(&peer) {
            self.drop_out_socket(&conn);
        }
    }

    fn drop_out_socket(&mut self, conn: &OutConn) {
        self.slots.remove(&conn.token);
        self.poller.deregister(conn.stream.as_raw_fd());
    }

    /// Runs the lane core's due link ops, then feeds the core's
    /// successor until the core has nothing ready or the socket pushes
    /// back.
    fn pump(&mut self) {
        let now = self.now();
        while let Some(op) = self.core.poll_links(now) {
            match op {
                LinkOp::Connect(peer) => self.connect(peer),
                LinkOp::Close(peer) => self.close_out(peer),
                LinkOp::Crashed(peer) => {
                    self.close_out(peer);
                    note_crash_verdict(self.lc.id, self.lc.lane, peer);
                }
            }
        }
        let Some(next) = self.core.successor() else {
            return;
        };
        let Some(mut conn) = self.ring_outs.remove(&next) else {
            return;
        };
        if self.resume_write(next, &mut conn).is_err() {
            self.out_failed(next, &conn);
            return;
        }
        self.update_out_interest(&mut conn);
        self.ring_outs.insert(next, conn);
    }

    // ---- timers ------------------------------------------------------

    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let hellos = self.hellos.values().map(|conn| Some(conn.deadline));
        let link_at = |at: Nanos| self.epoch + Duration::from_nanos(at.as_nanos());
        std::iter::once(self.accept_paused_until)
            .chain(hellos)
            .chain(std::iter::once(self.core.next_link_timer().map(link_at)))
            .flatten()
            .min()
            .map(|deadline| deadline.saturating_duration_since(now))
    }

    // ---- injects -----------------------------------------------------

    fn drain_injects(&mut self) {
        while let Ok(inj) = self.injects.try_recv() {
            self.on_inject(inj);
        }
    }

    fn on_inject(&mut self, inj: Inject) {
        match inj {
            Inject::NewRing(s, stream) => self.add_ring_in(s, stream),
            Inject::NewClient(c, stream) => self.add_client(c, stream),
            Inject::FromClient(c, msg) => {
                self.core.on_client(c, msg);
            }
            Inject::Reply(c, msg) => self.deliver_reply(c, msg),
            Inject::Stop => self.stopping = true,
        }
    }

    fn add_client(&mut self, c: ClientId, stream: TcpStream) {
        let Some(token) = self.watch(&stream, SlotKind::Client, Interest::READABLE) else {
            return;
        };
        self.clients.insert(c, token);
        self.client_conns.insert(
            token,
            ClientConn {
                token,
                stream,
                id: c,
                reader: NbMessageReader::new(),
                out: WriteBuf::new(),
                writing: false,
            },
        );
        // Level-triggered: any requests already buffered in the socket
        // surface on the next wait.
    }

    fn add_ring_in(&mut self, s: ServerId, stream: TcpStream) {
        let Some(token) = self.watch(&stream, SlotKind::RingIn, Interest::READABLE) else {
            return;
        };
        self.ring_ins.insert(
            token,
            RingInConn {
                stream,
                from: s,
                reader: NbMessageReader::new(),
            },
        );
    }

    /// Watches `stream` for `interest` under a fresh token, as a `kind`
    /// slot; `None` when the poller refuses it.
    fn watch(&mut self, stream: &TcpStream, kind: SlotKind, interest: Interest) -> Option<u64> {
        let token = self.next_token;
        self.next_token += 1;
        self.poller
            .register(stream.as_raw_fd(), Token(token), interest)
            .ok()?;
        self.slots.insert(token, kind);
        Some(token)
    }

    /// Frames a reply onto its client's newest socket, which lives on
    /// the client's home lane: any other lane sends the reply there.
    fn deliver_reply(&mut self, c: ClientId, msg: Message) {
        let home = home_lane(c, self.peers.len());
        if home != usize::from(self.lc.lane) {
            self.send_inject(home, Inject::Reply(c, msg));
            return;
        }
        let Some(conn) = self
            .clients
            .get(&c)
            .and_then(|t| self.client_conns.get_mut(t))
        else {
            return;
        };
        frame_into(conn.out.tail(), &msg);
        self.dirty.push(conn.token);
    }

    fn flush_dirty(&mut self) {
        while let Some(token) = self.dirty.pop() {
            if let Some(conn) = self.client_conns.remove(&token) {
                self.flush_client(conn);
            }
        }
    }

    /// Hands `inj` to `lane`: over its channel and eventfd, or at once
    /// when `lane` is this one.
    fn send_inject(&mut self, lane: usize, inj: Inject) {
        if lane == usize::from(self.lc.lane) {
            self.on_inject(inj);
        } else {
            let (tx, waker) = &self.peers[lane];
            if tx.send(inj).is_ok() {
                waker.wake();
            }
        }
    }

    // ---- listener and handshakes (lane 0) ----------------------------

    /// Accepts every pending connection and starts reading its hello. An
    /// accept error other than `WouldBlock`/`Interrupted` (`EMFILE`, for
    /// one) unwatches the listener for a backoff rather than spin on its
    /// level-triggered readiness; the lane keeps serving meanwhile.
    fn accept_burst(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let Some(token) = self.watch(&stream, SlotKind::Hello, Interest::READABLE)
                    else {
                        continue;
                    };
                    self.hellos.insert(
                        token,
                        HelloConn {
                            stream,
                            buf: [0; 5],
                            filled: 0,
                            deadline: Instant::now() + HELLO_TIMEOUT,
                        },
                    );
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    return;
                }
                Err(_) => {
                    self.poller.deregister(listener.as_raw_fd());
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                    return;
                }
            }
        }
    }

    /// Watches the listener again once an accept error's backoff is over.
    fn resume_accepting(&mut self) {
        let (Some(listener), Some(at)) = (&self.listener, self.accept_paused_until) else {
            return;
        };
        if Instant::now() < at {
            return;
        }
        let registered = self.poller.register(
            listener.as_raw_fd(),
            Token(LISTENER_TOKEN),
            Interest::READABLE,
        );
        self.accept_paused_until = registered.err().map(|_| Instant::now() + ACCEPT_PAUSE);
    }

    /// Closes every accepted socket whose hello missed its deadline: a
    /// connection that never speaks holds no descriptor for long.
    fn expire_hellos(&mut self) {
        if self.hellos.is_empty() {
            return;
        }
        let now = Instant::now();
        let (poller, slots) = (&self.poller, &mut self.slots);
        self.hellos.retain(|token, conn| {
            if conn.deadline > now {
                return true;
            }
            poller.deregister(conn.stream.as_raw_fd());
            slots.remove(token);
            false
        });
    }

    /// Advances one pending handshake: hello bytes accumulate across
    /// any number of partial reads (first the role byte, then the whole
    /// hello, whose length the codec reads off that byte). A complete hello hands the socket on; an
    /// unknown role, EOF or error drops it.
    fn drive_hello(&mut self, token: u64) {
        let Some(mut conn) = self.hellos.remove(&token) else {
            return;
        };
        let hello = loop {
            let need = match conn.filled {
                0 => Some(1),
                _ => Hello::encoded_len(conn.buf[0]),
            };
            let Some(need) = need else { break None };
            if conn.filled >= need {
                break Hello::decode(&conn.buf[..need]).ok();
            }
            match read_nb(&mut conn.stream, &mut conn.buf[conn.filled..need]) {
                Ok(ReadStatus::Data(n)) => conn.filled += n,
                Ok(ReadStatus::WouldBlock) => {
                    self.hellos.insert(token, conn);
                    return;
                }
                Ok(ReadStatus::Eof) | Err(_) => break None,
            }
        };
        self.poller.deregister(conn.stream.as_raw_fd());
        self.slots.remove(&token);
        let lanes = self.peers.len();
        match hello {
            Some(Hello::ServerLane(s, lane)) if usize::from(lane) < lanes => {
                self.send_inject(usize::from(lane), Inject::NewRing(s, conn.stream));
            }
            Some(Hello::Client(c)) => {
                self.send_inject(home_lane(c, lanes), Inject::NewClient(c, conn.stream));
            }
            Some(Hello::ServerLane(..)) | None => {}
        }
    }
}

/// Reads whatever the successor sent back on an outbound link: `false`
/// on EOF or an error.
fn drain_out_readable(stream: &mut TcpStream) -> bool {
    let mut sink = [0u8; 512];
    loop {
        match read_nb(stream, &mut sink) {
            Ok(ReadStatus::Data(_)) => {}
            Ok(ReadStatus::WouldBlock) => return true,
            Ok(ReadStatus::Eof) | Err(_) => return false,
        }
    }
}
