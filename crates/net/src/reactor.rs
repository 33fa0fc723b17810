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
//! lane's policy: restart, the strike rule, the release gate (a step's
//! commits reach the WAL before its replies and ring batches leave) and
//! batch selection. The shell owns the sockets, the WAL and these
//! ring-link rules: a link holds at most one staged batch, and claims
//! the core's next one only once its write buffer has fully drained and
//! only while its peer is the core's successor — the simulator's rule of
//! claiming a batch when the link can send. A parked link finishes its
//! staged batch and claims nothing more. A link comes up as soon as its
//! peer listens: a refused or timed-out connect is retried after 1 ms,
//! the pause doubling up to 50 ms, for 2 s before the peer counts as
//! down; and the strike rule's retry, which re-sends the lost batch over
//! a fresh connection, runs on the same schedule for 100 ms.
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
//! Shutdown is deterministic: `ReactorHandle::stop` flips the shared
//! flag, wakes every lane, and joins them; each lane deregisters and
//! closes every fd it owns — lane 0 the listener too — before exiting,
//! so the listen port is immediately rebindable.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hts_core::{LaneCore, LaneMap, Strike};
use hts_poll::{
    connect_nonblocking, read_nb, Event, Events, Interest, Poller, ReadStatus, Token, Waker,
};
use hts_types::codec::Hello;
use hts_types::{ClientId, Message, RingFrame, ServerId};
use hts_wal::{Recovery, Wal, WalRecord};

use crate::framing::{encode_ring_frames, frame_into, MessagePoll, NbMessageReader, WriteBuf};
use crate::server::{note_crash_verdict, recover_lanes, LaneConfig, ServerConfig, ThreadTally};

/// Token 0 is every poller's eventfd waker.
const WAKER_TOKEN: u64 = 0;
/// Lane 0's listener registers under token 1.
const LISTENER_TOKEN: u64 = 1;
/// How long a nonblocking connect may stay in progress before the
/// attempt counts as failed, and how long an accepted socket has to
/// complete its hello before lane 0 closes it.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Pause after the first failed successor connect attempt; each further
/// failure doubles it, up to [`MAX_CONNECT_PAUSE`]. A peer that is not
/// listening yet refuses at once, so a short first pause brings the link
/// up within a millisecond or two of the peer's `listen`.
const FIRST_CONNECT_PAUSE: Duration = Duration::from_millis(1);
/// Longest pause between successor connect attempts.
const MAX_CONNECT_PAUSE: Duration = Duration::from_millis(50);
/// How long a new successor link keeps trying before its peer counts as
/// down: outlasts a peer that is still booting (or restarting).
const CONNECT_BUDGET: Duration = Duration::from_secs(2);
/// How long the strike rule's fresh-connection retry keeps trying: the
/// peer was reachable moments ago, so a short budget keeps the crash
/// verdict prompt.
const RETRY_BUDGET: Duration = Duration::from_millis(100);
/// How long the listener stays unwatched after an accept error. It waits
/// for a resource (a free descriptor, say), not for a peer, so it keeps
/// a fixed pause.
const ACCEPT_PAUSE: Duration = Duration::from_millis(50);

/// Handle to a running reactor: the shared shutdown flag plus one waker
/// and join handle per lane thread.
pub(crate) struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    handles: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Signals every thread and waits them out.
    pub(crate) fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
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

    let shutdown = Arc::new(AtomicBool::new(false));

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
    let wakers = peers.iter().map(|(_, waker)| Arc::clone(waker)).collect();

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
                shutdown: Arc::clone(&shutdown),
                listener: listener.take(),
            },
            wal_state,
        );
        handles.push(thread::spawn(move || state.run()));
    }

    Ok((
        ReactorHandle {
            shutdown,
            wakers,
            handles,
        },
        addr,
    ))
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

/// Outbound successor link lifecycle. `Waiting` holds no fd (between
/// connect attempts); `Connecting` is a nonblocking connect in flight.
enum OutState {
    Waiting {
        retry_at: Instant,
    },
    Connecting {
        stream: TcpStream,
        deadline: Instant,
    },
    Ready(TcpStream),
}

impl OutState {
    /// When the link's timer fires: its next connect attempt, or the
    /// timeout of the one in flight.
    fn timer(&self) -> Option<Instant> {
        match self {
            OutState::Waiting { retry_at } => Some(*retry_at),
            OutState::Connecting { deadline, .. } => Some(*deadline),
            OutState::Ready(_) => None,
        }
    }

    /// The link's socket, once a connect attempt made one.
    fn stream(&self) -> Option<&TcpStream> {
        match self {
            OutState::Connecting { stream, .. } | OutState::Ready(stream) => Some(stream),
            OutState::Waiting { .. } => None,
        }
    }
}

/// A successor link's connect schedule. The first attempt runs at once;
/// a failed attempt is retried after [`FIRST_CONNECT_PAUSE`], the pause
/// doubling per failure up to [`MAX_CONNECT_PAUSE`], and the last pause
/// is clamped so the final attempt starts exactly at the deadline. A
/// failure at or past the deadline ends the schedule: the link is down.
struct ConnectSchedule {
    deadline: Instant,
    pause: Duration,
}

impl ConnectSchedule {
    /// A schedule whose first attempt runs at `now` and whose attempts
    /// stop `budget` later.
    fn new(now: Instant, budget: Duration) -> ConnectSchedule {
        ConnectSchedule {
            deadline: now + budget,
            pause: FIRST_CONNECT_PAUSE,
        }
    }

    /// After an attempt failed at `now`: when the next one starts, or
    /// `None` once the deadline has passed.
    fn retry_at(&mut self, now: Instant) -> Option<Instant> {
        if now >= self.deadline {
            return None;
        }
        let at = (now + self.pause).min(self.deadline);
        self.pause = (self.pause * 2).min(MAX_CONNECT_PAUSE);
        Some(at)
    }
}

/// One outbound ring connection, holding at most one staged batch:
/// `staged` keeps the batch's frames until `out` has fully drained (they
/// are what a failed link loses), and only then may the link claim the
/// core's next batch.
struct OutConn {
    token: u64,
    peer: ServerId,
    state: OutState,
    staged: Vec<RingFrame>,
    out: WriteBuf,
    schedule: ConnectSchedule,
    /// Whether the registration currently includes write interest.
    writing: bool,
    /// When the currently staged batch was encoded (`now_nanos`; 0 =
    /// none staged). Feeds `hts_net_ring_write_nanos`: the wall time a
    /// batch takes to fully drain into the socket.
    staged_at: u64,
}

impl OutConn {
    /// Encodes the staged batch behind whatever `out` already holds and
    /// starts the batch's write clock.
    fn encode_staged(&mut self) {
        let bytes = encode_ring_frames(&self.staged, self.out.tail());
        hts_metrics::histogram!("hts_net_ring_batch_frames").record(self.staged.len() as u64);
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
    shutdown: Arc<AtomicBool>,
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
    shutdown: Arc<AtomicBool>,
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
    ring_outs: HashMap<ServerId, OutConn>,
    dirty: Vec<u64>,
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
            shutdown: plumbing.shutdown,
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
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            self.handle_timers();
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
    /// Runs BEFORE replies flush and the ring pumps, so under
    /// `SyncAlways` neither a client nor the successor sees a write that
    /// is not on stable storage. Without a `wal_dir` the commits are
    /// dropped. Returns `false` on an unrecoverable log failure (the
    /// server then stops = crash-stop).
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
        let ring_outs = self.ring_outs.values().filter_map(|c| c.state.stream());
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
        // entry must not be reused after a rejoin. The next pump links
        // up with whichever successor the core moves to.
        if let Some(out) = self.ring_outs.remove(&s) {
            self.drop_out_sockets(&out);
        }
        note_crash_verdict(self.lc.id, self.lc.lane, s);
        self.core.on_peer_crashed(s);
    }

    // ---- outbound ring connections -----------------------------------

    fn on_out_event(&mut self, peer: ServerId, ev: Event) {
        let Some(mut conn) = self.ring_outs.remove(&peer) else {
            return;
        };
        if self.drive_out(&mut conn, ev) {
            self.update_out_interest(&mut conn);
            self.ring_outs.insert(peer, conn);
        } else {
            self.fail_out(conn);
        }
    }

    /// Advances one outbound link on a readiness report. Returns
    /// `false` when the link failed (caller runs the strike logic).
    fn drive_out(&mut self, conn: &mut OutConn, ev: Event) -> bool {
        match &conn.state {
            // No fd in this state; a stale event for a closed fd.
            OutState::Waiting { .. } => return true,
            // Writable resolves the attempt; SO_ERROR says how.
            OutState::Connecting { stream, .. } if ev.is_error() || ev.writable() => {
                if ev.is_error() || !matches!(stream.take_error(), Ok(None)) {
                    return self.connect_failed(conn);
                }
                self.finish_connect(conn);
            }
            OutState::Connecting { .. } | OutState::Ready(_) => {}
        }
        if !matches!(conn.state, OutState::Ready(_)) {
            return true;
        }
        // The successor never sends data back on this link: anything
        // readable is EOF or an error, caught here without waiting
        // for the next write to fail.
        if ev.readable() && !self.drain_out_readable(conn) {
            return false;
        }
        if ev.writable() && self.resume_write(conn).is_err() {
            return false;
        }
        true
    }

    /// Moves the link's bytes into the socket until it pushes back or
    /// nothing is left to stage. Each full drain clears the retry strike
    /// (the link is proven healthy) and lets [`Lane::encode_next`] claim
    /// the next batch. Hot: alloc-free — staging happens in
    /// `encode_next`.
    fn resume_write(&mut self, conn: &mut OutConn) -> io::Result<()> {
        loop {
            if conn.out.is_empty() && !self.encode_next(conn) {
                return Ok(());
            }
            let drained = match &mut conn.state {
                OutState::Ready(stream) => conn.out.flush(stream)?,
                _ => return Ok(()),
            };
            if !drained {
                return Ok(());
            }
            if conn.staged_at != 0 {
                hts_metrics::histogram!("hts_net_ring_write_nanos")
                    .record(hts_metrics::now_nanos().saturating_sub(conn.staged_at));
                conn.staged_at = 0;
            }
            self.core.on_link_drained(conn.peer);
            conn.staged.clear();
        }
    }

    /// Claims the core's next batch into a drained link, but only into
    /// the core's current successor's: a parked link never claims.
    /// Returns `false` when nothing was staged.
    fn encode_next(&mut self, conn: &mut OutConn) -> bool {
        if !matches!(conn.state, OutState::Ready(_)) || self.core.successor() != Some(conn.peer) {
            return false;
        }
        conn.staged = self.core.next_batch(usize::MAX);
        if conn.staged.is_empty() {
            return false;
        }
        conn.encode_staged();
        true
    }

    fn drain_out_readable(&mut self, conn: &mut OutConn) -> bool {
        let OutState::Ready(stream) = &mut conn.state else {
            return true;
        };
        let mut sink = [0u8; 512];
        loop {
            match read_nb(stream, &mut sink) {
                Ok(ReadStatus::Data(_)) => {}
                Ok(ReadStatus::WouldBlock) => return true,
                Ok(ReadStatus::Eof) | Err(_) => return false,
            }
        }
    }

    /// Begins (or retries) a nonblocking connect to `conn.peer`.
    /// Returns `false` only once the link's schedule is spent.
    fn start_connect(&mut self, conn: &mut OutConn) -> bool {
        match connect_nonblocking(self.lc.addrs[conn.peer.index()]) {
            Ok((stream, done)) => {
                stream.set_nodelay(true).ok();
                if self
                    .poller
                    .register(stream.as_raw_fd(), Token(conn.token), Interest::BOTH)
                    .is_err()
                {
                    return self.connect_failed(conn);
                }
                self.slots.insert(conn.token, SlotKind::RingOut(conn.peer));
                if done {
                    // Connected synchronously (the localhost common
                    // case): stage the hello; the level-triggered
                    // EPOLLOUT flushes it on the next wait.
                    conn.state = OutState::Ready(stream);
                    self.push_hello(conn);
                } else {
                    conn.state = OutState::Connecting {
                        stream,
                        deadline: Instant::now() + CONNECT_TIMEOUT,
                    };
                }
                conn.writing = true;
                true
            }
            Err(_) => self.connect_failed(conn),
        }
    }

    /// One connect attempt failed: close its socket (if any) and — while
    /// the schedule runs — back off to `Waiting` until its next attempt.
    /// Returns `false` once the schedule's deadline has passed.
    fn connect_failed(&mut self, conn: &mut OutConn) -> bool {
        self.drop_out_sockets(conn);
        conn.writing = false;
        let now = Instant::now();
        let next = conn.schedule.retry_at(now);
        conn.state = OutState::Waiting {
            retry_at: next.unwrap_or(now),
        };
        next.is_some()
    }

    /// A nonblocking connect completed: become `Ready` and stage the
    /// lane-tagged handshake (with a retry's lost batch behind it). The
    /// first full drain of the buffer then clears any retry strike: the
    /// link is proven healthy even if no frame follows for a while.
    fn finish_connect(&mut self, conn: &mut OutConn) {
        let placeholder = OutState::Waiting {
            retry_at: Instant::now(),
        };
        let OutState::Connecting { stream, .. } = std::mem::replace(&mut conn.state, placeholder)
        else {
            return;
        };
        conn.state = OutState::Ready(stream);
        self.push_hello(conn);
    }

    /// Stages the handshake on a link that just connected, and behind
    /// it the batch a failed connection lost, if any.
    fn push_hello(&mut self, conn: &mut OutConn) {
        // Lane 0 keeps the legacy handshake (a single-lane cluster
        // speaks the pre-lane wire protocol bit for bit).
        let hello = if self.lc.lane == 0 {
            Hello::Server(self.lc.id)
        } else {
            Hello::ServerLane(self.lc.id, self.lc.lane)
        };
        conn.out.tail().extend_from_slice(&hello.encode());
        if !conn.staged.is_empty() {
            conn.encode_staged();
        }
    }

    /// Keeps write interest armed only while the link has (or is about
    /// to learn whether it has) bytes to move.
    fn update_out_interest(&mut self, conn: &mut OutConn) {
        let (fd, want) = match &conn.state {
            OutState::Waiting { .. } => return,
            OutState::Connecting { stream, .. } => (stream.as_raw_fd(), true),
            OutState::Ready(stream) => (stream.as_raw_fd(), !conn.out.is_empty()),
        };
        self.want_write(fd, conn.token, &mut conn.writing, want);
    }

    /// A link to `peer` whose connect attempts may run for `budget`,
    /// the first one at once.
    fn new_out_conn(&mut self, peer: ServerId, budget: Duration) -> OutConn {
        let token = self.next_token;
        self.next_token += 1;
        let now = Instant::now();
        OutConn {
            token,
            peer,
            state: OutState::Waiting { retry_at: now },
            staged: Vec::new(),
            out: WriteBuf::new(),
            schedule: ConnectSchedule::new(now, budget),
            writing: false,
            staged_at: 0,
        }
    }

    /// Runs the lane core's strike rule on a failed link: the first
    /// failure moves the lost batch onto one fresh connection, a second
    /// failure in a row is a crash verdict.
    fn fail_out(&mut self, mut conn: OutConn) {
        loop {
            self.drop_out_sockets(&conn);
            let peer = conn.peer;
            let lost = std::mem::take(&mut conn.staged);
            let Strike::Retry(lost) = self.core.on_link_failed(peer, lost) else {
                note_crash_verdict(self.lc.id, self.lc.lane, peer);
                return;
            };
            let mut fresh = self.new_out_conn(peer, RETRY_BUDGET);
            fresh.staged = lost;
            if self.start_connect(&mut fresh) {
                self.update_out_interest(&mut fresh);
                self.ring_outs.insert(peer, fresh);
                return;
            }
            conn = fresh;
        }
    }

    fn drop_out_sockets(&mut self, conn: &OutConn) {
        self.slots.remove(&conn.token);
        if let Some(stream) = conn.state.stream() {
            self.poller.deregister(stream.as_raw_fd());
        }
    }

    /// Feeds the core's successor until the core has nothing ready or
    /// the socket pushes back. A successor without a link (a parked one
    /// is reused as it stands) gets a fresh connection first.
    fn pump(&mut self) {
        let Some(next) = self.core.successor() else {
            return;
        };
        let mut conn = match self.ring_outs.remove(&next) {
            Some(conn) => conn,
            None => {
                let mut conn = self.new_out_conn(next, CONNECT_BUDGET);
                if !self.start_connect(&mut conn) {
                    self.fail_out(conn);
                    return;
                }
                conn
            }
        };
        if self.resume_write(&mut conn).is_err() {
            self.fail_out(conn);
            return;
        }
        self.update_out_interest(&mut conn);
        self.ring_outs.insert(next, conn);
    }

    // ---- timers ------------------------------------------------------

    fn next_timeout(&self) -> Option<Duration> {
        let hellos = self.hellos.values().map(|conn| Some(conn.deadline));
        let links = self.ring_outs.values().map(|conn| conn.state.timer());
        std::iter::once(self.accept_paused_until)
            .chain(hellos)
            .chain(links)
            .flatten()
            .min()
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    fn handle_timers(&mut self) {
        self.resume_accepting();
        self.expire_hellos();
        let now = Instant::now();
        let due: Vec<(ServerId, OutConn)> = self
            .ring_outs
            .extract_if(|_, conn| conn.state.timer().is_some_and(|at| at <= now))
            .collect();
        for (peer, mut conn) in due {
            // A waiting link makes its next attempt; a connecting one
            // timed out.
            let healthy = if matches!(conn.state, OutState::Waiting { .. }) {
                self.start_connect(&mut conn)
            } else {
                self.connect_failed(&mut conn)
            };
            if healthy {
                self.update_out_interest(&mut conn);
                self.ring_outs.insert(peer, conn);
            } else {
                self.fail_out(conn);
            }
        }
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
        }
    }

    fn add_client(&mut self, c: ClientId, stream: TcpStream) {
        let Some(token) = self.watch(&stream, SlotKind::Client) else {
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
        let Some(token) = self.watch(&stream, SlotKind::RingIn) else {
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

    /// Watches `stream` for reads under a fresh token, as a `kind` slot;
    /// `None` when the poller refuses it.
    fn watch(&mut self, stream: &TcpStream, kind: SlotKind) -> Option<u64> {
        let token = self.next_token;
        self.next_token += 1;
        self.poller
            .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
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
                    let Some(token) = self.watch(&stream, SlotKind::Hello) else {
                        continue;
                    };
                    self.hellos.insert(
                        token,
                        HelloConn {
                            stream,
                            buf: [0; 5],
                            filled: 0,
                            deadline: Instant::now() + CONNECT_TIMEOUT,
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
            // Legacy server handshake = lane 0.
            Some(Hello::Server(s)) => self.send_inject(0, Inject::NewRing(s, conn.stream)),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Start times, as offsets from the first, of every attempt a
    /// schedule with `budget` allows when each attempt fails the instant
    /// it starts.
    fn attempt_offsets(budget: Duration) -> Vec<Duration> {
        let t0 = Instant::now();
        let mut schedule = ConnectSchedule::new(t0, budget);
        // The first attempt runs at once.
        let mut offsets = vec![Duration::ZERO];
        let mut now = t0;
        while let Some(next) = schedule.retry_at(now) {
            assert!(next > now, "an attempt never runs before the last failure");
            offsets.push(next - t0);
            now = next;
        }
        offsets
    }

    #[test]
    fn connect_schedule_doubles_to_the_cap_and_stops_at_the_deadline() {
        let ms = Duration::from_millis;
        let offsets = attempt_offsets(CONNECT_BUDGET);
        let pauses: Vec<Duration> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(
            pauses[..7],
            [ms(1), ms(2), ms(4), ms(8), ms(16), ms(32), ms(50)]
        );
        // Capped at 50 ms, except the last pause, clamped so the final
        // attempt starts exactly at the 2 s deadline.
        let (last, capped) = pauses[6..].split_last().unwrap();
        assert!(capped.iter().all(|&p| p == MAX_CONNECT_PAUSE));
        assert!(*last > Duration::ZERO && *last <= MAX_CONNECT_PAUSE);
        assert_eq!(offsets.last(), Some(&ms(2_000)));

        // The one-fresh-connection retry still gives its peer 100 ms.
        assert_eq!(
            attempt_offsets(RETRY_BUDGET),
            [0, 1, 3, 7, 15, 31, 63, 100].map(ms)
        );

        // A failure that lands late (a slow connect timing out past the
        // deadline) ends the schedule too.
        let t0 = Instant::now();
        let mut schedule = ConnectSchedule::new(t0, RETRY_BUDGET);
        assert_eq!(schedule.retry_at(t0 + ms(99)), Some(t0 + ms(100)));
        assert_eq!(schedule.retry_at(t0 + ms(150)), None);
    }
}
