//! The layer walk: the traced run that says where server time goes.
//!
//! Single-threaded and in-process, it pushes the workload's generated op
//! stream through the layers' public functions in the order the reactor
//! calls them — client encode and framing, server read and decode, the
//! core's client entry points, `drain_frames`, ring-batch encode, the
//! successor's decode and `on_frame` for each of the 2n hops,
//! `drain_commits`, `Wal::append_batch` on the durable workload, ack
//! encode and client decode — over three `MultiObjectServer`s wired
//! into a ring by byte buffers standing in for sockets.
//!
//! Every call is a span (name, start, end, parent, the op's request id,
//! the server it ran on), kept in memory. A span's self time is its
//! duration minus what its children cover. The walk runs twice, spans on
//! and spans off; the difference is the tracing overhead. A counting
//! global allocator (installed by the binary) gives allocations per
//! write. No threads, clocks or hash iteration decide anything here, so
//! the walk's *counts* repeat exactly for a seed; its times do not.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Cursor, Write as _};
use std::path::Path;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use hts_core::{Action, Config, Durability, MultiObjectServer};
use hts_net::{write_message, MessageReader};
use hts_poll::{Events, Poller, Token, Waker};
use hts_types::{codec, ClientId, Message, ObjectId, RequestId, ServerId};
use hts_wal::{recover, Wal, WalOptions, WalRecord};

use crate::checker::make_value;
use crate::cluster::{TempDir, SERVERS};
use crate::loadgen::{GenOp, OpStream};
use crate::procfs::thread_cpu_ns;
use crate::spec::{Workload, SESSIONS};
use crate::stats::median;

/// Allocation counter for the walk's thread. The binary installs
/// [`CountingAlloc`] as its global allocator; a thread-local keeps the
/// servers' and generator's threads from sharing a cache line over it.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is bumping a thread-local `Cell<u64>`, which has no destructor (so it is
// valid for the whole life of the thread, including TLS teardown, where
// `try_with` simply fails) and does not allocate.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above, with this `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Where a span ran.
const CLIENT: i8 = -1;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`u32::MAX`: none).
    pub parent: u32,
    pub request: u64,
    /// Server id, or -1 for the client side.
    pub server: i8,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, server: i8, request: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.stack.push(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            server,
        });
    }

    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        if let Some(index) = self.stack.pop() {
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    /// Closes a span whose op was only known once the call returned
    /// (a message is anonymous until it is decoded).
    fn exit_for(&mut self, request: u64) {
        if let Some(index) = self.stack.last() {
            self.spans[*index as usize].request = request;
        }
        self.exit();
    }

    /// Self time per span name: `(total ns, calls)`, client and server
    /// sides apart.
    fn self_times(&self) -> BTreeMap<(&'static str, bool), (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != u32::MAX {
                covered[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = out
                .entry((span.name, span.server != CLIENT))
                .or_insert((0, 0));
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(covered);
            entry.1 += 1;
        }
        out
    }
}

/// Counts that must repeat exactly for a seed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalkCounts {
    pub ops: u64,
    pub writes: u64,
    pub ring_frames: u64,
    pub ring_batches: u64,
    pub ring_bytes: u64,
    pub wal_bytes: u64,
    pub payload_bytes: u64,
    pub allocs: u64,
}

pub struct WalkReport {
    /// `(row name, value)` for every walk-sourced row but the budget's.
    pub metrics: Vec<(&'static str, f64)>,
    /// On-CPU self time of every server-side span, µs per generated op,
    /// the three servers summed.
    pub server_self_us_per_op: f64,
    pub trace_overhead_pct: f64,
    pub counts: WalkCounts,
}

/// Spans named here run only to time a sub-step on the same bytes the
/// real path already handled; they are left out of the server budget so
/// nothing is counted twice.
const AUX: [&str; 2] = ["types.decode_shared", "types.encode_request"];

/// The ring of three cores and the buffers between them.
struct Ring {
    cores: Vec<MultiObjectServer>,
    wals: Vec<Option<Wal>>,
    /// Client → server byte streams (session `i` talks to server `i`).
    up: Vec<Vec<u8>>,
    /// Server → client byte streams.
    down: Vec<Vec<u8>>,
    /// `link[s]`: bytes server `s` sent to its successor.
    link: Vec<Vec<u8>>,
    up_readers: Vec<MessageReader>,
    down_readers: Vec<MessageReader>,
    link_readers: Vec<MessageReader>,
    scratch: BytesMut,
    max_frames: usize,
    max_bytes: usize,
    /// Request currently writing each object (one at a time per object).
    writing: BTreeMap<u32, u64>,
    counts: WalkCounts,
}

impl Ring {
    fn new(w: &Workload, wal_base: Option<&Path>) -> Result<Ring, String> {
        let config = Config {
            durability: if w.durable {
                Durability::SyncAlways
            } else {
                Durability::Volatile
            },
            ..Config::default()
        };
        let batching = config.batching.normalized();
        let mut wals = Vec::new();
        for s in 0..SERVERS {
            wals.push(match wal_base {
                Some(base) => Some(
                    Wal::open(base.join(format!("server-{s}")), WalOptions::default())
                        .map_err(|e| format!("walk wal: {e}"))?,
                ),
                None => None,
            });
        }
        let per_server = |n: u16| (0..n).map(|_| Vec::new()).collect::<Vec<Vec<u8>>>();
        let readers = |n: u16| (0..n).map(|_| MessageReader::new()).collect::<Vec<_>>();
        Ok(Ring {
            cores: (0..SERVERS)
                .map(|s| MultiObjectServer::new(ServerId(s), SERVERS, config.clone()))
                .collect(),
            wals,
            up: per_server(SESSIONS as u16),
            down: per_server(SESSIONS as u16),
            link: per_server(SERVERS),
            up_readers: readers(SESSIONS as u16),
            down_readers: readers(SESSIONS as u16),
            link_readers: readers(SERVERS),
            scratch: BytesMut::new(),
            max_frames: batching.max_frames,
            max_bytes: batching.max_bytes,
            writing: BTreeMap::new(),
            counts: WalkCounts::default(),
        })
    }

    /// Client side of one op: encode and frame it onto its session's
    /// connection.
    fn send(&mut self, t: &mut Tracer, session: usize, msg: &Message) {
        let request = request_of(msg);
        t.enter("types.encode_request", CLIENT, request);
        black_box(codec::encode(black_box(msg)));
        t.exit();
        t.enter("net.frame_write", CLIENT, request);
        write_message(&mut self.up[session], msg).expect("write to a Vec");
        t.exit();
    }

    /// Server `s` reads everything its client sent and hands it to the core.
    fn ingest(&mut self, t: &mut Tracer, s: usize) {
        let bytes = std::mem::take(&mut self.up[s]);
        let mut cursor = Cursor::new(bytes.as_slice());
        while (cursor.position() as usize) < bytes.len() {
            let at = cursor.position() as usize;
            t.enter("net.frame_read", s as i8, 0);
            let msg = self.up_readers[s].read(&mut cursor).expect("own framing");
            let request = request_of(&msg);
            t.exit_for(request);
            // The decode alone, on the same payload (`frame_read` above
            // already paid for it once, inside).
            let payload = Bytes::copy_from_slice(&bytes[at + 4..cursor.position() as usize]);
            t.enter("types.decode_shared", s as i8, request);
            black_box(codec::decode_shared(black_box(&payload)).expect("own encoding"));
            t.exit();
            let client = ClientId(s as u32);
            let actions = match msg {
                Message::WriteReq {
                    object,
                    request,
                    value,
                } => {
                    self.writing.insert(object.0, request.0);
                    t.enter("core.on_client_write", s as i8, request.0);
                    let a = self.cores[s].on_client_write(object, client, request, value);
                    t.exit();
                    a
                }
                Message::ReadReq { object, request } => {
                    t.enter("core.on_client_read", s as i8, request.0);
                    let a = self.cores[s].on_client_read(object, client, request);
                    t.exit();
                    a
                }
                other => panic!("the walk sent {other}"),
            };
            self.reply(t, s, actions);
        }
    }

    /// One pass of server `s`'s event loop: drain the core's frames into
    /// one batch on the link. Returns whether anything was sent.
    fn pump(&mut self, t: &mut Tracer, s: usize) -> bool {
        t.enter("core.drain_frames", s as i8, 0);
        let frames = self.cores[s].drain_frames(self.max_frames, self.max_bytes);
        t.exit();
        if frames.is_empty() {
            return false;
        }
        let request = self.writing.get(&frames[0].object.0).copied().unwrap_or(0);
        t.enter("types.encode_ring_batch", s as i8, request);
        self.scratch.clear();
        codec::encode_ring_batch_into(&frames, &mut self.scratch);
        t.exit();
        let link = &mut self.link[s];
        link.extend_from_slice(&(self.scratch.len() as u32).to_be_bytes());
        link.extend_from_slice(&self.scratch);
        self.counts.ring_frames += frames.len() as u64;
        self.counts.ring_batches += 1;
        self.counts.ring_bytes += 4 + self.scratch.len() as u64;
        true
    }

    /// Server `s` reads what its predecessor `p` sent, applies each
    /// frame, logs the commits and answers its clients.
    fn receive(&mut self, t: &mut Tracer, p: usize, s: usize) {
        let bytes = std::mem::take(&mut self.link[p]);
        let mut cursor = Cursor::new(bytes.as_slice());
        let mut actions = Vec::new();
        while (cursor.position() as usize) < bytes.len() {
            t.enter("net.frame_read", s as i8, 0);
            let msg = self.link_readers[s].read(&mut cursor).expect("own framing");
            t.exit();
            let Message::RingBatch(frames) = msg else {
                panic!("the walk only sends ring batches");
            };
            for frame in frames {
                let request = self.writing.get(&frame.object.0).copied().unwrap_or(0);
                t.enter("core.on_frame", s as i8, request);
                actions.extend(self.cores[s].on_frame(frame));
                t.exit();
            }
        }
        self.reply(t, s, actions);
    }

    /// Group-commit before replies flush, as the reactor does, then
    /// frame each reply onto the client connection.
    fn reply(&mut self, t: &mut Tracer, s: usize, actions: Vec<Action>) {
        t.enter("core.drain_commits", s as i8, 0);
        let commits = self.cores[s].drain_commits();
        t.exit();
        if let Some(wal) = self.wals[s].as_mut() {
            let records: Vec<WalRecord> = commits
                .into_iter()
                .map(|(object, tag, value)| WalRecord { object, tag, value })
                .collect();
            if !records.is_empty() {
                self.counts.payload_bytes +=
                    records.iter().map(|r| r.value.len() as u64).sum::<u64>();
                t.enter("wal.append_batch", s as i8, 0);
                wal.append_batch(&records).expect("walk wal append");
                t.exit();
            }
        }
        for action in actions {
            let (client, msg) = match action {
                Action::WriteAck {
                    object,
                    client,
                    request,
                } => {
                    self.writing.remove(&object.0);
                    (client, Message::WriteAck { object, request })
                }
                Action::ReadReply {
                    object,
                    client,
                    request,
                    value,
                    ..
                } => (
                    client,
                    Message::ReadAck {
                        object,
                        request,
                        value,
                    },
                ),
            };
            t.enter("net.frame_write", s as i8, request_of(&msg));
            write_message(&mut self.down[client.0 as usize], &msg).expect("write to a Vec");
            t.exit();
        }
    }

    /// Client side: decode every reply; returns how many arrived.
    fn collect(&mut self, t: &mut Tracer, session: usize) -> usize {
        let bytes = std::mem::take(&mut self.down[session]);
        let mut cursor = Cursor::new(bytes.as_slice());
        let mut replies = 0;
        while (cursor.position() as usize) < bytes.len() {
            t.enter("net.frame_read", CLIENT, 0);
            let msg = self.down_readers[session]
                .read(&mut cursor)
                .expect("own framing");
            t.exit_for(request_of(black_box(&msg)));
            replies += 1;
        }
        replies
    }

    /// Runs the ring until no server has anything left to send.
    fn settle(&mut self, t: &mut Tracer) {
        loop {
            let mut progressed = false;
            for s in 0..usize::from(SERVERS) {
                if self.pump(t, s) {
                    let next = self.cores[s].successor().expect("a 3-ring").index();
                    self.receive(t, s, next);
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }
}

/// The op a client-side message belongs to (0 for ring traffic).
fn request_of(msg: &Message) -> u64 {
    match msg {
        Message::WriteReq { request, .. }
        | Message::ReadReq { request, .. }
        | Message::WriteAck { request, .. }
        | Message::ReadAck { request, .. }
        | Message::StatsRequest { request }
        | Message::StatsReply { request, .. } => request.0,
        Message::Ring(_) | Message::RingBatch(_) => 0,
    }
}

/// Wall and on-CPU time of one pass, seconds.
#[derive(Debug, Clone, Copy)]
struct PassTime {
    wall_s: f64,
    cpu_s: f64,
}

/// One pass over the workload's op stream: every object is written once
/// (untimed, as the TCP run's set-up does), then the sessions take turns,
/// one op each, and the ring runs to quiescence before the next turn.
/// One op per session in flight is what the paced phases keep
/// (`session.window_inflight_mean` is 1.0–1.7 there, and servers form
/// batches of 1–2 frames); a closed loop batches more and pays less per op.
fn pass(
    w: &Workload,
    seed: u64,
    spans: bool,
    wal_base: Option<&Path>,
) -> Result<(Tracer, Ring, PassTime), String> {
    let mut ring = Ring::new(w, wal_base)?;
    let mut streams: Vec<OpStream> = (0..SESSIONS)
        .map(|i| OpStream::new(seed, i as u64, w.roles[i], w.writers(), w.objects))
        .collect();
    let mut seqs = vec![0u64; w.objects as usize];
    let mut next_request = 1u64;
    let mut write = |object: u32, request: u64| {
        seqs[object as usize] += 1;
        let session = u64::from(object) % w.writers();
        Message::WriteReq {
            object: ObjectId(object),
            request: RequestId(request),
            value: make_value(session, seqs[object as usize], w.value_bytes),
        }
    };
    let turn = |ring: &mut Ring, t: &mut Tracer, ops: &[(usize, Message)]| {
        t.enter("walk.turn", CLIENT, 0);
        for (session, msg) in ops {
            ring.send(t, *session, msg);
        }
        for s in 0..SESSIONS {
            ring.ingest(t, s);
        }
        ring.settle(t);
        let replies: usize = (0..SESSIONS).map(|s| ring.collect(t, s)).sum();
        t.exit();
        if replies == ops.len() {
            Ok(())
        } else {
            Err(format!("walk: {replies} replies to {} requests", ops.len()))
        }
    };

    let mut untimed = Tracer::new(false);
    for object in 0..w.objects {
        let session = (u64::from(object) % w.writers()) as usize;
        let msg = write(object, next_request);
        next_request += 1;
        turn(&mut ring, &mut untimed, &[(session, msg)])?;
    }
    // What the log holds is measured on disk at the end, so the payload
    // it was given is counted from the start; everything else restarts.
    ring.counts = WalkCounts {
        payload_bytes: ring.counts.payload_bytes,
        ..WalkCounts::default()
    };

    let mut t = Tracer::new(spans);
    let allocs_before = thread_allocs();
    let cpu_before = thread_cpu_ns();
    let t0 = Instant::now();
    let mut sent = 0usize;
    while sent < w.walk_ops {
        let mut ops = Vec::with_capacity(SESSIONS);
        for (session, stream) in streams.iter_mut().enumerate() {
            let msg = match stream.next_op() {
                GenOp::Write { owned_index } => {
                    ring.counts.writes += 1;
                    write(stream.owned()[owned_index], next_request)
                }
                GenOp::Read { object } => Message::ReadReq {
                    object: ObjectId(object),
                    request: RequestId(next_request),
                },
            };
            next_request += 1;
            ops.push((session, msg));
        }
        sent += ops.len();
        turn(&mut ring, &mut t, &ops)?;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Where the kernel keeps no per-thread times, wall time stands in.
    let cpu_ns = thread_cpu_ns().saturating_sub(cpu_before);
    let time = PassTime {
        wall_s,
        cpu_s: if cpu_ns == 0 {
            wall_s
        } else {
            cpu_ns as f64 / 1e9
        },
    };
    ring.counts.ops = sent as u64;
    ring.counts.allocs = thread_allocs() - allocs_before;
    Ok((t, ring, time))
}

/// Median round trip of an eventfd wake between two threads parked in
/// `Poller::wait`, halved: what one cross-thread wake costs.
fn wake_roundtrip_us() -> Result<f64, String> {
    const ROUNDS: usize = 2000;
    let io = |e: std::io::Error| format!("poll: {e}");
    let (ping, pong) = (Poller::new().map_err(io)?, Poller::new().map_err(io)?);
    let ping_waker = Waker::new(&ping, Token(0)).map_err(io)?;
    let pong_waker = Waker::new(&pong, Token(0)).map_err(io)?;
    let mut samples = Vec::with_capacity(ROUNDS);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut events = Events::with_capacity(4);
            for _ in 0..ROUNDS {
                if pong.wait(&mut events, None).is_err() {
                    return;
                }
                pong_waker.drain();
                ping_waker.wake();
            }
        });
        let mut events = Events::with_capacity(4);
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            pong_waker.wake();
            // Bounded, so a partner that gave up cannot hang the walk.
            let woken = ping.wait(&mut events, Some(std::time::Duration::from_secs(1)));
            if !matches!(woken, Ok(n) if n > 0) {
                return;
            }
            ping_waker.drain();
            samples.push(t0.elapsed().as_nanos() as f64 / 2e3);
        }
    });
    median(&samples).ok_or_else(|| "poll: no wake completed".into())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs the walk for `w`: spans on, spans off, then the stand-alone
/// timings (state export, compaction, recovery, poll wake).
pub fn run(
    w: &Workload,
    seed: u64,
    smoke: bool,
    trace_out: Option<&Path>,
) -> Result<WalkReport, String> {
    // A smoke run only has to fill every row: a fifth of the ops, over
    // few enough objects that a debug build's scans stay short.
    let w = &if smoke {
        Workload {
            walk_ops: w.walk_ops / 5,
            objects: w.objects.min(128),
            ..*w
        }
    } else {
        *w
    };
    let tmp = if w.durable {
        Some(TempDir::new().map_err(|e| format!("walk wal dir: {e}"))?)
    } else {
        None
    };
    let base = |name: &str| tmp.as_ref().map(|t| t.path().join(name));
    let on_dir = base("spans-on");
    let off_dir = base("spans-off");
    let (tracer, mut ring, traced) = pass(w, seed, true, on_dir.as_deref())?;
    let (_, plain, untraced) = pass(w, seed, false, off_dir.as_deref())?;
    let mut counts = ring.counts.clone();
    // Allocation counts come from the untraced pass: spans allocate too.
    counts.allocs = plain.counts.allocs;
    if counts != plain.counts {
        return Err(format!(
            "walk: counts differ between the two passes: {counts:?} vs {:?}",
            plain.counts
        ));
    }
    drop(plain);

    let ops = counts.ops as f64;
    let selfs = tracer.self_times();
    let us_per_op = |name: &'static str, server: bool| {
        selfs
            .get(&(name, server))
            .map_or(0.0, |(ns, _)| *ns as f64 / 1e3 / ops)
    };
    let both = |name: &'static str| us_per_op(name, true) + us_per_op(name, false);
    // Spans are timed by the wall clock, but the budget is a CPU budget:
    // the time the pass spent off the CPU — blocked in fsync on the
    // durable workload, or preempted — is taken back out.
    let off_cpu_us_per_op = (traced.wall_s - traced.cpu_s).max(0.0) * 1e6 / ops;
    let server_self_us_per_op = (selfs
        .iter()
        .filter(|((name, server), _)| *server && !AUX.contains(name))
        .map(|(_, (ns, _))| *ns as f64 / 1e3 / ops)
        .sum::<f64>()
        - off_cpu_us_per_op)
        .max(0.0);

    // Stand-alone timings on the state the walk left behind.
    let export_us = {
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                black_box(ring.cores[0].export_state());
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        median(&samples).unwrap_or(0.0)
    };
    let (mut compact_us, mut recover_ms, mut wal_ratio) = (0.0, 0.0, 0.0);
    if let (Some(dir), Some(wal)) = (on_dir.as_deref(), ring.wals[0].as_mut()) {
        let dir = dir.join("server-0");
        counts.wal_bytes = (0..SERVERS)
            .map(|s| dir_bytes(&dir.with_file_name(format!("server-{s}"))))
            .sum();
        wal_ratio = counts.wal_bytes as f64 / counts.payload_bytes.max(1) as f64;
        let t0 = Instant::now();
        black_box(recover(&dir).map_err(|e| format!("walk recover: {e}"))?);
        recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        let state: Vec<WalRecord> = ring.cores[0]
            .export_state()
            .into_iter()
            .map(|(object, tag, value)| WalRecord { object, tag, value })
            .collect();
        let t0 = Instant::now();
        wal.compact(&state)
            .map_err(|e| format!("walk compact: {e}"))?;
        compact_us = t0.elapsed().as_nanos() as f64 / 1e3;
    }

    if let Some(path) = trace_out {
        write_spans(path, &tracer.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let metrics = vec![
        ("types.encode_request_us", both("types.encode_request")),
        ("types.decode_shared_us", both("types.decode_shared")),
        (
            "types.encode_ring_batch_us",
            both("types.encode_ring_batch"),
        ),
        (
            "types.allocs_per_write",
            counts.allocs as f64 / counts.writes.max(1) as f64,
        ),
        ("net.frame_write_us", us_per_op("net.frame_write", true)),
        ("net.frame_read_us", us_per_op("net.frame_read", true)),
        ("poll.wake_roundtrip_us", wake_roundtrip_us()?),
        ("core.on_client_write_us", both("core.on_client_write")),
        ("core.on_client_read_us", both("core.on_client_read")),
        ("core.on_frame_us", both("core.on_frame")),
        ("core.drain_frames_us", both("core.drain_frames")),
        ("core.export_state_us", export_us),
        ("wal.append_batch_us", both("wal.append_batch")),
        ("wal.compact_us", compact_us),
        ("wal.bytes_per_payload_byte", wal_ratio),
        ("wal.recover_ms", recover_ms),
    ];
    Ok(WalkReport {
        metrics,
        server_self_us_per_op,
        trace_overhead_pct: (traced.cpu_s - untraced.cpu_s) / untraced.cpu_s * 100.0,
        counts,
    })
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"server\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request, s.server
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// The named workload, cut down to what a debug build walks quickly.
    fn tiny(name: &str) -> Workload {
        let w = *crate::spec::workload(name).unwrap();
        Workload {
            walk_ops: 400,
            objects: w.objects.min(64),
            ..w
        }
    }

    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        for w in WORKLOADS.iter().filter(|w| !w.durable) {
            let w = tiny(w.name);
            let (_, a, _) = pass(&w, 11, false, None).unwrap();
            let (_, b, _) = pass(&w, 11, true, None).unwrap();
            let (mut ca, mut cb) = (a.counts, b.counts);
            // Spans allocate; everything else must match bit for bit.
            (ca.allocs, cb.allocs) = (0, 0);
            assert_eq!(ca, cb, "{}", w.name);
            assert_eq!(ca.ops, 400);
            // Every write crosses 2n links: pre-write and write, n hops each.
            assert_eq!(
                ca.ring_frames,
                ca.writes * 2 * u64::from(SERVERS),
                "{}",
                w.name
            );
            let (_, c, _) = pass(&w, 12, false, None).unwrap();
            assert_ne!(c.counts.ring_bytes + c.counts.writes, 0);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 0, 1);
        t.enter("inner", 0, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let selfs = t.self_times();
        let (outer, _) = selfs[&("outer", true)];
        let (inner, calls) = selfs[&("inner", true)];
        assert_eq!(calls, 1);
        assert!(inner >= 2_000_000);
        assert!(
            outer < inner,
            "outer self {outer} must not include inner {inner}"
        );
        assert_eq!(t.spans[1].parent, 0);
    }

    #[test]
    fn the_durable_walk_logs_every_commit_on_every_server() {
        let w = tiny("durable_crash");
        let report = run(&w, 5, false, None).unwrap();
        let get = |name: &str| report.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("wal.append_batch_us") > 0.0);
        assert!(get("wal.bytes_per_payload_byte") > 1.0);
        // The untimed first write of every object is in the log too.
        assert_eq!(
            report.counts.payload_bytes,
            (report.counts.writes + u64::from(w.objects))
                * w.value_bytes as u64
                * u64::from(SERVERS)
        );
    }
}
