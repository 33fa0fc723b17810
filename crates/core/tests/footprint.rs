//! Pins what a register costs inside `hts-core`, with a counting global
//! allocator (live bytes and allocation count) over three
//! [`MultiObjectServer`]s wired into a ring in process: frames are handed
//! from each server to its successor by value, and the ring is drained
//! until quiet after every write. Write origins alternate between servers
//! 0 and 1, as the benchmark's `small_wide` sessions do.
//!
//! * **At rest** a register costs its stored tag and value, its
//!   per-origin watermarks and the core that holds them — no emptied
//!   queue, set or map keeps heap behind. Summed over the three servers
//!   that is ≤ 2112 B per register (this test counted 7.58 KiB at commit
//!   a7f22ad, whose cores kept every emptied container's heap, and
//!   2273 B while each core kept nine private counters), and the
//!   4096th register costs what the 1024th did.
//! * **In flight** the common case — one write per object — allocates
//!   nothing of the core's own, so a hot object's write costs no more
//!   allocations than it does now, and a crash report adds none for the
//!   rest of the process.
//! * **Contended**, with several writes to one object queued at every
//!   server, the spilled queues and maps keep their heap until they
//!   empty, so a write still costs no more allocations than it does now.
//! * **Through the lane cores**, the path both runtimes drive (links,
//!   batches and the release gate), a hot object's write costs no more
//!   allocations than it does now.
//!
//! Everything runs in one `#[test]` so no parallel test thread pollutes
//! the counts (this file is its own test binary, so the allocator hook
//! is scoped to exactly these assertions). The ring stays at ≤ 4096
//! registers: `MultiObjectServer` still scans every object per frame, so
//! the settle loop is quadratic in the register count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};

use hts_core::{Config, LaneCore, LinkOp, MultiObjectServer};
use hts_types::{ClientId, Message, Nanos, ObjectId, RequestId, ServerId, Value};

struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counters are the
// only addition and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Live heap per register, summed over the three servers, that this
/// test counts (2057–2063 B on a 64-bit target), rounded up to the next
/// 64 B.
const AT_REST_BYTES_PER_REGISTER: f64 = 2112.0;

/// Allocations per hot-object write that this test counts at commit
/// 5df0c01, all outside the cores: the object list `MultiObjectServer`
/// builds per pulled frame, six per write, and the acknowledgement's
/// `Vec`.
const ALLOCS_PER_WRITE_BEFORE: f64 = 7.0;

/// Allocations per write that `contended_allocs_per_write` counts at
/// commit 5df0c01, by the number of writes queued per server.
const CONTENDED_ALLOCS_PER_WRITE_BEFORE: [(u32, f64); 2] = [(4, 7.5), (16, 5.25)];

/// Allocations per hot-object write through three lane cores
/// ([`lane_write`]) at commit 5df0c01. Fifteen are the object list
/// that every `next_frame` poll of a claim builds, the empty polls
/// included; six are the batches' frame `Vec`s.
const LANE_ALLOCS_PER_WRITE_BEFORE: f64 = 23.0;

/// `n` servers in a ring; `None` marks a crashed one.
struct Ring {
    servers: Vec<Option<MultiObjectServer>>,
    next_request: u64,
}

impl Ring {
    fn new(n: u16) -> Ring {
        Ring {
            servers: (0..n)
                .map(|s| Some(MultiObjectServer::new(ServerId(s), n, Config::default())))
                .collect(),
            next_request: 1,
        }
    }

    fn server(&mut self, s: usize) -> &mut MultiObjectServer {
        self.servers[s].as_mut().expect("a live server")
    }

    /// Writes `value` to `object` through server `origin` and drains the
    /// ring until no server has anything left to send.
    fn write(&mut self, origin: usize, object: u32, value: Value) {
        self.submit(origin, object, value);
        self.settle();
    }

    /// Hands a client write to server `origin` without moving the ring.
    fn submit(&mut self, origin: usize, object: u32, value: Value) {
        let request = RequestId(self.next_request);
        self.next_request += 1;
        self.server(origin)
            .on_client_write(ObjectId(object), ClientId(0), request, value);
    }

    /// Walks round the ring, each server sending everything it has to
    /// its successor, until a whole lap sends nothing. `has_ring_work`
    /// first: an empty `next_frame` polls every core, and so would make
    /// the lap's idle stops the test's whole running time.
    fn settle(&mut self) {
        let n = self.servers.len();
        let (mut s, mut idle) = (0, 0);
        while idle < n {
            idle += 1;
            while let Some(server) = self.servers[s].as_mut().filter(|v| v.has_ring_work()) {
                let Some(frame) = server.next_frame() else {
                    break;
                };
                let next = server.successor().expect("a ring of more than one");
                self.server(next.index()).on_frame(frame);
                idle = 0;
            }
            s = (s + 1) % n;
        }
    }

    /// Server `s` dies: every survivor is told, and the ring splices.
    fn crash(&mut self, s: usize) {
        self.servers[s] = None;
        for server in self.servers.iter_mut().flatten() {
            server.on_server_crashed(ServerId(s as u16));
        }
        self.settle();
    }
}

/// Ends a lane core's step, as the simulator's `SimServer` does: its
/// commits are taken and made durable at once, and its replies taken.
/// Returns how many replies it released.
fn end_step(lane: &mut LaneCore) -> usize {
    lane.take_commits();
    lane.commits_durable();
    lane.take_replies().count()
}

/// Hands a client write to lane core `origin` and drives the lanes the
/// way `SimServer` does until a whole lap sends nothing: each visit ends
/// the lane's step, then sends its successor what the link may claim,
/// and the successor applies the batch and ends its step. A link comes
/// up at once and a sent batch has drained. Returns how many replies
/// left the lanes.
fn lane_write(lanes: &mut [LaneCore], origin: usize, request: u64, value: Value) -> usize {
    let (object, request) = (ObjectId(7), RequestId(request));
    let msg = Message::WriteReq {
        object,
        request,
        value,
    };
    lanes[origin].on_client(ClientId(0), msg);
    let (n, mut s, mut idle, mut replies) = (lanes.len(), origin, 0, 0);
    while idle < n {
        idle += 1;
        replies += end_step(&mut lanes[s]);
        while let Some(op) = lanes[s].poll_links(Nanos::ZERO) {
            if let LinkOp::Connect(peer) = op {
                lanes[s].link_up(peer);
            }
        }
        if let Some(next) = lanes[s]
            .successor()
            .filter(|&p| !lanes[s].claim(p).is_empty())
        {
            let batch = lanes[s].link_drained(next);
            let successor = &mut lanes[next.index()];
            batch
                .into_iter()
                .for_each(|frame| successor.on_frame(frame));
            replies += end_step(successor);
            idle = 0;
        }
        s = (s + 1) % n;
    }
    replies
}

fn value(i: u32) -> Value {
    Value::filled(i as u8, 64)
}

/// Writes registers `from..to` once each, origins alternating 0/1, and
/// returns the live bytes the process gained.
fn grow(ring: &mut Ring, from: u32, to: u32) -> isize {
    let before = LIVE.load(Ordering::Relaxed);
    for object in from..to {
        ring.write(object as usize % 2, object, value(object));
    }
    LIVE.load(Ordering::Relaxed) - before
}

/// Allocations per write over 1000 writes to one hot object (after a
/// warm-up), origins alternating 0/1; values are built outside the count.
fn hot_allocs_per_write(ring: &mut Ring, object: u32) -> f64 {
    const WRITES: u32 = 1000;
    for i in 0..8 {
        ring.write(i as usize % 2, object, value(i));
    }
    let mut counted = 0;
    for i in 0..WRITES {
        let v = value(i);
        let before = ALLOCS.load(Ordering::Relaxed);
        ring.write(i as usize % 2, object, v);
        counted += ALLOCS.load(Ordering::Relaxed) - before;
    }
    counted as f64 / f64::from(WRITES)
}

/// Allocations per write to one object when every server of the ring
/// has `depth` writes to it queued at once: pre-writes of all origins
/// meet in the forward queues and the pending sets hold several entries.
/// Values are built outside the count.
fn contended_allocs_per_write(ring: &mut Ring, object: u32, depth: u32) -> f64 {
    const ROUNDS: u32 = 200;
    let n = ring.servers.len() as u32;
    let mut counted = 0;
    for round in 0..ROUNDS + 8 {
        let values: Vec<Value> = (0..n * depth).map(value).collect();
        let before = ALLOCS.load(Ordering::Relaxed);
        for (i, v) in values.into_iter().enumerate() {
            ring.submit(i % n as usize, object, v);
        }
        ring.settle();
        if round >= 8 {
            counted += ALLOCS.load(Ordering::Relaxed) - before;
        }
    }
    counted as f64 / f64::from(ROUNDS * n * depth)
}

#[test]
fn register_footprint_at_rest_and_in_flight() {
    // --- (a) At rest: ≤ 2112 B per register over the ring, flat. ---
    let mut ring = Ring::new(3);
    let first = grow(&mut ring, 0, 1024);
    let mut total = first;
    let mut per_register = Vec::new();
    per_register.push((1024, total as f64 / 1024.0));
    total += grow(&mut ring, 1024, 2048);
    per_register.push((2048, total as f64 / 2048.0));
    total += grow(&mut ring, 2048, 3072);
    let last = grow(&mut ring, 3072, 4096);
    total += last;
    per_register.push((4096, total as f64 / 4096.0));
    eprintln!(
        "live heap per register over 3 servers: {per_register:?} B; \
         first 1024 cost {first} B, last 1024 cost {last} B"
    );
    for (registers, bytes) in &per_register {
        assert!(
            *bytes <= AT_REST_BYTES_PER_REGISTER,
            "{registers} registers cost {bytes:.0} B each over the ring, \
             above {AT_REST_BYTES_PER_REGISTER} B"
        );
    }
    assert!(
        first > 0 && last as f64 <= 1.1 * first as f64,
        "per-register memory must stay flat: the first 1024 registers cost {first} B, \
         the last 1024 of 4096 cost {last} B"
    );
    drop(ring);

    // --- (b) In flight: a hot object's write allocates no more than
    // it did before. ---
    let mut ring = Ring::new(3);
    let hot = hot_allocs_per_write(&mut ring, 7);
    eprintln!("allocations per hot-object write: {hot} (before: {ALLOCS_PER_WRITE_BEFORE})");
    assert!(
        hot <= ALLOCS_PER_WRITE_BEFORE,
        "a hot-object write costs {hot} allocations, above the {ALLOCS_PER_WRITE_BEFORE} it cost before"
    );
    drop(ring);

    // --- (c) A crash report leaves no per-op allocation behind: once
    // server 3 of a 4-ring is reported dead, the spliced 3-ring's writes
    // cost exactly what a ring built with three servers pays. ---
    let mut ring = Ring::new(4);
    ring.write(0, 7, value(0));
    ring.crash(3);
    let after_crash = hot_allocs_per_write(&mut ring, 7);
    eprintln!("allocations per hot-object write after a crash report: {after_crash}");
    assert_eq!(
        after_crash, hot,
        "a crash report must not add allocations to every later write"
    );
    drop(ring);

    // --- (d) Contended: several writes in flight on one object spill
    // queues and maps, and still cost no more than before. ---
    for (depth, before) in CONTENDED_ALLOCS_PER_WRITE_BEFORE {
        let mut ring = Ring::new(3);
        let contended = contended_allocs_per_write(&mut ring, 7, depth);
        eprintln!(
            "allocations per write, {depth} queued per server on one object: {contended} \
             (before: {before})"
        );
        assert!(
            contended <= before,
            "with {depth} writes queued per server a write costs {contended} allocations, \
             above the {before} it cost before"
        );
    }

    // --- (e) Through three volatile lane cores, the path both runtimes
    // drive: 1000 writes to one hot object after a warm-up, origins
    // alternating 0/1, values built outside the count. ---
    let mut lanes: Vec<LaneCore> = (0..3)
        .map(|s| LaneCore::new(ServerId(s), 3, 0, Config::default()))
        .collect();
    let mut counted = 0;
    for i in 0..1008 {
        let v = value(i);
        let before = ALLOCS.load(Ordering::Relaxed);
        let replies = lane_write(&mut lanes, i as usize % 2, u64::from(i) + 1, v);
        if i >= 8 {
            counted += ALLOCS.load(Ordering::Relaxed) - before;
        }
        assert_eq!(replies, 1, "write {i} must be acknowledged once");
    }
    let through_lanes = counted as f64 / 1000.0;
    let before = LANE_ALLOCS_PER_WRITE_BEFORE;
    eprintln!("allocations per hot-object write through lane cores: {through_lanes} ({before})");
    assert!(
        through_lanes <= before,
        "a write through the lane cores costs {through_lanes} allocations, above {before}"
    );
}
