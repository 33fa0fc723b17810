//! Pins what the runtime costs when idle machinery is switched off, with
//! a live-bytes counting global allocator and `/proc/self`:
//!
//! * a default-configured server's memory grows **linearly** in the
//!   registers it holds — the read fast path is off, so no snapshot
//!   cell and no registry generation is ever built for it;
//! * a [`Session`] costs **zero threads** and **three descriptors** once
//!   it has talked to one in-process server: its epoll instance, its
//!   socket, and the server's accepted end of that socket.
//!
//! Everything runs in one `#[test]` so no parallel test thread pollutes
//! the counts (this file is its own test binary, so the allocator hook
//! is scoped to exactly these assertions).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use hts_core::Config;
use hts_net::{Cluster, Server, ServerConfig, Session};
use hts_types::{ObjectId, ServerId, Value};

struct LiveBytesAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates every operation to `System`; the counter is the only
// addition and touches no allocator state.
unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
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
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytesAlloc = LiveBytesAlloc;

fn proc_entries(dir: &str) -> usize {
    std::fs::read_dir(format!("/proc/self/{dir}"))
        .expect("procfs")
        .count()
}

/// Polls until `/proc/self/fd` holds `want` entries: a server notices a
/// closed client socket on its own thread, a moment after the close.
fn settle_fds(want: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while proc_entries("fd") != want {
        assert!(
            Instant::now() < deadline,
            "/proc/self/fd holds {} entries, expected {want}",
            proc_entries("fd")
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Writes registers `from..to` through `session` and returns the live
/// bytes the process gained once every write is acknowledged.
fn grow_registers(session: &mut Session, from: u32, to: u32) -> isize {
    let before = LIVE.load(Ordering::Relaxed);
    for object in from..to {
        session
            .begin_write_to(ObjectId(object), Value::from_u64(u64::from(object)))
            .expect("begin");
    }
    session.drain().expect("drain");
    LIVE.load(Ordering::Relaxed) - before
}

#[test]
fn default_config_footprints() {
    // --- (a) Per-register memory is flat from 512 to 2048 registers. ---
    let server = Server::spawn(ServerConfig {
        id: ServerId(0),
        addrs: vec!["127.0.0.1:0".parse().expect("addr")],
        config: Config::default(),
        wal_dir: None,
    })
    .expect("spawn");
    let mut session = Session::connect(1, vec![server.addr()], 16).expect("session");
    let first = grow_registers(&mut session, 0, 512);
    grow_registers(&mut session, 512, 1536);
    let last = grow_registers(&mut session, 1536, 2048);
    assert!(
        first > 0 && last <= 2 * first,
        "a default server's memory must grow linearly in its registers: the first 512 \
         cost {first} B, the last 512 of 2048 cost {last} B"
    );
    drop(session);
    server.shutdown();

    // --- (b) A session is 0 threads and 3 descriptors. ---
    let cluster = Cluster::launch(3).expect("launch");
    let addrs = cluster.addrs();
    let one_write = |id: u32| {
        let preferred = ServerId((id % 3) as u16);
        let mut session =
            Session::connect_preferring(id, addrs.clone(), preferred, 4).expect("session");
        session
            .write(Value::from_u64(u64::from(id)))
            .expect("write");
        session
    };
    // A write that went round the ring proves every successor link is
    // up, so the counts from here on move only with the sessions.
    let warm_up = one_write(100);
    let with_warm_up = proc_entries("fd");
    drop(warm_up);
    settle_fds(with_warm_up - 3);
    let (fds, threads) = (proc_entries("fd"), proc_entries("task"));

    let sessions: Vec<Session> = (0..8).map(one_write).collect();
    assert_eq!(
        proc_entries("task"),
        threads,
        "a session must not cost a thread"
    );
    assert_eq!(
        proc_entries("fd"),
        fds + 8 * 3,
        "a session that has talked to one server holds its epoll instance and its socket, \
         and the server holds the accepted end"
    );
    drop(sessions);
    settle_fds(fds);
    assert_eq!(proc_entries("task"), threads);
    cluster.shutdown();
}
