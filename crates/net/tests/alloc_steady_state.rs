//! Pins the zero-copy path's allocation profile with a counting global
//! allocator:
//!
//! * [`codec::decode_shared`] of a 64 KiB write performs **zero** heap
//!   allocations — a value that is most of its message is a refcounted
//!   view of the input buffer;
//! * a steady-state [`MessageReader`] loop over value-free messages
//!   costs at most one small allocation per message (the shared
//!   buffer's refcount block, reclaimed again by the recycler) — never
//!   anything proportional to message size;
//! * a [`Session`] against a three-server [`Cluster`] costs its own
//!   thread at most 1.05 allocations per write and 3.05 per read, at a
//!   window of 1 and of 8 (1 and 3.0005 counted), so the reply path
//!   (`drain_replies`) cannot gain a per-reply allocation unnoticed.
//!
//! The allocator counts per thread, so each test sees only its own
//! thread's allocations: not a parallel test's, nor a server thread's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hts_net::{Cluster, MessageReader, Session};
use hts_types::{codec, Message, ObjectId, RequestId, Value};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation to `System`; the thread's counter is
// the only addition and touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The calling thread's allocations during `f`, and its result.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn write_req(len: usize) -> Message {
    Message::WriteReq {
        object: ObjectId(1),
        request: RequestId(2),
        value: Value::filled(9, len),
    }
}

#[test]
fn steady_state_allocation_profile() {
    // --- decode_shared: zero allocations, even for a 64 KiB value. ---
    let msg = write_req(64 * 1024);
    let encoded = codec::encode(&msg);
    let (allocs, decoded) = allocs_during(|| codec::decode_shared(&encoded).expect("decode"));
    assert_eq!(decoded, msg);
    assert_eq!(
        allocs, 0,
        "decode_shared must not allocate: values are views of the input"
    );
    // The copying decode pays for the same message.
    let (copying_allocs, _) = allocs_during(|| codec::decode(&encoded).expect("decode"));
    assert!(
        copying_allocs >= 1,
        "expected the copying decode to allocate, counted {copying_allocs}"
    );
    drop(decoded);

    // --- MessageReader: ≤ 1 small allocation per value-free message. ---
    let ack = Message::WriteAck {
        object: ObjectId(1),
        request: RequestId(2),
    };
    let mut buf = Vec::new();
    for _ in 0..64 {
        hts_net::write_message(&mut buf, &ack).expect("frame");
    }
    let mut reader = MessageReader::new();
    let mut cursor = &buf[..];
    for _ in 0..8 {
        assert_eq!(reader.read(&mut cursor).expect("warm-up"), ack);
    }
    let (allocs, ()) = allocs_during(|| {
        for _ in 0..56 {
            assert_eq!(reader.read(&mut cursor).expect("read"), ack);
        }
    });
    assert!(
        allocs <= 56,
        "steady-state value-free reads must cost at most one allocation \
         per message (the refcount block); counted {allocs} over 56 reads"
    );
}

/// Writes `values` through `session` with `window` of them in flight.
/// The request ids live in an array, so the loop allocates nothing.
fn pipelined_writes(session: &mut Session, window: usize, values: Vec<Value>) {
    let (mut ids, n) = ([RequestId(0); 8], values.len());
    for (i, value) in values.into_iter().enumerate() {
        if i >= window {
            session.wait(ids[i % window]).expect("write");
        }
        ids[i % window] = session.begin_write(value).expect("begin_write");
    }
    for i in n.saturating_sub(window)..n {
        session.wait(ids[i % window]).expect("write");
    }
}

#[test]
fn session_allocations_per_write_and_read() {
    const WARM_UP: u64 = 500;
    const OPS: u64 = 2_000;
    let cluster = Cluster::launch(3).expect("launch");
    let values = |from: u64, n: u64| (from..from + n).map(Value::from_u64).collect::<Vec<_>>();
    for window in [1, 8] {
        let mut session =
            Session::connect(window as u32, cluster.addrs(), window).expect("connect");
        pipelined_writes(&mut session, window, values(0, WARM_UP));
        let batch = values(WARM_UP, OPS);
        let (writes, ()) = allocs_during(|| pipelined_writes(&mut session, window, batch));
        let (reads, ()) = allocs_during(|| {
            for _ in 0..OPS {
                session.read().expect("read");
            }
        });
        let per_write = writes as f64 / OPS as f64;
        let per_read = reads as f64 / OPS as f64;
        eprintln!("window {window}: {per_write} allocations per write, {per_read} per read");
        assert!(
            per_write <= 1.05,
            "window {window}: {per_write} allocations per write"
        );
        assert!(
            per_read <= 3.05,
            "window {window}: {per_read} allocations per read"
        );
    }
    cluster.shutdown();
}
