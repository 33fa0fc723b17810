//! Lock-free published read snapshots: the seqlock-style cell behind the
//! net layer's read fast path.
//!
//! Each [`ServerCore`](crate::ServerCore) owning a register publishes its
//! latest committed `(Tag, Value)` plus a *read-blocked* bit into a
//! [`ReadCell`]. A transport thread holding a `ReadRequest` consults the
//! cell **without any lock or event-loop hop**: when the cell says
//! "unblocked", the request is answered right there with a refcounted
//! clone of the committed value; any doubt (a pending pre-write, a sync
//! in progress, a publish racing the read) falls back to the ordinary
//! event-loop path, which is always correct.
//!
//! The design follows *Big Atomics* (Anderson, Blelloch, Jayanti):
//! a packed atomic word carries a version stamp and the state bits, and
//! readers are optimistic — validate the word, read, and bail to the
//! slow path when the stamp moved (cf. the `AtomicDSA` packed-64-bit
//! cell in SNIPPETS.md). Because the snapshot holds a refcounted
//! [`Value`] rather than plain words, a torn read must be prevented
//! rather than merely detected: readers register in a counter for the
//! nanoseconds their clone takes, and the (single) writer spins until
//! the slot is reader-free before touching it. Readers never wait —
//! every contended path returns `None` immediately.

// The one sanctioned unsafe island of this crate: the seqlock slot.
// Every block carries a SAFETY argument tied to the word/readers
// protocol; hts-check rule L5 enforces the comments, L6 keeps the hot
// functions allocation-free.
#![allow(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::mc_shim::{spin_loop, AtomicU32, AtomicU64, AtomicUsize, UnsafeCell};
use hts_types::{ObjectId, Tag, Value};

/// Word bit 0: a publish is in progress; readers must fall back.
const WRITING: u64 = 0b01;
/// Word bit 1: reads are blocked (pending pre-write, sync, or the fast
/// path is disabled); readers must fall back.
const BLOCKED: u64 = 0b10;
/// Version stamp: bits 2.. — bumped on every publish and flag change.
const VERSION_ONE: u64 = 0b100;

/// A seqlock-style versioned cell publishing one register's latest
/// committed `(Tag, Value)` and whether a read may be answered from it.
///
/// **Single writer**: exactly one thread (the event loop driving the
/// owning [`ServerCore`](crate::ServerCore)) may call [`publish`] /
/// [`set_blocked`]; any number of threads may call [`try_read`].
///
/// [`publish`]: ReadCell::publish
/// [`set_blocked`]: ReadCell::set_blocked
/// [`try_read`]: ReadCell::try_read
pub struct ReadCell {
    /// Packed `version << 2 | BLOCKED | WRITING`.
    word: AtomicU64,
    /// Readers currently cloning the slot; the writer waits for zero.
    readers: AtomicU32,
    slot: UnsafeCell<(Tag, Value)>,
}

// SAFETY: `slot` is only accessed under the word/readers protocol —
// readers clone it strictly between a successful registration and their
// deregistration while WRITING is clear; the single writer mutates it
// only with WRITING set and the reader count observed at zero. See
// `try_read` and `publish`.
unsafe impl Sync for ReadCell {}

impl ReadCell {
    /// A fresh cell, **blocked** until its server publishes a snapshot.
    pub fn new() -> ReadCell {
        ReadCell {
            word: AtomicU64::new(BLOCKED),
            readers: AtomicU32::new(0),
            slot: UnsafeCell::new((Tag::ZERO, Value::bottom())),
        }
    }

    /// Publishes a committed snapshot and the blocked bit in one step.
    ///
    /// Must only be called by the cell's single writer. Spins (bounded
    /// by a concurrent reader's refcount clone, i.e. nanoseconds unless
    /// the reader is preempted mid-clone) until the slot is reader-free.
    pub fn publish(&self, tag: Tag, value: &Value, blocked: bool) {
        // ordering: Relaxed — single-writer read of our own last store;
        // no other thread ever writes `word`.
        let w = self.word.load(Ordering::Relaxed);
        // Gate new readers out, then drain the registered ones.
        self.word.store(w | WRITING, Ordering::SeqCst);
        while self.readers.load(Ordering::SeqCst) != 0 {
            spin_loop();
        }
        // Every future `try_read` bails at its validation step; no
        // reader touches the slot until the store below clears WRITING.
        // SAFETY: WRITING was set before we observed `readers == 0`.
        self.slot.with_mut(|slot| unsafe {
            *slot = (tag, value.clone());
        });
        let flags = if blocked { BLOCKED } else { 0 };
        self.word.store(
            (w | WRITING).wrapping_add(VERSION_ONE) & !WRITING & !BLOCKED | flags,
            Ordering::SeqCst,
        );
    }

    /// Updates only the blocked bit (the committed snapshot is
    /// unchanged). Single-writer, like [`publish`](ReadCell::publish);
    /// never touches the slot, so it needs no reader drain.
    pub fn set_blocked(&self, blocked: bool) {
        // ordering: Relaxed — single-writer read of our own last store;
        // no other thread ever writes `word`.
        let w = self.word.load(Ordering::Relaxed);
        let flags = if blocked { BLOCKED } else { 0 };
        self.word.store(
            w.wrapping_add(VERSION_ONE) & !BLOCKED | flags,
            Ordering::SeqCst,
        );
    }

    /// Optimistically reads the published snapshot. `None` whenever the
    /// cell is blocked, a publish is in flight, or the version moved
    /// during the read — the caller then takes the event-loop path.
    /// Never blocks, never spins.
    pub fn try_read(&self) -> Option<(Tag, Value)> {
        let w1 = self.word.load(Ordering::SeqCst);
        if w1 & (WRITING | BLOCKED) != 0 {
            return None;
        }
        self.readers.fetch_add(1, Ordering::SeqCst);
        // Validate after registering: the writer sets WRITING *before*
        // it checks the reader count, so (SeqCst total order) either it
        // sees our registration and waits, or we see WRITING/a new
        // version here and bail.
        if self.word.load(Ordering::SeqCst) != w1 {
            self.readers.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        // The writer cannot enter the slot before we deregister, so the
        // clone below races nothing.
        // SAFETY: our registration is visible (SeqCst) and the word was
        // validated WRITING-free after it.
        let snap = self.slot.with(|slot| unsafe { (*slot).clone() });
        self.readers.fetch_sub(1, Ordering::SeqCst);
        Some(snap)
    }

    /// The current packed word (test/diagnostic hook): version stamp in
    /// the upper bits, `WRITING`/`BLOCKED` in the low two.
    pub fn raw_word(&self) -> u64 {
        self.word.load(Ordering::SeqCst)
    }
}

impl Default for ReadCell {
    fn default() -> Self {
        ReadCell::new()
    }
}

impl std::fmt::Debug for ReadCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ordering: Relaxed — diagnostic-only snapshot of the word; a
        // stale value merely prints stale.
        let w = self.word.load(Ordering::Relaxed);
        f.debug_struct("ReadCell")
            .field("version", &(w >> 2))
            .field("writing", &(w & WRITING != 0))
            .field("blocked", &(w & BLOCKED != 0))
            .finish_non_exhaustive()
    }
}

/// One immutable generation of the registry's index. Once published it
/// is never mutated again; writers build a fresh `Snap` and swap the
/// pointer.
type Snap = HashMap<ObjectId, Arc<ReadCell>>;

/// The per-server map of [`ReadCell`]s, shared between the event loop
/// (writer side, one cell per register) and the transport threads
/// (reader side).
///
/// Lookup is wait-free: readers do one `Acquire` pointer load of the
/// currently published immutable snapshot and index into it — no lock,
/// no CAS loop, no chance of bouncing a reader to the slow path because
/// a register happened to be created concurrently (the old `RwLock`
/// design failed `try_read` under any write contention). Writers (only
/// the event loop, only when a register is created) clone the map,
/// insert, and publish the new snapshot with a `Release` store under a
/// plain mutex that serialises writers against each other only.
///
/// Snapshot reclamation: superseded snapshots are retired to a list and
/// freed in `Drop`. Readers access snapshots only through `&self`, so
/// every snapshot published during the registry's lifetime remains
/// valid until the registry itself is gone. That is a whole map copied
/// and kept per register created — O(registers²) bytes and copies,
/// measured at 14.4 MiB for 1024 registers — which is why the runtime
/// builds cells only where the read fast path is on; whether the
/// registry is replaced or deleted is the `ReadCell` trial in ROADMAP.md.
pub struct ReadCellRegistry {
    /// Address of the current `Box<Snap>`, published with `Release`.
    published: AtomicUsize,
    /// Serialises writers; also owns the retired-snapshot list.
    writer: Mutex<Vec<usize>>,
}

impl Default for ReadCellRegistry {
    fn default() -> ReadCellRegistry {
        let first = Box::leak(Box::new(Snap::new())) as *mut Snap as usize;
        ReadCellRegistry {
            published: AtomicUsize::new(first),
            writer: Mutex::new(Vec::new()),
        }
    }
}

impl std::fmt::Debug for ReadCellRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadCellRegistry")
            .field("registers", &self.snap().len())
            .finish_non_exhaustive()
    }
}

impl ReadCellRegistry {
    /// An empty registry.
    pub fn new() -> ReadCellRegistry {
        ReadCellRegistry::default()
    }

    /// The currently published snapshot.
    fn snap(&self) -> &Snap {
        let addr = self.published.load(Ordering::Acquire);
        // Superseded snapshots go to the retired list, not the
        // allocator, and we hold `&self`, so `Drop` cannot free them
        // concurrently; the `Acquire` load pairs with the writer's
        // `Release` store to make the map's contents visible.
        // SAFETY: `addr` is always the address of a live `Box<Snap>`
        // leaked by `Default::default` or `cell` (see above).
        unsafe { &*(addr as *const Snap) }
    }

    /// The cell for `object`, creating it (blocked) on first use.
    /// Called by the event loop when it creates the register's core.
    pub fn cell(&self, object: ObjectId) -> Arc<ReadCell> {
        let mut retired = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the writer lock: the snapshot can only change
        // while the lock is held, so this read is the authoritative one.
        let current = self.snap();
        if let Some(cell) = current.get(&object) {
            return Arc::clone(cell);
        }
        let cell: Arc<ReadCell> = Arc::default();
        let mut next = current.clone();
        next.insert(object, Arc::clone(&cell));
        let addr = Box::leak(Box::new(next)) as *mut Snap as usize;
        // ordering: Release publishes the fully built map to the
        // `Acquire` loads in `snap`; the swap itself is already
        // serialised by the writer lock.
        let old = self.published.swap(addr, Ordering::Release);
        retired.push(old);
        cell
    }

    /// Optimistically answers a read for `object` from its published
    /// snapshot; `None` (fall back to the event loop) when the register
    /// is unknown or the cell is blocked. Wait-free: one atomic load
    /// plus the cell's seqlock attempt.
    pub fn try_read(&self, object: ObjectId) -> Option<(Tag, Value)> {
        self.snap().get(&object)?.try_read()
    }
}

impl Drop for ReadCellRegistry {
    fn drop(&mut self) {
        let retired = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        retired.push(*self.published.get_mut());
        for addr in retired.drain(..) {
            // Every address in the retired list (and the final published
            // one) came from `Box::leak(Box::new(..))`, and `&mut self`
            // means no reader can still hold a `&Snap` through `&self`.
            // SAFETY: each address is a leaked, still-live `Box<Snap>`,
            // freed exactly once, here.
            drop(unsafe { Box::from_raw(addr as *mut Snap) });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;

    use super::*;
    use hts_types::ServerId;

    #[test]
    fn fresh_cell_is_blocked() {
        let cell = ReadCell::new();
        assert_eq!(cell.try_read(), None);
    }

    #[test]
    fn publish_then_read_roundtrips() {
        let cell = ReadCell::new();
        let tag = Tag::new(3, ServerId(1));
        let value = Value::from_u64(77);
        cell.publish(tag, &value, false);
        assert_eq!(cell.try_read(), Some((tag, value.clone())));
        // The read is a refcounted view, not a copy.
        let (_, read) = cell.try_read().expect("unblocked");
        assert_eq!(read.as_bytes().as_ptr(), value.as_bytes().as_ptr());
    }

    #[test]
    fn forcing_the_blocked_bit_disables_the_fast_path() {
        // The fallback regression: with the blocked bit forced on, every
        // optimistic read must bail out (the event loop then answers).
        let cell = ReadCell::new();
        let tag = Tag::new(1, ServerId(0));
        cell.publish(tag, &Value::from_u64(1), false);
        assert!(cell.try_read().is_some());
        cell.set_blocked(true);
        assert_eq!(cell.try_read(), None);
        // Publishing while blocked stays blocked...
        cell.publish(Tag::new(2, ServerId(0)), &Value::from_u64(2), true);
        assert_eq!(cell.try_read(), None);
        // ...until the writer unblocks.
        cell.set_blocked(false);
        assert_eq!(
            cell.try_read(),
            Some((Tag::new(2, ServerId(0)), Value::from_u64(2)))
        );
    }

    #[test]
    fn version_stamp_moves_on_every_transition() {
        let cell = ReadCell::new();
        let v0 = cell.raw_word() >> 2;
        cell.set_blocked(false);
        let v1 = cell.raw_word() >> 2;
        cell.publish(Tag::new(1, ServerId(0)), &Value::bottom(), false);
        let v2 = cell.raw_word() >> 2;
        assert!(v0 < v1 && v1 < v2, "{v0} {v1} {v2}");
    }

    #[test]
    fn registry_creates_blocked_cells_and_answers_after_publish() {
        let reg = ReadCellRegistry::new();
        assert_eq!(reg.try_read(ObjectId(5)), None, "unknown register");
        let cell = reg.cell(ObjectId(5));
        assert_eq!(reg.try_read(ObjectId(5)), None, "fresh cell is blocked");
        cell.publish(Tag::new(1, ServerId(2)), &Value::from_u64(9), false);
        assert_eq!(
            reg.try_read(ObjectId(5)),
            Some((Tag::new(1, ServerId(2)), Value::from_u64(9)))
        );
        // Same cell on re-lookup.
        assert!(Arc::ptr_eq(&cell, &reg.cell(ObjectId(5))));
    }

    /// Drives a real three-server ring with cells attached: the cell
    /// must track the protocol — blocked exactly while a pre-write is
    /// pending and unsubsumed, serving the committed value otherwise.
    #[test]
    fn server_core_publishes_through_a_write_circulation() {
        use crate::{Config, ServerCore};
        use hts_types::{ClientId, RequestId};

        let reg = Arc::new(ReadCellRegistry::new());
        let mut servers: Vec<ServerCore> = (0..3)
            .map(|i| ServerCore::new(ServerId(i), 3, ObjectId::SINGLE, Config::default()))
            .collect();
        for s in servers.iter_mut() {
            s.attach_read_cell(reg.cell(ObjectId::SINGLE));
        }
        // One shared-cell caveat aside (each server gets its own cell in
        // the runtime), re-attach distinct cells per server:
        let cells: Vec<Arc<ReadCell>> = (0..3).map(|_| Arc::new(ReadCell::new())).collect();
        for (s, cell) in servers.iter_mut().zip(&cells) {
            s.attach_read_cell(Arc::clone(cell));
        }

        // Fresh ring: every cell serves the initial ⊥ immediately.
        for cell in &cells {
            assert_eq!(cell.try_read(), Some((Tag::ZERO, Value::bottom())));
        }

        servers[0].on_client_write(ClientId(0), RequestId(1), Value::from_u64(42));
        // s0 frames the pre-write: now pending there → blocked.
        let frame = servers[0].next_frame().expect("pre-write frame");
        assert_eq!(cells[0].try_read(), None, "origin blocked by own pending");
        // Deliver around the ring until quiescent.
        let mut at = 1usize;
        let mut frame = Some(frame);
        let mut acks = Vec::new();
        while let Some(f) = frame.take() {
            acks.extend(servers[at].on_frame(f));
            frame = servers[at].next_frame();
            at = (at + 1) % 3;
        }
        assert!(!acks.is_empty(), "write must complete");
        // Committed everywhere: every cell serves the new value.
        for cell in &cells {
            assert_eq!(
                cell.try_read().map(|(_, v)| v),
                Some(Value::from_u64(42)),
                "{cell:?}"
            );
        }
    }

    /// The torn-read hammer: one writer publishes tag/value pairs whose
    /// value encodes the tag; readers must never observe a pair where
    /// they disagree, no matter how the threads interleave.
    #[test]
    fn hammer_publish_vs_optimistic_read_never_tears() {
        let cell = Arc::new(ReadCell::new());
        let stop = Arc::new(AtomicBool::new(false));
        let seen_any = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let seen_any = Arc::clone(&seen_any);
                thread::spawn(move || {
                    let mut seen = 0u64;
                    let mut last_ts = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if let Some((tag, value)) = cell.try_read() {
                            // Consistency: the value must encode its tag.
                            assert_eq!(
                                value.as_u64(),
                                Some(tag.ts),
                                "torn read: tag {tag} with mismatched value"
                            );
                            // Monotonicity: published tags only grow.
                            assert!(tag.ts >= last_ts, "snapshot went backwards");
                            last_ts = tag.ts;
                            seen += 1;
                            seen_any.store(true, Ordering::Relaxed);
                        }
                    }
                    seen
                })
            })
            .collect();
        // Writer: alternate blocked/unblocked publishes as fast as
        // possible to maximize the chance of catching a racing reader.
        for ts in 1..=50_000u64 {
            let tag = Tag::new(ts, ServerId(0));
            cell.publish(tag, &Value::from_u64(ts), ts % 7 == 0);
            if ts % 3 == 0 {
                cell.set_blocked(ts % 6 == 0);
            }
        }
        // Park on a final unblocked snapshot and wait for a successful
        // read before stopping: on an oversubscribed machine the reader
        // threads may not have been scheduled at all yet.
        cell.publish(
            Tag::new(50_001, ServerId(0)),
            &Value::from_u64(50_001),
            false,
        );
        while !seen_any.load(Ordering::Relaxed) {
            thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        // The fast path must actually have answered (this is a sanity
        // check on the test, not a strict liveness guarantee).
        assert!(total > 0, "no reader ever saw an unblocked snapshot");
    }
}
