//! `hts-mc`: a loom/shuttle-style model checker for the hts lock-free
//! hot paths.
//!
//! A *model* is a closure that spawns threads ([`spawn`]) and exercises
//! shimmed primitives ([`shim`]); the explorer ([`explore`]/[`check`])
//! runs it under a controlled scheduler — one runnable thread at a
//! time, a scheduling choice before every shimmed operation — so the
//! set of interleavings is exactly the set of schedules:
//!
//! * [`Mode::Exhaustive`]: bounded-exhaustive DFS over all schedules
//!   with sleep-set pruning. Right for small models (a handful of
//!   threads, tens of ops); deterministic, so failures replay by
//!   rerunning.
//! * [`Mode::Random`]: seeded pseudo-random scheduling for models too
//!   big to enumerate. Every failing schedule prints the effective
//!   seed of its execution.
//! * [`Mode::ReplaySeed`]: one execution with the scheduler RNG seeded
//!   from a failure report — deterministic replay of that schedule.
//!
//! What a failure looks like: the report carries the model name, the
//!   violated property (panic message, detected deadlock, data race, or
//!   step-budget blowout), the seed when one exists, the schedule
//!   (thread id per step), and a per-op trace with each access's
//!   declared `Ordering`.
//!
//! Scope: exploration is over *sequentially consistent* interleavings;
//! the declared orderings are recorded in traces and reviewed by the L7
//! `atomic_ordering` lint, but weak-memory reorderings are not
//! simulated. Data races on `UnsafeCell` data (the way a seqlock tears)
//! are detected structurally via access-window overlap, so they are
//! caught even though execution itself never produces torn bytes.
//!
//! `hts-metrics` consumes the shims behind its `model-check` feature;
//! with the feature off they compile to plain `std` types with
//! zero overhead, and with it on but no execution active the shims pass
//! straight through, so ordinary tests are unaffected.

mod exec;
pub mod explore;
pub mod rng;
pub mod shim;

pub use explore::{check, explore, Failure, Mode, Options, Report};
pub use shim::{spawn, McJoinHandle};

/// std-shaped aliases so consumer crates can swap imports with one
/// `cfg`: `use hts_mc::sync::{AtomicU64, UnsafeCell, spin_loop};`
/// mirrors `std::sync::atomic` / `std::cell` / `std::hint` names.
pub mod sync {
    pub use crate::shim::spin_loop;
    pub type AtomicU64 = crate::shim::McAtomicU64;
    pub type AtomicU32 = crate::shim::McAtomicU32;
    pub type AtomicUsize = crate::shim::McAtomicUsize;
    pub type AtomicI64 = crate::shim::McAtomicI64;
    pub type AtomicBool = crate::shim::McAtomicBool;
    pub type UnsafeCell<T> = crate::shim::McUnsafeCell<T>;
    pub type Mutex<T> = crate::shim::McMutex<T>;
    pub type MutexGuard<'a, T> = crate::shim::McMutexGuard<'a, T>;
    pub type Condvar = crate::shim::McCondvar;
}
