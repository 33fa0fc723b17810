//! Peak live-heap measurement for the WAL's footprint tests, with a
//! counting global allocator. The counters are process-wide, so each
//! test that uses this lives alone in its own test binary: no other test
//! may allocate while it is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Adds `delta` bytes to the live heap and raises the peak to match.
fn grow(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`; the counters are the
// only addition and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A fresh, empty directory under the system temp dir.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-wal-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `f` and returns how far its live heap peaked above the live heap
/// it started from, in KiB, with its result. Memory freed before `f`
/// runs is out of the baseline, so it cannot hide `f`'s growth.
pub fn peak_growth_kib<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let grown = PEAK.load(Ordering::Relaxed) - before;
    (grown.max(0) as u64 >> 10, out)
}
