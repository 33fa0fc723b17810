//! Peak-memory measurement for the WAL's footprint tests. `VmHWM` is
//! per process, so each test that uses this lives alone in its own test
//! binary: no other test may allocate while it is measured.

use std::path::PathBuf;

/// A fresh, empty directory under the system temp dir.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-wal-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM")
}

/// Runs `f` and returns how far it raised this process's peak resident
/// set, in KiB, with its result.
pub fn peak_growth_kib<T>(f: impl FnOnce() -> T) -> (u64, T) {
    // Resets the peak to the current resident set (Linux ≥ 4.0), so an
    // earlier peak cannot hide `f`'s growth. Where the kernel refuses,
    // the peak so far is the baseline, which can only under-report.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = peak_rss_kib();
    let out = f();
    (peak_rss_kib().saturating_sub(before), out)
}
