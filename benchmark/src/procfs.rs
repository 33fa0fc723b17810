//! What the kernel accounts to a process, read from `/proc/<pid>`: CPU
//! time, context switches and peak resident memory. (`/proc/<pid>/io`
//! counts `read`/`write` on files only, not `send`/`recv` on sockets, so
//! it cannot give syscalls per op and is not read.)
//! This is how server cost is measured from outside, split from client
//! cost: every server is its own child process.

use std::fs;

/// One reading of a process's cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// On-CPU time of all its threads, nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches of all its threads.
    pub ctx_switches: u64,
    /// Peak resident set size (`VmHWM`), KiB.
    pub peak_rss_kib: u64,
}

impl ProcSample {
    /// Counters accumulated since `earlier` (the peak stays a peak).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            peak_rss_kib: self.peak_rss_kib,
        }
    }

    pub fn add(&mut self, other: &ProcSample) {
        self.cpu_ns += other.cpu_ns;
        self.ctx_switches += other.ctx_switches;
        self.peak_rss_kib = self.peak_rss_kib.max(other.peak_rss_kib);
    }
}

/// Reads `pid`'s counters; a process that is gone reads as zeros.
pub fn sample(pid: u32) -> ProcSample {
    let base = format!("/proc/{pid}");
    let mut s = ProcSample::default();
    // Threads of the servers and of the load generator live for the
    // whole measured window, so summing the live tasks loses nothing and
    // gives nanosecond resolution where `stat` has 10 ms ticks.
    if let Ok(tasks) = fs::read_dir(format!("{base}/task")) {
        for task in tasks.flatten() {
            let dir = task.path();
            if let Ok(text) = fs::read_to_string(dir.join("schedstat")) {
                s.cpu_ns += first_number(&text);
            }
            if let Ok(text) = fs::read_to_string(dir.join("status")) {
                s.ctx_switches += status_field(&text, "voluntary_ctxt_switches:")
                    + status_field(&text, "nonvoluntary_ctxt_switches:");
            }
        }
    }
    if s.cpu_ns == 0 {
        s.cpu_ns = stat_cpu_ns(&base);
    }
    if let Ok(text) = fs::read_to_string(format!("{base}/status")) {
        s.peak_rss_kib = status_field(&text, "VmHWM:");
    }
    s
}

/// On-CPU time of the calling thread, nanoseconds (0 where the kernel
/// keeps no scheduler statistics).
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat").map_or(0, |text| first_number(&text))
}

/// `utime + stime` from `/proc/<pid>/stat`, for kernels without
/// scheduler statistics. USER_HZ is 100 on every Linux ABI the workspace
/// targets, so one tick is 10 ms.
fn stat_cpu_ns(base: &str) -> u64 {
    let Ok(stat) = fs::read_to_string(format!("{base}/stat")) else {
        return 0;
    };
    // The parenthesised command name may hold spaces: count fields after it.
    let Some(close) = stat.rfind(')') else {
        return 0;
    };
    let mut fields = stat[close + 1..].split_ascii_whitespace();
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000_000
}

fn first_number(text: &str) -> u64 {
    text.split_ascii_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// The number after `key` in a `key: value [unit]` listing.
fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map_or(0, first_number)
}

/// File-system type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn fs_type(path: &std::path::Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            // "… <mount point> <options> [tags…] - <fs type> <source> …"
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split_ascii_whitespace().nth(4)?;
            let fs = tail.split_ascii_whitespace().next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, fs)| fs.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_this_process() {
        // Burn a little CPU so the scheduler has something to account.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let s = sample(std::process::id());
        assert!(s.cpu_ns > 0, "cpu time of a busy process");
        assert!(s.peak_rss_kib > 0);
        let later = sample(std::process::id());
        assert!(later.since(&s).cpu_ns < 10_000_000_000);
    }

    #[test]
    fn a_vanished_process_reads_zero() {
        let s = sample(u32::MAX - 1);
        assert_eq!(s.cpu_ns + s.ctx_switches + s.peak_rss_kib, 0);
    }

    #[test]
    fn parses_status_fields() {
        let text = "VmHWM:\t    1640 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM:"), 1640);
        assert_eq!(status_field(text, "voluntary_ctxt_switches:"), 7);
        assert_eq!(status_field(text, "syscr:"), 0);
    }
}
