//! `hts-metrics`: lock-free metrics and a per-op flight recorder for the
//! hts workspace.
//!
//! The paper's headline claim is *throughput*, so the instrumentation
//! must never become the bottleneck it is measuring. Every metric here
//! is a plain atomic, each one an independent statistic:
//!
//! * [`Counter`] / [`Gauge`] — one relaxed `fetch_add` per event.
//! * [`Histogram`] — log-bucketed (4 sub-buckets per power of two, ≤ ~19 %
//!   relative quantile error): one relaxed `fetch_add` into one of 256
//!   buckets per recording. Snapshots are mergeable and diffable, with
//!   p50/p99/p99.9 extraction — see [`HistogramSnapshot`].
//! * [`flight`] — a fixed-size ring of structured trace events (op begin
//!   / phase / retry / complete) behind one mutex, dumpable when a
//!   linearizability check fails or a crash verdict fires.
//!
//! Metrics live in a **process-global registry** keyed by name: servers,
//! clients and benchmark harnesses in one process share it, and
//! [`render`] emits the whole registry in Prometheus-style text
//! exposition (served over the wire via `Message::StatsRequest` /
//! `StatsReply` in `hts-net`). Hot call sites cache the registry lookup
//! with the [`counter!`]/[`gauge!`]/[`histogram!`] macros, so the steady
//! state is one atomic load plus one relaxed atomic RMW.
//!
//! # Examples
//!
//! ```
//! use hts_metrics::{counter, histogram};
//!
//! counter!("hts_doc_requests_total").inc();
//! let t0 = hts_metrics::now_nanos();
//! // ... do the work being timed ...
//! histogram!("hts_doc_request_nanos").record(hts_metrics::now_nanos() - t0);
//! let text = hts_metrics::render();
//! assert!(text.contains("hts_doc_requests_total"));
//! ```

#![forbid(unsafe_code)]
// Protocol code propagates errors instead of panicking, never sleeps,
// holds no lock or atomic and reads no clock (the lists are in
// clippy.toml), and names every enum variant it matches. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]

pub mod flight;
mod hist;

pub use hist::{bucket_bound, bucket_index, Histogram, HistogramSnapshot, BUCKETS};

use std::sync::atomic::Ordering;

/// A monotonically increasing event counter.
///
/// Recording is one relaxed `fetch_add`; reads are racy-but-coherent
/// (fine for exposition).
#[derive(Debug, Default)]
#[expect(clippy::disallowed_types, reason = "one relaxed atomic")]
pub struct Counter {
    value: std::sync::atomic::AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    #[expect(clippy::disallowed_types, reason = "one relaxed atomic")]
    pub const fn new() -> Counter {
        Counter {
            value: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, in-flight windows).
#[derive(Debug, Default)]
#[expect(clippy::disallowed_types, reason = "one relaxed atomic")]
pub struct Gauge {
    value: std::sync::atomic::AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[expect(clippy::disallowed_types, reason = "one relaxed atomic")]
    pub const fn new() -> Gauge {
        Gauge {
            value: std::sync::atomic::AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative via `sub`).
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtracts `d`.
    #[inline]
    pub fn sub(&self, d: i64) {
        self.add(-d);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Nanoseconds on the process-wide monotonic clock (first call is the
/// epoch). Pair with [`Histogram::record`] for latency timings.
#[inline]
#[expect(clippy::disallowed_types, reason = "metrics timestamps")]
pub fn now_nanos() -> u64 {
    use std::time::Instant;
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Total CPU time (user + system) consumed by this process, in
/// nanoseconds — the basis of the benchmark CPU-per-op columns.
///
/// Linux only (parsed from `/proc/self/stat`; the workspace links no
/// libc for `getrusage`): returns `None` elsewhere or when the file is
/// unreadable. It reads kernel accounting, not this crate's registry.
pub fn process_cpu_nanos() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesized comm (which may itself contain
        // spaces): state is field 3, utime field 14, stime field 15.
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_ascii_whitespace();
        let utime: u64 = fields.nth(11)?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        // USER_HZ is 100 on every Linux ABI this workspace targets
        // (sysconf(_SC_CLK_TCK) would need libc): one tick = 10 ms.
        Some((utime + stime) * 10_000_000)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

enum Slot {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// The process-global registry: name → leaked metric. Registration is a
/// mutex + linear scan (cold: call sites cache the returned reference via
/// the [`counter!`]-family macros); recording never touches it.
#[expect(clippy::disallowed_types, reason = "cold registration")]
static REGISTRY: std::sync::Mutex<Vec<(&'static str, Slot)>> = std::sync::Mutex::new(Vec::new());

fn register<T>(
    name: &'static str,
    find: impl Fn(&Slot) -> Option<&'static T>,
    make: impl FnOnce() -> (&'static T, Slot),
) -> &'static T {
    let mut reg = match REGISTRY.lock() {
        Ok(reg) => reg,
        // A poisoned registry only means some other thread panicked
        // mid-registration; the Vec itself is still coherent.
        Err(poisoned) => poisoned.into_inner(),
    };
    for (n, slot) in reg.iter() {
        if *n == name {
            if let Some(found) = find(slot) {
                return found;
            }
            // Same name registered as a different kind: registration is
            // by `&'static str` literals at call sites, so this is a
            // programming error — but metrics must never panic the data
            // path. Fall through and shadow it (render() emits the first
            // registration; the shadow still records coherently).
        }
    }
    let (made, slot) = make();
    reg.push((name, slot));
    made
}

/// Looks up (or creates) the counter `name` in the global registry.
/// Prefer the [`counter!`] macro on hot paths — it caches this lookup.
pub fn counter(name: &'static str) -> &'static Counter {
    register(
        name,
        |slot| match slot {
            Slot::Counter(c) => Some(*c),
            Slot::Gauge(_) | Slot::Histogram(_) => None,
        },
        || {
            let c: &'static Counter = Box::leak(Box::new(Counter::new()));
            (c, Slot::Counter(c))
        },
    )
}

/// Looks up (or creates) the gauge `name` in the global registry.
pub fn gauge(name: &'static str) -> &'static Gauge {
    register(
        name,
        |slot| match slot {
            Slot::Gauge(g) => Some(*g),
            Slot::Counter(_) | Slot::Histogram(_) => None,
        },
        || {
            let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
            (g, Slot::Gauge(g))
        },
    )
}

/// Looks up (or creates) the histogram `name` in the global registry.
pub fn histogram(name: &'static str) -> &'static Histogram {
    register(
        name,
        |slot| match slot {
            Slot::Histogram(h) => Some(*h),
            Slot::Counter(_) | Slot::Gauge(_) => None,
        },
        || {
            let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
            (h, Slot::Histogram(h))
        },
    )
}

/// Caches a [`counter()`] registry lookup in a call-site static: the steady
/// state is one atomic load + one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __METRIC: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__METRIC.get_or_init(|| $crate::counter($name))
    }};
}

/// Caches a [`gauge()`] registry lookup in a call-site static.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __METRIC: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__METRIC.get_or_init(|| $crate::gauge($name))
    }};
}

/// Caches a [`histogram()`] registry lookup in a call-site static.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __METRIC: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__METRIC.get_or_init(|| $crate::histogram($name))
    }};
}

/// Renders the whole registry as Prometheus-style text exposition:
/// counters and gauges as `name value`, histograms as cumulative
/// `name_bucket{le="..."}` series plus `name_sum`/`name_count`. Sorted by
/// name for stable output; empty histogram buckets are elided (the
/// `+Inf` bucket always appears).
pub fn render() -> String {
    use std::fmt::Write as _;
    let mut entries: Vec<(String, String)> = Vec::new();
    {
        let reg = match REGISTRY.lock() {
            Ok(reg) => reg,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut seen: Vec<&str> = Vec::new();
        for (name, slot) in reg.iter() {
            if seen.contains(name) {
                continue; // shadowed kind-mismatch re-registration
            }
            seen.push(name);
            let mut body = String::new();
            match slot {
                Slot::Counter(c) => {
                    let _ = writeln!(body, "# TYPE {name} counter");
                    let _ = writeln!(body, "{name} {}", c.get());
                }
                Slot::Gauge(g) => {
                    let _ = writeln!(body, "# TYPE {name} gauge");
                    let _ = writeln!(body, "{name} {}", g.get());
                }
                Slot::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(body, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (i, &n) in snap.counts().iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cum += n;
                        let _ = writeln!(
                            body,
                            "{name}_bucket{{le=\"{}\"}} {cum}",
                            hist::bucket_bound(i)
                        );
                    }
                    let _ = writeln!(body, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count());
                    let _ = writeln!(body, "{name}_sum {}", snap.sum());
                    let _ = writeln!(body, "{name}_count {}", snap.count());
                }
            }
            entries.push((name.to_string(), body));
        }
    }
    entries.sort();
    let mut out = String::new();
    for (_, body) in entries {
        out.push_str(&body);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let c = counter("hts_test_lib_counter");
        c.inc();
        c.add(4);
        let g = gauge("hts_test_lib_gauge");
        g.set(7);
        g.add(3);
        g.sub(2);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn registry_is_keyed_by_name() {
        counter("hts_test_lib_same").inc();
        counter("hts_test_lib_same").inc();
        assert_eq!(counter("hts_test_lib_same").get(), 2);
    }

    #[test]
    fn macros_cache_the_lookup() {
        for _ in 0..3 {
            counter!("hts_test_lib_macro").inc();
        }
        histogram!("hts_test_lib_macro_hist").record(42);
        gauge!("hts_test_lib_macro_gauge").set(-3);
        assert_eq!(counter("hts_test_lib_macro").get(), 3);
        assert_eq!(histogram("hts_test_lib_macro_hist").snapshot().count(), 1);
        assert_eq!(gauge("hts_test_lib_macro_gauge").get(), -3);
    }

    #[test]
    fn render_exposes_all_kinds() {
        counter("hts_test_render_counter").add(2);
        gauge("hts_test_render_gauge").set(-5);
        histogram("hts_test_render_hist").record(100);
        let text = render();
        assert!(text.contains("# TYPE hts_test_render_counter counter"));
        assert!(text.contains("hts_test_render_counter 2"));
        assert!(text.contains("hts_test_render_gauge -5"));
        assert!(text.contains("# TYPE hts_test_render_hist histogram"));
        assert!(text.contains("hts_test_render_hist_count 1"));
        assert!(text.contains("hts_test_render_hist_sum 100"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn kind_mismatch_shadows_instead_of_panicking() {
        counter("hts_test_kind_clash").inc();
        // Same name as a different kind: must not panic, and render must
        // stay parseable (the first registration wins).
        histogram("hts_test_kind_clash").record(1);
        let text = render();
        assert_eq!(text.matches("# TYPE hts_test_kind_clash ").count(), 1);
    }

    #[test]
    fn now_nanos_is_monotone() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn process_cpu_nanos_reads_proc() {
        // Burn a little CPU so the counter is visibly sane, then read it.
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert!(x != 1); // keep the loop observable
        let cpu = process_cpu_nanos().expect("linux has /proc/self/stat");
        assert!(cpu < 10_000_000_000_000); // < ~3 CPU-hours: parsed sanely
    }
}
