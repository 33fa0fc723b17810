//! What is frozen: the four workloads with their paced rates, the shape
//! of a run, and the catalogue of metric names. `BENCHMARK.json` lists
//! the same workload and metric names (the smoke test holds the two
//! together); rates and the lag limit live here because that file's
//! schema has no place for them.

/// What a session does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Writes its own objects; every `read_every`-th op (0 = never) is a
    /// read of a uniformly chosen object instead.
    Writer { read_every: u32 },
    /// Reads uniformly chosen objects.
    Reader,
}

/// Generator threads, each with one session. Fixed rather than derived
/// from the host, so a result means the same on every box; a host with
/// fewer CPUs is refused.
pub const SESSIONS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub value_bytes: usize,
    pub objects: u32,
    /// Window of each session.
    pub window: usize,
    /// `Durability::SyncAlways` with a WAL per server, and a fault phase.
    pub durable: bool,
    /// Writers come first: they are sessions `0..writers()`.
    pub roles: [Role; SESSIONS],
    /// Paced-phase op rate per session, ops/s, frozen when the benchmark
    /// was defined: 7–22 % of the closed-loop rate, the point below which
    /// the run-to-run spread of p50 and CPU per op stopped falling
    /// (README, "How rates and bounds were frozen").
    pub paced_ops_s: [f64; SESSIONS],
    /// Ops the layer walk pushes through (fixed, so its counts repeat).
    pub walk_ops: usize,
}

impl Workload {
    pub fn writers(&self) -> u64 {
        self.roles
            .iter()
            .filter(|r| matches!(r, Role::Writer { .. }))
            .count() as u64
    }
}

/// One read per eight ops keeps the read rows alive — and the checker
/// fed — on the workloads that are about writes.
const MOSTLY_WRITES: Role = Role::Writer { read_every: 8 };

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small_wide",
        why: "64 B values over 1024 objects, 7 writes to 1 read: per-op cost is core object scheduling and the object map; bytes and WAL are nil",
        value_bytes: 64,
        objects: 1024,
        window: 32,
        durable: false,
        roles: [MOSTLY_WRITES; 2],
        paced_ops_s: [750.0, 750.0],
        walk_ops: 1_500,
    },
    Workload {
        name: "mixed_hot",
        why: "1 KiB values over 16 hot objects, a writer session beside a reader session: per-message overhead, reads blocked behind pre-writes",
        value_bytes: 1024,
        objects: 16,
        window: 16,
        durable: false,
        roles: [Role::Writer { read_every: 0 }, Role::Reader],
        paced_ops_s: [2_500.0, 7_500.0],
        walk_ops: 20_000,
    },
    Workload {
        name: "large_value",
        why: "64 KiB values (the paper's request size) over 64 objects, 7 writes to 1 read: byte movement in framing, buffers and socket copies dominates",
        value_bytes: 64 * 1024,
        objects: 64,
        window: 4,
        durable: false,
        roles: [MOSTLY_WRITES; 2],
        paced_ops_s: [1_000.0, 1_000.0],
        walk_ops: 2_000,
    },
    Workload {
        name: "durable_crash",
        why: "1 KiB values over 256 objects, SyncAlways WALs, then three kill/restart cycles of server 2: the only workload where WAL and recovery do work",
        value_bytes: 1024,
        objects: 256,
        window: 32,
        durable: true,
        roles: [MOSTLY_WRITES; 2],
        paced_ops_s: [1_000.0, 1_000.0],
        walk_ops: 2_500,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How `--seconds` is split: over `rounds` fresh set-ups, each running a
/// closed and a paced phase, and one fault phase at the end. The warm-up
/// of each round comes on top and is not measured.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Fresh set-ups measured per run; every end-to-end metric is the
    /// median of its per-round values, `setup_s` included.
    pub rounds: usize,
    /// Per round.
    pub warmup_s: f64,
    /// Per round.
    pub closed_s: f64,
    /// Per round.
    pub paced_s: f64,
    /// Once, on the last round; zero on workloads without a fault phase.
    pub fault_s: f64,
    pub kill_cycles: usize,
}

/// Slices per phase; a phase reports the median slice.
pub const SLICES: usize = 5;

impl Shape {
    pub fn new(seconds: f64, durable: bool, smoke: bool) -> Shape {
        let (closed, paced, fault) = if durable {
            (0.3, 0.4, 0.3)
        } else {
            (0.4, 0.6, 0.0)
        };
        let rounds = if smoke { 1 } else { 5 };
        Shape {
            rounds,
            warmup_s: if smoke { 0.2 } else { 0.5 },
            closed_s: seconds * closed / rounds as f64,
            paced_s: seconds * paced / rounds as f64,
            fault_s: seconds * fault,
            kill_cycles: if smoke { 1 } else { 3 },
        }
    }
}

/// A paced phase whose generator ran later than this at its 99th
/// percentile did not offer the load it claims: the run is reported
/// invalid, not as a result. Lag also grows when the *servers* stall and
/// the window fills (an fsync hiccup of a few hundred ms does it), so the
/// limit is set to catch a sustained backlog, not every stall.
pub const LAG_P99_LIMIT_MS: f64 = 250.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the store sees. Bounds are in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 4] = [
    lower("setup_s", "s"),
    lower("server_cpu_us_per_op", "us"),
    lower("client_cpu_us_per_op", "us"),
    lower("server_peak_rss_mib", "MiB"),
];

/// Single layers, prefixed by crate. No bounds: they explain, they do
/// not gate.
pub const PER_LAYER: [Metric; 50] = [
    // types — layer walk
    lower("types.encode_request_us", "us"),
    lower("types.decode_shared_us", "us"),
    lower("types.encode_ring_batch_us", "us"),
    lower("types.allocs_per_write", "count"),
    // net — walk, then scrape
    lower("net.frame_write_us", "us"),
    lower("net.frame_read_us", "us"),
    higher("net.ring_frames_per_batch", "count"),
    lower("net.ring_bytes_per_op", "B"),
    lower("net.ring_write_us_p50", "us"),
    lower("net.threads_per_node", "count"),
    // poll — scrape and /proc/<pid>/status, then walk
    lower("poll.wakeups_per_op", "count"),
    higher("poll.events_per_wake", "count"),
    lower("poll.ctx_switches_per_op", "count"),
    lower("poll.wake_roundtrip_us", "us"),
    // core — walk, then scrape
    lower("core.on_client_write_us", "us"),
    lower("core.on_client_read_us", "us"),
    lower("core.on_frame_us", "us"),
    lower("core.drain_frames_us", "us"),
    lower("core.export_state_us", "us"),
    lower("core.prewrite_us_p50", "us"),
    lower("core.commit_us_p50", "us"),
    lower("core.read_block_us_p50", "us"),
    lower("core.write_queue_depth_p50", "count"),
    // wal — scrape, then walk; zero on the volatile workloads
    lower("wal.append_us_p50", "us"),
    lower("wal.fsync_us_p50", "us"),
    lower("wal.fsyncs_per_op", "count"),
    higher("wal.records_per_group_commit", "count"),
    lower("wal.append_batch_us", "us"),
    lower("wal.compact_us", "us"),
    lower("wal.bytes_per_payload_byte", "ratio"),
    lower("wal.recover_ms", "ms"),
    // recovery — fault phase, median of the kill cycles
    lower("recovery.stall_ms", "ms"),
    lower("recovery.rejoin_ms", "ms"),
    lower("recovery.ops_retried_share", "ratio"),
    // session — the client library as the generator drove it. Closed-loop
    // throughput and paced p50 were end-to-end candidates that could not
    // hold a bound (README, "How rates and bounds were frozen").
    higher("session.write_ops_s", "1/s"),
    higher("session.read_ops_s", "1/s"),
    lower("session.write_p50_ms", "ms"),
    lower("session.read_p50_ms", "ms"),
    lower("session.write_p99_ms", "ms"),
    lower("session.read_p99_ms", "ms"),
    lower("session.pmax_ms", "ms"),
    lower("session.pmax_level", "%"),
    higher("session.window_inflight_mean", "count"),
    lower("session.retries_per_op", "count"),
    lower("session.failed_share", "ratio"),
    // loadgen
    lower("loadgen.lag_p99_ms", "ms"),
    // budget — walk self-times against measured server CPU
    higher("budget.attributed_us_per_op", "us"),
    lower("budget.unattributed_us_per_op", "us"),
    lower("budget.unattributed_share", "ratio"),
    lower("budget.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn windows_fit_the_objects_each_writer_owns() {
        for w in &WORKLOADS {
            let owned = u64::from(w.objects) / w.writers();
            assert!(w.window as u64 <= owned, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn a_run_measures_for_the_seconds_it_was_given() {
        for durable in [false, true] {
            let s = Shape::new(20.0, durable, false);
            let measured = (s.closed_s + s.paced_s) * s.rounds as f64 + s.fault_s;
            assert!((measured - 20.0).abs() < 1e-9);
        }
    }
}
