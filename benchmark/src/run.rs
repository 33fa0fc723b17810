//! One run of one workload: set-up, warm-up, the closed phase, the paced
//! phase and — on the durable workload — the fault phase, then the
//! metrics computed from what the load generator timed, what the servers'
//! stats endpoints said before and after each phase, and what
//! `/proc/<pid>` accounted to each process.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hts_net::{Client, Session};
use hts_types::{ObjectId, RequestId, ServerId};

use crate::checker::{lincheck, Checker, HistOp, LINCHECK_OBJECTS};
use crate::cluster::{Cluster, TempDir, SERVERS};
use crate::loadgen::{worker_main, Cmd, Pace, PhasePlan, PhaseResult, Reply, WorkerSetup};
use crate::procfs::{self, ProcSample};
use crate::prom::Scrape;
use crate::spec::{Shape, Workload, LAG_P99_LIMIT_MS, SESSIONS, SLICES};
use crate::stats::{median, quantile, quartile_spread};
use crate::walk::{self, WalkReport};

/// The server the fault phase kills. The generator's sessions talk to
/// the other two, so their connections survive and every stall they see
/// is the ring's.
const VICTIM: u16 = 2;

pub struct RunOptions<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    /// 1 s phases, one set-up, one kill cycle.
    pub smoke: bool,
    /// Also run the layer walk (the `walk`-sourced per-layer rows).
    pub trace: bool,
    /// Where the walk's spans go, if anywhere.
    pub trace_out: Option<&'a std::path::Path>,
    /// Test hook: panic in the middle of this phase.
    pub panic_in: Option<&'a str>,
}

/// What a run measured. A metric that could not be measured (metrics
/// compiled out, or not traced) is `None`.
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    /// False when the paced generator ran too late to have offered its
    /// load: the numbers are then not a result.
    pub valid: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Option<f64>>,
    /// Quartile spread over the phase's slices, for metrics that have one.
    pub round_spread: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub wall_s: f64,
    pub wal_fs: Option<String>,
    /// The walk's deterministic counts (traced runs only).
    pub walk_counts: Option<walk::WalkCounts>,
}

/// The generator threads of one set-up.
struct Workers {
    cmds: Vec<Sender<Cmd>>,
    replies: Vec<Receiver<Reply>>,
    handles: Vec<JoinHandle<Result<(), String>>>,
}

impl Workers {
    fn spawn(w: &Workload, seed: u64, cluster: &Cluster, checker: &Arc<Checker>) -> Workers {
        let mut workers = Workers {
            cmds: Vec::new(),
            replies: Vec::new(),
            handles: Vec::new(),
        };
        for session in 0..SESSIONS {
            let (cmd_tx, cmd_rx) = channel();
            let (reply_tx, reply_rx) = channel();
            let setup = WorkerSetup {
                session: session as u64,
                role: w.roles[session],
                writers: w.writers(),
                paced_ops_s: w.paced_ops_s[session],
                seed,
                addrs: cluster.addrs(),
                window: w.window,
                checker: Arc::clone(checker),
            };
            workers.cmds.push(cmd_tx);
            workers.replies.push(reply_rx);
            workers.handles.push(std::thread::spawn(move || {
                worker_main(setup, cmd_rx, reply_tx)
            }));
        }
        workers
    }

    fn send(&self, cmd: impl Fn() -> Cmd) {
        for tx in &self.cmds {
            let _ = tx.send(cmd());
        }
    }

    /// One reply from each worker, or the error of one that died.
    fn collect(&mut self) -> Result<Vec<Reply>, String> {
        let mut out = Vec::new();
        for i in 0..self.replies.len() {
            match self.replies[i].recv() {
                Ok(reply) => out.push(reply),
                Err(_) => return Err(self.finish().err().unwrap_or("a worker exited".into())),
            }
        }
        Ok(out)
    }

    fn preload(&mut self) -> Result<(), String> {
        self.send(|| Cmd::Preload);
        self.collect().map(|_| ())
    }

    /// Stops and joins every worker, reporting the first failure.
    fn finish(&mut self) -> Result<(), String> {
        self.send(|| Cmd::Exit);
        self.cmds.clear();
        let mut first = Ok(());
        for handle in self.handles.drain(..) {
            let result = handle
                .join()
                .unwrap_or_else(|_| Err("a generator thread panicked".into()));
            if first.is_ok() {
                first = result;
            }
        }
        first
    }
}

/// Cumulative readings of every process and registry, taken at a phase
/// boundary while the generator threads are parked.
struct Snapshot {
    servers: Vec<ProcSample>,
    client: ProcSample,
    /// Per server; empty where the server is down or metrics are off.
    scrapes: Vec<Scrape>,
    /// This process's own registry (the sessions' counters).
    own: Scrape,
}

impl Snapshot {
    /// Reads everything now; `stats` is the connection scrapes go over.
    fn take(stats: &mut Client, cluster: &Cluster) -> Snapshot {
        let pids = cluster.pids();
        let scrapes = (0..SERVERS)
            .map(|s| {
                if pids[usize::from(s)].is_none() {
                    return Scrape::default();
                }
                // One retry: the first call after a server's restart
                // finds the old connection dead and only drops it.
                let text = stats
                    .stats(ServerId(s))
                    .or_else(|_| stats.stats(ServerId(s)))
                    .unwrap_or_default();
                Scrape::parse(&text)
            })
            .collect();
        Snapshot {
            servers: pids
                .iter()
                .map(|pid| pid.map(procfs::sample).unwrap_or_default())
                .collect(),
            client: procfs::sample(std::process::id()),
            scrapes,
            own: Scrape::parse(&hts_metrics::render()),
        }
    }
}

/// What changed between two snapshots, servers summed.
#[derive(Default)]
struct Delta {
    servers: ProcSample,
    client: ProcSample,
    scrape: Scrape,
    own: Scrape,
}

impl Delta {
    fn add(&mut self, other: &Delta) {
        self.servers.add(&other.servers);
        self.client.add(&other.client);
        self.scrape.add(&other.scrape);
        self.own.add(&other.own);
    }

    fn between(before: &Snapshot, after: &Snapshot) -> Delta {
        let mut servers = ProcSample::default();
        let mut scrape = Scrape::default();
        for s in 0..after.servers.len() {
            servers.add(&after.servers[s].since(&before.servers[s]));
            scrape.add(&after.scrapes[s].since(&before.scrapes[s]));
        }
        Delta {
            servers,
            client: after.client.since(&before.client),
            scrape,
            own: after.own.since(&before.own),
        }
    }
}

/// One measured phase: what the workers timed and what it cost.
struct Phase {
    plan: PhasePlan,
    results: Vec<PhaseResult>,
    delta: Delta,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.results.iter().map(|r| r.completed).sum()
    }

    /// Per slice, every worker's latencies of one kind, ascending.
    fn slices(&self, writes: bool) -> Vec<Vec<u64>> {
        (0..self.plan.slices)
            .map(|i| {
                let mut all: Vec<u64> = self
                    .results
                    .iter()
                    .flat_map(|r| {
                        let s = &r.slices[i];
                        if writes {
                            &s.write_ns
                        } else {
                            &s.read_ns
                        }
                    })
                    .copied()
                    .collect();
                all.sort_unstable();
                all
            })
            .collect()
    }

    /// Ops per second of each slice.
    fn rates(&self, writes: bool) -> Vec<f64> {
        let slice_s = self.plan.duration.as_secs_f64() / self.plan.slices as f64;
        self.slices(writes)
            .iter()
            .map(|s| s.len() as f64 / slice_s)
            .collect()
    }

    /// Quantile `q` of each slice, milliseconds.
    fn latency_ms(&self, writes: bool, q: f64) -> Vec<f64> {
        self.slices(writes)
            .iter()
            .filter_map(|s| quantile(s, q))
            .map(|ns| ns as f64 / 1e6)
            .collect()
    }
}

struct Totals {
    attempted: u64,
    failed: u64,
}

/// One timed set-up: servers up, sessions connected, every object
/// written once.
struct Setup {
    cluster: Cluster,
    workers: Workers,
    checker: Arc<Checker>,
    wal: Option<TempDir>,
    seconds: f64,
}

impl Setup {
    fn new(w: &Workload, seed: u64) -> Result<Setup, String> {
        let t0 = Instant::now();
        let wal = if w.durable {
            Some(TempDir::new().map_err(|e| format!("wal dir: {e}"))?)
        } else {
            None
        };
        let cluster = Cluster::launch(wal.as_ref().map(TempDir::path))
            .map_err(|e| format!("launching servers: {e}"))?;
        let checker = Arc::new(Checker::new(w.objects, w.writers(), w.value_bytes));
        let mut workers = Workers::spawn(w, seed, &cluster, &checker);
        workers.preload()?;
        Ok(Setup {
            cluster,
            workers,
            checker,
            wal,
            seconds: t0.elapsed().as_secs_f64(),
        })
    }
}

/// The system under measurement plus everything that measures it.
struct Rig<'a> {
    opts: &'a RunOptions<'a>,
    shape: Shape,
    setup: Setup,
    /// The connection the stats scrapes go over.
    stats: Client,
    totals: &'a mut Totals,
}

impl Rig<'_> {
    /// Runs one phase on every worker, with a snapshot on either side.
    fn phase(
        &mut self,
        name: &str,
        seconds: f64,
        pace: Pace,
        fault: Option<&mut FaultLog>,
    ) -> Result<Phase, String> {
        let before = Snapshot::take(&mut self.stats, &self.setup.cluster);
        let plan = PhasePlan {
            // Far enough ahead that every worker is parked on it.
            start: Instant::now() + Duration::from_millis(20),
            duration: Duration::from_secs_f64(seconds),
            slices: SLICES,
            pace,
            record: fault.is_some(),
        };
        self.setup.workers.send(|| Cmd::Phase(plan));
        if self.opts.panic_in == Some(name) {
            std::thread::sleep(plan.duration / 2);
            panic!("panicking in the {name} phase, as --panic-in asked");
        }
        if let Some(log) = fault {
            inject_faults(
                &plan,
                &self.shape,
                self.opts.workload,
                &mut self.setup.cluster,
                &self.setup.checker,
                log,
            );
        }
        let results: Vec<PhaseResult> = self
            .setup
            .workers
            .collect()?
            .into_iter()
            .filter_map(|r| match r {
                Reply::Phase(result) => Some(result),
                Reply::Preloaded => None,
            })
            .collect();
        let after = Snapshot::take(&mut self.stats, &self.setup.cluster);
        for r in &results {
            self.totals.attempted += r.attempted;
            self.totals.failed += r.failed;
        }
        Ok(Phase {
            plan,
            delta: Delta::between(&before, &after),
            results,
        })
    }
}

/// What one round — one fresh set-up and the phases run on it — measured.
struct Round {
    setup_s: f64,
    closed: Phase,
    paced: Phase,
    /// Largest server's `VmHWM` after the paced phase.
    peak_rss_kib: u64,
}

pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let t_run = Instant::now();
    let w = opts.workload;
    let shape = Shape::new(opts.seconds, w.durable, opts.smoke);
    let mut notes = Vec::new();
    let mut totals = Totals {
        attempted: 0,
        failed: 0,
    };
    let mut violations = 0;
    let mut rounds = Vec::new();
    let mut fault_log = FaultLog::default();
    let mut fault = None;
    let mut wal_fs = None;
    let mut spent_wals = Vec::new();

    // Which cores the threads land on and how memory falls differs from
    // one set of processes to the next, and moves throughput by several
    // per cent for as long as they live. So a run measures several fresh
    // set-ups, each for its share of `--seconds`, and reports medians.
    for round in 0..shape.rounds {
        let setup = Setup::new(w, opts.seed.wrapping_add(round as u64))?;
        let setup_s = setup.seconds;
        wal_fs = setup.wal.as_ref().map(|dir| procfs::fs_type(dir.path()));
        let stats = Client::connect(u32::MAX, setup.cluster.addrs()).map_err(|e| e.to_string())?;
        let mut rig = Rig {
            opts,
            shape,
            setup,
            stats,
            totals: &mut totals,
        };
        rig.phase("warmup", shape.warmup_s, Pace::Closed, None)?;
        let closed = rig.phase("closed", shape.closed_s, Pace::Closed, None)?;
        let paced = rig.phase("paced", shape.paced_s, Pace::Paced, None)?;
        let peak_rss_kib = rig
            .setup
            .cluster
            .pids()
            .iter()
            .flatten()
            .map(|pid| procfs::sample(*pid).peak_rss_kib)
            .max()
            .unwrap_or(0);
        // The fault phase runs once, on the last round's system.
        if shape.fault_s > 0.0 && round + 1 == shape.rounds {
            fault = Some(rig.phase("fault", shape.fault_s, Pace::Paced, Some(&mut fault_log))?);
        }
        let Setup {
            cluster,
            mut workers,
            checker,
            wal,
            ..
        } = rig.setup;
        workers.finish()?;
        cluster.shutdown();
        // Logs are deleted after the last round, not between rounds:
        // unlinking tens of MB keeps the file system's journal busy and
        // the next round's fsyncs would pay for it.
        spent_wals.extend(wal);
        violations += checker.violations();
        if let Some(first) = checker.first_violation() {
            notes.push(format!("INCORRECT: round {round}: {first}"));
        }
        rounds.push(Round {
            setup_s,
            closed,
            paced,
            peak_rss_kib,
        });
    }

    drop(spent_wals);

    let walk = if opts.trace {
        Some(walk::run(w, opts.seed, opts.smoke, opts.trace_out)?)
    } else {
        None
    };

    // ---- metrics ------------------------------------------------------
    let mut m: BTreeMap<&'static str, Option<f64>> = BTreeMap::new();
    let mut spread: BTreeMap<&'static str, f64> = BTreeMap::new();
    // A round's value is the median of its slices; the run's value is the
    // median of the rounds, and their quartile spread is kept beside it.
    let mut across = |name: &'static str, of: &dyn Fn(&Round) -> Option<f64>| {
        let values: Vec<f64> = rounds.iter().filter_map(of).collect();
        if let Some(s) = quartile_spread(&values) {
            spread.insert(name, s);
        }
        m.insert(name, median(&values));
        median(&values)
    };
    let paced_ops = |r: &Round| r.paced.completed().max(1) as f64;
    across("setup_s", &|r| Some(r.setup_s));
    across("session.write_ops_s", &|r| median(&r.closed.rates(true)));
    across("session.read_ops_s", &|r| median(&r.closed.rates(false)));
    let server_cpu = across("server_cpu_us_per_op", &|r| {
        Some(r.paced.delta.servers.cpu_ns as f64 / 1e3 / paced_ops(r))
    });
    across("client_cpu_us_per_op", &|r| {
        Some(r.paced.delta.client.cpu_ns as f64 / 1e3 / paced_ops(r))
    });
    across("server_peak_rss_mib", &|r| {
        Some(r.peak_rss_kib as f64 / 1024.0)
    });
    across("session.write_p50_ms", &|r| {
        median(&r.paced.latency_ms(true, 0.5))
    });
    across("session.read_p50_ms", &|r| {
        median(&r.paced.latency_ms(false, 0.5))
    });
    across("session.write_p99_ms", &|r| {
        median(&r.paced.latency_ms(true, 0.99))
    });
    across("session.read_p99_ms", &|r| {
        median(&r.paced.latency_ms(false, 0.99))
    });

    // session.* and loadgen.*: the paced phases as the generator saw them.
    let mut all_ns: Vec<u64> = rounds
        .iter()
        .flat_map(|r| [r.paced.slices(true), r.paced.slices(false)])
        .flatten()
        .flatten()
        .collect();
    all_ns.sort_unstable();
    // The highest percentile with at least ten samples beyond it.
    let level = 1.0 - 10.0 / all_ns.len().max(11) as f64;
    m.insert(
        "session.pmax_ms",
        quantile(&all_ns, level).map(|ns| ns as f64 / 1e6),
    );
    m.insert("session.pmax_level", Some(level * 100.0));
    m.insert(
        "session.failed_share",
        Some(totals.failed as f64 / totals.attempted.max(1) as f64),
    );
    let mut lag: Vec<u64> = rounds
        .iter()
        .flat_map(|r| &r.paced.results)
        .flat_map(|r| r.lag_ns.iter().copied())
        .collect();
    lag.sort_unstable();
    let lag_p99_ms = quantile(&lag, 0.99).map(|ns| ns as f64 / 1e6);
    m.insert("loadgen.lag_p99_ms", lag_p99_ms);
    let valid = lag_p99_ms.is_some_and(|l| l <= LAG_P99_LIMIT_MS);
    if !valid {
        notes.push(format!(
            "INVALID: loadgen.lag_p99_ms = {lag_p99_ms:?} exceeds {LAG_P99_LIMIT_MS} ms; \
             the paced phase did not offer its rate"
        ));
    }

    // Scrape- and /proc-sourced layer rows: every round's paced phase,
    // servers summed.
    let mut total = Delta::default();
    for r in &rounds {
        total.add(&r.paced.delta);
    }
    let ops: f64 = rounds.iter().map(paced_ops).sum();
    m.insert(
        "session.window_inflight_mean",
        total
            .own
            .hist("hts_session_window_inflight")
            .and_then(|h| h.mean()),
    );
    m.insert(
        "session.retries_per_op",
        counter_or_zero(&total.own, "hts_session_retries_total").map(|n| n / ops),
    );
    let s = &total.scrape;
    // A histogram nothing was recorded in during the phase (no read
    // ever blocked, say) reads 0; only a scrape that is empty altogether
    // — metrics compiled out — leaves the row unknown.
    let hist = |name: &str| (!s.is_empty()).then(|| s.hist(name).cloned().unwrap_or_default());
    let hist_p50 = |name: &str| hist(name).map(|h| h.quantile(0.5).unwrap_or(0.0));
    let hist_p50_us = |name: &str| hist_p50(name).map(|ns| ns / 1e3);
    let hist_mean = |name: &str| hist(name).map(|h| h.mean().unwrap_or(0.0));
    let per_op = |v: Option<f64>| v.map(|v| v / ops);
    m.insert(
        "net.ring_frames_per_batch",
        hist_mean("hts_net_ring_batch_frames"),
    );
    m.insert(
        "net.ring_bytes_per_op",
        per_op(hist("hts_net_ring_batch_bytes").map(|h| h.sum)),
    );
    m.insert(
        "net.ring_write_us_p50",
        hist_p50_us("hts_net_ring_write_nanos"),
    );
    m.insert(
        "net.threads_per_node",
        s.gauge("hts_net_threads")
            .map(|t| t / f64::from(SERVERS) / rounds.len() as f64),
    );
    m.insert(
        "poll.wakeups_per_op",
        per_op(counter_or_zero(s, "hts_net_reactor_wakeups_total")),
    );
    m.insert(
        "poll.events_per_wake",
        hist_mean("hts_net_reactor_events_per_wake"),
    );
    m.insert(
        "poll.ctx_switches_per_op",
        Some(total.servers.ctx_switches as f64 / ops),
    );
    m.insert(
        "core.prewrite_us_p50",
        hist_p50_us("hts_core_write_prewrite_nanos"),
    );
    m.insert(
        "core.commit_us_p50",
        hist_p50_us("hts_core_write_commit_nanos"),
    );
    m.insert(
        "core.read_block_us_p50",
        hist_p50_us("hts_core_read_block_nanos"),
    );
    m.insert(
        "core.write_queue_depth_p50",
        hist_p50("hts_core_write_queue_depth"),
    );
    // The volatile workloads open no log, so these are exactly 0 there.
    m.insert("wal.append_us_p50", hist_p50_us("hts_wal_append_nanos"));
    m.insert("wal.fsync_us_p50", hist_p50_us("hts_wal_fsync_nanos"));
    m.insert(
        "wal.fsyncs_per_op",
        per_op(hist("hts_wal_fsync_nanos").map(|h| h.count as f64)),
    );
    m.insert(
        "wal.records_per_group_commit",
        hist_mean("hts_wal_group_commit_records"),
    );

    // recovery.*: medians over the kill cycles.
    let mut lincheck_problems = Vec::new();
    match &fault {
        Some(f) => {
            let mut done: Vec<u64> = f
                .results
                .iter()
                .flat_map(|r| r.completions_ns.iter().copied())
                .collect();
            done.sort_unstable();
            let half_ns = (shape.fault_s / shape.kill_cycles as f64 / 2.0 * 1e9) as u64;
            let stalls: Vec<f64> = fault_log
                .kills_ns
                .iter()
                .map(|kill| longest_gap_ns(&done, *kill, kill + half_ns) as f64 / 1e6)
                .collect();
            m.insert("recovery.stall_ms", median(&stalls));
            m.insert("recovery.rejoin_ms", median(&fault_log.rejoin_ms));
            let attempted: u64 = f.results.iter().map(|r| r.attempted).sum();
            m.insert(
                "recovery.ops_retried_share",
                counter_or_zero(&f.delta.own, "hts_session_retries_total")
                    .map(|n| n / attempted.max(1) as f64),
            );
            totals.attempted += fault_log.audit_attempted;
            totals.failed += fault_log.audit_failed;
            notes.append(&mut fault_log.notes);
            let history: Vec<HistOp> = f
                .results
                .iter()
                .flat_map(|r| r.history.iter().copied())
                .collect();
            lincheck_problems = lincheck(&history, &fault_log.initial, w.writers());
        }
        None => {
            for name in [
                "recovery.stall_ms",
                "recovery.rejoin_ms",
                "recovery.ops_retried_share",
            ] {
                m.insert(name, Some(0.0));
            }
        }
    }

    // Walk-sourced rows and the budget; an untraced run leaves them unknown.
    if let (Some(report), Some(server_cpu)) = (&walk, server_cpu) {
        fill_walk_metrics(&mut m, report, server_cpu);
    }

    let mut correct = violations == 0 && lincheck_problems.is_empty();
    if violations > 0 {
        notes.push(format!("INCORRECT: {violations} reads broke atomicity"));
    }
    for problem in lincheck_problems.iter().take(3) {
        notes.push(format!("INCORRECT: fault-phase history: {problem}"));
    }
    if fault.is_some() && fault_log.cycles_completed < shape.kill_cycles {
        correct = false;
        notes.push(format!(
            "INCORRECT: only {} of {} kill/restart cycles completed",
            fault_log.cycles_completed, shape.kill_cycles
        ));
    }

    Ok(RunResult {
        workload: w.name,
        correct,
        valid,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics: m,
        round_spread: spread,
        notes,
        wall_s: t_run.elapsed().as_secs_f64(),
        wal_fs,
        walk_counts: walk.map(|report| report.counts),
    })
}

fn fill_walk_metrics(m: &mut BTreeMap<&'static str, Option<f64>>, r: &WalkReport, server_cpu: f64) {
    for (name, value) in &r.metrics {
        m.insert(name, Some(*value));
    }
    let attributed = r.server_self_us_per_op;
    m.insert("budget.attributed_us_per_op", Some(attributed));
    m.insert(
        "budget.unattributed_us_per_op",
        Some(server_cpu - attributed),
    );
    m.insert(
        "budget.unattributed_share",
        Some((server_cpu - attributed) / server_cpu),
    );
    m.insert("budget.trace_overhead_pct", Some(r.trace_overhead_pct));
}

/// A counter that was never bumped is never registered: in a registry
/// that is otherwise alive it reads 0, not "unknown".
fn counter_or_zero(scrape: &Scrape, name: &str) -> Option<f64> {
    scrape.counter(name).or((!scrape.is_empty()).then_some(0.0))
}

/// Longest gap between consecutive completions that overlaps `[from, to)`.
fn longest_gap_ns(sorted_done: &[u64], from: u64, to: u64) -> u64 {
    sorted_done
        .windows(2)
        .filter(|pair| pair[1] >= from && pair[0] < to)
        .map(|pair| pair[1] - pair[0])
        .max()
        .unwrap_or(0)
}

/// What the fault injector did and saw.
#[derive(Default)]
struct FaultLog {
    /// Kill instants, ns from phase start.
    kills_ns: Vec<u64>,
    /// Per cycle: respawn to the first read served by the victim.
    rejoin_ms: Vec<f64>,
    cycles_completed: usize,
    audit_attempted: u64,
    audit_failed: u64,
    /// Write number each lincheck-subset object held at phase start.
    initial: Vec<u64>,
    notes: Vec<String>,
}

/// Runs the kill/restart cycles while the workers keep their paced
/// schedule: SIGKILL the victim, wait half a cycle, respawn it on the
/// same WAL directory, time its rejoin, then read every object back from
/// it — each must be at least as new as the newest acknowledged write.
fn inject_faults(
    plan: &PhasePlan,
    shape: &Shape,
    w: &Workload,
    cluster: &mut Cluster,
    checker: &Checker,
    log: &mut FaultLog,
) {
    // Workers are parked until `plan.start`: nothing is in flight, so
    // every issued write is acknowledged and `floor == issued`.
    log.initial = (0..LINCHECK_OBJECTS.min(w.objects))
        .map(|o| checker.floor(o))
        .collect();
    let cycle = plan.duration / shape.kill_cycles as u32;
    for c in 0..shape.kill_cycles {
        let kill_at = plan.start + cycle * c as u32;
        let respawn_at = kill_at + cycle / 2;
        let cycle_end = kill_at + cycle;
        std::thread::sleep(kill_at.saturating_duration_since(Instant::now()));
        log.kills_ns.push(
            Instant::now()
                .saturating_duration_since(plan.start)
                .as_nanos() as u64,
        );
        cluster.kill(VICTIM);
        std::thread::sleep(respawn_at.saturating_duration_since(Instant::now()));
        let t_spawn = Instant::now();
        if let Err(e) = cluster.start(VICTIM) {
            log.notes.push(format!("cycle {c}: respawn failed: {e}"));
            return;
        }
        match audit_victim(cluster, checker, 1000 + c as u32, t_spawn, cycle_end, log) {
            Ok(()) => log.cycles_completed += 1,
            Err(e) => log.notes.push(format!("cycle {c}: {e}")),
        }
    }
}

/// Reads every object back from the restarted victim, timing the first
/// answer as its rejoin.
fn audit_victim(
    cluster: &Cluster,
    checker: &Checker,
    client_id: u32,
    t_spawn: Instant,
    deadline: Instant,
    log: &mut FaultLog,
) -> Result<(), String> {
    const AUDIT_WINDOW: usize = 16;
    let victim = ServerId(VICTIM);
    let mut session = Session::connect_preferring(client_id, cluster.addrs(), victim, AUDIT_WINDOW)
        .map_err(|e| e.to_string())?;
    // A request only leaves its preferred server by timing out on it (or
    // losing the connection); give the victim until the cycle ends.
    let patience = deadline.saturating_duration_since(Instant::now());
    session.set_timeout(patience.max(Duration::from_millis(100)));
    let mut inflight = VecDeque::new();
    for object in 0..checker.objects() {
        // The first read goes alone: the victim holds reads until its
        // resync completes, so its answer marks the rejoin.
        if inflight.len() >= AUDIT_WINDOW || object == 1 {
            finish_audit_read(&mut session, checker, &mut inflight, log);
        }
        if object == 1 {
            log.rejoin_ms.push(t_spawn.elapsed().as_secs_f64() * 1e3);
        }
        let floor = checker.floor(object);
        log.audit_attempted += 1;
        match session.begin_read_from(ObjectId(object)) {
            Ok(request) => inflight.push_back((object, floor, request)),
            Err(_) => log.audit_failed += 1,
        }
    }
    while !inflight.is_empty() {
        finish_audit_read(&mut session, checker, &mut inflight, log);
    }
    if !session.believed_alive()[victim.index()] {
        return Err("the restarted server did not answer the audit itself".into());
    }
    Ok(())
}

fn finish_audit_read(
    session: &mut Session,
    checker: &Checker,
    inflight: &mut VecDeque<(u32, u64, RequestId)>,
    log: &mut FaultLog,
) {
    let Some((object, floor, request)) = inflight.pop_front() else {
        return;
    };
    match session.wait(request) {
        Ok(Some(value)) if checker.read_done(object, floor, &value).is_some() => {}
        _ => log.audit_failed += 1,
    }
}
