//! Reproduces **Figure 1**: the motivating throughput comparison between a
//! quorum-based read protocol (Algorithm A) and a local-read protocol
//! (Algorithm B) in the paper's synchronous round model. Both are tuned to
//! the same isolated latency (4 rounds); their steady-state throughputs
//! differ threefold.
//!
//! Also emits `BENCH_fig1.json`: the round-model numbers, a packet-model
//! baseline of the real ring protocol (read/write payload throughput and
//! p50/p99 latencies), a **batching ablation** (ring batch cap 1 vs 8
//! vs 64 on a saturated small-value write workload), a **lane ablation**
//! (1 vs 2 vs 4 parallel ring lanes on the saturated multi-object write
//! workload), a **pipelining ablation** (client session window 1 vs 8
//! vs 64 at a fixed small client count) — so the performance
//! trajectory of future changes can be diffed mechanically. All of it
//! runs on the simulator; the TCP runtime is measured by the repo's
//! benchmark (`benchmark/`).
//!
//! Pass `--smoke` for a seconds-long CI run: identical report shape,
//! tiny measurement windows. Either way the binary checks its own
//! report before exiting: every row did work and every server-side
//! column is populated, and a report it could not write is a failure.

use hts_baselines::fig1::run_fig1;
use hts_bench::report::{histogram_latency_object, json_f64, latency_object, write_report};
use hts_bench::{run_ring_detailed, Params};
use hts_core::BatchConfig;
use hts_metrics::HistogramSnapshot;
use hts_sim::Nanos;

/// One batching-ablation row: the ring under a saturated small-value
/// write workload at a given frame cap.
struct AblationRow {
    max_frames: usize,
    writes: u64,
    write_mbps: f64,
    latency_json: String,
    server: ServerWindow,
}

/// Opens a window over the server-side observables of one run: the
/// `hts_sim_server_*_nanos` ack-latency histograms (the process-global
/// metrics registry is cumulative across the runs in this binary, so each
/// run is isolated by a snapshot diff) plus the real CPU this process
/// burns.
struct ServerProbe {
    write0: HistogramSnapshot,
    read0: HistogramSnapshot,
    cpu0: Option<u64>,
}

/// One run's server-side window: ack-latency distributions (virtual
/// nanos, same clock as the client latencies) and real CPU per completed
/// operation (whole-process, whole-run — warmup and simulator machinery
/// included, so it is a trend column, not a microbenchmark).
struct ServerWindow {
    write: HistogramSnapshot,
    read: HistogramSnapshot,
    cpu_us_per_op: f64,
}

impl ServerProbe {
    fn begin() -> ServerProbe {
        ServerProbe {
            write0: hts_metrics::histogram("hts_sim_server_write_nanos").snapshot(),
            read0: hts_metrics::histogram("hts_sim_server_read_nanos").snapshot(),
            cpu0: hts_metrics::process_cpu_nanos(),
        }
    }

    /// Closes the window; `ops` is the run's completed operation count
    /// (measurement window), over which the CPU delta is apportioned.
    fn end(self, ops: u64) -> ServerWindow {
        let cpu_us_per_op = match (self.cpu0, hts_metrics::process_cpu_nanos()) {
            (Some(before), Some(after)) if ops > 0 => {
                after.saturating_sub(before) as f64 / ops as f64 / 1e3
            }
            _ => f64::NAN,
        };
        ServerWindow {
            write: hts_metrics::histogram("hts_sim_server_write_nanos")
                .snapshot()
                .since(&self.write0),
            read: hts_metrics::histogram("hts_sim_server_read_nanos")
                .snapshot()
                .since(&self.read0),
            cpu_us_per_op,
        }
    }
}

/// A histogram quantile of nanosecond samples, in ms (`NaN` when empty).
fn quantile_ms(q: Option<u64>) -> f64 {
    q.map_or(f64::NAN, |n| n as f64 / 1e6)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rounds, warmup, measure) = if smoke {
        (100, Nanos::from_millis(50), Nanos::from_millis(100))
    } else {
        (1000, Nanos::from_millis(300), Nanos::from_secs(1))
    };

    println!("# Figure 1 — quorum (A) vs local-read (B), round model, 3 servers");
    println!();
    println!("| algorithm | isolated latency (rounds) | steady-state throughput (reads/round) |");
    println!("|---|---|---|");

    // Isolated latency: one client, one op.
    let (_, lat_a) = run_fig1(true, 3, 1, 12);
    let (_, lat_b) = run_fig1(false, 3, 1, 12);

    // Saturated throughput: 4 clients/server keep the pipeline full.
    let (done_a, _) = run_fig1(true, 3, 4, rounds);
    let (done_b, _) = run_fig1(false, 3, 4, rounds);

    let tput_a = done_a as f64 / rounds as f64;
    let tput_b = done_b as f64 / rounds as f64;
    println!("| A (majority quorum) | {lat_a:.0} | {tput_a:.2} |");
    println!("| B (local read)      | {lat_b:.0} | {tput_b:.2} |");
    println!();
    println!("paper: A and B share the 4-round latency; A sustains 1 read/round, B sustains 3.");

    // Packet-model baseline of the real ring: the reference numbers the
    // perf trajectory diffs against.
    let params = Params {
        n: 4,
        readers_per_server: 2,
        writers_per_server: 1,
        value_size: 64 * 1024,
        warmup,
        measure,
        ..Params::default()
    };
    let probe = ServerProbe::begin();
    let (m, mut read_lat, mut write_lat) = run_ring_detailed(&params);
    let baseline_server = probe.end(m.reads + m.writes);
    println!();
    println!(
        "ring baseline (packet model, n={}, 64 KiB): reads {:.1} Mbit/s, writes {:.1} Mbit/s",
        params.n, m.read_mbps, m.write_mbps
    );
    println!(
        "  server-side ack latency: write p50 {:.2} / p99 {:.2} ms, read p50 {:.2} / p99 {:.2} ms; \
         cpu {:.1} us/op",
        quantile_ms(baseline_server.write.p50()),
        quantile_ms(baseline_server.write.p99()),
        quantile_ms(baseline_server.read.p50()),
        quantile_ms(baseline_server.read.p99()),
        baseline_server.cpu_us_per_op,
    );

    // Batching ablation: a saturated small-value write workload, where
    // the per-frame wire overhead the RingBatch coalescing removes is
    // the bottleneck. Cap 1 is the unbatched runtime; 8 is near the
    // sweet spot; 64 shows the head-of-line cost of over-batching while
    // still beating frame-at-a-time.
    let ablation_value_size = 64usize;
    let ablation_writers = 32u32;
    println!();
    println!(
        "## Batching ablation (ring, n=4, {ablation_writers} writers/server, \
         {ablation_value_size} B values)"
    );
    println!();
    println!(
        "| batch cap (frames) | writes completed | write Mbit/s | p50 ms | p99 ms | \
         srv p50 ms | srv p99 ms | cpu us/op |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut ablation = Vec::new();
    for max_frames in [1usize, 8, 64] {
        let config = hts_core::Config {
            batching: BatchConfig::with_max_frames(max_frames),
            ..hts_core::Config::default()
        };
        let ab_params = Params {
            n: 4,
            readers_per_server: 0,
            writers_per_server: ablation_writers,
            value_size: ablation_value_size,
            warmup,
            measure,
            config,
            ..Params::default()
        };
        let ab_probe = ServerProbe::begin();
        let (am, _, mut ab_write_lat) = run_ring_detailed(&ab_params);
        let server = ab_probe.end(am.writes);
        println!(
            "| {max_frames} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.1} |",
            am.writes,
            am.write_mbps,
            hts_bench::percentile_ms(&mut ab_write_lat, 50.0),
            hts_bench::percentile_ms(&mut ab_write_lat, 99.0),
            quantile_ms(server.write.p50()),
            quantile_ms(server.write.p99()),
            server.cpu_us_per_op,
        );
        ablation.push(AblationRow {
            max_frames,
            writes: am.writes,
            write_mbps: am.write_mbps,
            latency_json: latency_object(&mut ab_write_lat),
            server,
        });
    }
    let cap1 = ablation.first().expect("cap-1 row");
    let cap64 = ablation.last().expect("cap-64 row");
    println!();
    println!(
        "batching speedup (cap 64 vs cap 1): {:.2}x on ring write throughput",
        cap64.write_mbps / cap1.write_mbps
    );

    // Lane ablation: the same saturated small-value write pressure, but
    // multi-object (one register per writer) so the load partitions
    // across R parallel ring lanes. One lane is today's single-ring
    // runtime; each extra lane adds an independent ring pipeline, so
    // write throughput scales until the client network binds.
    println!();
    println!(
        "## Lane ablation (ring, n=4, {ablation_writers} writers/server, \
         {ablation_value_size} B values, one object per writer)"
    );
    println!();
    println!(
        "| ring lanes | writes completed | write Mbit/s | p50 ms | p99 ms | \
         srv p50 ms | srv p99 ms | cpu us/op |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut lane_ablation = Vec::new();
    for lanes in [1u16, 2, 4] {
        let config = hts_core::Config {
            lanes,
            ..hts_core::Config::default()
        };
        let lane_params = Params {
            n: 4,
            readers_per_server: 0,
            writers_per_server: ablation_writers,
            value_size: ablation_value_size,
            warmup,
            measure,
            distinct_objects: true,
            config,
            ..Params::default()
        };
        let lane_probe = ServerProbe::begin();
        let (lm, _, mut lane_write_lat) = run_ring_detailed(&lane_params);
        let server = lane_probe.end(lm.writes);
        println!(
            "| {lanes} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.1} |",
            lm.writes,
            lm.write_mbps,
            hts_bench::percentile_ms(&mut lane_write_lat, 50.0),
            hts_bench::percentile_ms(&mut lane_write_lat, 99.0),
            quantile_ms(server.write.p50()),
            quantile_ms(server.write.p99()),
            server.cpu_us_per_op,
        );
        lane_ablation.push(AblationRow {
            max_frames: usize::from(lanes), // reused row shape: the knob value
            writes: lm.writes,
            write_mbps: lm.write_mbps,
            latency_json: latency_object(&mut lane_write_lat),
            server,
        });
    }
    let lanes1 = lane_ablation.first().expect("1-lane row");
    let lanes4 = lane_ablation.last().expect("4-lane row");
    println!();
    println!(
        "lane speedup (4 lanes vs 1): {:.2}x on multi-object write throughput",
        lanes4.write_mbps / lanes1.write_mbps
    );

    // Pipelining ablation: the same saturated small-value write pressure,
    // but produced by a FIXED, small client count (one writer per server
    // — one thread each, in a real deployment) whose session window is
    // the only knob. At window 1 this is the closed-loop thread-bound
    // regime; wider windows multiplex more in-flight operations per
    // connection, so measured throughput becomes protocol-bound instead
    // of thread-count-bound.
    let pipeline_writers = 1u32;
    println!();
    println!(
        "## Pipelining ablation (ring, n=4, {pipeline_writers} writer/server, \
         {ablation_value_size} B values, window 1/8/64)"
    );
    println!();
    println!(
        "| session window | writes completed | write Mbit/s | p50 ms | p99 ms | \
         srv p50 ms | srv p99 ms | cpu us/op |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut pipeline_ablation = Vec::new();
    for window in [1usize, 8, 64] {
        let win_params = Params {
            n: 4,
            readers_per_server: 0,
            writers_per_server: pipeline_writers,
            value_size: ablation_value_size,
            warmup,
            measure,
            client_window: window,
            ..Params::default()
        };
        let win_probe = ServerProbe::begin();
        let (wm, _, mut win_write_lat) = run_ring_detailed(&win_params);
        let server = win_probe.end(wm.writes);
        println!(
            "| {window} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.1} |",
            wm.writes,
            wm.write_mbps,
            hts_bench::percentile_ms(&mut win_write_lat, 50.0),
            hts_bench::percentile_ms(&mut win_write_lat, 99.0),
            quantile_ms(server.write.p50()),
            quantile_ms(server.write.p99()),
            server.cpu_us_per_op,
        );
        pipeline_ablation.push(AblationRow {
            max_frames: window, // reused row shape: the knob value
            writes: wm.writes,
            write_mbps: wm.write_mbps,
            latency_json: latency_object(&mut win_write_lat),
            server,
        });
    }
    let window1 = pipeline_ablation.first().expect("window-1 row");
    let window8 = &pipeline_ablation[1];
    let window64 = pipeline_ablation.last().expect("window-64 row");
    println!();
    println!(
        "pipelining speedup at equal thread count: {:.2}x (window 8 vs 1), {:.2}x (window 64 vs 1)",
        window8.write_mbps / window1.write_mbps,
        window64.write_mbps / window1.write_mbps
    );

    let ablation_row_json = |knob: &str, row: &AblationRow| {
        format!(
            r#"    {{"{knob}": {}, "writes_completed": {}, "write_throughput_mbps": {}, "write_latency": {}, "server_write_latency": {}, "cpu_us_per_op": {}}}"#,
            row.max_frames,
            row.writes,
            json_f64(row.write_mbps),
            row.latency_json,
            histogram_latency_object(&row.server.write),
            json_f64(row.server.cpu_us_per_op),
        )
    };
    let ablation_rows: Vec<String> = ablation
        .iter()
        .map(|row| ablation_row_json("max_frames", row))
        .collect();
    let lane_rows: Vec<String> = lane_ablation
        .iter()
        .map(|row| ablation_row_json("lanes", row))
        .collect();
    let pipeline_rows: Vec<String> = pipeline_ablation
        .iter()
        .map(|row| ablation_row_json("window", row))
        .collect();

    let body = format!(
        r#"{{
  "figure": "fig1",
  "smoke": {},
  "round_model": {{
    "servers": 3,
    "algorithm_a": {{"latency_rounds": {}, "throughput_reads_per_round": {}}},
    "algorithm_b": {{"latency_rounds": {}, "throughput_reads_per_round": {}}}
  }},
  "ring_packet_model": {{
    "n": {},
    "value_size_bytes": {},
    "readers_per_server": {},
    "writers_per_server": {},
    "measure_seconds": {},
    "read_throughput_mbps": {},
    "write_throughput_mbps": {},
    "reads_completed": {},
    "writes_completed": {},
    "read_latency": {},
    "write_latency": {},
    "server_write_latency": {},
    "server_read_latency": {},
    "cpu_us_per_op": {}
  }},
  "batching_ablation": {{
    "n": 4,
    "value_size_bytes": {},
    "writers_per_server": {},
    "measure_seconds": {},
    "rows": [
{}
    ]
  }},
  "lane_ablation": {{
    "n": 4,
    "value_size_bytes": {},
    "writers_per_server": {},
    "distinct_objects": true,
    "measure_seconds": {},
    "rows": [
{}
    ]
  }},
  "pipelining_ablation": {{
    "n": 4,
    "value_size_bytes": {},
    "writers_per_server": {},
    "measure_seconds": {},
    "rows": [
{}
    ]
  }}
}}
"#,
        smoke,
        json_f64(lat_a),
        json_f64(tput_a),
        json_f64(lat_b),
        json_f64(tput_b),
        params.n,
        params.value_size,
        params.readers_per_server,
        params.writers_per_server,
        json_f64(params.measure.as_secs_f64()),
        json_f64(m.read_mbps),
        json_f64(m.write_mbps),
        m.reads,
        m.writes,
        latency_object(&mut read_lat),
        latency_object(&mut write_lat),
        histogram_latency_object(&baseline_server.write),
        histogram_latency_object(&baseline_server.read),
        json_f64(baseline_server.cpu_us_per_op),
        ablation_value_size,
        ablation_writers,
        json_f64(measure.as_secs_f64()),
        ablation_rows.join(",\n"),
        ablation_value_size,
        ablation_writers,
        json_f64(measure.as_secs_f64()),
        lane_rows.join(",\n"),
        ablation_value_size,
        pipeline_writers,
        json_f64(measure.as_secs_f64()),
        pipeline_rows.join(",\n"),
    );
    match write_report("fig1", &body) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => panic!("could not write BENCH_fig1.json: {e}"),
    }
    let rows = || {
        ablation
            .iter()
            .chain(&lane_ablation)
            .chain(&pipeline_ablation)
    };
    assert!(m.reads > 0, "the ring baseline completed no reads");
    for row in rows() {
        assert!(
            row.writes > 0 && row.write_mbps > 0.0,
            "ablation row (knob {}) completed no writes",
            row.max_frames
        );
    }
    assert!(
        smoke || cap64.write_mbps > cap1.write_mbps,
        "batching regression: cap 64 ({:.2} Mbit/s) must beat cap 1 ({:.2} Mbit/s)",
        cap64.write_mbps,
        cap1.write_mbps
    );
    assert!(
        smoke || lanes4.write_mbps > lanes1.write_mbps,
        "lane-scaling regression: 4 lanes ({:.2} Mbit/s) must beat 1 lane ({:.2} Mbit/s)",
        lanes4.write_mbps,
        lanes1.write_mbps
    );
    assert!(
        smoke || window8.write_mbps > window1.write_mbps,
        "pipelining regression: window 8 ({:.2} Mbit/s) must beat window 1 ({:.2} Mbit/s) at \
         equal thread count",
        window8.write_mbps,
        window1.write_mbps
    );
    // The server-side columns must carry real samples — smoke mode
    // included, so CI catches silently-dead instrumentation.
    assert!(
        baseline_server.write.count() > 0 && baseline_server.read.count() > 0,
        "server-side ack-latency histograms are empty: the \
         hts_sim_server_*_nanos instrumentation went dead"
    );
    for row in rows() {
        assert!(
            row.server.write.count() > 0,
            "ablation row (knob {}) has an empty server-side write histogram",
            row.max_frames
        );
    }
    if cfg!(target_os = "linux") {
        let cpu = rows().map(|row| row.server.cpu_us_per_op);
        assert!(
            std::iter::once(baseline_server.cpu_us_per_op)
                .chain(cpu)
                .all(f64::is_finite),
            "cpu_us_per_op must be measurable on linux, in every row"
        );
    }
}
