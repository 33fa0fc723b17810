//! `benchmark`: command-line front of `hts-benchmark`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, driver contract
//! benchmark --all --seed <n> --out <file> [--seconds <s>] [--smoke]    every workload, result file
//! benchmark compare <a.json> <b.json> [--spec BENCHMARK.json]          verdict per metric and workload
//! benchmark serve --id <i> --addrs <a,b,c> [--wal-dir <dir>]           one server (spawned by the above)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hts_benchmark::json::Json;
use hts_benchmark::run::{run, RunOptions};
use hts_benchmark::spec::{self, SESSIONS, WORKLOADS};
use hts_benchmark::{cluster, compare, report, walk};

// Counts the layer walk's allocations (`types.allocs_per_write`).
#[global_allocator]
static ALLOC: walk::CountingAlloc = walk::CountingAlloc;

/// Measured seconds per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;
/// `--smoke`: phases of about a second.
const SMOKE_SECONDS: f64 = 2.0;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    panic_in: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--all" => parsed.all = true,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--panic-in" => parsed.panic_in = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(parsed)
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    if report::nproc() < SESSIONS && !args.smoke {
        return Err(format!(
            "{} CPUs: the {SESSIONS} generator threads and 3 servers need at least {SESSIONS}; \
             refusing to report numbers from this host",
            report::nproc()
        ));
    }
    let workloads: Vec<&spec::Workload> = match (&args.workload, args.all) {
        (Some(name), false) => vec![spec::workload(name).ok_or(format!(
            "unknown workload {name}; one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        ))?],
        (None, true) => WORKLOADS.iter().collect(),
        _ => return Err("give exactly one of --workload <name> and --all".into()),
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let t0 = Instant::now();
    let mut results = Vec::new();
    for w in workloads {
        let result = run(&RunOptions {
            workload: w,
            seed: args.seed,
            seconds,
            smoke: args.smoke,
            // `--all` always walks: its file holds every row.
            trace: args.trace || args.all,
            trace_out: args.trace_out.as_deref(),
            panic_in: args.panic_in.as_deref(),
        })?;
        report::print_table(&result, args.trace || args.all);
        results.push(result);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // An invalid run (the generator fell behind) is flagged in the table
    // and the file, and `compare` calls its rows unresolved; only a wrong
    // answer fails the command.
    let all_correct = results.iter().all(|r| r.correct);
    if args.all {
        println!("total wall time: {wall_s:.1} s");
    }
    if let Some(path) = &args.out {
        let file = Json::obj([
            ("benchmark", Json::str("hts-benchmark")),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("wall_s", Json::Num(wall_s)),
            ("env", report::environment()),
            (
                "workloads",
                Json::obj(
                    results
                        .iter()
                        .map(|r| (r.workload, report::workload_json(r))),
                ),
            ),
        ]);
        std::fs::write(path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if !args.all {
        // The driver reads the last line of stdout.
        println!("{}", report::driver_line(&results[0], args.trace));
    }
    Ok(if all_correct || !args.all {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("usage: benchmark compare <a.json> <b.json> [--spec BENCHMARK.json]".into());
    };
    let load = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let outcome = compare::compare(&load(&spec_path)?, &load(a)?, &load(b)?)?;
    for line in &outcome.lines {
        println!("{line}");
    }
    Ok(if outcome.regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve") => cluster::serve(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("compare") => compare_files(&args[1..]),
        _ => parse(&args).and_then(|parsed| measure(&parsed)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
