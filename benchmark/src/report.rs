//! Turning run results into what gets printed and written: the table
//! (every metric by name, with its unit), the driver's one-line result,
//! and the result file `compare` reads back, which carries the
//! environment the numbers were taken in.

use std::process::Command;

use crate::json::Json;
use crate::run::RunResult;
use crate::spec::{Metric, END_TO_END, PER_LAYER};

/// Where and on what the run happened.
pub fn environment() -> Json {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(run("rustc", &["--version"]))),
        ("commit", Json::str(run("git", &["rev-parse", "HEAD"]))),
        (
            "cargo_features",
            Json::Arr(if cfg!(feature = "metrics") {
                vec![Json::str("metrics")]
            } else {
                Vec::new()
            }),
        ),
        (
            "build",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metric_rows<'a>(
    result: &'a RunResult,
    catalogue: &'a [Metric],
) -> impl Iterator<Item = (&'a Metric, Option<f64>)> {
    catalogue
        .iter()
        .map(|m| (m, result.metrics.get(m.name).copied().flatten()))
}

/// Prints one workload's metrics, name and unit on every row.
pub fn print_table(result: &RunResult, with_layers: bool) {
    println!(
        "== {}: correct = {}, valid = {}, attempted = {}, failed = {}, wall = {:.1} s",
        result.workload,
        u8::from(result.correct),
        u8::from(result.valid),
        result.attempted,
        result.failed,
        result.wall_s
    );
    let print = |catalogue: &[Metric]| {
        for (metric, value) in metric_rows(result, catalogue) {
            let value = value.map_or("null".into(), |v| format!("{v:.4}"));
            let spread = result
                .round_spread
                .get(metric.name)
                .map_or(String::new(), |s| {
                    format!("  (round spread {:.1} %)", s * 100.0)
                });
            println!(
                "  {:<34} {:>14} {}{}",
                metric.name, value, metric.unit, spread
            );
        }
    };
    print(&END_TO_END);
    if with_layers {
        print(&PER_LAYER);
    }
    for note in &result.notes {
        println!("  note: {note}");
    }
}

/// The driver's result object: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
/// A row nothing was recorded for (no read ever blocked, say) reads 0.
pub fn driver_line(result: &RunResult, trace: bool) -> String {
    let catalogue: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = metric_rows(result, catalogue).map(|(metric, value)| {
        (
            metric.name,
            Json::obj([
                ("value", Json::Num(value.unwrap_or(0.0))),
                ("unit", Json::str(metric.unit)),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}

/// One workload's entry in a result file.
pub fn workload_json(result: &RunResult) -> Json {
    let metrics = metric_rows(result, &END_TO_END)
        .chain(metric_rows(result, &PER_LAYER))
        .map(|(metric, value)| {
            let mut row = vec![
                ("value".to_string(), Json::num(value)),
                ("unit".to_string(), Json::str(metric.unit)),
            ];
            if let Some(spread) = result.round_spread.get(metric.name) {
                row.push(("round_spread".to_string(), Json::num(Some(*spread))));
            }
            (metric.name, Json::Obj(row))
        });
    let counts = result.walk_counts.as_ref().map_or(Json::Null, |c| {
        Json::obj([
            ("ops", Json::Num(c.ops as f64)),
            ("writes", Json::Num(c.writes as f64)),
            ("ring_frames", Json::Num(c.ring_frames as f64)),
            ("ring_batches", Json::Num(c.ring_batches as f64)),
            ("ring_bytes", Json::Num(c.ring_bytes as f64)),
            ("wal_bytes", Json::Num(c.wal_bytes as f64)),
            ("payload_bytes", Json::Num(c.payload_bytes as f64)),
            ("allocs", Json::Num(c.allocs as f64)),
        ])
    });
    Json::obj([
        ("correct", Json::Num(f64::from(u8::from(result.correct)))),
        ("valid", Json::Bool(result.valid)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("wall_s", Json::Num(result.wall_s)),
        (
            "wal_dir_fs",
            result.wal_fs.as_ref().map_or(Json::Null, Json::str),
        ),
        ("metrics", Json::obj(metrics)),
        ("walk_counts", counts),
        (
            "notes",
            Json::Arr(result.notes.iter().map(Json::str).collect()),
        ),
    ])
}
