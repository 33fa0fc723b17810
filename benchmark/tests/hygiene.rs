//! Child-process hygiene and the driver contract, against the real binary.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::{Duration, Instant};

use hts_benchmark::json::Json;
use hts_benchmark::spec::END_TO_END;

/// Pids of running `benchmark serve` processes of this build.
fn serve_pids() -> BTreeSet<u32> {
    let exe = env!("CARGO_BIN_EXE_benchmark");
    std::fs::read_dir("/proc")
        .unwrap()
        .flatten()
        .filter_map(|entry| {
            let pid: u32 = entry.file_name().to_str()?.parse().ok()?;
            let cmdline = std::fs::read(entry.path().join("cmdline")).ok()?;
            let mut args = cmdline.split(|b| *b == 0);
            (args.next()? == exe.as_bytes() && args.next()? == b"serve").then_some(pid)
        })
        .collect()
}

// One test, so the two runs below never overlap: each counts the `serve`
// processes it finds.
#[test]
fn servers_never_outlive_a_run_and_the_driver_line_is_well_formed() {
    let before = serve_pids();

    // A run that panics in the middle of its closed phase…
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "durable_crash",
            "--seed",
            "9",
            "--smoke",
            "--panic-in",
            "closed",
        ])
        .output()
        .unwrap();
    assert!(!run.status.success(), "the run was asked to panic");
    assert!(String::from_utf8_lossy(&run.stderr).contains("--panic-in"));
    // …leaves no server behind (they are killed as the panic unwinds).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let orphans: Vec<u32> = serve_pids().difference(&before).copied().collect();
        if orphans.is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "orphaned servers: {orphans:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // A normal run in the driver's form ends with one JSON object holding
    // exactly the contract's keys and every end-to-end metric.
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "mixed_hot",
            "--seed",
            "5",
            "--seconds",
            "2",
            "--smoke",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    let line = Json::parse(stdout.trim_end().lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
    assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(reported, END_TO_END.map(|m| m.name));
    for (name, row) in metrics {
        assert!(row.get("value").unwrap().as_f64().unwrap() > 0.0, "{name}");
        assert!(row.get("unit").unwrap().as_str().is_some(), "{name}");
    }
    assert!(serve_pids().difference(&before).next().is_none());

    // Unknown workloads and bad flags are refused before anything starts.
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}
