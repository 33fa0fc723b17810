//! Runs the real binary in `--smoke` mode (short phases, one kill cycle)
//! and holds its output, the catalogue in `spec.rs` and the repo's
//! `BENCHMARK.json` together: same workload names, same metric names,
//! every value a finite number.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use hts_benchmark::json::Json;
use hts_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

fn names(spec: &Json, key: &str) -> BTreeSet<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root")).unwrap()
}

#[test]
fn smoke_run_reports_exactly_the_catalogued_metrics() {
    let spec = benchmark_json();
    let out = std::env::temp_dir().join(format!("hts-benchmark-smoke-{}.json", std::process::id()));
    let t0 = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--all", "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .output()
        .expect("running the benchmark binary");
    let took = t0.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(took.as_secs() < 20, "smoke took {took:?}");

    let file = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let _ = std::fs::remove_file(&out);
    for key in ["nproc", "kernel", "rustc", "commit", "cargo_features"] {
        assert!(file.get("env").unwrap().get(key).is_some(), "env.{key}");
    }
    let workloads = file.get("workloads").unwrap().as_obj().unwrap();
    let ran: BTreeSet<String> = workloads.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(ran, names(&spec, "workloads"));
    let mut catalogued = names(&spec, "end_to_end");
    catalogued.extend(names(&spec, "per_layer"));
    for (workload, entry) in workloads {
        assert_eq!(
            entry.get("correct").unwrap().as_f64(),
            Some(1.0),
            "{workload}"
        );
        let metrics = entry.get("metrics").unwrap().as_obj().unwrap();
        let reported: BTreeSet<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
        assert_eq!(reported, catalogued, "{workload}");
        for (name, row) in metrics {
            let value = row.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}/{name} = {value:?}"
            );
            assert!(stdout.contains(name.as_str()), "{name} not printed");
        }
        let durable = workload == "durable_crash";
        for (name, row) in metrics.iter().filter(|(name, _)| name.starts_with("wal.")) {
            let value = row.get("value").unwrap().as_f64().unwrap();
            assert_eq!(value != 0.0, durable, "{workload}/{name} = {value}");
        }
    }
}

#[test]
fn spec_rs_and_benchmark_json_name_the_same_things() {
    let spec = benchmark_json();
    let of =
        |names: &mut dyn Iterator<Item = &str>| names.map(str::to_string).collect::<BTreeSet<_>>();
    assert_eq!(
        names(&spec, "workloads"),
        of(&mut WORKLOADS.iter().map(|w| w.name))
    );
    assert_eq!(
        names(&spec, "end_to_end"),
        of(&mut END_TO_END.iter().map(|m| m.name))
    );
    assert_eq!(
        names(&spec, "per_layer"),
        of(&mut PER_LAYER.iter().map(|m| m.name))
    );
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for entry in spec.get(key).unwrap().as_arr().unwrap() {
            let name = entry.get("name").unwrap().as_str().unwrap();
            let metric = catalogue.iter().find(|m| m.name == name).unwrap();
            assert_eq!(
                entry.get("unit").unwrap().as_str(),
                Some(metric.unit),
                "{name}"
            );
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(metric.better.as_str()),
                "{name}"
            );
        }
    }
    for (entry, w) in spec
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(&WORKLOADS)
    {
        assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why));
    }
    assert!(spec
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .any(|e| {
            e.get("name").unwrap().as_str() == Some("setup_s")
                && e.get("bound").unwrap().as_f64() <= Some(0.25)
        }));
}
