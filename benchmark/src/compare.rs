//! `benchmark compare <a.json> <b.json>`: a verdict per (end-to-end
//! metric, workload) — improved, unchanged, regressed or unresolved —
//! by the bounds frozen in `BENCHMARK.json`. A is the baseline.
//!
//! *Unresolved* means the rounds of one of the two runs spread wider than
//! the bound (a run measures several fresh set-ups and reports their
//! median), so a change of the bound's size cannot be told from noise.
//! Per-layer rows carry no bound; their change is listed without a
//! verdict. Walk counts are compared for exact equality when both files
//! were produced from the same seed.

use std::fmt;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    /// Quartile spread over the run's rounds, as a share of the median.
    pub round_spread: Option<f64>,
}

/// Judges `b` against baseline `a`. `bound` is the share of `a` by which
/// the metric may get worse.
pub fn verdict(a: Reading, b: Reading, lower_is_better: bool, bound: f64) -> Verdict {
    if [a.round_spread, b.round_spread]
        .into_iter()
        .flatten()
        .any(|s| s > bound)
    {
        return Verdict::Unresolved;
    }
    if a.value == 0.0 {
        return if b.value == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    // Positive: worse.
    let worse = if lower_is_better {
        (b.value - a.value) / a.value.abs()
    } else {
        (a.value - b.value) / a.value.abs()
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn reading(file: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let row = file
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(Reading {
        value: row.get("value")?.as_f64()?,
        round_spread: row.get("round_spread").and_then(Json::as_f64),
    })
}

/// The outcome of comparing two result files.
pub struct Comparison {
    pub lines: Vec<String>,
    pub regressed: usize,
    pub unresolved: usize,
}

/// Compares result file `b` against baseline `a` under `spec`
/// (`BENCHMARK.json`).
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Comparison, String> {
    let list = |key: &str| {
        spec.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no \"{key}\" list"))
    };
    let name_of = |entry: &Json| entry.get("name").and_then(Json::as_str).map(str::to_string);
    let workloads: Vec<String> = list("workloads")?.iter().filter_map(name_of).collect();
    let mut out = Comparison {
        lines: Vec::new(),
        regressed: 0,
        unresolved: 0,
    };
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    for workload in &workloads {
        out.lines.push(format!("== {workload}"));
        for side in [a, b] {
            let entry = side.get("workloads").and_then(|w| w.get(workload));
            let ok = entry
                .and_then(|e| e.get("correct"))
                .and_then(Json::as_f64)
                .is_some_and(|c| c == 1.0)
                && entry
                    .and_then(|e| e.get("valid"))
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
            if !ok {
                out.unresolved += 1;
                out.lines.push(
                    "  a run of this workload is missing, incorrect or invalid: unresolved".into(),
                );
            }
        }
        for entry in list("end_to_end")? {
            let name = name_of(entry).ok_or("BENCHMARK.json: metric without a name")?;
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("BENCHMARK.json: {name} has no bound"))?;
            let lower = entry.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(ra), Some(rb)) = (reading(a, workload, &name), reading(b, workload, &name))
            else {
                out.unresolved += 1;
                out.lines
                    .push(format!("  {name:<28} missing on one side: unresolved"));
                continue;
            };
            let v = verdict(ra, rb, lower, bound);
            match v {
                Verdict::Regressed => out.regressed += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Improved | Verdict::Unchanged => {}
            }
            out.lines.push(format!(
                "  {name:<28} {:>14.4} -> {:>14.4}  {:>+7.2} %  (bound {:.0} %)  {v}",
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value * 100.0,
                bound * 100.0
            ));
        }
        for entry in list("per_layer")? {
            let name = name_of(entry).ok_or("BENCHMARK.json: metric without a name")?;
            if let (Some(ra), Some(rb)) = (reading(a, workload, &name), reading(b, workload, &name))
            {
                out.lines.push(format!(
                    "  {name:<34} {:>14.4} -> {:>14.4}",
                    ra.value, rb.value
                ));
            }
        }
        let counts = |side: &Json| {
            side.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|e| e.get("walk_counts"))
                .filter(|c| **c != Json::Null)
                .cloned()
        };
        if let (true, Some(ca), Some(cb)) = (same_seed, counts(a), counts(b)) {
            if ca == cb {
                out.lines.push("  walk counts: identical".into());
            } else {
                out.regressed += 1;
                out.lines.push(format!(
                    "  walk counts differ for one seed: {} vs {}: regressed",
                    ca.compact(),
                    cb.compact()
                ));
            }
        }
    }
    out.lines.push(format!(
        "{} regressed, {} unresolved",
        out.regressed, out.unresolved
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, round_spread: Option<f64>) -> Reading {
        Reading {
            value,
            round_spread,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(r(100.0, None), r(105.0, None), true, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(r(100.0, None), r(111.0, None), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(r(100.0, None), r(80.0, None), true, 0.1),
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(r(100.0, None), r(111.0, None), false, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(r(100.0, None), r(80.0, None), false, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_noisy_side_leaves_the_row_unresolved() {
        let noisy = r(100.0, Some(0.2));
        assert_eq!(
            verdict(noisy, r(150.0, Some(0.01)), true, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(r(100.0, Some(0.01)), noisy, true, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(r(100.0, Some(0.05)), r(101.0, Some(0.05)), true, 0.1),
            Verdict::Unchanged
        );
    }

    fn file(seed: f64, write_ops: f64, allocs: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([
                        ("correct", Json::Num(1.0)),
                        ("valid", Json::Bool(true)),
                        (
                            "metrics",
                            Json::obj([
                                ("write_ops_s", metric(write_ops)),
                                ("core.x", metric(3.0)),
                            ]),
                        ),
                        ("walk_counts", Json::obj([("allocs", Json::Num(allocs))])),
                    ]),
                )]),
            ),
        ])
    }

    fn spec() -> Json {
        Json::parse(
            r#"{"workloads":[{"name":"w","why":"test"}],
                "end_to_end":[{"name":"write_ops_s","unit":"1/s","better":"higher","bound":0.1}],
                "per_layer":[{"name":"core.x","unit":"us","better":"lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compares_whole_files() {
        let same = compare(&spec(), &file(1.0, 1000.0, 5.0), &file(1.0, 990.0, 5.0)).unwrap();
        assert_eq!((same.regressed, same.unresolved), (0, 0));
        assert!(same
            .lines
            .iter()
            .any(|l| l.contains("walk counts: identical")));

        let slower = compare(&spec(), &file(1.0, 1000.0, 5.0), &file(1.0, 800.0, 5.0)).unwrap();
        assert_eq!(slower.regressed, 1);

        // Counts may differ across seeds, never within one.
        let drift = compare(&spec(), &file(1.0, 1000.0, 5.0), &file(1.0, 1000.0, 6.0)).unwrap();
        assert_eq!(drift.regressed, 1);
        let other_seed =
            compare(&spec(), &file(1.0, 1000.0, 5.0), &file(2.0, 1000.0, 6.0)).unwrap();
        assert_eq!(other_seed.regressed, 0);

        let missing = compare(
            &spec(),
            &file(1.0, 1000.0, 5.0),
            &Json::obj([("seed", Json::Num(1.0))]),
        );
        assert!(missing.unwrap().unresolved > 0);
    }
}
