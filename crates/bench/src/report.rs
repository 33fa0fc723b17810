//! Machine-readable benchmark artifacts (`BENCH_<name>.json`).
//!
//! Every figure binary prints a human table to stdout **and** drops a
//! JSON file next to the working directory, so successive PRs can diff
//! performance numbers mechanically. The build environment is offline
//! (no serde_json), so emission is a few formatting helpers — the
//! schemas are flat on purpose.

use std::io;
use std::path::PathBuf;

use hts_metrics::HistogramSnapshot;

/// Formats an `f64` for JSON: finite numbers with enough precision to
/// diff, non-finite as `null`.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// The `p`-th percentile (0–100) of a latency sample in nanoseconds,
/// returned in milliseconds. Sorts in place; `NaN` for an empty sample.
pub fn percentile_ms(latencies: &mut [u64], p: f64) -> f64 {
    if latencies.is_empty() {
        return f64::NAN;
    }
    latencies.sort_unstable();
    let rank = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
    latencies[rank.min(latencies.len() - 1)] as f64 / 1e6
}

/// A JSON object for one latency sample: count, mean, p50, p99 (ms).
pub fn latency_object(latencies: &mut [u64]) -> String {
    let count = latencies.len();
    let mean = if count == 0 {
        f64::NAN
    } else {
        latencies.iter().map(|&l| l as f64).sum::<f64>() / count as f64 / 1e6
    };
    format!(
        r#"{{"count": {count}, "mean_ms": {}, "p50_ms": {}, "p99_ms": {}}}"#,
        json_f64(mean),
        json_f64(percentile_ms(latencies, 50.0)),
        json_f64(percentile_ms(latencies, 99.0)),
    )
}

/// A JSON object for a latency histogram snapshot of nanosecond samples
/// (e.g. a server-side `hts_sim_server_write_nanos` window): count, mean,
/// p50, p99, p99.9 in ms. Quantiles render `null` when the snapshot is
/// empty.
pub fn histogram_latency_object(snap: &HistogramSnapshot) -> String {
    let to_ms = |v: Option<u64>| json_f64(v.map_or(f64::NAN, |n| n as f64 / 1e6));
    format!(
        r#"{{"count": {}, "mean_ms": {}, "p50_ms": {}, "p99_ms": {}, "p999_ms": {}}}"#,
        snap.count(),
        json_f64(snap.mean().map_or(f64::NAN, |m| m / 1e6)),
        to_ms(snap.p50()),
        to_ms(snap.p99()),
        to_ms(snap.p999()),
    )
}

/// Writes `BENCH_<name>.json` into the current directory and returns the
/// path.
///
/// # Errors
///
/// Propagates the file-write failure.
pub fn write_report(name: &str, body: &str) -> io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_expected_ranks() {
        let mut sample: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert!((percentile_ms(&mut sample, 50.0) - 50.0).abs() <= 1.0);
        assert!((percentile_ms(&mut sample, 99.0) - 99.0).abs() <= 1.0);
        assert!(percentile_ms(&mut [], 50.0).is_nan());
    }

    #[test]
    fn histogram_latency_object_renders_quantiles_or_null() {
        let h = hts_metrics::Histogram::new();
        for _ in 0..100 {
            h.record(2_000_000); // 2 ms
        }
        let obj = histogram_latency_object(&h.snapshot());
        assert!(obj.starts_with('{') && obj.ends_with('}'));
        assert!(obj.contains("\"p999_ms\""));
        assert!(obj.contains("\"count\": 100"));
        // Empty snapshots render null.
        let empty = histogram_latency_object(&HistogramSnapshot::empty());
        assert!(empty.contains("\"count\": 0"));
        assert!(empty.contains("null"));
    }

    #[test]
    fn latency_object_is_valid_flat_json() {
        let mut sample = vec![1_000_000, 2_000_000, 3_000_000];
        let obj = latency_object(&mut sample);
        assert!(obj.starts_with('{') && obj.ends_with('}'));
        assert!(obj.contains("\"p99_ms\""));
        // Empty samples render null, not NaN (NaN is invalid JSON).
        assert!(latency_object(&mut []).contains("null"));
    }
}
