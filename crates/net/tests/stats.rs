//! End-to-end tests of the live stats endpoint: a durable TCP cluster
//! under real load must answer `StatsRequest` with a Prometheus-style
//! exposition whose ring-batch, fsync and per-phase write-latency
//! histograms carry non-zero samples.
//!
//! The metrics registry is process-global, so the three in-process
//! servers share one exposition — which is exactly what these tests
//! need: proof the instrumentation fires, not per-server isolation.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use hts_core::Config;
use hts_net::{Client, Cluster};
use hts_types::{ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-stats-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The value of a `name N` counter line, or a histogram's `_count`
/// series, in a rendered exposition.
fn sample(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[test]
fn durable_cluster_serves_live_stats_with_nonzero_histograms() {
    let base = tmp_base("live");
    let cluster = Cluster::launch_durable(3, Config::default(), &base).expect("launch");

    // Real load first: committed writes (through the WAL and around the
    // ring) and reads, so every instrumented path has fired.
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client.set_timeout(Duration::from_millis(500));
    for i in 0..20u64 {
        client.write(Value::from_u64(i + 1)).expect("write");
    }
    for _ in 0..5 {
        let got = client.read().expect("read");
        assert!(!got.as_bytes().is_empty());
    }

    // Every server answers; the exposition is one shared registry.
    let text = cluster.stats(ServerId(0)).expect("stats from s0");
    for s in 1..3u16 {
        cluster.stats(ServerId(s)).expect("stats from each server");
    }
    // A client can probe through its own connection too.
    let via_client = client.stats(ServerId(1)).expect("client stats");

    // Ring batching: every lane records each outbound batch.
    let batches = sample(&text, "hts_net_ring_batch_frames_count").unwrap_or(0);
    assert!(batches > 0, "no ring batches recorded:\n{text}");
    // Durability: SyncAlways fsyncs on the commit path.
    let fsyncs = sample(&text, "hts_wal_fsync_nanos_count").unwrap_or(0);
    assert!(fsyncs > 0, "no WAL fsyncs recorded:\n{text}");
    // Per-phase op latency: pre-write and commit halves plus totals.
    for hist in [
        "hts_core_write_prewrite_nanos_count",
        "hts_core_write_commit_nanos_count",
        "hts_core_write_total_nanos_count",
    ] {
        let n = sample(&text, hist).unwrap_or(0);
        assert!(n > 0, "{hist} is empty:\n{text}");
    }
    assert!(via_client.contains("hts_net_ring_batch_frames_count"));

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn stats_probe_fails_cleanly_against_a_crashed_server() {
    let base = tmp_base("crashed");
    let mut cluster = Cluster::launch_durable(3, Config::default(), &base).expect("launch");
    cluster.crash(ServerId(2)).expect("crash");
    // The endpoint must surface an error, not hang or panic.
    cluster
        .stats(ServerId(2))
        .expect_err("stats against a crashed server");
    // The surviving servers still answer.
    cluster.stats(ServerId(0)).expect("stats from s0");
    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn a_kept_client_reaches_a_restarted_server_within_two_calls() {
    // A long-lived stats client (as a benchmark keeps one) holds a
    // connection that dies with the server. The first call after the
    // restart may find it dead and only drop it; the next reconnects.
    let base = tmp_base("restarted");
    let mut cluster = Cluster::launch_durable(3, Config::default(), &base).expect("launch");
    let mut client = Client::connect(7, cluster.addrs()).expect("client");
    client.stats(ServerId(2)).expect("stats before the crash");
    cluster.crash(ServerId(2)).expect("crash");
    cluster.restart(ServerId(2)).expect("restart");
    client
        .stats(ServerId(2))
        .or_else(|_| client.stats(ServerId(2)))
        .expect("stats from the restarted server");
    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}
