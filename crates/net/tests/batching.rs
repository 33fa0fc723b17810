//! End-to-end TCP tests of the batched ring pipeline: aggressive frame
//! coalescing must be invisible to clients — the full concurrent history
//! stays linearizable through kill/restart.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hts_core::{BatchConfig, Config};
use hts_lincheck::{check_conditions, History};
use hts_net::{Client, Cluster};
use hts_types::{ClientId, ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-batch-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// An aggressive batching configuration: deep batches with a large
/// byte budget, so the lane's coalescing path runs under load.
fn batched_config() -> Config {
    Config {
        batching: BatchConfig {
            max_frames: 64,
            max_bytes: 1024 * 1024,
        },
        ..Config::default()
    }
}

#[test]
fn batched_ring_stays_atomic_under_kill_restart() {
    let base = tmp_base("lincheck");
    let mut cluster =
        Cluster::launch_durable(3, batched_config(), &base).expect("launch batched cluster");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let history = Arc::new(Mutex::new(History::new()));

    let mut workers = Vec::new();
    for t in 0..4u32 {
        let addrs = addrs.clone();
        let history = Arc::clone(&history);
        workers.push(std::thread::spawn(move || {
            let preferred = ServerId(t as u16 % 3);
            let mut client = Client::connect_preferring(20 + t, addrs, preferred).expect("client");
            client.set_timeout(Duration::from_millis(300));
            let id = ClientId(20 + t);
            for i in 0..15u64 {
                if i % 3 == 2 {
                    let op = history.lock().unwrap().invoke_read(id, nanos_since(epoch));
                    let got = client.read().expect("read");
                    history
                        .lock()
                        .unwrap()
                        .complete_read(op, got, nanos_since(epoch));
                } else {
                    // Unique values let the condition checker map reads
                    // to writes.
                    let value = Value::from_u64(u64::from(t) * 1_000 + i + 1);
                    let op =
                        history
                            .lock()
                            .unwrap()
                            .invoke_write(id, value.clone(), nanos_since(epoch));
                    client.write(value).expect("write");
                    history
                        .lock()
                        .unwrap()
                        .complete_write(op, nanos_since(epoch));
                }
                // No sleep: keep frames queued so real batches form.
            }
        }));
    }

    // Bounce s1 while the batched ring is under fire: its recovery
    // stream and rejoin announcement travel inside batches too.
    std::thread::sleep(Duration::from_millis(40));
    cluster.crash(ServerId(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(150));
    cluster.restart(ServerId(1)).expect("restart");

    for worker in workers {
        worker.join().expect("worker");
    }
    assert_eq!(cluster.alive(), 3);

    let history = history.lock().unwrap();
    let violations = check_conditions(&history);
    assert!(
        violations.is_empty(),
        "atomicity violations under batching + kill/restart: {violations:?}\n{history}"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn batched_and_unbatched_clusters_agree_end_to_end() {
    // The batching knob must be a pure performance setting: the same
    // operation sequence gives the same answers at cap 64 and cap 1.
    let run = |config: Config, tag: &str| -> Vec<Value> {
        let base = tmp_base(tag);
        let cluster = Cluster::launch_durable(3, config, &base).expect("launch");
        let mut client = Client::connect(1, cluster.addrs()).expect("client");
        client.set_timeout(Duration::from_millis(300));
        let mut reads = Vec::new();
        for i in 1..=10u64 {
            client.write(Value::from_u64(i)).expect("write");
            if i % 2 == 0 {
                reads.push(client.read().expect("read"));
            }
        }
        cluster.shutdown();
        let _ = fs::remove_dir_all(&base);
        reads
    };
    let batched = run(batched_config(), "agree-batched");
    let unbatched = run(
        Config {
            batching: BatchConfig::unbatched(),
            ..Config::default()
        },
        "agree-unbatched",
    );
    assert_eq!(batched, unbatched);
    assert_eq!(batched.last(), Some(&Value::from_u64(10)));
}

#[test]
fn restarted_server_resyncs_through_batched_stream() {
    // The rejoin certificate depends on per-link FIFO: the predecessor's
    // recovery stream must land before the announcement even when both
    // ride inside RingBatch messages. A read pinned to the restarted
    // server proves it.
    let base = tmp_base("resync");
    let mut cluster = Cluster::launch_durable(3, batched_config(), &base).expect("launch");
    let addrs = cluster.addrs();
    let mut writer = Client::connect(1, addrs.clone()).expect("writer");
    writer.set_timeout(Duration::from_millis(300));
    for i in 1..=8u64 {
        writer.write(Value::from_u64(i)).expect("pre-crash write");
    }

    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(150));
    // Committed while s2 is down: its log cannot contain this write.
    writer.write(Value::from_u64(99)).expect("downtime write");

    cluster.restart(ServerId(2)).expect("restart");
    std::thread::sleep(Duration::from_millis(400));

    let mut reader = Client::connect_preferring(50, addrs, ServerId(2)).expect("reader at s2");
    reader.set_timeout(Duration::from_millis(500));
    assert_eq!(
        reader.read().expect("read via restarted server"),
        Value::from_u64(99),
        "restarted server served stale data through the batched resync"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}
