//! Paper ablation A2 (`Config::read_fast_path`) over real TCP: a read
//! returns at once when the stored tag dominates every pending
//! pre-write, instead of waiting for the next write notice. The shortcut
//! is taken by the protocol core, so it is checked here where the core
//! meets sockets, crashes and WAL recovery.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hts_core::Config;
use hts_lincheck::{check_conditions, History};
use hts_net::{Client, Cluster};
use hts_types::{ClientId, ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-fastpath-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Concurrent writers and readers with A2 on, a server bounced mid-run,
/// and the full history checked for atomicity: a read answered early
/// must still linearize, before the crash, during the restarted
/// server's resync and after it.
#[test]
fn fast_path_stays_atomic_through_kill_restart() {
    let base = tmp_base("lincheck");
    let config = Config {
        read_fast_path: true,
        ..Config::default()
    };
    let mut cluster = Cluster::launch_durable(3, config, &base).expect("launch");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let history = Arc::new(Mutex::new(History::new()));

    let mut workers = Vec::new();
    for t in 0..3u32 {
        let addrs = addrs.clone();
        let history = Arc::clone(&history);
        workers.push(std::thread::spawn(move || {
            let preferred = ServerId(t as u16 % 3);
            let mut client = Client::connect_preferring(10 + t, addrs, preferred).expect("client");
            client.set_timeout(Duration::from_millis(300));
            for i in 0..12u64 {
                let id = ClientId(10 + t);
                if i % 2 == 1 {
                    // Half the ops are reads, each a chance for A2 to answer early.
                    let op = {
                        let mut h = history.lock().unwrap();
                        h.invoke_read(id, nanos_since(epoch))
                    };
                    let got = client.read().expect("read");
                    let mut h = history.lock().unwrap();
                    h.complete_read(op, got, nanos_since(epoch));
                } else {
                    let value = Value::from_u64(u64::from(t) * 1_000 + i + 1);
                    let op = {
                        let mut h = history.lock().unwrap();
                        h.invoke_write(id, value.clone(), nanos_since(epoch))
                    };
                    client.write(value).expect("write");
                    let mut h = history.lock().unwrap();
                    h.complete_write(op, nanos_since(epoch));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }));
    }

    // Bounce s2 while the workers hammer the ring: its restored state
    // must stay unreadable until its resync ends, A2 or not.
    std::thread::sleep(Duration::from_millis(60));
    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(150));
    cluster.restart(ServerId(2)).expect("restart");

    for worker in workers {
        worker.join().expect("worker");
    }
    assert_eq!(cluster.alive(), 3);

    let history = history.lock().unwrap();
    let violations = check_conditions(&history);
    assert!(
        violations.is_empty(),
        "A2 atomicity violations across kill+restart: {violations:?}\n{history}"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}
