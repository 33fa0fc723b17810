//! Reactor edge cases over real TCP: deterministic teardown (dropped
//! servers release their port and close every connection),
//! reconnect-while-writable races on the outbound ring, and a
//! linearizability check of a pipelined load across a kill/restart on
//! two lanes.

use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hts_core::Config;
use hts_lincheck::{check_conditions, History};
use hts_net::{Cluster, Server, ServerConfig, Session};
use hts_types::{codec::Hello, ClientId, RequestId, ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-reactor-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Reserves `n` ephemeral localhost ports (the cluster-harness trick:
/// bind, record, drop).
fn reserve_addrs(n: u16) -> Vec<std::net::SocketAddr> {
    let holders: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve"))
        .collect();
    holders
        .iter()
        .map(|h| h.local_addr().expect("addr"))
        .collect()
}

#[test]
fn dropped_server_port_is_immediately_rebindable() {
    let addrs = reserve_addrs(2);
    let spawn = |id: u16| {
        Server::spawn(ServerConfig {
            id: ServerId(id),
            addrs: addrs.clone(),
            config: Config::default(),
            wal_dir: None,
        })
        .expect("spawn")
    };
    let s0 = spawn(0);
    let s1 = spawn(1);

    // Live traffic so the servers hold accepted connections too.
    let mut session = Session::connect(1, addrs.clone(), 4).expect("session");
    session.set_timeout(Duration::from_millis(500));
    session.write(Value::from_u64(7)).expect("write");
    drop(session);

    // Drop (not shutdown): the reactor joins its threads and closes
    // every fd — listener included — before `drop` returns, so the port
    // is free the moment the next statement runs.
    drop(s0);
    drop(s1);
    for addr in &addrs {
        TcpListener::bind(addr).expect("port must be rebindable right after drop");
    }
}

#[test]
fn dropped_server_closes_accepted_connections() {
    let addrs = reserve_addrs(2);
    let servers: Vec<Server> = (0..2)
        .map(|id| {
            Server::spawn(ServerConfig {
                id: ServerId(id),
                addrs: addrs.clone(),
                config: Config::default(),
                wal_dir: None,
            })
            .expect("spawn")
        })
        .collect();

    // A raw client connection (hello only, no request in flight).
    let mut probe = TcpStream::connect(addrs[0]).expect("connect");
    probe
        .write_all(&Hello::Client(ClientId(9)).encode())
        .expect("hello");
    probe
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("timeout");

    drop(servers);

    // The server side must have closed the socket: the read observes
    // EOF or a reset — anything but hanging until the timeout.
    let mut byte = [0u8; 1];
    match probe.read(&mut byte) {
        Ok(0) => {}                                                // clean FIN
        Err(e) if e.kind() != std::io::ErrorKind::WouldBlock => {} // RST is fine too
        other => panic!("connection not closed by dropped server: {other:?}"),
    }
}

#[test]
fn reconnect_while_writable_races_stay_consistent() {
    // Hammer writes through a pipelined session while the ring successor
    // bounces twice: the predecessor's outbound connection dies with a
    // staged batch in its socket, reconnects (nonblocking connect racing
    // write-readiness events), and retransmits. Every acknowledged write
    // must stay atomic; the bounced server must end up back in the ring.
    let base = tmp_base("reconnect");
    let config = Config {
        lanes: 2,
        ..Config::default()
    };
    let mut cluster = Cluster::launch_durable(2, config, &base).expect("launch");
    let addrs = cluster.addrs();

    let mut session = Session::connect(1, addrs.clone(), 8).expect("session");
    session.set_timeout(Duration::from_millis(400));

    let mut issued: Vec<RequestId> = Vec::new();
    let mut last_ok = 0u64;
    for round in 0..2u64 {
        for i in 0..24u64 {
            let v = round * 100 + i + 1;
            issued.push(session.begin_write(Value::from_u64(v)).expect("begin"));
            if issued.len() >= 8 {
                let r = issued.remove(0);
                if session.wait(r).is_ok() {
                    last_ok += 1;
                }
            }
        }
        // Kill the successor mid-pipeline; restart it while the
        // predecessor is still retrying/queueing.
        cluster.crash(ServerId(1)).expect("crash");
        std::thread::sleep(Duration::from_millis(100));
        cluster.restart(ServerId(1)).expect("restart");
    }
    for r in issued {
        if session.wait(r).is_ok() {
            last_ok += 1;
        }
    }
    assert!(last_ok > 0, "no write survived the reconnect churn at all");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(cluster.alive(), 2);

    // The ring must still commit fresh writes end to end after the churn.
    session
        .write(Value::from_u64(9_999))
        .expect("post-churn write");
    assert_eq!(
        session.read().expect("post-churn read"),
        Value::from_u64(9_999)
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

/// One kill/restart of server 2 under a pipelined load from two
/// sessions on a two-lane cluster, with the full history
/// linearizability-checked.
#[test]
fn pipelined_kill_restart_on_two_lanes_is_linearizable() {
    let base = tmp_base("kill-restart");
    let config = Config {
        lanes: 2,
        ..Config::default()
    };
    let mut cluster = Cluster::launch_durable(3, config, &base).expect("launch");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let history = Arc::new(Mutex::new(History::new()));

    let mut workers = Vec::new();
    for t in 0..2u32 {
        let addrs = addrs.clone();
        let history = Arc::clone(&history);
        workers.push(std::thread::spawn(move || {
            let id = ClientId(20 + t);
            let mut session =
                Session::connect_preferring(20 + t, addrs, ServerId(t as u16), 8).expect("session");
            session.set_timeout(Duration::from_millis(400));
            let mut in_flight: Vec<(RequestId, hts_lincheck::OpId, bool)> = Vec::new();
            let mut seq = 0u64;
            let mut done = 0u64;
            while done < 40 {
                while in_flight.len() < 8 && seq < 40 {
                    seq += 1;
                    if seq.is_multiple_of(4) {
                        let op = history.lock().unwrap().invoke_read(id, nanos_since(epoch));
                        in_flight.push((session.begin_read().expect("begin_read"), op, true));
                    } else {
                        let value = Value::from_u64(u64::from(id.0) * 1_000_000 + seq);
                        let op = history.lock().unwrap().invoke_write(
                            id,
                            value.clone(),
                            nanos_since(epoch),
                        );
                        in_flight.push((
                            session.begin_write(value).expect("begin_write"),
                            op,
                            false,
                        ));
                    }
                }
                let (request, op, is_read) = in_flight.remove(0);
                let value = session.wait(request).expect("wait");
                let now = nanos_since(epoch);
                let mut h = history.lock().unwrap();
                if is_read {
                    h.complete_read(op, value.expect("read value"), now);
                } else {
                    h.complete_write(op, now);
                }
                done += 1;
            }
            done
        }));
    }

    std::thread::sleep(Duration::from_millis(80));
    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(200));
    cluster.restart(ServerId(2)).expect("restart");

    for worker in workers {
        assert_eq!(worker.join().expect("worker"), 40);
    }
    assert_eq!(cluster.alive(), 3);

    let history = history.lock().unwrap();
    // The conditions checker is the authority on a concurrent merged
    // history (the exhaustive one blows up combinatorially on 80
    // overlapping ops; the sequential suites cover it).
    let violations = check_conditions(&history);
    assert!(
        violations.is_empty(),
        "atomicity violations: {violations:?}\n{history}"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}
