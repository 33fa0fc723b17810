//! End-to-end TCP tests of the parallel ring lanes: objects partitioned
//! across independent per-lane rings (each with its own connections and
//! WAL) must be invisible to clients — per-object histories stay
//! linearizable through kill/restart even with aggressive batching, a
//! single-lane cluster answers exactly as a laned one does, and each
//! lane replays its own log on restart.

use std::fs;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hts_core::{BatchConfig, Config, LaneMap};
use hts_lincheck::{check_conditions, History};
use hts_net::{read_message, write_message, Client, Cluster};
use hts_types::{codec::Hello, ClientId, Message, ObjectId, RequestId, ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-lanes-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Aggressive batching on top of multiple lanes: the coalescing path
/// runs under load, per lane.
fn laned_config(lanes: u16) -> Config {
    Config {
        lanes,
        batching: BatchConfig {
            max_frames: 64,
            max_bytes: 1024 * 1024,
        },
        ..Config::default()
    }
}

#[test]
fn objects_roundtrip_across_lanes() {
    // One client connection reaches every lane: requests demux by
    // object, replies from all lanes coalesce back over the same socket.
    let cluster = Cluster::launch_with(3, laned_config(4)).expect("launch laned cluster");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client.set_timeout(Duration::from_millis(500));
    for i in 0..16u32 {
        client
            .write_to(ObjectId(i), Value::from_u64(u64::from(i) + 100))
            .expect("write");
    }
    for i in 0..16u32 {
        assert_eq!(
            client.read_from(ObjectId(i)).expect("read"),
            Value::from_u64(u64::from(i) + 100),
            "object {i}"
        );
    }
    cluster.shutdown();
}

#[test]
fn multi_lane_lincheck_under_kill_restart() {
    lincheck_two_lanes_under_kill_restart(false);
    // Paper ablation A2: a read whose object lives on the other lane
    // crosses the inject hop and is answered early by that lane's core.
    lincheck_two_lanes_under_kill_restart(true);
}

fn lincheck_two_lanes_under_kill_restart(read_fast_path: bool) {
    // Four workers, each on its own object (objects spread across both
    // lanes by the shared placement), aggressive batching, and a server
    // bounced mid-run: every per-object history must stay atomic —
    // each lane recovers through its own rejoin/resync protocol.
    let base = tmp_base(&format!("lincheck-a2-{read_fast_path}"));
    let config = Config {
        read_fast_path,
        ..laned_config(2)
    };
    let mut cluster = Cluster::launch_durable(3, config, &base).expect("launch laned cluster");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let histories: Vec<Arc<Mutex<History>>> = (0..4)
        .map(|_| Arc::new(Mutex::new(History::new())))
        .collect();

    let map = LaneMap::new(2);
    let mut lanes_hit = [false; 2];
    let mut cross_lane = false;
    let mut workers = Vec::new();
    for t in 0..4u32 {
        let addrs = addrs.clone();
        let history = Arc::clone(&histories[t as usize]);
        let object = ObjectId(t);
        lanes_hit[usize::from(map.lane_of(object))] = true;
        // A client's socket lives on lane `ClientId % lanes`.
        cross_lane |= u32::from(map.lane_of(object)) != (40 + t) % 2;
        workers.push(std::thread::spawn(move || {
            let preferred = ServerId(t as u16 % 3);
            let mut client = Client::connect_preferring(40 + t, addrs, preferred).expect("client");
            client.set_timeout(Duration::from_millis(300));
            let id = ClientId(40 + t);
            for i in 0..15u64 {
                if i % 3 == 2 {
                    let op = history.lock().unwrap().invoke_read(id, nanos_since(epoch));
                    let got = client.read_from(object).expect("read");
                    history
                        .lock()
                        .unwrap()
                        .complete_read(op, got, nanos_since(epoch));
                } else {
                    let value = Value::from_u64(u64::from(t) * 1_000 + i + 1);
                    let op =
                        history
                            .lock()
                            .unwrap()
                            .invoke_write(id, value.clone(), nanos_since(epoch));
                    client.write_to(object, value).expect("write");
                    history
                        .lock()
                        .unwrap()
                        .complete_write(op, nanos_since(epoch));
                }
            }
        }));
    }
    assert!(
        lanes_hit.iter().all(|h| *h),
        "test objects must exercise both lanes: {lanes_hit:?}"
    );
    assert!(cross_lane, "some worker must read across lanes");

    // Bounce s1 while both lanes are under fire: each lane's recovery
    // stream and rejoin announcement travel its own batched link.
    std::thread::sleep(Duration::from_millis(40));
    cluster.crash(ServerId(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(150));
    cluster.restart(ServerId(1)).expect("restart");

    for worker in workers {
        worker.join().expect("worker");
    }
    assert_eq!(cluster.alive(), 3);

    for (t, history) in histories.iter().enumerate() {
        let history = history.lock().unwrap();
        let violations = check_conditions(&history);
        assert!(
            violations.is_empty(),
            "object {t} (A2 {read_fast_path}): atomicity violations under lanes + \
             kill/restart: {violations:?}\n{history}"
        );
    }

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn single_lane_cluster_matches_the_laned_runtime() {
    // More lanes are a pure performance setting: lanes = 1 and lanes = 4
    // give the same answers. The WAL layout is one directory per lane
    // either way.
    let run = |lanes: u16, tag: &str| -> (Vec<Value>, PathBuf) {
        let base = tmp_base(tag);
        let cluster = Cluster::launch_durable(3, laned_config(lanes), &base).expect("launch");
        let mut client = Client::connect(1, cluster.addrs()).expect("client");
        client.set_timeout(Duration::from_millis(300));
        let mut reads = Vec::new();
        for i in 1..=10u64 {
            let object = ObjectId((i % 4) as u32);
            client.write_to(object, Value::from_u64(i)).expect("write");
            reads.push(client.read_from(object).expect("read"));
        }
        cluster.shutdown();
        (reads, base)
    };
    let (single, single_base) = run(1, "equiv-single");
    let (laned, laned_base) = run(4, "equiv-laned");
    assert_eq!(single, laned);
    assert_eq!(single.last(), Some(&Value::from_u64(10)));

    // WAL layout: every lane logs into its own lane-<k> directory,
    // lanes = 1 included.
    for (base, lanes) in [(&single_base, 1), (&laned_base, 4)] {
        let s0 = base.join("server-0");
        for lane in 0..lanes {
            assert!(
                s0.join(format!("lane-{lane}")).is_dir(),
                "lane {lane} of {lanes} has no WAL directory"
            );
        }
        assert!(!s0.join(format!("lane-{lanes}")).exists());
    }
    let _ = fs::remove_dir_all(&single_base);
    let _ = fs::remove_dir_all(&laned_base);
}

#[test]
fn restarted_laned_server_resyncs_every_lane() {
    // A write committed while the server was down lands in SOME lane;
    // after restart, reads pinned to the restarted server must see it —
    // and pre-crash writes on the other lane too — proving both lanes
    // replayed their own WAL and resynced their own ring.
    let map = LaneMap::new(2);
    let (a, b) = (map.token_object(0), map.token_object(1));
    let base = tmp_base("resync");
    let mut cluster = Cluster::launch_durable(3, laned_config(2), &base).expect("launch");
    let addrs = cluster.addrs();
    let mut writer = Client::connect(1, addrs.clone()).expect("writer");
    writer.set_timeout(Duration::from_millis(300));
    for i in 1..=4u64 {
        writer
            .write_to(a, Value::from_u64(i))
            .expect("lane-0 write");
        writer
            .write_to(b, Value::from_u64(10 + i))
            .expect("lane-1 write");
    }

    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(150));
    // Committed while s2 is down: neither of its lane logs has these.
    writer
        .write_to(a, Value::from_u64(99))
        .expect("downtime write");
    writer
        .write_to(b, Value::from_u64(199))
        .expect("downtime write");

    cluster.restart(ServerId(2)).expect("restart");
    std::thread::sleep(Duration::from_millis(400));

    let mut reader = Client::connect_preferring(50, addrs, ServerId(2)).expect("reader at s2");
    reader.set_timeout(Duration::from_millis(500));
    assert_eq!(
        reader
            .read_from(a)
            .expect("lane-0 read via restarted server"),
        Value::from_u64(99),
        "restarted server served stale lane-0 data"
    );
    assert_eq!(
        reader
            .read_from(b)
            .expect("lane-1 read via restarted server"),
        Value::from_u64(199),
        "restarted server served stale lane-1 data"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn reconnect_keeps_cross_lane_reply_route() {
    // Two connections under one client id (a session that tore down and
    // reconnected): closing the OLD one must not erase the reply route
    // the sibling lane holds for the NEW one. Client 2 lives on lane 0;
    // the object lives on lane 1, so every reply crosses lanes.
    let config = Config {
        lanes: 2,
        ..Config::default()
    };
    let cluster = Cluster::launch_with(2, config).expect("launch");
    let server = cluster.addrs()[0];
    let object = LaneMap::new(2).token_object(1);
    let connect = || {
        let mut stream = TcpStream::connect(server).expect("connect");
        stream
            .write_all(&Hello::Client(ClientId(2)).encode())
            .expect("hello");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        stream
    };
    let write = |stream: &mut TcpStream, request: u64| {
        let request = RequestId(request);
        let value = Value::from_u64(request.0);
        write_message(
            stream,
            &Message::WriteReq {
                object,
                request,
                value,
            },
        )
        .expect("send");
        match read_message(stream) {
            Ok(Message::WriteAck { request: r, .. }) => assert_eq!(r, request),
            other => panic!("write {request} was not acknowledged: {other:?}"),
        }
    };

    let mut old = connect();
    write(&mut old, 1);
    let mut new = connect();
    write(&mut new, 2);
    drop(old);
    // Let the server notice the close before the next request.
    std::thread::sleep(Duration::from_millis(100));
    write(&mut new, 3);

    cluster.shutdown();
}
