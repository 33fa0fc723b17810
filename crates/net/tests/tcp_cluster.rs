//! End-to-end tests of the TCP runtime on localhost.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use hts_core::Config;
use hts_net::{Client, Cluster, Server, ServerConfig};
use hts_types::{ObjectId, ServerId, Value};

#[test]
fn write_then_read_through_different_servers() {
    let cluster = Cluster::launch(3).expect("launch");
    let addrs = cluster.addrs();

    let mut writer = Client::connect(1, addrs.clone()).expect("writer");
    writer.write(Value::from_u64(7)).expect("write");

    // Read through each server: all must return the committed value.
    for (i, _) in addrs.iter().enumerate() {
        let mut reader = Client::connect(100 + i as u32, addrs.clone()).expect("reader");
        // Every reader prefers ServerId(0); the rotated client below
        // covers the other servers.
        let got = reader.read().expect("read");
        assert_eq!(got, Value::from_u64(7), "reader {i}");
    }
    cluster.shutdown();
}

#[test]
fn multiple_objects_are_independent() {
    let cluster = Cluster::launch(2).expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client
        .write_to(ObjectId(1), Value::from_u64(11))
        .expect("write obj1");
    client
        .write_to(ObjectId(2), Value::from_u64(22))
        .expect("write obj2");
    // Large enough to span many socket reads on every hop.
    let big = Value::filled(7, 64 * 1024);
    client
        .write_to(ObjectId(3), big.clone())
        .expect("write 64 KiB");
    assert_eq!(client.read_from(ObjectId(3)).expect("read obj3"), big);
    assert_eq!(
        client.read_from(ObjectId(1)).expect("read obj1"),
        Value::from_u64(11)
    );
    assert_eq!(
        client.read_from(ObjectId(2)).expect("read obj2"),
        Value::from_u64(22)
    );
    assert_eq!(
        client.read_from(ObjectId(9)).expect("read obj9"),
        Value::bottom()
    );
    cluster.shutdown();
}

#[test]
fn sequential_writes_converge() {
    let cluster = Cluster::launch(3).expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    for i in 1..=20u64 {
        client.write(Value::from_u64(i)).expect("write");
    }
    assert_eq!(client.read().expect("read"), Value::from_u64(20));
    cluster.shutdown();
}

#[test]
fn survives_server_crash_with_client_retry() {
    let mut cluster = Cluster::launch(3).expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client.set_timeout(Duration::from_millis(300));
    client.write(Value::from_u64(1)).expect("write before");

    // Kill the server the client prefers (s0): retries must carry on.
    cluster.crash(ServerId(0)).expect("crash");
    std::thread::sleep(Duration::from_millis(100)); // let the ring splice

    client.write(Value::from_u64(2)).expect("write after crash");
    assert_eq!(client.read().expect("read"), Value::from_u64(2));
    assert_eq!(cluster.alive(), 2);
    cluster.shutdown();
}

#[test]
fn single_server_cluster_works() {
    let cluster = Cluster::launch(1).expect("launch");
    let mut client = Client::connect(1, cluster.addrs()).expect("client");
    client.write(Value::from_u64(5)).expect("write");
    assert_eq!(client.read().expect("read"), Value::from_u64(5));
    cluster.shutdown();
}

#[test]
fn concurrent_clients_from_threads() {
    let cluster = Cluster::launch(3).expect("launch");
    let addrs = cluster.addrs();
    let mut handles = Vec::new();
    for t in 0..4u32 {
        let addrs = addrs.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(10 + t, addrs).expect("client");
            for i in 0..10u64 {
                client
                    .write(Value::from_u64(u64::from(t) * 1000 + i))
                    .expect("write");
                let _ = client.read().expect("read");
            }
        }));
    }
    for h in handles {
        h.join().expect("thread");
    }
    cluster.shutdown();
}

/// Boots a 3-server ring in `order` on reserved localhost ports, 3 ms
/// apart, and returns how long after the last `Server::spawn` returned
/// the first write through server 0 was acknowledged. A write crosses
/// every ring link, so this is how long the slowest link took to come
/// up. The pause stands in for a process start (the benchmark boots
/// each server as a child process): without it a lane's first connect
/// may run after the next in-process spawn has already bound its port,
/// and no connect is ever refused.
fn first_write_after_boot(order: [u16; 3]) -> Duration {
    let addrs: Vec<SocketAddr> = {
        let holders: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve"))
            .collect();
        holders
            .iter()
            .map(|h| h.local_addr().expect("addr"))
            .collect()
    };
    let servers: Vec<Server> = order
        .iter()
        .map(|&id| {
            std::thread::sleep(Duration::from_millis(3));
            Server::spawn(ServerConfig {
                id: ServerId(id),
                addrs: addrs.clone(),
                config: Config::default(),
                wal_dir: None,
            })
            .expect("spawn")
        })
        .collect();
    let booted = Instant::now();
    let mut client = Client::connect(1, addrs).expect("client");
    client.write(Value::from_u64(1)).expect("first write");
    let took = booted.elapsed();
    drop(servers);
    took
}

#[test]
fn first_write_lands_promptly_in_either_boot_order() {
    // Highest id first is the benchmark's order: every server's
    // successor is already listening except server 2's (server 0).
    // Server 0 first is the in-process `Cluster`'s order: every
    // successor but the last one's starts after its predecessor. A link
    // whose first connect is refused must come up as soon as its peer
    // listens, not after a fixed pause.
    let took = [[2, 1, 0], [0, 1, 2]].map(first_write_after_boot);
    assert!(
        took.iter().all(|&t| t < Duration::from_millis(25)),
        "first write after the last spawn, highest id first and 0 first: {took:?}"
    );
}

#[test]
fn a_bad_address_map_is_invalid_input_before_any_log_is_touched() {
    let wal_dir = std::env::temp_dir().join(format!("hts-bad-addrs-{}", std::process::id()));
    let durable = Config {
        durability: hts_core::Durability::SyncAlways,
        ..Config::default()
    };
    let addr: SocketAddr = "127.0.0.1:0".parse().unwrap();
    for (id, addrs) in [(ServerId(3), vec![addr; 3]), (ServerId(0), Vec::new())] {
        let spawned = Server::spawn(ServerConfig {
            id,
            addrs: addrs.clone(),
            config: durable.clone(),
            wal_dir: Some(wal_dir.clone()),
        });
        let err = spawned.err().expect("spawned on a bad address map");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{id} in {addrs:?}"
        );
        assert!(!wal_dir.exists(), "{id} in {addrs:?} created its log");
    }
}
