//! Cross-crate integration tests exercised through the `hts` facade.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use hts::core::Config;
use hts::lincheck::{check_conditions, check_exhaustive_bounded, History, Outcome};
use hts::net::{Client, Cluster};
use hts::sim::packet::{NetworkConfig, PacketSim};
use hts::sim::{Nanos, OpMix, SimClient, SimServer, WorkloadConfig};
use hts::types::{ClientId, NodeId, ServerId, Value};

/// The headline behaviour end to end on real TCP: atomic writes/reads,
/// crash tolerance down to one server.
#[test]
fn tcp_cluster_survives_to_a_single_server() {
    let mut cluster = Cluster::launch(3).expect("launch");
    let mut client = Client::connect(7, cluster.addrs()).expect("client");
    client.set_timeout(Duration::from_millis(300));

    client.write(Value::from_u64(1)).expect("write 1");
    cluster.crash(ServerId(0)).expect("crash");
    std::thread::sleep(Duration::from_millis(100));
    client.write(Value::from_u64(2)).expect("write 2");
    cluster.crash(ServerId(1)).expect("crash");
    std::thread::sleep(Duration::from_millis(100));
    client.write(Value::from_u64(3)).expect("write 3");
    assert_eq!(client.read().expect("read"), Value::from_u64(3));
    assert_eq!(cluster.alive(), 1);
    cluster.shutdown();
}

/// Sim + core + lincheck: a contended mixed workload with a mid-run crash
/// stays linearizable (checked both fast and exhaustively).
#[test]
fn simulated_contention_with_crash_is_linearizable() {
    let n = 3;
    let mut sim = PacketSim::new(99);
    let ring_net = sim.add_network(NetworkConfig::fast_ethernet());
    let client_net = sim.add_network(NetworkConfig::fast_ethernet());
    for i in 0..n {
        let id = NodeId::Server(ServerId(i));
        sim.add_node(
            id,
            Box::new(SimServer::new(
                ServerId(i),
                n,
                Config::default(),
                ring_net,
                client_net,
            )),
        );
        sim.attach(id, ring_net);
        sim.attach(id, client_net);
    }
    let history = Rc::new(RefCell::new(History::new()));
    let mut stats = Vec::new();
    for c in 0..6u32 {
        let id = ClientId(c);
        let (client, s) = SimClient::new(
            id,
            n,
            ServerId((c % u32::from(n)) as u16),
            WorkloadConfig {
                mix: OpMix::Mixed { read_percent: 50 },
                value_size: 512,
                op_limit: Some(6),
                start_delay: Nanos::ZERO,
                timeout: Nanos::from_millis(10),
                window: 1,
            },
            client_net,
            Some(Rc::clone(&history)),
        );
        sim.add_node(NodeId::Client(id), Box::new(client));
        sim.attach(NodeId::Client(id), client_net);
        stats.push(s);
    }
    sim.crash_at(NodeId::Server(ServerId(2)), Nanos::from_millis(3));
    sim.run_to_quiescence();

    let done: u64 = stats
        .iter()
        .map(|s| {
            let s = s.borrow();
            s.writes_done + s.reads_done
        })
        .sum();
    assert_eq!(done, 36);

    let h = history.borrow();
    let violations = check_conditions(&h);
    assert!(violations.is_empty(), "{violations:?}\n{h}");
    let outcome = check_exhaustive_bounded(&h, 3_000_000);
    assert!(
        !matches!(outcome, Outcome::NotLinearizable(_)),
        "exhaustive checker rejected: {outcome:?}"
    );
}

/// The paper's headline scaling claim, asserted end to end through the
/// facade: read throughput grows ~linearly, write throughput stays flat.
#[test]
fn headline_scaling_claims_hold() {
    use hts_bench::{run_ring, Params};
    let quick = |n: u16, readers: u32, writers: u32| Params {
        n,
        readers_per_server: readers,
        writers_per_server: writers,
        value_size: 16 * 1024,
        warmup: Nanos::from_millis(100),
        measure: Nanos::from_millis(400),
        ..Params::default()
    };
    let r2 = run_ring(&quick(2, 2, 0));
    let r8 = run_ring(&quick(8, 2, 0));
    let read_scaling = r8.read_mbps / r2.read_mbps;
    assert!(
        (3.5..=4.5).contains(&read_scaling),
        "4x servers should give ~4x reads, got {read_scaling:.2}"
    );
    let w2 = run_ring(&quick(2, 0, 4));
    let w8 = run_ring(&quick(8, 0, 4));
    let write_scaling = w8.write_mbps / w2.write_mbps;
    assert!(
        (0.75..=1.35).contains(&write_scaling),
        "write throughput should stay flat, got {write_scaling:.2}"
    );
}
