//! Fault-tolerance demonstration on the deterministic simulator: a mixed
//! workload runs while servers crash one by one, down to a single
//! survivor; every client operation still completes and the recorded
//! history is checked for linearizability at the end.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use hts::core::Config;
use hts::lincheck::{check_conditions, History};
use hts::sim::packet::{NetworkConfig, PacketSim};
use hts::sim::{Nanos, OpMix, SimClient, SimServer, WorkloadConfig};
use hts::types::{ClientId, NodeId, ServerId};

fn main() {
    let n: u16 = 4;
    let mut sim = PacketSim::new(2026);
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
    for c in 0..8u32 {
        let id = ClientId(c);
        let (client, s) = SimClient::new(
            id,
            n,
            ServerId((c % u32::from(n)) as u16),
            WorkloadConfig {
                mix: OpMix::Mixed { read_percent: 50 },
                value_size: 4 * 1024,
                op_limit: Some(40),
                start_delay: Nanos::ZERO,
                timeout: Nanos::from_millis(40),
                window: 1,
            },
            client_net,
            Some(Rc::clone(&history)),
        );
        sim.add_node(NodeId::Client(id), Box::new(client));
        sim.attach(NodeId::Client(id), client_net);
        stats.push(s);
    }

    // Crash 3 of 4 servers while the workload runs.
    for (who, at_ms) in [(1u16, 100u64), (3, 220), (0, 340)] {
        sim.crash_at(NodeId::Server(ServerId(who)), Nanos::from_millis(at_ms));
        println!("scheduled crash of s{who} at {at_ms} ms");
    }

    sim.run_to_quiescence();

    let (mut writes, mut reads, mut retries) = (0u64, 0u64, 0u64);
    for s in &stats {
        let s = s.borrow();
        writes += s.writes_done;
        reads += s.reads_done;
        retries += s.retries;
    }
    println!();
    println!("virtual time elapsed : {}", sim.now());
    println!(
        "operations completed : {writes} writes + {reads} reads = {}",
        writes + reads
    );
    println!("client retries       : {retries} (crashed-server requests re-issued)");
    assert_eq!(writes + reads, 8 * 40, "every operation completed");

    let h = history.borrow();
    let violations = check_conditions(&h);
    assert!(violations.is_empty(), "atomicity violated: {violations:?}");
    println!(
        "linearizability      : {} operations checked, no violations",
        h.len()
    );
    println!("the register survived down to a single server, as the paper promises.");
}
