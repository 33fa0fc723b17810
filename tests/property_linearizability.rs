//! Property-based whole-system test: for random cluster sizes, workloads,
//! network seeds and crash schedules, every completed client operation
//! must fit a linearizable history.
//!
//! This is the strongest correctness statement in the repository: the
//! protocol cores, the fairness rule, recovery retransmission and orphan
//! adoption all sit under the randomized schedule, and the independent
//! checker (`hts-lincheck`) judges the outcome. Failures print the seed.

use std::cell::RefCell;
use std::rc::Rc;

use hts::core::Config;
use hts::lincheck::{check_conditions, History};
use hts::sim::packet::{NetworkConfig, PacketSim};
use hts::sim::{Nanos, OpMix, SimClient, SimServer, WorkloadConfig};
use hts::types::{ClientId, NodeId, ServerId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    n: u16,
    clients: u32,
    ops_per_client: u64,
    read_percent: u8,
    value_size: usize,
    /// (server index, crash time µs) — at least one server survives.
    crashes: Vec<(u16, u64)>,
    fast_path: bool,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2u16..=4, any::<u64>()).prop_flat_map(|(n, seed)| {
        let crashes = prop::collection::vec(
            ((0..n), 200u64..4_000),
            0..usize::from(n - 1), // leave at least one alive
        )
        .prop_map(|mut v| {
            v.sort();
            v.dedup_by_key(|(s, _)| *s);
            v
        });
        (
            Just(seed),
            Just(n),
            2u32..=6,
            2u64..=6,
            0u8..=100,
            prop_oneof![Just(64usize), Just(700), Just(4096)],
            crashes,
            any::<bool>(),
        )
            .prop_map(
                |(
                    seed,
                    n,
                    clients,
                    ops_per_client,
                    read_percent,
                    value_size,
                    crashes,
                    fast_path,
                )| {
                    Scenario {
                        seed,
                        n,
                        clients,
                        ops_per_client,
                        read_percent,
                        value_size,
                        crashes,
                        fast_path,
                    }
                },
            )
    })
}

fn run_scenario(s: &Scenario) -> (u64, History) {
    let mut sim = PacketSim::new(s.seed);
    let ring_net = sim.add_network(NetworkConfig::fast_ethernet());
    let client_net = sim.add_network(NetworkConfig::fast_ethernet());
    let config = Config {
        read_fast_path: s.fast_path,
        ..Config::default()
    };
    for i in 0..s.n {
        let id = NodeId::Server(ServerId(i));
        sim.add_node(
            id,
            Box::new(SimServer::new(
                ServerId(i),
                s.n,
                config.clone(),
                ring_net,
                client_net,
            )),
        );
        sim.attach(id, ring_net);
        sim.attach(id, client_net);
    }
    let history = Rc::new(RefCell::new(History::new()));
    let mut stats = Vec::new();
    for c in 0..s.clients {
        let id = ClientId(c);
        let (client, st) = SimClient::new(
            id,
            s.n,
            ServerId((c % u32::from(s.n)) as u16),
            WorkloadConfig {
                mix: OpMix::Mixed {
                    read_percent: s.read_percent,
                },
                value_size: s.value_size,
                op_limit: Some(s.ops_per_client),
                start_delay: Nanos::ZERO,
                timeout: Nanos::from_millis(8),
                window: 1,
            },
            client_net,
            Some(Rc::clone(&history)),
        );
        sim.add_node(NodeId::Client(id), Box::new(client));
        sim.attach(NodeId::Client(id), client_net);
        stats.push(st);
    }
    for (server, at_us) in &s.crashes {
        sim.crash_at(
            NodeId::Server(ServerId(*server)),
            Nanos::from_micros(*at_us),
        );
    }
    sim.run_to_quiescence();
    let done = stats
        .iter()
        .map(|st| {
            let st = st.borrow();
            st.writes_done + st.reads_done
        })
        .sum();
    let history = Rc::try_unwrap(history)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| rc.borrow().clone());
    (done, history)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_schedules_and_crashes_stay_linearizable(s in arb_scenario()) {
        let (done, history) = run_scenario(&s);
        // Liveness: every client op completed (at least one server lives).
        prop_assert_eq!(
            done,
            u64::from(s.clients) * s.ops_per_client,
            "lost operations under {:?}",
            s
        );
        // Safety: the observed history is atomic.
        let violations = check_conditions(&history);
        prop_assert!(
            violations.is_empty(),
            "violations {:?} under {:?}\n{}",
            violations,
            s,
            history
        );
    }
}
