//! Full-stack integration tests: protocol cores on the packet simulator,
//! closed-loop clients, recorded histories checked for linearizability.

use std::cell::RefCell;
use std::rc::Rc;

use hts_core::{Config, Durability, LaneMap};
use hts_lincheck::{check_conditions, check_exhaustive_bounded, History, Outcome};
use hts_sim::packet::{NetworkConfig, PacketSim};
use hts_sim::{
    unique_value, ClientStats, DiskConfig, Nanos, OpMix, SimClient, SimServer, WorkloadConfig,
};
use hts_types::{ClientId, Message, NodeId, ObjectId, ServerId, Value};

struct Cluster {
    sim: PacketSim<Message>,
    history: Rc<RefCell<History>>,
    client_stats: Vec<Rc<RefCell<ClientStats>>>,
}

/// Builds `n` servers (dual-homed: ring + client networks) plus
/// `clients` clients pinned round-robin, every client running the same
/// workload.
fn cluster(seed: u64, n: u16, clients: u32, workload: WorkloadConfig, config: Config) -> Cluster {
    let mut sim = PacketSim::new(seed);
    let mut net_cfg = NetworkConfig::fast_ethernet();
    // Small payloads in tests: shrink delays so runs are quick.
    net_cfg.proc_delay = Nanos::from_micros(5);
    net_cfg.proc_jitter = Nanos::from_micros(2);
    let ring_net = sim.add_network(net_cfg.clone());
    let client_net = sim.add_network(net_cfg);
    let history = Rc::new(RefCell::new(History::new()));
    for i in 0..n {
        let id = NodeId::Server(ServerId(i));
        let mut server = SimServer::new(ServerId(i), n, config.clone(), ring_net, client_net);
        if config.durability.is_persistent() {
            server = server.with_disk(DiskConfig::nvme_ssd());
        }
        sim.add_node(id, Box::new(server));
        sim.attach(id, ring_net);
        sim.attach(id, client_net);
    }
    let mut client_stats = Vec::new();
    for c in 0..clients {
        let id = NodeId::Client(ClientId(c));
        let preferred = ServerId((c % u32::from(n)) as u16);
        let (client, stats) = SimClient::new(
            ClientId(c),
            n,
            preferred,
            workload.clone(),
            client_net,
            Some(Rc::clone(&history)),
        );
        sim.add_node(id, Box::new(client));
        sim.attach(id, client_net);
        client_stats.push(stats);
    }
    Cluster {
        sim,
        history,
        client_stats,
    }
}

fn total_completed(cluster: &Cluster) -> (u64, u64) {
    cluster
        .client_stats
        .iter()
        .map(|s| {
            let s = s.borrow();
            (s.writes_done, s.reads_done)
        })
        .fold((0, 0), |(w, r), (dw, dr)| (w + dw, r + dr))
}

fn assert_linearizable(cluster: &Cluster) {
    let history = cluster.history.borrow();
    let violations = check_conditions(&history);
    assert!(
        violations.is_empty(),
        "atomicity violations: {violations:?}\n{history}"
    );
    if history.len() <= 60 {
        let outcome = check_exhaustive_bounded(&history, 5_000_000);
        assert!(
            outcome != Outcome::NotLinearizable("".into())
                && !matches!(outcome, Outcome::NotLinearizable(_)),
            "exhaustive checker rejected: {outcome:?}\n{history}"
        );
    }
}

#[test]
fn mixed_workload_is_linearizable() {
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 60 },
        value_size: 256,
        op_limit: Some(8),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(500),
        window: 1,
    };
    let mut c = cluster(11, 3, 6, workload, Config::default());
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 6 * 8, "every client finished its ops");
    assert_linearizable(&c);
}

#[test]
fn write_heavy_contention_is_linearizable() {
    let workload = WorkloadConfig {
        mix: OpMix::WriteOnly,
        value_size: 128,
        op_limit: Some(10),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(500),
        window: 1,
    };
    let mut c = cluster(13, 4, 8, workload, Config::default());
    c.sim.run_to_quiescence();
    let (w, _) = total_completed(&c);
    assert_eq!(w, 8 * 10);
    assert_linearizable(&c);
    // Ring sanity: servers converge on one stored value.
    // (Indirect check: conditions found no violations, and all clients done.)
}

#[test]
fn read_only_load_never_blocks() {
    let workload = WorkloadConfig {
        mix: OpMix::ReadOnly,
        value_size: 256,
        op_limit: Some(20),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(500),
        window: 1,
    };
    let mut c = cluster(17, 3, 6, workload, Config::default());
    c.sim.run_to_quiescence();
    let (_, r) = total_completed(&c);
    assert_eq!(r, 6 * 20);
    // Reads without writes are all immediate bottom-reads.
    let history = c.history.borrow();
    assert!(history
        .records()
        .iter()
        .all(|rec| rec.op.value().is_bottom()));
}

#[test]
fn server_crash_mid_run_preserves_atomicity_and_liveness() {
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 50 },
        value_size: 128,
        op_limit: Some(12),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(5),
        window: 1,
    };
    let mut c = cluster(19, 3, 6, workload, Config::default());
    // Kill s1 while traffic is in flight.
    c.sim
        .crash_at(NodeId::Server(ServerId(1)), Nanos::from_millis(2));
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 6 * 12, "clients retried through the crash");
    let history = c.history.borrow();
    let violations = check_conditions(&history);
    assert!(violations.is_empty(), "{violations:?}\n{history}");
}

#[test]
fn cascading_crashes_down_to_one_server() {
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 50 },
        value_size: 128,
        op_limit: Some(10),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(5),
        window: 1,
    };
    let mut c = cluster(23, 3, 3, workload, Config::default());
    c.sim
        .crash_at(NodeId::Server(ServerId(0)), Nanos::from_millis(2));
    c.sim
        .crash_at(NodeId::Server(ServerId(2)), Nanos::from_millis(4));
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 3 * 10, "solo survivor still serves everyone");
    let history = c.history.borrow();
    let violations = check_conditions(&history);
    assert!(violations.is_empty(), "{violations:?}\n{history}");
}

#[test]
fn crash_restart_mid_run_preserves_atomicity_and_liveness() {
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 50 },
        value_size: 128,
        op_limit: Some(14),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(5),
        window: 1,
    };
    let config = Config {
        durability: Durability::SyncAlways,
        ..Config::default()
    };
    let mut c = cluster(37, 3, 6, workload, config);
    // s1 dies at 2 ms and reboots from its modeled log at 8 ms: the ring
    // splices it out, then splices it back in via the rejoin circuit.
    c.sim
        .crash_at(NodeId::Server(ServerId(1)), Nanos::from_millis(2));
    c.sim
        .restart_at(NodeId::Server(ServerId(1)), Nanos::from_millis(8));
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 6 * 14, "clients survived crash and restart");
    let history = c.history.borrow();
    let violations = check_conditions(&history);
    assert!(violations.is_empty(), "{violations:?}\n{history}");
}

#[test]
fn repeated_crash_restart_cycles_stay_linearizable() {
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 40 },
        value_size: 128,
        op_limit: Some(16),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(5),
        window: 1,
    };
    let config = Config {
        durability: Durability::SyncAlways,
        ..Config::default()
    };
    let mut c = cluster(41, 3, 6, workload, config);
    // The same server bounces twice; a different one bounces in between.
    c.sim
        .crash_at(NodeId::Server(ServerId(2)), Nanos::from_millis(2));
    c.sim
        .restart_at(NodeId::Server(ServerId(2)), Nanos::from_millis(6));
    c.sim
        .crash_at(NodeId::Server(ServerId(0)), Nanos::from_millis(10));
    c.sim
        .restart_at(NodeId::Server(ServerId(0)), Nanos::from_millis(14));
    c.sim
        .crash_at(NodeId::Server(ServerId(2)), Nanos::from_millis(18));
    c.sim
        .restart_at(NodeId::Server(ServerId(2)), Nanos::from_millis(22));
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 6 * 16, "clients survived every bounce");
    let history = c.history.borrow();
    let violations = check_conditions(&history);
    assert!(violations.is_empty(), "{violations:?}\n{history}");
}

#[test]
fn determinism_same_seed_same_history() {
    let run = |seed| {
        let workload = WorkloadConfig {
            mix: OpMix::Mixed { read_percent: 40 },
            value_size: 64,
            op_limit: Some(6),
            start_delay: Nanos::ZERO,
            timeout: Nanos::from_millis(500),
            window: 1,
        };
        let mut c = cluster(seed, 3, 6, workload, Config::default());
        c.sim.run_to_quiescence();
        let h = c.history.borrow();
        (h.len(), format!("{h}"), c.sim.events_processed())
    };
    assert_eq!(run(42), run(42));
    // Different seeds usually differ (jitter reorders deliveries).
    assert_ne!(run(42).2, run(43).2);
}

#[test]
fn fast_path_reads_remain_linearizable() {
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 70 },
        value_size: 128,
        op_limit: Some(10),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(500),
        window: 1,
    };
    let config = Config {
        read_fast_path: true,
        ..Config::default()
    };
    let mut c = cluster(29, 3, 6, workload, config);
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 6 * 10);
    assert_linearizable(&c);
}

#[test]
fn write_carries_value_remains_linearizable() {
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 30 },
        value_size: 128,
        op_limit: Some(8),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(500),
        window: 1,
    };
    let config = Config {
        write_carries_value: true,
        ..Config::default()
    };
    let mut c = cluster(31, 3, 6, workload, config);
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 6 * 8);
    assert_linearizable(&c);
}

#[test]
fn pipelined_window_stays_linearizable() {
    // Open-loop clients: each keeps 6 operations in flight concurrently
    // over its one channel. Completions land out of order; the merged
    // history must still be atomic and every issued op must finish.
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 50 },
        value_size: 256,
        op_limit: Some(18),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(500),
        window: 6,
    };
    let mut c = cluster(33, 3, 6, workload, Config::default());
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 6 * 18, "every pipelined op completed exactly once");
    assert_linearizable(&c);
}

#[test]
fn pipelined_window_survives_crash_mid_flight() {
    // A server dies while every client's window is full: the stranded
    // requests re-send independently and the run stays atomic.
    let workload = WorkloadConfig {
        mix: OpMix::Mixed { read_percent: 40 },
        value_size: 128,
        op_limit: Some(12),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_millis(200),
        window: 8,
    };
    let mut c = cluster(35, 3, 6, workload, Config::default());
    c.sim
        .crash_at(NodeId::Server(ServerId(1)), Nanos::from_millis(1));
    c.sim.run_to_quiescence();
    let (w, r) = total_completed(&c);
    assert_eq!(w + r, 6 * 12, "no pipelined op lost to the crash");
    assert_linearizable(&c);
}

#[test]
fn pipelined_and_sequential_complete_the_same_ops() {
    // The window is a concurrency knob, not a semantics knob: both runs
    // complete every op and both histories are linearizable (schedules
    // differ — pipelining genuinely overlaps operations).
    for window in [1usize, 8] {
        let workload = WorkloadConfig {
            mix: OpMix::WriteOnly,
            value_size: 64,
            op_limit: Some(16),
            start_delay: Nanos::ZERO,
            timeout: Nanos::from_millis(500),
            window,
        };
        let mut c = cluster(37, 3, 6, workload, Config::default());
        c.sim.run_to_quiescence();
        let (w, _) = total_completed(&c);
        assert_eq!(w, 6 * 16, "window {window}");
        assert_linearizable(&c);
    }
}

/// Mean write latency of one closed-loop writer of 1 KiB values on an
/// `n`-server ring (servers on an NVMe-class modeled disk when durable).
fn lone_writer_mean_latency(n: u16, durability: Durability) -> Nanos {
    let workload = WorkloadConfig {
        mix: OpMix::WriteOnly,
        value_size: 1024,
        op_limit: Some(50),
        ..WorkloadConfig::default()
    };
    let config = Config {
        durability,
        ..Config::default()
    };
    let mut c = cluster(61, n, 1, workload, config);
    c.sim.run_to_quiescence();
    let stats = c.client_stats[0].borrow();
    assert_eq!(stats.writes_done, 50, "n = {n}, {durability:?}");
    stats.mean_write_latency().expect("writes completed")
}

#[test]
fn sync_always_writes_pay_one_fsync_per_hop() {
    // A server forwards a commit only once it is durable, so a write's
    // commit phase pays each server's fsync in series: at least n − 1 of
    // them over a volatile write, growing with the ring.
    let fsync = DiskConfig::nvme_ssd().fsync_latency;
    for n in [3u16, 5] {
        let volatile = lone_writer_mean_latency(n, Durability::Volatile);
        let durable = lone_writer_mean_latency(n, Durability::SyncAlways);
        let chain = durable.saturating_sub(volatile);
        assert!(
            chain.as_nanos() >= u64::from(n - 1) * fsync.as_nanos(),
            "n = {n}: SyncAlways costs {chain} over volatile ({volatile}), \
             less than {} fsyncs of {fsync}",
            n - 1
        );
    }
}

/// A laned, durable ring: server 0 crashes, a write lands while it is
/// down, it restarts, and then both other servers crash. Server 0 must
/// resync every lane's ring on rejoin, or it alone cannot serve every
/// acknowledged write. (A lost lane log is masked here: the resync alone
/// restores it.)
/// One register's history and, per phase, its client and counters.
type Register = (
    Rc<RefCell<History>>,
    Vec<(ClientId, Rc<RefCell<ClientStats>>)>,
);

/// A durable `n`-server ring of `lanes` lanes (`SyncAlways`, one
/// modeled NVMe disk per lane) with one register on each lane. Every
/// register gets one client per `phases` entry, pinned to that entry's
/// server and recording into the register's own history.
fn laned_registers(
    seed: u64,
    n: u16,
    lanes: u16,
    phases: &[(ServerId, WorkloadConfig)],
) -> (PacketSim<Message>, Vec<Register>) {
    let config = Config {
        lanes,
        durability: Durability::SyncAlways,
        ..Config::default()
    };
    let mut sim = PacketSim::new(seed);
    let ring_nets: Vec<_> = (0..lanes)
        .map(|_| sim.add_network(NetworkConfig::fast_ethernet()))
        .collect();
    let client_net = sim.add_network(NetworkConfig::fast_ethernet());
    for i in 0..n {
        let id = NodeId::Server(ServerId(i));
        let server = SimServer::with_ring_lanes(
            ServerId(i),
            n,
            config.clone(),
            ring_nets.clone(),
            client_net,
        );
        sim.add_node(id, Box::new(server.with_disk(DiskConfig::nvme_ssd())));
        for net in ring_nets.iter().chain([&client_net]) {
            sim.attach(id, *net);
        }
    }
    let map = LaneMap::new(lanes);
    let mut registers = Vec::new();
    for lane in 0..lanes {
        let object = (1..)
            .map(ObjectId)
            .find(|o| map.lane_of(*o) == lane)
            .expect("every lane hosts some object");
        let history = Rc::new(RefCell::new(History::new()));
        let mut stats = Vec::new();
        for (preferred, workload) in phases {
            let client = ClientId(u32::from(lane) * phases.len() as u32 + stats.len() as u32);
            let (proc, s) = SimClient::new_for_object(
                client,
                object,
                n,
                *preferred,
                workload.clone(),
                client_net,
                Some(Rc::clone(&history)),
            );
            sim.add_node(NodeId::Client(client), Box::new(proc));
            sim.attach(NodeId::Client(client), client_net);
            stats.push((client, s));
        }
        registers.push((history, stats));
    }
    (sim, registers)
}

/// A closed-loop workload of `op_limit` 64 B operations from `start_ms`.
fn phase(mix: OpMix, op_limit: u64, start_ms: u64) -> WorkloadConfig {
    WorkloadConfig {
        mix,
        value_size: 64,
        op_limit: Some(op_limit),
        start_delay: Nanos::from_millis(start_ms),
        timeout: Nanos::from_millis(5),
        window: 1,
    }
}

/// Asserts that every phase of `register` finished its operations, that
/// the last read returned `expect`, and that the history is atomic.
fn assert_register(register: &Register, done: &[u64], expect: &Value) {
    let (history, stats) = register;
    let history = history.borrow();
    let finished: Vec<u64> = stats
        .iter()
        .map(|(_, s)| s.borrow().writes_done + s.borrow().reads_done)
        .collect();
    assert_eq!(finished, done, "every phase finished\n{history}");
    let read = history
        .records()
        .iter()
        .rfind(|r| r.op.is_read())
        .expect("the read was recorded");
    assert_eq!(read.op.value(), expect, "\n{history}");
    assert!(check_conditions(&history).is_empty(), "{history}");
    assert_eq!(
        check_exhaustive_bounded(&history, 5_000_000),
        Outcome::Linearizable
    );
}

/// Whether every operation of `register`'s phase `i` returned before
/// `ms`.
fn phase_returned_before(register: &Register, i: usize, ms: u64) -> bool {
    let (history, stats) = register;
    history
        .borrow()
        .records()
        .iter()
        .filter(|r| r.client == stats[i].0)
        .all(|r| r.returned_at < Some(Nanos::from_millis(ms).as_nanos()))
}

#[test]
fn laned_server_survives_crash_restart_with_per_lane_logs() {
    // One register on each lane, each with its own history. Per object:
    // a writer before the crash (through server 0), a writer while server
    // 0 is down (through server 1), and a reader once it is the last
    // server standing.
    let phases = [
        (ServerId(0), phase(OpMix::WriteOnly, 4, 0)),
        (ServerId(1), phase(OpMix::WriteOnly, 2, 25)),
        (ServerId(0), phase(OpMix::ReadOnly, 1, 100)),
    ];
    let (mut sim, registers) = laned_registers(29, 3, 2, &phases);
    sim.crash_at(NodeId::Server(ServerId(0)), Nanos::from_millis(20));
    sim.restart_at(NodeId::Server(ServerId(0)), Nanos::from_millis(50));
    sim.crash_at(NodeId::Server(ServerId(1)), Nanos::from_millis(80));
    sim.crash_at(NodeId::Server(ServerId(2)), Nanos::from_millis(85));
    sim.run_to_quiescence();
    assert!(!sim.is_crashed(NodeId::Server(ServerId(0))));

    for register in &registers {
        // Each phase ran alone: the last acknowledged write is the
        // downtime writer's second, and server 0 alone returns it.
        let downtime_writer = register.1[1].0;
        assert_register(register, &[4, 2, 1], &unique_value(downtime_writer, 2, 64));
        assert!(phase_returned_before(register, 0, 20));
        assert!(phase_returned_before(register, 1, 50));
    }
}

#[test]
fn cold_restart_of_a_laned_ring_recovers_every_lane_from_its_log() {
    // Every server crashes and restarts: no live predecessor holds the
    // state, so each lane can only serve what its own log recovered.
    let phases = [
        (ServerId(0), phase(OpMix::WriteOnly, 4, 0)),
        (ServerId(2), phase(OpMix::ReadOnly, 1, 60)),
    ];
    let (mut sim, registers) = laned_registers(31, 3, 2, &phases);
    for s in 0..3 {
        sim.crash_at(NodeId::Server(ServerId(s)), Nanos::from_millis(20));
        sim.restart_at(NodeId::Server(ServerId(s)), Nanos::from_millis(30));
    }
    sim.run_to_quiescence();

    for register in &registers {
        let writer = register.1[0].0;
        assert_register(register, &[4, 1], &unique_value(writer, 4, 64));
        assert!(phase_returned_before(register, 0, 20));
    }
}
