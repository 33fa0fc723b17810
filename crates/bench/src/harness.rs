//! Cluster builders and measurement windows.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use hts_baselines::abd::{AbdClient, AbdServer};
use hts_baselines::chain::{ChainClient, ChainServer};
use hts_baselines::tob::{TobClient, TobServer};
use hts_core::Config;
use hts_sim::packet::{NetworkConfig, PacketSim};
use hts_sim::{ClientStats, DiskConfig, Nanos, OpMix, SimClient, SimServer, Wire, WorkloadConfig};
use hts_types::{ClientId, NodeId, ObjectId, ServerId};

/// Which protocol a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's ring algorithm.
    Ring,
    /// Majority-quorum ABD.
    Abd,
    /// Chain replication.
    Chain,
    /// Total-order-broadcast register.
    Tob,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Protocol::Ring => "ring",
            Protocol::Abd => "abd",
            Protocol::Chain => "chain",
            Protocol::Tob => "tob",
        })
    }
}

/// One throughput experiment's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Ring size.
    pub n: u16,
    /// Closed-loop read-only clients per server.
    pub readers_per_server: u32,
    /// Closed-loop write-only clients per server.
    pub writers_per_server: u32,
    /// Payload bytes per value (the paper's requests; 64 KiB default).
    pub value_size: usize,
    /// Single network for clients and servers (Figure 3's bottom chart)
    /// instead of the dual-network cluster.
    pub shared_network: bool,
    /// Virtual warm-up excluded from measurement.
    pub warmup: Nanos,
    /// Virtual measurement window.
    pub measure: Nanos,
    /// Determinism seed.
    pub seed: u64,
    /// Give every client its own register object (`ObjectId(client)`)
    /// instead of the shared single register — the multi-object workload
    /// that spreads load across parallel ring lanes
    /// ([`Config::lanes`](hts_core::Config)). Ring only.
    pub distinct_objects: bool,
    /// Pipeline window per workload client (default 1 = the paper's
    /// closed-loop clients). Larger windows multiplex that many
    /// concurrent operations over each client's channel — open-loop load
    /// without adding clients (threads, in a real deployment). Ring only;
    /// the preloader always runs at window 1.
    pub client_window: usize,
    /// Protocol options (ring only). `config.lanes > 1` gives every
    /// server that many independent ring NICs (the simulated analogue of
    /// the TCP runtime's per-lane connections); requires a dual-network
    /// cluster (`shared_network: false`).
    pub config: Config,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 4,
            readers_per_server: 2,
            writers_per_server: 0,
            value_size: 64 * 1024,
            shared_network: false,
            warmup: Nanos::from_millis(400),
            measure: Nanos::from_secs(2),
            seed: 7,
            distinct_objects: false,
            client_window: 1,
            config: Config::default(),
        }
    }
}

/// The outcome of one windowed run.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Ring size.
    pub n: u16,
    /// Aggregate read payload throughput (Mbit/s).
    pub read_mbps: f64,
    /// Aggregate write payload throughput (Mbit/s).
    pub write_mbps: f64,
    /// Mean read latency (ms) within the window.
    pub read_latency_ms: f64,
    /// Mean write latency (ms) within the window.
    pub write_latency_ms: f64,
    /// Reads completed in the window.
    pub reads: u64,
    /// Writes completed in the window.
    pub writes: u64,
}

/// Snapshot of cumulative counters for window deltas.
#[derive(Clone, Default)]
struct Snap {
    writes_done: u64,
    reads_done: u64,
    write_bytes: u64,
    read_bytes: u64,
    write_lat_len: usize,
    read_lat_len: usize,
}

fn snap(stats: &[Rc<RefCell<ClientStats>>]) -> Vec<Snap> {
    stats
        .iter()
        .map(|s| {
            let s = s.borrow();
            Snap {
                writes_done: s.writes_done,
                reads_done: s.reads_done,
                write_bytes: s.write_payload_bytes,
                read_bytes: s.read_payload_bytes,
                write_lat_len: s.write_latencies.len(),
                read_lat_len: s.read_latencies.len(),
            }
        })
        .collect()
}

fn window_measurement(
    n: u16,
    stats: &[Rc<RefCell<ClientStats>>],
    start: &[Snap],
    window: Nanos,
) -> Measurement {
    let secs = window.as_secs_f64();
    let mut m = Measurement {
        n,
        ..Measurement::default()
    };
    let mut read_lat_sum = 0u128;
    let mut read_lat_n = 0u64;
    let mut write_lat_sum = 0u128;
    let mut write_lat_n = 0u64;
    for (s, s0) in stats.iter().zip(start) {
        let s = s.borrow();
        m.reads += s.reads_done - s0.reads_done;
        m.writes += s.writes_done - s0.writes_done;
        m.read_mbps += (s.read_payload_bytes - s0.read_bytes) as f64 * 8.0 / secs / 1e6;
        m.write_mbps += (s.write_payload_bytes - s0.write_bytes) as f64 * 8.0 / secs / 1e6;
        for &l in &s.read_latencies[s0.read_lat_len..] {
            read_lat_sum += u128::from(l);
            read_lat_n += 1;
        }
        for &l in &s.write_latencies[s0.write_lat_len..] {
            write_lat_sum += u128::from(l);
            write_lat_n += 1;
        }
    }
    if read_lat_n > 0 {
        m.read_latency_ms = read_lat_sum as f64 / read_lat_n as f64 / 1e6;
    }
    if write_lat_n > 0 {
        m.write_latency_ms = write_lat_sum as f64 / write_lat_n as f64 / 1e6;
    }
    m
}

fn run_window<M: Wire + fmt::Debug>(
    sim: &mut PacketSim<M>,
    stats: &[Rc<RefCell<ClientStats>>],
    n: u16,
    warmup: Nanos,
    measure: Nanos,
) -> Measurement {
    sim.run_until(warmup);
    let start = snap(stats);
    sim.run_until(warmup + measure);
    window_measurement(n, stats, &start, measure)
}

fn reader_workload(p: &Params) -> WorkloadConfig {
    WorkloadConfig {
        mix: OpMix::ReadOnly,
        value_size: p.value_size,
        op_limit: None,
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_secs(30),
        window: p.client_window.max(1),
    }
}

fn writer_workload(p: &Params) -> WorkloadConfig {
    WorkloadConfig {
        mix: OpMix::WriteOnly,
        value_size: p.value_size,
        op_limit: None,
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_secs(30),
        window: p.client_window.max(1),
    }
}

/// One value must exist before read-only load (the paper's read
/// experiments measure full-size replies): a single preloading writer.
fn preload_workload(p: &Params) -> WorkloadConfig {
    WorkloadConfig {
        mix: OpMix::WriteOnly,
        value_size: p.value_size,
        op_limit: Some(1),
        start_delay: Nanos::ZERO,
        timeout: Nanos::from_secs(30),
        window: 1,
    }
}

/// Client id reserved for the preloader (workload clients count up from 0).
const PRELOADER: ClientId = ClientId(u32::MAX);

/// Runs the paper's algorithm under `params` and returns the windowed
/// measurement. This is the engine behind Figure 3 (all four charts).
/// A persistent [`Config::durability`](hts_core::Config) attaches an
/// NVMe-class modeled disk to every server (durability ablations).
pub fn run_ring(params: &Params) -> Measurement {
    let (mut sim, stats) = build_ring(params);
    run_window(&mut sim, &stats, params.n, params.warmup, params.measure)
}

/// [`run_ring`] plus the raw per-operation latencies of the measurement
/// window, for percentile reporting.
pub fn run_ring_detailed(params: &Params) -> (Measurement, Vec<u64>, Vec<u64>) {
    let (mut sim, stats) = build_ring(params);
    sim.run_until(params.warmup);
    let start = snap(&stats);
    sim.run_until(params.warmup + params.measure);
    let measurement = window_measurement(params.n, &stats, &start, params.measure);
    let mut read_latencies = Vec::new();
    let mut write_latencies = Vec::new();
    for (s, s0) in stats.iter().zip(&start) {
        let s = s.borrow();
        read_latencies.extend_from_slice(&s.read_latencies[s0.read_lat_len..]);
        write_latencies.extend_from_slice(&s.write_latencies[s0.write_lat_len..]);
    }
    (measurement, read_latencies, write_latencies)
}

fn build_ring(params: &Params) -> (PacketSim<hts_types::Message>, Vec<Rc<RefCell<ClientStats>>>) {
    let mut sim = PacketSim::new(params.seed);
    let lanes = params.config.lanes.max(1);
    assert!(
        lanes == 1 || !params.shared_network,
        "the shared-network experiment supports a single lane only"
    );
    let ring_nets: Vec<_> = (0..lanes)
        .map(|_| sim.add_network(NetworkConfig::fast_ethernet()))
        .collect();
    let client_net = if params.shared_network {
        ring_nets[0]
    } else {
        sim.add_network(NetworkConfig::fast_ethernet())
    };
    for i in 0..params.n {
        let id = NodeId::Server(ServerId(i));
        let mut server = SimServer::with_ring_lanes(
            ServerId(i),
            params.n,
            params.config.clone(),
            ring_nets.clone(),
            client_net,
        );
        if params.config.durability.is_persistent() {
            server = server.with_disk(DiskConfig::nvme_ssd());
        }
        sim.add_node(id, Box::new(server));
        for ring_net in &ring_nets {
            sim.attach(id, *ring_net);
        }
        if !params.shared_network {
            sim.attach(id, client_net);
        }
    }
    // Each client's target object: the shared single register, or — for
    // the multi-object lane workloads — its own.
    let object_of = |client: ClientId| {
        if params.distinct_objects {
            ObjectId(client.0)
        } else {
            ObjectId::SINGLE
        }
    };
    let mut stats = Vec::new();
    let (pre, _pre_stats) = SimClient::new(
        PRELOADER,
        params.n,
        ServerId(0),
        preload_workload(params),
        client_net,
        None,
    );
    sim.add_node(NodeId::Client(PRELOADER), Box::new(pre));
    sim.attach(NodeId::Client(PRELOADER), client_net);
    let mut next_client = 0u32;
    for i in 0..params.n {
        for _ in 0..params.readers_per_server {
            let id = ClientId(next_client);
            next_client += 1;
            let (c, s) = SimClient::new_for_object(
                id,
                object_of(id),
                params.n,
                ServerId(i),
                reader_workload(params),
                client_net,
                None,
            );
            sim.add_node(NodeId::Client(id), Box::new(c));
            sim.attach(NodeId::Client(id), client_net);
            stats.push(s);
        }
        for _ in 0..params.writers_per_server {
            let id = ClientId(next_client);
            next_client += 1;
            let (c, s) = SimClient::new_for_object(
                id,
                object_of(id),
                params.n,
                ServerId(i),
                writer_workload(params),
                client_net,
                None,
            );
            sim.add_node(NodeId::Client(id), Box::new(c));
            sim.attach(NodeId::Client(id), client_net);
            stats.push(s);
        }
    }
    (sim, stats)
}

/// Isolated (unloaded) mean latencies for Figure 4: one reader and one
/// writer client taking turns being the only load.
pub fn latency_ring(n: u16, value_size: usize, seed: u64) -> (f64, f64) {
    let one = |writers: u32, readers: u32| -> Measurement {
        let params = Params {
            n,
            readers_per_server: 0,
            writers_per_server: 0,
            value_size,
            warmup: Nanos::from_millis(100),
            measure: Nanos::from_secs(2),
            seed,
            ..Params::default()
        };
        let mut sim = PacketSim::new(params.seed);
        let ring_net = sim.add_network(NetworkConfig::fast_ethernet());
        let client_net = sim.add_network(NetworkConfig::fast_ethernet());
        for i in 0..n {
            let id = NodeId::Server(ServerId(i));
            sim.add_node(
                id,
                Box::new(SimServer::new(
                    ServerId(i),
                    n,
                    params.config.clone(),
                    ring_net,
                    client_net,
                )),
            );
            sim.attach(id, ring_net);
            sim.attach(id, client_net);
        }
        let (pre, _pre_stats) = SimClient::new(
            PRELOADER,
            n,
            ServerId(0),
            preload_workload(&params),
            client_net,
            None,
        );
        sim.add_node(NodeId::Client(PRELOADER), Box::new(pre));
        sim.attach(NodeId::Client(PRELOADER), client_net);
        let mut stats = Vec::new();
        for c in 0..(readers + writers) {
            let id = ClientId(c);
            let workload = if c < readers {
                reader_workload(&params)
            } else {
                writer_workload(&params)
            };
            let (client, s) = SimClient::new(id, n, ServerId(0), workload, client_net, None);
            sim.add_node(NodeId::Client(id), Box::new(client));
            sim.attach(NodeId::Client(id), client_net);
            stats.push(s);
        }
        run_window(&mut sim, &stats, n, params.warmup, params.measure)
    };
    let reads = one(0, 1);
    let writes = one(1, 0);
    (reads.read_latency_ms, writes.write_latency_ms)
}

/// Runs the ABD baseline under `params` (single network: ABD has no
/// server-to-server traffic).
pub fn run_abd(params: &Params) -> Measurement {
    let mut sim = PacketSim::new(params.seed);
    let net = sim.add_network(NetworkConfig::fast_ethernet());
    for i in 0..params.n {
        let id = NodeId::Server(ServerId(i));
        sim.add_node(id, Box::new(AbdServer::new(net)));
        sim.attach(id, net);
    }
    let mut stats = Vec::new();
    let (pre, _pre_stats) =
        AbdClient::new(PRELOADER, params.n, preload_workload(params), net, None);
    sim.add_node(NodeId::Client(PRELOADER), Box::new(pre));
    sim.attach(NodeId::Client(PRELOADER), net);
    let total_clients =
        u32::from(params.n) * (params.readers_per_server + params.writers_per_server);
    for c in 0..total_clients {
        let readers = u32::from(params.n) * params.readers_per_server;
        let workload = if c < readers {
            reader_workload(params)
        } else {
            writer_workload(params)
        };
        let id = ClientId(c);
        let (client, s) = AbdClient::new(id, params.n, workload, net, None);
        sim.add_node(NodeId::Client(id), Box::new(client));
        sim.attach(NodeId::Client(id), net);
        stats.push(s);
    }
    run_window(&mut sim, &stats, params.n, params.warmup, params.measure)
}

/// Runs the chain-replication baseline under `params`.
pub fn run_chain(params: &Params) -> Measurement {
    let mut sim = PacketSim::new(params.seed);
    let server_net = sim.add_network(NetworkConfig::fast_ethernet());
    let client_net = if params.shared_network {
        server_net
    } else {
        sim.add_network(NetworkConfig::fast_ethernet())
    };
    for i in 0..params.n {
        let id = NodeId::Server(ServerId(i));
        sim.add_node(
            id,
            Box::new(ChainServer::new(
                ServerId(i),
                params.n,
                server_net,
                client_net,
            )),
        );
        sim.attach(id, server_net);
        if !params.shared_network {
            sim.attach(id, client_net);
        }
    }
    let mut stats = Vec::new();
    let (pre, _pre_stats) = ChainClient::new(
        PRELOADER,
        params.n,
        preload_workload(params),
        client_net,
        None,
    );
    sim.add_node(NodeId::Client(PRELOADER), Box::new(pre));
    sim.attach(NodeId::Client(PRELOADER), client_net);
    let readers = u32::from(params.n) * params.readers_per_server;
    let writers = u32::from(params.n) * params.writers_per_server;
    for c in 0..(readers + writers) {
        let workload = if c < readers {
            reader_workload(params)
        } else {
            writer_workload(params)
        };
        let id = ClientId(c);
        let (client, s) = ChainClient::new(id, params.n, workload, client_net, None);
        sim.add_node(NodeId::Client(id), Box::new(client));
        sim.attach(NodeId::Client(id), client_net);
        stats.push(s);
    }
    run_window(&mut sim, &stats, params.n, params.warmup, params.measure)
}

/// Runs the total-order-broadcast baseline under `params`.
pub fn run_tob(params: &Params) -> Measurement {
    let mut sim = PacketSim::new(params.seed);
    let ring_net = sim.add_network(NetworkConfig::fast_ethernet());
    let client_net = if params.shared_network {
        ring_net
    } else {
        sim.add_network(NetworkConfig::fast_ethernet())
    };
    for i in 0..params.n {
        let id = NodeId::Server(ServerId(i));
        sim.add_node(
            id,
            Box::new(TobServer::new(ServerId(i), params.n, ring_net, client_net)),
        );
        sim.attach(id, ring_net);
        if !params.shared_network {
            sim.attach(id, client_net);
        }
    }
    let mut stats = Vec::new();
    let (pre, _pre_stats) = TobClient::new(
        PRELOADER,
        ServerId(0),
        preload_workload(params),
        client_net,
        None,
    );
    sim.add_node(NodeId::Client(PRELOADER), Box::new(pre));
    sim.attach(NodeId::Client(PRELOADER), client_net);
    let mut next = 0u32;
    for i in 0..params.n {
        for k in 0..(params.readers_per_server + params.writers_per_server) {
            let workload = if k < params.readers_per_server {
                reader_workload(params)
            } else {
                writer_workload(params)
            };
            let id = ClientId(next);
            next += 1;
            let (client, s) = TobClient::new(id, ServerId(i), workload, client_net, None);
            sim.add_node(NodeId::Client(id), Box::new(client));
            sim.attach(NodeId::Client(id), client_net);
            stats.push(s);
        }
    }
    run_window(&mut sim, &stats, params.n, params.warmup, params.measure)
}

/// Renders a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(n: u16, readers: u32, writers: u32) -> Params {
        Params {
            n,
            readers_per_server: readers,
            writers_per_server: writers,
            value_size: 16 * 1024,
            warmup: Nanos::from_millis(100),
            measure: Nanos::from_millis(400),
            ..Params::default()
        }
    }

    #[test]
    fn ring_read_throughput_scales_linearly() {
        let m3 = run_ring(&quick(3, 2, 0));
        let m6 = run_ring(&quick(6, 2, 0));
        assert!(m3.read_mbps > 200.0, "3 servers: {:.0}", m3.read_mbps);
        let ratio = m6.read_mbps / m3.read_mbps;
        assert!(
            (1.7..=2.3).contains(&ratio),
            "doubling servers should double reads: {ratio:.2}"
        );
    }

    #[test]
    fn ring_write_throughput_is_flat() {
        let m3 = run_ring(&quick(3, 0, 3));
        let m6 = run_ring(&quick(6, 0, 3));
        let ratio = m6.write_mbps / m3.write_mbps;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "write throughput should not scale: {:.1} vs {:.1}",
            m3.write_mbps,
            m6.write_mbps
        );
    }

    #[test]
    fn abd_read_throughput_does_not_scale() {
        let m3 = run_abd(&quick(3, 2, 0));
        let m6 = run_abd(&quick(6, 2, 0));
        let ratio = m6.read_mbps / m3.read_mbps;
        assert!(
            ratio < 1.5,
            "quorum reads must not scale linearly: {ratio:.2}"
        );
    }

    #[test]
    fn chain_reads_are_tail_bound() {
        let m3 = run_chain(&quick(3, 2, 0));
        let m6 = run_chain(&quick(6, 2, 0));
        let ratio = m6.read_mbps / m3.read_mbps;
        assert!(ratio < 1.3, "tail-bound reads: {ratio:.2}");
    }

    #[test]
    fn latency_shapes_match_figure_4() {
        let (r3, w3) = latency_ring(3, 16 * 1024, 5);
        let (r6, w6) = latency_ring(6, 16 * 1024, 5);
        // Reads flat, writes linear in n.
        assert!((r6 / r3) < 1.3, "read latency grows: {r3:.2} -> {r6:.2}");
        assert!(
            (1.5..=2.6).contains(&(w6 / w3)),
            "write latency should ≈ double: {w3:.2} -> {w6:.2}"
        );
    }
}
