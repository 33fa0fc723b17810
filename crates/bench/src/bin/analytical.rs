//! Validates the paper's **§4 analytical claims** by running the very same
//! server (`LaneCore` over `MultiObjectServer`) on the synchronous round
//! model of §2:
//!
//! * read latency = 2 rounds;
//! * write latency = 2N + 2 rounds;
//! * saturated write throughput = 1 op/round (any `n`);
//! * saturated read throughput = `n` ops/round.

use std::cell::RefCell;
use std::rc::Rc;

use hts_core::Config;
use hts_sim::round::RoundSim;
use hts_sim::{RoundClient, RoundClientStats, RoundServer};
use hts_types::{ClientId, Message, NodeId, ServerId};

struct Run {
    stats: Vec<Rc<RefCell<RoundClientStats>>>,
    sim: RoundSim<Message>,
}

/// One lone client against an otherwise idle ring (isolated latency).
fn build_single(n: u16, reads: bool, op_limit: Option<u64>) -> Run {
    let mut run = build(n, 0, 0, op_limit);
    let id = ClientId(10_000);
    let client_net = hts_sim::NetworkId(1);
    let (client, s) = RoundClient::new(id, n, ServerId(0), reads, op_limit, client_net);
    run.sim.add_node(NodeId::Client(id), Box::new(client));
    run.sim.attach(NodeId::Client(id), client_net);
    run.stats.push(s);
    run
}

fn build(n: u16, readers_per_server: u32, writers_per_server: u32, op_limit: Option<u64>) -> Run {
    let mut sim: RoundSim<Message> = RoundSim::new();
    let ring_net = sim.add_network();
    let client_net = sim.add_network();
    for i in 0..n {
        let id = NodeId::Server(ServerId(i));
        sim.add_node(
            id,
            Box::new(RoundServer::new(
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
    let mut stats = Vec::new();
    let mut next = 0u32;
    for i in 0..n {
        for k in 0..(readers_per_server + writers_per_server) {
            let id = ClientId(next);
            next += 1;
            let reads = k < readers_per_server;
            let (client, s) = RoundClient::new(id, n, ServerId(i), reads, op_limit, client_net);
            sim.add_node(NodeId::Client(id), Box::new(client));
            sim.attach(NodeId::Client(id), client_net);
            stats.push(s);
        }
    }
    Run { stats, sim }
}

fn completed(run: &Run) -> u64 {
    run.stats.iter().map(|s| s.borrow().completed).sum()
}

fn mean_latency(run: &Run) -> f64 {
    let (sum, count) = run.stats.iter().fold((0u64, 0u64), |(s, c), stat| {
        let stat = stat.borrow();
        (s + stat.latency_rounds_total, c + stat.completed)
    });
    if count == 0 {
        f64::NAN
    } else {
        sum as f64 / count as f64
    }
}

fn main() {
    println!("# §4 analytical model — measured on the round simulator");
    println!();
    println!("| n | read latency (rounds) | write latency (rounds) | paper write = 2N+2 | write tput (ops/round) | read tput (ops/round) |");
    println!("|---|---|---|---|---|---|");
    for n in 2..=8u16 {
        // Isolated latencies: one lone client, one op.
        let mut r = build_single(n, true, Some(1));
        r.sim.run_rounds(16 + 4 * u64::from(n));
        let read_lat = mean_latency(&r);

        let mut w = build_single(n, false, Some(1));
        w.sim.run_rounds(16 + 4 * u64::from(n));
        let write_lat = mean_latency(&w);

        // Saturated throughput, measured over a window after warm-up.
        let rounds = 600u64;
        let warm = 120u64;
        let mut wt = build(n, 0, 4, None);
        wt.sim.run_rounds(warm);
        let w0 = completed(&wt);
        wt.sim.run_rounds(rounds);
        let write_tput = (completed(&wt) - w0) as f64 / rounds as f64;

        let mut rt = build(n, 2, 0, None);
        rt.sim.run_rounds(warm);
        let r0 = completed(&rt);
        rt.sim.run_rounds(rounds);
        let read_tput = (completed(&rt) - r0) as f64 / rounds as f64;

        println!(
            "| {n} | {read_lat:.0} | {write_lat:.0} | {} | {write_tput:.2} | {read_tput:.2} |",
            2 * n + 2
        );
    }
    println!();
    println!("paper: read latency 2; write latency 2N+2; write throughput 1; read throughput n.");
}
