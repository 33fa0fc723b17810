//! Ablations of the paper's design choices (the *paper ablation* fields
//! of `hts_core::Config`):
//!
//! * **A1 — tag-only commits (piggyback)**: carrying the value again in
//!   the `write` ring message makes every payload cross every link twice,
//!   halving write throughput (this is why the optimization is load-bearing
//!   for the paper's 81 Mbit/s claim).
//! * **A2 — read fast path**: letting reads return when the stored tag
//!   already dominates all pending pre-writes cuts blocked-read latency
//!   under write contention (the paper always waits).
//! * **A3 — fairness rule**: replacing the `nb_msg` rule with local-first
//!   or forward-first priorities starves ring traffic or local clients.

use hts_bench::{run_ring, Params};
use hts_core::{Config, FairnessMode};
use hts_sim::Nanos;

fn base(n: u16) -> Params {
    Params {
        n,
        readers_per_server: 0,
        writers_per_server: 4,
        value_size: 64 * 1024,
        warmup: Nanos::from_millis(500),
        measure: Nanos::from_secs(2),
        ..Params::default()
    }
}

fn main() {
    println!("# Ablations (n = 4, 64 KiB values)");
    println!();

    println!("## A1 — write messages: tag-only vs value-carrying");
    println!();
    println!("| variant | write Mbit/s |");
    println!("|---|---|");
    let m = run_ring(&base(4));
    println!("| tag-only commits (paper) | {:.1} |", m.write_mbps);
    let m = run_ring(&Params {
        config: Config {
            write_carries_value: true,
            ..Config::default()
        },
        ..base(4)
    });
    println!("| value-carrying commits   | {:.1} |", m.write_mbps);
    println!();
    println!("expected: the value-carrying variant roughly halves write throughput.");
    println!();

    println!("## A2 — read fast path under write contention (2R+2W per server)");
    println!();
    println!("| variant | read Mbit/s | mean read latency (ms) |");
    println!("|---|---|---|");
    for (label, fast) in [("block on pending (paper)", false), ("fast path", true)] {
        let m = run_ring(&Params {
            readers_per_server: 2,
            writers_per_server: 2,
            config: Config {
                read_fast_path: fast,
                ..Config::default()
            },
            ..base(4)
        });
        println!(
            "| {label} | {:.1} | {:.2} |",
            m.read_mbps, m.read_latency_ms
        );
    }
    println!();
    println!("expected: nearly identical — under write saturation a pending pre-write");
    println!("almost always outranks the stored tag, so the fast path rarely fires;");
    println!("this is evidence the paper's always-block rule costs little.");
    println!();

    println!("## A3 — fairness rule (write-only saturation)");
    println!();
    println!("| scheduling | write Mbit/s | writes completed | mean write latency (ms) |");
    println!("|---|---|---|---|");
    for (label, mode) in [
        ("nb_msg fairness (paper)", FairnessMode::Fair),
        ("local-first", FairnessMode::LocalFirst),
        ("forward-first", FairnessMode::ForwardFirst),
    ] {
        let m = run_ring(&Params {
            config: Config {
                fairness: mode,
                ..Config::default()
            },
            ..base(4)
        });
        println!(
            "| {label} | {:.1} | {} | {:.1} |",
            m.write_mbps, m.writes, m.write_latency_ms
        );
    }
    println!();
    println!("expected: the nb_msg rule completes the most writes at the lowest");
    println!("latency; forward-first visibly starves local initiations. (True");
    println!("local-first starvation needs unbounded client arrival; closed-loop");
    println!("writers bound the damage.)");
}
