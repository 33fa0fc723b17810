//! Time-boxed seeded random exploration of the in-tree models — the CI
//! `modelcheck` job's second leg (the first is the exhaustive test
//! suite). Runs every model under fresh seeds until the time budget
//! expires, logging each round's base seed so a CI failure is
//! reproducible from the log alone:
//!
//! ```text
//! HTS_MC_SOAK_SECS=60 HTS_MC_SEED=0x5eed cargo run -p hts-mc --example soak
//! ```
//!
//! On failure, prints the full report (message, effective seed, schedule,
//! per-op trace) and exits non-zero; paste the printed seed into
//! `Mode::ReplaySeed` to replay it locally.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hts_mc::{explore, spawn, Mode, Options};
use hts_metrics::flight::{FlightRing, KIND_OP_BEGIN};

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("{name}={v:?} is not a number"))
        }
        Err(_) => default,
    }
}

fn flight_ring_model() {
    let ring: Arc<FlightRing<2>> = Arc::new(FlightRing::new());
    let hs: Vec<_> = (1..=2u64)
        .map(|i| {
            let ring = Arc::clone(&ring);
            spawn(move || {
                ring.record(KIND_OP_BEGIN, i, i, 0);
                ring.record(KIND_OP_BEGIN, i + 10, i + 10, 0);
            })
        })
        .collect();
    for e in ring.snapshot() {
        assert_eq!(e.a, e.b, "torn flight slot escaped validation: {e:?}");
    }
    for h in hs {
        h.join();
    }
}

const MODELS: &[(&str, fn())] = &[("flight-ring-soak", flight_ring_model)];

fn main() {
    let secs = env_u64("HTS_MC_SOAK_SECS", 60);
    let base = env_u64("HTS_MC_SEED", 0x5EED);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut round = 0u64;
    let mut executions = 0usize;
    println!(
        "soak: {secs}s budget, base seed {base:#x}, {} models",
        MODELS.len()
    );
    while Instant::now() < deadline {
        // One derived base per (round, model); each explore() call then
        // derives per-iteration seeds from it. Logged so any failure in
        // CI is replayable from the log.
        for (i, (name, model)) in MODELS.iter().enumerate() {
            let seed = base ^ (round << 8) ^ i as u64;
            println!("  round {round} model {name}: base seed {seed:#x}");
            match explore(
                Mode::Random { seed, iters: 100 },
                Options::named(name),
                model,
            ) {
                Ok(report) => executions += report.schedules,
                Err(failure) => {
                    eprintln!("{failure}");
                    std::process::exit(1);
                }
            }
        }
        round += 1;
    }
    println!("soak passed: {round} rounds, {executions} executions, no failures");
}
