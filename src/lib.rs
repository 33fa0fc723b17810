//! # hts — A High Throughput Atomic Storage Algorithm
//!
//! A complete Rust implementation and experimental reproduction of
//! *"A High Throughput Atomic Storage Algorithm"* (Guerraoui, Kostić,
//! Levy, Quéma — ICDCS 2007): a multi-writer multi-reader **atomic
//! register** served by a ring of cluster servers that tolerates the crash
//! of all but one server, serves reads **locally** (throughput scales
//! linearly with servers) and pays for atomicity on the write path with a
//! pre-write/write double ring circulation.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `hts-types` | ids, tags, values, messages, wire codec |
//! | [`core`] | `hts-core` | the algorithm (server/client state machines, fairness, recovery) |
//! | [`sim`] | `hts-sim` | deterministic packet-level + round-model simulators |
//! | [`lincheck`] | `hts-lincheck` | linearizability checkers for register histories |
//! | [`baselines`] | `hts-baselines` | ABD quorum, chain replication, TOB register, Fig. 1 toys |
//! | [`net`] | `hts-net` | real TCP runtime with failure detection |
//! | [`wal`] | `hts-wal` | write-ahead log (every append fsynced), compaction and crash recovery for servers |
//!
//! Start with `examples/quickstart.rs` (a real TCP cluster on localhost)
//! or `examples/figure2_walkthrough.rs` (the paper's illustration run,
//! traced on the simulator). The benchmark binaries regenerating every
//! figure of the paper live in `hts-bench`; see README.md and
//! EXPERIMENTS.md.
//!
//! # Examples
//!
//! ```
//! use hts::net::{Client, Cluster};
//! use hts::types::Value;
//!
//! let cluster = Cluster::launch(3)?;
//! let mut client = Client::connect(1, cluster.addrs())?;
//! client.write(Value::from_static(b"hello, ring"))?;
//! assert_eq!(client.read()?.as_bytes(), b"hello, ring");
//! cluster.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hts_baselines as baselines;
pub use hts_core as core;
pub use hts_lincheck as lincheck;
pub use hts_net as net;
pub use hts_sim as sim;
pub use hts_types as types;
pub use hts_wal as wal;
