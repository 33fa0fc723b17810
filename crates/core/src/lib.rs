//! The high-throughput ring-based atomic storage algorithm of Guerraoui,
//! Kostić, Levy and Quéma (ICDCS 2007), as a reusable sans-io library.
//!
//! # What this implements
//!
//! A multi-writer multi-reader **atomic (linearizable) register** served by
//! `n` cluster servers organized in a ring, tolerating the crash of `n − 1`
//! servers and of any number of clients, assuming reliable (perfect)
//! failure detection — realistic on a LAN where per-neighbor TCP
//! connections double as failure detectors.
//!
//! Two design points give it its performance profile:
//!
//! * **Reads are local.** Any server answers a read from its own storage,
//!   so read throughput scales linearly with servers. Atomicity is
//!   preserved by making *writes* pay: a write circulates a `pre-write`
//!   announcement before its commit `write` message, and a server that
//!   knows of an announced-but-uncommitted value briefly holds reads (the
//!   pre-write phase prevents the classic read-inversion anomaly).
//! * **Writes ride a ring.** Servers forward protocol messages only to
//!   their ring successor — no multicast storms, no ack implosion (a frame
//!   returning to its sender proves everyone saw it), and commit messages
//!   are tag-only because values are cached at every hop. A fairness rule
//!   multiplexes each server's own writes with forwarded traffic so every
//!   write completes.
//!
//! # Crate layout
//!
//! * [`ServerCore`] / [`ClientCore`] — the protocol state machines
//!   (sans-io: feed events, collect [`Action`]s / messages).
//! * [`SessionCore`] — the pipelined client session: a **window** of
//!   concurrent in-flight operations over one channel, with per-request
//!   retry state and out-of-order completions ([`ClientCore`] is its
//!   window-of-1 wrapper).
//! * [`MultiObjectServer`] — many registers multiplexed over one ring.
//! * [`SimServer`] / [`SimClient`] — adapters for the `hts-sim` packet
//!   simulator (used by every benchmark).
//! * [`RoundServer`] / [`RoundClient`] — adapters for the paper's
//!   synchronous round model (validates the §4 analytical claims).
//! * [`Config`] — paper-faithful defaults plus documented ablations.
//!
//! # Examples
//!
//! A three-server ring exercised entirely in-memory (no simulator), by
//! hand-delivering frames — the protocol is just data in, data out:
//!
//! ```
//! use hts_core::{Action, Config, ServerCore};
//! use hts_types::{ClientId, Message, ObjectId, RequestId, ServerId, Value};
//!
//! let mut servers: Vec<ServerCore> = (0..3)
//!     .map(|i| ServerCore::new(ServerId(i), 3, ObjectId::SINGLE, Config::default()))
//!     .collect();
//!
//! // A client writes through s0.
//! servers[0].on_client_write(ClientId(0), RequestId(1), Value::from_u64(42));
//!
//! // Drive the ring until quiescent: pull frames, deliver to successors.
//! let mut acks = Vec::new();
//! loop {
//!     let mut progressed = false;
//!     for i in 0..3 {
//!         if let Some(frame) = servers[i].next_frame() {
//!             let successor = servers[i].successor().unwrap();
//!             acks.extend(servers[successor.index()].on_frame(frame));
//!             progressed = true;
//!         }
//!     }
//!     if !progressed {
//!         break;
//!     }
//! }
//!
//! // The write completed and every server stores the value.
//! assert!(matches!(acks[0], Action::WriteAck { .. }));
//! for s in &servers {
//!     assert_eq!(s.stored().1, &Value::from_u64(42));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod fairness;
mod lanes;
mod multi;
mod pending;
mod ring;
mod round_adapter;
mod server;
mod session;
mod sim_adapter;
mod small;

pub use client::{ClientCore, Completion};
pub use config::{BatchConfig, Config, Durability, FairnessMode};
pub use fairness::{ForwardScheduler, Selection};
pub use lanes::LaneMap;
pub use multi::MultiObjectServer;
pub use pending::PendingSet;
pub use ring::RingView;
pub use round_adapter::{RoundClient, RoundClientStats, RoundServer};
pub use server::{Action, ServerCore, ServerStats};
pub use session::{SessionCore, REPROBE_PERIOD};
pub use sim_adapter::{unique_value, ClientStats, OpMix, SimClient, SimServer, WorkloadConfig};
