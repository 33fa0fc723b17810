//! The high-throughput ring-based atomic storage algorithm of Guerraoui,
//! Kostić, Levy and Quéma (ICDCS 2007), as a reusable sans-io library.
//!
//! # What this implements
//!
//! A multi-writer multi-reader **atomic (linearizable) register** served by
//! `n` cluster servers organized in a ring, tolerating the crash of `n − 1`
//! servers and of any number of clients.
//!
//! The paper assumes a perfect failure detector; the simulator has one.
//! The TCP runtime (`hts-net`) draws crash verdicts from its ring links
//! ([`LaneCore::poll_links`]): a server condemns its predecessor at once
//! on any close or decode error of the inbound stream, and its successor
//! after the strike rule, within about 100 ms. A server not adjacent to
//! the dead peer learns of it only when the ring routes it there.
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
//! * [`MultiObjectServer`] — the server (sans-io: feed events, collect
//!   [`Action`]s and frames): one ring view, one configuration and one
//!   restart-resync gate, shared by the many registers it multiplexes
//!   over the ring. A single register is
//!   [`ObjectId::SINGLE`](hts_types::ObjectId::SINGLE).
//! * [`ServerCore`] — the protocol's state for one register, reached
//!   read-only through [`MultiObjectServer::object`]; its events arrive
//!   through the server.
//! * [`SessionCore`] — the client: a **window** of concurrent in-flight
//!   operations over one channel, with per-request retry state and
//!   out-of-order completions. A window of 1 is the paper's sequential
//!   client.
//! * [`LaneCore`] — the policy of one ring lane around a
//!   [`MultiObjectServer`]: restart, the successor links (connect
//!   back-off, one staged batch per link and the strike rule, driven
//!   through [`LinkOp`]s), the release gate that holds replies and ring
//!   batches until their commits are durable, and batch selection. The
//!   TCP runtime (`hts-net`) and the simulator (`hts-sim`) both run it.
//! * [`Config`] — paper-faithful defaults plus documented ablations.
//!
//! # Examples
//!
//! A three-server ring exercised entirely in-memory (no simulator), by
//! hand-delivering frames — the protocol is just data in, data out:
//!
//! ```
//! use hts_core::{Action, Config, MultiObjectServer};
//! use hts_types::{ClientId, ObjectId, RequestId, ServerId, Value};
//!
//! let mut servers: Vec<MultiObjectServer> = (0..3)
//!     .map(|i| MultiObjectServer::new(ServerId(i), 3, Config::default()))
//!     .collect();
//!
//! // A client writes through s0.
//! let x = ObjectId::SINGLE;
//! servers[0].on_client_write(x, ClientId(0), RequestId(1), Value::from_u64(42));
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
//!     assert_eq!(s.object(x).unwrap().stored().1, &Value::from_u64(42));
//! }
//! ```

#![forbid(unsafe_code)]
// Protocol code propagates errors instead of panicking, never sleeps,
// holds no lock or atomic and reads no clock (the lists are in
// clippy.toml), and names every enum variant it matches. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]

mod config;
mod fairness;
mod lane;
mod lanes;
mod link;
mod multi;
mod pending;
mod ring;
mod server;
mod session;
mod small;

pub use config::{BatchConfig, Config, Durability, FairnessMode};
pub use lane::LaneCore;
pub use lanes::LaneMap;
pub use link::LinkOp;
pub use multi::MultiObjectServer;
pub use pending::PendingSet;
pub use server::{Action, ServerCore};
pub use session::{Completion, SessionCore, REPROBE_PERIOD};
