//! Deterministic discrete-event network simulation for the `hts` workspace.
//!
//! The paper evaluates its algorithm on a 24-node fast-ethernet cluster; we
//! substitute a **packet-level simulator** whose resources are exactly the
//! quantities the algorithm economizes: full-duplex NIC serialization at a
//! configurable link rate, store-and-forward switch ports, propagation and
//! endpoint processing delays. Throughput in the paper is link-bound, so
//! byte-accurate serialization reproduces the shapes of every figure.
//!
//! Two models:
//!
//! * [`packet`] — continuous virtual time (nanoseconds), per-NIC TX/RX
//!   serialization, multiple networks (the paper's separate server/client
//!   networks, or one shared network), crash and crash-**restart**
//!   injection with a perfect-failure-detector callback, a modeled log
//!   device ([`disk`]) for durability experiments, deterministic seeded
//!   execution.
//! * [`round`] — the synchronous round model of the paper's §2/§4: per round
//!   a process computes, sends one (possibly multicast) message per network,
//!   and **receives at most one** message per network (FIFO NIC queue).
//!   Used to validate the analytical latency/throughput claims and Fig. 1.
//!
//! Processes are sans-io state machines implementing [`Process`] (packet
//! model) or [`round::RoundProcess`]. The adapters that run `hts-core`'s
//! protocol on them live here too:
//!
//! * [`SimServer`] — a ring server driving one `hts_core::LaneCore` per
//!   ring lane, the same lane policy the TCP runtime in `hts-net` runs;
//!   the adapter keeps only NIC pacing, the modeled disk and the replay
//!   timer. [`SimClient`] is a workload client over a
//!   `hts_core::SessionCore` window (used by every benchmark).
//! * [`RoundServer`] / [`RoundClient`] — the round-model adapters that
//!   validate the §4 analytical claims.
//!
//! The dependency points one way: the simulator links the protocol, and
//! the shipped server (`hts-core`, `hts-net`) links no simulator.
//!
//! # Examples
//!
//! A two-node ping-pong in the packet model:
//!
//! ```
//! use hts_sim::{packet::{PacketSim, NetworkConfig}, Ctx, Process, Wire};
//! use hts_types::{ClientId, NodeId};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl Wire for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! struct Node { peer: NodeId, pings: u32 }
//! impl Process<Ping> for Node {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
//!         if ctx.node() == NodeId::Client(ClientId(0)) {
//!             ctx.send(Default::default(), self.peer, Ping(0));
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: NodeId, msg: Ping) {
//!         self.pings += 1;
//!         if msg.0 < 3 { ctx.send(Default::default(), from, Ping(msg.0 + 1)); }
//!     }
//! }
//!
//! let mut sim = PacketSim::new(42);
//! let net = sim.add_network(NetworkConfig::fast_ethernet());
//! let a = NodeId::Client(ClientId(0));
//! let b = NodeId::Client(ClientId(1));
//! sim.add_node(a, Box::new(Node { peer: b, pings: 0 }));
//! sim.add_node(b, Box::new(Node { peer: a, pings: 0 }));
//! sim.attach(a, net);
//! sim.attach(b, net);
//! sim.run_to_quiescence();
//! assert!(sim.now().as_nanos() > 0);
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

pub mod disk;
pub mod packet;
pub mod round;
mod round_adapter;
mod sim_adapter;
mod time;

pub use disk::{DiskConfig, DiskModel};
pub use hts_types::Nanos;
pub use packet::{Ctx, NetworkId, PacketSim, Process, TimerId};
pub use round_adapter::{RoundClient, RoundClientStats, RoundServer};
pub use sim_adapter::{unique_value, ClientStats, OpMix, SimClient, SimServer, WorkloadConfig};
pub use time::Bandwidth;

/// Byte-level size accounting for simulated payloads.
///
/// The packet model charges each message its [`wire_size`](Wire::wire_size)
/// plus framing overhead when computing serialization times, so simulated
/// throughput is byte-accurate with respect to the real codec.
pub trait Wire {
    /// The encoded size of this message in bytes (excluding link framing).
    fn wire_size(&self) -> usize;
}

impl Wire for hts_types::Message {
    fn wire_size(&self) -> usize {
        hts_types::codec::wire_size(self)
    }
}
