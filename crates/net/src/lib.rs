//! Real TCP runtime for the `hts` atomic storage.
//!
//! The same sans-io cores (`hts-core`) that drive the simulator run here
//! over real sockets, on one machine or a LAN. One epoll-driven thread
//! per ring lane owns every connection (`hts-poll`; Linux only), so a
//! node runs on `lanes` threads regardless of connection count — one
//! thread at the default single lane:
//!
//! * each server listens on one address, watched by lane 0; clients and
//!   the ring predecessor connect to it (a short
//!   [`Hello`](hts_types::codec::Hello) handshake declares who is
//!   calling);
//! * each server keeps one long-lived TCP connection **per ring lane**
//!   to its ring successor (`Config::lanes`, default 1 — exactly the
//!   single connection §2 prescribes). These links stand in for the
//!   paper's perfect failure detector, and only approximate it: the
//!   successor of a dead server issues a crash verdict at once on any
//!   close or decode error of its inbound stream; the predecessor issues
//!   one after the strike rule (`hts_core::LaneCore::link_failed`),
//!   within about 100 ms; a server not adjacent to the dead peer learns
//!   of it only when the ring routes it there. A verdict splices the
//!   lane's ring past the peer and retransmits, and the adopter completes
//!   orphaned writes;
//! * ring frames are pulled from the core a batch at a time as the
//!   previous batch drains into the socket, which is where the fairness
//!   rule runs (the kernel's send buffer plays the role of the NIC TX
//!   queue);
//! * with `lanes = R > 1`, objects partition across `R` independent ring
//!   instances (`hts_core::LaneMap` placement), each lane owning its own
//!   event-loop thread, outbound link, inbound stream and WAL directory
//!   — one node then scales across cores instead of serializing every
//!   object through one event loop;
//! * the client is a [`Session`]: a window of concurrent operations
//!   multiplexed over one socket per server, run as its own epoll loop
//!   on the caller's thread (replies matched out of order, requests
//!   coalesced into one flush per burst, no helper thread). The
//!   sequential [`Client`] — one operation in flight, the paper's §3
//!   client — is a session with a window of one.
//!
//! The paper's figures are reproduced on the simulator (`hts-bench`),
//! where bandwidth is controlled; this runtime is measured by the
//! repo's benchmark (`benchmark/`) — see also `examples/quickstart.rs`
//! and the crash-recovery integration tests.
//!
//! # Examples
//!
//! ```
//! use hts_net::{Client, Cluster};
//! use hts_types::Value;
//!
//! let cluster = Cluster::launch(3)?;
//! let mut client = Client::connect(1, cluster.addrs())?;
//! client.write(Value::from_u64(42))?;
//! assert_eq!(client.read()?, Value::from_u64(42));
//! cluster.shutdown();
//! # Ok::<(), std::io::Error>(())
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

mod client;
mod cluster;
mod framing;
mod reactor;
mod server;
mod session;

pub use client::Client;
pub use cluster::Cluster;
pub use framing::{read_message, write_message, MessageReader, MAX_FRAME_BYTES};
pub use server::{Server, ServerConfig};
pub use session::Session;
