//! Real TCP runtime for the `hts` atomic storage.
//!
//! The same sans-io cores (`hts-core`) that drive the simulator run here
//! over real sockets, on one machine or a LAN. One epoll-driven thread
//! per ring lane owns every connection (`hts-poll`; Linux only), so a
//! node runs on `lanes + 1` threads regardless of connection count:
//!
//! * each server listens on one address; clients and the ring predecessor
//!   connect to it (a 3-byte [`Hello`](hts_types::codec::Hello) handshake
//!   declares who is calling);
//! * each server keeps one long-lived TCP connection **per ring lane**
//!   to its ring successor (`Config::lanes`, default 1 — exactly the
//!   single connection §2 prescribes); a broken connection **is** the
//!   perfect failure detector — the predecessor splices the lane's ring
//!   and retransmits, the successor-side adopter completes orphaned
//!   writes;
//! * ring frames are pulled from the core a batch at a time as the
//!   previous batch drains into the socket, which is where the fairness
//!   rule runs (the kernel's send buffer plays the role of the NIC TX
//!   queue);
//! * with `lanes = R > 1`, objects partition across `R` independent ring
//!   instances (`hts_core::LaneMap` placement), each lane owning its own
//!   event-loop thread, outbound link, inbound stream and WAL directory
//!   — one node then scales across cores instead of serializing every
//!   object through one event loop;
//! * clients come in two shapes: the sequential [`Client`] (one
//!   operation in flight, the paper's §3 client) and the pipelined
//!   [`Session`] (a window of many concurrent operations multiplexed
//!   over one socket per server; the session is its own epoll loop on
//!   the caller's thread — replies matched out of order, requests
//!   coalesced into one flush per burst, no helper thread).
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
