//! Durable persistence for `hts` ring servers: a segmented, CRC-framed
//! write-ahead log of committed `(object, tag, value)` writes, with
//! compaction and a crash-recovery reader.
//!
//! The seed reproduction implements the paper's crash-**stop** model: a
//! server that dies is spliced out of the ring forever and its state
//! lives only in RAM. This crate supplies the durability layer that
//! upgrades the system to crash-**recovery** (in the spirit of RADON's
//! repairable atomic objects): every committed write is appended here,
//! and a restarting server rebuilds its register state from its
//! segments, then rejoins the ring through `hts-core`'s resync
//! machinery.
//!
//! Design points:
//!
//! * **Only committed writes are logged.** A `(tag, value)` pair is
//!   appended when it is *applied* — after its write notice (or the
//!   degenerate single-server commit). Pending pre-writes are never
//!   persisted: they are retransmitted by the surviving ring on splice
//!   or rejoin, which is cheaper than logging twice per write and keeps
//!   per-server persistent storage at one value per object plus the
//!   uncompacted tail (the storage-cost metric of the
//!   Storage-Optimized Data-Atomic literature).
//! * **Every append is fsynced.** [`Wal::append_batch`] ends in exactly
//!   one fsync, so an acknowledged write is on stable storage before the
//!   client hears about it, and a group commit pays one flush for the
//!   whole batch.
//! * **One file format.** Compaction writes the live state as an
//!   ordinary segment, and recovery replays segments only.
//! * **Torn tails are expected, not errors.** Every record is CRC-32
//!   framed; recovery stops cleanly at the first bad frame of a
//!   segment. Because tags totally order writes, replay is idempotent
//!   (highest tag per object wins) and overlapping segments are
//!   harmless.
//!
//! # Examples
//!
//! ```
//! use hts_types::{ObjectId, ServerId, Tag, Value};
//! use hts_wal::{recover, Wal, WalOptions, WalRecord};
//!
//! let dir = std::env::temp_dir().join(format!("hts-wal-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut wal = Wal::open(&dir, WalOptions::default())?;
//! wal.append(&WalRecord {
//!     object: ObjectId(0),
//!     tag: Tag::new(1, ServerId(0)),
//!     value: Value::from_static(b"durable"),
//! })?;
//! drop(wal); // crash
//!
//! let recovery = recover(&dir)?;
//! assert!(recovery.had_log);
//! assert_eq!(recovery.state[&ObjectId(0)].1.as_bytes(), b"durable");
//! # std::fs::remove_dir_all(&dir)?;
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

mod crc;
mod log;
pub mod record;
mod recover;
pub mod segment;

pub use crc::crc32;
pub use log::{Wal, WalOptions, WalStats};
pub use record::{FrameError, WalRecord};
pub use recover::{recover, Recovery};
