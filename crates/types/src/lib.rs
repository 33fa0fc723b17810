//! Core vocabulary types for the `hts` atomic storage system.
//!
//! This crate defines the identifiers, timestamps ("tags"), values and
//! protocol messages shared by every other crate in the workspace, together
//! with a compact binary wire codec used both by the real TCP runtime
//! (`hts-net`) and by the network simulator (`hts-sim`) for exact
//! byte-level accounting.
//!
//! The protocol implemented on top of these types is the ring-based atomic
//! storage algorithm of Guerraoui, Kostić, Levy and Quéma (*"A High
//! Throughput Atomic Storage Algorithm"*, ICDCS 2007): values are ordered by
//! a [`Tag`] (a Lamport-style timestamp with the originating server id as
//! tie-breaker), a write circulates a value-carrying [`PreWrite`] followed
//! by a tag-only [`WriteNotice`] around the server ring, and clients talk to
//! any single server with the request/reply messages in [`Message`].
//!
//! # Examples
//!
//! ```
//! use hts_types::{Message, ObjectId, RequestId, Tag, ServerId, Value, codec};
//!
//! let msg = Message::WriteReq {
//!     object: ObjectId(0),
//!     request: RequestId(42),
//!     value: Value::from_static(b"hello"),
//! };
//! let bytes = codec::encode(&msg);
//! assert_eq!(bytes.len(), codec::wire_size(&msg));
//! let back = codec::decode(&bytes)?;
//! assert_eq!(msg, back);
//!
//! // Tags order lexicographically: timestamp first, origin breaks ties.
//! assert!(Tag::new(3, ServerId(1)) < Tag::new(3, ServerId(2)));
//! assert!(Tag::new(3, ServerId(9)) < Tag::new(4, ServerId(0)));
//! # Ok::<(), hts_types::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod error;
mod id;
mod message;
mod tag;
mod value;

pub use error::DecodeError;
pub use id::{ClientId, NodeId, ObjectId, ProcessRole, RequestId, ServerId};
pub use message::{Message, PreWrite, Rejoin, RingFrame, WriteNotice};
pub use tag::Tag;
pub use value::Value;
