//! Protocol messages.
//!
//! Two families:
//!
//! * **client ↔ server** requests and replies ([`Message::WriteReq`],
//!   [`Message::ReadReq`], [`Message::WriteAck`], [`Message::ReadAck`]) —
//!   these travel on the client network;
//! * **server → server** ring traffic ([`Message::Ring`]) — a [`RingFrame`]
//!   forwarded from each server to its ring successor only.
//!
//! A ring frame carries at most one value-bearing [`PreWrite`] and at most
//! one [`WriteNotice`]. In steady state a write notice is **tag-only**: the
//! value was already disseminated by the matching pre-write and every server
//! holds it in its pending cache, so re-sending it would double the ring's
//! bandwidth cost. Recovery retransmissions and the
//! `write_carries_value` ablation set [`WriteNotice::value`] to `Some`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ObjectId, RequestId, ServerId, Tag, Value};

/// The first phase of a write: announces `value` under `tag` to every
/// server as the frame circulates the ring (paper lines 25, 29–40).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreWrite {
    /// The write's tag; `tag.origin` is the server that initiated the write.
    pub tag: Tag,
    /// The value being written.
    pub value: Value,
    /// Set on re-circulations started by crash recovery: receivers forward
    /// a recovery pre-write even if they have already seen the tag (the
    /// surrogate originator needs it to complete a full ring turn), and the
    /// designated adopter of a crashed origin consumes it.
    pub recovery: bool,
}

/// The second phase of a write: commits the pre-written `tag` (paper lines
/// 38, 41–52). Tag-only in steady state; carries the value again only in
/// recovery retransmissions (or under the `write_carries_value` ablation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteNotice {
    /// The tag being committed; `tag.origin` identifies the initiating
    /// server, which terminates the circulation (paper line 49).
    pub tag: Tag,
    /// The committed value, when carried explicitly. `None` means "resolve
    /// from the pending cache populated by the matching [`PreWrite`]".
    pub value: Option<Value>,
}

/// One hop of ring traffic: everything a server transmits to its successor
/// in a single protocol step.
///
/// # Examples
///
/// ```
/// use hts_types::{ObjectId, PreWrite, RingFrame, ServerId, Tag, Value, WriteNotice};
///
/// let frame = RingFrame {
///     object: ObjectId::SINGLE,
///     pre_write: Some(PreWrite {
///         tag: Tag::new(1, ServerId(0)),
///         value: Value::from_u64(7),
///         recovery: false,
///     }),
///     write: Some(WriteNotice { tag: Tag::new(1, ServerId(2)), value: None }),
///     rejoin: None,
/// };
/// assert!(!frame.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingFrame {
    /// The register object this frame belongs to.
    pub object: ObjectId,
    /// Optional first-phase message.
    pub pre_write: Option<PreWrite>,
    /// Optional second-phase message.
    pub write: Option<WriteNotice>,
    /// Optional crash-**recovery** announcement: "server `s` restarted
    /// and is back in the ring". Initiated by the restarted server
    /// itself and forwarded hop by hop until it returns to `s`; each
    /// receiver marks `s` alive, and the server whose successor becomes
    /// `s` re-sends its state first (FIFO links), so the announcement's
    /// return doubles as the rejoiner's sync-complete marker (see
    /// [`Rejoin`] for the flags guarding overlapping restarts).
    pub rejoin: Option<Rejoin>,
}

/// A crash-recovery rejoin announcement (see [`RingFrame::rejoin`]).
///
/// The two flags make the announcement's return a *trustworthy*
/// sync-complete certificate even when restarts overlap:
///
/// * `stale_source` — set by the hop that becomes the rejoiner's
///   predecessor (the one whose recovery stream the certificate vouches
///   for) when that hop is **itself still resyncing**: its stream may
///   miss writes committed during their overlapping downtime, so the
///   rejoiner must not finish on this circuit and re-announces instead.
/// * `all_syncing` — ANDed with "this hop is resyncing" at every
///   forwarder. When it survives as `true`, *every* alive server is
///   restarting (a cold start of the whole cluster): the recovery logs
///   are collectively authoritative, there is no fresher state to wait
///   for, and the rejoiner may finish despite a `stale_source` — this
///   is what keeps overlapping cold restarts from livelocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rejoin {
    /// The restarted server.
    pub server: ServerId,
    /// The new predecessor was itself mid-resync when it forwarded.
    pub stale_source: bool,
    /// Every hop so far (including the rejoiner) was mid-resync.
    pub all_syncing: bool,
}

impl Rejoin {
    /// A fresh announcement as the restarted `server` itself issues it.
    pub fn announce(server: ServerId) -> Self {
        Rejoin {
            server,
            stale_source: false,
            all_syncing: true,
        }
    }
}

impl RingFrame {
    /// A frame carrying only a pre-write.
    pub fn pre_write(object: ObjectId, tag: Tag, value: Value) -> Self {
        RingFrame {
            object,
            pre_write: Some(PreWrite {
                tag,
                value,
                recovery: false,
            }),
            write: None,
            rejoin: None,
        }
    }

    /// A frame carrying only a (tag-only) write notice.
    pub fn write(object: ObjectId, tag: Tag) -> Self {
        RingFrame {
            object,
            pre_write: None,
            write: Some(WriteNotice { tag, value: None }),
            rejoin: None,
        }
    }

    /// A frame carrying a write notice with an explicit value (used by
    /// recovery retransmission and the `write_carries_value` ablation).
    pub fn write_with_value(object: ObjectId, tag: Tag, value: Value) -> Self {
        RingFrame {
            object,
            pre_write: None,
            write: Some(WriteNotice {
                tag,
                value: Some(value),
            }),
            rejoin: None,
        }
    }

    /// A frame carrying only a rejoin announcement (sent by a restarted
    /// server entering the ring, or forwarded standalone; piggybacks on
    /// regular frames when there is concurrent traffic).
    pub fn announce_rejoin(rejoin: Rejoin) -> Self {
        RingFrame {
            object: ObjectId::SINGLE,
            pre_write: None,
            write: None,
            rejoin: Some(rejoin),
        }
    }

    /// Returns `true` if the frame carries nothing (never sent).
    pub fn is_empty(&self) -> bool {
        self.pre_write.is_none() && self.write.is_none() && self.rejoin.is_none()
    }
}

/// Every message exchanged in the system.
///
/// See the [module documentation](self) for the two message families and
/// [`crate::codec`] for the wire format.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    /// Client → server: write `value` (paper line 2).
    WriteReq {
        /// Target register object.
        object: ObjectId,
        /// Client-chosen correlation id.
        request: RequestId,
        /// The value to write.
        value: Value,
    },
    /// Client → server: read the register (paper line 7).
    ReadReq {
        /// Target register object.
        object: ObjectId,
        /// Client-chosen correlation id.
        request: RequestId,
    },
    /// Server → client: the write completed (paper line 50).
    WriteAck {
        /// Register object of the completed write.
        object: ObjectId,
        /// Correlation id of the completed request.
        request: RequestId,
    },
    /// Server → client: the read's result (paper lines 78, 82).
    ReadAck {
        /// Register object of the read.
        object: ObjectId,
        /// Correlation id of the read request.
        request: RequestId,
        /// The value read.
        value: Value,
    },
    /// Server → ring successor: protocol traffic.
    Ring(RingFrame),
    /// Server → ring successor: several [`RingFrame`]s coalesced into one
    /// wire message. Frames are ordered oldest-first and must be applied
    /// in that order — the batch is a transparent framing optimization,
    /// not a semantic unit, so per-link FIFO (which the rejoin/resync
    /// protocol depends on) is exactly preserved. The outbound writer in
    /// `hts-net` and the simulator's `SimServer` build batches whenever
    /// more than one frame is ready for the same link; a single ready
    /// frame still travels as [`Message::Ring`].
    RingBatch(Vec<RingFrame>),
    /// Client → server: dump the server's metrics registry (observability
    /// side channel; never touches register state).
    StatsRequest {
        /// Client-chosen correlation id.
        request: RequestId,
    },
    /// Server → client: the metrics registry in Prometheus-style text
    /// exposition, answering a [`Message::StatsRequest`]. The payload
    /// rides in a [`Value`] so the codec's length-prefixed byte-slab
    /// machinery applies unchanged; servers built without the `metrics`
    /// feature answer with an empty payload.
    StatsReply {
        /// Correlation id of the answered request.
        request: RequestId,
        /// UTF-8 exposition text.
        text: Value,
    },
}

impl Message {
    /// The register object this message concerns. For a batch this is the
    /// first frame's object (a batch can span objects; routing happens
    /// per frame, so this accessor is informational only there).
    pub fn object(&self) -> ObjectId {
        match self {
            Message::WriteReq { object, .. }
            | Message::ReadReq { object, .. }
            | Message::WriteAck { object, .. }
            | Message::ReadAck { object, .. } => *object,
            Message::Ring(frame) => frame.object,
            Message::RingBatch(frames) => frames.first().map_or(ObjectId::SINGLE, |f| f.object),
            // Stats traffic is register-agnostic; report the default
            // object so object-keyed routing (lane demux) has a home.
            Message::StatsRequest { .. } | Message::StatsReply { .. } => ObjectId::SINGLE,
        }
    }

    /// Returns `true` for server→server ring traffic.
    pub fn is_ring(&self) -> bool {
        matches!(self, Message::Ring(_) | Message::RingBatch(_))
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::WriteReq {
                object,
                request,
                value,
            } => write!(f, "write_req({object},{request},{} bytes)", value.len()),
            Message::ReadReq { object, request } => write!(f, "read_req({object},{request})"),
            Message::WriteAck { object, request } => write!(f, "write_ack({object},{request})"),
            Message::ReadAck {
                object,
                request,
                value,
            } => write!(f, "read_ack({object},{request},{} bytes)", value.len()),
            Message::Ring(frame) => fmt_frame(f, frame),
            Message::RingBatch(frames) => {
                write!(f, "ring_batch[{}]", frames.len())?;
                if let Some(first) = frames.first() {
                    f.write_str("{")?;
                    fmt_frame(f, first)?;
                    if frames.len() > 1 {
                        f.write_str(", ..")?;
                    }
                    f.write_str("}")?;
                }
                Ok(())
            }
            Message::StatsRequest { request } => write!(f, "stats_req({request})"),
            Message::StatsReply { request, text } => {
                write!(f, "stats_reply({request},{} bytes)", text.len())
            }
        }
    }
}

/// Renders one ring frame for [`Message`]'s `Display` impl.
fn fmt_frame(f: &mut fmt::Formatter<'_>, frame: &RingFrame) -> fmt::Result {
    write!(f, "ring({}", frame.object)?;
    if let Some(pw) = &frame.pre_write {
        write!(f, ", pre_write{}", pw.tag)?;
    }
    if let Some(w) = &frame.write {
        write!(
            f,
            ", write{}{}",
            w.tag,
            if w.value.is_some() { "+v" } else { "" }
        )?;
    }
    if let Some(r) = frame.rejoin {
        write!(
            f,
            ", rejoin({}{}{})",
            r.server,
            if r.stale_source { ",stale" } else { "" },
            if r.all_syncing { ",cold" } else { "" }
        )?;
    }
    f.write_str(")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerId;

    fn tag() -> Tag {
        Tag::new(3, ServerId(1))
    }

    #[test]
    fn frame_constructors() {
        let f = RingFrame::pre_write(ObjectId(1), tag(), Value::from_u64(9));
        assert!(f.pre_write.is_some() && f.write.is_none() && !f.is_empty());

        let g = RingFrame::write(ObjectId(1), tag());
        assert!(g.pre_write.is_none());
        assert_eq!(g.write.as_ref().unwrap().value, None);

        let h = RingFrame::write_with_value(ObjectId(1), tag(), Value::from_u64(9));
        assert!(h.write.as_ref().unwrap().value.is_some());

        let empty = RingFrame {
            object: ObjectId(1),
            pre_write: None,
            write: None,
            rejoin: None,
        };
        assert!(empty.is_empty());

        let announce = RingFrame::announce_rejoin(Rejoin::announce(ServerId(2)));
        assert!(!announce.is_empty());
        let r = announce.rejoin.unwrap();
        assert_eq!(r.server, ServerId(2));
        assert!(!r.stale_source);
        assert!(r.all_syncing);
    }

    #[test]
    fn batch_display_and_accessors() {
        let empty = Message::RingBatch(Vec::new());
        assert_eq!(empty.to_string(), "ring_batch[0]");
        assert_eq!(empty.object(), ObjectId::SINGLE);
        assert!(empty.is_ring());

        let batch = Message::RingBatch(vec![
            RingFrame::write(ObjectId(3), tag()),
            RingFrame::write(ObjectId(4), tag()),
        ]);
        assert_eq!(batch.object(), ObjectId(3));
        assert_eq!(
            batch.to_string(),
            "ring_batch[2]{ring(obj3, write[3,s1]), ..}"
        );
    }

    #[test]
    fn message_object_accessor() {
        let m = Message::ReadReq {
            object: ObjectId(7),
            request: RequestId(1),
        };
        assert_eq!(m.object(), ObjectId(7));
        assert!(!m.is_ring());

        let r = Message::Ring(RingFrame::write(ObjectId(8), tag()));
        assert_eq!(r.object(), ObjectId(8));
        assert!(r.is_ring());
    }

    #[test]
    fn display_is_compact() {
        let m = Message::WriteReq {
            object: ObjectId(0),
            request: RequestId(5),
            value: Value::filled(0, 100),
        };
        assert_eq!(m.to_string(), "write_req(obj0,r5,100 bytes)");

        let r = Message::Ring(RingFrame {
            object: ObjectId(0),
            pre_write: Some(PreWrite {
                tag: tag(),
                value: Value::bottom(),
                recovery: false,
            }),
            write: Some(WriteNotice {
                tag: tag(),
                value: Some(Value::bottom()),
            }),
            rejoin: Some(Rejoin {
                server: ServerId(2),
                stale_source: true,
                all_syncing: false,
            }),
        });
        assert_eq!(
            r.to_string(),
            "ring(obj0, pre_write[3,s1], write[3,s1]+v, rejoin(s2,stale))"
        );
    }
}
