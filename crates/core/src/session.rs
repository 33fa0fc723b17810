//! The pipelined client session state machine.
//!
//! [`SessionCore`] generalizes the paper's sequential client (§3) to a
//! **window** of concurrent in-flight operations multiplexed over one
//! logical channel: every request keeps its own retry state, replies
//! complete out of order (keyed by [`RequestId`]), and the alive-map and
//! server-routing policy are shared across the window. A window of 1 is
//! exactly the paper's client, while larger windows turn one transport
//! connection into an open-loop request pipeline (the load model the
//! throughput analyses of CAS/SODA-style algorithms assume).
//!
//! Like the rest of `hts-core` this is sans-io: transports own sockets
//! and timers, the core just decides what to send where next.

use std::collections::BTreeMap;

use hts_types::{ClientId, Message, ObjectId, RequestId, ServerId, Value};

/// A finished operation, reported by [`SessionCore::on_reply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The request that finished.
    pub request: RequestId,
    /// `None` for writes; the value read for reads.
    pub value: Option<Value>,
}

/// Suspected-dead servers are optimistically re-probed every this many
/// launched operations: a launch that would have skipped the dead
/// preferred server targets it anyway, so a *restarted* server is
/// re-discovered within one probe period (costing at most one extra
/// retry timeout when the suspicion was right). Transports additionally
/// call [`SessionCore::on_server_up`] on successful reconnects, which
/// clears the suspicion immediately.
pub const REPROBE_PERIOD: u64 = 16;

#[derive(Debug, Clone)]
struct Inflight {
    /// Message to (re-)send.
    message: Message,
    server: ServerId,
    attempts: u32,
}

/// One client session's request/retry logic with up to `window`
/// operations in flight concurrently.
///
/// Each request is re-issued independently on timeout (to the next server
/// believed alive, under the same request id — the paper's retry rule),
/// and completions are delivered in whatever order replies arrive. The
/// alive-map is shared: one dead-server verdict benefits every in-flight
/// and future request, and it **recovers** — via [`on_server_up`]
/// (transport observed a successful reconnect), via a periodic re-probe
/// of suspected servers (see [`REPROBE_PERIOD`]), and via a full reset
/// whenever a request's retries complete a whole cycle of the ring
/// (every server suspect ⇒ the suspicions are stale).
///
/// [`on_server_up`]: SessionCore::on_server_up
///
/// # Examples
///
/// ```
/// use hts_core::SessionCore;
/// use hts_types::{ClientId, Message, ObjectId, ServerId, Value};
///
/// let mut s = SessionCore::new(ClientId(0), ObjectId::SINGLE, 3, ServerId(0), 8);
/// let (r1, _, _) = s.begin_write(Value::from_u64(1));
/// let (r2, _, _) = s.begin_write(Value::from_u64(2));
/// assert_eq!(s.in_flight(), 2);
/// // Replies may land out of order; each completes its own request.
/// let done = s.on_reply(&Message::WriteAck { object: ObjectId::SINGLE, request: r2 });
/// assert_eq!(done.unwrap().request, r2);
/// assert!(s.is_inflight(r1));
/// ```
#[derive(Debug, Clone)]
pub struct SessionCore {
    id: ClientId,
    object: ObjectId,
    n: u16,
    alive: Vec<bool>,
    preferred: ServerId,
    window: usize,
    next_request: u64,
    launches: u64,
    inflight: BTreeMap<RequestId, Inflight>,
}

impl SessionCore {
    /// Creates a session of a ring of `n` servers that prefers talking to
    /// `preferred` (the paper pins client machines to servers) and admits
    /// up to `window` concurrent operations.
    ///
    /// # Panics
    ///
    /// Panics if `preferred` is outside `0..n`, `n` is zero, or `window`
    /// is zero.
    #[expect(clippy::disallowed_macros, reason = "documented caller preconditions")]
    pub fn new(id: ClientId, object: ObjectId, n: u16, preferred: ServerId, window: usize) -> Self {
        assert!(n > 0, "a ring needs at least one server");
        assert!(preferred.0 < n, "preferred server outside ring");
        assert!(window > 0, "a session needs a window of at least one");
        SessionCore {
            id,
            object,
            n,
            alive: vec![true; usize::from(n)],
            preferred,
            window,
            next_request: 0,
            launches: 0,
            inflight: BTreeMap::new(),
        }
    }

    /// This session's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The default object operations target.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The maximum number of concurrent in-flight operations.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Operations currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Whether another operation may begin without exceeding the window.
    pub fn has_capacity(&self) -> bool {
        self.inflight.len() < self.window
    }

    /// Whether `request` is still awaiting its completion.
    pub fn is_inflight(&self, request: RequestId) -> bool {
        self.inflight.contains_key(&request)
    }

    /// The server `request` was last sent to, while it is in flight.
    pub fn server_of(&self, request: RequestId) -> Option<ServerId> {
        self.inflight.get(&request).map(|i| i.server)
    }

    /// Re-sends consumed by `request` so far (timeout and server-down
    /// re-routes), while it is in flight. Transports bound their retry
    /// cycles on this instead of keeping a parallel counter.
    pub fn attempts_of(&self, request: RequestId) -> Option<u32> {
        self.inflight.get(&request).map(|i| i.attempts)
    }

    /// The in-flight request ids, oldest first.
    pub fn inflight_requests(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.inflight.keys().copied()
    }

    /// The current alive-map (suspicions are transport hints, never
    /// correctness: a fully-suspect map still routes round-robin).
    pub fn believed_alive(&self) -> &[bool] {
        &self.alive
    }

    /// Starts a write of the default object; returns
    /// `(request, server, message to send)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is full (check [`has_capacity`](Self::has_capacity)).
    pub fn begin_write(&mut self, value: Value) -> (RequestId, ServerId, Message) {
        self.begin_write_to(self.object, value)
    }

    /// Starts a write of an explicit object (multi-register deployments).
    ///
    /// # Panics
    ///
    /// Panics if the window is full.
    pub fn begin_write_to(
        &mut self,
        object: ObjectId,
        value: Value,
    ) -> (RequestId, ServerId, Message) {
        let request = self.fresh_request();
        let message = Message::WriteReq {
            object,
            request,
            value,
        };
        self.launch(request, message)
    }

    /// Starts a read of the default object; returns
    /// `(request, server, message to send)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is full.
    pub fn begin_read(&mut self) -> (RequestId, ServerId, Message) {
        self.begin_read_from(self.object)
    }

    /// Starts a read of an explicit object (multi-register deployments).
    ///
    /// # Panics
    ///
    /// Panics if the window is full.
    pub fn begin_read_from(&mut self, object: ObjectId) -> (RequestId, ServerId, Message) {
        let request = self.fresh_request();
        let message = Message::ReadReq { object, request };
        self.launch(request, message)
    }

    /// Feeds a server reply; returns the completion if it answers an
    /// in-flight request. Replies complete **out of order** — whichever
    /// request the reply names finishes. Duplicate and stale replies
    /// (an earlier attempt's answer arriving after the retry already
    /// completed, or a reply for a request this session never issued)
    /// return `None`.
    pub fn on_reply(&mut self, reply: &Message) -> Option<Completion> {
        let (request, value) = match reply {
            Message::WriteAck { request, .. } => (*request, None),
            Message::ReadAck { request, value, .. } => (*request, Some(value.clone())),
            // Requests, ring traffic and stats exchanges are not register
            // replies; ignored by name so a new wire variant forces a
            // decision here. (Stats run outside the session window — the
            // transport answers them without consuming an op slot.)
            Message::WriteReq { .. }
            | Message::ReadReq { .. }
            | Message::StatsRequest { .. }
            | Message::StatsReply { .. }
            | Message::Ring(_)
            | Message::RingBatch(_) => return None,
        };
        self.inflight.remove(&request).map(|inflight| {
            // The answering server (almost surely the request's current
            // target — a reply raced by a retry at worst flips the wrong
            // hint, costing one future timeout) is evidently alive:
            // completions heal the map, so a re-probe that succeeds
            // un-shuns a restarted server without transport help.
            if let Some(a) = self.alive.get_mut(inflight.server.index()) {
                *a = true;
            }
            Completion { request, value }
        })
    }

    /// The transport's reply timer fired for `request`: re-issue it to
    /// the next server believed alive. Returns `None` if the request
    /// already completed (stale timer). Retry state is **per request**:
    /// other in-flight operations keep their servers and attempt counts.
    ///
    /// When the retries of this one request have walked the entire ring
    /// (a full dead cycle), the shared alive-map resets to all-alive:
    /// either every server really is down (and correctness never depended
    /// on the map) or the suspicions have gone stale — e.g. every suspect
    /// has since restarted — and shunning them forever would be a
    /// livelock.
    pub fn on_timeout(&mut self, request: RequestId) -> Option<(ServerId, Message)> {
        let n = self.n;
        let (from, attempts) = {
            let inflight = self.inflight.get_mut(&request)?;
            inflight.attempts += 1;
            (inflight.server, inflight.attempts)
        };
        if attempts % u32::from(n) == 0 {
            // A full cycle of silence: our suspicions bought nothing.
            // Start probing everyone again.
            self.alive.iter_mut().for_each(|a| *a = true);
        }
        let next = self.next_server_after(from);
        hts_metrics::counter!("hts_session_retries_total").inc();
        hts_metrics::flight::record(
            hts_metrics::flight::KIND_OP_RETRY,
            request.0,
            u64::from(from.0),
            u64::from(next.0),
        );
        // Still present: nothing between the two lookups removes entries.
        let inflight = self.inflight.get_mut(&request)?;
        inflight.server = next;
        Some((next, inflight.message.clone()))
    }

    /// The failure detector (or connection teardown) reported `s`
    /// crashed: skip it in future routing, and re-issue **every**
    /// in-flight request that was waiting on it. Returns the re-sends,
    /// oldest request first.
    pub fn on_server_down(&mut self, s: ServerId) -> Vec<(RequestId, ServerId, Message)> {
        if let Some(a) = self.alive.get_mut(s.index()) {
            if *a {
                hts_metrics::counter!("hts_session_server_down_total").inc();
                hts_metrics::flight::record(
                    hts_metrics::flight::KIND_ALIVE_TRANSITION,
                    u64::from(s.0),
                    0,
                    u64::from(self.id.0),
                );
            }
            *a = false;
        }
        let stranded: Vec<RequestId> = self
            .inflight
            .iter()
            .filter(|(_, i)| i.server == s)
            .map(|(r, _)| *r)
            .collect();
        stranded
            .into_iter()
            .filter_map(|request| {
                self.on_timeout(request)
                    .map(|(server, message)| (request, server, message))
            })
            .collect()
    }

    /// The transport observed `s` healthy again (a reconnect succeeded,
    /// typically to a restarted server): clear the suspicion so routing
    /// may prefer it again. In-flight requests keep their current
    /// targets.
    pub fn on_server_up(&mut self, s: ServerId) {
        if let Some(a) = self.alive.get_mut(s.index()) {
            if !*a {
                hts_metrics::counter!("hts_session_server_up_total").inc();
                hts_metrics::flight::record(
                    hts_metrics::flight::KIND_ALIVE_TRANSITION,
                    u64::from(s.0),
                    1,
                    u64::from(self.id.0),
                );
            }
            *a = true;
        }
    }

    /// Abandons an in-flight request (the transport exhausted its retry
    /// budget). Returns whether it was still in flight. A late reply for
    /// an aborted request is treated as stale.
    pub fn abort(&mut self, request: RequestId) -> bool {
        self.inflight.remove(&request).is_some()
    }

    fn fresh_request(&mut self) -> RequestId {
        self.next_request += 1;
        // Request ids are unique per client; transports key replies on
        // (client, request).
        RequestId(self.next_request)
    }

    #[expect(clippy::disallowed_macros, reason = "documented on every `begin_*`")]
    fn launch(&mut self, request: RequestId, message: Message) -> (RequestId, ServerId, Message) {
        assert!(
            self.has_capacity(),
            "{}: session window of {} full",
            self.id,
            self.window
        );
        self.launches += 1;
        let server = if self.alive[self.preferred.index()] {
            self.preferred
        } else if self.launches.is_multiple_of(REPROBE_PERIOD) {
            // Periodic optimism: aim at the suspected preferred server
            // anyway. A restarted server answers (and the transport's
            // reconnect reports it up); a still-dead one costs this one
            // request a retry timeout.
            self.preferred
        } else {
            self.next_server_after(self.preferred)
        };
        self.inflight.insert(
            request,
            Inflight {
                message: message.clone(),
                server,
                attempts: 0,
            },
        );
        // Occupancy *after* the insert: how full the window runs when ops
        // launch, the pipelining signal the fig1 window ablation varies.
        hts_metrics::histogram!("hts_session_window_inflight").record(self.inflight.len() as u64);
        (request, server, message)
    }

    fn next_server_after(&self, s: ServerId) -> ServerId {
        let n = usize::from(self.n);
        for step in 1..=n {
            let idx = (s.index() + step) % n;
            if self.alive[idx] {
                return ServerId(idx as u16);
            }
        }
        // Everyone suspected: fall back to round-robin anyway (the paper
        // assumes at least one correct server, so suspicion must be wrong).
        ServerId(((s.index() + 1) % n) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(window: usize) -> SessionCore {
        SessionCore::new(ClientId(7), ObjectId::SINGLE, 3, ServerId(1), window)
    }

    fn write_ack(request: RequestId) -> Message {
        Message::WriteAck {
            object: ObjectId::SINGLE,
            request,
        }
    }

    #[test]
    fn window_admits_and_caps_concurrency() {
        let mut s = session(3);
        let (r1, ..) = s.begin_write(Value::from_u64(1));
        let (r2, ..) = s.begin_write(Value::from_u64(2));
        let (r3, ..) = s.begin_write(Value::from_u64(3));
        assert_eq!(s.in_flight(), 3);
        assert!(!s.has_capacity());
        assert!(s.on_reply(&write_ack(r2)).is_some());
        assert!(s.has_capacity());
        assert!(s.is_inflight(r1) && s.is_inflight(r3));
    }

    #[test]
    fn completions_arrive_out_of_order_exactly_once() {
        let mut s = session(4);
        let ids: Vec<RequestId> = (0..4)
            .map(|i| s.begin_write(Value::from_u64(i)).0)
            .collect();
        for &r in [ids[2], ids[0], ids[3], ids[1]].iter() {
            let done = s.on_reply(&write_ack(r)).expect("first reply completes");
            assert_eq!(done.request, r);
            assert!(s.on_reply(&write_ack(r)).is_none(), "duplicate ignored");
        }
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn per_request_retries_are_independent() {
        let mut s = session(2);
        let (r1, s1, _) = s.begin_read();
        let (r2, s2, _) = s.begin_read();
        assert_eq!((s1, s2), (ServerId(1), ServerId(1)));
        let (next, _) = s.on_timeout(r1).expect("retry");
        assert_eq!(next, ServerId(2));
        // r2 is untouched by r1's retry.
        assert_eq!(s.server_of(r2), Some(ServerId(1)));
        assert_eq!(s.server_of(r1), Some(ServerId(2)));
    }

    #[test]
    fn server_down_reroutes_every_stranded_request() {
        let mut s = session(3);
        let (r1, ..) = s.begin_read();
        let (r2, ..) = s.begin_read();
        let (r3, ..) = s.begin_read();
        let resends = s.on_server_down(ServerId(1));
        let rerouted: Vec<RequestId> = resends.iter().map(|(r, ..)| *r).collect();
        assert_eq!(rerouted, vec![r1, r2, r3], "oldest first");
        for (_, server, _) in &resends {
            assert_eq!(*server, ServerId(2));
        }
    }

    #[test]
    fn server_up_recovers_the_preferred_server() {
        let mut s = session(2);
        let resends = s.on_server_down(ServerId(1));
        assert!(resends.is_empty());
        let (r, server, _) = s.begin_read();
        assert_eq!(server, ServerId(2), "dead preferred skipped");
        s.on_server_up(ServerId(1));
        let (_, server, _) = s.begin_read();
        assert_eq!(server, ServerId(1), "recovered preferred used again");
        // The rerouted request kept its target.
        assert_eq!(s.server_of(r), Some(ServerId(2)));
    }

    #[test]
    fn full_dead_cycle_resets_the_alive_map() {
        let mut s = session(1);
        s.on_server_down(ServerId(0));
        s.on_server_down(ServerId(2));
        let (r, server, _) = s.begin_read();
        assert_eq!(server, ServerId(1), "only survivor preferred");
        // Ring walk: 3 timeouts = a full cycle; the map resets.
        s.on_timeout(r);
        s.on_timeout(r);
        assert!(!s.believed_alive()[0]);
        s.on_timeout(r);
        assert!(
            s.believed_alive().iter().all(|&a| a),
            "full cycle of silence resets suspicions"
        );
    }

    #[test]
    fn reprobe_period_revisits_a_dead_preferred() {
        let mut s = session(1);
        s.on_server_down(ServerId(1));
        let mut probed = false;
        for _ in 0..REPROBE_PERIOD {
            let (r, server, _) = s.begin_read();
            if server == ServerId(1) {
                probed = true;
            }
            assert!(s
                .on_reply(&Message::ReadAck {
                    object: ObjectId::SINGLE,
                    request: r,
                    value: Value::bottom(),
                })
                .is_some());
        }
        assert!(probed, "one launch per period probes the suspect");
    }

    #[test]
    fn abort_makes_late_replies_stale() {
        let mut s = session(2);
        let (r1, ..) = s.begin_read();
        assert!(s.abort(r1));
        assert!(!s.abort(r1));
        assert!(s.on_reply(&write_ack(r1)).is_none());
        assert!(s.on_timeout(r1).is_none());
    }

    fn read_ack(request: RequestId, value: Value) -> Message {
        Message::ReadAck {
            object: ObjectId::SINGLE,
            request,
            value,
        }
    }

    #[test]
    fn window_of_one_write_round_trip() {
        let mut s = session(1);
        let (request, server, msg) = s.begin_write(Value::from_u64(1));
        assert_eq!(server, ServerId(1));
        assert!(matches!(msg, Message::WriteReq { .. }));
        assert!(!s.has_capacity());
        let done = s.on_reply(&write_ack(request)).expect("completes");
        assert_eq!((done.request, done.value), (request, None));
        assert!(s.has_capacity());
    }

    #[test]
    fn window_of_one_read_returns_its_value() {
        let mut s = session(1);
        let (request, ..) = s.begin_read();
        let done = s.on_reply(&read_ack(request, Value::from_u64(9)));
        assert_eq!(done.unwrap().value, Some(Value::from_u64(9)));
    }

    #[test]
    fn foreign_replies_are_ignored() {
        let mut s = session(1);
        let (request, ..) = s.begin_read();
        let foreign = read_ack(RequestId(999), Value::bottom());
        assert!(s.on_reply(&foreign).is_none());
        assert!(s.on_reply(&read_ack(request, Value::bottom())).is_some());
    }

    #[test]
    fn timeouts_walk_the_ring_until_the_reply() {
        let mut s = session(1);
        let (request, first, _) = s.begin_write(Value::from_u64(1));
        assert_eq!(first, ServerId(1));
        let (second, msg) = s.on_timeout(request).unwrap();
        assert_eq!(second, ServerId(2));
        assert!(matches!(msg, Message::WriteReq { .. }));
        assert_eq!(s.on_timeout(request).unwrap().0, ServerId(0));
        // A timer firing after the completion is stale.
        s.on_reply(&write_ack(request));
        assert!(s.on_timeout(request).is_none());
    }

    #[test]
    fn down_report_for_an_idle_server_resends_nothing() {
        let mut s = session(1);
        let (_, first, _) = s.begin_read();
        assert_eq!(first, ServerId(1));
        assert!(s.on_server_down(ServerId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "session window of 2 full")]
    fn overfilling_the_window_panics() {
        let mut s = session(2);
        let _ = s.begin_read();
        let _ = s.begin_read();
        let _ = s.begin_read();
    }
}
