//! End-to-end protocol tests driving rings of one-register servers by
//! hand.
//!
//! A tiny deterministic driver delivers ring frames one at a time, so tests
//! can interleave reads, writes and crashes at exact protocol steps —
//! including dropping frames that were in flight to a crashed server, the
//! failure mode the paper's recovery rule (§3, lines 85–92) exists for.

use std::collections::VecDeque;

use hts_core::{Action, Config, MultiObjectServer, ServerCore};
use hts_lincheck::{check_witnessed, History, Outcome};
use hts_types::{ClientId, ObjectId, RequestId, RingFrame, ServerId, Tag, Value};

fn val(n: u64) -> Value {
    Value::from_u64(n)
}

const X: ObjectId = ObjectId::SINGLE;

/// Deterministic single-threaded ring driver over register [`X`].
struct Driver {
    cores: Vec<Option<MultiObjectServer>>,
    /// Frames in flight: (sender, destination, frame). FIFO.
    inflight: VecDeque<(ServerId, ServerId, RingFrame)>,
    /// Every frame delivered to a live server: (sender, frame), in
    /// delivery order.
    delivered: Vec<(ServerId, RingFrame)>,
    /// Collected client-visible actions: (server, action).
    actions: Vec<(ServerId, Action)>,
}

impl Driver {
    fn new(n: u16, config: Config) -> Self {
        Driver {
            cores: (0..n)
                .map(|i| Some(MultiObjectServer::new(ServerId(i), n, config.clone())))
                .collect(),
            inflight: VecDeque::new(),
            delivered: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Server `i`'s register `X` (created by its first event).
    fn core(&self, i: u16) -> &ServerCore {
        let server = self.cores[usize::from(i)].as_ref().expect("core alive");
        server.object(X).expect("register touched")
    }

    fn server_mut(&mut self, i: u16) -> &mut MultiObjectServer {
        self.cores[usize::from(i)].as_mut().expect("core alive")
    }

    fn write(&mut self, server: u16, client: u32, request: u64, value: Value) {
        let acts =
            self.server_mut(server)
                .on_client_write(X, ClientId(client), RequestId(request), value);
        self.collect(server, acts);
    }

    fn read(&mut self, server: u16, client: u32, request: u64) {
        let acts = self
            .server_mut(server)
            .on_client_read(X, ClientId(client), RequestId(request));
        self.collect(server, acts);
    }

    fn collect(&mut self, server: u16, acts: Vec<Action>) {
        for a in acts {
            self.actions.push((ServerId(server), a));
        }
    }

    /// Every alive server offers one frame (if it has one).
    fn pump_sends(&mut self) -> usize {
        let mut sent = 0;
        for i in 0..self.cores.len() {
            let Some(core) = self.cores[i].as_mut() else {
                continue;
            };
            let Some(successor) = core.successor() else {
                continue;
            };
            if let Some(frame) = core.next_frame() {
                self.inflight.push_back((core.me(), successor, frame));
                sent += 1;
            }
        }
        sent
    }

    /// Delivers the oldest in-flight frame (dropped if its destination
    /// crashed). Returns false if nothing was in flight.
    fn deliver_one(&mut self) -> bool {
        let Some((src, dst, frame)) = self.inflight.pop_front() else {
            return false;
        };
        if let Some(core) = self.cores[dst.index()].as_mut() {
            self.delivered.push((src, frame.clone()));
            let acts = core.on_frame(frame);
            self.collect(dst.0, acts);
        }
        true
    }

    /// The pre-writes `from` delivered, as (tag, recovery) pairs.
    fn prewrites_from(&self, from: u16) -> Vec<(Tag, bool)> {
        self.delivered
            .iter()
            .filter(|(src, _)| *src == ServerId(from))
            .filter_map(|(_, frame)| frame.pre_write.as_ref())
            .map(|pw| (pw.tag, pw.recovery))
            .collect()
    }

    /// Whether server `i` has a frame waiting for its successor.
    fn has_ring_work(&self, i: u16) -> bool {
        let server = self.cores[usize::from(i)].as_ref().expect("core alive");
        server.has_ring_work()
    }

    /// Runs pump/deliver to quiescence.
    fn run(&mut self) {
        loop {
            let sent = self.pump_sends();
            let delivered = self.deliver_one();
            if sent == 0 && !delivered && self.inflight.is_empty() {
                break;
            }
        }
    }

    /// Crashes a server: in-flight frames to it are lost; survivors get
    /// the failure-detector callback.
    fn crash(&mut self, s: u16) {
        self.cores[usize::from(s)] = None;
        // Frames already in flight to the dead server are dropped at
        // delivery (deliver_one checks). Notify survivors:
        for i in 0..self.cores.len() {
            if let Some(core) = self.cores[i].as_mut() {
                let acts = core.on_server_crashed(ServerId(s));
                self.collect(i as u16, acts);
            }
        }
    }

    fn acks(&self) -> Vec<(ServerId, ClientId, RequestId)> {
        self.actions
            .iter()
            .filter_map(|(s, a)| match a {
                Action::WriteAck {
                    client, request, ..
                } => Some((*s, *client, *request)),
                _ => None,
            })
            .collect()
    }

    fn reads(&self) -> Vec<(ServerId, RequestId, Value, Tag)> {
        self.actions
            .iter()
            .filter_map(|(s, a)| match a {
                Action::ReadReply {
                    request,
                    value,
                    tag,
                    ..
                } => Some((*s, *request, value.clone(), *tag)),
                _ => None,
            })
            .collect()
    }

    fn assert_all_store(&self, value: &Value) {
        for server in self.cores.iter().flatten() {
            let stored = server.object(X).expect("register touched").stored();
            assert_eq!(stored.1, value, "at {}", server.me());
        }
    }
}

#[test]
fn single_write_completes_everywhere_with_one_ack() {
    let mut d = Driver::new(3, Config::default());
    d.write(0, 0, 1, val(42));
    d.run();
    assert_eq!(d.acks(), vec![(ServerId(0), ClientId(0), RequestId(1))]);
    d.assert_all_store(&val(42));
    // No pending leftovers, no blocked reads anywhere.
    for i in 0..3 {
        assert!(d.core(i).pending().is_empty(), "pending at s{i}");
        assert_eq!(d.core(i).waiting_reads(), 0);
    }
}

#[test]
fn read_of_initial_value_is_immediate() {
    let mut d = Driver::new(3, Config::default());
    d.read(1, 0, 1);
    let reads = d.reads();
    assert_eq!(reads.len(), 1);
    assert!(reads[0].2.is_bottom());
    assert_eq!(reads[0].3, Tag::ZERO);
}

#[test]
fn read_blocks_on_pending_prewrite_until_commit() {
    let mut d = Driver::new(3, Config::default());
    d.write(0, 0, 1, val(7));
    // Initiate + circulate the pre-write only (3 sends: s0 initiates,
    // s1 forwards, s2 forwards; 3 deliveries).
    for _ in 0..3 {
        d.pump_sends();
        d.deliver_one();
    }
    // s1 forwarded the pre-write: it is pending there; a read must block.
    assert!(d.core(1).pending().contains(Tag::new(1, ServerId(0))));
    d.read(1, 9, 100);
    assert_eq!(d.reads().len(), 0);
    assert_eq!(d.core(1).waiting_reads(), 1);
    // The origin received its own pre-write back and already applied it:
    // a read at s0 is immediate and returns the new value.
    d.read(0, 8, 200);
    let reads = d.reads();
    assert_eq!(reads.len(), 1);
    assert_eq!(reads[0].2, val(7));
    // Finish the write phase: the blocked read unblocks with the value.
    d.run();
    let reads = d.reads();
    assert_eq!(reads.len(), 2);
    let blocked = reads.iter().find(|r| r.1 == RequestId(100)).unwrap();
    assert_eq!(blocked.2, val(7));
    assert_eq!(d.core(1).waiting_reads(), 0);
}

#[test]
fn unforwarded_prewrite_does_not_block_reads() {
    let mut d = Driver::new(3, Config::default());
    d.write(0, 0, 1, val(7));
    // s0 initiates; deliver the pre-write to s1 but do NOT let s1 forward.
    d.pump_sends();
    d.deliver_one();
    // s1 received but has not forwarded: not pending yet (paper line 71 —
    // pending is added at forward time), so reads stay immediate and
    // return the old value, which is linearizable (the write has not
    // completed its announcement).
    assert!(d.core(1).pending().is_empty());
    d.read(1, 9, 100);
    let reads = d.reads();
    assert_eq!(reads.len(), 1);
    assert!(reads[0].2.is_bottom());
}

#[test]
fn concurrent_writes_converge_to_highest_tag() {
    let mut d = Driver::new(3, Config::default());
    d.write(0, 0, 1, val(100));
    d.write(1, 1, 2, val(200));
    d.run();
    // Both complete...
    let acks = d.acks();
    assert_eq!(acks.len(), 2);
    // ...and all servers agree on the lexicographically-highest tag's
    // value: both writes get ts=1, so origin breaks the tie -> s1 wins.
    d.assert_all_store(&val(200));
    let (tag, _) = d.core(0).stored();
    assert_eq!(tag, Tag::new(1, ServerId(1)));
}

#[test]
fn interleaved_writes_from_all_servers_all_complete() {
    let mut d = Driver::new(4, Config::default());
    let mut req = 0;
    for round in 0..5 {
        for s in 0..4u16 {
            req += 1;
            d.write(s, u32::from(s), req, val(1000 + round * 10 + u64::from(s)));
        }
    }
    d.run();
    assert_eq!(d.acks().len(), 20, "every write acked exactly once");
    // All servers converge.
    let stored = d.core(0).stored().1.clone();
    d.assert_all_store(&stored);
    for i in 0..4 {
        assert!(d.core(i).pending().is_empty());
    }
}

#[test]
fn fairness_interleaves_local_and_forwarded_traffic() {
    let mut d = Driver::new(2, Config::default());
    for i in 0..10 {
        d.write(0, 0, i + 1, val(100 + i));
        d.write(1, 1, 101 + i, val(200 + i));
    }
    d.run();
    assert_eq!(d.acks().len(), 20);
    // Each server sent its own ten pre-writes and forwarded the other's
    // ten, and nothing was sent twice.
    for (me, other) in [(0u16, 1u16), (1, 0)] {
        let sent = d.prewrites_from(me);
        let by = |origin: u16| sent.iter().filter(|(t, _)| t.origin.0 == origin).count();
        assert_eq!(by(me), 10, "s{me} initiated");
        assert_eq!(by(other), 10, "s{me} forwarded");
        assert!(sent.iter().all(|&(_, recovery)| !recovery));
    }
}

#[test]
fn piggyback_bundles_notice_with_prewrite() {
    let mut d = Driver::new(2, Config::default());
    // First write completes its pre-write turn, queueing a notice at s0;
    // a second write arrives: the next frame must carry both.
    d.write(0, 0, 1, val(1));
    // s0 sends pre_write(1) -> s1 forwards -> back at s0.
    d.pump_sends();
    d.deliver_one();
    d.pump_sends();
    d.deliver_one();
    // Now s0 holds a write notice for tag 1; queue a second local write.
    d.write(0, 0, 2, val(2));
    let frame = d
        .server_mut(0)
        .next_frame()
        .expect("frame with both phases");
    assert!(frame.pre_write.is_some(), "new pre-write rides the slot");
    assert!(frame.write.is_some(), "notice piggybacks (paper §4.2)");
    // Steady-state notices are tag-only.
    assert_eq!(frame.write.unwrap().value, None);
}

#[test]
fn write_carries_value_ablation_sends_values_twice() {
    let config = Config {
        write_carries_value: true,
        ..Config::default()
    };
    let mut d = Driver::new(2, config);
    d.write(0, 0, 1, val(5));
    d.pump_sends(); // pre_write out
    d.deliver_one(); // s1 forwards
    d.pump_sends();
    d.deliver_one(); // back at s0 -> notice queued
    let frame = d.server_mut(0).next_frame().expect("notice frame");
    assert_eq!(
        frame.write.expect("write notice").value,
        Some(val(5)),
        "ablation A1 carries the value in the commit"
    );
}

#[test]
fn read_fast_path_skips_blocking_when_stored_dominates() {
    let config = Config {
        read_fast_path: true,
        ..Config::default()
    };
    let mut d = Driver::new(2, config);
    // Complete one write fully.
    d.write(0, 0, 1, val(1));
    d.run();
    // Now make a *lower-tagged* scenario impossible; instead pend a new
    // higher write and check the plain path still blocks...
    d.write(1, 1, 2, val(2));
    for _ in 0..2 {
        d.pump_sends();
        d.deliver_one();
    }
    // s0 forwarded pre_write(2,s1): pending; stored tag is (1,s0) < (2,s1):
    // fast path does not apply; read blocks.
    d.read(0, 9, 50);
    assert_eq!(d.core(0).waiting_reads(), 1);
    d.run();
    // After commit, pending clears. Queue another pre-write from s1 but
    // this time let the *write* notice arrive first elsewhere... simpler:
    // no pending at all -> immediate (fast path equals plain path there).
    d.read(0, 9, 51);
    assert!(d.reads().iter().any(|r| r.1 == RequestId(51)));
}

#[test]
fn successor_crash_mid_prewrite_is_recovered_by_retransmission() {
    let mut d = Driver::new(3, Config::default());
    d.write(0, 0, 1, val(77));
    // s0 initiates: pre_write in flight to s1.
    d.pump_sends();
    d.deliver_one(); // s1 queues it
    d.pump_sends(); // s1 forwards: frame in flight to s2
    assert!(!d.has_ring_work(1));
    // s2 dies with the frame in flight: the frame is lost.
    d.crash(2);
    // s1 spliced the ring and queued a re-send for its new successor.
    assert_eq!(d.server_mut(1).successor(), Some(ServerId(0)));
    assert!(d.has_ring_work(1), "s1 re-sends what s2 may have lost");
    // Recovery: s1 re-sends its pending pre-writes to its new successor
    // (s0); the write completes on the 2-ring.
    d.run();
    assert!(d
        .prewrites_from(1)
        .contains(&(Tag::new(1, ServerId(0)), true)));
    assert_eq!(d.acks(), vec![(ServerId(0), ClientId(0), RequestId(1))]);
    assert_eq!(d.core(0).stored().1, &val(77));
    assert_eq!(d.core(1).stored().1, &val(77));
    assert!(d.core(0).pending().is_empty());
    assert!(d.core(1).pending().is_empty());
}

#[test]
fn origin_crash_orphans_are_adopted_and_unblock_readers() {
    let mut d = Driver::new(3, Config::default());
    d.write(0, 0, 1, val(55));
    // Let the pre-write circulate fully: s0 -> s1 -> s2 -> s0.
    for _ in 0..3 {
        d.pump_sends();
        d.deliver_one();
    }
    // s0 has its notice queued but dies before sending it. s1 and s2
    // still carry tag (1,s0) pending.
    let tag = Tag::new(1, ServerId(0));
    assert!(d.core(1).pending().contains(tag));
    assert!(d.core(2).pending().contains(tag));
    // A read blocks at s2.
    d.read(2, 9, 100);
    assert_eq!(d.core(2).waiting_reads(), 1);
    assert!(!d.has_ring_work(1));
    d.crash(0);
    // s1 is the adopter (first alive successor of s0): it re-issues the
    // orphan under its original tag. s0 was not its successor, so
    // without the adoption it would have nothing to send.
    assert!(d.has_ring_work(1));
    d.run();
    assert!(d.prewrites_from(1).contains(&(tag, true)));
    // The adopted write committed under its original tag everywhere.
    assert_eq!(d.core(1).stored(), (tag, &val(55)));
    assert_eq!(d.core(2).stored(), (tag, &val(55)));
    assert!(d.core(1).pending().is_empty());
    assert!(d.core(2).pending().is_empty());
    // And the blocked reader got the adopted value.
    let reads = d.reads();
    assert_eq!(reads.len(), 1);
    assert_eq!(reads[0].2, val(55));
}

#[test]
fn later_commit_subsumes_an_older_pending_prewrite_and_unblocks_its_reader() {
    // A read blocked on one pending pre-write is released by the commit
    // of any later write, which also retires the older pre-write. This
    // ordering arises once a crash re-routes circulations: here s2 hears
    // s1's commit before s0's.
    let mut s2 = MultiObjectServer::new(ServerId(2), 3, Config::default());
    let older = Tag::new(1, ServerId(0));
    let later = Tag::new(2, ServerId(1));
    s2.on_frame(RingFrame::pre_write(X, older, val(55)));
    assert!(s2.next_frame().is_some(), "s2 forwards the pre-write");
    assert!(s2.on_client_read(X, ClientId(9), RequestId(100)).is_empty());
    assert_eq!(s2.object(X).unwrap().waiting_reads(), 1);

    s2.on_frame(RingFrame::pre_write(X, later, val(66)));
    assert!(s2.next_frame().is_some(), "s2 forwards the later pre-write");
    let released = s2.on_frame(RingFrame::write(X, later));
    assert_eq!(
        released,
        vec![Action::ReadReply {
            object: X,
            client: ClientId(9),
            request: RequestId(100),
            value: val(66),
            tag: later,
        }],
        "the reader gets the newer committed value"
    );
    let core = s2.object(X).unwrap();
    assert!(core.pending().is_empty(), "the older pre-write is subsumed");
    assert_eq!(core.stored(), (later, &val(66)));
}

#[test]
fn cascade_to_single_survivor_completes_everything() {
    let mut d = Driver::new(3, Config::default());
    d.write(0, 0, 1, val(1));
    for _ in 0..2 {
        d.pump_sends();
        d.deliver_one();
    }
    d.read(1, 9, 100); // blocks at s1 (pre-write pending there)
    assert_eq!(d.core(1).waiting_reads(), 1);
    d.crash(0);
    d.crash(2);
    // s1 alone: everything in flight completes locally.
    assert_eq!(d.core(1).waiting_reads(), 0);
    let reads = d.reads();
    assert_eq!(reads.len(), 1);
    assert_eq!(reads[0].2, val(1), "orphaned pre-write committed locally");
    // New ops work immediately.
    d.write(1, 1, 2, val(2));
    d.read(1, 1, 3);
    assert_eq!(d.acks().len(), 1);
    assert_eq!(d.reads().len(), 2);
}

#[test]
fn recovery_retransmission_does_not_double_ack() {
    let mut d = Driver::new(4, Config::default());
    d.write(0, 0, 1, val(9));
    d.run();
    assert_eq!(d.acks().len(), 1);
    // Crash s2: s1 re-sends its (empty) pending + stored write. The
    // retransmitted committed write circulates but acks nothing twice.
    d.crash(2);
    d.run();
    assert_eq!(d.acks().len(), 1);
    d.assert_all_store(&val(9));
}

#[test]
fn subsumption_acks_overtaken_writes() {
    // s0's write is cut by a crash during its write phase; a later write
    // from s1 subsumes it, and s0 must still ack its client.
    let mut d = Driver::new(3, Config::default());
    d.write(0, 0, 1, val(10));
    // Full pre-write turn for tag (1,s0).
    for _ in 0..3 {
        d.pump_sends();
        d.deliver_one();
    }
    // s0 emits write notice; deliver to s1 (applies) but the forward to s2
    // is lost with s2's crash.
    d.pump_sends(); // notice -> s1
    d.deliver_one();
    d.pump_sends(); // s1 forwards notice -> s2 (in flight)
    d.crash(2); // frame lost
                // s1 (predecessor of s2) retransmits its stored write (tag (1,s0)!) to
                // its new successor s0 — s0 recognizes its own tag and acks.
    d.run();
    assert_eq!(d.acks(), vec![(ServerId(0), ClientId(0), RequestId(1))]);
    assert_eq!(d.core(0).stored().1, &val(10));
    assert_eq!(d.core(1).stored().1, &val(10));
}

#[test]
fn witnessed_history_from_driver_run_is_linearizable() {
    // Record a small mixed run into a History with tag witnesses taken
    // from the ReadReply actions and write tags from the stored state.
    let mut d = Driver::new(3, Config::default());
    let mut h = History::new();
    let mut t = 0u64;
    let mut tick = || {
        t += 10;
        t
    };

    // w1: value 1 via s0.
    let w1 = h.invoke_write(ClientId(0), val(1), tick());
    d.write(0, 0, 1, val(1));
    d.run();
    h.complete_write(w1, tick());
    h.set_witness(w1, Tag::new(1, ServerId(0)));

    // r1 at s2.
    let r1 = h.invoke_read(ClientId(1), tick());
    d.read(2, 1, 2);
    let got = d.reads().last().unwrap().clone();
    h.complete_read(r1, got.2.clone(), tick());
    h.set_witness(r1, got.3);

    // w2 concurrent-ish: value 2 via s1.
    let w2 = h.invoke_write(ClientId(2), val(2), tick());
    d.write(1, 2, 3, val(2));
    d.run();
    h.complete_write(w2, tick());
    h.set_witness(w2, Tag::new(2, ServerId(1)));

    // r2 at s0 sees the newest value.
    let r2 = h.invoke_read(ClientId(1), tick());
    d.read(0, 1, 4);
    let got = d.reads().last().unwrap().clone();
    h.complete_read(r2, got.2.clone(), tick());
    h.set_witness(r2, got.3);
    assert_eq!(got.2, val(2));

    assert_eq!(check_witnessed(&h), Outcome::Linearizable);
}

#[test]
fn figure2_walkthrough_scenario() {
    // The paper's Figure 2, scripted: 5 servers; s1 writes v2 while s3 and
    // s5 serve readers. (Paper numbering s1..s5 = our s0..s4.)
    let mut d = Driver::new(5, Config::default());
    // Panel 1: W(v2) arrives at s0; pre_write(v2) starts circulating.
    d.write(0, 0, 1, val(2));
    // Deliver pre-write hops s0->s1->s2 and let s2 forward so it pends.
    for _ in 0..3 {
        d.pump_sends();
        d.deliver_one();
    }
    // s2 (paper's s3) forwarded the pre-write: its reader must wait...
    d.read(2, 10, 100);
    assert_eq!(d.core(2).waiting_reads(), 1, "s3 must wait (panel 1)");
    // ...whereas s4 (paper's s5) has not seen it: replies v1 directly.
    d.read(4, 11, 101);
    let reads = d.reads();
    assert_eq!(reads.len(), 1);
    assert!(reads[0].2.is_bottom(), "s5 replies the old value directly");
    // Panel 2: the pre-write finishes its turn; s0 starts the write phase.
    for _ in 0..2 {
        d.pump_sends();
        d.deliver_one();
    }
    // Write notice reaches s1 then s2: s3's reader unblocks with v2.
    d.pump_sends();
    d.deliver_one();
    d.pump_sends();
    d.deliver_one();
    let reads = d.reads();
    assert_eq!(reads.len(), 2, "s3's reader answered (panel 2)");
    assert_eq!(reads[1].2, val(2));
    // Panel 3: the notice completes the turn; s0 acks the writer, and a
    // new reader at s4 (which now knows v2 committed) gets v2 immediately.
    d.run();
    assert_eq!(d.acks().len(), 1, "W(v2): ok (panel 3)");
    d.read(4, 11, 102);
    let reads = d.reads();
    assert_eq!(reads.last().unwrap().2, val(2));
}

#[test]
fn frames_whose_origin_is_outside_the_ring_are_dropped() {
    // Watermarks are kept per ring member; a tag naming any other origin
    // can only come from a misbehaving peer and goes no further.
    let mut server = MultiObjectServer::new(ServerId(1), 3, Config::default());
    let stray = Tag::new(5, ServerId(u16::MAX));
    assert!(server
        .on_frame(RingFrame::pre_write(X, stray, val(5)))
        .is_empty());
    let stray = Tag::new(6, ServerId(3));
    assert!(server
        .on_frame(RingFrame::write_with_value(X, stray, val(6)))
        .is_empty());
    let core = server.object(X).expect("register touched");
    assert!(core.pending().is_empty());
    assert_eq!(core.stored().0, Tag::ZERO);
    assert!(!server.has_ring_work());

    // Members' traffic still flows.
    server.on_frame(RingFrame::pre_write(X, Tag::new(1, ServerId(2)), val(1)));
    assert!(server.has_ring_work());
}

#[test]
fn server_core_drain_frames_matches_sequential_next_frame() {
    // The batch scheduler over one register must yield the frame
    // sequence repeated `next_frame()` pulls would, respect its caps,
    // and still release one frame on a zero byte budget.
    let build = || {
        let mut server = MultiObjectServer::new(ServerId(1), 3, Config::default());
        for ts in 1..=4u64 {
            server.on_frame(RingFrame::pre_write(X, Tag::new(ts, ServerId(0)), val(ts)));
        }
        server.on_client_write(X, ClientId(7), RequestId(1), val(100));
        server
    };

    let mut batched = build();
    let mut sequential = build();
    let drained = batched.drain_frames(16, usize::MAX);
    let mut one_at_a_time = Vec::new();
    while let Some(frame) = sequential.next_frame() {
        one_at_a_time.push(frame);
    }
    assert!(drained.len() >= 5, "expected real traffic, got {drained:?}");
    assert_eq!(drained, one_at_a_time);
    assert!(!batched.has_ring_work());

    // Caps: frame cap, zero-byte budget (first frame always ships),
    // and a zero frame cap clamping to one.
    let mut capped = build();
    assert_eq!(capped.drain_frames(2, usize::MAX).len(), 2);
    assert_eq!(capped.drain_frames(16, 0).len(), 1);
    assert_eq!(capped.drain_frames(0, usize::MAX).len(), 1);
}
