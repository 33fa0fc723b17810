//! End-to-end protocol tests driving `ServerCore` rings by hand.
//!
//! A tiny deterministic driver delivers ring frames one at a time, so tests
//! can interleave reads, writes and crashes at exact protocol steps —
//! including dropping frames that were in flight to a crashed server, the
//! failure mode the paper's recovery rule (§3, lines 85–92) exists for.

use std::collections::VecDeque;

use hts_core::{Action, Config, ServerCore};
use hts_lincheck::{check_witnessed, History, Outcome};
use hts_types::{ClientId, ObjectId, RequestId, RingFrame, ServerId, Tag, Value};

fn val(n: u64) -> Value {
    Value::from_u64(n)
}

/// Deterministic single-threaded ring driver.
struct Driver {
    cores: Vec<Option<ServerCore>>,
    /// Frames in flight: (destination, frame). FIFO.
    inflight: VecDeque<(ServerId, RingFrame)>,
    /// Collected client-visible actions: (server, action).
    actions: Vec<(ServerId, Action)>,
}

impl Driver {
    fn new(n: u16, config: Config) -> Self {
        Driver {
            cores: (0..n)
                .map(|i| {
                    Some(ServerCore::new(
                        ServerId(i),
                        n,
                        ObjectId::SINGLE,
                        config.clone(),
                    ))
                })
                .collect(),
            inflight: VecDeque::new(),
            actions: Vec::new(),
        }
    }

    fn core(&self, i: u16) -> &ServerCore {
        self.cores[usize::from(i)].as_ref().expect("core alive")
    }

    fn core_mut(&mut self, i: u16) -> &mut ServerCore {
        self.cores[usize::from(i)].as_mut().expect("core alive")
    }

    fn write(&mut self, server: u16, client: u32, request: u64, value: Value) {
        let acts =
            self.core_mut(server)
                .on_client_write(ClientId(client), RequestId(request), value);
        self.collect(server, acts);
    }

    fn read(&mut self, server: u16, client: u32, request: u64) {
        let acts = self
            .core_mut(server)
            .on_client_read(ClientId(client), RequestId(request));
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
                self.inflight.push_back((successor, frame));
                sent += 1;
            }
        }
        sent
    }

    /// Delivers the oldest in-flight frame (dropped if its destination
    /// crashed). Returns false if nothing was in flight.
    fn deliver_one(&mut self) -> bool {
        let Some((dst, frame)) = self.inflight.pop_front() else {
            return false;
        };
        if let Some(core) = self.cores[dst.index()].as_mut() {
            let acts = core.on_frame(frame);
            self.collect(dst.0, acts);
        }
        true
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
        for core in self.cores.iter().flatten() {
            assert_eq!(core.stored().1, value, "at {}", core.me());
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
    let s0 = d.core(0).stats().clone();
    let s1 = d.core(1).stats().clone();
    assert_eq!(s0.writes_initiated, 10);
    assert_eq!(s1.writes_initiated, 10);
    assert_eq!(s0.prewrites_forwarded, 10);
    assert_eq!(s1.prewrites_forwarded, 10);
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
    let core = d.core_mut(0);
    let frame = core.next_frame().expect("frame with both phases");
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
    let frame = d.core_mut(0).next_frame().expect("notice frame");
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
                    // s2 dies with the frame in flight: the frame is lost.
    d.crash(2);
    assert!(d.core(1).stats().recoveries >= 1, "s1 spliced the ring");
    // Recovery: s1 re-sends its pending pre-writes to its new successor
    // (s0); the write completes on the 2-ring.
    d.run();
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
    d.crash(0);
    // s1 is the adopter (first alive successor of s0).
    assert!(d.core(1).stats().adoptions >= 1);
    d.run();
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
fn without_adoption_orphaned_readers_stay_blocked() {
    let config = Config {
        adopt_orphans: false,
        ..Config::default()
    };
    let mut d = Driver::new(3, config);
    d.write(0, 0, 1, val(55));
    for _ in 0..3 {
        d.pump_sends();
        d.deliver_one();
    }
    d.read(2, 9, 100);
    d.crash(0);
    d.run();
    // Liveness loss the adoption rule exists to prevent: the reader waits
    // forever (until some future write subsumes the orphan).
    assert_eq!(d.core(2).waiting_reads(), 1);
    assert_eq!(d.reads().len(), 0);
}

#[test]
fn orphan_subsumed_by_later_write_unblocks_without_adoption() {
    let config = Config {
        adopt_orphans: false,
        ..Config::default()
    };
    let mut d = Driver::new(3, config);
    d.write(0, 0, 1, val(55));
    for _ in 0..3 {
        d.pump_sends();
        d.deliver_one();
    }
    d.read(2, 9, 100);
    d.crash(0);
    d.run();
    assert_eq!(d.core(2).waiting_reads(), 1);
    // A fresh write through s1 subsumes the orphan and releases the read.
    d.write(1, 1, 2, val(66));
    d.run();
    let reads = d.reads();
    assert_eq!(reads.len(), 1);
    assert_eq!(reads[0].2, val(66), "reader gets the newer committed value");
    assert!(d.core(2).pending().is_empty());
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
    let mut core = ServerCore::new(ServerId(1), 3, ObjectId::SINGLE, Config::default());
    let stray = Tag::new(5, ServerId(u16::MAX));
    assert!(core
        .on_frame(RingFrame::pre_write(ObjectId::SINGLE, stray, val(5)))
        .is_empty());
    let stray = Tag::new(6, ServerId(3));
    assert!(core
        .on_frame(RingFrame::write_with_value(ObjectId::SINGLE, stray, val(6)))
        .is_empty());
    assert_eq!(core.stats().duplicates_dropped, 2);
    assert!(!core.has_ring_work());
    assert!(core.pending().is_empty());
    assert_eq!(core.stored().0, Tag::ZERO);

    // Members' traffic still flows.
    core.on_frame(RingFrame::pre_write(
        ObjectId::SINGLE,
        Tag::new(1, ServerId(2)),
        val(1),
    ));
    assert!(core.has_ring_work());
    assert_eq!(core.stats().duplicates_dropped, 2);
}

#[test]
fn server_core_drain_frames_matches_sequential_next_frame() {
    // The per-core batch scheduler (used by single-object embedders)
    // must mirror `MultiObjectServer::drain_frames`: identical frame
    // sequence to repeated `next_frame()` pulls, caps respected, and a
    // zero byte budget still releases one frame.
    let build = || {
        let mut core = ServerCore::new(ServerId(1), 3, ObjectId::SINGLE, Config::default());
        for ts in 1..=4u64 {
            core.on_frame(RingFrame::pre_write(
                ObjectId::SINGLE,
                Tag::new(ts, ServerId(0)),
                val(ts),
            ));
        }
        core.on_client_write(ClientId(7), RequestId(1), val(100));
        core
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
