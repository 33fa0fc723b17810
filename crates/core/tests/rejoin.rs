//! Crash-**recovery** protocol tests: a server restarts from its
//! persisted commits, rejoins the ring through the announcement
//! circulation, resyncs from its new predecessor and serves again —
//! all driven by hand-delivering frames, no I/O.

use std::collections::BTreeMap;

use hts_core::{Action, Config, Durability, MultiObjectServer};
use hts_types::{ClientId, ObjectId, PreWrite, Rejoin, RequestId, RingFrame, ServerId, Tag, Value};

/// A hand-driven ring of multi-object servers. `None` = crashed.
struct Ring {
    servers: Vec<Option<MultiObjectServer>>,
    /// Modeled per-server WAL: commits drained after every event.
    logs: Vec<BTreeMap<ObjectId, (Tag, Value)>>,
}

impl Ring {
    fn new(n: u16, config: Config) -> Ring {
        Ring {
            servers: (0..n)
                .map(|i| Some(MultiObjectServer::new(ServerId(i), n, config.clone())))
                .collect(),
            logs: (0..n).map(|_| BTreeMap::new()).collect(),
        }
    }

    fn server(&mut self, s: u16) -> &mut MultiObjectServer {
        self.servers[usize::from(s)].as_mut().expect("server alive")
    }

    fn persist(&mut self, s: u16) {
        let commits = self.server(s).drain_commits();
        for (object, tag, value) in commits {
            let entry = self.logs[usize::from(s)]
                .entry(object)
                .or_insert((tag, value.clone()));
            if entry.0 < tag {
                *entry = (tag, value);
            }
        }
    }

    /// Delivers frames until the ring quiesces, collecting all actions.
    fn drive(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        loop {
            let mut progressed = false;
            for i in 0..self.servers.len() {
                let Some(server) = self.servers[i].as_mut() else {
                    continue;
                };
                let Some(successor) = server.successor() else {
                    continue;
                };
                let Some(frame) = server.next_frame() else {
                    continue;
                };
                progressed = true;
                self.persist(i as u16);
                if let Some(dest) = self.servers[successor.index()].as_mut() {
                    actions.extend(dest.on_frame(frame));
                    self.persist(successor.0);
                }
            }
            if !progressed {
                return actions;
            }
        }
    }

    fn crash(&mut self, s: u16) -> Vec<Action> {
        self.servers[usize::from(s)] = None;
        let mut actions = Vec::new();
        for server in self.servers.iter_mut().flatten() {
            actions.extend(server.on_server_crashed(ServerId(s)));
        }
        actions
    }

    /// Boots a fresh instance of `s` from its modeled WAL and announces
    /// the rejoin.
    fn restart(&mut self, s: u16, config: Config) {
        let n = self.servers.len() as u16;
        let mut server = MultiObjectServer::new(ServerId(s), n, config);
        server.restore_state(
            self.logs[usize::from(s)]
                .iter()
                .map(|(object, (tag, value))| (*object, *tag, value.clone())),
        );
        server.begin_rejoin();
        self.servers[usize::from(s)] = Some(server);
    }
}

fn durable_config() -> Config {
    Config {
        durability: Durability::SyncAlways,
        ..Config::default()
    }
}

fn write(ring: &mut Ring, via: u16, req: u64, value: Value) {
    write_to(ring, via, ObjectId::SINGLE, req, value);
}

fn write_to(ring: &mut Ring, via: u16, object: ObjectId, req: u64, value: Value) {
    let mut actions = ring
        .server(via)
        .on_client_write(object, ClientId(0), RequestId(req), value);
    ring.persist(via);
    actions.extend(ring.drive());
    assert!(acked(&actions, req), "write {req} not acknowledged");
}

fn acked(actions: &[Action], req: u64) -> bool {
    actions
        .iter()
        .any(|a| matches!(a, Action::WriteAck { request, .. } if *request == RequestId(req)))
}

fn read_value(actions: &[Action], req: u64) -> Option<Value> {
    actions.iter().find_map(|a| match a {
        Action::ReadReply { request, value, .. } if *request == RequestId(req) => {
            Some(value.clone())
        }
        _ => None,
    })
}

#[test]
fn commits_reach_the_modeled_log_on_every_server() {
    let mut ring = Ring::new(3, durable_config());
    write(&mut ring, 0, 1, Value::from_u64(11));
    for s in 0..3 {
        let log = &ring.logs[s];
        assert_eq!(
            log.get(&ObjectId::SINGLE).map(|(_, v)| v.clone()),
            Some(Value::from_u64(11)),
            "server {s} log"
        );
    }
}

#[test]
fn restarted_server_resyncs_and_serves_missed_writes() {
    let mut ring = Ring::new(3, durable_config());
    write(&mut ring, 0, 1, Value::from_u64(1));

    ring.crash(1);
    ring.drive();
    // s1 misses this write entirely.
    write(&mut ring, 0, 2, Value::from_u64(2));

    ring.restart(1, durable_config());
    assert!(ring.server(1).is_syncing());
    // Restored state is the pre-crash value — reads must NOT see it yet.
    let immediate = ring
        .server(1)
        .on_client_read(ObjectId::SINGLE, ClientId(9), RequestId(10));
    assert!(immediate.is_empty(), "stale read served during resync");

    // Announcement circulates, predecessor re-sends state, sync completes.
    let actions = ring.drive();
    assert!(!ring.server(1).is_syncing(), "rejoin never completed");
    assert_eq!(
        read_value(&actions, 10),
        Some(Value::from_u64(2)),
        "queued read must see the missed write after resync"
    );

    // The rejoined server participates in new writes again.
    write(&mut ring, 1, 3, Value::from_u64(3));
    for s in [0u16, 1, 2] {
        let got = ring.server(s).on_client_read(
            ObjectId::SINGLE,
            ClientId(5),
            RequestId(20 + u64::from(s)),
        );
        let mut all = got;
        all.extend(ring.drive());
        assert_eq!(
            read_value(&all, 20 + u64::from(s)),
            Some(Value::from_u64(3)),
            "server {s} after rejoin"
        );
    }
}

#[test]
fn writes_issued_during_resync_wait_for_fresh_tags() {
    let mut ring = Ring::new(3, durable_config());
    write(&mut ring, 0, 1, Value::from_u64(1));
    ring.crash(1);
    ring.drive();
    write(&mut ring, 0, 2, Value::from_u64(2));

    ring.restart(1, durable_config());
    // A write lands on the rejoiner mid-resync: it must be held (no tag
    // minted from stale state) and complete after sync.
    let pre = ring.server(1).on_client_write(
        ObjectId::SINGLE,
        ClientId(0),
        RequestId(30),
        Value::from_u64(30),
    );
    assert!(pre.is_empty());
    let actions = ring.drive();
    assert!(acked(&actions, 30));
    // Its tag ordered after the write committed during the downtime.
    let read = ring
        .server(2)
        .on_client_read(ObjectId::SINGLE, ClientId(1), RequestId(31));
    let mut all = read;
    all.extend(ring.drive());
    assert_eq!(read_value(&all, 31), Some(Value::from_u64(30)));
}

#[test]
fn syncing_lone_survivor_holds_reads_until_a_peer_returns() {
    // The restored log of a mid-resync rejoiner may miss writes that
    // were acknowledged while it was down — writes that still exist in
    // the crashed peers' logs. A lone survivor in that state must NOT
    // serve (linearizability over availability): reads stay queued
    // until a peer rejoins and the resync completes against its log.
    let mut ring = Ring::new(3, durable_config());
    write(&mut ring, 0, 1, Value::from_u64(7));
    ring.crash(1);
    ring.drive();

    ring.restart(1, durable_config());
    let queued = ring
        .server(1)
        .on_client_read(ObjectId::SINGLE, ClientId(2), RequestId(40));
    assert!(queued.is_empty());

    // Before the announcement can circulate, everyone else dies.
    let mut actions = Vec::new();
    for s in [0u16, 2] {
        ring.servers[usize::from(s)] = None;
        for server in ring.servers.iter_mut().flatten() {
            actions.extend(server.on_server_crashed(ServerId(s)));
        }
    }
    actions.extend(ring.drive());
    // Lone, still syncing: the queued read must NOT be answered from the
    // possibly-stale log.
    assert!(ring.server(1).is_syncing());
    assert_eq!(
        read_value(&actions, 40),
        None,
        "served while resyncing alone"
    );

    // s0 comes back from its log: the pair resyncs against each other's
    // logs (cold-start rule) and the held read finally answers.
    ring.restart(0, durable_config());
    let actions = ring.drive();
    assert!(!ring.server(1).is_syncing());
    assert!(!ring.server(0).is_syncing());
    assert_eq!(read_value(&actions, 40), Some(Value::from_u64(7)));
}

#[test]
fn lone_syncing_survivor_holds_registers_its_log_lacks() {
    // s0 restarts from a log that lacks register X, while X holds an
    // acknowledged write in s1's and s2's logs; then both peers crash
    // before s0's announcement returns. The resync gate is the lane's,
    // not a logged register's: X must be held like any other register
    // until a peer rejoins and the resync completes against its log.
    const X: ObjectId = ObjectId(7);
    let mut ring = Ring::new(3, durable_config());
    write(&mut ring, 0, 1, Value::from_u64(1));
    ring.crash(0);
    ring.drive();
    write_to(&mut ring, 1, X, 2, Value::from_u64(70));
    let (logged_tag, _) = ring.logs[1][&X].clone();
    assert_eq!(ring.logs[2].get(&X).map(|(tag, _)| *tag), Some(logged_tag));

    ring.restart(0, durable_config());
    assert!(!ring.logs[0].contains_key(&X), "s0's log lacks X");
    let mut actions = ring.crash(1);
    actions.extend(ring.crash(2));
    assert!(ring.server(0).is_syncing());
    actions.extend(ring.server(0).on_client_read(X, ClientId(3), RequestId(3)));
    actions.extend(ring.server(0).on_client_write(
        X,
        ClientId(4),
        RequestId(4),
        Value::from_u64(80),
    ));
    ring.persist(0);
    actions.extend(ring.drive());
    assert!(
        actions.is_empty(),
        "served a register its log lacks while resyncing alone: {actions:?}"
    );

    // s1 comes back from its log (its failure detector still reports
    // s2 down) and s0's resync completes against it.
    ring.restart(1, durable_config());
    ring.server(1).on_server_crashed(ServerId(2));
    let actions = ring.drive();
    assert!(!ring.server(0).is_syncing());
    assert_eq!(read_value(&actions, 3), Some(Value::from_u64(70)));
    assert!(acked(&actions, 4));
    let (tag, value) = ring.server(0).object(X).expect("X hosted").stored();
    assert!(
        tag > logged_tag,
        "write acked at {tag}, not above {logged_tag}"
    );
    assert_eq!(value, &Value::from_u64(80));
}

#[test]
fn export_restore_roundtrip_covers_all_objects() {
    let mut server = MultiObjectServer::new(ServerId(0), 1, durable_config());
    for o in 1..=4u32 {
        server.on_client_write(
            ObjectId(o),
            ClientId(0),
            RequestId(u64::from(o)),
            Value::from_u64(u64::from(o) * 100),
        );
    }
    let state = server.export_state();
    assert_eq!(state.len(), 4);

    let mut restored = MultiObjectServer::new(ServerId(0), 1, durable_config());
    restored.restore_state(state);
    for o in 1..=4u32 {
        assert_eq!(
            restored.object(ObjectId(o)).unwrap().stored().1,
            &Value::from_u64(u64::from(o) * 100)
        );
    }
    // Restores are not re-logged as commits.
    assert!(restored.drain_commits().is_empty());
}

#[test]
fn volatile_config_logs_nothing() {
    let mut ring = Ring::new(3, Config::default());
    write(&mut ring, 0, 1, Value::from_u64(5));
    assert!(ring.logs.iter().all(BTreeMap::is_empty));
}

#[test]
fn overlapping_restarts_converge_on_the_survivors_state() {
    // The review scenario: s0 and s1 both die; lone survivor s2 commits
    // a write w neither log contains; then both restart concurrently.
    // A rejoiner whose recovery source is itself still resyncing must
    // not certify its sync off the stale stream (the announcement comes
    // back flagged and it re-announces) — after quiescence every server
    // serves w.
    let mut ring = Ring::new(3, durable_config());
    write(&mut ring, 0, 1, Value::from_u64(1));
    ring.crash(0);
    ring.crash(1);
    ring.drive();
    // Lone survivor commits w; only s2's log has it.
    write(&mut ring, 2, 2, Value::from_u64(2));

    ring.restart(0, durable_config());
    ring.restart(1, durable_config());
    let actions = ring.drive();
    let _ = actions;
    assert!(!ring.server(0).is_syncing(), "s0 never finished resync");
    assert!(!ring.server(1).is_syncing(), "s1 never finished resync");
    for s in [0u16, 1, 2] {
        let got = ring.server(s).on_client_read(
            ObjectId::SINGLE,
            ClientId(7),
            RequestId(50 + u64::from(s)),
        );
        let mut all = got;
        all.extend(ring.drive());
        assert_eq!(
            read_value(&all, 50 + u64::from(s)),
            Some(Value::from_u64(2)),
            "server {s} must serve the survivor's write after overlapping restarts"
        );
    }
}

#[test]
fn whole_cluster_cold_restart_serves_log_state_without_livelock() {
    // Every server restarts at once: all are resyncing, so every rejoin
    // certificate is "stale" — but the all_syncing flag survives the
    // full circulation, proving the logs are collectively authoritative,
    // and everyone finishes instead of re-announcing forever.
    let mut ring = Ring::new(3, durable_config());
    write(&mut ring, 0, 1, Value::from_u64(9));
    for s in 0..3 {
        ring.servers[s] = None;
    }
    for s in 0..3u16 {
        ring.restart(s, durable_config());
    }
    ring.drive();
    for s in 0..3u16 {
        assert!(!ring.server(s).is_syncing(), "s{s} livelocked in resync");
        let got = ring.server(s).on_client_read(
            ObjectId::SINGLE,
            ClientId(8),
            RequestId(60 + u64::from(s)),
        );
        let mut all = got;
        all.extend(ring.drive());
        assert_eq!(
            read_value(&all, 60 + u64::from(s)),
            Some(Value::from_u64(9)),
            "server {s} after cold restart"
        );
    }
}

#[test]
fn announcement_for_a_recrashed_server_is_purged() {
    // s1 restarts but dies again before its announcement finishes
    // circulating: queued copies must be dropped, not forwarded —
    // forwarding would resurrect a dead server in everyone's ring view.
    let mut ring = Ring::new(3, durable_config());
    write(&mut ring, 0, 1, Value::from_u64(4));
    ring.crash(1);
    ring.drive();
    ring.restart(1, durable_config());
    // Pull s1's announcement and deliver it to s2 only, then kill s1
    // again before s2 forwards.
    let frame = ring.server(1).next_frame().expect("announcement frame");
    let rejoin = frame.rejoin.expect("carries the announcement");
    assert_eq!(rejoin.server, ServerId(1));
    ring.server(2).on_frame(frame);
    ring.crash(1);
    ring.drive();
    // s2 must not have resurrected s1: its successor skips it.
    assert_eq!(
        ring.server(2).successor(),
        Some(ServerId(0)),
        "stale announcement resurrected a re-crashed server"
    );
    // And the ring still works.
    write(&mut ring, 0, 2, Value::from_u64(5));
}

#[test]
fn commit_notice_overtaking_its_recovery_copy_carries_the_value() {
    // While s1 streams recovery state to a rejoining s2, a write that
    // commits concurrently forwards its notice tag-only in steady state.
    // If that notice overtakes the (value-carrying) recovery copy of its
    // own pre-write — fairness across origins allows it — the rejoiner
    // would be told to commit a value it has never seen. The notice must
    // carry the value while the recovery copy is still queued.
    let mut s1 = MultiObjectServer::new(ServerId(1), 3, durable_config());
    // A foreign pre-write arrives and is forwarded: it is now pending.
    let tag = Tag::new(1, ServerId(0));
    s1.on_frame(RingFrame::pre_write(
        ObjectId::SINGLE,
        tag,
        Value::from_u64(77),
    ));
    assert!(s1.next_frame().is_some(), "forwarded the pre-write");

    // s2 bounces: on rejoin, s1 (its new predecessor) queues recovery
    // copies of everything pending.
    s1.on_server_crashed(ServerId(2));
    s1.on_rejoin_announcement(Rejoin::announce(ServerId(2)));

    // The commit notice for the pending tag arrives before the recovery
    // copy drains: the forwarded notice must carry the value.
    s1.on_frame(RingFrame::write(ObjectId::SINGLE, tag));
    let mut commit_notice = None;
    let mut announcement = None;
    let mut pulled = 0;
    while let Some(frame) = s1.next_frame() {
        if let Some(notice) = &frame.write {
            if notice.tag == tag {
                commit_notice = Some(pulled);
                assert_eq!(
                    notice.value,
                    Some(Value::from_u64(77)),
                    "tag-only notice would overtake the rejoiner's recovery copy"
                );
            }
        }
        if frame.rejoin.is_some() {
            announcement = Some(pulled);
        }
        pulled += 1;
    }
    // s2's forwarded announcement waited out the recovery stream, the
    // value-carrying notice included.
    let commit_notice = commit_notice.expect("the commit notice forwarded");
    assert!(announcement.expect("s2's announcement forwarded") >= commit_notice);
}

#[test]
fn commit_notice_resolves_from_a_queued_unforwarded_pre_write() {
    // After a splice-and-rejoin, a commit's recovery circulation can
    // bypass a server entirely: the commit notice then arrives while the
    // matching pre-write still sits in the forward queue (the pending
    // cache only fills at forward time, paper line 71). The notice must
    // resolve the value from the queue instead of silently skipping the
    // apply (debug builds assert).
    let mut s2 = MultiObjectServer::new(ServerId(2), 3, durable_config());
    let tag = Tag::new(3, ServerId(1));
    // Pre-write arrives and queues for forwarding; the TX slot has not
    // fired yet, so it is not in the pending cache.
    s2.on_frame(RingFrame {
        object: ObjectId::SINGLE,
        pre_write: Some(PreWrite {
            tag,
            value: Value::from_u64(33),
            recovery: true,
        }),
        write: None,
        rejoin: None,
    });
    assert!(s2.object(ObjectId::SINGLE).unwrap().pending().is_empty());
    // The tag-only commit notice overtakes the forward slot.
    s2.on_frame(RingFrame::write(ObjectId::SINGLE, tag));
    let (stored_tag, stored_value) = s2.object(ObjectId::SINGLE).unwrap().stored();
    assert_eq!(stored_tag, tag);
    assert_eq!(stored_value, &Value::from_u64(33));
    // The stale queue entry is dropped by the late guard, not re-sent
    // as a pre-write of an already-committed tag... except recovery
    // copies, which deliberately re-circulate; just confirm no panic
    // and no stale value survives.
    while s2.next_frame().is_some() {}
}

#[test]
fn own_pre_write_returning_to_a_restarted_origin_commits() {
    // Origin O crashes with its own pre-write mid-circulation and
    // restarts before anyone detects the crash (no splice, no orphan
    // adoption). When the pre-write completes its circle and returns to
    // the new incarnation, the outstanding entry is gone — but the tag
    // is pending at every peer, so dropping it would block readers
    // ring-wide. It must commit instead, with a value-carrying notice.
    // Incarnation 1 initiates a write.
    let mut o1 = MultiObjectServer::new(ServerId(1), 3, durable_config());
    o1.on_client_write(
        ObjectId::SINGLE,
        ClientId(0),
        RequestId(1),
        Value::from_u64(42),
    );
    let frame = o1.next_frame().expect("pre-write initiated");
    let tag = frame.pre_write.as_ref().expect("pre-write").tag;
    assert_eq!(tag, Tag::new(1, ServerId(1)));

    // Incarnation 2 boots with empty state (nothing committed yet) and
    // receives its own returning pre-write.
    let mut o2 = MultiObjectServer::new(ServerId(1), 3, durable_config());
    o2.on_frame(RingFrame::pre_write(
        ObjectId::SINGLE,
        tag,
        Value::from_u64(42),
    ));
    let (stored_tag, stored_value) = o2.object(ObjectId::SINGLE).unwrap().stored();
    assert_eq!(stored_tag, tag, "orphaned own pre-write was dropped");
    assert_eq!(stored_value, &Value::from_u64(42));
    // The commit notice circulates value-carrying so peers (and any
    // resyncing rejoiner) can resolve it.
    let out = o2.next_frame().expect("commit notice");
    let notice = out.write.expect("notice");
    assert_eq!(notice.tag, tag);
    assert_eq!(notice.value, Some(Value::from_u64(42)));
}
