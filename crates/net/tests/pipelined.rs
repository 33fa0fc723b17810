//! Pipelined [`Session`]s over real TCP: many operations in flight on
//! one socket, completions matched out of order, linearizability checked
//! across concurrent sessions — including under kill/restart on a
//! durable cluster — plus the alive-map recovery regression (a restarted
//! server must stop being shunned).

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hts_core::{Config, REPROBE_PERIOD};
use hts_lincheck::{check_conditions, check_exhaustive_bounded, History, Outcome};
use hts_net::{Client, Cluster, Session};
use hts_types::{ClientId, ObjectId, RequestId, ServerId, Value};

fn tmp_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hts-net-pipelined-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Runs `total` operations through one session keeping `window` of them
/// in flight (fill the window, then complete-one/issue-one), recording
/// every operation in the shared history. Returns the number completed.
fn pipelined_load(
    session: &mut Session,
    history: &Arc<Mutex<History>>,
    epoch: Instant,
    id: ClientId,
    total: u64,
    window: usize,
) -> u64 {
    use hts_lincheck::OpId;
    let mut in_flight: Vec<(RequestId, OpId, bool)> = Vec::new();
    let mut completed = 0u64;
    let mut seq = 0u64;
    while completed < total {
        // Fill the window (`seq` counts issued operations).
        while in_flight.len() < window && seq < total {
            seq += 1;
            let is_read = seq.is_multiple_of(3);
            if is_read {
                let op = history.lock().unwrap().invoke_read(id, nanos_since(epoch));
                let request = session.begin_read().expect("begin_read");
                in_flight.push((request, op, true));
            } else {
                // Globally unique values let the checker map reads to
                // writes.
                let value = Value::from_u64(u64::from(id.0) * 1_000_000 + seq);
                let op =
                    history
                        .lock()
                        .unwrap()
                        .invoke_write(id, value.clone(), nanos_since(epoch));
                let request = session.begin_write(value).expect("begin_write");
                in_flight.push((request, op, false));
            }
        }
        // Complete the oldest (younger requests may well finish first
        // inside the session; `wait` matches by id, not arrival order).
        let (request, op, is_read) = in_flight.remove(0);
        let value = session.wait(request).expect("wait");
        let now = nanos_since(epoch);
        let mut h = history.lock().unwrap();
        if is_read {
            h.complete_read(op, value.expect("read value"), now);
        } else {
            h.complete_write(op, now);
        }
        completed += 1;
    }
    completed
}

#[test]
fn eight_in_flight_on_one_session_is_linearizable() {
    let cluster = Cluster::launch(3).expect("launch");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let history = Arc::new(Mutex::new(History::new()));

    let mut session = Session::connect(1, addrs, 8).expect("session");
    session.set_timeout(Duration::from_millis(500));
    let done = pipelined_load(&mut session, &history, epoch, ClientId(1), 48, 8);
    assert_eq!(done, 48);
    assert_eq!(session.in_flight(), 0, "window drained");

    let history = history.lock().unwrap();
    let violations = check_conditions(&history);
    assert!(
        violations.is_empty(),
        "atomicity violations with 8 in flight: {violations:?}\n{history}"
    );
    assert!(
        matches!(
            check_exhaustive_bounded(&history, 5_000_000),
            Outcome::Linearizable | Outcome::Unknown
        ),
        "exhaustive checker rejected the pipelined history\n{history}"
    );
    cluster.shutdown();
}

#[test]
fn concurrent_sessions_under_kill_restart_stay_atomic() {
    // Three pipelined sessions (window 8 each, ≥ 8 in flight per socket)
    // hammer a durable cluster while one server is killed and restarted
    // mid-load; the merged history must stay linearizable.
    let base = tmp_base("killrestart");
    let mut cluster = Cluster::launch_durable(3, Config::default(), &base).expect("launch");
    let addrs = cluster.addrs();
    let epoch = Instant::now();
    let history = Arc::new(Mutex::new(History::new()));

    let mut workers = Vec::new();
    for t in 0..3u32 {
        let addrs = addrs.clone();
        let history = Arc::clone(&history);
        workers.push(std::thread::spawn(move || {
            let preferred = ServerId(t as u16 % 3);
            let mut session =
                Session::connect_preferring(10 + t, addrs, preferred, 8).expect("session");
            session.set_timeout(Duration::from_millis(400));
            pipelined_load(&mut session, &history, epoch, ClientId(10 + t), 60, 8)
        }));
    }

    // Bounce s2 while the pipelines are full.
    std::thread::sleep(Duration::from_millis(80));
    cluster.crash(ServerId(2)).expect("crash");
    std::thread::sleep(Duration::from_millis(200));
    cluster.restart(ServerId(2)).expect("restart");

    for worker in workers {
        assert_eq!(worker.join().expect("worker"), 60);
    }
    assert_eq!(cluster.alive(), 3);

    let history = history.lock().unwrap();
    let violations = check_conditions(&history);
    assert!(
        violations.is_empty(),
        "atomicity violations across kill+restart: {violations:?}\n{history}"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn session_multiplexes_objects_out_of_order() {
    // Writes to distinct registers pipelined on one socket, waited in
    // reverse order: every completion must match its own request.
    let cluster = Cluster::launch(2).expect("launch");
    let mut session = Session::connect(1, cluster.addrs(), 16).expect("session");
    let mut handles = Vec::new();
    for i in 0..12u32 {
        let h = session
            .begin_write_to(ObjectId(i), Value::from_u64(u64::from(i) + 100))
            .expect("begin");
        handles.push((i, h));
    }
    for &(_, h) in handles.iter().rev() {
        assert_eq!(session.wait(h).expect("wait"), None);
    }
    let mut reads = Vec::new();
    for i in 0..12u32 {
        reads.push((i, session.begin_read_from(ObjectId(i)).expect("begin")));
    }
    for &(i, h) in reads.iter().rev() {
        assert_eq!(
            session.wait(h).expect("wait"),
            Some(Value::from_u64(u64::from(i) + 100)),
            "object {i}"
        );
    }
    cluster.shutdown();
}

#[test]
fn drain_settles_every_operation_even_unwaited_completions() {
    // Operations that completed inside the session before anyone waited
    // them must still be settled by drain (not skipped, not leaked).
    let cluster = Cluster::launch(2).expect("launch");
    let mut session = Session::connect(1, cluster.addrs(), 4).expect("session");
    for i in 0..12u64 {
        // Past window 4, each begin drives the pipeline: older requests
        // complete internally without a wait() call.
        session.begin_write(Value::from_u64(i)).expect("begin");
    }
    session.drain().expect("drain");
    assert_eq!(session.in_flight(), 0);
    session.drain().expect("second drain is a no-op");
    // Concurrent writes may linearize in any order; the register must
    // hold one of them.
    let settled = session.read().expect("read");
    assert!((0..12).map(Value::from_u64).any(|v| v == settled));
    cluster.shutdown();
}

#[test]
fn waiting_an_unknown_handle_is_an_error_not_a_hang() {
    let cluster = Cluster::launch(1).expect("launch");
    let mut session = Session::connect(1, cluster.addrs(), 4).expect("session");
    let err = session.wait(RequestId(999)).expect_err("unknown handle");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    cluster.shutdown();
}

#[test]
fn empty_or_invalid_address_maps_are_rejected_with_real_errors() {
    // Regression: `Client::connect` claimed infallibility but asserted on
    // bad address maps. Both clients must return InvalidInput instead.
    fn kind_of<T>(result: std::io::Result<T>) -> std::io::ErrorKind {
        match result {
            Ok(_) => panic!("bad address map accepted"),
            Err(e) => e.kind(),
        }
    }
    let addrs: Vec<std::net::SocketAddr> = vec!["127.0.0.1:1".parse().unwrap()];
    assert_eq!(
        kind_of(Client::connect(1, Vec::new())),
        std::io::ErrorKind::InvalidInput
    );
    assert_eq!(
        kind_of(Client::connect_preferring(1, addrs.clone(), ServerId(5))),
        std::io::ErrorKind::InvalidInput
    );
    assert_eq!(
        kind_of(Session::connect(1, Vec::new(), 8)),
        std::io::ErrorKind::InvalidInput
    );
    assert_eq!(
        kind_of(Session::connect_preferring(
            1,
            addrs.clone(),
            ServerId(2),
            8
        )),
        std::io::ErrorKind::InvalidInput
    );
    assert_eq!(
        kind_of(Session::connect(1, addrs, 0)),
        std::io::ErrorKind::InvalidInput
    );
}

#[test]
fn restarted_server_is_trusted_again_after_reprobe() {
    // The alive-map recovery regression: killing the preferred server
    // marks it dead; after it restarts, the periodic re-probe plus the
    // reconnect/completion healing must bring the client back to it —
    // before the fix the suspicion was permanent.
    let base = tmp_base("reprobe");
    let mut cluster = Cluster::launch_durable(2, Config::default(), &base).expect("launch");
    let addrs = cluster.addrs();

    let mut client = Client::connect(1, addrs.clone()).expect("client");
    client.set_timeout(Duration::from_millis(300));
    client.write(Value::from_u64(1)).expect("warm up via s0");

    cluster.crash(ServerId(0)).expect("crash");
    std::thread::sleep(Duration::from_millis(200));
    client.write(Value::from_u64(2)).expect("failover write");
    assert!(
        !client.believed_alive()[0],
        "connection failure must mark s0 suspect"
    );

    cluster.restart(ServerId(0)).expect("restart");
    std::thread::sleep(Duration::from_millis(400));

    // Within one re-probe period the client must visit s0 again, observe
    // the successful reconnect and clear the suspicion.
    for i in 0..REPROBE_PERIOD + 2 {
        client.write(Value::from_u64(10 + i)).expect("write");
    }
    assert!(
        client.believed_alive()[0],
        "restarted server still shunned after a full re-probe period"
    );

    // Same recovery for the pipelined session.
    let mut session = Session::connect(2, addrs, 4).expect("session");
    session.set_timeout(Duration::from_millis(300));
    session.write(Value::from_u64(100)).expect("warm up");
    cluster.crash(ServerId(0)).expect("crash");
    std::thread::sleep(Duration::from_millis(200));
    session.write(Value::from_u64(101)).expect("failover");
    assert!(!session.believed_alive()[0], "s0 suspect after crash");
    cluster.restart(ServerId(0)).expect("restart again");
    std::thread::sleep(Duration::from_millis(400));
    for i in 0..REPROBE_PERIOD + 2 {
        session.write(Value::from_u64(200 + i)).expect("write");
    }
    assert!(
        session.believed_alive()[0],
        "restarted server still shunned by the session"
    );

    cluster.shutdown();
    let _ = fs::remove_dir_all(&base);
}

/// A one-connection stand-in for a server, as a slow peer would behave:
/// strictly *read one request, write its reply*, both blocking, so it
/// reads nothing while a reply is stuck in its send buffer. Every read
/// is answered with a 1 MiB value.
fn spawn_lockstep_server(reply: Value) -> std::net::SocketAddr {
    use hts_net::{read_message, write_message};
    use hts_types::Message;
    use std::io::Read;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut hello = [0u8; 5];
        stream.read_exact(&mut hello).expect("client hello");
        while let Ok(request) = read_message(&mut stream) {
            let answer = match request {
                Message::ReadReq { object, request } => Message::ReadAck {
                    object,
                    request,
                    value: reply.clone(),
                },
                Message::WriteReq {
                    object, request, ..
                } => Message::WriteAck { object, request },
                other => panic!("a client sent {other}"),
            };
            if write_message(&mut stream, &answer).is_err() {
                return;
            }
        }
    });
    addr
}

#[test]
fn a_blocked_send_never_stops_the_session_reading() {
    // 1 MiB requests one way and 1 MiB replies the other fill both
    // directions' socket buffers. The lockstep server then sits in a
    // blocked write until the session reads, so a session that waits for
    // writability alone deadlocks: its parked send has to resume from
    // the same wait that keeps consuming replies.
    const MIB: usize = 1 << 20;
    let addr = spawn_lockstep_server(Value::filled(2, MIB));
    let payload = Value::filled(1, MIB);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let run = || -> std::io::Result<()> {
            let mut session = Session::connect(1, vec![addr], 64)?;
            session.set_timeout(Duration::from_secs(30));
            let mut in_flight = std::collections::VecDeque::new();
            for i in 0..128u32 {
                if in_flight.len() == 64 {
                    if let Some(oldest) = in_flight.pop_front() {
                        session.wait(oldest)?;
                    }
                }
                in_flight.push_back(if i % 2 == 0 {
                    session.begin_read()?
                } else {
                    session.begin_write(payload.clone())?
                });
            }
            session.drain()
        };
        let _ = done_tx.send(run());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("128 ops and a drain inside 10 s: the session deadlocked against its own send")
        .expect("no operation may fail");
}
