//! The load generator: one thread per session, each owning one
//! `hts_net::Session` and driving it through the phases the controller
//! hands out — closed loop (window kept full) or paced (open loop on a
//! fixed schedule, latency measured from each operation's due time).
//!
//! `Session` only offers a blocking `wait`, so a paced turn is "issue
//! everything that is due, then wait for the oldest". While that wait
//! blocks, newly due operations queue; the window bounds how many can be
//! outstanding, and how late the generator ran is reported as lag.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hts_net::Session;
use hts_types::{ObjectId, RequestId, ServerId};

use crate::checker::{Checker, HistOp, LINCHECK_OBJECTS};
use crate::spec::Role;

/// SplitMix64 (Steele, Lea & Flood): the whole op stream of a run is a
/// pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// The op stream of one session: which operation comes next, on which
/// object. Shared by the TCP load generator and the layer walk, so both
/// push the same generated ops through the system.
pub struct OpStream {
    rng: SplitMix64,
    role: Role,
    /// Objects this session writes (it is their only writer).
    owned: Vec<u32>,
    objects: u32,
    issued: u64,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    /// Write to the object at this index of the session's owned list
    /// (the caller may probe forward to one with no write in flight).
    Write {
        owned_index: usize,
    },
    Read {
        object: u32,
    },
}

impl OpStream {
    /// `writers` sessions (ids `0..writers`) write; object `o` belongs
    /// to writer `o % writers`.
    pub fn new(seed: u64, session: u64, role: Role, writers: u64, objects: u32) -> OpStream {
        let owned = match role {
            Role::Reader => Vec::new(),
            Role::Writer { .. } => (0..objects)
                .filter(|o| u64::from(*o) % writers == session)
                .collect(),
        };
        OpStream {
            // Distinct, seed-derived stream per session.
            rng: SplitMix64::new(seed ^ (session + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            role,
            owned,
            objects,
            issued: 0,
        }
    }

    pub fn owned(&self) -> &[u32] {
        &self.owned
    }

    pub fn next_op(&mut self) -> GenOp {
        let n = self.issued;
        self.issued += 1;
        let read = match self.role {
            Role::Reader => true,
            Role::Writer { read_every: 0 } => false,
            Role::Writer { read_every } => n % u64::from(read_every) == u64::from(read_every) - 1,
        };
        if read {
            GenOp::Read {
                object: self.rng.below(self.objects),
            }
        } else {
            GenOp::Write {
                owned_index: self.rng.below(self.owned.len() as u32) as usize,
            }
        }
    }
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Keep the window full.
    Closed,
    /// One op per interval on a fixed schedule, at the session's frozen
    /// rate.
    Paced,
}

/// One phase, as handed to every worker.
#[derive(Debug, Clone, Copy)]
pub struct PhasePlan {
    pub start: Instant,
    pub duration: Duration,
    pub slices: usize,
    pub pace: Pace,
    /// Fault phase: keep completion instants (for the stall) and the
    /// history of the lincheck-subset objects, timed from `start`.
    pub record: bool,
}

/// What one worker measured in one slice of a phase.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
}

/// What one worker measured in one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Ops that completed inside the phase window, by slice, with their
    /// latency (from issue in a closed phase, from due time when paced).
    pub slices: Vec<Slice>,
    /// Every op begun, and those that failed, timed out or never
    /// completed — the drain after the window included.
    pub attempted: u64,
    pub failed: u64,
    /// Ops completed successfully, drain included.
    pub completed: u64,
    /// Paced: how long after its due time each op was issued.
    pub lag_ns: Vec<u64>,
    /// Recorded phases: completion instants, ns from phase start.
    pub completions_ns: Vec<u64>,
    pub history: Vec<HistOp>,
}

pub enum Cmd {
    /// Write every owned object once (readers read every object once).
    Preload,
    Phase(PhasePlan),
    Exit,
}

pub enum Reply {
    Preloaded,
    Phase(PhaseResult),
}

enum Kind {
    Write { seq: u64 },
    Read { floor: u64 },
}

struct Pending {
    request: RequestId,
    object: u32,
    kind: Kind,
    /// Issue instant (closed) or due instant (paced).
    from: Instant,
    /// Index into the phase's recorded history, if recorded.
    hist: Option<usize>,
}

/// Everything a worker thread needs.
pub struct WorkerSetup {
    pub session: u64,
    pub role: Role,
    /// Writer sessions in the run (they are sessions `0..writers`).
    pub writers: u64,
    /// This session's rate in a paced phase, ops/s.
    pub paced_ops_s: f64,
    pub seed: u64,
    pub addrs: Vec<SocketAddr>,
    pub window: usize,
    pub checker: Arc<Checker>,
}

struct Worker {
    id: u64,
    session: Session,
    stream: OpStream,
    checker: Arc<Checker>,
    window: usize,
    paced_interval: Duration,
    inflight: VecDeque<Pending>,
    /// `busy[i]`: a write to `stream.owned()[i]` is in flight.
    busy: Vec<bool>,
}

/// Per-attempt reply timeout of the generator's sessions. Long enough
/// that only a broken connection reroutes a request: the runtime applies
/// a re-sent write again, and a duplicate landing after a newer write
/// would look like a stale read to the checker.
const SESSION_TIMEOUT: Duration = Duration::from_secs(3);

/// Body of a generator thread: connects, then serves commands until
/// `Exit` (or the controller hangs up).
pub fn worker_main(
    setup: WorkerSetup,
    cmds: Receiver<Cmd>,
    replies: Sender<Reply>,
) -> Result<(), String> {
    // Sessions 0 and 1 talk to servers 0 and 1; server 2, the one the
    // fault phase kills, is reached over the ring only.
    let preferred = ServerId((setup.session % 2) as u16);
    let mut session = Session::connect_preferring(
        setup.session as u32,
        setup.addrs.clone(),
        preferred,
        setup.window,
    )
    .map_err(|e| format!("session {}: {e}", setup.session))?;
    session.set_timeout(SESSION_TIMEOUT);
    let stream = OpStream::new(
        setup.seed,
        setup.session,
        setup.role,
        setup.writers,
        setup.checker.objects(),
    );
    let mut worker = Worker {
        id: setup.session,
        busy: vec![false; stream.owned().len()],
        session,
        stream,
        checker: setup.checker,
        window: setup.window,
        paced_interval: Duration::from_secs_f64(1.0 / setup.paced_ops_s),
        inflight: VecDeque::new(),
    };
    for cmd in cmds {
        let reply = match cmd {
            Cmd::Preload => {
                worker.preload()?;
                Reply::Preloaded
            }
            Cmd::Phase(plan) => Reply::Phase(worker.run_phase(&plan)),
            Cmd::Exit => break,
        };
        if replies.send(reply).is_err() {
            break;
        }
    }
    Ok(())
}

impl Worker {
    fn preload(&mut self) -> Result<(), String> {
        let mut scratch = PhaseResult::default();
        let now = Instant::now();
        let count = match self.stream.role {
            Role::Reader => self.checker.objects() as usize,
            Role::Writer { .. } => self.stream.owned.len(),
        };
        for i in 0..count {
            if self.inflight.len() >= self.window {
                self.complete_oldest(None, now, &mut scratch);
            }
            let op = match self.stream.role {
                Role::Reader => GenOp::Read { object: i as u32 },
                Role::Writer { .. } => GenOp::Write { owned_index: i },
            };
            self.issue(op, now, None, &mut scratch);
        }
        self.drain(None, now, &mut scratch);
        if scratch.failed > 0 {
            return Err(format!(
                "session {}: {} of {count} preload ops failed",
                self.id, scratch.failed
            ));
        }
        Ok(())
    }

    fn run_phase(&mut self, plan: &PhasePlan) -> PhaseResult {
        let mut out = PhaseResult {
            slices: vec![Slice::default(); plan.slices],
            ..PhaseResult::default()
        };
        sleep_until(plan.start);
        let end = plan.start + plan.duration;
        match plan.pace {
            Pace::Closed => {
                while Instant::now() < end {
                    while self.inflight.len() < self.window {
                        let op = self.stream.next_op();
                        self.issue(op, Instant::now(), Some(plan), &mut out);
                    }
                    self.complete_oldest(Some(plan), end, &mut out);
                }
            }
            Pace::Paced => {
                let interval = self.paced_interval;
                let mut due = plan.start;
                loop {
                    let now = Instant::now();
                    while due <= now && due < end && self.inflight.len() < self.window {
                        out.lag_ns.push((now - due).as_nanos() as u64);
                        let op = self.stream.next_op();
                        self.issue(op, due, Some(plan), &mut out);
                        due += interval;
                    }
                    if !self.inflight.is_empty() {
                        self.complete_oldest(Some(plan), end, &mut out);
                    } else if due < end {
                        sleep_until(due);
                    } else {
                        break;
                    }
                }
            }
        }
        self.drain(Some(plan), end, &mut out);
        out
    }

    /// Begins `op`, timing it from `from`.
    fn issue(&mut self, op: GenOp, from: Instant, plan: Option<&PhasePlan>, out: &mut PhaseResult) {
        out.attempted += 1;
        // Taken before the request can leave, so a recorded interval
        // always covers the real one.
        let invoked_ns = plan.map_or(0, |p| {
            Instant::now().saturating_duration_since(p.start).as_nanos() as u64
        });
        let (object, kind, begun) = match op {
            GenOp::Write { owned_index } => {
                // Never two writes to one object in flight: probe to the
                // next idle one (the window never exceeds the owned set).
                let n = self.busy.len();
                let Some(index) = (0..n)
                    .map(|step| (owned_index + step) % n)
                    .find(|i| !self.busy[*i])
                else {
                    out.failed += 1;
                    return;
                };
                let object = self.stream.owned[index];
                let (seq, value) = self.checker.next_write(object);
                self.busy[index] = true;
                let begun = self.session.begin_write_to(ObjectId(object), value);
                (object, Kind::Write { seq }, begun)
            }
            GenOp::Read { object } => {
                let floor = self.checker.floor(object);
                let begun = self.session.begin_read_from(ObjectId(object));
                (object, Kind::Read { floor }, begun)
            }
        };
        let hist = plan
            .filter(|p| p.record && object < LINCHECK_OBJECTS)
            .map(|_| {
                out.history.push(HistOp {
                    session: self.id,
                    object,
                    is_write: matches!(kind, Kind::Write { .. }),
                    seq: match kind {
                        Kind::Write { seq } => seq,
                        Kind::Read { .. } => 0,
                    },
                    invoked_ns,
                    returned_ns: None,
                });
                out.history.len() - 1
            });
        match begun {
            Ok(request) => self.inflight.push_back(Pending {
                request,
                object,
                kind,
                from,
                hist,
            }),
            Err(_) => {
                out.failed += 1;
                self.release(object, &kind);
                // A read that never began is no part of the history; a
                // write stays, as one whose outcome is unknown.
                if let (Some(h), Kind::Read { .. }) = (hist, &kind) {
                    out.history.remove(h);
                }
            }
        }
    }

    fn release(&mut self, object: u32, kind: &Kind) {
        if let Kind::Write { .. } = kind {
            if let Ok(index) = self.stream.owned.binary_search(&object) {
                self.busy[index] = false;
            }
        }
    }

    /// Waits for the oldest outstanding op and books it.
    fn complete_oldest(&mut self, plan: Option<&PhasePlan>, end: Instant, out: &mut PhaseResult) {
        let Some(p) = self.inflight.pop_front() else {
            return;
        };
        let result = self.session.wait(p.request);
        let done = Instant::now();
        self.release(p.object, &p.kind);
        let observed = match (&p.kind, result) {
            (Kind::Write { seq }, Ok(_)) => {
                self.checker.write_acked(p.object, *seq);
                Some(*seq)
            }
            (Kind::Read { floor }, Ok(Some(value))) => {
                self.checker.read_done(p.object, *floor, &value)
            }
            // A read acknowledged without a value, or any error.
            _ => None,
        };
        let Some(seq) = observed else {
            out.failed += 1;
            return;
        };
        out.completed += 1;
        let Some(plan) = plan else { return };
        let since_start = done.saturating_duration_since(plan.start).as_nanos() as u64;
        if plan.record {
            out.completions_ns.push(since_start);
            if let Some(h) = p.hist {
                out.history[h].seq = seq;
                out.history[h].returned_ns = Some(since_start);
            }
        }
        if done < end {
            let slice_ns = (plan.duration.as_nanos() as u64 / plan.slices as u64).max(1);
            let index = ((since_start / slice_ns) as usize).min(plan.slices - 1);
            let latency = done.saturating_duration_since(p.from).as_nanos() as u64;
            match p.kind {
                Kind::Write { .. } => out.slices[index].write_ns.push(latency),
                Kind::Read { .. } => out.slices[index].read_ns.push(latency),
            }
        }
    }

    fn drain(&mut self, plan: Option<&PhasePlan>, end: Instant, out: &mut PhaseResult) {
        while !self.inflight.is_empty() {
            self.complete_oldest(plan, end, out);
        }
    }
}

fn sleep_until(at: Instant) {
    let wait = at.saturating_duration_since(Instant::now());
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_streams_repeat_per_seed_and_differ_per_session() {
        let ops = |seed, session| {
            let mut s = OpStream::new(seed, session, Role::Writer { read_every: 4 }, 2, 64);
            (0..200).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7, 0), ops(7, 0));
        assert_ne!(ops(7, 0), ops(8, 0));
        assert_ne!(ops(7, 0), ops(7, 1));
        // Every fourth op is a read.
        let reads = ops(7, 0)
            .iter()
            .filter(|op| matches!(op, GenOp::Read { .. }))
            .count();
        assert_eq!(reads, 50);
    }

    #[test]
    fn each_object_has_exactly_one_writer() {
        let a = OpStream::new(1, 0, Role::Writer { read_every: 0 }, 2, 9);
        let b = OpStream::new(1, 1, Role::Writer { read_every: 0 }, 2, 9);
        let mut all: Vec<u32> = a.owned().iter().chain(b.owned()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        // Beside a reader, the lone writer owns everything.
        let w = OpStream::new(1, 0, Role::Writer { read_every: 0 }, 1, 9);
        assert_eq!(w.owned().len(), 9);
        assert!(OpStream::new(1, 1, Role::Reader, 1, 9).owned().is_empty());
    }
}
