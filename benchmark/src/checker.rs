//! Checks, while the load runs, that every read returned something the
//! register could legally hold.
//!
//! The workloads make per-object write order known from outside: each
//! object has exactly one writer session, and that session never has two
//! writes to one object in flight. So the writer numbers its writes to an
//! object 1, 2, 3… and puts `(session, seq)` in the value's first 16
//! bytes. For an object, the checker keeps two numbers:
//!
//! * `issued` — the newest sequence number handed to `begin_write`;
//! * `floor` — the newest one any session has seen *complete*: a write
//!   acknowledged, or a read returned.
//!
//! A read samples `floor` before it is issued and `issued` after it
//! returns. Atomicity then demands `floor ≤ seq ≤ issued` of the value it
//! got back: below the floor it is a stale read (or, after a restart, a
//! lost acknowledged write; or the second read of a non-monotone pair),
//! above `issued` it is a value nobody wrote.
//!
//! The fault phase additionally records the full history of a fixed
//! subset of objects and runs `hts_lincheck::check_conditions` over it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hts_lincheck::{check_conditions, History, Op, OpRecord};
use hts_types::{ClientId, Value};

/// Bytes of `(session, seq)` at the front of every value.
pub const HEADER_BYTES: usize = 16;

/// Objects whose fault-phase history goes through the linearizability
/// conditions: ids `0..LINCHECK_OBJECTS`.
pub const LINCHECK_OBJECTS: u32 = 16;

/// Builds the value write number `seq` of `session` stores: the header,
/// then a fill the reader can predict from the header.
pub fn make_value(session: u64, seq: u64, len: usize) -> Value {
    let mut bytes = vec![fill_byte(session, seq); len.max(HEADER_BYTES)];
    bytes[..8].copy_from_slice(&session.to_be_bytes());
    bytes[8..HEADER_BYTES].copy_from_slice(&seq.to_be_bytes());
    Value::from(bytes)
}

fn fill_byte(session: u64, seq: u64) -> u8 {
    (session as u8) ^ (seq as u8) ^ 0x5a
}

/// `(session, seq)` of a value built by [`make_value`]; `None` when the
/// bytes are not one (wrong length, torn fill). The initial `⊥` parses
/// as write number 0.
fn parse_value(value: &Value, len: usize) -> Option<(u64, u64)> {
    let bytes = value.as_bytes();
    if bytes.is_empty() {
        return Some((0, 0));
    }
    if bytes.len() != len.max(HEADER_BYTES) {
        return None;
    }
    let session = u64::from_be_bytes(bytes[..8].try_into().ok()?);
    let seq = u64::from_be_bytes(bytes[8..HEADER_BYTES].try_into().ok()?);
    // First and last fill byte: catches a truncated or spliced body
    // without paying a 64 KiB scan per read.
    let fill = fill_byte(session, seq);
    let body = &bytes[HEADER_BYTES..];
    (body.first().is_none_or(|b| *b == fill) && body.last().is_none_or(|b| *b == fill))
        .then_some((session, seq))
}

/// The header alone, as the unique value `hts_lincheck` keys writes by.
fn lincheck_value(session: u64, seq: u64) -> Value {
    if seq == 0 {
        return Value::bottom();
    }
    make_value(session, seq, HEADER_BYTES)
}

/// Shared by all generator threads of one run.
pub struct Checker {
    writers: u64,
    value_len: usize,
    issued: Vec<AtomicU64>,
    floor: Vec<AtomicU64>,
    violations: AtomicU64,
    first: Mutex<Option<String>>,
}

impl Checker {
    /// `writers` sessions (ids `0..writers`) share `objects` registers:
    /// object `o` is written by session `o % writers` only.
    pub fn new(objects: u32, writers: u64, value_len: usize) -> Checker {
        let zeros = || (0..objects).map(|_| AtomicU64::new(0)).collect();
        Checker {
            writers,
            value_len,
            issued: zeros(),
            floor: zeros(),
            violations: AtomicU64::new(0),
            first: Mutex::new(None),
        }
    }

    pub fn objects(&self) -> u32 {
        self.issued.len() as u32
    }

    /// The one session allowed to write `object`.
    pub fn owner(&self, object: u32) -> u64 {
        u64::from(object) % self.writers
    }

    /// Numbers the owner's next write to `object` and builds its value.
    /// Call only from the owner, with no write to `object` in flight.
    pub fn next_write(&self, object: u32) -> (u64, Value) {
        let seq = self.issued[object as usize].load(Ordering::SeqCst) + 1;
        // Published before the request leaves, so a reader that gets this
        // value back always finds it covered by `issued`.
        self.issued[object as usize].store(seq, Ordering::SeqCst);
        (seq, make_value(self.owner(object), seq, self.value_len))
    }

    /// Write `seq` of `object` was acknowledged.
    pub fn write_acked(&self, object: u32, seq: u64) {
        self.floor[object as usize].fetch_max(seq, Ordering::SeqCst);
    }

    /// The newest write of `object` known complete; sample it before
    /// issuing a read and hand it to [`read_done`](Self::read_done).
    pub fn floor(&self, object: u32) -> u64 {
        self.floor[object as usize].load(Ordering::SeqCst)
    }

    /// The newest write of `object` handed to the system.
    pub fn issued(&self, object: u32) -> u64 {
        self.issued[object as usize].load(Ordering::SeqCst)
    }

    /// A read of `object`, issued when the floor was `floor`, returned
    /// `value`. Returns the write number it observed, or `None` (and
    /// records a violation) if no legal register state holds that value.
    pub fn read_done(&self, object: u32, floor: u64, value: &Value) -> Option<u64> {
        let issued = self.issued(object);
        let verdict = match parse_value(value, self.value_len) {
            None => Err(format!("a {}-byte value nobody wrote", value.len())),
            Some((session, seq)) if seq > 0 && session != self.owner(object) => Err(format!(
                "a value of session {session}, which never writes it"
            )),
            Some((_, seq)) if seq > issued => {
                Err(format!("write {seq}, but only {issued} were issued"))
            }
            Some((_, seq)) if seq < floor => Err(format!(
                "write {seq} although write {floor} had completed before the read began"
            )),
            Some((_, seq)) => Ok(seq),
        };
        match verdict {
            Ok(seq) => {
                self.floor[object as usize].fetch_max(seq, Ordering::SeqCst);
                Some(seq)
            }
            Err(what) => {
                self.violations.fetch_add(1, Ordering::SeqCst);
                let mut first = self.first.lock().unwrap_or_else(|p| p.into_inner());
                first.get_or_insert(format!("read of object {object} returned {what}"));
                None
            }
        }
    }

    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::SeqCst)
    }

    pub fn first_violation(&self) -> Option<String> {
        self.first.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// One operation of the fault phase on a lincheck-subset object.
#[derive(Debug, Clone, Copy)]
pub struct HistOp {
    pub session: u64,
    pub object: u32,
    pub is_write: bool,
    /// Written (writes) or observed (reads) write number.
    pub seq: u64,
    pub invoked_ns: u64,
    /// `None`: never completed (outcome unknown).
    pub returned_ns: Option<u64>,
}

/// Runs the register conditions over the recorded history, one register
/// per object. `initial[o]` is the write number object `o` held, fully
/// acknowledged, when recording began. Returns one line per violation.
pub fn lincheck(ops: &[HistOp], initial: &[u64], writers: u64) -> Vec<String> {
    let mut problems = Vec::new();
    for (object, &start) in initial.iter().enumerate() {
        let object = object as u32;
        let owner = u64::from(object) % writers;
        let mut history = History::new();
        if start > 0 {
            // What was written before recording began: one completed
            // write at time 0, so reads of it have a source.
            history.push(OpRecord {
                client: ClientId(owner as u32),
                op: Op::Write(lincheck_value(owner, start)),
                invoked_at: 0,
                returned_at: Some(0),
                witness: None,
            });
        }
        for op in ops.iter().filter(|op| op.object == object) {
            let value = lincheck_value(owner, op.seq);
            history.push(OpRecord {
                client: ClientId(op.session as u32),
                op: if op.is_write {
                    Op::Write(value)
                } else {
                    Op::Read(value)
                },
                // Shifted by one so nothing ties with the seed write.
                invoked_at: op.invoked_ns + 1,
                returned_at: op.returned_ns.map(|t| t + 1),
                witness: None,
            });
        }
        history.prune_pending_reads();
        for violation in check_conditions(&history) {
            problems.push(format!("object {object}: {violation}"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = 64;

    /// Writes 1..=n of object 0, all acknowledged.
    fn with_acked_writes(n: u64) -> Checker {
        let c = Checker::new(4, 2, LEN);
        for _ in 0..n {
            let (seq, _) = c.next_write(0);
            c.write_acked(0, seq);
        }
        c
    }

    #[test]
    fn stale_read_fails() {
        let c = with_acked_writes(3);
        let floor = c.floor(0);
        assert_eq!(floor, 3);
        assert_eq!(c.read_done(0, floor, &make_value(0, 2, LEN)), None);
        assert_eq!(c.violations(), 1);
        assert!(c.first_violation().unwrap().contains("write 2"));
    }

    #[test]
    fn non_monotone_read_pair_fails() {
        let c = with_acked_writes(1);
        let (seq, newer) = c.next_write(0); // in flight, never acknowledged
        assert_eq!(seq, 2);
        // The first read overlaps the write and may see it…
        let floor_a = c.floor(0);
        assert_eq!(c.read_done(0, floor_a, &newer), Some(2));
        // …but a read that begins after it returned may not go back.
        let floor_b = c.floor(0);
        assert_eq!(c.read_done(0, floor_b, &make_value(0, 1, LEN)), None);
        assert_eq!(c.violations(), 1);
    }

    #[test]
    fn lost_acknowledged_write_after_restart_fails() {
        let c = with_acked_writes(5);
        // The restarted server recovered a log that misses write 5.
        let floor = c.floor(0);
        assert_eq!(c.read_done(0, floor, &make_value(0, 4, LEN)), None);
        // …and one that lost everything serves the initial ⊥.
        assert_eq!(c.read_done(0, floor, &Value::bottom()), None);
        assert_eq!(c.violations(), 2);
    }

    #[test]
    fn unwritten_values_fail() {
        let c = with_acked_writes(2);
        assert_eq!(c.read_done(0, 0, &make_value(0, 9, LEN)), None, "future");
        assert_eq!(c.read_done(0, 0, &make_value(1, 1, LEN)), None, "not owner");
        assert_eq!(c.read_done(0, 0, &Value::filled(7, LEN)), None, "garbage");
        assert_eq!(c.read_done(0, 0, &make_value(0, 2, LEN - 1)), None, "short");
        assert_eq!(c.violations(), 4);
    }

    #[test]
    fn clean_concurrent_history_passes() {
        let c = Checker::new(4, 2, LEN);
        assert_eq!(c.owner(0), 0);
        assert_eq!(c.owner(1), 1);
        // Unwritten objects read ⊥.
        assert_eq!(c.read_done(1, c.floor(1), &Value::bottom()), Some(0));
        let (s1, v1) = c.next_write(0);
        // A read overlapping write 1 may return ⊥ or write 1.
        let floor = c.floor(0);
        assert_eq!(c.read_done(0, floor, &Value::bottom()), Some(0));
        let floor = c.floor(0);
        assert_eq!(c.read_done(0, floor, &v1), Some(1));
        c.write_acked(0, s1);
        let (s2, v2) = c.next_write(0);
        // Two overlapping reads, both begun before either returned, may
        // disagree in either order.
        let (fa, fb) = (c.floor(0), c.floor(0));
        assert_eq!(c.read_done(0, fa, &v2), Some(2));
        assert_eq!(c.read_done(0, fb, &v1), Some(1));
        c.write_acked(0, s2);
        assert_eq!(c.violations(), 0);
        assert_eq!(c.first_violation(), None);
    }

    fn op(object: u32, is_write: bool, seq: u64, at: (u64, Option<u64>)) -> HistOp {
        HistOp {
            session: if is_write { u64::from(object) % 2 } else { 1 },
            object,
            is_write,
            seq,
            invoked_ns: at.0,
            returned_ns: at.1,
        }
    }

    #[test]
    fn lincheck_accepts_a_clean_history_and_names_a_shadowed_read() {
        let clean = [
            op(0, true, 4, (10, Some(20))),
            op(0, false, 3, (5, Some(12))), // overlaps write 4: old value is fine
            op(0, false, 4, (25, Some(30))),
            op(0, true, 5, (40, None)), // never completed
            op(0, false, 5, (45, Some(50))),
            op(1, false, 0, (1, Some(2))), // untouched object reads ⊥
        ];
        assert_eq!(lincheck(&clean, &[3, 0], 2), Vec::<String>::new());

        let stale = [
            op(0, true, 4, (10, Some(20))),
            op(0, false, 3, (25, Some(30))), // write 4 completed before it began
        ];
        let problems = lincheck(&stale, &[3, 0], 2);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("object 0:"));
    }
}
