//! A fast, register-specialized condition checker.
//!
//! Requires **unique written values** (the harnesses write distinct `u64`
//! payload prefixes). Sound but incomplete: every reported [`Violation`] is
//! a real linearizability violation, but exotic multi-hop inferences are not
//! attempted — use [`check_exhaustive`](crate::check_exhaustive) when an
//! exact verdict is required and the history is small.
//!
//! The conditions (for each completed read `r` with reads-from write `w`):
//!
//! 1. **reads-from exists** — `r`'s value was written by some operation (or
//!    is the initial `⊥`);
//! 2. **no future read** — `r` must not return before `w` is invoked;
//! 3. **no shadowed read** — there must be no write `w'` with
//!    `w < w' < r` in real time (then every linearization places `w'`
//!    between `w` and `r`, so `r` cannot return `w`'s value);
//! 4. **no inverted reads** — for completed reads `r1` really-before `r2`,
//!    `r2`'s write must not be forced before `r1`'s write (the paper's
//!    *read inversion*).

use std::collections::HashMap;

use crate::{History, OpId};

/// A concrete linearizability violation found by
/// [`check_conditions`](crate::check_conditions).
///
/// `OpId`s index into the checked [`History`]; `None` stands for the
/// initial value `⊥` pseudo-write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two writes wrote the same value: the checker's uniqueness
    /// precondition does not hold (fix the workload, not the algorithm).
    DuplicateWriteValues {
        /// First write.
        a: OpId,
        /// Second write with an identical value.
        b: OpId,
    },
    /// A read returned a value no write ever wrote.
    ReadOfUnwrittenValue {
        /// The offending read.
        read: OpId,
    },
    /// A read returned before the write of its value was even invoked.
    ReadFromFuture {
        /// The offending read.
        read: OpId,
        /// The write whose value it returned.
        write: OpId,
    },
    /// A read returned a value that was definitely overwritten before the
    /// read began: `write < shadow < read` in real time.
    ShadowedRead {
        /// The offending read.
        read: OpId,
        /// The write it read (`None` = initial `⊥`).
        write: Option<OpId>,
        /// The interposing write.
        shadow: OpId,
    },
    /// Two non-overlapping reads observed writes in the wrong order: the
    /// earlier read saw the newer write (read inversion).
    InvertedReads {
        /// The earlier read (returned first).
        earlier: OpId,
        /// The later read (invoked after `earlier` returned) that observed
        /// an older write.
        later: OpId,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DuplicateWriteValues { a, b } => {
                write!(f, "writes #{} and #{} wrote identical values", a.0, b.0)
            }
            Violation::ReadOfUnwrittenValue { read } => {
                write!(f, "read #{} returned a never-written value", read.0)
            }
            Violation::ReadFromFuture { read, write } => write!(
                f,
                "read #{} returned before write #{} was invoked",
                read.0, write.0
            ),
            Violation::ShadowedRead {
                read,
                write,
                shadow,
            } => write!(
                f,
                "read #{} returned {} although write #{} definitely overwrote it first",
                read.0,
                match write {
                    Some(w) => format!("write #{}", w.0),
                    None => "the initial value".to_string(),
                },
                shadow.0
            ),
            Violation::InvertedReads { earlier, later } => write!(
                f,
                "read inversion: read #{} (earlier) saw a newer write than read #{} (later)",
                earlier.0, later.0
            ),
        }
    }
}

/// Checks the register conditions described in the [module docs](self).
///
/// Returns all violations found (empty ⇒ no violation *detected*; the check
/// is incomplete, see above). Written values must be unique; duplicates are
/// reported as [`Violation::DuplicateWriteValues`] and suppress the
/// remaining checks for the affected values.
pub fn check_conditions(history: &History) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Map written value -> write op id, detecting duplicates.
    let mut writes: HashMap<&[u8], OpId> = HashMap::new();
    for (id, rec) in history.iter() {
        if !rec.op.is_read() {
            let key = rec.op.value().as_bytes();
            if key.is_empty() {
                // A write of ⊥ collides with the initial value; treat as a
                // duplicate of the pseudo-write.
                violations.push(Violation::DuplicateWriteValues { a: id, b: id });
                continue;
            }
            if let Some(&first) = writes.get(key) {
                violations.push(Violation::DuplicateWriteValues { a: first, b: id });
            } else {
                writes.insert(key, id);
            }
        }
    }
    if !violations.is_empty() {
        return violations;
    }

    // Real instants are shifted by +1 so the initial ⊥ pseudo-write [0, 0]
    // strictly precedes every real operation, even those invoked at 0.
    let inv_of = |id: OpId| history.record(id).invoked_at.saturating_add(1);
    let ret_of = |id: OpId| history.record(id).effective_return().saturating_add(1);

    // Interval of a write; the initial ⊥ pseudo-write is [0, 0].
    let write_interval = |w: Option<OpId>| -> (u64, u64) {
        match w {
            None => (0, 0),
            Some(id) => (inv_of(id), ret_of(id)),
        }
    };

    // Reads-from mapping for completed reads.
    let mut reads: Vec<(OpId, Option<OpId>)> = Vec::new(); // (read, write)
    for (id, rec) in history.iter() {
        if rec.op.is_read() && rec.is_complete() {
            let v = rec.op.value();
            if v.is_bottom() {
                reads.push((id, None));
            } else {
                match writes.get(v.as_bytes()) {
                    Some(&w) => {
                        // Condition 2: no read from the future.
                        if ret_of(id) < inv_of(w) {
                            violations.push(Violation::ReadFromFuture { read: id, write: w });
                        }
                        reads.push((id, Some(w)));
                    }
                    None => violations.push(Violation::ReadOfUnwrittenValue { read: id }),
                }
            }
        }
    }

    // Condition 3: shadowed reads. For each read r (scanned by invocation
    // time), among *completed* writes w' with w'.ret < r.inv, find the one
    // with maximal invocation time; r is shadowed iff that maximum exceeds
    // rf(r)'s return.
    let mut completed_writes: Vec<(u64, u64, OpId)> = history // (ret, inv, id)
        .iter()
        .filter(|(_, rec)| !rec.op.is_read() && rec.is_complete())
        .map(|(id, _)| (ret_of(id), inv_of(id), id))
        .collect();
    completed_writes.sort_unstable();

    let mut reads_by_inv: Vec<(u64, usize)> = reads
        .iter()
        .enumerate()
        .map(|(idx, (rid, _))| (inv_of(*rid), idx))
        .collect();
    reads_by_inv.sort_unstable();

    {
        let mut wi = 0;
        let mut best: Option<(u64, OpId)> = None; // (max w'.inv, its id)
        for &(r_inv, idx) in &reads_by_inv {
            while wi < completed_writes.len() && completed_writes[wi].0 < r_inv {
                let (_, inv, id) = completed_writes[wi];
                if best.is_none_or(|(b, _)| inv > b) {
                    best = Some((inv, id));
                }
                wi += 1;
            }
            if let Some((max_inv, shadow)) = best {
                let (read, wfrom) = reads[idx];
                let (_, w_ret) = write_interval(wfrom);
                if max_inv > w_ret {
                    violations.push(Violation::ShadowedRead {
                        read,
                        write: wfrom,
                        shadow,
                    });
                }
            }
        }
    }

    // Condition 4: inverted reads. Scan reads r2 by invocation time while
    // absorbing reads r1 completed before r2.inv; track the r1 whose
    // reads-from write has the maximal invocation time. r2 is inverted iff
    // that maximum exceeds rf(r2)'s return.
    {
        let mut reads_by_ret: Vec<(u64, usize)> = reads
            .iter()
            .enumerate()
            .filter(|(_, (rid, _))| history.record(*rid).is_complete())
            .map(|(idx, (rid, _))| (ret_of(*rid), idx))
            .collect();
        reads_by_ret.sort_unstable();

        let mut ri = 0;
        let mut best: Option<(u64, usize)> = None; // (max w1.inv, read idx)
        for &(r2_inv, idx2) in &reads_by_inv {
            while ri < reads_by_ret.len() && reads_by_ret[ri].0 < r2_inv {
                let idx1 = reads_by_ret[ri].1;
                let (w1_inv, _) = write_interval(reads[idx1].1);
                if best.is_none_or(|(b, _)| w1_inv > b) {
                    best = Some((w1_inv, idx1));
                }
                ri += 1;
            }
            if let Some((max_w1_inv, idx1)) = best {
                let (r2, w2) = reads[idx2];
                let (_, w2_ret) = write_interval(w2);
                if max_w1_inv > w2_ret {
                    violations.push(Violation::InvertedReads {
                        earlier: reads[idx1].0,
                        later: r2,
                    });
                }
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use hts_types::{ClientId, Value};

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn clean_sequential_history_passes() {
        let mut h = History::new();
        let w = h.invoke_write(ClientId(0), v(1), 0);
        h.complete_write(w, 1);
        let r = h.invoke_read(ClientId(1), 2);
        h.complete_read(r, v(1), 3);
        assert!(check_conditions(&h).is_empty());
    }

    #[test]
    fn duplicate_writes_reported() {
        let mut h = History::new();
        let a = h.invoke_write(ClientId(0), v(1), 0);
        h.complete_write(a, 1);
        let b = h.invoke_write(ClientId(1), v(1), 2);
        h.complete_write(b, 3);
        assert_eq!(
            check_conditions(&h),
            vec![Violation::DuplicateWriteValues { a, b }]
        );
    }

    #[test]
    fn unwritten_value_reported() {
        let mut h = History::new();
        let r = h.invoke_read(ClientId(0), 0);
        h.complete_read(r, v(9), 1);
        assert_eq!(
            check_conditions(&h),
            vec![Violation::ReadOfUnwrittenValue { read: r }]
        );
    }

    #[test]
    fn read_from_future_reported() {
        let mut h = History::new();
        let r = h.invoke_read(ClientId(0), 0);
        h.complete_read(r, v(1), 1);
        let w = h.invoke_write(ClientId(1), v(1), 5);
        h.complete_write(w, 6);
        let found = check_conditions(&h);
        assert!(found.contains(&Violation::ReadFromFuture { read: r, write: w }));
    }

    #[test]
    fn stale_read_is_shadowed_by_later_write() {
        // w1(1)=[0,1], w2(2)=[2,3], read=[4,5] -> 1 : w1 < w2 < r.
        let mut h = History::new();
        let w1 = h.invoke_write(ClientId(0), v(1), 0);
        h.complete_write(w1, 1);
        let w2 = h.invoke_write(ClientId(0), v(2), 2);
        h.complete_write(w2, 3);
        let r = h.invoke_read(ClientId(1), 4);
        h.complete_read(r, v(1), 5);
        let found = check_conditions(&h);
        assert_eq!(
            found,
            vec![Violation::ShadowedRead {
                read: r,
                write: Some(w1),
                shadow: w2
            }]
        );
    }

    #[test]
    fn stale_bottom_read_is_shadowed() {
        let mut h = History::new();
        let w = h.invoke_write(ClientId(0), v(1), 0);
        h.complete_write(w, 1);
        let r = h.invoke_read(ClientId(1), 2);
        h.complete_read(r, Value::bottom(), 3);
        let found = check_conditions(&h);
        assert_eq!(
            found,
            vec![Violation::ShadowedRead {
                read: r,
                write: None,
                shadow: w
            }]
        );
    }

    #[test]
    fn read_inversion_reported() {
        // write(1) spans [0,100]; r1=[10,20] -> 1; r2=[30,40] -> ⊥.
        let mut h = History::new();
        let w = h.invoke_write(ClientId(0), v(1), 0);
        let r1 = h.invoke_read(ClientId(1), 10);
        h.complete_read(r1, v(1), 20);
        let r2 = h.invoke_read(ClientId(2), 30);
        h.complete_read(r2, Value::bottom(), 40);
        h.complete_write(w, 100);
        let found = check_conditions(&h);
        assert_eq!(
            found,
            vec![Violation::InvertedReads {
                earlier: r1,
                later: r2
            }]
        );
    }

    #[test]
    fn concurrent_reads_may_disagree() {
        // r1 and r2 overlap: either order of observed values is fine.
        let mut h = History::new();
        let w = h.invoke_write(ClientId(0), v(1), 0);
        let r1 = h.invoke_read(ClientId(1), 10);
        let r2 = h.invoke_read(ClientId(2), 11);
        h.complete_read(r1, v(1), 20);
        h.complete_read(r2, Value::bottom(), 21);
        h.complete_write(w, 100);
        assert!(check_conditions(&h).is_empty());
    }

    #[test]
    fn pending_write_observed_is_fine() {
        let mut h = History::new();
        h.invoke_write(ClientId(0), v(1), 0); // pending forever
        let r1 = h.invoke_read(ClientId(1), 5);
        h.complete_read(r1, v(1), 6);
        let r2 = h.invoke_read(ClientId(1), 7);
        h.complete_read(r2, v(1), 8);
        assert!(check_conditions(&h).is_empty());
    }

    #[test]
    fn monotone_reads_pass() {
        let mut h = History::new();
        let w1 = h.invoke_write(ClientId(0), v(1), 0);
        h.complete_write(w1, 1);
        let w2 = h.invoke_write(ClientId(0), v(2), 10);
        let r1 = h.invoke_read(ClientId(1), 11);
        h.complete_read(r1, v(1), 12); // w2 still pending: old value ok
        let r2 = h.invoke_read(ClientId(1), 13);
        h.complete_read(r2, v(2), 14); // then new value
        h.complete_write(w2, 20);
        assert!(check_conditions(&h).is_empty());
    }
}
