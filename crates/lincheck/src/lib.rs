//! Linearizability checking for read/write register histories.
//!
//! The `hts` test-suite validates the storage algorithm by recording every
//! client operation (invocation and response instants plus payloads) into a
//! [`History`] and asking this crate whether the history is **linearizable**
//! (atomic, in the sense of Herlihy & Wing / Lamport): does a total order of
//! the operations exist that respects real-time precedence and register
//! semantics?
//!
//! Three checkers with different trade-offs:
//!
//! * [`check_exhaustive`] — the Wing–Gong search with memoization. Exact for
//!   any history (including pending operations), exponential in the worst
//!   case; use for histories up to a few hundred operations.
//! * [`check_conditions`] — a register-specialized condition checker
//!   requiring **unique written values**. Linear-ish time, *sound but
//!   incomplete*: every violation it reports is real (including the paper's
//!   "read inversion"), but it may miss exotic ones. Use as a fast triage on
//!   huge simulator histories.
//! * [`check_witnessed`] — exact and `O(n log n)` when the implementation
//!   discloses the [`Tag`](hts_types::Tag) each operation resolved to (white-box). Verifies
//!   that the tag order is a valid linearization.
//!
//! # Examples
//!
//! ```
//! use hts_lincheck::{History, Outcome, check_exhaustive};
//! use hts_types::{ClientId, Value};
//!
//! let mut h = History::new();
//! // c0: |--- write(1) ---|        c1:      |-- read -> 1 --|
//! let w = h.invoke_write(ClientId(0), Value::from_u64(1), 0);
//! let r = h.invoke_read(ClientId(1), 5);
//! h.complete_write(w, 10);
//! h.complete_read(r, Value::from_u64(1), 12);
//! assert_eq!(check_exhaustive(&h), Outcome::Linearizable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conditions;
mod history;
mod wg;
mod witness;

pub use conditions::Violation;
pub use history::{History, Op, OpId, OpRecord};

/// Exhaustive Wing–Gong search; additionally dumps the
/// process-wide per-op flight recorder to stderr on a non-linearizable
/// verdict, so the trace of recent protocol events survives next to the
/// witness (a no-op when the recorder is empty).
pub fn check_exhaustive(history: &History) -> Outcome {
    dump_flight_on_violation(wg::check_exhaustive(history))
}

/// Bounded Wing–Gong search; flight-dumps like
/// [`check_exhaustive`].
pub fn check_exhaustive_bounded(history: &History, max_states: usize) -> Outcome {
    dump_flight_on_violation(wg::check_exhaustive_bounded(history, max_states))
}

/// Witness-guided check; flight-dumps like
/// [`check_exhaustive`].
pub fn check_witnessed(history: &History) -> Outcome {
    dump_flight_on_violation(witness::check_witnessed(history))
}

/// Necessary-condition scan; flight-dumps when any
/// violation is found, like [`check_exhaustive`].
pub fn check_conditions(history: &History) -> Vec<Violation> {
    let violations = conditions::check_conditions(history);
    if !violations.is_empty() {
        hts_metrics::flight::dump_to_stderr("linearizability condition violated");
    }
    violations
}

fn dump_flight_on_violation(outcome: Outcome) -> Outcome {
    if let Outcome::NotLinearizable(_) = &outcome {
        hts_metrics::flight::dump_to_stderr("non-linearizable history");
    }
    outcome
}

/// The verdict of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A valid linearization exists.
    Linearizable,
    /// No valid linearization exists; the string describes the witness or
    /// violated condition.
    NotLinearizable(String),
    /// The (bounded) checker gave up before reaching a verdict.
    Unknown,
}

impl Outcome {
    /// Returns `true` for [`Outcome::Linearizable`].
    pub fn is_linearizable(&self) -> bool {
        matches!(self, Outcome::Linearizable)
    }
}
