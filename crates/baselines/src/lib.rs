//! Baseline atomic-storage protocols the paper argues against.
//!
//! The paper's case for its ring design rests on comparisons with three
//! families of algorithms; this crate implements a representative of each,
//! on the same simulator and with the same closed-loop clients as the ring
//! protocol, so the benches in `hts-bench` can measure the comparison the
//! paper only argues analytically:
//!
//! * [`abd`] — the classic majority-quorum register (Attiya–Bar-Noy–Dolev
//!   \[4\], multi-writer variant per Lynch–Shvartsman \[24\]). Reads and
//!   writes each contact a majority; every operation costs `Θ(n)` messages
//!   and, crucially, the *values* cross Θ(n) links per read, so throughput
//!   does not scale with servers (\[25\], cited in §4.2).
//! * [`chain`] — chain replication (van Renesse–Schneider \[28\]): writes
//!   stream down a chain (high write throughput, like the ring), but all
//!   reads are served by the single tail — read throughput is flat.
//! * [`tob`] — a total-order-broadcast register on the same ring transport
//!   (the modular approach of \[15\] discussed in §1): *reads are ordered
//!   too*, so they consume ring slots and read throughput collapses to the
//!   broadcast throughput (≈1/round) instead of scaling with `n`.
//! * [`fig1`] — the two toy read protocols of the paper's Figure 1 in the
//!   round model (quorum "Algorithm A" vs local-read "Algorithm B").
//!
//! All baselines are evaluated crash-free (as in the paper's Figure 3/4
//! experiments); ABD additionally tolerates minority crashes by
//! construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abd;
pub mod chain;
mod common;
pub mod fig1;
pub mod tob;
