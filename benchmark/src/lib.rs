//! `hts-benchmark`: the repo's benchmark. Four TCP workloads against
//! three out-of-process servers, end-to-end metrics with frozen bounds,
//! and a per-layer budget from a traced in-process layer walk. See
//! `README.md` for the catalogue and `BENCHMARK.json` (repo root) for the
//! contract the pipeline checks.

pub mod checker;
pub mod cluster;
pub mod compare;
pub mod json;
pub mod loadgen;
pub mod procfs;
pub mod prom;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod walk;
