//! `qosbench`: the end-to-end and per-layer benchmark of the swizzle-qos
//! simulator. See `benchmark/README.md`.

pub mod alloc;
pub mod child;
pub mod gen;
pub mod report;
pub mod span;
pub mod stats;
pub mod traced;
pub mod untraced;
pub mod workload;

/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 30;
