//! # ssq-prof
//!
//! Zero-overhead-when-off cycle-phase profiling for swizzle-qos
//! (DESIGN.md §11).
//!
//! * [`Profiler`] — a counter-sampled phase timer in the style of
//!   ssq-trace's zero-overhead contract. Instrumented code calls
//!   [`Profiler::begin_cycle`] once per cycle: disarmed it is a single
//!   predictable branch, armed it is one counter add plus a mask test,
//!   and only on sampled cycles do the [`Stopwatch`] reads run. The
//!   switch core compiles its hooks out entirely when its `prof` cargo
//!   feature is off, pinned by the `trace_overhead` microbench
//!   methodology.
//! * [`ProfReport`] — the aggregated per-phase breakdown (wall-clock
//!   and sample counts) `ssq simulate --prof` prints.
//! * [`json`] — the strict JSON reader the benchmark package parses its
//!   result documents with.
//!
//! The crate itself is dependency-free except for `ssq-stats` (table
//! rendering) and is always compiled; the `prof` feature lives on the
//! crate that embeds the hooks (`ssq-core`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod profiler;

pub use profiler::{
    PhaseLine, ProfReport, Profiler, Stopwatch, KERNEL_PHASES, PHASE_COMMIT, PHASE_DECIDE,
    PHASE_PREPARE,
};
