//! # ssq-prof
//!
//! Cycle-phase profiling for swizzle-qos, one branch per cycle while
//! disarmed (DESIGN.md §11).
//!
//! * [`Profiler`] — a counter-sampled phase timer in the style of
//!   ssq-trace's zero-overhead contract. Instrumented code calls
//!   [`Profiler::begin_cycle`] once per cycle: disarmed it is a single
//!   predictable branch, armed it is one counter add plus a mask test,
//!   and only on sampled cycles do the [`Stopwatch`] reads run.
//! * [`ProfReport`] — the aggregated per-phase breakdown (wall-clock
//!   and sample counts) `ssq simulate --prof` prints.
//! * [`json`] — the strict JSON reader the benchmark package parses its
//!   result documents with.
//!
//! The crate is dependency-free except for `ssq-stats` (table
//! rendering); `ssq-core` embeds the hooks in `QosSwitch::step`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod json;
pub mod profiler;

pub use profiler::{
    PhaseLine, ProfReport, Profiler, Stopwatch, KERNEL_PHASES, PHASE_COMMIT, PHASE_DECIDE,
    PHASE_PREPARE,
};
