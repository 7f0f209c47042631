//! # ssq-prof
//!
//! Cycle-phase profiling for swizzle-qos, one branch per cycle while
//! disarmed (DESIGN.md §11).
//!
//! * [`Profiler`] — a three-phase (`prepare`/`decide`/`commit`) timer
//!   in the style of ssq-trace's zero-overhead contract. Instrumented
//!   code calls [`Profiler::begin_cycle`] once per cycle: disarmed it is
//!   a single predictable branch; armed, every cycle is timed with
//!   [`Stopwatch`] laps.
//! * [`ProfReport`] — the cycle count and per-phase nanoseconds and lap
//!   counts that `ssq simulate --prof` prints.
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
