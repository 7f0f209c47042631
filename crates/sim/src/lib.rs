//! Cycle-accurate simulation kernel for `swizzle-qos`.
//!
//! The paper evaluates SSVC with "a custom, cycle-accurate simulator for
//! the Swizzle Switch" (§4.1). This crate is that simulator's engine,
//! kept independent of the switch model itself:
//!
//! * [`Schedule`] — warm-up and measurement phases in cycles.
//! * [`CycleModel`] — anything steppable one cycle at a time with a
//!   stats-reset hook at the warm-up/measurement boundary.
//! * [`Runner`] — drives a model through a schedule, optionally under
//!   a stall/violation watchdog ([`Monitored`],
//!   [`Runner::run_monitored`]) that backs the flight recorder.
//! * [`sweep`] — runs one experiment per parameter point across threads
//!   (std scoped threads), preserving input order in the results.
//! * [`EventModel`] / [`Runner::run_skipping`] — event-driven idle
//!   skipping (`--engine bitpar`), byte-identical to dense stepping.
//! * [`ShardedModel`] / [`ParRunner`] — the sharded parallel engine:
//!   one cycle as parallel per-shard decisions plus a serial in-order
//!   merge, bit-identical to the sequential runner at any thread count.
//!
//! The warm-up → `begin_measurement` → measure loop exists once
//! (`runner.rs`); every entry point above is a call into it.
//!
//! (The Value Change Dump writer lives in `ssq_core::vcd`, next to the
//! switch recorder that uses it.)
//!
//! A single switch is simulated synchronously — every component advances
//! each cycle — rather than with a general event queue: at the saturated
//! loads the paper studies, nearly every cycle carries events, so a
//! dense loop is both simpler and faster. The one event-driven
//! concession is [`Runner::run_skipping`]'s idle skip, which jumps over
//! provably-quiescent stretches (nothing buffered, nothing in flight)
//! where the dense loop would burn a full cycle to decide "no requests"
//! at every output.
//!
//! # Examples
//!
//! ```
//! use ssq_sim::{CycleModel, Runner, Schedule};
//! use ssq_types::{Cycle, Cycles};
//!
//! struct TokenBucket {
//!     tokens: u64,
//! }
//! impl CycleModel for TokenBucket {
//!     fn step(&mut self, _now: Cycle) {
//!         self.tokens += 1;
//!     }
//!     fn begin_measurement(&mut self, _now: Cycle) {
//!         self.tokens = 0; // discard warm-up state
//!     }
//! }
//!
//! let mut model = TokenBucket { tokens: 0 };
//! let end = Runner::new(Schedule::new(Cycles::new(100), Cycles::new(400)))
//!     .run(&mut model);
//! assert_eq!(end, Cycle::new(500));
//! assert_eq!(model.tokens, 400); // only the measurement phase counted
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

mod par;
mod runner;
mod sweep;

pub use par::{ParRunner, ShardedModel};
pub use runner::{CycleModel, EventModel, MonitorOutcome, Monitored, Runner, Schedule};
pub use ssq_check::{Preflight, Report};
pub use sweep::{sweep, sweep_with_threads};
