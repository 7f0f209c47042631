//! `ssq-verify`: a bounded exhaustive model checker for the arbitration
//! pipeline (DESIGN.md §7).
//!
//! The simulator answers "what happens on this workload?"; this crate
//! answers "can the arbitration pipeline *ever* do the wrong thing?"
//! for small switches, by brute force. It enumerates every reachable
//! state of one output channel of a radix-2 or radix-4 switch — every
//! `auxVC` counter value, every LRG permutation, every request pattern
//! per cycle, under all three [`CounterPolicy`] variants — and checks
//! the V1–V6 invariant catalog of [`ssq_types::invariant`] on every
//! transition:
//!
//! | code    | invariant                                                |
//! |---------|----------------------------------------------------------|
//! | SSQV001 | V1 — exactly one grant per output bus per cycle          |
//! | SSQV002 | V2 — thermometer codes are monotone/well-formed          |
//! | SSQV003 | V3 — `auxVC` never exceeds its configured width          |
//! | SSQV004 | V4 — LRG never starves a continuous requester ≥ radix    |
//! | SSQV005 | V5 — observed GL wait never exceeds the Eq. 1 bound      |
//! | SSQV006 | V6 — behavioural arbiter ≡ bitline circuit model         |
//!
//! A violation is reported as a **minimal counterexample**: the
//! breadth-first search guarantees no shorter request sequence reaches
//! the bad transition, and the offending run is replayed through the
//! `ssq-trace` event taxonomy so the trace can be written as JSONL and
//! inspected with `trace-report`.
//!
//! Entry points: [`verify_scenario`] checks one [`Scenario`];
//! [`tier::fast_scenarios`] / [`tier::deep_scenarios`] are the curated
//! suites behind `ssq verify`.
//!
//! # Examples
//!
//! ```
//! use ssq_arbiter::CounterPolicy;
//! use ssq_types::TrafficClass;
//! use ssq_verify::{verify_scenario, Scenario};
//!
//! let s = Scenario::new(
//!     "doc-2x2",
//!     CounterPolicy::SubtractRealClock,
//!     vec![TrafficClass::GuaranteedBandwidth, TrafficClass::BestEffort],
//!     vec![1, 3],
//! );
//! let outcome = verify_scenario(&s);
//! assert!(outcome.violation.is_none());
//! assert!(outcome.closed, "the 2x2 state space closes");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

mod explore;
mod model;
pub mod tier;

pub use explore::{verify_scenario, CounterExample, VerifyOutcome};
pub use model::{Model, ModelState, Scenario, TieBreak, Violation};

use ssq_arbiter::CounterPolicy;

/// All three finite-counter policies, in a stable order — every tier
/// runs every scenario shape under each of these.
#[must_use]
pub fn all_policies() -> [CounterPolicy; 3] {
    [
        CounterPolicy::SubtractRealClock,
        CounterPolicy::Halve,
        CounterPolicy::Reset,
    ]
}
