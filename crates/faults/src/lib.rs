//! `ssq-faults`: deterministic fault injection, degraded-mode
//! arbitration, and self-healing QoS re-admission for the Swizzle
//! Switch model.
//!
//! The subsystem closes the loop the robustness issue demands:
//!
//! 1. **Plans** ([`plan`]): a [`FaultPlan`] schedules [`FaultKind`]s at
//!    absolute cycles — scripted (inject at N, heal at M) or MTBF mode
//!    with exponentially distributed link flaps, always replayable from
//!    a seed.
//! 2. **Harness** ([`chaos`]): [`ChaosSwitch`] drives the plan through
//!    the standard simulator `Runner`, so schedules, the stall
//!    watchdog, and the Eq. 1 monitor all apply unchanged.
//! 3. **Oracle** ([`detect`]): [`judge`] reduces a monitored run plus
//!    its trace to the two-outcome contract — bounds preserved, or a
//!    structured revocation; a silent violation is the only failure.
//! 4. **Campaigns** ([`campaign`]): a catalog of single-fault scenarios
//!    covering every taxonomy site (link, bitline, auxVC, epoch clock,
//!    GL lane, admission capacity, trace sink), surfaced as
//!    `ssq faults` on the CLI and the `scripts/check.sh` smoke tier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod campaign;
pub mod chaos;
pub mod detect;
pub mod plan;

pub use campaign::{run_scenario, run_smoke, ScenarioResult, SCENARIOS};
pub use chaos::ChaosSwitch;
pub use detect::{judge, FailingWriter, Verdict};
pub use plan::{FaultKind, FaultPlan, LinkFault, Plan, Step};
