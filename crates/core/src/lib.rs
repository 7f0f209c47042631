//! The QoS-enabled Swizzle Switch — the primary contribution of
//! *Quality-of-Service for a High-Radix Switch* (Abeyratne et al.,
//! DAC 2014), reproduced as a cycle-accurate software model.
//!
//! A [`QosSwitch`] is a single-stage crossbar with dedicated input and
//! output channels per port. Each output channel is arbitrated every
//! packet: one arbitration cycle (the Swizzle Switch resolves the whole
//! QoS + LRG decision in a single cycle — the paper's key circuit
//! contribution) followed by one cycle per flit of the winning packet,
//! giving the `L/(L+1)` throughput ceiling visible in Fig. 4.
//!
//! Three traffic classes are supported, in increasing priority:
//!
//! * **Best Effort** — served by least-recently-granted arbitration when
//!   no higher class requests.
//! * **Guaranteed Bandwidth** — per-flow reserved rates enforced by the
//!   SSVC mechanism: coarse `auxVC` counters compared through
//!   thermometer-coded bitline lanes with LRG tie-breaking
//!   ([`ssq_arbiter::SsvcArbiter`]), with three finite-counter
//!   management policies ([`ssq_arbiter::CounterPolicy`]).
//! * **Guaranteed Latency** — absolute priority from a dedicated lane,
//!   with the worst-case waiting-time bound of Eq. 1
//!   ([`ssq_types::bounds::gl_latency_bound`]) and the burst budgets of
//!   Eqs. 2–3 ([`ssq_types::bounds::gl_burst_budgets`]).
//!
//! Baseline arbitration policies (plain LRG, exact Virtual Clock, WRR,
//! DWRR, WFQ, and the prior 4-level fixed-priority scheme) plug into the
//! same switch via [`Policy`], so every comparison in the paper's
//! evaluation runs on identical buffering and timing.
//!
//! # Quickstart
//!
//! ```
//! use ssq_core::{Policy, QosSwitch, SwitchConfig};
//! use ssq_arbiter::CounterPolicy;
//! use ssq_sim::{Runner, Schedule};
//! use ssq_traffic::{Bernoulli, FixedDest, Injector};
//! use ssq_types::{Cycles, Geometry, InputId, OutputId, Rate, TrafficClass};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An 8x8 switch with 128-bit channels running SSVC.
//! let mut config = SwitchConfig::builder(Geometry::new(8, 128)?)
//!     .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
//!     .gb_buffer_flits(16)
//!     .build()?;
//! // Reserve 40% of Out0 for In0's 8-flit packets.
//! config.reservations_mut().reserve_gb(
//!     InputId::new(0), OutputId::new(0), Rate::new(0.4)?, 8)?;
//!
//! let mut switch = QosSwitch::new(config)?;
//! switch.add_injector(
//!     Injector::new(
//!         Box::new(Bernoulli::new(0.9, 8, 1)),
//!         Box::new(FixedDest::new(OutputId::new(0))),
//!         TrafficClass::GuaranteedBandwidth,
//!     )
//!     .for_input(InputId::new(0)),
//! );
//!
//! let end = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(10_000)))
//!     .run(&mut switch);
//! let metrics = switch.gb_metrics();
//! let flow = metrics.flow(ssq_types::FlowId::new(InputId::new(0), OutputId::new(0)));
//! assert!(flow.throughput(end) > 0.3, "reserved flow starved");
//! # Ok(())
//! # }
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
        clippy::panic,
        clippy::cast_possible_truncation
    )
)]

pub mod analyze;
pub mod bitmask;
mod config;
mod packet;
mod port;
mod reservations;
mod sanitize;
mod switch;
pub mod vcd;

pub use analyze::{AnalysisOptions, GlContract};
pub use config::{ConfigError, Policy, SwitchConfig, SwitchConfigBuilder};
pub use packet::Packet;
pub use reservations::{GbReservation, ReadmitDecision, Reservations};
pub use ssq_check::{Preflight, Report};
pub use ssq_trace::ReadmitAction;
#[doc(hidden)]
pub use switch::ReferenceKernel;
pub use switch::{
    ChannelState, InjectionWork, OutputPlan, QosSwitch, SwitchCounters, TransmitOnlyCycles,
};
