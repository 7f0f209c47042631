//! # swizzle-qos
//!
//! A production-quality reproduction of *Quality-of-Service for a
//! High-Radix Switch* (Abeyratne, Jeloka, Kang, Blaauw, Dreslinski, Das,
//! Mudge — DAC 2014): quality-of-service arbitration for a single-stage,
//! high-radix Swizzle Switch, scalable to 64 nodes.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`types`] — identifiers, units, traffic classes, switch geometry.
//! * [`stats`] — histograms, fairness indices, experiment tables.
//! * [`arbiter`] — LRG, WRR, DWRR, WFQ, Virtual Clock, and the paper's
//!   SSVC arbitration with its three counter-management policies.
//! * [`circuit`] — a bit-level model of the inhibit-based arbitration
//!   fabric (bitlines, thermometer codes, discharge decisions, sense
//!   amps) verified exhaustively against the behavioural arbiter.
//! * [`traffic`] — injection processes and destination patterns.
//! * [`sim`] — the cycle-accurate simulation kernel: one warm-up →
//!   measure loop behind every runner, and the sweep runner.
//! * [`trace`] — zero-overhead-when-off event tracing, the metrics
//!   registry, and the flight-recorder post-mortem.
//! * [`check`] — static admission/latency/overflow analysis (`SSQ0xx`
//!   diagnostics) gating every simulation.
//! * [`core`] — the QoS-enabled Swizzle Switch with Best-Effort,
//!   Guaranteed-Bandwidth, and Guaranteed-Latency classes, plus the GL
//!   latency-bound mathematics (Eqs. 1–3).
//! * [`physical`] — storage (Table 1), area, and frequency (Table 2)
//!   models.
//! * [`prof`] — the cycle-phase profiler (always compiled, armed at
//!   run time) behind `ssq simulate --prof`, and the JSON reader the
//!   benchmark package uses.
//! * [`faults`] — deterministic fault injection: seeded [`faults::FaultPlan`]
//!   schedules (scripted or MTBF mode), the [`faults::ChaosSwitch`]
//!   harness, the two-outcome [`faults::judge`] oracle, and the
//!   single-fault chaos-campaign catalog behind `ssq faults`.
//! * [`net`] — multi-hop fabrics of QoS switches: topologies (chain,
//!   fat tree, mesh) joined by credit-backpressured, lossy, or
//!   NACK-retransmitting links, topology fault plans (dead links,
//!   MTBF flaps, node partitions), the per-hop/whole-path
//!   [`net::judge_path`] oracle, the static "Eq. 1 per hop" `SSQ013`
//!   admission rule, and the seeded multi-hop chaos catalog behind
//!   `ssq net`.
//! * [`verify`] — the bounded exhaustive model checker: every reachable
//!   state of a small switch, checked against the V1–V6 invariant
//!   catalog (`SSQV00x` diagnostics), with minimal JSONL
//!   counterexamples on violation. The same predicates compile into
//!   runtime assertions under the `sanitizer` cargo feature.
//!
//! # Quickstart
//!
//! Reserve bandwidth on a congested output and watch SSVC enforce it:
//!
//! ```
//! use swizzle_qos::arbiter::CounterPolicy;
//! use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig};
//! use swizzle_qos::sim::{Runner, Schedule};
//! use swizzle_qos::traffic::{FixedDest, Injector, Saturating};
//! use swizzle_qos::types::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut config = SwitchConfig::builder(Geometry::new(8, 128)?)
//!     .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
//!     .gb_buffer_flits(16)
//!     .build()?;
//! // Two saturated flows share Out0 3:1.
//! config.reservations_mut().reserve_gb(
//!     InputId::new(0), OutputId::new(0), Rate::new(0.75)?, 8)?;
//! config.reservations_mut().reserve_gb(
//!     InputId::new(1), OutputId::new(0), Rate::new(0.25)?, 8)?;
//!
//! let mut switch = QosSwitch::new(config)?;
//! for i in 0..2 {
//!     switch.add_injector(
//!         Injector::new(
//!             Box::new(Saturating::new(8)),
//!             Box::new(FixedDest::new(OutputId::new(0))),
//!             TrafficClass::GuaranteedBandwidth,
//!         )
//!         .for_input(InputId::new(i)),
//!     );
//! }
//! let end = Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(20_000)))
//!     .run(&mut switch);
//! let t0 = switch.gb_metrics()
//!     .flow(FlowId::new(InputId::new(0), OutputId::new(0)))
//!     .throughput(end);
//! let t1 = switch.gb_metrics()
//!     .flow(FlowId::new(InputId::new(1), OutputId::new(0)))
//!     .throughput(end);
//! assert!((t0 / t1 - 3.0).abs() < 0.3, "3:1 split, got {t0:.3}:{t1:.3}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub use ssq_arbiter as arbiter;
pub use ssq_check as check;
pub use ssq_circuit as circuit;
pub use ssq_core as core;
pub use ssq_faults as faults;
pub use ssq_net as net;
pub use ssq_physical as physical;
pub use ssq_prof as prof;
pub use ssq_sim as sim;
pub use ssq_stats as stats;
pub use ssq_trace as trace;
pub use ssq_traffic as traffic;
pub use ssq_types as types;
pub use ssq_verify as verify;
