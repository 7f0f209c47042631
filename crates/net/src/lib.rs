//! ssq-net: multi-hop fabrics of QoS switches.
//!
//! Composes [`ssq_core::QosSwitch`] instances into topologies — linear
//! chains, 2-level fat trees, meshes — joined by links with per-link
//! latency, capacity, and finite queue depth. Three link disciplines
//! decide what happens when a queue fills:
//!
//! * **Credit** — lossless PFC-style backpressure: the wire pauses and
//!   the upstream switch holds its packets.
//! * **Lossy** — overflow drops, accounted per flow and per reason.
//! * **NACK** — drops are retransmitted under a bounded
//!   [`ssq_core::BackoffPolicy`]; only exhaustion is loud.
//!
//! The point of the crate is the *end-to-end* extension of the
//! two-outcome contract: a per-output guarantee admitted at a source
//! switch must either survive topology faults (dead links, flapping
//! wires, partitioned nodes) or be **revoked loudly** at the source —
//! never silently violated mid-path. [`judge_path`] rules on whole
//! runs; [`analyze_topology`] checks the static side ("Eq. 1 per
//! hop", code `SSQ013`); [`run_net_smoke`] drives the seeded chaos
//! catalog twice per seed — once with sleeping nodes, once stepping
//! every node every cycle — as a differential of the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::cast_possible_truncation
    )
)]

pub mod campaign;
pub mod check;
pub mod fabric;
pub mod fault;
pub mod judge;
pub mod link;
pub mod topology;

pub use campaign::{run_net_scenario, run_net_smoke, NetScenarioResult, NET_SCENARIOS};
pub use check::analyze_topology;
#[doc(hidden)]
pub use fabric::DenseFabric;
pub use fabric::{Fabric, FabricCounters, FabricWork, FlowSpec, FlowStats};
pub use fault::{NetFaultKind, NetFaultPlan};
pub use judge::{judge_path, PathVerdict};
pub use link::{LinkDiscipline, LinkQueue, LinkSpec};
pub use topology::{compute_routes, Routes, Topology};
