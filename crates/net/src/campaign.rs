//! The multi-hop chaos catalog and the `ssq net --smoke` tier.
//!
//! Each scenario drives seeded multi-hop traffic through a topology
//! fault plan and judges the run with the end-to-end oracle
//! ([`judge_path`]): every fault must end in
//! [`Verdict::BoundsPreserved`] or an explicit, traced revocation —
//! never a silent violation. The smoke tier ([`run_net_smoke`]) runs
//! every scenario **twice** from the same seed — as shipped, nodes
//! sleeping while quiescent, and on the dense oracle that steps every
//! node every cycle — and folds any divergence — verdict, counters,
//! fabric events, per-node traces, or the loss ledger — into a
//! [`Verdict::SilentViolation`], making each smoke run a differential
//! of the sleeping fabric against the dense one.

use ssq_core::BackoffPolicy;
use ssq_faults::{FaultKind, Verdict};
use ssq_sim::{MonitorOutcome, Runner, Schedule};
use ssq_trace::Event;
use ssq_types::{Cycles, TrafficClass};

use crate::fabric::{DenseFabric, Fabric, FabricCounters, FlowSpec};
use crate::fault::{NetFaultKind, NetFaultPlan};
use crate::judge::{judge_path, PathVerdict};
use crate::link::LinkDiscipline;
use crate::topology::Topology;

/// Warm-up cycles before measurement (faults land after this).
const WARMUP: u64 = 500;
/// Measured cycles per scenario.
const MEASURE: u64 = 5_000;
/// Cycle at which scripted faults land.
const INJECT_AT: u64 = 1_500;
/// Cycle at which healable scenarios heal.
const HEAL_AT: u64 = 3_000;
/// Watchdog stall window.
const STALL_WINDOW: u64 = 2_000;

/// The catalog: `(name, what the scenario breaks)`.
pub const NET_SCENARIOS: &[(&str, &str)] = &[
    (
        "chain-credit-partition",
        "credit chain loses its middle link; revoke-and-readmit, heal",
    ),
    (
        "chain-lossy-flap",
        "lossy chain's middle link flaps on an MTBF schedule",
    ),
    (
        "chain-nack-blip",
        "NACK chain rides out a short wire blip on retransmissions",
    ),
    (
        "chain-node-fault",
        "single-switch fault (LRG degrade) on a transit node",
    ),
    (
        "fat-tree-uplink-kill",
        "credit fat tree loses an uplink; reroute via the second spine",
    ),
    (
        "fat-tree-uplink-flap",
        "NACK fat tree's primary uplink flaps; retransmit + reroute",
    ),
    (
        "mesh-corner-partition",
        "lossy mesh transit corner partitions, heals mid-run",
    ),
];

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct NetScenarioResult {
    /// Scenario name (from [`NET_SCENARIOS`]).
    pub name: String,
    /// The end-to-end oracle's ruling (overall + per hop).
    pub verdict: PathVerdict,
    /// Whole-fabric counters at the end of the run.
    pub counters: FabricCounters,
    /// Fabric-level hop events, for JSONL export.
    pub fabric_events: Vec<Event>,
    /// Per-node flight-recorder rings.
    pub node_events: Vec<Vec<Event>>,
    /// `(flow, reason) -> count` loss ledger, flattened for display.
    pub losses: Vec<(usize, String, u64)>,
}

fn gb(src: usize, dest: usize, rate: f64, period: u64) -> FlowSpec {
    FlowSpec::new(src, dest, TrafficClass::GuaranteedBandwidth)
        .rate(rate)
        .every(period)
}

fn build_scenario(name: &str, seed: u64) -> Option<Fabric> {
    let horizon = WARMUP + MEASURE;
    let fabric = match name {
        "chain-credit-partition" => {
            let topo = Topology::chain(3, LinkDiscipline::Credit);
            let flows = [
                gb(0, 3, 0.4, 20),
                gb(0, 3, 0.2, 40).ports(5, 5),
                FlowSpec::new(0, 3, TrafficClass::GuaranteedLatency)
                    .rate(0.05)
                    .every(100)
                    .ports(6, 6),
            ];
            let plan = NetFaultPlan::new()
                .schedule(INJECT_AT, NetFaultKind::KillLink { link: 1 })
                .schedule(HEAL_AT, NetFaultKind::RestoreLink { link: 1 });
            Fabric::new(topo, &flows, seed)
                .expect("valid fabric")
                .with_plan(plan)
        }
        "chain-lossy-flap" => {
            let topo = Topology::chain(3, LinkDiscipline::Lossy);
            let flows = [gb(0, 3, 0.4, 20), gb(0, 3, 0.2, 40).ports(5, 5)];
            let plan = NetFaultPlan::link_flaps(seed, 1, 600, 120, horizon);
            Fabric::new(topo, &flows, seed)
                .expect("valid fabric")
                .with_plan(plan)
        }
        "chain-nack-blip" => {
            let policy = BackoffPolicy::exponential(8, 4, 2, 256);
            let topo = Topology::chain(3, LinkDiscipline::Nack(policy));
            let flows = [gb(0, 3, 0.4, 20)];
            let plan = NetFaultPlan::new()
                .schedule(INJECT_AT, NetFaultKind::KillLink { link: 1 })
                .schedule(INJECT_AT + 60, NetFaultKind::RestoreLink { link: 1 });
            Fabric::new(topo, &flows, seed)
                .expect("valid fabric")
                .with_plan(plan)
        }
        "chain-node-fault" => {
            let topo = Topology::chain(3, LinkDiscipline::Credit);
            let flows = [gb(0, 3, 0.4, 20)];
            // The single-switch taxonomy rides along unchanged: degrade
            // the transit node's SSVC arbiter to LRG, then restore it.
            let plan = NetFaultPlan::new()
                .schedule(
                    INJECT_AT,
                    NetFaultKind::NodeFault {
                        node: 1,
                        kind: FaultKind::DegradeToLrg { output: 0 },
                    },
                )
                .schedule(
                    HEAL_AT,
                    NetFaultKind::NodeFault {
                        node: 1,
                        kind: FaultKind::RestoreSsvc { output: 0 },
                    },
                );
            Fabric::new(topo, &flows, seed)
                .expect("valid fabric")
                .with_plan(plan)
        }
        "fat-tree-uplink-kill" => {
            let topo = Topology::fat_tree(LinkDiscipline::Credit);
            let flows = [gb(0, 3, 0.3, 26)];
            let plan = NetFaultPlan::new()
                .schedule(INJECT_AT, NetFaultKind::KillLink { link: 0 })
                .schedule(HEAL_AT, NetFaultKind::RestoreLink { link: 0 });
            Fabric::new(topo, &flows, seed)
                .expect("valid fabric")
                .with_plan(plan)
        }
        "fat-tree-uplink-flap" => {
            let policy = BackoffPolicy::exponential(5, 4, 2, 64).with_jitter(3, seed);
            let topo = Topology::fat_tree(LinkDiscipline::Nack(policy));
            let flows = [gb(0, 3, 0.3, 26)];
            let plan = NetFaultPlan::link_flaps(seed, 0, 700, 140, horizon);
            Fabric::new(topo, &flows, seed)
                .expect("valid fabric")
                .with_plan(plan)
        }
        "mesh-corner-partition" => {
            let topo = Topology::mesh(2, 2, LinkDiscipline::Lossy);
            let flows = [gb(0, 3, 0.3, 26)];
            // The healthy route 0 -> 3 transits corner 1 (lowest link
            // index wins); partition it and heal mid-run.
            let plan = NetFaultPlan::new()
                .schedule(INJECT_AT, NetFaultKind::PartitionNode { node: 1 })
                .schedule(HEAL_AT, NetFaultKind::HealNode { node: 1 });
            Fabric::new(topo, &flows, seed)
                .expect("valid fabric")
                .with_plan(plan)
        }
        _ => return None,
    };
    Some(fabric)
}

/// Builds and runs one named scenario; `None` for an unknown name.
///
/// `seed` parameterizes MTBF schedules and NACK jitter, so a campaign
/// replays exactly from `(name, seed)`.
#[must_use]
pub fn run_net_scenario(name: &str, seed: u64) -> Option<NetScenarioResult> {
    run_scenario(name, seed, false)
}

/// [`run_net_scenario`], on the dense oracle when `dense` is set.
fn run_scenario(name: &str, seed: u64, dense: bool) -> Option<NetScenarioResult> {
    let mut fabric = build_scenario(name, seed)?;
    let runner = Runner::new(Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)));
    let stall = Cycles::new(STALL_WINDOW);
    let outcome: MonitorOutcome = if dense {
        runner.run_monitored(&mut DenseFabric(&mut fabric), stall, |_, _| {})
    } else {
        runner.run_monitored(&mut fabric, stall, |_, _| {})
    };
    let node_events = fabric.node_events();
    let verdict = judge_path(&outcome, &node_events, fabric.events());
    let losses = fabric
        .loss()
        .iter()
        .map(|(&(flow, ref reason), &count)| (flow, reason.clone(), count))
        .collect();
    Some(NetScenarioResult {
        name: name.to_string(),
        verdict,
        counters: fabric.counters(),
        fabric_events: fabric.events().to_vec(),
        node_events,
        losses,
    })
}

/// Runs every catalog scenario from `seed` twice, as shipped and on the
/// dense oracle, and folds any divergence into a
/// [`Verdict::SilentViolation`] — the fabric equivalent of the
/// single-switch engine differential.
#[must_use]
pub fn run_net_smoke(seed: u64) -> Vec<NetScenarioResult> {
    NET_SCENARIOS
        .iter()
        .map(|(name, _)| {
            let first = run_scenario(name, seed, false).expect("catalog names are valid");
            let oracle = run_scenario(name, seed, true).expect("catalog names are valid");
            differential(first, &oracle)
        })
        .collect()
}

/// Compares a run with its same-seed oracle run; identical runs pass
/// through, any observable difference is reported loudly.
fn differential(mut first: NetScenarioResult, second: &NetScenarioResult) -> NetScenarioResult {
    let mut diffs = Vec::new();
    if first.verdict != second.verdict {
        diffs.push(format!(
            "verdict {:?} vs {:?}",
            first.verdict.overall, second.verdict.overall
        ));
    }
    if first.counters != second.counters {
        diffs.push("fabric counters".to_string());
    }
    if first.fabric_events != second.fabric_events {
        diffs.push(format!(
            "fabric events ({} vs {})",
            first.fabric_events.len(),
            second.fabric_events.len()
        ));
    }
    if first.node_events != second.node_events {
        diffs.push("node traces".to_string());
    }
    if first.losses != second.losses {
        diffs.push("loss ledger".to_string());
    }
    if !diffs.is_empty() {
        first.verdict.overall = Verdict::SilentViolation {
            reason: format!("same-seed dense replay diverged: {}", diffs.join("; ")),
        };
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_net_scenario_satisfies_the_two_outcome_contract() {
        for result in run_net_smoke(7) {
            assert!(
                result.verdict.is_acceptable(),
                "{}: silent violation: {:?}",
                result.name,
                result.verdict.overall
            );
            assert!(
                result.counters.delivered_flits > 0,
                "{}: fabric stopped delivering entirely",
                result.name
            );
        }
    }

    #[test]
    fn partitions_and_node_faults_revoke_loudly() {
        for name in [
            "chain-credit-partition",
            "chain-node-fault",
            "fat-tree-uplink-kill",
        ] {
            let result = run_net_scenario(name, 7).unwrap();
            assert!(
                matches!(result.verdict.overall, Verdict::Revoked { .. }),
                "{name}: expected a loud revocation, got {:?}",
                result.verdict.overall
            );
        }
    }

    #[test]
    fn nack_blip_is_absorbed_without_revocation() {
        let result = run_net_scenario("chain-nack-blip", 7).unwrap();
        assert_eq!(
            result.verdict.overall,
            Verdict::BoundsPreserved,
            "retransmissions must absorb a 60-cycle blip"
        );
        assert!(result.counters.retransmits >= 1);
        assert_eq!(result.counters.dropped_packets, 0);
    }

    #[test]
    fn fat_tree_faults_reroute_around_the_dead_uplink() {
        for name in ["fat-tree-uplink-kill", "fat-tree-uplink-flap"] {
            let result = run_net_scenario(name, 7).unwrap();
            assert!(
                result.counters.reroutes >= 1,
                "{name}: no reroute recorded: {:?}",
                result.counters
            );
        }
    }

    #[test]
    fn campaigns_replay_exactly_from_their_seed() {
        let a = run_net_scenario("chain-lossy-flap", 11).unwrap();
        let b = run_net_scenario("chain-lossy-flap", 11).unwrap();
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.fabric_events, b.fabric_events);
        assert_eq!(a.node_events, b.node_events);
    }

    #[test]
    fn first_violation_names_a_site_whenever_loud() {
        let result = run_net_scenario("chain-credit-partition", 7).unwrap();
        let (site, at) = result
            .verdict
            .first_violation
            .clone()
            .expect("loud run pins its first violation");
        assert!(
            site.starts_with("node") || site.starts_with("link"),
            "site: {site}"
        );
        assert!(at >= INJECT_AT, "violation at {at} predates the fault");
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_net_scenario("no-such-scenario", 0).is_none());
    }
}
