//! The sleeping fabric against the dense oracle.
//!
//! `Fabric::step` leaves quiescent nodes unstepped and batches their
//! clocks when something touches them; `Fabric::step_dense` steps every
//! node every cycle. Over {chain, fat tree, 4×4 mesh} × {credit, lossy,
//! NACK} × {no faults, MTBF link flaps, partition + heal + kill +
//! restore, single-switch faults landing on a sleeping node} the two
//! must agree on everything a run can be asked for: the monitor
//! outcome, the counters, the hop events, every node's ring — the
//! decay-epoch events a sleeper is owed and their stamps included — the
//! loss ledger and every flow's statistics.

use ssq_faults::FaultKind;
use ssq_net::BackoffPolicy;
use ssq_net::{
    DenseFabric, Fabric, FlowSpec, LinkDiscipline, NetFaultKind, NetFaultPlan, Topology,
};
use ssq_sim::{MonitorOutcome, Runner, Schedule};
use ssq_trace::EventKind;
use ssq_types::{Cycles, TrafficClass};

const WARMUP: u64 = 300;
const MEASURE: u64 = 4_500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Chain,
    FatTree,
    Mesh,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    None,
    Flaps,
    PartitionAndKill,
    OnASleeper,
}

/// The topology, its flows, a link and a node on the flows' path (what
/// the topology faults hit) and a node on nobody's path (asleep from
/// its first cycle to its last, bar the faults aimed at it).
fn scenario(
    shape: Shape,
    discipline: LinkDiscipline,
) -> (Topology, Vec<FlowSpec>, usize, usize, usize) {
    use TrafficClass::{BestEffort, GuaranteedBandwidth, GuaranteedLatency};
    match shape {
        Shape::Chain => (
            Topology::chain(3, discipline),
            vec![
                FlowSpec::new(0, 2, GuaranteedBandwidth).rate(0.3).every(40),
                FlowSpec::new(1, 2, GuaranteedLatency)
                    .rate(0.05)
                    .len_flits(2)
                    .every(90)
                    .ports(6, 6),
                FlowSpec::new(0, 1, BestEffort).every(70).ports(5, 5),
            ],
            1,
            1,
            3,
        ),
        Shape::FatTree => (
            Topology::fat_tree(discipline),
            vec![
                FlowSpec::new(0, 3, GuaranteedBandwidth).rate(0.3).every(36),
                FlowSpec::new(3, 0, BestEffort).every(50).ports(5, 5),
            ],
            0,
            1,
            2,
        ),
        Shape::Mesh => (
            Topology::mesh(4, 4, discipline),
            vec![
                FlowSpec::new(0, 3, GuaranteedBandwidth).rate(0.3).every(40),
                FlowSpec::new(4, 7, GuaranteedLatency)
                    .rate(0.05)
                    .len_flits(2)
                    .every(110)
                    .ports(6, 6),
                FlowSpec::new(5, 10, GuaranteedBandwidth)
                    .rate(0.2)
                    .every(64)
                    .ports(5, 5),
                FlowSpec::new(12, 0, BestEffort).every(56).ports(7, 7),
            ],
            // Link 4 is 1 -> 2, on the 0 -> 3 row.
            4,
            2,
            15,
        ),
    }
}

fn plan(faults: Faults, seed: u64, link: usize, transit: usize, idle: usize) -> NetFaultPlan {
    let node_fault = |node, kind| NetFaultKind::NodeFault { node, kind };
    match faults {
        Faults::None => NetFaultPlan::new(),
        Faults::Flaps => NetFaultPlan::link_flaps(seed, link, 500, 110, WARMUP + MEASURE),
        Faults::PartitionAndKill => NetFaultPlan::new()
            .schedule(900, NetFaultKind::PartitionNode { node: transit })
            .schedule(1_700, NetFaultKind::HealNode { node: transit })
            .schedule(2_600, NetFaultKind::KillLink { link })
            .schedule(3_500, NetFaultKind::RestoreLink { link }),
        // The idle node sleeps from cycle 1: each of these finds it
        // asleep unless the one before left it armed. The epoch skip
        // moves its decay alarm; the link fault keeps it awake until
        // healed; the last two land between a transit node's packets.
        Faults::OnASleeper => NetFaultPlan::new()
            .schedule(
                700,
                node_fault(
                    idle,
                    FaultKind::SkipEpochs {
                        output: 2,
                        epochs: 2,
                    },
                ),
            )
            .schedule(1_300, node_fault(idle, FaultKind::LinkDown { input: 3 }))
            .schedule(1_900, node_fault(idle, FaultKind::LinkUp { input: 3 }))
            .schedule(
                2_500,
                node_fault(idle, FaultKind::DegradeToLrg { output: 0 }),
            )
            .schedule(
                3_001,
                node_fault(
                    idle,
                    FaultKind::Readmit {
                        output: 1,
                        capacity: 0.5,
                        gl_lane_lost: false,
                    },
                ),
            )
            .schedule(
                3_333,
                node_fault(transit, FaultKind::DegradeToLrg { output: 0 }),
            )
            .schedule(
                3_999,
                node_fault(transit, FaultKind::RestoreSsvc { output: 0 }),
            ),
    }
}

fn run(fabric: &mut Fabric, dense: bool) -> MonitorOutcome {
    let runner = Runner::new(Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)));
    let stall = Cycles::new(2_000);
    if dense {
        runner.run_monitored(&mut DenseFabric(fabric), stall, |_, _| {})
    } else {
        runner.run_monitored(fabric, stall, |_, _| {})
    }
}

fn decay_events(fabric: &Fabric) -> usize {
    fabric
        .node_events()
        .iter()
        .flatten()
        .filter(|e| matches!(e.kind, EventKind::Decay { .. }))
        .count()
}

#[test]
fn sleeping_nodes_are_unobservable_on_every_topology_discipline_and_fault_plan() {
    let nack = BackoffPolicy::exponential(6, 4, 2, 128);
    let mut cell = 0u64;
    for shape in [Shape::Chain, Shape::FatTree, Shape::Mesh] {
        for discipline in [
            LinkDiscipline::Credit,
            LinkDiscipline::Lossy,
            LinkDiscipline::Nack(nack.with_jitter(3, cell)),
        ] {
            let mut wakes_without_faults = 0;
            for faults in [
                Faults::None,
                Faults::Flaps,
                Faults::PartitionAndKill,
                Faults::OnASleeper,
            ] {
                cell += 1;
                let seed = 0x0005_1EE9 ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let tag = format!("{shape:?} x {discipline:?} x {faults:?}");
                let build = || {
                    let (topology, flows, link, transit, idle) = scenario(shape, discipline);
                    Fabric::new(topology, &flows, seed)
                        .expect("valid fabric")
                        .with_plan(plan(faults, seed, link, transit, idle))
                };
                let (mut lazy, mut dense) = (build(), build());
                let lazy_outcome = run(&mut lazy, false);
                let dense_outcome = run(&mut dense, true);

                assert_eq!(lazy_outcome, dense_outcome, "{tag}: monitor outcome");
                assert_eq!(lazy.counters(), dense.counters(), "{tag}: counters");
                assert_eq!(lazy.events(), dense.events(), "{tag}: hop events");
                assert_eq!(lazy.loss(), dense.loss(), "{tag}: loss ledger");
                for f in 0..lazy.flow_specs().len() {
                    assert_eq!(lazy.flow_stats(f), dense.flow_stats(f), "{tag}: flow {f}");
                }
                let (rings, oracle_rings) = (lazy.node_events(), dense.node_events());
                for (n, (ring, oracle)) in rings.iter().zip(&oracle_rings).enumerate() {
                    assert_eq!(ring.len(), oracle.len(), "{tag}: node {n} ring length");
                    for (at, (a, b)) in ring.iter().zip(oracle).enumerate() {
                        assert_eq!(a, b, "{tag}: node {n} ring diverges at event {at}");
                    }
                }

                // The comparison has teeth only if traffic flowed, nodes
                // slept, and sleepers were owed decay-epoch events.
                assert!(lazy.counters().delivered_packets > 20, "{tag}: no traffic");
                assert!(decay_events(&lazy) > 0, "{tag}: no decay epoch traced");
                let (work, oracle_work) = (lazy.work(), dense.work());
                assert_eq!(oracle_work.node_cycles_slept, 0, "{tag}: the oracle slept");
                assert_eq!(oracle_work.wakes, 0, "{tag}: the oracle woke a node");
                assert!(
                    work.node_cycles_slept > work.node_steps / 4,
                    "{tag}: nodes barely slept: {work:?}"
                );
                assert_eq!(
                    work.node_steps + work.node_cycles_slept,
                    oracle_work.node_steps,
                    "{tag}: every node-cycle is stepped or slept"
                );
                match faults {
                    Faults::None => wakes_without_faults = work.wakes,
                    // The idle node is touched by nothing but its faults.
                    Faults::OnASleeper => assert!(
                        work.wakes > wakes_without_faults,
                        "{tag}: no fault found its node asleep: {work:?}"
                    ),
                    _ => {}
                }
            }
        }
    }
}
