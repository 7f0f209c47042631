//! The fabric's unit tests: delivery, reservations, faults, the loss
//! rule, sleeping, and the refusal of malformed flows.

use super::*;
use crate::backoff::BackoffPolicy;
use crate::fault::NetFaultKind;
use crate::link::{LinkDiscipline, LinkSpec};
use ssq_sim::{MonitorOutcome, Runner, Schedule};
use ssq_trace::EventKind;
use ssq_types::Cycles;

fn run(fabric: &mut Fabric, warmup: u64, measure: u64) -> MonitorOutcome {
    Runner::new(Schedule::new(Cycles::new(warmup), Cycles::new(measure))).run_monitored(
        fabric,
        Cycles::new(2_000),
        |_, _| {},
    )
}

#[test]
fn chain_delivers_end_to_end_with_latency_accounting() {
    let topo = Topology::chain(3, LinkDiscipline::Credit);
    let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
        .rate(0.4)
        .every(20)];
    let mut fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
    let outcome = run(&mut fabric, 200, 2_000);
    assert!(
        matches!(outcome, MonitorOutcome::Completed(_)),
        "{outcome:?}"
    );
    let stats = fabric.flow_stats(0);
    assert!(stats.delivered_packets > 50, "stats: {stats:?}");
    assert_eq!(stats.lost_packets, 0, "credit chain must be lossless");
    // 3 links + 4 switch traversals: latency is well above the
    // wire floor and bounded by the run length.
    assert!(stats.latency_max >= 6, "stats: {stats:?}");
    assert!(fabric.counters().revocations == 0);
    assert!(
        fabric
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::HopEnqueue { .. })),
        "transit hops must leave hop_enqueue events"
    );
}

#[test]
fn reservations_are_installed_along_the_whole_path() {
    let topo = Topology::chain(2, LinkDiscipline::Credit);
    let flows = [FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
        .rate(0.3)
        .every(26)];
    let fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
    // node0: injection port 4 -> transit out 0.
    assert!(fabric
        .node(0)
        .config()
        .reservations()
        .gb(InputId::new(4), OutputId::new(0))
        .is_some());
    // node1: transit in 0 -> transit out 0.
    assert!(fabric
        .node(1)
        .config()
        .reservations()
        .gb(InputId::new(0), OutputId::new(0))
        .is_some());
    // node2: transit in 0 -> terminal out 4.
    assert!(fabric
        .node(2)
        .config()
        .reservations()
        .gb(InputId::new(0), OutputId::new(4))
        .is_some());
}

#[test]
fn shared_transit_hops_aggregate_their_rates() {
    let topo = Topology::chain(2, LinkDiscipline::Credit);
    let flows = [
        FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
            .ports(4, 4)
            .rate(0.3),
        FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
            .ports(5, 5)
            .rate(0.2),
    ];
    let fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
    let shared = fabric
        .node(1)
        .config()
        .reservations()
        .gb(InputId::new(0), OutputId::new(0))
        .expect("shared transit reservation");
    assert!((shared.rate().value() - 0.5).abs() < 1e-9);
}

#[test]
fn killed_chain_link_revokes_loudly_and_heals() {
    // (discipline, latency and depth of link 0). In the last two chains
    // the first link is long and shallow: when link 1 dies node 1 has no
    // route and holds its egress head, so the packets still on link 0's
    // wire land on a full queue.
    let nack = LinkDiscipline::Nack(BackoffPolicy::exponential(8, 4, 2, 256));
    for (discipline, latency, depth) in [
        (LinkDiscipline::Credit, 1, 8),
        (LinkDiscipline::Lossy, 1, 8),
        (LinkDiscipline::Lossy, 200, 2),
        (nack, 200, 2),
    ] {
        let topo = Topology::chain(3, discipline).map_links(|s| {
            if s.src == 0 {
                s.latency(latency).queue_depth(depth)
            } else {
                s
            }
        });
        let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .rate(0.4)
            .every(20)];
        let plan = NetFaultPlan::new()
            .schedule(600, NetFaultKind::KillLink { link: 1 })
            .schedule(1_500, NetFaultKind::RestoreLink { link: 1 });
        let mut fabric = Fabric::new(topo, &flows, 1)
            .expect("valid fabric")
            .with_plan(plan);
        let _ = run(&mut fabric, 200, 3_000);
        assert!(
            fabric.counters().revocations >= 1,
            "{discipline:?}: no loud revocation"
        );
        let loud: u64 = fabric
            .loss()
            .iter()
            .filter(|((_, r), _)| r.is_loud())
            .map(|(_, &c)| c)
            .sum();
        assert!(
            loud >= 1,
            "{discipline:?}: dead wire must shed loudly: {:?}",
            fabric.loss()
        );
        // The revocation shows up in the source node's own trace.
        let revoked = fabric.node_events()[0]
            .iter()
            .any(|e| matches!(e.kind, EventKind::GuaranteeRevoked { .. }));
        assert!(
            revoked,
            "{discipline:?}: source trace carries no guarantee_revoked"
        );
        // Delivery resumes (demoted) after the heal.
        assert!(fabric.flow_stats(0).delivered_packets > 0);
        // A packet enqueued on link 0 at `t` lands at `t + 1 + latency`.
        // Those landing after the kill wait in node 1's egress queue
        // until it holds `depth`; until the restore a lossy link sheds
        // every later arrival as `queue_full`, and a NACK link sends it
        // back for retransmission instead.
        let count = |kind: fn(&EventKind) -> bool, cycles: std::ops::Range<u64>| {
            fabric
                .events()
                .iter()
                .filter(|e| kind(&e.kind) && cycles.contains(&e.cycle))
                .count()
        };
        let landed = count(
            |k| matches!(k, EventKind::HopEnqueue { link: 0, .. }),
            599 - latency..600,
        );
        let overflow = count(
            |k| {
                matches!(
                    k,
                    EventKind::Drop {
                        link: 0,
                        reason: DropReason::QueueFull,
                        ..
                    }
                )
            },
            600..1_500,
        );
        let retransmits = count(
            |k| matches!(k, EventKind::NackRetransmit { link: 0, .. }),
            600..1_500,
        );
        let overflowed = landed.saturating_sub(depth);
        let shed = if matches!(discipline, LinkDiscipline::Nack(_)) {
            // Every overflowing arrival goes back at least once.
            assert_eq!(overflow, 0, "a NACK link drops no arrival as queue_full");
            assert!(
                retransmits >= overflowed,
                "{retransmits} retransmits for {landed} packets on a {depth}-deep queue"
            );
            retransmits
        } else {
            assert_eq!(retransmits, 0, "{discipline:?} never retransmits");
            assert_eq!(
                overflow, overflowed,
                "{discipline:?}: {landed} packets landed on a {depth}-deep queue"
            );
            overflow
        };
        assert!(latency == 1 || shed > 0, "the long link must overflow");
    }
}

#[test]
fn fat_tree_reroutes_around_a_killed_uplink() {
    let topo = Topology::fat_tree(LinkDiscipline::Credit);
    let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
        .rate(0.3)
        .every(26)];
    let plan = NetFaultPlan::new().schedule(600, NetFaultKind::KillLink { link: 0 });
    let mut fabric = Fabric::new(topo, &flows, 1)
        .expect("valid fabric")
        .with_plan(plan);
    let outcome = run(&mut fabric, 200, 3_000);
    assert!(
        matches!(outcome, MonitorOutcome::Completed(_)),
        "{outcome:?}"
    );
    assert!(fabric.counters().reroutes >= 1, "no reroute recorded");
    assert!(
        fabric.events().iter().any(|e| matches!(
            e.kind,
            EventKind::Reroute {
                node: 0,
                dest: 3,
                via: 2
            }
        )),
        "leaf 0 must reroute to spine 2"
    );
    // Traffic keeps flowing on the alternate path.
    let stats = fabric.flow_stats(0);
    assert!(stats.delivered_packets > 50, "stats: {stats:?}");
}

#[test]
fn nack_links_absorb_a_short_blip_without_revocation() {
    let policy = BackoffPolicy::exponential(8, 4, 2, 256);
    let topo = Topology::chain(3, LinkDiscipline::Nack(policy));
    let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
        .rate(0.4)
        .every(20)];
    let plan = NetFaultPlan::new()
        .schedule(600, NetFaultKind::KillLink { link: 1 })
        .schedule(660, NetFaultKind::RestoreLink { link: 1 });
    let mut fabric = Fabric::new(topo, &flows, 3)
        .expect("valid fabric")
        .with_plan(plan);
    let outcome = run(&mut fabric, 200, 3_000);
    assert!(
        matches!(outcome, MonitorOutcome::Completed(_)),
        "{outcome:?}"
    );
    assert!(fabric.counters().retransmits >= 1, "blip must retransmit");
    assert_eq!(fabric.counters().revocations, 0, "blip must be absorbed");
    assert_eq!(fabric.flow_stats(0).lost_packets, 0, "{:?}", fabric.loss());
}

#[test]
fn lossy_overflow_is_congestion_not_revocation() {
    // A 2:1 funnel: two sources each inject 0.8 flits/cycle toward
    // the same transit node, whose single outgoing channel drains
    // at most 1 flit/cycle. The transit input buffers fill, the
    // lossy ingress links shed the excess as `queue_full`; credit
    // links hold it instead, and NACK links send it back through the
    // retransmission budget.
    let nack = LinkDiscipline::Nack(BackoffPolicy::exponential(8, 4, 2, 256));
    for discipline in [LinkDiscipline::Lossy, LinkDiscipline::Credit, nack] {
        let topo = Topology {
            nodes: 4,
            links: vec![
                LinkSpec::new(0, 0, 2, 0)
                    .discipline(discipline)
                    .queue_depth(2),
                LinkSpec::new(1, 0, 2, 1)
                    .discipline(discipline)
                    .queue_depth(2),
                LinkSpec::new(2, 0, 3, 0).discipline(discipline),
            ],
        };
        let flows = [
            FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
                .ports(4, 4)
                .rate(0.45)
                .every(10),
            FlowSpec::new(1, 3, TrafficClass::GuaranteedBandwidth)
                .ports(5, 5)
                .rate(0.45)
                .every(10),
        ];
        let mut fabric = Fabric::new(topo, &flows, 5).expect("valid fabric");
        let _ = run(&mut fabric, 200, 3_000);
        let congestion: u64 = fabric
            .loss()
            .iter()
            .filter(|((_, r), _)| *r == DropReason::QueueFull)
            .map(|(_, &c)| c)
            .sum();
        let counters = fabric.counters();
        match discipline {
            LinkDiscipline::Lossy => {
                assert!(
                    congestion > 0,
                    "expected queue_full losses: {:?}",
                    fabric.loss()
                );
                assert_eq!(
                    counters.revocations, 0,
                    "congestion loss must not revoke guarantees"
                );
            }
            LinkDiscipline::Credit => assert!(
                fabric.loss().is_empty(),
                "credit links hold, never shed: {:?}",
                fabric.loss()
            ),
            LinkDiscipline::Nack(_) => {
                assert!(counters.retransmits > 0, "{counters:?}");
                assert_eq!(congestion, 0, "NACK links retransmit, never shed");
            }
        }
    }
}

#[test]
fn runs_replay_identically_from_their_seed() {
    let build = || {
        let policy = BackoffPolicy::exponential(5, 4, 2, 64).with_jitter(3, 17);
        let topo = Topology::fat_tree(LinkDiscipline::Nack(policy));
        let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .rate(0.3)
            .every(26)];
        let plan = NetFaultPlan::link_flaps(9, 0, 500, 100, 3_000);
        Fabric::new(topo, &flows, 9)
            .expect("valid fabric")
            .with_plan(plan)
    };
    let mut a = build();
    let mut b = build();
    let oa = run(&mut a, 200, 3_000);
    let ob = run(&mut b, 200, 3_000);
    assert_eq!(format!("{oa:?}"), format!("{ob:?}"));
    assert_eq!(a.counters(), b.counters());
    assert_eq!(a.events(), b.events());
    assert_eq!(a.node_events(), b.node_events());
    assert_eq!(a.loss(), b.loss());
}

#[test]
fn a_sleeper_s_ring_is_current_without_a_flush() {
    // Node 2 is on no path: asleep before the warm-up boundary
    // (which falls after the first decay epoch), across it, and when
    // the run ends, 64 cycles after the third epoch.
    let build = || {
        let topo = Topology::chain(2, LinkDiscipline::Credit);
        let flows = [FlowSpec::new(0, 1, TrafficClass::GuaranteedBandwidth).every(50)];
        Fabric::new(topo, &flows, 1).expect("valid fabric")
    };
    let schedule = Schedule::new(Cycles::new(600), Cycles::new(1_000));
    let (mut lazy, mut dense) = (build(), build());
    assert_eq!(Runner::new(schedule).run(&mut lazy), Cycle::new(1_600));
    Runner::new(schedule).run(&mut DenseFabric(&mut dense));
    assert!(
        matches!(lazy.doze[2], Doze::Asleep { .. }),
        "node 2 is awake"
    );

    let (rings, oracle) = (lazy.node_events(), dense.node_events());
    assert_eq!(rings, oracle);
    let stamps: Vec<u64> = rings[2].iter().map(|e| e.cycle).collect();
    let epochs = [511, 1_023, 1_535].map(|at| [at; 8]).concat();
    assert_eq!(stamps, epochs, "one decay event per output per epoch");
    assert_eq!(lazy.counters(), dense.counters());
    assert_eq!(lazy.flow_stats(0), dense.flow_stats(0));
}

#[test]
fn a_mostly_idle_mesh_steps_in_proportion_to_its_work() {
    let topo = Topology::mesh(4, 4, LinkDiscipline::Credit);
    let flows = [
        FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth).every(40),
        FlowSpec::new(12, 15, TrafficClass::BestEffort).every(64),
    ];
    let mut fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
    let links = fabric.links.len() as u64;
    let _ = run(&mut fabric, 200, 2_000);
    let work = fabric.work();
    assert_eq!(work.node_steps + work.node_cycles_slept, 2_200 * 16);
    assert_eq!(work.link_ticks, 2_200 * links);
    // Half the nodes carry nothing; the rest idle between packets.
    assert!(work.node_steps > 2_200, "{work:?}");
    assert!(work.node_cycles_slept > 2_200 * 8, "{work:?}");
    assert!(work.wakes > 100, "{work:?}");
    assert!(
        work.link_ticks_idle > work.link_ticks / 2 && work.link_ticks_idle < work.link_ticks,
        "{work:?}"
    );
    assert!(fabric.counters().delivered_packets > 50);
}

#[test]
fn partitioned_destination_stops_minting_instead_of_leaking() {
    let topo = Topology::chain(2, LinkDiscipline::Credit);
    let flows = [FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
        .rate(0.3)
        .every(26)];
    let plan = NetFaultPlan::new().schedule(600, NetFaultKind::PartitionNode { node: 2 });
    let mut fabric = Fabric::new(topo, &flows, 1)
        .expect("valid fabric")
        .with_plan(plan);
    let _ = run(&mut fabric, 200, 3_000);
    let injected = fabric.counters().injected_packets;
    let accounted = fabric.counters().delivered_packets
        + fabric.counters().dropped_packets
        + fabric.flow_of.len() as u64;
    assert_eq!(injected, accounted, "every packet must be accounted for");
}

#[test]
fn demotions_count_packets_not_offers() {
    // B's `link_down` loss revokes node 1's output 0, which evicts A's
    // transit reservation there: A's packets demote at node 1, and a
    // head node 1 refuses is offered again every cycle until it fits.
    let topo = Topology::chain(3, LinkDiscipline::Credit);
    let flows = [
        FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
            .rate(0.45)
            .every(10),
        FlowSpec::new(1, 3, TrafficClass::GuaranteedBandwidth)
            .ports(5, 5)
            .rate(0.45)
            .every(20),
    ];
    let plan = NetFaultPlan::new().schedule(600, NetFaultKind::KillLink { link: 2 });
    let mut fabric = Fabric::new(topo, &flows, 1)
        .expect("valid fabric")
        .with_plan(plan);
    Runner::new(Schedule::new(Cycles::new(200), Cycles::new(3_000))).run(&mut fabric);
    let counters = fabric.counters();
    assert!(counters.demoted_packets > 0, "{counters:?}");
    assert!(
        counters.demoted_packets <= counters.injected_packets,
        "{counters:?}"
    );
}

#[test]
fn malformed_flows_are_refused_not_panicked_on() {
    use TrafficClass::{BestEffort, GuaranteedBandwidth};
    let good = FlowSpec::new(0, 2, GuaranteedBandwidth);
    let rows = [
        ("endpoint", FlowSpec::new(0, 9, GuaranteedBandwidth)),
        ("port", good.ports(4, 3)),
        ("rate", good.rate(1.5)),
        ("no route", FlowSpec::new(2, 0, GuaranteedBandwidth)),
        ("length", FlowSpec::new(0, 2, BestEffort).len_flits(0)),
        ("period", good.every(0)),
    ];
    for (what, bad) in rows {
        let topo = Topology::chain(2, LinkDiscipline::Credit);
        let err = Fabric::new(topo, &[good, bad], 1).expect_err(what);
        assert!(
            matches!(err, FabricError::Flow { index: 1, .. }),
            "{what}: {err}"
        );
    }
    // Each rate fits, their sum on the hop the two flows share does not.
    let topo = Topology::chain(2, LinkDiscipline::Credit);
    let err = Fabric::new(topo, &[good.rate(0.6), good.rate(0.6)], 1).expect_err("sum");
    assert!(
        matches!(err, FabricError::Config(ConfigError::Oversubscribed { .. })),
        "{err}"
    );
}

/// The node rings store packed events, not 40-byte `Event`s: on a 4×4
/// credit mesh carrying the benchmark's `fabric-mesh16` traffic shape
/// (per node a GB flow to its mirror node and a BE flow two hops away,
/// plus corner-to-corner GL flows) the rings hold at most 12 bytes per
/// retained event, counted from their allocations.
#[test]
fn node_rings_hold_about_eight_bytes_per_event() {
    let (rows, cols) = (4, 4);
    let n = rows * cols;
    let mut flows = Vec::new();
    for node in 0..n {
        flows.push(
            FlowSpec::new(node, n - 1 - node, TrafficClass::GuaranteedBandwidth)
                .ports(4, 4)
                .rate(0.1)
                .every(80),
        );
        let two_hops = (0..n)
            .find(|&o| (o / cols).abs_diff(node / cols) + (o % cols).abs_diff(node % cols) == 2)
            .expect("a 4x4 mesh has a node two hops from each");
        flows.push(
            FlowSpec::new(node, two_hops, TrafficClass::BestEffort)
                .ports(5, 5)
                .rate(0.05)
                .every(160),
        );
    }
    let corners = [0, cols - 1, n - cols, n - 1];
    for (k, &corner) in corners.iter().enumerate() {
        flows.push(
            FlowSpec::new(corner, corners[3 - k], TrafficClass::GuaranteedLatency)
                .ports(6, 6)
                .rate(0.02)
                .every(400),
        );
    }
    let topo = Topology::mesh(rows, cols, LinkDiscipline::Credit);
    let mut fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
    Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000))).run(&mut fabric);
    let rings: Vec<&ssq_trace::RingSink> = (0..n)
        .map(|i| {
            fabric
                .node(i)
                .tracer()
                .ring()
                .expect("every node is recorded")
        })
        .collect();
    let events: usize = rings.iter().map(|r| r.len()).sum();
    let bytes: usize = rings.iter().map(|r| r.retained_bytes()).sum();
    assert!(events > 16 * 1_000, "{events} events");
    assert!(bytes <= 12 * events, "{bytes} B for {events} events");
}
