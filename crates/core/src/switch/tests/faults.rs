//! Fault-injection and degraded-mode behaviour (DESIGN.md §8).

use super::*;
use ssq_trace::{DegradeMode, FaultSite, RingSink};
use ssq_types::invariant::Invariant;

fn ring_events(switch: &QosSwitch) -> Vec<Event> {
    switch.tracer().ring().map(RingSink::events).unwrap()
}

#[test]
fn link_down_rejects_at_source_and_heals() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &[0.4, 0.4],
    );
    switch.tracer_mut().attach_ring(1 << 16);
    for c in 0..300 {
        switch.step(Cycle::new(c));
    }
    switch.fault_set_link(InputId::new(0), false, Cycle::new(300));
    let dropped_before = switch.counters().dropped_packets;
    for c in 300..800 {
        switch.step(Cycle::new(c));
    }
    assert!(
        switch.counters().dropped_packets > dropped_before,
        "a downed link should reject offered packets"
    );
    let events = ring_events(&switch);
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::Reject {
            reason: RejectReason::LinkDown,
            ..
        }
    )));
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::Fault {
            site: FaultSite::Link,
            healed: false,
            ..
        }
    )));
    // The isolated input wins nothing once in-flight packets drain.
    assert!(
        !events
            .iter()
            .any(|e| e.cycle >= 320 && matches!(e.kind, EventKind::Grant { input: 0, .. })),
        "granted a downed input"
    );
    switch.fault_set_link(InputId::new(0), true, Cycle::new(800));
    assert!(!switch.armed, "healed switch stays armed");
    for c in 800..1400 {
        switch.step(Cycle::new(c));
    }
    let events = ring_events(&switch);
    assert!(
        events
            .iter()
            .any(|e| e.cycle > 800 && matches!(e.kind, EventKind::Grant { input: 0, .. })),
        "healed input never resumed service"
    );
}

#[test]
fn aux_corruption_walks_the_degradation_ladder() {
    let mut config = SwitchConfig::builder(geometry())
        .policy(Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .sig_bits(4)
        .fault_retry_budget(1)
        .build()
        .unwrap();
    for (i, &r) in [0.4, 0.4].iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(InputId::new(i), out0(), Rate::new(r).unwrap(), 8)
            .unwrap();
    }
    let mut switch = QosSwitch::new(config).unwrap();
    for i in 0..2 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch.tracer_mut().attach_ring(1 << 16);
    for c in 0..200 {
        switch.step(Cycle::new(c));
    }
    // An SEU far above the counter cap: the V3 classifier must
    // catch it on the *losing* side of arbitration too.
    let raw = switch.fault_flip_aux_bit(out0(), InputId::new(0), 40, Cycle::new(200));
    assert!(raw >= 1 << 40);
    for c in 200..1000 {
        switch.step(Cycle::new(c));
    }
    assert_eq!(switch.counters().fault_retries, 1, "budget of 1 retry");
    assert!(switch.outputs[0].lrg_fallback());
    assert!(switch.counters().guarantees_revoked >= 1);
    let events = ring_events(&switch);
    let detected = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Detected {
                    code: Invariant::AuxWidth,
                    ..
                }
            )
        })
        .count();
    assert_eq!(detected, 2, "one detection per ladder rung");
    let mode_count = |m: DegradeMode| {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Degraded { mode, .. } if mode == m))
            .count()
    };
    assert_eq!(mode_count(DegradeMode::Retry), 1);
    assert_eq!(mode_count(DegradeMode::LrgFallback), 1);
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::GuaranteeRevoked { .. })));
    // Degraded, not dead: LRG fallback keeps the output moving.
    let delivered_at_fallback = switch.counters().delivered_flits;
    for c in 1000..2000 {
        switch.step(Cycle::new(c));
    }
    assert!(
        switch.counters().delivered_flits > delivered_at_fallback,
        "LRG fallback stopped delivering"
    );
}

#[test]
fn readmit_evictions_are_traced_and_future_packets_demote() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &[0.4, 0.3, 0.2],
    );
    switch.tracer_mut().attach_ring(1 << 16);
    let decisions = switch.readmit_output(out0(), 0.5, false, Cycle::new(10));
    let actions: Vec<(usize, &str)> = decisions
        .iter()
        .map(|d| (d.input.index(), d.action.label()))
        .collect();
    assert_eq!(actions, vec![(0, "evict"), (1, "keep"), (2, "keep")]);
    let events = ring_events(&switch);
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Readmitted { .. }))
            .count(),
        3
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GuaranteeRevoked { .. }))
            .count(),
        1
    );
    // The evicted flow's future GB packets demote to BE.
    for c in 10..300 {
        switch.step(Cycle::new(c));
    }
    assert!(
        switch.counters().demoted_packets > 0,
        "evicted flow kept injecting as GB"
    );
}

#[test]
fn demoting_gl_suspends_the_watchdog() {
    use ssq_sim::MonitorOutcome;
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &FIG4_RATES[..7],
    );
    switch
        .config
        .reservations_mut()
        .reserve_gl(out0(), Rate::new(0.05).unwrap())
        .unwrap();
    switch.add_injector(
        Injector::new(
            Box::new(Periodic::new(500, 0, 1)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedLatency,
        )
        .for_input(InputId::new(7)),
    );
    switch.tracer_mut().attach_ring(1 << 16);
    // The 0-cycle bound would trip instantly — but the demotion
    // revokes (and records) the contract the watchdog enforces.
    switch.set_gl_wait_bound(Some(0));
    switch.fault_demote_gl(out0(), Cycle::ZERO);
    assert!(
        ring_events(&switch).iter().any(|e| matches!(
            e.kind,
            EventKind::GuaranteeRevoked {
                class: TrafficClass::GuaranteedLatency,
                ..
            }
        )),
        "demotion must record the revoked contract"
    );
    let outcome = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000)))
        .run_monitored(&mut switch, Cycles::new(10_000), |_, _| {});
    assert!(
        matches!(outcome, MonitorOutcome::Completed(_)),
        "revoked bound still tripped the watchdog"
    );
    let events = ring_events(&switch);
    // Demoted GL still delivers (as non-preemptive traffic).
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::Grant {
            class: TrafficClass::GuaranteedLatency,
            ..
        }
    )));
}

#[test]
fn heal_all_disarms_and_refills_retries() {
    let mut config = SwitchConfig::builder(geometry())
        .policy(Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock))
        .fault_retry_budget(2)
        .build()
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(InputId::new(0), out0(), Rate::new(0.4).unwrap(), 8)
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    switch.fault_set_link(InputId::new(1), false, Cycle::new(1));
    switch.fault_flip_aux_bit(out0(), InputId::new(0), 3, Cycle::new(2));
    assert!(switch.armed);
    assert_eq!(switch.counters().fault_injections, 2);
    switch.outputs[0].retries_left = 0;
    switch.fault_heal_all(Cycle::new(3));
    assert!(!switch.armed);
    assert!(switch.link_up(1));
    assert_eq!(switch.outputs[0].retries_left, 2);
}

#[test]
fn retries_run_down_and_reset() {
    let config = SwitchConfig::builder(geometry())
        .fault_retry_budget(2)
        .build()
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    assert_eq!(switch.outputs[1].retries_left, 2);
    assert!(switch.outputs[1].try_retry());
    assert!(switch.outputs[1].try_retry());
    assert!(!switch.outputs[1].try_retry());
    switch.fault_degrade_to_lrg(OutputId::new(1), Cycle::ZERO);
    switch.fault_restore_ssvc(OutputId::new(1), Cycle::ZERO);
    assert_eq!(switch.outputs[1].retries_left, 2);
    // Other outputs were untouched.
    assert_eq!(switch.outputs[0].retries_left, 2);
}

#[test]
fn degradations_are_per_output_and_survive_disarm() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &[0.4],
    );
    switch.fault_set_link(InputId::new(1), false, Cycle::ZERO);
    switch.fault_degrade_to_lrg(OutputId::new(2), Cycle::ZERO);
    switch.fault_demote_gl(OutputId::new(3), Cycle::ZERO);
    assert!(switch.armed);
    switch.fault_heal_all(Cycle::new(1));
    assert!(!switch.armed);
    assert!(switch.outputs[2].lrg_fallback() && !switch.outputs[0].lrg_fallback());
    assert!(switch.outputs[3].gl_demoted() && !switch.outputs[0].gl_demoted());
}
