//! Fast-tier model-checking smoke test: the full radix-2 battery —
//! every `{BE, GB, GL}²` class mix under all three counter policies —
//! must enumerate its complete reachable state space (`closed`) with no
//! V1–V6 invariant violation. This is the exhaustiveness guarantee that
//! `ssq verify` gives `scripts/check.sh`, pinned here so `cargo test`
//! alone catches a regression in either the arbitration pipeline or the
//! checker.

use swizzle_qos::verify::{tier, verify_scenario, VerifyOutcome};

mod common;
use common::{ssq, stderr};

/// The gate's driver, through the real binary: exit 0, one `closed`
/// line per scenario, then the tier's clean line.
#[test]
fn ssq_verify_passes_the_fast_tier() {
    let out = ssq(&["verify"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    let count = tier::fast_scenarios().len();
    let closed = text
        .lines()
        .filter(|l| l.starts_with("verify[fast] ") && l.ends_with(" closed"))
        .count();
    assert_eq!(closed, count, "{text}");
    assert!(
        text.contains(&format!("verify[fast] clean: {count} scenarios")),
        "{text}"
    );
}

#[test]
fn fast_tier_is_clean_and_closed() {
    let outcomes: Vec<VerifyOutcome> = tier::fast_scenarios().iter().map(verify_scenario).collect();
    assert_eq!(outcomes.len(), 30);

    for outcome in &outcomes {
        assert!(
            outcome.passed(),
            "{}: invariant violated: {:?}",
            outcome.scenario,
            outcome.violation.as_ref().map(|cx| (cx.code, &cx.detail)),
        );
        assert!(
            outcome.closed,
            "{}: state space did not close (states {}, depth {})",
            outcome.scenario, outcome.states, outcome.depth,
        );
        assert!(outcome.states > 0 && outcome.transitions > 0);
    }

    // The exhaustive sweep must actually explore multi-state spaces:
    // contested GB mixes grow past a hundred reachable states.
    let largest = outcomes.iter().map(|o| o.states).max().unwrap_or(0);
    assert!(largest > 100, "largest closed space only {largest} states");
}

/// Degraded-mode cross-check: when a dead GB lane forces an output off
/// SSVC onto the flat LRG fallback, the switch's packet-level grant
/// sequence must match `ssq-verify`'s model prediction for the same
/// request pattern — pure least-recently-granted rotation, QoS weights
/// forfeited.
#[test]
fn lrg_fallback_matches_the_verify_models_lrg_prediction() {
    use swizzle_qos::arbiter::CounterPolicy;
    use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig};
    use swizzle_qos::sim::CycleModel;
    use swizzle_qos::trace::{EventKind, RingSink};
    use swizzle_qos::traffic::{FixedDest, Injector, Saturating};
    use swizzle_qos::types::{Cycle, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};
    use swizzle_qos::verify::{Model, Scenario};

    let mut config = SwitchConfig::builder(Geometry::new(4, 128).unwrap())
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .build()
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(
            InputId::new(0),
            OutputId::new(0),
            Rate::new(0.6).unwrap(),
            4,
        )
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(
            InputId::new(1),
            OutputId::new(0),
            Rate::new(0.2).unwrap(),
            4,
        )
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    for i in 0..2 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(4)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch.tracer_mut().attach_ring(1 << 16);

    // Healthy phase: SSVC enforces the reserved 3:1 split.
    let packets = |sw: &QosSwitch, i: usize| {
        sw.gb_metrics()
            .flow(FlowId::new(InputId::new(i), OutputId::new(0)))
            .packets()
    };
    let mut now = Cycle::ZERO;
    for _ in 0..4_000 {
        switch.step(now);
        now = now.next();
    }
    let (h0, h1) = (packets(&switch, 0), packets(&switch, 1));
    let healthy_ratio = h0 as f64 / h1.max(1) as f64;
    assert!(
        healthy_ratio > 2.0,
        "SSVC should enforce ~3:1, got {healthy_ratio:.2}"
    );

    // A GB lane dies; the output degrades to the flat LRG fallback.
    let fault_at = now;
    switch.fault_degrade_to_lrg(OutputId::new(0), fault_at);
    for _ in 0..4_000 {
        switch.step(now);
        now = now.next();
    }

    // The verify model's LRG semantics: the winner is the requester
    // earliest in `gb_order`, which then rotates to the back. From the
    // model's quiescent initial state, two saturated requesters must
    // strictly alternate at packet granularity.
    let model = Model::new(Scenario::new(
        "lrg-fallback-prediction",
        CounterPolicy::SubtractRealClock,
        vec![TrafficClass::GuaranteedBandwidth; 4],
        vec![1; 4],
    ));
    let mut order = model.initial_state().gb_order;
    let winners: Vec<u32> = switch
        .tracer()
        .ring()
        .map(RingSink::events)
        .unwrap()
        .iter()
        .filter(|e| e.cycle >= fault_at.value())
        .filter_map(|e| match e.kind {
            EventKind::Grant {
                output: 0, input, ..
            } => Some(input),
            _ => None,
        })
        .collect();
    assert!(winners.len() > 100, "fallback mode starved the output");
    let predicted: Vec<u32> = (0..winners.len())
        .map(|_| {
            let w = *order.iter().find(|&&i| i < 2).unwrap();
            order.retain(|&x| x != w);
            order.push(w);
            u32::from(w)
        })
        .collect();
    assert_eq!(
        winners, predicted,
        "LRG fallback diverged from the verify model's LRG prediction"
    );

    // The QoS weights are genuinely forfeited: service equalizes to 1:1.
    let (d0, d1) = (packets(&switch, 0) - h0, packets(&switch, 1) - h1);
    let degraded_ratio = d0 as f64 / d1.max(1) as f64;
    assert!(
        (0.8..=1.25).contains(&degraded_ratio),
        "LRG fallback should serve 1:1, got {degraded_ratio:.2}"
    );

    // And the degradation was loud: a mode event plus revocations.
    let events = switch.tracer().ring().map(RingSink::events).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::Degraded { mode, .. } if mode == "lrg_fallback")));
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::GuaranteeRevoked { .. })));
}

#[test]
fn every_policy_closes_under_contested_gb() {
    // The three counter-management policies diverge exactly on
    // saturation behaviour; the contested all-GB mixes are where the
    // auxVC counters actually reach the cap.
    for policy in swizzle_qos::verify::all_policies() {
        let contested: Vec<_> = tier::fast_scenarios()
            .into_iter()
            .filter(|s| s.policy == policy && s.name.contains("gb+gb"))
            .collect();
        assert!(!contested.is_empty(), "{policy}: no contested scenarios");
        for scenario in contested {
            let outcome = verify_scenario(&scenario);
            assert!(outcome.passed() && outcome.closed, "{}", outcome.scenario);
        }
    }
}
