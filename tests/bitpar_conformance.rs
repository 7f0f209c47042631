//! Kernel and bitpar-engine conformance beyond the shared battery in
//! `par_conformance.rs`, every baseline taken from the scalar reference
//! kernel (`QosSwitch::step_reference`):
//!
//! * A seeded property test fuzzing random request patterns over radices
//!   2–64 — random class mixes, buffer shapes, per-port feature toggles,
//!   and **mid-run reservation renegotiation** — stepping the reference
//!   and word-wide kernels in lockstep and demanding identical grants.
//! * Idle-skip conformance: event-driven stepping must produce
//!   byte-identical observables to dense reference stepping —
//!   decay-epoch events and flight-recorder cycle stamps included —
//!   while provably skipping most cycles at low load.
//! * A negative control: unpredictable (Bernoulli) sources must never
//!   allow a skip, degrading the runner to the dense fast path.

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{Policy, QosSwitch, ReferenceKernel, SwitchConfig};
use swizzle_qos::sim::{CycleModel, EventModel, Runner, Schedule};
use swizzle_qos::trace::{Event, RingSink};
use swizzle_qos::traffic::{Bernoulli, FixedDest, Injector, Periodic, Saturating, UniformDest};
use swizzle_qos::types::{
    Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass, Xoshiro256StarStar,
};

/// Serialized per-flow metrics: integers verbatim, latency means as
/// `f64` bit patterns, so any divergence is a byte divergence.
fn metrics_csv(switch: &QosSwitch) -> String {
    use std::fmt::Write as _;
    let radix = switch.config().geometry().radix();
    let mut csv = String::new();
    for i in 0..radix {
        for o in 0..radix {
            let flow = FlowId::new(InputId::new(i), OutputId::new(o));
            for (label, metrics) in [
                ("BE", switch.be_metrics()),
                ("GB", switch.gb_metrics()),
                ("GL", switch.gl_metrics()),
            ] {
                let m = metrics.flow(flow);
                if m.packets() == 0 {
                    continue;
                }
                let _ = writeln!(
                    csv,
                    "{flow},{label},{},{},{:#x},{}",
                    m.packets(),
                    m.flits(),
                    m.mean_latency().to_bits(),
                    m.max_latency().unwrap_or(0),
                );
            }
        }
    }
    csv
}

fn ring_events(switch: &QosSwitch) -> Vec<Event> {
    switch
        .tracer()
        .ring()
        .map(RingSink::events)
        .unwrap_or_default()
}

fn assert_observables_match(seq: &QosSwitch, bit: &QosSwitch, tag: &str) {
    assert_eq!(seq.counters(), bit.counters(), "{tag}: counters diverged");
    assert_eq!(
        metrics_csv(seq),
        metrics_csv(bit),
        "{tag}: per-flow metrics diverged"
    );
    let (se, be) = (ring_events(seq), ring_events(bit));
    assert_eq!(se.len(), be.len(), "{tag}: event counts diverged");
    for (n, (a, b)) in se.iter().zip(be.iter()).enumerate() {
        assert_eq!(a, b, "{tag}: first event divergence at index {n}");
    }
}

/// One seeded random switch over a random radix in 2..=64. The scenario
/// is a pure function of the seed, so the sequential and bitpar copies
/// are identical at construction.
fn build_fuzz(seed: u64) -> (QosSwitch, usize) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let radix = 2 + rng.index(63); // 2..=64
    let policy = match rng.index(3) {
        0 => CounterPolicy::SubtractRealClock,
        1 => CounterPolicy::Halve,
        _ => CounterPolicy::Reset,
    };
    // The bus must split into whole lanes, so size it off the radix.
    let geometry = Geometry::new(radix, radix * 8).expect("valid geometry");
    let mut config = SwitchConfig::builder(geometry)
        .policy(Policy::Ssvc(policy))
        .gb_buffer_flits(8 + 8 * rng.index(3) as u64)
        .be_buffer_flits(8 + 8 * rng.index(3) as u64)
        .be_voq(rng.chance(0.5))
        .packet_chaining(rng.chance(0.5))
        .gl_policing(rng.chance(0.5))
        .sig_bits(3)
        .build()
        .expect("valid config");

    // GB reservations and saturating flows on a hot output.
    let hot = OutputId::new(rng.index(radix));
    let flows = 1 + rng.index(radix.min(4));
    let budget = 0.2 + 0.5 * rng.f64();
    let mut used = Vec::new();
    for _ in 0..flows {
        let mut input = InputId::new(rng.index(radix));
        while used.contains(&input) {
            input = InputId::new(rng.index(radix));
        }
        let len = 1 << rng.index(4);
        config
            .reservations_mut()
            .reserve_gb(
                input,
                hot,
                Rate::new(budget / flows as f64).expect("valid rate"),
                len,
            )
            .expect("reservation fits");
        used.push(input);
    }
    if rng.chance(0.5) {
        config
            .reservations_mut()
            .reserve_gl(hot, Rate::new(0.02 + 0.05 * rng.f64()).expect("valid rate"))
            .expect("GL reservation fits");
    }

    let mut switch = QosSwitch::new(config).expect("valid switch");
    for &input in &used {
        let len = 1 << rng.index(4);
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(len)),
                Box::new(FixedDest::new(hot)),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(input),
        );
    }
    // GL interrupts plus BE background over the remaining inputs.
    for i in 0..radix {
        let input = InputId::new(i);
        if used.contains(&input) {
            continue;
        }
        if rng.chance(0.2) {
            switch.add_injector(
                Injector::new(
                    Box::new(Periodic::new(rng.range(20, 120), rng.below(20), 1)),
                    Box::new(FixedDest::new(hot)),
                    TrafficClass::GuaranteedLatency,
                )
                .for_input(input),
            );
        } else if rng.chance(0.6) {
            let dest: Box<dyn swizzle_qos::traffic::DestinationPattern + Send + Sync> =
                if rng.chance(0.5) {
                    Box::new(FixedDest::new(hot))
                } else {
                    Box::new(UniformDest::new(radix, rng.next_u64()))
                };
            switch.add_injector(
                Injector::new(
                    Box::new(Bernoulli::new(
                        0.05 + 0.6 * rng.f64(),
                        1 << rng.index(3),
                        rng.next_u64(),
                    )),
                    dest,
                    TrafficClass::BestEffort,
                )
                .for_input(input),
            );
        }
    }
    (switch, radix)
}

/// The property: for any seeded scenario, stepping the word-wide kernel
/// produces the same observables as the scalar reference kernel —
/// through a mid-run reservation renegotiation applied identically to
/// both.
#[test]
fn fuzzed_patterns_with_reservation_churn_match_seq() {
    const TRIALS: u64 = 40;
    const CYCLES: u64 = 600;
    for trial in 0..TRIALS {
        let seed = 0xB17_9A12 ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (mut seq, radix) = build_fuzz(seed);
        let (mut bit, _) = build_fuzz(seed);
        seq.tracer_mut().attach_ring(1 << 15);
        bit.tracer_mut().attach_ring(1 << 15);

        // The churn schedule is part of the scenario: renegotiate one
        // existing GB reservation to a fresh rate mid-run.
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xC0DE);
        let churn_at = 100 + rng.below(CYCLES - 200);
        let new_rate = Rate::new(0.05 + 0.2 * rng.f64()).expect("valid rate");

        let mut at = Cycle::ZERO;
        for cycle in 0..CYCLES {
            if cycle == churn_at {
                for sw in [&mut seq, &mut bit] {
                    let Some((input, output, res)) = sw.config().reservations().iter_gb().next()
                    else {
                        break;
                    };
                    let len = res.packet_flits();
                    let _ = sw.update_gb_reservation(input, output, new_rate, len);
                }
            }
            seq.step_reference(at);
            bit.step(at);
            at = at.next();
        }
        assert_observables_match(&seq, &bit, &format!("trial {trial} (radix {radix})"));
    }
}

/// Counts how the skipping runner spends its cycles, delegating to the
/// real switch — the proof that idle skipping actually engaged.
struct Counting<'a> {
    inner: &'a mut QosSwitch,
    stepped: u64,
    skipped: u64,
}

impl CycleModel for Counting<'_> {
    fn step(&mut self, now: Cycle) {
        self.stepped += 1;
        self.inner.step(now);
    }
    fn begin_measurement(&mut self, now: Cycle) {
        self.inner.begin_measurement(now);
    }
}

impl EventModel for Counting<'_> {
    fn skip_idle(&mut self, now: Cycle, limit: Cycle) -> Cycle {
        let target = self.inner.skip_idle(now, limit);
        if target > now {
            self.skipped += target.value() - now.value();
        }
        target
    }
}

/// A low-load, fully periodic scenario: GB heartbeats and a GL
/// interrupt source on an SSVC-subtract switch, so the skipped
/// stretches carry live decay-epoch clocks whose trace events must
/// land on exactly the dense cycle stamps.
fn periodic_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .build()
        .expect("valid config");
    config
        .reservations_mut()
        .reserve_gb(
            InputId::new(0),
            OutputId::new(3),
            Rate::new(0.3).expect("valid rate"),
            8,
        )
        .expect("reservation fits");
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(3), Rate::new(0.05).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    switch.add_injector(
        Injector::new(
            Box::new(Periodic::new(160, 7, 8)),
            Box::new(FixedDest::new(OutputId::new(3))),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(0)),
    );
    switch.add_injector(
        Injector::new(
            Box::new(Periodic::new(240, 100, 1)),
            Box::new(FixedDest::new(OutputId::new(3))),
            TrafficClass::GuaranteedLatency,
        )
        .for_input(InputId::new(5)),
    );
    switch
}

fn idle_schedule() -> Schedule {
    Schedule::new(Cycles::new(500), Cycles::new(20_000))
}

#[test]
fn idle_skipping_is_byte_identical_to_dense_stepping() {
    let mut dense = periodic_switch();
    dense.tracer_mut().attach_ring(1 << 16);
    Runner::new(idle_schedule()).run(&mut ReferenceKernel(&mut dense));

    let mut skipping = periodic_switch();
    skipping.tracer_mut().attach_ring(1 << 16);
    let mut counted = Counting {
        inner: &mut skipping,
        stepped: 0,
        skipped: 0,
    };
    let end = Runner::new(idle_schedule()).run_skipping(&mut counted);
    assert_eq!(end, Cycle::new(20_500));
    assert_eq!(
        counted.stepped + counted.skipped,
        20_500,
        "every cycle either stepped or skipped"
    );
    assert!(
        counted.skipped > 15_000,
        "low-load run must skip most cycles (skipped {} of 20500)",
        counted.skipped
    );

    assert!(dense.counters().delivered_packets > 0, "traffic flowed");
    // The ring holds Grant/Decay/... events with cycle stamps — the
    // flight recorder's own source — so byte-identity here covers the
    // batched decay-epoch replay and its timestamps.
    assert!(
        ring_events(&dense)
            .iter()
            .any(|e| format!("{e:?}").contains("Decay")),
        "scenario must exercise decay epochs"
    );
    assert_observables_match(&dense, &skipping, "idle-skip vs dense");
}

/// Bernoulli sources decline to predict arrivals, so the runner must
/// never skip — and still match the dense loop exactly.
#[test]
fn unpredictable_sources_disable_skipping() {
    let build = || {
        let config = SwitchConfig::builder(Geometry::new(4, 128).expect("valid geometry"))
            .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
            .build()
            .expect("valid config");
        let mut switch = QosSwitch::new(config).expect("valid switch");
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.02, 4, 7)),
                Box::new(FixedDest::new(OutputId::new(1))),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(2)),
        );
        switch.tracer_mut().attach_ring(1 << 14);
        switch
    };
    let schedule = Schedule::new(Cycles::new(100), Cycles::new(4_000));

    let mut dense = build();
    Runner::new(schedule).run(&mut ReferenceKernel(&mut dense));

    let mut fast = build();
    let mut counted = Counting {
        inner: &mut fast,
        stepped: 0,
        skipped: 0,
    };
    Runner::new(schedule).run_skipping(&mut counted);
    assert_eq!(counted.skipped, 0, "Bernoulli runs must stay dense");
    assert_eq!(counted.stepped, 4_100);
    assert_observables_match(&dense, &fast, "bernoulli dense vs fast");
}
