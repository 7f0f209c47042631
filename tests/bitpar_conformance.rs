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
//! * The arrival schedule where the shared battery does not reach it:
//!   an injector added mid-block, idle skips that cross block ends over
//!   stateful sources, staging at its fullest (a 1-flit buffer, packets
//!   that never fit, two injectors on one queue) and frozen (a link
//!   down, then healed) for the `retry_at` timing, and stepping that is
//!   not consecutive. The reference kernel polls every source and
//!   probes every staged head every cycle, so it is the densely polled
//!   twin throughout.
//! * The work word (`busy_out | req_out`) where it skips the most and
//!   where it moves under the loop: radix 64 at 2.5 % load, with the
//!   idle-skip verdicts of that run pinned to their count from before
//!   the word existed; `Policy::FourLevel`, the only policy whose
//!   arbitration-wait clocks ever leave zero; and a shared BE FIFO whose
//!   head pops hand the input's request bit to a later output in the
//!   middle of a cycle. The reference kernel visits every output.

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{Policy, QosSwitch, ReferenceKernel, SwitchConfig};
use swizzle_qos::sim::{CycleModel, EventModel, Runner, Schedule};
use swizzle_qos::trace::{Event, RingSink};
use swizzle_qos::traffic::{
    Bernoulli, FixedDest, Injector, OnOffBursty, Periodic, Saturating, Trace, UniformDest,
};
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

/// A radix-8 SSVC switch with one GB reservation per `(input, rate)`
/// toward output 0 and the given GB/BE buffer depths.
fn small_switch(buffer_flits: u64, reserved: &[(usize, f64)]) -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(buffer_flits)
        .be_buffer_flits(buffer_flits)
        .build()
        .expect("valid config");
    for &(input, rate) in reserved {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(input),
                OutputId::new(0),
                Rate::new(rate).expect("valid rate"),
                1,
            )
            .expect("reservation fits");
    }
    let mut switch = QosSwitch::new(config).expect("valid switch");
    switch.tracer_mut().attach_ring(1 << 16);
    switch
}

fn injector(
    source: impl swizzle_qos::traffic::TrafficSource + Send + Sync + 'static,
    class: TrafficClass,
    input: usize,
    output: usize,
) -> Injector {
    Injector::new(
        Box::new(source),
        Box::new(FixedDest::new(OutputId::new(output))),
        class,
    )
    .for_input(InputId::new(input))
}

/// Steps `scheduled` on the kernel and `dense` on the reference over
/// `cycles`, applying `at_cycle` to both before each step.
fn step_both(
    scheduled: &mut QosSwitch,
    dense: &mut QosSwitch,
    cycles: std::ops::Range<u64>,
    mut at_cycle: impl FnMut(&mut QosSwitch, Cycle),
) {
    for c in cycles {
        let now = Cycle::new(c);
        at_cycle(scheduled, now);
        at_cycle(dense, now);
        scheduled.step(now);
        dense.step_reference(now);
    }
}

/// An injector attached after `n` stepped cycles is drawn over the rest
/// of the current block only: its first poll is cycle `n`, as it is for
/// the reference's densely polled copy.
#[test]
fn an_injector_added_mid_block_matches_a_densely_polled_twin() {
    for n in [0, 1, 37, 63, 64, 65, 200] {
        let build = || {
            let mut switch = small_switch(8, &[(0, 0.3)]);
            switch.add_injector(injector(
                Bernoulli::new(0.3, 1, 11),
                TrafficClass::GuaranteedBandwidth,
                0,
                0,
            ));
            switch.add_injector(injector(
                Periodic::new(40, 3, 2),
                TrafficClass::BestEffort,
                1,
                2,
            ));
            switch
        };
        let (mut scheduled, mut dense) = (build(), build());
        step_both(&mut scheduled, &mut dense, 0..400, |sw, now| {
            if now.value() == n {
                // Stateful, two draws a poll, and a random destination.
                sw.add_injector(
                    Injector::new(
                        Box::new(OnOffBursty::new(0.6, 2, 0.05, 0.1, 5)),
                        Box::new(UniformDest::new(8, 9)),
                        TrafficClass::BestEffort,
                    )
                    .for_input(InputId::new(3)),
                );
                sw.add_injector(injector(
                    Trace::new(vec![(n + 2, 1), (n + 70, 4)]),
                    TrafficClass::BestEffort,
                    4,
                    5,
                ));
            }
        });
        assert!(
            scheduled.counters().delivered_packets > 100,
            "traffic flowed"
        );
        assert_observables_match(&dense, &scheduled, &format!("injector added at cycle {n}"));
    }
}

/// Idle skips land on arrivals the block never saw and cross its end:
/// trace events sit on both sides of the 64-cycle grid, far apart, with
/// a periodic source between them.
#[test]
fn skips_past_a_block_end_match_a_densely_polled_twin() {
    let build = || {
        let mut switch = small_switch(8, &[(0, 0.3)]);
        switch.add_injector(injector(
            Trace::new(vec![
                (3, 1),
                (63, 2),
                (64, 1),
                (65, 1),
                (127, 4),
                (900, 1),
                (5_000, 8),
            ]),
            TrafficClass::GuaranteedBandwidth,
            0,
            0,
        ));
        switch.add_injector(injector(
            Periodic::new(333, 130, 2),
            TrafficClass::BestEffort,
            2,
            6,
        ));
        switch
    };
    let schedule = Schedule::new(Cycles::new(100), Cycles::new(6_000));
    let mut dense = build();
    Runner::new(schedule).run(&mut ReferenceKernel(&mut dense));
    let mut skipping = build();
    let mut counted = Counting {
        inner: &mut skipping,
        stepped: 0,
        skipped: 0,
    };
    Runner::new(schedule).run_skipping(&mut counted);
    assert!(counted.skipped > 5_000, "skipped {}", counted.skipped);
    // Measured from cycle 100: three trace events and 18 periodic ones.
    assert_eq!(dense.counters().delivered_packets, 3 + 18);
    assert_observables_match(&dense, &skipping, "skips across block ends");
}

/// Where staging is fullest the retry timing is exercised hardest: a
/// saturated 1-flit buffer (the staging queue overflows and drops), a
/// packet longer than its buffer (never fits, re-timed for ever), and
/// two injectors feeding one queue (each shrinks the room the other's
/// retry was timed against).
#[test]
fn saturated_staging_matches_the_reference_probe_for_probe() {
    let build = || {
        let mut switch = small_switch(1, &[(0, 0.1), (1, 0.2)]);
        let gb = TrafficClass::GuaranteedBandwidth;
        switch.add_injector(injector(Saturating::new(1), gb, 0, 0));
        switch.add_injector(injector(Bernoulli::new(0.5, 1, 3), gb, 1, 0));
        switch.add_injector(injector(Bernoulli::new(0.5, 1, 4), gb, 1, 0));
        switch.add_injector(injector(
            Periodic::new(50, 0, 4),
            TrafficClass::BestEffort,
            2,
            3,
        ));
        switch
    };
    let (mut scheduled, mut dense) = (build(), build());
    step_both(&mut scheduled, &mut dense, 0..3_000, |_, _| {});
    let c = scheduled.counters();
    assert!(c.dropped_packets > 0, "staging must overflow");
    assert!(c.delivered_packets > 300, "the 1-flit buffers must drain");
    assert_observables_match(&dense, &scheduled, "saturated 1-flit buffers");
    let (timed, probed) = (scheduled.injection_work(), dense.injection_work());
    assert!(
        timed.probes < probed.probes && timed.polls < probed.polls,
        "the schedule must do less work: {timed:?} vs {probed:?}"
    );
}

/// A downed link freezes staging (nothing drains, arrivals are rejected
/// at the source) and healing resumes it; retries timed before the
/// fault must still be bounds after it.
#[test]
fn a_link_down_and_heal_run_matches_the_reference() {
    let build = || {
        let mut switch = small_switch(4, &[(0, 0.3), (1, 0.3)]);
        let gb = TrafficClass::GuaranteedBandwidth;
        switch.add_injector(injector(Bernoulli::new(0.9, 2, 21), gb, 0, 0));
        switch.add_injector(injector(Saturating::new(2), gb, 1, 0));
        switch
    };
    let (mut scheduled, mut dense) = (build(), build());
    step_both(&mut scheduled, &mut dense, 0..1_500, |sw, now| {
        match now.value() {
            300 | 900 => sw.fault_set_link(InputId::new(0), false, now),
            640 | 901 => sw.fault_set_link(InputId::new(0), true, now),
            _ => {}
        }
    });
    let rejected = ring_events(&scheduled)
        .iter()
        .filter(|e| format!("{e:?}").contains("LinkDown"))
        .count();
    assert!(rejected > 50, "arrivals during the outage are rejected");
    assert_observables_match(&dense, &scheduled, "link down, then healed");
}

/// `step(now)` need not be consecutive where no drawn arrival is lost —
/// the schedule keeps or redraws its block — and panics where one would
/// be, instead of running on with arrivals dense polling never made.
#[test]
fn non_consecutive_steps_are_supported_or_diagnosed() {
    let build = || {
        let mut switch = small_switch(8, &[]);
        switch.add_injector(injector(
            Periodic::new(1_000, 5, 1),
            TrafficClass::BestEffort,
            0,
            1,
        ));
        switch
    };
    // 10 -> 2_000 strands nothing: cycle 5 was stepped, 1_005 is not
    // drawn yet. Dense polling of the same cycles agrees.
    let (mut scheduled, mut dense) = (build(), build());
    step_both(&mut scheduled, &mut dense, 0..10, |_, _| {});
    step_both(&mut scheduled, &mut dense, 2_000..2_100, |_, _| {});
    assert_eq!(scheduled.counters().offered_packets, 2);
    assert_observables_match(&dense, &scheduled, "a gap with nothing due");

    // 3 -> 40 would lose the packet drawn for cycle 5.
    let mut lossy = build();
    for c in 0..4 {
        lossy.step(Cycle::new(c));
    }
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lossy.step(Cycle::new(40));
    }));
    let message = *caught
        .expect_err("the lost arrival must be diagnosed")
        .downcast::<String>()
        .expect("panic message");
    assert!(
        message.contains("cycle 5 holds a pre-drawn arrival"),
        "{message}"
    );
}

/// Radix 64 at sparse-r64's load (2.5 %) and shape: per input an 8-flit
/// GB packet every 400 cycles to its reserved output and an 8-flit BE
/// packet every 800, each class bursting inside a seeded 16-cycle
/// window, so most outputs have no work in most cycles and the switch
/// is provably idle between bursts.
fn sparse_r64() -> QosSwitch {
    let radix = 64;
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    let mut config = SwitchConfig::builder(Geometry::new(radix, 512).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .build()
        .expect("valid config");
    let gb_dest: Vec<usize> = (0..radix).map(|i| (i * 7 + 3) % radix).collect();
    for (i, &o) in gb_dest.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(o),
                Rate::new(0.05).expect("valid rate"),
                8,
            )
            .expect("reservation fits");
    }
    let mut switch = QosSwitch::new(config).expect("valid switch");
    switch.tracer_mut().attach_ring(1 << 16);
    let gb_burst = rng.below(100);
    for (i, &o) in gb_dest.iter().enumerate() {
        let gb = Periodic::new(400, gb_burst + rng.below(16), 8);
        let be = Periodic::new(800, gb_burst + 200 + rng.below(16), 8);
        let be_dest = rng.index(radix);
        switch.add_injector(injector(gb, TrafficClass::GuaranteedBandwidth, i, o));
        switch.add_injector(injector(be, TrafficClass::BestEffort, i, be_dest));
    }
    switch
}

/// The work word at radix 64: a cycle visits the few outputs that
/// transmit or are requested, the reference all 64, and they agree.
#[test]
fn a_sparse_radix_64_switch_visits_few_outputs_and_matches_the_reference() {
    let (mut kernel, mut dense) = (sparse_r64(), sparse_r64());
    step_both(&mut kernel, &mut dense, 0..4_100, |_, _| {});
    assert!(kernel.counters().delivered_packets > 900, "traffic flowed");
    assert_observables_match(&dense, &kernel, "sparse radix 64");
    assert_eq!(dense.outputs_visited(), 64 * 4_100);
    let visited = kernel.outputs_visited();
    assert!(
        visited > 0 && visited < 3 * 4_100,
        "the kernel visited {visited} outputs in 4100 cycles"
    );
}

/// The idle-skip verdicts of that switch, as counted before the work
/// word and the O(1) quiescence probe existed: which cycles are stepped
/// and which are skipped must not move.
#[test]
fn sparse_radix_64_idle_skip_verdicts_are_pinned() {
    let schedule = Schedule::new(Cycles::new(100), Cycles::new(20_000));
    let mut dense = sparse_r64();
    Runner::new(schedule).run(&mut ReferenceKernel(&mut dense));
    let mut skipping = sparse_r64();
    let mut counted = Counting {
        inner: &mut skipping,
        stepped: 0,
        skipped: 0,
    };
    Runner::new(schedule).run_skipping(&mut counted);
    assert_eq!(
        (counted.stepped, counted.skipped),
        (SPARSE_R64_STEPPED, 20_100 - SPARSE_R64_STEPPED),
        "skip_idle verdicts moved"
    );
    assert_observables_match(&dense, &skipping, "sparse radix 64, skipping");
}

/// Cycles of [`sparse_r64`]'s 20 100 that hold work, measured at the
/// commit before the work word.
const SPARSE_R64_STEPPED: u64 = 2_123;

/// `Policy::FourLevel` pays two arbitration cycles: the only policy
/// whose decide returns `AwaitLatency`, so the only way an
/// arbitration-wait clock is ever non-zero — between bursts here, with
/// most outputs unvisited, and over idle stretches that are skipped.
#[test]
fn four_level_two_cycle_arbitration_matches_the_reference() {
    let build = || {
        let config = SwitchConfig::builder(Geometry::new(16, 128).expect("valid geometry"))
            .policy(Policy::FourLevel)
            .gb_buffer_flits(8)
            .be_buffer_flits(8)
            .build()
            .expect("valid config");
        let mut switch = QosSwitch::new(config).expect("valid switch");
        switch.tracer_mut().attach_ring(1 << 16);
        let (gl, gb, be) = (
            TrafficClass::GuaranteedLatency,
            TrafficClass::GuaranteedBandwidth,
            TrafficClass::BestEffort,
        );
        // Three classes collide at output 2 every 60 cycles; outputs 9
        // and 11 see lone packets; the rest see nothing.
        switch.add_injector(injector(Periodic::new(60, 5, 4), gb, 0, 2));
        switch.add_injector(injector(Periodic::new(60, 5, 4), gb, 1, 2));
        switch.add_injector(injector(Periodic::new(60, 6, 1), gl, 3, 2));
        switch.add_injector(injector(Periodic::new(60, 5, 2), be, 4, 2));
        switch.add_injector(injector(Periodic::new(45, 0, 3), be, 4, 9));
        switch.add_injector(injector(Periodic::new(170, 80, 8), gb, 7, 11));
        switch
    };
    let (mut kernel, mut dense) = (build(), build());
    step_both(&mut kernel, &mut dense, 0..3_000, |_, _| {});
    assert!(kernel.counters().delivered_packets > 250, "traffic flowed");
    assert_observables_match(&dense, &kernel, "four-level, stepped");
    assert!(
        kernel.outputs_visited() < 3 * 3_000,
        "most outputs are idle"
    );

    let schedule = Schedule::new(Cycles::new(100), Cycles::new(2_900));
    let mut reference = build();
    Runner::new(schedule).run(&mut ReferenceKernel(&mut reference));
    let mut skipping = build();
    let mut counted = Counting {
        inner: &mut skipping,
        stepped: 0,
        skipped: 0,
    };
    Runner::new(schedule).run_skipping(&mut counted);
    assert!(counted.skipped > 1_000, "skipped {}", counted.skipped);
    assert_observables_match(&reference, &skipping, "four-level, skipping");
}

/// A shared BE FIFO presents one head at a time: input 0's packets
/// alternate between output 1 and output 5, so every packet finishing
/// at output 1 moves input 0's request bit to a higher-numbered output
/// in the middle of the cycle — after the work word was first read —
/// and every one finishing at output 5 moves it back to a lower one.
#[test]
fn a_be_head_pop_that_requests_a_later_output_mid_cycle_matches_the_reference() {
    let build = |chaining: bool| {
        let config = SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
            .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
            .be_buffer_flits(8)
            .packet_chaining(chaining)
            .build()
            .expect("valid config");
        assert!(!config.be_voq(), "the scenario needs the shared BE FIFO");
        let mut switch = QosSwitch::new(config).expect("valid switch");
        switch.tracer_mut().attach_ring(1 << 16);
        let be = TrafficClass::BestEffort;
        switch.add_injector(injector(Periodic::new(6, 0, 1), be, 0, 1));
        switch.add_injector(injector(Periodic::new(6, 3, 2), be, 0, 5));
        // A rival for output 5, so the exposed head also loses rounds.
        switch.add_injector(injector(Periodic::new(9, 1, 2), be, 3, 5));
        switch
    };
    for chaining in [false, true] {
        let (mut kernel, mut dense) = (build(chaining), build(chaining));
        step_both(&mut kernel, &mut dense, 0..2_000, |_, _| {});
        assert!(kernel.counters().delivered_packets > 800, "traffic flowed");
        assert_observables_match(&dense, &kernel, &format!("BE FIFO, chaining {chaining}"));
    }
}
