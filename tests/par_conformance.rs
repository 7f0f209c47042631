//! Differential conformance: every engine — sequential, sharded
//! parallel, bitpar — must be **byte-identical** to the scalar
//! reference kernel (`QosSwitch::step_reference`): same grants, same
//! counters, same per-flow metrics, same trace events, on every
//! scenario. The engines all run the one mask-native decide/commit
//! kernel, so comparing them with each other would compare the kernel
//! with itself; the reference path probes queue heads and arbitrates
//! over request slices, sharing no decision code with it.
//!
//! The battery sweeps seeded random request matrices across all three
//! SSVC counter policies and {BE, GB, GL} class mixes (216 scenarios),
//! runs each through the reference loop, the sequential [`Runner`], the
//! [`ParRunner`] at 1, 2, and 8 threads, and [`Runner::run_skipping`],
//! and compares the complete observable state. Further batteries cover the
//! non-SSVC policies and the fabric-checked, GL-policed, demoted-GL and
//! LRG-fallback modes; the final test exports the fig4-style scenario's
//! JSONL trace through every engine and compares the files byte for
//! byte.

use std::io::Read as _;

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{Policy, QosSwitch, ReferenceKernel, SwitchConfig, SwitchCounters};
use swizzle_qos::sim::{ParRunner, Runner, Schedule};
use swizzle_qos::trace::{Event, RingSink};
use swizzle_qos::traffic::{Bernoulli, FixedDest, Injector, Periodic, Saturating, UniformDest};
use swizzle_qos::types::{
    Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass, Xoshiro256StarStar,
};

const RADIX: usize = 8;
const WARMUP: u64 = 50;
const MEASURE: u64 = 400;

/// Which traffic classes a scenario mixes.
#[derive(Clone, Copy, Debug)]
enum Mix {
    BeOnly,
    GbBe,
    GbGlBe,
}

const POLICIES: &[CounterPolicy] = &[
    CounterPolicy::SubtractRealClock,
    CounterPolicy::Halve,
    CounterPolicy::Reset,
];
const MIXES: &[Mix] = &[Mix::BeOnly, Mix::GbBe, Mix::GbGlBe];
/// Seeds per (policy, mix) cell: 3 × 3 × 24 = 216 scenarios total.
const SEEDS_PER_CELL: u64 = 24;

/// Builds one seeded random scenario. Reservations, request matrix,
/// rates, and packet lengths are all drawn from the scenario's own
/// deterministic generator, so a scenario is a pure function of
/// `(policy, mix, seed)` and both engines receive identical copies.
fn build(policy: CounterPolicy, mix: Mix, seed: u64) -> QosSwitch {
    build_with(Policy::Ssvc(policy), Mode::default(), mix, seed)
}

/// Switch-level modes the seeded scenarios can be built in.
#[derive(Clone, Copy, Debug, Default)]
struct Mode {
    /// Cross-check every GB/GL arbitration against the inhibit fabric.
    fabric_checked: bool,
    /// Police GL, and make the GL flow abusive enough to trip it.
    gl_policing: bool,
    /// GL lost its lane at the hot output: it competes inside GB rounds.
    gl_demoted: bool,
    /// The hot output's GB rounds run on the pure-LRG fallback.
    lrg_fallback: bool,
}

fn build_with(policy: Policy, mode: Mode, mix: Mix, seed: u64) -> QosSwitch {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(policy)
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .sig_bits(3)
        .fabric_checked(mode.fabric_checked)
        .gl_policing(mode.gl_policing)
        .build()
        .expect("valid config");

    // GB reservations: 2-4 flows contending for one hot output.
    let hot = OutputId::new(rng.index(RADIX));
    let mut gb_inputs = Vec::new();
    if !matches!(mix, Mix::BeOnly) {
        let flows = 2 + rng.index(3);
        let budget = 0.2 + 0.6 * rng.f64();
        for _ in 0..flows {
            let mut input = InputId::new(rng.index(RADIX));
            while gb_inputs.contains(&input) {
                input = InputId::new(rng.index(RADIX));
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
            gb_inputs.push(input);
        }
    }
    if matches!(mix, Mix::GbGlBe) {
        config
            .reservations_mut()
            .reserve_gl(hot, Rate::new(0.02 + 0.06 * rng.f64()).expect("valid rate"))
            .expect("GL reservation fits");
    }

    let mut switch = QosSwitch::new(config).expect("valid switch");
    if mode.gl_demoted {
        switch.fault_demote_gl(hot, Cycle::ZERO);
    }
    if mode.lrg_fallback {
        switch.fault_degrade_to_lrg(hot, Cycle::ZERO);
    }

    // GB traffic: saturating sources pinned to the reserved output.
    for &input in &gb_inputs {
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
    // One GL flow from an unreserved input, when the mix has GL.
    if matches!(mix, Mix::GbGlBe) {
        let mut input = InputId::new(rng.index(RADIX));
        while gb_inputs.contains(&input) {
            input = InputId::new(rng.index(RADIX));
        }
        let (interval, phase) = (rng.range(40, 150), rng.below(20));
        let source: Box<dyn swizzle_qos::traffic::TrafficSource + Send + Sync> = if mode.gl_policing
        {
            Box::new(Saturating::new(2))
        } else {
            Box::new(Periodic::new(interval, phase, 1))
        };
        switch.add_injector(
            Injector::new(
                source,
                Box::new(FixedDest::new(hot)),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(input),
        );
        if mode.gl_demoted {
            // A GB requester that also holds GL heads: inside the GB
            // round it must compete (and win) as GB, not as demoted GL.
            switch.add_injector(
                Injector::new(
                    Box::new(Periodic::new(interval + 7, phase, 1)),
                    Box::new(FixedDest::new(hot)),
                    TrafficClass::GuaranteedLatency,
                )
                .for_input(gb_inputs[0]),
            );
        }
        gb_inputs.push(input);
    }
    // BE background: every remaining input fires with some probability,
    // either at the hot output or uniformly.
    for i in 0..RADIX {
        let input = InputId::new(i);
        if gb_inputs.contains(&input) || !rng.chance(0.7) {
            continue;
        }
        let rate = 0.1 + 0.6 * rng.f64();
        let len = 1 << rng.index(3);
        let dest: Box<dyn swizzle_qos::traffic::DestinationPattern + Send + Sync> =
            if rng.chance(0.5) {
                Box::new(FixedDest::new(hot))
            } else {
                Box::new(UniformDest::new(RADIX, rng.next_u64()))
            };
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(rate, len, rng.next_u64())),
                dest,
                TrafficClass::BestEffort,
            )
            .for_input(input),
        );
    }
    switch
}

/// One engine run's complete observable state.
#[derive(PartialEq)]
struct Observation {
    counters: SwitchCounters,
    metrics: String,
    events: Vec<Event>,
}

/// Per-flow metrics across all three classes, serialized exactly:
/// integers verbatim, latency means as `f64` bit patterns.
fn metrics_csv(switch: &QosSwitch) -> String {
    use std::fmt::Write as _;
    let mut csv = String::new();
    for i in 0..RADIX {
        for o in 0..RADIX {
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

fn observe(switch: &QosSwitch) -> Observation {
    Observation {
        counters: switch.counters(),
        metrics: metrics_csv(switch),
        events: switch
            .tracer()
            .ring()
            .map(RingSink::events)
            .unwrap_or_default(),
    }
}

/// Which engine drives a run.
#[derive(Clone, Copy, Debug)]
enum Sel {
    /// The scalar oracle: `QosSwitch::step_reference` in a dense loop.
    Reference,
    Seq,
    Par(usize),
    Bitpar,
}

/// The engines held to the reference, per scenario.
const ENGINES: &[Sel] = &[Sel::Seq, Sel::Par(1), Sel::Par(2), Sel::Par(8), Sel::Bitpar];

fn drive(switch: &mut QosSwitch, schedule: Schedule, sel: Sel) {
    match sel {
        Sel::Reference => {
            Runner::new(schedule).run(&mut ReferenceKernel(switch));
        }
        Sel::Seq => {
            Runner::new(schedule).run(switch);
        }
        Sel::Par(t) => {
            ParRunner::new(schedule, t).run(switch);
        }
        Sel::Bitpar => {
            Runner::new(schedule).run_skipping(switch);
        }
    }
}

fn run_engine(mut switch: QosSwitch, sel: Sel) -> Observation {
    switch.tracer_mut().attach_ring(1 << 16);
    drive(
        &mut switch,
        Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)),
        sel,
    );
    observe(&switch)
}

fn assert_identical(reference: &Observation, other: &Observation, tag: &str) {
    assert_eq!(
        reference.counters, other.counters,
        "{tag} counters diverged"
    );
    assert_eq!(
        reference.metrics, other.metrics,
        "{tag} per-flow metrics diverged"
    );
    assert_eq!(
        reference.events.len(),
        other.events.len(),
        "{tag} event counts diverged"
    );
    for (n, (a, b)) in reference.events.iter().zip(&other.events).enumerate() {
        assert_eq!(a, b, "{tag} first event divergence at index {n}");
    }
}

/// Holds every engine to the reference kernel on one scenario.
fn assert_engines_match_reference(build: &dyn Fn() -> QosSwitch, scenario: &str) {
    let reference = run_engine(build(), Sel::Reference);
    assert!(
        reference.counters.delivered_flits > 0,
        "[{scenario}] scenario delivered nothing"
    );
    for &sel in ENGINES {
        let other = run_engine(build(), sel);
        assert_identical(&reference, &other, &format!("[{scenario} @ {sel:?}]"));
    }
}

/// The headline battery: 216 seeded scenarios, each run through the
/// reference kernel, the sequential engine, the sharded engine at 3
/// thread counts, and the bitpar engine — every observable identical
/// across all six runs.
#[test]
fn engines_are_bit_identical_across_seeded_scenarios() {
    for &policy in POLICIES {
        for &mix in MIXES {
            for s in 0..SEEDS_PER_CELL {
                // Spread cells across seed space so no two cells share
                // a generator stream.
                let seed = s
                    .wrapping_add(0x9E37_79B9 * (policy as u64 + 1))
                    .wrapping_add(0xC2B2_AE35 * (mix as u64 + 1));
                assert_engines_match_reference(
                    &|| build(policy, mix, seed),
                    &format!("{policy:?}/{mix:?}/seed {seed}"),
                );
            }
        }
    }
}

/// The policies the headline battery never builds: the slice-protocol
/// baselines reach the kernel through the stack request buffer, and the
/// flat/four-level policies through their own rounds.
#[test]
fn non_ssvc_policies_match_the_reference() {
    for policy in [
        Policy::LrgOnly,
        Policy::FourLevel,
        Policy::ExactVirtualClock,
        Policy::Gsf,
        Policy::Wrr,
        Policy::Dwrr,
        Policy::Wfq,
    ] {
        for seed in 0..6 {
            assert_engines_match_reference(
                &|| build_with(policy, Mode::default(), Mix::GbGlBe, 0xBA5E + seed),
                &format!("{policy:?}/seed {seed}"),
            );
        }
    }
    // Demoted GL joins the baselines' GB request list behind the GB
    // requesters; the list order is part of their arbitration state.
    // The baselines' ladders also carry the LRG fallback and the GL
    // policer.
    let demoted = Mode {
        gl_demoted: true,
        ..Mode::default()
    };
    let fallback = Mode {
        lrg_fallback: true,
        ..Mode::default()
    };
    let policed = Mode {
        gl_policing: true,
        ..Mode::default()
    };
    let rate = [Policy::Wrr, Policy::Gsf, Policy::ExactVirtualClock];
    for (mode, policies) in [
        (
            demoted,
            [Policy::ExactVirtualClock, Policy::Dwrr, Policy::Wfq],
        ),
        (fallback, rate),
        (policed, rate),
    ] {
        for policy in policies {
            assert_engines_match_reference(
                &|| build_with(policy, mode, Mix::GbGlBe, 0xDE40),
                &format!("{policy:?}/{mode:?}"),
            );
        }
    }
}

/// The kernel's remaining branches: the fabric cross-check at commit,
/// the GL policer (policed GL below GB), demoted GL inside the GB round,
/// and the pure-LRG fallback — alone and stacked.
#[test]
fn checked_policed_and_degraded_modes_match_the_reference() {
    let modes = [
        Mode {
            fabric_checked: true,
            ..Mode::default()
        },
        Mode {
            gl_policing: true,
            ..Mode::default()
        },
        Mode {
            gl_demoted: true,
            ..Mode::default()
        },
        Mode {
            lrg_fallback: true,
            ..Mode::default()
        },
        Mode {
            fabric_checked: true,
            gl_policing: true,
            ..Mode::default()
        },
        Mode {
            gl_demoted: true,
            lrg_fallback: true,
            ..Mode::default()
        },
    ];
    for mode in modes {
        for &policy in POLICIES {
            for seed in 0..4 {
                let build = || build_with(Policy::Ssvc(policy), mode, Mix::GbGlBe, 0x30DE + seed);
                assert_engines_match_reference(&build, &format!("{mode:?}/{policy:?}/seed {seed}"));
                if mode.gl_policing {
                    let probe = run_engine(build(), Sel::Seq);
                    assert!(
                        probe.counters.gl_policed_cycles > 0,
                        "[{mode:?}/{policy:?}/seed {seed}] the policer never engaged"
                    );
                }
            }
        }
    }
}

/// Inputs that request several outputs in the same cycle — GB virtual
/// queues toward two outputs plus per-output BE queues — so a grant at
/// an earlier output invalidates plans already decided for later ones.
/// This is the sharded engine's stale-plan re-decide, which the
/// one-hot-output scenarios above never reach.
fn build_contended(policy: CounterPolicy, seed: u64) -> QosSwitch {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(policy))
        .gb_buffer_flits(16)
        .be_buffer_flits(8)
        .be_voq(true)
        .sig_bits(3)
        .build()
        .expect("valid config");
    let mut flows = Vec::new();
    for i in 0..RADIX {
        // Two GB flows per input, three inputs per output: every output
        // is contended and every input contends at two outputs.
        for hop in [1, 3] {
            let (input, output) = (InputId::new(i), OutputId::new((i + hop) % RADIX));
            let len = 1 << rng.index(3);
            config
                .reservations_mut()
                .reserve_gb(input, output, Rate::new(0.3).expect("valid rate"), len)
                .expect("reservation fits");
            flows.push((input, output, len));
        }
    }
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for (input, output, len) in flows {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.35, len, rng.next_u64())),
                Box::new(FixedDest::new(output)),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(input),
        );
    }
    for i in 0..RADIX {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.3, 2, rng.next_u64())),
                Box::new(UniformDest::new(RADIX, rng.next_u64())),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

#[test]
fn inputs_contending_at_several_outputs_match_the_reference() {
    for &policy in POLICIES {
        for seed in 0..8 {
            assert_engines_match_reference(
                &|| build_contended(policy, 0xC0_47E4D + seed),
                &format!("contended/{policy:?}/seed {seed}"),
            );
        }
    }
}

/// A long saturated run exercising counter-policy epochs (decay, halve,
/// reset) far past the short battery's horizon, on every engine — for
/// each counter policy, and for the two stacked modes (checked and
/// policed; demoted GL on the LRG fallback) with all three classes.
#[test]
fn engines_match_on_long_saturated_run() {
    let schedule = Schedule::new(Cycles::new(500), Cycles::new(8_000));
    let mut cases: Vec<(CounterPolicy, Mode, Mix)> = POLICIES
        .iter()
        .map(|&policy| (policy, Mode::default(), Mix::GbBe))
        .collect();
    cases.push((
        CounterPolicy::SubtractRealClock,
        Mode {
            fabric_checked: true,
            gl_policing: true,
            ..Mode::default()
        },
        Mix::GbGlBe,
    ));
    cases.push((
        CounterPolicy::Halve,
        Mode {
            gl_demoted: true,
            lrg_fallback: true,
            ..Mode::default()
        },
        Mix::GbGlBe,
    ));
    for (policy, mode, mix) in cases {
        let run_long = |sel| {
            let mut switch = build_with(Policy::Ssvc(policy), mode, mix, 4242);
            switch.tracer_mut().attach_ring(1 << 17);
            drive(&mut switch, schedule, sel);
            observe(&switch)
        };
        let reference = run_long(Sel::Reference);
        for sel in [Sel::Seq, Sel::Par(4), Sel::Bitpar] {
            let other = run_long(sel);
            assert!(
                reference == other,
                "{policy:?}/{mode:?}: long-run {sel:?} divergence (events {} vs {})",
                reference.events.len(),
                other.events.len()
            );
        }
    }
}

/// Builds the fig4-style saturated-GB scenario used by the paper's
/// throughput figure: eight saturating GB flows with skewed reserved
/// rates, all contending for output 0.
fn fig4_switch() -> QosSwitch {
    const FIG4_RATES: [f64; 8] = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .sig_bits(4)
        .build()
        .expect("valid config");
    for (i, &r) in FIG4_RATES.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(0),
                Rate::new(r).expect("valid rate"),
                8,
            )
            .expect("reservation fits");
    }
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for i in 0..RADIX {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

/// Trace-ordering golden: the JSONL traces every engine writes for the
/// fig4 scenario are byte-identical to the reference kernel's — the
/// events the commit builds from its pre-charge snapshot must match the
/// ones the reference pre-builds at decide time, in the same order, at
/// any thread count.
#[test]
fn fig4_jsonl_trace_is_byte_identical() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let schedule = Schedule::new(Cycles::new(200), Cycles::new(3_000));

    let mut paths = Vec::new();
    for (label, sel) in [
        ("reference", Sel::Reference),
        ("seq", Sel::Seq),
        ("par2", Sel::Par(2)),
        ("par8", Sel::Par(8)),
        ("bitpar", Sel::Bitpar),
    ] {
        let path = dir.join(format!("ssq-fig4-conformance-{pid}-{label}.jsonl"));
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut switch = fig4_switch();
        switch
            .tracer_mut()
            .attach_jsonl(Box::new(std::io::BufWriter::new(file)));
        drive(&mut switch, schedule, sel);
        switch.tracer_mut().flush();
        assert!(
            switch.tracer().jsonl().and_then(|j| j.io_error()).is_none(),
            "trace write failed for {label}"
        );
        drop(switch);
        paths.push(path);
    }

    let mut golden = Vec::new();
    std::fs::File::open(&paths[0])
        .expect("open golden")
        .read_to_end(&mut golden)
        .expect("read golden");
    assert!(!golden.is_empty(), "reference trace is empty");
    for path in &paths[1..] {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .expect("open parallel trace")
            .read_to_end(&mut bytes)
            .expect("read parallel trace");
        assert_eq!(
            golden,
            bytes,
            "engine JSONL trace differs from the reference ({})",
            path.display()
        );
    }
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}
