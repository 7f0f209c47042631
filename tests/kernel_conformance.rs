//! Differential conformance: every engine — the sequential
//! [`Runner::run`], the sharded [`ParRunner::run`] and the idle-skipping
//! [`Runner::run_skipping`] (`--engine bitpar`) — must be
//! **byte-identical** to the scalar reference kernel
//! (`QosSwitch::step_reference`, driven through [`ReferenceKernel`]):
//! same grants, same counters, same per-flow metrics, same trace events,
//! on every scenario. The engines all run the one mask-native
//! decide/commit kernel, so comparing them with each other would compare
//! the kernel with itself; the reference path probes queue heads and
//! arbitrates over request slices, sharing no decision code with it.
//!
//! One harness serves every test: an [`Observation`] of a finished run
//! (counters, [`metrics_csv`], the trace ring), one [`Counting`]
//! wrapper that tallies stepped and skipped cycles, and one [`drive`]
//! over the four engines. The scenario families:
//!
//! * **Seeded batteries through every engine.** Random request matrices
//!   across all three SSVC counter policies and {BE, GB, GL} class mixes
//!   (216 scenarios); the non-SSVC policies; the fabric-checked,
//!   GL-policed, demoted-GL and LRG-fallback modes, alone and stacked;
//!   inputs contending at several outputs (the sharded merge's stale-plan
//!   re-decide); a long saturated run past many counter epochs; and the
//!   fig4-style scenario's JSONL trace, compared byte for byte.
//! * **The stepped kernel against the reference, cycle by cycle.** A
//!   seeded property test over radices 2–64 with random class mixes,
//!   buffer shapes, per-port feature toggles and **mid-run reservation
//!   renegotiation**.
//! * **Idle skipping.** Event-driven stepping must produce byte-identical
//!   observables to dense reference stepping — decay-epoch events and
//!   flight-recorder cycle stamps included — while provably skipping
//!   most cycles at low load; unpredictable (Bernoulli) sources must
//!   never allow a skip.
//! * **The arrival schedule** where the seeded batteries do not reach
//!   it: an injector added mid-block, idle skips that cross block ends
//!   over stateful sources, staging at its fullest (a 1-flit buffer,
//!   packets that never fit, two injectors on one queue) and frozen (a
//!   link down, then healed) for the `retry_at` timing, and stepping
//!   that is not consecutive. The reference kernel polls every source
//!   and probes every staged head every cycle, so it is the densely
//!   polled twin throughout.
//! * **The work word** (`(req_out & !busy_out) | finishing`) where it
//!   skips the most and where it moves under the loop: radix 64 at
//!   2.5 % load, with the idle-skip verdicts of that run pinned to their
//!   count from before the word existed; `Policy::FourLevel`, the only
//!   policy whose arbitration-wait clocks ever leave zero; and a shared
//!   BE FIFO whose head pops hand the input's request bit to a later
//!   output in the middle of a cycle. The reference kernel visits every
//!   output.
//! * **Reads in the middle of a packet.** The kernel applies a packet's
//!   flits in one batch, when something reads them, and times a staged
//!   head's retry to the exact cycle it fits; the reference moves one
//!   flit per channel per cycle and probes every staged head every
//!   cycle. Every cycle of these cases holds the kernel's settle-aware
//!   readers (each channel, the room of every queue, each input's
//!   occupancy) to the reference's: offers gated by the room reader on
//!   every cycle of a drain, packets longer than the 64-slot completion
//!   wheel, a measurement window opened mid-packet, a link downed and
//!   healed mid-packet, a chained queue with a head waiting on it, two
//!   injectors waiting on one BE queue, and `Policy::FourLevel`. The
//!   waveform the VCD recorder writes from these readers is an output
//!   golden of its own, in `tests/bitpar_conformance.rs`.

use std::io::Read as _;

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{
    ChannelState, Policy, QosSwitch, ReferenceKernel, SwitchConfig, SwitchCounters,
};
use swizzle_qos::sim::{CycleModel, ParRunner, Runner, Schedule};
use swizzle_qos::trace::{Event, RingSink};
use swizzle_qos::traffic::{
    Bernoulli, FixedDest, Injector, OnOffBursty, Periodic, Saturating, Trace, UniformDest,
};
use swizzle_qos::types::{
    Cycle, Cycles, FlowId, Geometry, InputId, OutputId, PacketId, PacketSpec, Rate, TrafficClass,
    Xoshiro256StarStar,
};

// ---------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------

/// One run's complete observable state.
#[derive(PartialEq)]
struct Observation {
    counters: SwitchCounters,
    metrics: String,
    events: Vec<Event>,
}

/// Per-flow metrics across all three classes, serialized exactly:
/// integers verbatim, latency means as `f64` bit patterns, so any
/// divergence is a byte divergence.
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

/// The trace ring's events, oldest first (none without a ring).
fn ring_events(switch: &QosSwitch) -> Vec<Event> {
    switch
        .tracer()
        .ring()
        .map(RingSink::events)
        .unwrap_or_default()
}

fn observe(switch: &QosSwitch) -> Observation {
    Observation {
        counters: switch.counters(),
        metrics: metrics_csv(switch),
        events: ring_events(switch),
    }
}

fn assert_identical(reference: &Observation, other: &Observation, tag: &str) {
    assert_eq!(
        reference.counters, other.counters,
        "{tag}: counters diverged"
    );
    assert_eq!(
        reference.metrics, other.metrics,
        "{tag}: per-flow metrics diverged"
    );
    assert_eq!(
        reference.events.len(),
        other.events.len(),
        "{tag}: event counts diverged"
    );
    for (n, (a, b)) in reference.events.iter().zip(&other.events).enumerate() {
        assert_eq!(a, b, "{tag}: first event divergence at index {n}");
    }
}

/// [`assert_identical`] on two finished switches.
fn assert_observables_match(reference: &QosSwitch, other: &QosSwitch, tag: &str) {
    assert_identical(&observe(reference), &observe(other), tag);
}

/// Counts how a runner spends its cycles, delegating to the real switch
/// — the proof that idle skipping engaged, or that it did not.
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
    fn skip_idle(&mut self, now: Cycle, limit: Cycle) -> Cycle {
        let target = self.inner.skip_idle(now, limit);
        self.skipped += target.value() - now.value();
        target
    }
}

/// Runs `switch` through `schedule` on the skipping runner and returns
/// how many cycles it stepped and how many it skipped.
fn run_skipping_counted(switch: &mut QosSwitch, schedule: Schedule) -> (u64, u64) {
    let mut counted = Counting {
        inner: switch,
        stepped: 0,
        skipped: 0,
    };
    Runner::new(schedule).run_skipping(&mut counted);
    (counted.stepped, counted.skipped)
}

/// Which engine drives a run.
#[derive(Clone, Copy, Debug)]
enum Engine {
    /// The scalar oracle: `QosSwitch::step_reference` in a dense loop.
    Reference,
    /// [`Runner::run`]: one `step` a cycle.
    Seq,
    /// [`ParRunner::run`]: prepare, decide every output, merge in order.
    Sharded,
    /// [`Runner::run_skipping`]: `seq` plus idle skipping.
    Bitpar,
}

/// The engines held to the reference, per scenario.
const ENGINES: [Engine; 3] = [Engine::Seq, Engine::Sharded, Engine::Bitpar];

fn drive(switch: &mut QosSwitch, schedule: Schedule, engine: Engine) {
    match engine {
        Engine::Reference => {
            Runner::new(schedule).run(&mut ReferenceKernel(switch));
        }
        Engine::Seq => {
            Runner::new(schedule).run(switch);
        }
        Engine::Sharded => {
            ParRunner::new(schedule, 1).run(switch);
        }
        Engine::Bitpar => {
            Runner::new(schedule).run_skipping(switch);
        }
    }
}

// ---------------------------------------------------------------------
// Seeded batteries through every engine.
// ---------------------------------------------------------------------

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

const COUNTER_POLICIES: &[CounterPolicy] = &[
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
/// `(policy, mix, seed)` and every engine receives an identical copy.
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

fn run_engine(mut switch: QosSwitch, engine: Engine) -> Observation {
    switch.tracer_mut().attach_ring(1 << 16);
    drive(
        &mut switch,
        Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)),
        engine,
    );
    observe(&switch)
}

/// Holds every engine to the reference kernel on one scenario.
fn assert_engines_match_reference(build: &dyn Fn() -> QosSwitch, scenario: &str) {
    let reference = run_engine(build(), Engine::Reference);
    assert!(
        reference.counters.delivered_flits > 0,
        "[{scenario}] scenario delivered nothing"
    );
    for engine in ENGINES {
        let other = run_engine(build(), engine);
        assert_identical(&reference, &other, &format!("[{scenario} @ {engine:?}]"));
    }
}

/// The headline battery: 216 seeded scenarios, each run through the
/// reference kernel, the sequential engine, the sharded engine and the
/// bitpar engine — every observable identical across all four runs.
#[test]
fn engines_are_bit_identical_across_seeded_scenarios() {
    for &policy in COUNTER_POLICIES {
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
        for &policy in COUNTER_POLICIES {
            for seed in 0..4 {
                let build = || build_with(Policy::Ssvc(policy), mode, Mix::GbGlBe, 0x30DE + seed);
                assert_engines_match_reference(&build, &format!("{mode:?}/{policy:?}/seed {seed}"));
                if mode.gl_policing {
                    let probe = run_engine(build(), Engine::Seq);
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
    for &policy in COUNTER_POLICIES {
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
    let mut cases: Vec<(CounterPolicy, Mode, Mix)> = COUNTER_POLICIES
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
        let run_long = |engine| {
            let mut switch = build_with(Policy::Ssvc(policy), mode, mix, 4242);
            switch.tracer_mut().attach_ring(1 << 17);
            drive(&mut switch, schedule, engine);
            observe(&switch)
        };
        let reference = run_long(Engine::Reference);
        for engine in ENGINES {
            let other = run_long(engine);
            assert!(
                reference == other,
                "{policy:?}/{mode:?}: long-run {engine:?} divergence (events {} vs {})",
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
/// ones the reference pre-builds at decide time, in the same order.
#[test]
fn fig4_jsonl_trace_is_byte_identical() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let schedule = Schedule::new(Cycles::new(200), Cycles::new(3_000));

    let mut paths = Vec::new();
    for (label, engine) in [
        ("reference", Engine::Reference),
        ("seq", Engine::Seq),
        ("sharded", Engine::Sharded),
        ("bitpar", Engine::Bitpar),
    ] {
        let path = dir.join(format!("ssq-fig4-conformance-{pid}-{label}.jsonl"));
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut switch = fig4_switch();
        switch
            .tracer_mut()
            .attach_jsonl(Box::new(std::io::BufWriter::new(file)));
        drive(&mut switch, schedule, engine);
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
            .expect("open engine trace")
            .read_to_end(&mut bytes)
            .expect("read engine trace");
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

// ---------------------------------------------------------------------
// The stepped kernel against the reference, cycle by cycle.
// ---------------------------------------------------------------------

/// One seeded random switch over a random radix in 2..=64. The scenario
/// is a pure function of the seed, so the reference and kernel copies
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

// ---------------------------------------------------------------------
// Idle skipping.
// ---------------------------------------------------------------------

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
    drive(&mut dense, idle_schedule(), Engine::Reference);

    let mut skipping = periodic_switch();
    skipping.tracer_mut().attach_ring(1 << 16);
    let (stepped, skipped) = run_skipping_counted(&mut skipping, idle_schedule());
    assert_eq!(
        stepped + skipped,
        20_500,
        "every cycle either stepped or skipped"
    );
    assert!(
        skipped > 15_000,
        "low-load run must skip most cycles (skipped {skipped} of 20500)"
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
    drive(&mut dense, schedule, Engine::Reference);

    let mut fast = build();
    let (stepped, skipped) = run_skipping_counted(&mut fast, schedule);
    assert_eq!(skipped, 0, "Bernoulli runs must stay dense");
    assert_eq!(stepped, 4_100);
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
    drive(&mut dense, schedule, Engine::Reference);
    let mut skipping = build();
    let (_, skipped) = run_skipping_counted(&mut skipping, schedule);
    assert!(skipped > 5_000, "skipped {skipped}");
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
    drive(&mut dense, schedule, Engine::Reference);
    let mut skipping = sparse_r64();
    assert_eq!(
        run_skipping_counted(&mut skipping, schedule),
        (SPARSE_R64_STEPPED, 20_100 - SPARSE_R64_STEPPED),
        "skip_idle verdicts moved"
    );
    assert_observables_match(&dense, &skipping, "sparse radix 64, skipping");
}

/// Cycles of [`sparse_r64`]'s 20 100 that hold work, measured at the
/// commit before the work word.
const SPARSE_R64_STEPPED: u64 = 2_123;

/// `--prof`'s transmit-only count: an 8-flit packet arbitrates in
/// cycle 0 and moves its flits in cycles 1–8, each of which begins with
/// every requested output busy. A 1-flit packet arrives at another
/// output in cycle 3 and moves its flit in cycle 4; the long one's last
/// flit moves in cycle 8. So cycles 1–8 are transmit-only, and all but
/// 3 (an arrival), 4 and 8 (a packet finishes) are clock-only. On
/// [`sparse_r64`] `seq` and `bitpar` count the same cycles: the ones
/// `bitpar` skips have no output busy.
#[test]
fn transmit_only_cycles_are_counted_exactly_on_both_engines() {
    let mut two = small_switch(16, &[(0, 0.5)]);
    two.add_injector(injector(
        Trace::new(vec![(0, 8)]),
        TrafficClass::GuaranteedBandwidth,
        0,
        0,
    ));
    two.add_injector(injector(
        Trace::new(vec![(3, 1)]),
        TrafficClass::BestEffort,
        1,
        1,
    ));
    two.prof_arm();
    drive(
        &mut two,
        Schedule::new(Cycles::ZERO, Cycles::new(20)),
        Engine::Seq,
    );
    let counted = two.transmit_only_cycles();
    assert_eq!((counted.transmit_only, counted.clock_only), (8, 5));

    let schedule = Schedule::new(Cycles::new(100), Cycles::new(4_000));
    let (mut seq, mut bitpar) = (sparse_r64(), sparse_r64());
    seq.prof_arm();
    bitpar.prof_arm();
    drive(&mut seq, schedule, Engine::Seq);
    drive(&mut bitpar, schedule, Engine::Bitpar);
    let counted = seq.transmit_only_cycles();
    assert_eq!(counted, bitpar.transmit_only_cycles());
    assert!(
        0 < counted.clock_only && counted.clock_only < counted.transmit_only,
        "{counted:?}"
    );
}

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
    drive(&mut reference, schedule, Engine::Reference);
    let mut skipping = build();
    let (_, skipped) = run_skipping_counted(&mut skipping, schedule);
    assert!(skipped > 1_000, "skipped {skipped}");
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

/// What an observer reads between steps: every channel's
/// [`ChannelState`] (idle, or the input, class and remaining flits
/// derived from its transmit interval), and per input its occupancy and
/// the room of every queue.
fn readings(switch: &QosSwitch) -> String {
    use std::fmt::Write as _;
    let radix = switch.config().geometry().radix();
    let mut text = String::new();
    for o in 0..radix {
        let _ = write!(text, "{:?};", switch.channel(OutputId::new(o)));
    }
    for i in 0..radix {
        let input = InputId::new(i);
        let _ = write!(text, "{}:", switch.buffered_flits(input));
        for class in TrafficClass::ALL {
            for o in 0..radix {
                let _ = write!(
                    text,
                    "{},",
                    switch.free_flits(input, class, OutputId::new(o))
                );
            }
        }
    }
    text
}

/// [`step_both`], holding the kernel's readers to the reference's after
/// every step.
fn step_reading_both(
    kernel: &mut QosSwitch,
    reference: &mut QosSwitch,
    cycles: std::ops::Range<u64>,
    mut at_cycle: impl FnMut(&mut QosSwitch, Cycle),
) {
    for c in cycles {
        let now = Cycle::new(c);
        at_cycle(kernel, now);
        at_cycle(reference, now);
        kernel.step(now);
        reference.step_reference(now);
        assert_eq!(
            readings(kernel),
            readings(reference),
            "readers at cycle {c}"
        );
    }
}

/// A radix-8 switch under `policy` with GB and BE buffers of `buffer`
/// flits, GB reservations toward output 0 for inputs 0–3, a GL
/// allocation there, and a trace ring.
fn deep_switch(policy: Policy, buffer: u64, chaining: bool, be_voq: bool) -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
        .policy(policy)
        .gb_buffer_flits(buffer)
        .be_buffer_flits(buffer)
        .packet_chaining(chaining)
        .be_voq(be_voq)
        .build()
        .expect("valid config");
    for (input, rate) in [(0, 0.3), (1, 0.2), (2, 0.2), (3, 0.1)] {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(input),
                OutputId::new(0),
                Rate::new(rate).expect("valid rate"),
                8,
            )
            .expect("reservation fits");
    }
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(0), Rate::new(0.05).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    switch.tracer_mut().attach_ring(1 << 16);
    switch
}

const DEEP_POLICIES: [Policy; 2] = [
    Policy::Ssvc(CounterPolicy::SubtractRealClock),
    Policy::FourLevel,
];

/// The pattern of `examples/two_stage_network.rs`: an external agent
/// offers a packet whenever the room reader says it fits, so offers land
/// on every cycle of a drain, in room the kernel has not yet applied.
/// `offer_packet` must settle before it checks the buffer.
#[test]
fn room_gated_offers_match_the_reference_on_every_cycle_of_a_drain() {
    for policy in DEEP_POLICIES {
        let build = || deep_switch(policy, 16, false, false);
        let (mut kernel, mut reference) = (build(), build());
        step_reading_both(&mut kernel, &mut reference, 0..2_500, |sw, now| {
            // Four backlogged GB sources of 3-, 4-, 5- and 7-flit packets
            // into output 0, and a BE one into output 2 behind them.
            let sources = [
                (0, 3, TrafficClass::GuaranteedBandwidth, 0),
                (1, 4, TrafficClass::GuaranteedBandwidth, 0),
                (2, 5, TrafficClass::GuaranteedBandwidth, 0),
                (3, 7, TrafficClass::GuaranteedBandwidth, 0),
                (3, 6, TrafficClass::BestEffort, 2),
            ];
            for (k, (i, len, class, out)) in (0..).zip(sources) {
                let (input, output) = (InputId::new(i), OutputId::new(out));
                if sw.free_flits(input, class, output) < len {
                    continue;
                }
                let id = PacketId::new(now.value() * 8 + k);
                let spec = PacketSpec::new(id, FlowId::new(input, output), class, len, now);
                assert!(sw.offer_packet(spec, now), "the room reader promised room");
            }
        });
        let c = kernel.counters();
        assert!(c.delivered_packets > 400, "{policy:?}: traffic flowed");
        assert_eq!(c.dropped_packets, 0, "{policy:?}: an offer was refused");
        assert_observables_match(
            &reference,
            &kernel,
            &format!("room-gated offers, {policy:?}"),
        );
    }
}

/// Packets of 64 flits and more: their last loop's wheel slot comes
/// round before it (65 and 130 flits), or exactly at it (64).
#[test]
fn packets_longer_than_the_completion_wheel_match_the_reference() {
    for policy in DEEP_POLICIES {
        let build = || {
            let mut switch = deep_switch(policy, 256, false, false);
            let gb = TrafficClass::GuaranteedBandwidth;
            switch.add_injector(injector(Saturating::new(65), gb, 0, 0));
            switch.add_injector(injector(Periodic::new(300, 7, 130), gb, 1, 0));
            switch.add_injector(injector(Periodic::new(170, 3, 64), gb, 2, 0));
            switch.add_injector(injector(Saturating::new(3), gb, 3, 0));
            switch.add_injector(injector(
                Periodic::new(97, 11, 1),
                TrafficClass::GuaranteedLatency,
                5,
                0,
            ));
            switch.add_injector(injector(
                Saturating::new(129),
                TrafficClass::BestEffort,
                6,
                4,
            ));
            switch
        };
        let (mut kernel, mut reference) = (build(), build());
        step_reading_both(&mut kernel, &mut reference, 0..4_000, |_, _| {});
        assert!(
            kernel.counters().delivered_flits > 3_000,
            "{policy:?}: traffic flowed"
        );
        assert_observables_match(&reference, &kernel, &format!("long packets, {policy:?}"));
    }
}

/// The measurement boundary falls in the middle of a 40-flit packet: the
/// window opens on a channel the kernel has not settled, and every
/// reading after it still equals the reference's.
#[test]
fn a_measurement_window_opened_mid_packet_matches_the_reference() {
    let build = || {
        let mut switch = deep_switch(
            Policy::Ssvc(CounterPolicy::SubtractRealClock),
            64,
            false,
            false,
        );
        let gb = TrafficClass::GuaranteedBandwidth;
        switch.add_injector(injector(Saturating::new(40), gb, 0, 0));
        switch.add_injector(injector(Periodic::new(60, 0, 40), gb, 1, 0));
        switch
    };
    let (mut kernel, mut reference) = (build(), build());
    let mut mid_packet = false;
    step_reading_both(&mut kernel, &mut reference, 0..1_000, |sw, now| {
        if now.value() == 517 {
            mid_packet |= matches!(
                sw.channel(OutputId::new(0)),
                ChannelState::Transmitting { remaining_flits, .. } if remaining_flits < 40
            );
            sw.begin_measurement(now);
        }
    });
    assert!(mid_packet, "the boundary must fall mid-packet");
    assert_eq!(
        kernel.channel(OutputId::new(0)),
        reference.channel(OutputId::new(0))
    );
    assert_observables_match(&reference, &kernel, "window opened mid-packet");
}

/// Links downed and healed while their input transmits: the packet runs
/// on, its queue drains under a frozen staging queue, and retries timed
/// before the fault still hold after it.
#[test]
fn a_link_downed_and_healed_mid_packet_matches_the_reference() {
    let build = || {
        let mut switch = deep_switch(
            Policy::Ssvc(CounterPolicy::SubtractRealClock),
            24,
            true,
            false,
        );
        let gb = TrafficClass::GuaranteedBandwidth;
        switch.add_injector(injector(Saturating::new(20), gb, 0, 0));
        switch.add_injector(injector(Bernoulli::new(0.6, 9, 5), gb, 1, 0));
        switch.add_injector(injector(Saturating::new(6), TrafficClass::BestEffort, 0, 3));
        switch
    };
    let (mut kernel, mut reference) = (build(), build());
    let mut downed_mid_packet = 0;
    step_reading_both(&mut kernel, &mut reference, 0..3_000, |sw, now| {
        let t = now.value();
        if t >= 100 && (t - 100) % 61 == 0 {
            if let ChannelState::Transmitting { input, .. } = sw.channel(OutputId::new(0)) {
                downed_mid_packet += 1;
                sw.fault_set_link(input, false, now);
            }
        }
        if t >= 100 && (t - 100) % 61 == 13 {
            for i in 0..2 {
                sw.fault_set_link(InputId::new(i), true, now);
            }
        }
    });
    assert!(
        downed_mid_packet > 60,
        "downed mid-packet {downed_mid_packet} times (both twins)"
    );
    assert_observables_match(&reference, &kernel, "links downed mid-packet");
}

/// A 7-flit queue of 4-flit packets: the head behind the one queued
/// waits on a queue whose packet is too short to make room for it, so it
/// sleeps until the queue's next packet starts — chained at the
/// completion, or granted an arbitration later.
#[test]
fn a_chained_queue_wakes_the_head_waiting_on_it() {
    for chaining in [true, false] {
        let build = || {
            let mut switch = deep_switch(
                Policy::Ssvc(CounterPolicy::SubtractRealClock),
                7,
                chaining,
                false,
            );
            let gb = TrafficClass::GuaranteedBandwidth;
            switch.add_injector(injector(Saturating::new(4), gb, 0, 0));
            switch.add_injector(injector(Saturating::new(4), gb, 1, 0));
            switch.add_injector(injector(Periodic::new(9, 2, 3), gb, 2, 0));
            switch
        };
        let (mut kernel, mut reference) = (build(), build());
        step_reading_both(&mut kernel, &mut reference, 0..2_000, |_, _| {});
        let c = kernel.counters();
        assert!(c.delivered_packets > 300, "traffic flowed");
        assert_eq!(c.chained_packets > 0, chaining, "{c:?}");
        assert!(
            kernel.injection_work().probes * 4 < reference.injection_work().probes,
            "waiting heads are probed when they fit, not every cycle"
        );
        assert_observables_match(&reference, &kernel, &format!("chaining {chaining}"));
    }
}

/// Two injectors of one input feed BE packets to two outputs: one
/// shared FIFO both wait on, or (with `be_voq`) a queue each.
#[test]
fn two_injectors_waiting_on_one_be_queue_match_the_reference() {
    for be_voq in [false, true] {
        let build = || {
            let mut switch = deep_switch(
                Policy::Ssvc(CounterPolicy::SubtractRealClock),
                10,
                false,
                be_voq,
            );
            let be = TrafficClass::BestEffort;
            switch.add_injector(injector(Saturating::new(4), be, 0, 1));
            switch.add_injector(injector(Saturating::new(3), be, 0, 2));
            // Rivals at both outputs, so each drain waits its turn.
            switch.add_injector(injector(Saturating::new(5), be, 4, 1));
            switch.add_injector(injector(Periodic::new(7, 1, 2), be, 5, 2));
            switch
        };
        let (mut kernel, mut reference) = (build(), build());
        step_reading_both(&mut kernel, &mut reference, 0..2_000, |_, _| {});
        assert!(kernel.counters().delivered_packets > 300, "traffic flowed");
        assert_observables_match(&reference, &kernel, &format!("BE waiters, be_voq {be_voq}"));
    }
}
