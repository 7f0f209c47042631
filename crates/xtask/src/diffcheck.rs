//! Inline engine differential battery for `xtask verify`.
//!
//! The fast verify tier model-checks the switch's invariants; this
//! battery checks the *engines* against the scalar reference kernel
//! (`QosSwitch::step_reference`). The engines share one mask-native
//! decide/commit kernel, so they are not each other's oracle; the
//! reference path probes queue heads and arbitrates over request slices.
//! Each scenario builds the same switch several times and drives the
//! copies with the reference loop, the sequential [`Runner`], the
//! sharded [`ParRunner`] at several thread counts, and
//! [`Runner::run_skipping`], then compares every observable: the aggregate
//! counters, the per-flow metrics table (as CSV bytes), and the full
//! event trace. Any difference is a verify failure — the engines'
//! contract is bit-exactness, not statistical agreement.

use std::fmt::Write as _;

use ssq_arbiter::CounterPolicy;
use ssq_core::{Policy, QosSwitch, ReferenceKernel, SwitchConfig, SwitchCounters};
use ssq_sim::{ParRunner, Runner, Schedule};
use ssq_trace::{Event, RingSink};
use ssq_traffic::{Bernoulli, FixedDest, Injector, Periodic, Saturating, UniformDest};
use ssq_types::{Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

/// Warm-up cycles per battery scenario.
const WARMUP: u64 = 200;
/// Measured cycles per battery scenario.
const MEASURE: u64 = 2_000;
/// Thread counts the parallel engine is held to.
const THREADS: &[usize] = &[1, 2, 4];

/// Battery switches are all 8x8.
const RADIX: usize = 8;

/// One engine run's complete observable state.
struct Observation {
    counters: SwitchCounters,
    metrics_csv: String,
    events: Vec<Event>,
}

/// A battery scenario: `(name, builder)`.
type Scenario = (&'static str, fn() -> QosSwitch);

fn scenarios() -> Vec<Scenario> {
    vec![
        ("lrg-uniform-be", lrg_uniform_be),
        ("ssvc-subtract-saturated-gb", ssvc_subtract_saturated_gb),
        ("ssvc-halve-gb-be-mix", ssvc_halve_gb_be_mix),
        ("ssvc-reset-three-class", ssvc_reset_three_class),
        ("four-level-contended", four_level_contended),
        (
            "ssvc-fabric-checked-policed-gl",
            ssvc_fabric_checked_policed_gl,
        ),
        ("ssvc-demoted-gl-lrg-fallback", ssvc_demoted_gl_lrg_fallback),
        ("wfq-three-class", wfq_three_class),
    ]
}

fn base_config(policy: Policy) -> SwitchConfig {
    checked_config(policy, false)
}

/// [`base_config`], optionally with the inhibit-fabric cross-check and
/// the GL policer on.
fn checked_config(policy: Policy, checked_and_policed: bool) -> SwitchConfig {
    SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
        .policy(policy)
        .gb_buffer_flits(16)
        .sig_bits(3)
        .fabric_checked(checked_and_policed)
        .gl_policing(checked_and_policed)
        .build()
        .expect("valid config")
}

fn reserve(config: &mut SwitchConfig, rates: &[f64]) {
    for (i, &r) in rates.iter().enumerate() {
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
}

fn lrg_uniform_be() -> QosSwitch {
    let config = base_config(Policy::LrgOnly);
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..8 {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.6, 4, 200 + i as u64)),
                Box::new(UniformDest::new(8, 300 + i as u64)),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

fn ssvc_subtract_saturated_gb() -> QosSwitch {
    let mut config = base_config(Policy::Ssvc(CounterPolicy::SubtractRealClock));
    reserve(&mut config, &[0.4, 0.3, 0.2]);
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..3 {
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

fn ssvc_halve_gb_be_mix() -> QosSwitch {
    let mut config = base_config(Policy::Ssvc(CounterPolicy::Halve));
    reserve(&mut config, &[0.5, 0.25]);
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..2 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    for i in 2..6 {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.4, 4, 500 + i as u64)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

fn ssvc_reset_three_class() -> QosSwitch {
    three_class(base_config(Policy::Ssvc(CounterPolicy::Reset)), 100)
}

/// Every arbitration cross-checked against the inhibit fabric, with a
/// GL flow busy enough to trip its policer (policed GL below GB).
fn ssvc_fabric_checked_policed_gl() -> QosSwitch {
    three_class(
        checked_config(Policy::Ssvc(CounterPolicy::SubtractRealClock), true),
        2,
    )
}

/// Both degraded modes at once: GL competes inside the GB round, which
/// runs on the pure-LRG fallback.
fn ssvc_demoted_gl_lrg_fallback() -> QosSwitch {
    let mut switch = three_class(base_config(Policy::Ssvc(CounterPolicy::Halve)), 60);
    switch.fault_demote_gl(OutputId::new(0), Cycle::ZERO);
    switch.fault_degrade_to_lrg(OutputId::new(0), Cycle::ZERO);
    switch
}

/// A slice-protocol baseline: reaches the kernel through the stack
/// request buffer.
fn wfq_three_class() -> QosSwitch {
    three_class(base_config(Policy::Wfq), 100)
}

/// Two saturating GB flows, a periodic GL flow and a BE flow, all at
/// output 0.
fn three_class(mut config: SwitchConfig, gl_interval: u64) -> QosSwitch {
    reserve(&mut config, &[0.4, 0.3]);
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(0), Rate::new(0.05).expect("valid rate"))
        .expect("GL reservation fits");
    let mut switch = QosSwitch::new(config).expect("valid");
    for i in 0..2 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch.add_injector(
        Injector::new(
            Box::new(Periodic::new(gl_interval, 0, 1)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::GuaranteedLatency,
        )
        .for_input(InputId::new(7)),
    );
    switch.add_injector(
        Injector::new(
            Box::new(Bernoulli::new(0.5, 2, 900)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::BestEffort,
        )
        .for_input(InputId::new(4)),
    );
    switch
}

fn four_level_contended() -> QosSwitch {
    let mut config = base_config(Policy::FourLevel);
    reserve(&mut config, &[0.3, 0.3]);
    let mut switch = QosSwitch::new(config).expect("valid");
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
    for i in 2..5 {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.5, 4, 700 + i as u64)),
                Box::new(UniformDest::new(8, 800 + i as u64)),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

/// Serializes every per-flow metric across all three classes to exact
/// CSV: integer counters verbatim and latencies as `f64` bit patterns,
/// so two runs compare bit-for-bit with no formatting slack.
fn metrics_csv(switch: &QosSwitch) -> String {
    let mut csv = String::from("flow,class,packets,flits,mean_bits,max\n");
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
        metrics_csv: metrics_csv(switch),
        events: switch
            .tracer()
            .ring()
            .map(RingSink::events)
            .unwrap_or_default(),
    }
}

/// The oracle run: the battery schedule stepped densely on the scalar
/// reference kernel.
fn run_reference(build: fn() -> QosSwitch) -> Observation {
    let mut switch = build();
    switch.tracer_mut().attach_ring(1 << 16);
    Runner::new(Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)))
        .run(&mut ReferenceKernel(&mut switch));
    observe(&switch)
}

fn run_sequential(build: fn() -> QosSwitch) -> Observation {
    let mut switch = build();
    switch.tracer_mut().attach_ring(1 << 16);
    Runner::new(Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE))).run(&mut switch);
    observe(&switch)
}

fn run_parallel(build: fn() -> QosSwitch, threads: usize) -> Observation {
    let mut switch = build();
    switch.tracer_mut().attach_ring(1 << 16);
    ParRunner::new(
        Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)),
        threads,
    )
    .run(&mut switch);
    observe(&switch)
}

fn run_bitpar(build: fn() -> QosSwitch) -> Observation {
    let mut switch = build();
    switch.tracer_mut().attach_ring(1 << 16);
    Runner::new(Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE))).run_skipping(&mut switch);
    observe(&switch)
}

/// Compares an engine's observation with the reference's; `None` when
/// identical, else what differed.
fn diff(reference: &Observation, engine: &Observation) -> Option<String> {
    if reference.counters != engine.counters {
        return Some(format!(
            "counters differ: {:?} vs {:?}",
            reference.counters, engine.counters
        ));
    }
    if reference.metrics_csv != engine.metrics_csv {
        return Some("per-flow metrics CSV differs".to_string());
    }
    if reference.events != engine.events {
        let first = reference
            .events
            .iter()
            .zip(engine.events.iter())
            .position(|(a, b)| a != b);
        return Some(format!(
            "event traces differ ({} vs {} events, first divergence at {:?})",
            reference.events.len(),
            engine.events.len(),
            first
        ));
    }
    None
}

/// The battery's outcome: per-scenario report lines for the caller to
/// print, and a failure description per diverging run (empty = clean).
pub struct DiffReport {
    /// One human-readable line per scenario, in battery order.
    pub lines: Vec<String>,
    /// One entry per `(scenario, thread count)` that diverged.
    pub failures: Vec<String>,
}

/// Runs every scenario through the reference kernel and all three
/// engines (the sharded one at each of [`THREADS`]).
#[must_use]
pub fn run_battery() -> DiffReport {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    for (name, build) in scenarios() {
        let reference = run_reference(build);
        if let Some(what) = diff(&reference, &run_sequential(build)) {
            failures.push(format!("{name} @ seq: {what}"));
        }
        for &threads in THREADS {
            if let Some(what) = diff(&reference, &run_parallel(build, threads)) {
                failures.push(format!("{name} @ {threads} threads: {what}"));
            }
        }
        if let Some(what) = diff(&reference, &run_bitpar(build)) {
            failures.push(format!("{name} @ bitpar: {what}"));
        }
        lines.push(format!(
            "verify[diff] {:<30} {:>7} events {:>8} flits  reference == seq == par @ {THREADS:?} threads == bitpar",
            name,
            reference.events.len(),
            reference.counters.delivered_flits,
        ));
    }
    DiffReport { lines, failures }
}
