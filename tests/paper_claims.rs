//! Integration tests pinning the paper's headline claims end to end
//! through the facade API.

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig};
use swizzle_qos::physical::{AreaModel, DelayModel, StorageModel};
use swizzle_qos::sim::{Runner, Schedule};
use swizzle_qos::traffic::{FixedDest, Injector, Periodic, Saturating};
use swizzle_qos::types::bounds::{gl_burst_budgets, gl_latency_bound};
use swizzle_qos::types::{Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

const FIG4_RATES: [f64; 8] = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];

fn fig4_switch(policy: Policy) -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(8, 128).unwrap())
        .policy(policy)
        .gb_buffer_flits(16)
        .sig_bits(4)
        .build()
        .unwrap();
    for (i, &r) in FIG4_RATES.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(InputId::new(i), OutputId::new(0), Rate::new(r).unwrap(), 8)
            .unwrap();
    }
    let mut switch = QosSwitch::new(config).unwrap();
    for i in 0..8 {
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

fn run(switch: &mut QosSwitch) -> Cycle {
    Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(50_000))).run(switch)
}

fn throughput(switch: &QosSwitch, input: usize, end: Cycle) -> f64 {
    switch
        .gb_metrics()
        .flow(FlowId::new(InputId::new(input), OutputId::new(0)))
        .throughput(end)
}

/// Fig. 4(a): "Without QoS, the switch performs LRG arbitration among
/// the inputs. During congestion all flows receive an equal share."
#[test]
fn fig4a_lrg_equalizes_congested_flows() {
    let mut switch = fig4_switch(Policy::LrgOnly);
    let end = run(&mut switch);
    let equal = 8.0 / 9.0 / 8.0;
    for i in 0..8 {
        let t = throughput(&switch, i, end);
        assert!((t - equal).abs() < 0.01, "flow {i}: {t:.3} vs {equal:.3}");
    }
}

/// Fig. 4(b): "With QoS, all inputs get at least their reserved rate of
/// bandwidth during congestion."
#[test]
fn fig4b_ssvc_delivers_reserved_rates() {
    let mut switch = fig4_switch(Policy::Ssvc(CounterPolicy::SubtractRealClock));
    let end = run(&mut switch);
    let capacity = 8.0 / 9.0;
    for (i, &r) in FIG4_RATES.iter().enumerate() {
        let t = throughput(&switch, i, end);
        assert!(
            t >= r * capacity - 0.02,
            "flow {i} below reservation: {t:.3} < {:.3}",
            r * capacity
        );
    }
}

/// Fig. 4: "The maximum possible throughput is 0.89 flits/cycle because
/// this experiment uses 8-flit packet sizes."
#[test]
fn throughput_ceiling_is_0_89() {
    let mut switch = fig4_switch(Policy::Ssvc(CounterPolicy::SubtractRealClock));
    let end = run(&mut switch);
    let total = switch.output_throughput(OutputId::new(0), end);
    assert!((total - 8.0 / 9.0).abs() < 0.005, "total {total:.4}");
}

/// §4.3: SSVC improves the latency of low-allocation flows over the
/// original Virtual Clock, and the decrease "comes with a sacrifice: the
/// increase in latency for flows with larger allocations" (halve/reset).
#[test]
fn fig5_coarse_counters_improve_low_allocation_latency() {
    use swizzle_qos::traffic::Bernoulli;
    let run_policy = |policy| {
        let mut config = SwitchConfig::builder(Geometry::new(8, 128).unwrap())
            .policy(policy)
            .gb_buffer_flits(16)
            .sig_bits(4)
            .build()
            .unwrap();
        for (i, &r) in FIG4_RATES.iter().enumerate() {
            config
                .reservations_mut()
                .reserve_gb(InputId::new(i), OutputId::new(0), Rate::new(r).unwrap(), 8)
                .unwrap();
        }
        let mut switch = QosSwitch::new(config).unwrap();
        for (i, &r) in FIG4_RATES.iter().enumerate() {
            switch.add_injector(
                Injector::new(
                    Box::new(Bernoulli::new(0.85 * r, 8, 90 + i as u64)),
                    Box::new(FixedDest::new(OutputId::new(0))),
                    TrafficClass::GuaranteedBandwidth,
                )
                .for_input(InputId::new(i)),
            );
        }
        let _ =
            Runner::new(Schedule::new(Cycles::new(10_000), Cycles::new(80_000))).run(&mut switch);
        // Mean latency of the four 5% flows.
        (4..8)
            .map(|i| {
                switch
                    .gb_metrics()
                    .flow(FlowId::new(InputId::new(i), OutputId::new(0)))
                    .mean_latency()
            })
            .sum::<f64>()
            / 4.0
    };
    let original = run_policy(Policy::ExactVirtualClock);
    let subtract = run_policy(Policy::Ssvc(CounterPolicy::SubtractRealClock));
    let halve = run_policy(Policy::Ssvc(CounterPolicy::Halve));
    let reset = run_policy(Policy::Ssvc(CounterPolicy::Reset));
    assert!(
        subtract < original,
        "SSVC ({subtract:.1}) must beat original VC ({original:.1}) for 5% flows"
    );
    assert!(
        halve < subtract,
        "halve {halve:.1} vs subtract {subtract:.1}"
    );
    assert!(
        reset < subtract,
        "reset {reset:.1} vs subtract {subtract:.1}"
    );
}

/// §3.2: GL packets preempt GB traffic and arrive within Eq. 1's bound.
#[test]
fn gl_class_bound_holds_over_saturated_background() {
    let mut config = SwitchConfig::builder(Geometry::new(8, 128).unwrap())
        .gb_buffer_flits(16)
        .gl_buffer_flits(4)
        .sig_bits(4)
        .build()
        .unwrap();
    for i in 0..6 {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(0),
                Rate::new(0.15).unwrap(),
                8,
            )
            .unwrap();
    }
    config
        .reservations_mut()
        .reserve_gl(OutputId::new(0), Rate::new(0.1).unwrap())
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    for i in 0..6 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    for i in 6..8 {
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(83, i as u64, 1)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(i)),
        );
    }
    let _ = run(&mut switch);
    let bound = gl_latency_bound(8, 1, 2, 4);
    let measured = switch
        .gl_wait_histogram(OutputId::new(0))
        .max()
        .expect("GL packets flowed");
    assert!(measured <= bound, "wait {measured} > bound {bound}");
}

/// §3.4's worked-example shapes for the burst budgets.
#[test]
fn burst_budget_worked_examples() {
    assert_eq!(gl_burst_budgets(&[101], 1), vec![50]);
    assert_eq!(gl_burst_budgets(&[201; 8], 1)[0], 12);
}

/// Table 1's bottom line: about 1 MB of storage for the largest switch.
#[test]
fn table1_total_storage() {
    let m = StorageModel::paper_table1();
    assert_eq!(m.total_bytes() / 1024, 1101);
}

/// §4.5's two calibration anchors and the ≤2% / ≤8.4% envelopes.
#[test]
fn physical_overheads_match_the_paper() {
    let delay = DelayModel::calibrated_32nm();
    assert!((delay.ss_frequency_ghz(64, 128) - 1.5).abs() < 0.01);
    let worst = [8usize, 16, 32, 64]
        .iter()
        .flat_map(|&r| [128usize, 256, 512].map(|w| delay.slowdown(r, w)))
        .fold(0.0f64, f64::max);
    assert!((worst - 0.084).abs() < 1e-9, "worst slowdown {worst}");

    let area = AreaModel::new();
    assert!(area.overhead_fraction(128) <= 0.024);
    assert_eq!(area.overhead_fraction(512), 0.0);
}

/// §4.4: the QoS technique scales to 64 nodes with a 256-bit bus, and no
/// further ("while not scalable beyond 64 nodes").
#[test]
fn scalability_envelope() {
    assert!(Geometry::new(64, 256).unwrap().supports_classes(3));
    assert!(!Geometry::new(64, 128).unwrap().supports_classes(3));
    for radix in [8, 16, 32] {
        assert!(Geometry::new(radix, 128).unwrap().supports_classes(3));
    }
}
