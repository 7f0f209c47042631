//! The waveform the VCD recorder writes over the word-wide kernel
//! (`--engine bitpar`), byte for byte against the scalar reference
//! kernel's (`QosSwitch::step_reference`).
//!
//! This is an output golden, not an observation: the recorder samples
//! every channel's remaining flits and every input's occupancy after
//! each step, through the kernel's settle-aware readers, while the
//! kernel applies a packet's flits in one batch and the reference moves
//! them one flit per channel per cycle. The engine battery, every engine
//! against the reference on every scenario family, is
//! `tests/kernel_conformance.rs`.

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::vcd::SwitchVcdRecorder;
use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig};
use swizzle_qos::sim::CycleModel;
use swizzle_qos::traffic::{Bernoulli, FixedDest, Injector, Periodic, Saturating, TrafficSource};
use swizzle_qos::types::{Cycle, Geometry, InputId, OutputId, Rate, TrafficClass};

fn injector(
    source: impl TrafficSource + Send + Sync + 'static,
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

/// A radix-8 SSVC switch with chained 48-flit GB and BE buffers, GB
/// reservations toward output 0 for inputs 0–3 and a GL allocation
/// there, fed by saturating, Bernoulli, best-effort and periodic GL
/// sources.
fn waveform_switch() -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(48)
        .be_buffer_flits(48)
        .packet_chaining(true)
        .be_voq(false)
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
    let gb = TrafficClass::GuaranteedBandwidth;
    switch.add_injector(injector(Saturating::new(13), gb, 0, 0));
    switch.add_injector(injector(Bernoulli::new(0.5, 6, 17), gb, 1, 0));
    switch.add_injector(injector(Saturating::new(9), TrafficClass::BestEffort, 2, 5));
    switch.add_injector(injector(
        Periodic::new(40, 4, 1),
        TrafficClass::GuaranteedLatency,
        6,
        0,
    ));
    switch
}

/// The waveform samples every channel's remaining flits and every
/// input's occupancy after each step, so it must read what the
/// reference moved flit by flit.
#[test]
fn the_kernel_s_waveform_is_byte_identical_to_the_reference_s() {
    let waveform = |reference: bool| {
        let mut switch = waveform_switch();
        let mut out = Vec::new();
        {
            let mut vcd = SwitchVcdRecorder::new(&mut out, &switch).expect("in-memory sink");
            for c in 0..1_500 {
                let now = Cycle::new(c);
                if reference {
                    switch.step_reference(now);
                } else {
                    switch.step(now);
                }
                vcd.sample(&switch, now).expect("in-memory sink");
            }
            vcd.flush().expect("in-memory sink");
        }
        String::from_utf8(out).expect("VCD is text")
    };
    let (kernel, reference) = (waveform(false), waveform(true));
    assert!(kernel.len() > 10_000, "the waveform moves");
    assert!(
        kernel == reference,
        "the kernel's waveform differs from the reference's"
    );
}
