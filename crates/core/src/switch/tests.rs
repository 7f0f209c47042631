//! Unit tests of the switch model.

use super::*;
use ssq_sim::{CycleModel, Runner, Schedule};
use ssq_trace::{Event, EventKind, RejectReason};
use ssq_traffic::{Bernoulli, FixedDest, Injector, Periodic, Saturating, Trace};
use ssq_types::{Cycles, Geometry};

fn geometry() -> Geometry {
    Geometry::new(8, 128).unwrap()
}

fn out0() -> OutputId {
    OutputId::new(0)
}

fn saturating_gb_switch(policy: Policy, rates: &[f64]) -> QosSwitch {
    let mut config = SwitchConfig::builder(geometry())
        .policy(policy)
        .gb_buffer_flits(16)
        .sig_bits(4)
        .build()
        .unwrap();
    for (i, &r) in rates.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(InputId::new(i), out0(), Rate::new(r).unwrap(), 8)
            .unwrap();
    }
    let mut switch = QosSwitch::new(config).unwrap();
    for i in 0..rates.len() {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

const FIG4_RATES: [f64; 8] = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];

#[test]
fn ssvc_enforces_reserved_rates_under_saturation() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &FIG4_RATES,
    );
    let end = Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(50_000))).run(&mut switch);
    // Peak deliverable bandwidth is 8/9; each flow should receive its
    // reserved fraction of it ("within 2% of their reserved rates").
    let capacity = 8.0 / 9.0;
    for (i, &rate) in FIG4_RATES.iter().enumerate() {
        let flow = FlowId::new(InputId::new(i), out0());
        let got = switch.gb_metrics().flow(flow).throughput(end);
        let want = rate * capacity;
        assert!(
            (got - want).abs() < 0.02,
            "flow {i}: got {got:.3} want {want:.3}"
        );
    }
}

#[test]
fn lrg_splits_bandwidth_equally() {
    let mut switch = saturating_gb_switch(Policy::LrgOnly, &FIG4_RATES);
    let end = Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(50_000))).run(&mut switch);
    let per_flow = 8.0 / 9.0 / 8.0;
    for i in 0..8 {
        let flow = FlowId::new(InputId::new(i), out0());
        let got = switch.gb_metrics().flow(flow).throughput(end);
        assert!(
            (got - per_flow).abs() < 0.02,
            "flow {i}: got {got:.3} want {per_flow:.3}"
        );
    }
}

#[test]
fn throughput_ceiling_is_l_over_l_plus_one() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &FIG4_RATES,
    );
    let end = Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(20_000))).run(&mut switch);
    let total = switch.output_throughput(out0(), end);
    assert!(
        (total - 8.0 / 9.0).abs() < 0.01,
        "saturated output delivered {total:.3} flits/cycle"
    );
}

#[test]
fn gl_packets_preempt_gb_traffic() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &FIG4_RATES[..7],
    );
    // Input 7 sends an occasional 1-flit GL interrupt.
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
    let _ = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000))).run(&mut switch);
    let gl_flow = FlowId::new(InputId::new(7), out0());
    let m = switch.gl_metrics().flow(gl_flow);
    assert!(m.packets() >= 35, "GL packets delivered: {}", m.packets());
    // Against a fully saturated GB background, a lone 1-flit GL packet
    // waits at most for channel release (8 flits) + its arbitration.
    let max_wait = switch.gl_wait_histogram(out0()).max().unwrap();
    assert!(max_wait <= 10, "GL waited {max_wait} cycles");
}

#[test]
fn gl_wait_respects_eq1_bound() {
    let n_gl = 4;
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &FIG4_RATES[..4],
    );
    switch
        .config
        .reservations_mut()
        .reserve_gl(out0(), Rate::new(0.1).unwrap())
        .unwrap();
    // Four GL injectors with colliding bursts of 1-flit packets.
    for i in 4..8 {
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(97, (i as u64 - 4) % 2, 1)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(i)),
        );
    }
    let _ = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(40_000))).run(&mut switch);
    let bound = ssq_types::bounds::gl_latency_bound(
        8, // l_max: GB packets are 8 flits
        1,
        n_gl,
        switch.config().gl_buffer_flits(),
    );
    let measured = switch.gl_wait_histogram(out0()).max().unwrap();
    assert!(
        measured <= bound,
        "measured GL wait {measured} exceeds Eq. 1 bound {bound}"
    );
}

#[test]
fn unreserved_gb_flows_are_demoted_to_best_effort() {
    let config = SwitchConfig::builder(geometry())
        .gb_buffer_flits(16)
        .build()
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    switch.add_injector(
        Injector::new(
            Box::new(Bernoulli::new(0.2, 4, 3)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(2)),
    );
    let end = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(10_000))).run(&mut switch);
    assert!(switch.counters().demoted_packets > 0);
    let flow = FlowId::new(InputId::new(2), out0());
    assert_eq!(switch.gb_metrics().flow(flow).packets(), 0);
    assert!(switch.be_metrics().flow(flow).throughput(end) > 0.1);
}

#[test]
fn best_effort_gets_leftover_bandwidth_only() {
    let mut config = SwitchConfig::builder(geometry())
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .build()
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(InputId::new(0), out0(), Rate::new(0.9).unwrap(), 8)
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    // The GB flow reserves 90% but only offers ~0.45 flits/cycle;
    // Virtual Clock is work-conserving, so BE scavenges the idle
    // slots instead of the channel sitting reserved-but-unused (the
    // §2.2 advantage over strict TDM).
    switch.add_injector(
        Injector::new(
            Box::new(Bernoulli::new(0.45, 8, 17)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(0)),
    );
    switch.add_injector(
        Injector::new(
            Box::new(Saturating::new(8)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::BestEffort,
        )
        .for_input(InputId::new(1)),
    );
    let end = Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(30_000))).run(&mut switch);
    let gb = switch
        .gb_metrics()
        .flow(FlowId::new(InputId::new(0), out0()))
        .throughput(end);
    let be = switch
        .be_metrics()
        .flow(FlowId::new(InputId::new(1), out0()))
        .throughput(end);
    // GB gets its full demand; BE absorbs the leftover capacity.
    assert!((gb - 0.45).abs() < 0.03, "GB got {gb:.3}");
    assert!(be > 0.3, "BE got {be:.3}");
    // Together they keep the channel near its ceiling.
    assert!(gb + be > 0.8, "total {:.3}", gb + be);
}

#[test]
fn inputs_never_feed_two_outputs_at_once() {
    // One input saturates two outputs; total delivered from that input
    // cannot exceed one flit/cycle (its input channel width).
    let mut config = SwitchConfig::builder(geometry())
        .gb_buffer_flits(32)
        .build()
        .unwrap();
    for o in 0..2 {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(0),
                OutputId::new(o),
                Rate::new(1.0).unwrap(),
                8,
            )
            .unwrap();
    }
    let mut switch = QosSwitch::new(config).unwrap();
    for o in 0..2 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(o))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
    }
    let end = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000))).run(&mut switch);
    let total: f64 = (0..2)
        .map(|o| {
            switch
                .gb_metrics()
                .flow(FlowId::new(InputId::new(0), OutputId::new(o)))
                .throughput(end)
        })
        .sum();
    assert!(total <= 1.0 + 1e-9, "input oversubscribed: {total:.3}");
    assert!(total > 0.85, "input underutilized: {total:.3}");
}

#[test]
fn four_level_pays_two_arbitration_cycles() {
    // Single saturating flow: per-packet slot is len + 2 with the
    // 4-level scheme, so throughput tops out at 8/10.
    let mut config = SwitchConfig::builder(geometry())
        .policy(Policy::FourLevel)
        .gb_buffer_flits(16)
        .build()
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(InputId::new(0), out0(), Rate::new(1.0).unwrap(), 8)
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    switch.add_injector(
        Injector::new(
            Box::new(Saturating::new(8)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(0)),
    );
    let end = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000))).run(&mut switch);
    let got = switch.output_throughput(out0(), end);
    assert!((got - 0.8).abs() < 0.01, "got {got:.3}, want 0.8");
}

#[test]
fn delivery_conservation_offered_accepted_delivered() {
    let mut switch =
        saturating_gb_switch(Policy::Ssvc(ssq_arbiter::CounterPolicy::Reset), &FIG4_RATES);
    let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(10_000))).run(&mut switch);
    let c = switch.counters();
    assert!(c.accepted_packets <= c.offered_packets);
    assert!(c.delivered_packets <= c.accepted_packets);
    assert_eq!(
        c.delivered_packets,
        switch.gb_metrics().total_packets()
            + switch.be_metrics().total_packets()
            + switch.gl_metrics().total_packets()
    );
    assert!(c.delivered_packets > 0);
}

#[test]
fn trace_injection_is_exact() {
    let config = SwitchConfig::builder(geometry()).build().unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    switch.add_injector(
        Injector::new(
            Box::new(Trace::new(vec![(10, 4), (100, 4)])),
            Box::new(FixedDest::new(out0())),
            TrafficClass::BestEffort,
        )
        .for_input(InputId::new(5)),
    );
    let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(200))).run(&mut switch);
    let flow = FlowId::new(InputId::new(5), out0());
    assert_eq!(switch.be_metrics().flow(flow).packets(), 2);
    // Uncongested: arbitration in the creation cycle, then 4 flit
    // cycles; latency = delivery cycle − creation cycle = 4.
    assert_eq!(switch.be_metrics().flow(flow).max_latency(), Some(4));
}

/// A trace whose next event's cycle has passed could deliver nothing:
/// it is refused, not silenced.
#[test]
#[should_panic(expected = "injector added at cycle 20: its next packet was due at cycle 10")]
fn a_trace_added_after_its_next_event_is_refused() {
    let config = SwitchConfig::builder(geometry()).build().unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    for c in 0..20 {
        switch.step(Cycle::new(c));
    }
    switch.add_injector(
        Injector::new(
            Box::new(Trace::new(vec![(10, 4), (100, 4)])),
            Box::new(FixedDest::new(out0())),
            TrafficClass::BestEffort,
        )
        .for_input(InputId::new(5)),
    );
    for c in 20..200 {
        switch.step(Cycle::new(c));
    }
}

#[test]
fn measurement_window_resets_statistics() {
    let mut switch = saturating_gb_switch(Policy::LrgOnly, &FIG4_RATES);
    let _ = Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(100))).run(&mut switch);
    // Counters reflect only the measurement window, not warm-up.
    let c = switch.counters();
    assert!(c.offered_packets <= 8 * 100);
}

#[test]
fn offer_packet_bypasses_staging_and_counts() {
    use ssq_types::{PacketId, PacketSpec};
    let config = SwitchConfig::builder(geometry())
        .be_buffer_flits(8)
        .build()
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    switch.set_delivery_log(true);
    let spec = PacketSpec::new(
        PacketId::new(42),
        FlowId::new(InputId::new(3), out0()),
        TrafficClass::BestEffort,
        4,
        Cycle::ZERO,
    );
    assert!(switch.offer_packet(spec, Cycle::ZERO));
    // A second 8-flit packet does not fit the 8-flit buffer with 4
    // already queued.
    let big = PacketSpec::new(
        PacketId::new(43),
        FlowId::new(InputId::new(3), out0()),
        TrafficClass::BestEffort,
        8,
        Cycle::ZERO,
    );
    assert!(!switch.offer_packet(big, Cycle::ZERO));
    let c = switch.counters();
    assert_eq!(c.offered_packets, 2);
    assert_eq!(c.accepted_packets, 1);
    assert_eq!(c.dropped_packets, 1);
    // Drive to delivery and observe the log.
    for step in 0..20u64 {
        switch.step(Cycle::new(step));
    }
    let deliveries = switch.drain_deliveries();
    assert_eq!(deliveries.len(), 1);
    assert_eq!(deliveries[0].1.id(), PacketId::new(42));
    assert!(switch.drain_deliveries().is_empty(), "drain consumes");
}

#[test]
fn delivery_log_is_off_by_default() {
    let mut switch = saturating_gb_switch(Policy::LrgOnly, &FIG4_RATES[..2]);
    let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(1_000))).run(&mut switch);
    assert!(switch.counters().delivered_packets > 0);
    assert!(switch.drain_deliveries().is_empty());
}

/// Live QoS renegotiation: halving one flow's reservation mid-run
/// shifts its steady-state share accordingly, with no switch rebuild.
#[test]
fn live_reservation_update_takes_effect() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &[0.5, 0.5],
    );
    // Phase 1: 50/50.
    let end1 = Runner::new(Schedule::new(Cycles::new(3_000), Cycles::new(30_000))).run(&mut switch);
    let t0_before = switch
        .gb_metrics()
        .flow(FlowId::new(InputId::new(0), out0()))
        .throughput(end1);
    assert!((t0_before - 0.5 * 8.0 / 9.0).abs() < 0.02);

    // Renegotiate to 20/80 and measure a fresh window.
    switch
        .update_gb_reservation(InputId::new(0), out0(), Rate::new(0.2).unwrap(), 8)
        .unwrap();
    switch
        .update_gb_reservation(InputId::new(1), out0(), Rate::new(0.8).unwrap(), 8)
        .unwrap();
    let mut now = end1;
    // Settle, then measure.
    for _ in 0..5_000u64 {
        switch.step(now);
        now = now.next();
    }
    switch.begin_measurement(now);
    let start = now;
    for _ in 0..30_000u64 {
        switch.step(now);
        now = now.next();
    }
    let _ = start;
    let t0_after = switch
        .gb_metrics()
        .flow(FlowId::new(InputId::new(0), out0()))
        .throughput(now);
    let t1_after = switch
        .gb_metrics()
        .flow(FlowId::new(InputId::new(1), out0()))
        .throughput(now);
    assert!(
        (t0_after - 0.2 * 8.0 / 9.0).abs() < 0.03,
        "flow 0 after renegotiation: {t0_after:.3}"
    );
    assert!(
        (t1_after - 0.8 * 8.0 / 9.0).abs() < 0.03,
        "flow 1 after renegotiation: {t1_after:.3}"
    );
}

/// Renegotiation respects the output budget.
#[test]
fn live_reservation_update_validates_budget() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &[0.5, 0.5],
    );
    let err = switch
        .update_gb_reservation(InputId::new(0), out0(), Rate::new(0.6).unwrap(), 8)
        .unwrap_err();
    assert!(matches!(err, ConfigError::Oversubscribed { .. }));
    // The failed update must not have touched the Vtick.
    let end = Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(20_000))).run(&mut switch);
    let t0 = switch
        .gb_metrics()
        .flow(FlowId::new(InputId::new(0), out0()))
        .throughput(end);
    assert!((t0 - 0.5 * 8.0 / 9.0).abs() < 0.02, "state leaked: {t0:.3}");
}

/// Staging-queue overflow is counted as drops, never as memory growth.
#[test]
fn staging_overflow_counts_drops() {
    // One saturating 1-flit flow into a 1-flit buffer: the staging
    // queue (64 packets) fills, after which new offers drop.
    let mut config = SwitchConfig::builder(geometry())
        .gb_buffer_flits(1)
        .build()
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(InputId::new(0), out0(), Rate::new(0.1).unwrap(), 1)
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    switch.add_injector(
        Injector::new(
            Box::new(Saturating::new(1)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(0)),
    );
    let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(5_000))).run(&mut switch);
    let c = switch.counters();
    assert!(c.dropped_packets > 0, "saturation must overflow staging");
    assert_eq!(c.offered_packets, 5_000);
    // Nothing vanishes: offered = dropped + accepted + still staged.
    assert!(c.accepted_packets + c.dropped_packets <= c.offered_packets);
    assert!(c.offered_packets - c.accepted_packets - c.dropped_packets <= 64);
}

/// The chain limit is enforced exactly: a lone saturated 1-flit flow
/// chains CHAIN_LIMIT packets per arbitration, no more.
#[test]
fn chain_limit_is_exact() {
    let mut config = SwitchConfig::builder(geometry())
        .gb_buffer_flits(16)
        .packet_chaining(true)
        .build()
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(InputId::new(0), out0(), Rate::new(1.0).unwrap(), 1)
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    switch.add_injector(
        Injector::new(
            Box::new(Saturating::new(1)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(0)),
    );
    let _ = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(30_000))).run(&mut switch);
    let c = switch.counters();
    let arbitrated = c.delivered_packets - c.chained_packets;
    // Steady state: per arbitration, exactly CHAIN_LIMIT chains.
    let ratio = c.chained_packets as f64 / arbitrated as f64;
    assert!(
        (ratio - f64::from(SwitchConfig::CHAIN_LIMIT)).abs() < 0.1,
        "chain ratio {ratio:.2} vs limit {}",
        SwitchConfig::CHAIN_LIMIT
    );
}

/// BE virtual output queues eliminate head-of-line blocking: with
/// uniform BE traffic on a 4x4 switch, the shared FIFO saturates well
/// below the VOQ organization.
#[test]
fn be_voq_removes_head_of_line_blocking() {
    use ssq_traffic::UniformDest;
    let run = |voq: bool| {
        let geometry = Geometry::new(4, 128).unwrap();
        let config = SwitchConfig::builder(geometry)
            .policy(Policy::LrgOnly)
            .be_buffer_flits(16)
            .be_voq(voq)
            .build()
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        for i in 0..4 {
            switch.add_injector(
                Injector::new(
                    Box::new(Saturating::new(4)),
                    Box::new(UniformDest::new(4, 900 + i as u64)),
                    TrafficClass::BestEffort,
                )
                .for_input(InputId::new(i)),
            );
        }
        let end =
            Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(30_000))).run(&mut switch);
        (0..4)
            .map(|o| switch.output_throughput(OutputId::new(o), end))
            .sum::<f64>()
            / 4.0
    };
    let fifo = run(false);
    let voq = run(true);
    // Classic input-queued result: a shared FIFO tops out near ~60%
    // of capacity under uniform traffic; VOQs recover most of it.
    assert!(fifo < 0.62, "shared FIFO unexpectedly fast: {fifo:.3}");
    assert!(voq > fifo + 0.1, "VOQ gain missing: {fifo:.3} -> {voq:.3}");
}

/// Input `i`'s bit in output `o`'s `class` request row.
fn requests(switch: &QosSwitch, i: usize, o: usize, class: TrafficClass) -> bool {
    switch.outputs[o].xreq[class.priority() as usize] & 1 << i != 0
}

/// Offers input `i` a `class` packet of `len` flits for output `o`.
fn offer(switch: &mut QosSwitch, i: usize, o: usize, class: TrafficClass, len: u64, now: u64) {
    use ssq_types::{PacketId, PacketSpec};
    let flow = FlowId::new(InputId::new(i), OutputId::new(o));
    let spec = PacketSpec::new(PacketId::new(now), flow, class, len, Cycle::new(now));
    assert!(switch.offer_packet(spec, Cycle::new(now)), "{spec} refused");
}

/// Runs the debug auditor on `switch` (nothing in a release build).
fn audit(_switch: &QosSwitch) {
    #[cfg(debug_assertions)]
    _switch.debug_assert_masks_synced();
}

/// The request rows are the only record of who requests what: each is
/// set where a packet becomes a queue head and cleared where it pops,
/// and the debug auditor, which re-derives every row from the queue
/// heads, runs at the start of every step and after the last one.
#[test]
fn request_rows_follow_the_queue_heads() {
    let radix4 = |be_voq: bool| {
        let config = SwitchConfig::builder(Geometry::new(4, 128).unwrap())
            .policy(Policy::LrgOnly)
            .be_voq(be_voq)
            .build()
            .unwrap();
        QosSwitch::new(config).unwrap()
    };
    let (be, gb) = (TrafficClass::BestEffort, TrafficClass::GuaranteedBandwidth);

    // A GB head drains a flit a cycle; its bit drops only when it pops.
    let mut switch = radix4(false);
    offer(&mut switch, 1, 2, gb, 4, 0);
    assert!(requests(&switch, 1, 2, gb) && switch.req_out == 1 << 2);
    let mut now = 0;
    let mut freed = Vec::new();
    while switch.counters().delivered_packets == 0 {
        assert!(
            requests(&switch, 1, 2, gb),
            "cycle {now}: dropped before the pop"
        );
        switch.step(Cycle::new(now));
        freed.push(switch.free_flits(InputId::new(1), gb, OutputId::new(2)));
        now += 1;
    }
    audit(&switch);
    assert!(!requests(&switch, 1, 2, gb) && switch.req_out == 0);
    // Granted in the first cycle, then one flit a cycle.
    assert_eq!(freed, [0, 1, 2, 3, 4]);

    // A shared BE FIFO's pop re-points the input's bit at the next
    // packet's output.
    let mut switch = radix4(false);
    offer(&mut switch, 1, 0, be, 2, 0);
    offer(&mut switch, 1, 3, be, 2, 0);
    assert!(requests(&switch, 1, 0, be) && !requests(&switch, 1, 3, be));
    let mut now = 0;
    while switch.counters().delivered_packets == 0 {
        switch.step(Cycle::new(now));
        now += 1;
    }
    audit(&switch);
    assert!(!requests(&switch, 1, 0, be) && requests(&switch, 1, 3, be));
    assert_eq!(switch.req_out, 1 << 3);

    // A port with per-output BE queues requests two outputs at once,
    // and each bit drops with its own packet.
    let mut switch = radix4(true);
    offer(&mut switch, 2, 1, be, 2, 0);
    offer(&mut switch, 2, 3, be, 2, 0);
    assert!(requests(&switch, 2, 1, be) && requests(&switch, 2, 3, be));
    assert_eq!(switch.req_out, 1 << 1 | 1 << 3);
    let mut now = 0;
    while switch.counters().delivered_packets < 2 {
        switch.step(Cycle::new(now));
        let delivered = switch.counters().delivered_packets;
        assert_eq!(u64::from(switch.req_out.count_ones()), 2 - delivered);
        now += 1;
    }
    audit(&switch);
    assert!(switch.outputs.iter().all(|out| out.xreq == [0; 3]));

    // A downed link masks the input without touching its request: the
    // packet stays buffered and requesting, and is served once the
    // link is back.
    let mut switch = radix4(false);
    offer(&mut switch, 0, 1, gb, 2, 0);
    switch.fault_set_link(InputId::new(0), false, Cycle::ZERO);
    assert!(!switch.link_up(0) && switch.link_up(1));
    for now in 0..10 {
        switch.step(Cycle::new(now));
        assert!(requests(&switch, 0, 1, gb), "cycle {now}: request lost");
        assert_eq!(switch.channel(OutputId::new(1)), ChannelState::Idle);
    }
    audit(&switch);
    switch.fault_set_link(InputId::new(0), true, Cycle::new(10));
    assert!(switch.link_up(0) && !switch.armed);
    let mut now = 10;
    while switch.counters().delivered_packets == 0 {
        assert!(now < 20, "the healed input was never served");
        switch.step(Cycle::new(now));
        now += 1;
    }
    audit(&switch);
    assert_eq!(switch.req_out, 0);
}

/// Fabric-in-the-loop: a mixed GB+GL run where every arbitration is
/// double-checked against the bit-level inhibit fabric. Any
/// behavioural/circuit divergence panics inside step().
#[test]
fn fabric_checked_run_agrees_throughout() {
    let mut config = SwitchConfig::builder(geometry())
        .gb_buffer_flits(16)
        .sig_bits(3)
        .fabric_checked(true)
        .build()
        .unwrap();
    for (i, &r) in FIG4_RATES[..6].iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(InputId::new(i), out0(), Rate::new(r).unwrap(), 8)
            .unwrap();
    }
    config
        .reservations_mut()
        .reserve_gl(out0(), Rate::new(0.05).unwrap())
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    for i in 0..6 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch.add_injector(
        Injector::new(
            Box::new(Periodic::new(113, 0, 1)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedLatency,
        )
        .for_input(InputId::new(7)),
    );
    let end = Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(30_000))).run(&mut switch);
    // The run completing is the verification; sanity-check output too.
    assert!(switch.output_throughput(out0(), end) > 0.8);
    assert!(
        switch
            .gl_metrics()
            .flow(FlowId::new(InputId::new(7), out0()))
            .packets()
            > 200
    );
}

#[test]
fn gsf_policy_respects_reservations() {
    let mut switch = saturating_gb_switch(Policy::Gsf, &FIG4_RATES);
    let end = Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(50_000))).run(&mut switch);
    let capacity = 8.0 / 9.0;
    for (i, &rate) in FIG4_RATES.iter().enumerate() {
        let got = switch
            .gb_metrics()
            .flow(FlowId::new(InputId::new(i), out0()))
            .throughput(end);
        assert!(
            got >= rate * capacity - 0.03,
            "flow {i} below reservation: {got:.3} vs {:.3}",
            rate * capacity
        );
    }
}

/// Packet chaining removes the per-packet arbitration bubble: a
/// single saturated 1-flit flow goes from 0.5 to ~1.0 flits/cycle.
#[test]
fn packet_chaining_removes_arbitration_bubbles() {
    let throughput_with = |chaining: bool| {
        let mut config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(16)
            .packet_chaining(chaining)
            .build()
            .unwrap();
        config
            .reservations_mut()
            .reserve_gb(InputId::new(0), out0(), Rate::new(1.0).unwrap(), 1)
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(1)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
        let end =
            Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000))).run(&mut switch);
        (
            switch.output_throughput(out0(), end),
            switch.counters().chained_packets,
        )
    };
    let (plain, chained_plain) = throughput_with(false);
    let (chained, chained_count) = throughput_with(true);
    assert!((plain - 0.5).abs() < 0.01, "no chaining: {plain:.3}");
    assert_eq!(chained_plain, 0);
    // CHAIN_LIMIT = 4 means 4 of every 5 packets skip arbitration:
    // 5 flits per 6 cycles.
    assert!(chained > 0.82, "with chaining: {chained:.3}");
    assert!(chained_count > 10_000);
}

/// A waiting GL packet interrupts a GB chain at the next packet
/// boundary: chaining must not extend GB priority over GL.
#[test]
fn chaining_yields_to_higher_classes() {
    let mut config = SwitchConfig::builder(geometry())
        .gb_buffer_flits(32)
        .packet_chaining(true)
        .build()
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(InputId::new(0), out0(), Rate::new(0.9).unwrap(), 8)
        .unwrap();
    config
        .reservations_mut()
        .reserve_gl(out0(), Rate::new(0.1).unwrap())
        .unwrap();
    let mut switch = QosSwitch::new(config).unwrap();
    switch.add_injector(
        Injector::new(
            Box::new(Saturating::new(8)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(0)),
    );
    switch.add_injector(
        Injector::new(
            Box::new(Periodic::new(211, 0, 1)),
            Box::new(FixedDest::new(out0())),
            TrafficClass::GuaranteedLatency,
        )
        .for_input(InputId::new(1)),
    );
    let _ = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(30_000))).run(&mut switch);
    // Even though the GB flow could chain forever, every GL packet is
    // served within the channel-release + arbitration window.
    let max_wait = switch.gl_wait_histogram(out0()).max().unwrap();
    assert!(max_wait <= 10, "GL waited {max_wait} cycles behind a chain");
    assert!(
        switch.counters().chained_packets > 0,
        "chaining never engaged"
    );
}

/// With policing enabled, an abusive saturating GL flow loses its
/// preemptive priority and GB service recovers; without policing it
/// monopolizes the output.
#[test]
fn gl_policer_contains_an_abusive_flow() {
    let run_with = |policing: bool| {
        let mut config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(16)
            .gl_policing(policing)
            .build()
            .unwrap();
        config
            .reservations_mut()
            .reserve_gb(InputId::new(0), out0(), Rate::new(0.85).unwrap(), 8)
            .unwrap();
        config
            .reservations_mut()
            .reserve_gl(out0(), Rate::new(0.1).unwrap())
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
        // The abuser: a GL flow that never stops sending.
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(4)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(1)),
        );
        let end =
            Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(40_000))).run(&mut switch);
        let gb = switch
            .gb_metrics()
            .flow(FlowId::new(InputId::new(0), out0()))
            .throughput(end);
        (gb, switch.counters().gl_policed_cycles)
    };
    let (gb_unpoliced, policed_events_off) = run_with(false);
    let (gb_policed, policed_events_on) = run_with(true);
    assert_eq!(policed_events_off, 0);
    assert!(policed_events_on > 0, "policer never engaged");
    assert!(
        gb_unpoliced < 0.1,
        "without policing GL should monopolize; GB got {gb_unpoliced:.3}"
    );
    assert!(
        gb_policed > 5.0 * gb_unpoliced.max(0.01),
        "policing should restore GB service: {gb_policed:.3} vs {gb_unpoliced:.3}"
    );
}

#[test]
fn tracer_records_decisions_grants_and_auxvc_updates() {
    use ssq_trace::{EventKind, RingSink};
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &[0.5, 0.5],
    );
    switch.tracer_mut().attach_ring(8192);
    let _ = Runner::new(Schedule::new(Cycles::new(100), Cycles::new(2_000))).run(&mut switch);
    let events = switch.tracer().ring().map(RingSink::events).unwrap();
    assert!(!events.is_empty(), "saturated run emitted no events");
    let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, EventKind::Decision { .. })));
    assert!(has(&|k| matches!(
        k,
        EventKind::Grant {
            class: TrafficClass::GuaranteedBandwidth,
            ..
        }
    )));
    assert!(has(&|k| matches!(k, EventKind::AuxVc { .. })));
    // Two inputs contending for one output: the loser of each GB
    // round must show up as inhibited.
    assert!(has(&|k| matches!(k, EventKind::Inhibit { .. })));
    // Events arrive in chronological order.
    assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

#[test]
fn untraced_switch_matches_traced_switch_exactly() {
    let run = |attach: bool| {
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &FIG4_RATES,
        );
        if attach {
            switch.tracer_mut().attach_ring(1024);
        }
        let _ = Runner::new(Schedule::new(Cycles::new(500), Cycles::new(5_000))).run(&mut switch);
        switch.counters()
    };
    // Tracing must observe, never perturb: identical counters.
    assert_eq!(run(false), run(true));
}

#[test]
fn gl_wait_bound_violation_trips_monitored_run() {
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
    // A 0-cycle bound is unattainable: the first GL grant trips.
    switch.set_gl_wait_bound(Some(0));
    let outcome = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000)))
        .run_monitored(&mut switch, Cycles::new(10_000), |_, _| {});
    match outcome {
        MonitorOutcome::Tripped { reason, .. } => {
            assert!(reason.contains("Eq. 1 bound"), "unexpected reason {reason}");
        }
        MonitorOutcome::Completed(_) => panic!("bound of 0 cycles should have tripped"),
    }
}

#[test]
fn healthy_saturated_run_never_trips_the_watchdog() {
    let mut switch = saturating_gb_switch(
        Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
        &FIG4_RATES,
    );
    let outcome = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000)))
        .run_monitored(&mut switch, Cycles::new(100), |_, _| {});
    assert!(
        outcome.is_completed(),
        "a progressing saturated switch tripped the watchdog"
    );
}

/// Fault-injection and degraded-mode behaviour (DESIGN.md §8).
mod faults;

/// A radix-64 switch shaped like the `dense-r64` workload: 56 inputs
/// each send a GB flow to a reserved output and two BE flows, and the
/// other 8 send single-flit GL packets to the 8 GL outputs. Returns the
/// switch and how many distinct (class, flow) pairs it injects.
fn dense_r64_shaped() -> (QosSwitch, usize) {
    use ssq_types::rng::Xoshiro256StarStar;
    const RADIX: usize = 64;
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    let mut perm = || {
        let mut p: Vec<usize> = (0..RADIX).collect();
        for i in (1..RADIX).rev() {
            p.swap(i, rng.index(i + 1));
        }
        p
    };
    let (gb, be1, be2) = (perm(), perm(), perm());
    let mut config = SwitchConfig::builder(Geometry::new(RADIX, RADIX * 8).unwrap())
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .build()
        .unwrap();
    let gl_inputs: Vec<usize> = (0..RADIX / 8).map(|g| g * 8 + 3).collect();
    let mut flows = Vec::new();
    for i in (0..RADIX).filter(|i| !gl_inputs.contains(i)) {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(gb[i]),
                Rate::new(0.4).unwrap(),
                8,
            )
            .unwrap();
        flows.push((i, gb[i], TrafficClass::GuaranteedBandwidth, 0.42, 8));
        flows.push((i, be1[i], TrafficClass::BestEffort, 0.21, 8));
        flows.push((i, be2[i], TrafficClass::BestEffort, 0.14, 8));
    }
    for (g, &i) in gl_inputs.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gl(OutputId::new(g * 8), Rate::new(0.05).unwrap())
            .unwrap();
        flows.push((i, g * 8, TrafficClass::GuaranteedLatency, 0.01, 1));
    }
    let mut switch = QosSwitch::new(config).unwrap();
    for (n, &(i, o, class, rate, len)) in flows.iter().enumerate() {
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(rate, len, 0x55 + n as u64)),
                Box::new(FixedDest::new(OutputId::new(o))),
                class,
            )
            .for_input(InputId::new(i)),
        );
    }
    let distinct: std::collections::BTreeSet<_> = flows
        .iter()
        .map(|&(i, o, class, ..)| (i, o, class.priority()))
        .collect();
    (switch, distinct.len())
}

#[test]
fn per_flow_metrics_are_held_for_the_flows_that_delivered() {
    let (mut switch, injected) = dense_r64_shaped();
    switch.set_delivery_log(true);
    let end = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(3_000))).run(&mut switch);
    let delivered: std::collections::BTreeSet<_> = switch
        .drain_deliveries()
        .iter()
        .map(|(_, spec)| (spec.class().priority(), spec.flow()))
        .collect();
    let matrices = [
        (TrafficClass::BestEffort, switch.be_metrics()),
        (TrafficClass::GuaranteedBandwidth, switch.gb_metrics()),
        (TrafficClass::GuaranteedLatency, switch.gl_metrics()),
    ];
    let held: usize = matrices.iter().map(|(_, m)| m.len()).sum();
    // Exactly one record per (class, flow) that delivered: no record for
    // the 3 × 4 096 − held crosspoints that did not.
    assert_eq!(held, delivered.len());
    assert!(
        held <= injected,
        "{held} records for {injected} injected flows"
    );
    for (class, m) in matrices {
        let mut with_packets = 0;
        for i in 0..64 {
            for o in 0..64 {
                let flow = FlowId::new(InputId::new(i), OutputId::new(o));
                let f = m.flow(flow);
                let is_delivered = delivered.contains(&(class.priority(), flow));
                assert_eq!(f.packets() > 0, is_delivered, "{class:?} {flow}");
                if !is_delivered {
                    assert_eq!((f.packets(), f.flits()), (0, 0));
                    assert_eq!((f.throughput(end), f.mean_latency()), (0.0, 0.0));
                    assert_eq!(f.max_latency(), None);
                }
                with_packets += usize::from(f.packets() > 0);
            }
        }
        assert_eq!(with_packets, m.len(), "{class:?}");
    }
    // This seed's flows: 110 BE (two of the 112 BE injectors share a
    // crosspoint), 56 GB and 8 GL.
    let lens = [
        switch.be_metrics().len(),
        switch.gb_metrics().len(),
        switch.gl_metrics().len(),
    ];
    assert_eq!(lens, [110, 56, 8]);
    // Guaranteed latencies stay low, so a GB or GL record holds a few
    // dozen latency bins of the 1 024 the layout allows.
    for m in [switch.gb_metrics(), switch.gl_metrics()] {
        assert!(
            m.allocated_bins() <= 64 * m.len(),
            "{} bins",
            m.allocated_bins()
        );
    }
    assert!(switch.be_metrics().allocated_bins() <= 1024 * switch.be_metrics().len());
}
