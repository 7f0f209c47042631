//! The title claim, end to end: **QoS for a high-radix (64-node)
//! switch**.
//!
//! The paper's §1 headline is that a single-stage switch "readily
//! scalable to 64 nodes" can carry QoS without multi-hop complexity, and
//! §4.4 sets the price: a 256-bit bus for three classes at radix 64
//! (4 lanes: 1 GL + 2 thermometer + tie-break budget). This binary runs
//! the full 64×64 configuration:
//!
//! * 64 GB flows with distinct reservations (1…~3 %) converging on one
//!   hot output, saturated — per-flow adherence measured;
//! * uniform background best-effort traffic across the other 63 outputs;
//! * a GL interrupt source riding over all of it.

use ssq_arbiter::CounterPolicy;
use ssq_bench::emit;
use ssq_core::{Policy, QosSwitch, SwitchConfig};
use ssq_sim::{Runner, Schedule};
use ssq_stats::{jain_fairness_index, Table};
use ssq_traffic::{FixedDest, HotspotDest, Injector, Periodic, Saturating};
use ssq_types::bounds::gl_latency_bound;
use ssq_types::{Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

const RADIX: usize = 64;
const LEN: u64 = 8;
const HOT: OutputId = OutputId::new(0);

fn reservations() -> Vec<f64> {
    // Distinct reservations summing to ~95%: proportional to 1 + i/63.
    let raw: Vec<f64> = (0..RADIX).map(|i| 1.0 + i as f64 / 63.0).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| 0.95 * w / total).collect()
}

fn main() {
    let rates = reservations();
    let geometry = Geometry::new(RADIX, 256).expect("S4.4: radix 64 needs a 256-bit bus");
    let mut config = SwitchConfig::builder(geometry)
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .build()
        .expect("valid config");
    for (i, &r) in rates.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(InputId::new(i), HOT, Rate::new(r).unwrap(), LEN)
            .expect("sums below 1");
    }
    config
        .reservations_mut()
        .reserve_gl(HOT, Rate::new(0.05).unwrap())
        .expect("fits");

    let mut switch = QosSwitch::new(config).expect("valid switch");
    for i in 0..RADIX {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(LEN)),
                Box::new(FixedDest::new(HOT)),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
        // Background best-effort traffic, uniform over the 63 cold
        // outputs. (Routing BE through the hot output would head-of-line
        // block the shared BE FIFO behind packets the saturated GB class
        // never lets through — the single-FIFO behaviour the paper's
        // per-class buffering deliberately accepts for BE.) Input 63 is
        // exempt: it hosts the GL source, and Eq. 1 bounds waiting *at
        // the switch* — a GL packet whose own input channel is busy
        // shipping unrelated best-effort packets waits outside the
        // bound's scope.
        if i != 63 {
            switch.add_injector(
                Injector::new(
                    Box::new(Saturating::new(4)),
                    Box::new(HotspotDest::new(RADIX, HOT, 0.0, 0x6464 + i as u64)),
                    TrafficClass::BestEffort,
                )
                .for_input(InputId::new(i)),
            );
        }
    }
    // One GL interrupt source.
    switch.add_injector(
        Injector::new(
            Box::new(Periodic::new(499, 0, 1)),
            Box::new(FixedDest::new(HOT)),
            TrafficClass::GuaranteedLatency,
        )
        .for_input(InputId::new(63)),
    );

    let end =
        Runner::new(Schedule::new(Cycles::new(20_000), Cycles::new(200_000))).run(&mut switch);

    let capacity = LEN as f64 / (LEN + 1) as f64;
    let mut worst_dev = 0.0f64;
    let mut starved = 0;
    let mut shares = Vec::with_capacity(RADIX);
    for (i, &r) in rates.iter().enumerate() {
        let t = switch
            .gb_metrics()
            .flow(FlowId::new(InputId::new(i), HOT))
            .throughput(end);
        shares.push(t);
        worst_dev = worst_dev.max((t - r * capacity).abs());
        if t < r * capacity - 0.005 {
            starved += 1;
        }
    }

    let mut t = Table::with_columns(&["metric", "value"]);
    t.numeric();
    t.row(vec!["GB flows on the hot output".into(), RADIX.to_string()]);
    t.row(vec![
        "worst |throughput - reserved| (flits/cycle)".into(),
        format!("{worst_dev:.4}"),
    ]);
    t.row(vec![
        "flows below reservation (-0.5% grace)".into(),
        starved.to_string(),
    ]);
    t.row(vec![
        "hot-output utilization".into(),
        format!(
            "{:.3} / {:.3}",
            switch.output_throughput(HOT, end),
            capacity
        ),
    ]);
    t.row(vec![
        "Jain fairness of share/reservation ratios".into(),
        format!(
            "{:.4}",
            jain_fairness_index(
                &shares
                    .iter()
                    .zip(&rates)
                    .map(|(&s, &r)| s / (r * capacity))
                    .collect::<Vec<_>>()
            )
        ),
    ]);
    let gl = switch.gl_metrics().flow(FlowId::new(InputId::new(63), HOT));
    let gl_bound = gl_latency_bound(LEN, 1, 1, 4);
    t.row(vec![
        "GL packets delivered / max wait / Eq.1 bound".into(),
        format!(
            "{} / {} / {}",
            gl.packets(),
            switch.gl_wait_histogram(HOT).max().unwrap_or(0),
            gl_bound
        ),
    ]);
    let background: u64 = (1..RADIX)
        .map(|o| {
            (0..RADIX)
                .map(|i| {
                    switch
                        .be_metrics()
                        .flow(FlowId::new(InputId::new(i), OutputId::new(o)))
                        .flits()
                })
                .sum::<u64>()
        })
        .sum();
    t.row(vec![
        "background BE flits over the other 63 outputs".into(),
        background.to_string(),
    ]);
    emit(
        "Radix-64 validation: 64 distinct reservations + GL + background BE on a 256-bit bus",
        &t,
    );
    println!(
        "All 64 flows within {:.2}% of their reserved rates at radix 64 — the paper's",
        worst_dev * 100.0
    );
    println!("\"readily scalable to 64 nodes\" claim, exercised in one simulation.");
}
