//! Validates the **§3.4 guaranteed-latency math**: Eq. 1's worst-case
//! waiting-time bound `τ_GL` against measured maxima, and the burst
//! budgets of Eqs. 2–3 against the latency constraints they promise.

use ssq_bench::emit;
use ssq_core::{QosSwitch, SwitchConfig};
use ssq_sim::{Runner, Schedule};
use ssq_stats::Table;
use ssq_traffic::{FixedDest, Injector, Periodic, Saturating, Trace};
use ssq_types::bounds::{gl_burst_budgets, gl_latency_bound};
use ssq_types::{Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

const GB_LEN: u64 = 8;

/// Builds an 8×8 rig where `8 − n_gl` inputs run saturated GB traffic and
/// `n_gl` inputs inject GL packets, input `8 − n_gl + k` from
/// `gl_source(k)`.
fn gl_rig(
    n_gl: usize,
    gl_buffer: u64,
    gl_source: impl Fn(usize) -> Box<dyn ssq_traffic::TrafficSource + Send + Sync>,
) -> QosSwitch {
    let geometry = Geometry::new(8, 128).expect("valid geometry");
    let mut config = SwitchConfig::builder(geometry)
        .gb_buffer_flits(16)
        .gl_buffer_flits(gl_buffer)
        .sig_bits(4)
        .build()
        .expect("valid config");
    let out = OutputId::new(0);
    let gb_inputs = 8 - n_gl;
    let gb_rate = 0.9 / gb_inputs as f64;
    for i in 0..gb_inputs {
        config
            .reservations_mut()
            .reserve_gb(InputId::new(i), out, Rate::new(gb_rate).unwrap(), GB_LEN)
            .expect("fits budget");
    }
    config
        .reservations_mut()
        .reserve_gl(out, Rate::new(0.1).unwrap())
        .expect("fits budget");
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for i in 0..gb_inputs {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(GB_LEN)),
                Box::new(FixedDest::new(out)),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    for k in 0..n_gl {
        switch.add_injector(
            Injector::new(
                gl_source(k),
                Box::new(FixedDest::new(out)),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(gb_inputs + k)),
        );
    }
    switch
}

fn eq1_table() -> Table {
    let mut t = Table::with_columns(&[
        "N_GL",
        "buffer b (flits)",
        "GL load",
        "measured max wait",
        "Eq.1 bound",
        "within bound",
    ]);
    t.numeric();
    type SourceMaker = fn(usize) -> Box<dyn ssq_traffic::TrafficSource + Send + Sync>;
    let colliding: SourceMaker = |_k| Box::new(Periodic::new(61, 0, 1));
    let saturating: SourceMaker = |_k| Box::new(Saturating::new(1));
    for &n_gl in &[1usize, 2, 4] {
        for &b in &[4u64, 8] {
            for (load_name, make) in [("colliding bursts", colliding), ("saturating", saturating)] {
                let mut switch = gl_rig(n_gl, b, make);
                let _ = Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(60_000)))
                    .run(&mut switch);
                let measured = switch
                    .gl_wait_histogram(OutputId::new(0))
                    .max()
                    .unwrap_or(0);
                let bound = gl_latency_bound(GB_LEN, 1, n_gl as u64, b);
                t.row(vec![
                    n_gl.to_string(),
                    b.to_string(),
                    load_name.to_owned(),
                    measured.to_string(),
                    bound.to_string(),
                    if measured <= bound { "yes" } else { "VIOLATED" }.to_owned(),
                ]);
            }
        }
    }
    t
}

fn burst_table() -> Table {
    // Three GL flows with ordered latency constraints burst exactly their
    // Eq. 2-3 budgets simultaneously over a saturated GB background.
    let constraints = [150u64, 300, 600];
    let budgets = gl_burst_budgets(&constraints, GB_LEN);
    let burst_at = 5_000u64;
    let geometry = Geometry::new(8, 128).expect("valid geometry");
    let mut config = SwitchConfig::builder(geometry)
        .gb_buffer_flits(16)
        .gl_buffer_flits(8)
        .sig_bits(4)
        .build()
        .expect("valid config");
    let out = OutputId::new(0);
    for i in 0..5 {
        config
            .reservations_mut()
            .reserve_gb(InputId::new(i), out, Rate::new(0.16).unwrap(), GB_LEN)
            .unwrap();
    }
    config
        .reservations_mut()
        .reserve_gl(out, Rate::new(0.2).unwrap())
        .unwrap();
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for i in 0..5 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(GB_LEN)),
                Box::new(FixedDest::new(out)),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    for (k, &sigma) in budgets.iter().enumerate() {
        let events: Vec<(u64, u64)> = (0..sigma).map(|j| (burst_at + j, 1)).collect();
        switch.add_injector(
            Injector::new(
                Box::new(Trace::new(events)),
                Box::new(FixedDest::new(out)),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(5 + k)),
        );
    }
    let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(20_000))).run(&mut switch);

    let mut t = Table::with_columns(&[
        "flow",
        "constraint L (cycles)",
        "burst budget (Eqs. 2-3)",
        "packets delivered",
        "max latency",
        "meets constraint",
    ]);
    t.numeric();
    for (k, (&l, &sigma)) in constraints.iter().zip(&budgets).enumerate() {
        let flow = FlowId::new(InputId::new(5 + k), out);
        let m = switch.gl_metrics().flow(flow);
        let max = m.max_latency().unwrap_or(0);
        t.row(vec![
            format!("GL{}", k + 1),
            l.to_string(),
            sigma.to_string(),
            m.packets().to_string(),
            max.to_string(),
            if max <= l { "yes" } else { "VIOLATED" }.to_owned(),
        ]);
    }
    t
}

fn main() {
    emit(
        "Eq. 1: GL worst-case waiting time vs measured maximum (l_max=8, l_min=1)",
        &eq1_table(),
    );
    emit(
        "Eqs. 2-3: burst budgets meet their latency constraints",
        &burst_table(),
    );

    // The paper's worked-example shapes: a single injector with a loose
    // bound gets a large budget; splitting the bound across 8 injectors
    // shrinks each budget ~8x.
    let one = gl_burst_budgets(&[101], 1)[0];
    let eight = gl_burst_budgets(&[201; 8], 1)[0];
    println!("single 1-flit GL flow, L=101 cycles: sigma = {one} packets");
    println!("eight 1-flit GL flows, L=201 cycles: sigma = {eight} packets each");
}
