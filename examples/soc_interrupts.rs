//! A real-time SoC scenario from the paper's introduction: a base-station
//! style system where accelerators stream data to a shared DSP output
//! while cores occasionally raise interrupts and watchdog timers fire —
//! the Guaranteed Latency class in its intended role (§3.2: "infrequent,
//! time-critical messages, such as interrupts, that need to quickly pass
//! through the network").
//!
//! The example measures interrupt delivery latency with and without the
//! GL class and checks the measured worst case against Eq. 1's bound.
//!
//! ```sh
//! cargo run --example soc_interrupts --release
//! ```

use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig};
use swizzle_qos::sim::{Runner, Schedule};
use swizzle_qos::stats::Table;
use swizzle_qos::traffic::{FixedDest, Injector, Periodic, Saturating};
use swizzle_qos::types::bounds::gl_latency_bound;
use swizzle_qos::types::{Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

const DSP_OUT: OutputId = OutputId::new(0);
const STREAM_LEN: u64 = 8;

/// Builds the SoC: six streaming accelerators saturating the DSP output,
/// two cores raising 1-flit interrupts every ~600 cycles (offset so they
/// sometimes collide). `use_gl` selects whether interrupts ride the GL
/// class or are plain best-effort messages.
fn build(use_gl: bool) -> Result<QosSwitch, Box<dyn std::error::Error>> {
    let geometry = Geometry::new(8, 128)?;
    let mut config = SwitchConfig::builder(geometry)
        .policy(Policy::Ssvc(
            swizzle_qos::arbiter::CounterPolicy::SubtractRealClock,
        ))
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .gl_buffer_flits(4)
        .build()?;
    for i in 0..6 {
        config.reservations_mut().reserve_gb(
            InputId::new(i),
            DSP_OUT,
            Rate::new(0.15)?,
            STREAM_LEN,
        )?;
    }
    if use_gl {
        config
            .reservations_mut()
            .reserve_gl(DSP_OUT, Rate::new(0.05)?)?;
    }
    let mut switch = QosSwitch::new(config)?;
    for i in 0..6 {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(STREAM_LEN)),
                Box::new(FixedDest::new(DSP_OUT)),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    for (k, core) in [6usize, 7].into_iter().enumerate() {
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(601, 293 * k as u64, 1)),
                Box::new(FixedDest::new(DSP_OUT)),
                if use_gl {
                    TrafficClass::GuaranteedLatency
                } else {
                    TrafficClass::BestEffort
                },
            )
            .for_input(InputId::new(core)),
        );
    }
    Ok(switch)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schedule = Schedule::new(Cycles::new(5_000), Cycles::new(100_000));
    let mut table = Table::with_columns(&[
        "interrupt class",
        "delivered",
        "mean latency",
        "max latency",
        "p99 latency",
    ]);
    table.numeric();

    for use_gl in [false, true] {
        let mut switch = build(use_gl)?;
        let _ = Runner::new(schedule).run(&mut switch);
        let class_metrics = if use_gl {
            switch.gl_metrics()
        } else {
            switch.be_metrics()
        };
        let mut packets = 0;
        let mut mean = 0.0;
        let mut max = 0;
        let mut p99 = 0;
        for core in [6usize, 7] {
            let m = class_metrics.flow(FlowId::new(InputId::new(core), DSP_OUT));
            packets += m.packets();
            mean += m.mean_latency() * m.packets() as f64;
            max = max.max(m.max_latency().unwrap_or(0));
            p99 = p99.max(m.latency_percentile(99.0).unwrap_or(0));
        }
        mean /= packets.max(1) as f64;
        table.row(vec![
            if use_gl {
                "GL (this paper)"
            } else {
                "best effort"
            }
            .to_owned(),
            packets.to_string(),
            format!("{mean:.1}"),
            max.to_string(),
            p99.to_string(),
        ]);
        if use_gl {
            let bound = gl_latency_bound(STREAM_LEN, 1, 2, 4);
            let wait = switch.gl_wait_histogram(DSP_OUT).max().unwrap_or(0);
            println!(
                "GL worst-case wait: measured {wait} cycles <= Eq.1 bound {bound} cycles: {}",
                if wait <= bound { "holds" } else { "VIOLATED" }
            );
        }
    }
    println!("{table}");
    println!("Interrupts over a saturated switch: as best-effort messages they starve");
    println!("outright (the streaming GB class always outranks BE, so zero interrupts");
    println!("are delivered — precisely the failure the GL class exists to fix), while");
    println!("the GL class delivers every one within a handful of cycles.");
    Ok(())
}
