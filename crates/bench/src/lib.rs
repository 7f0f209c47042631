//! Experiment harness for the DAC 2014 SSVC paper.
//!
//! One binary per table/figure (see `src/bin/`), built on the shared
//! setup and measurement helpers in this library:
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `fig4` | Fig. 4: accepted throughput vs injection rate, LRG vs SSVC |
//! | `fig5` | Fig. 5: latency vs bandwidth allocation, four policies |
//! | `rate_adherence` | §4.2: ≥20 reservation combinations within 2 % |
//! | `table1` | Table 1: storage requirements |
//! | `table2` | Table 2 + §4.5: frequency and area overhead |
//! | `gl_bound` | §3.4: Eq. 1 latency bound and Eqs. 2–3 burst budgets |
//! | `scalability` | §4.4: lane budgets and significant-bit ablation |
//! | `ablation_fixed_priority` | §2.2: SSVC vs the 4-level prior design |
//! | `ablation_schedulers` | §2.2: SSVC vs WRR/DWRR/WFQ redistribution |
//!
//! Micro-benchmarks live in `benches/`, built on [`microbench`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod microbench;

use ssq_core::{Policy, QosSwitch, SwitchConfig};
use ssq_sim::{MonitorOutcome, Runner, Schedule};
use ssq_stats::Table;
use ssq_traffic::{Bernoulli, FixedDest, Injector, OnOffBursty, Saturating};
use ssq_types::{Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

/// The Fig. 4 reservation vector: 40/20/10/10/5/5/5/5 % of the output.
pub const FIG4_RATES: [f64; 8] = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];

/// The Fig. 4 packet length in flits.
pub const FIG4_PACKET_FLITS: u64 = 8;

/// How each GB flow injects in a congestion experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Always-backlogged sources (the congested regime).
    Saturating,
    /// Bernoulli injection at the given rate in flits/input/cycle.
    Bernoulli(f64),
    /// On/off bursty injection averaging roughly half the on-rate.
    Bursty {
        /// Injection rate while the source is on.
        rate_on: f64,
    },
    /// Bernoulli injection at `factor ×` each flow's own reserved rate —
    /// the regime where Virtual Clock's bandwidth/latency coupling shows:
    /// the output runs congested (Σ reservations ≈ 1) while each flow's
    /// queue stays short, so latency is scheduling delay rather than
    /// queue drain.
    AtReservation {
        /// Multiplier on the reserved rate (1.0 = exactly reserved).
        factor: f64,
    },
    /// On/off bursts whose ON rate is `2 × factor ×` the reserved rate
    /// with a 50 % duty cycle (same average as [`Load::AtReservation`],
    /// burstier arrivals — §4.3's "especially during bursty injection").
    BurstyAtReservation {
        /// Multiplier on the reserved rate.
        factor: f64,
    },
}

/// Builds the paper's canonical congestion rig: `rates.len()` inputs all
/// sending `len_flits`-flit GB packets to output 0 of an 8×8/128-bit
/// switch with 16-flit GB buffers, reservations `rates`, policy
/// `policy`, and the given load. Injector seeds derive from `seed`.
///
/// # Panics
///
/// Panics if the configuration is invalid (e.g. rates exceed the output
/// budget) — experiment definitions are static, so this is a harness
/// bug, not an input error.
#[must_use]
pub fn congestion_rig(
    policy: Policy,
    rates: &[f64],
    len_flits: u64,
    load: Load,
    seed: u64,
) -> QosSwitch {
    let geometry = Geometry::new(8, 128).expect("valid geometry");
    let mut config = SwitchConfig::builder(geometry)
        .policy(policy)
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .sig_bits(4)
        .build()
        .expect("valid config");
    for (i, &r) in rates.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(0),
                Rate::new(r).expect("valid rate"),
                len_flits,
            )
            .expect("reservations fit the output budget");
    }
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for (i, &reserved) in rates.iter().enumerate() {
        let source: Box<dyn ssq_traffic::TrafficSource + Send + Sync> = match load {
            Load::Saturating => Box::new(Saturating::new(len_flits)),
            Load::Bernoulli(rate) => {
                Box::new(Bernoulli::new(rate, len_flits, seed ^ (i as u64) << 8))
            }
            Load::Bursty { rate_on } => Box::new(OnOffBursty::new(
                rate_on,
                len_flits,
                0.004,
                0.004,
                seed ^ (i as u64) << 8,
            )),
            Load::AtReservation { factor } => Box::new(Bernoulli::new(
                (reserved * factor).min(1.0),
                len_flits,
                seed ^ (i as u64) << 8,
            )),
            Load::BurstyAtReservation { factor } => Box::new(OnOffBursty::new(
                (2.0 * reserved * factor).min(1.0),
                len_flits,
                0.004,
                0.004,
                seed ^ (i as u64) << 8,
            )),
        };
        switch.add_injector(
            Injector::new(
                source,
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
    switch
}

/// Per-flow readings of one congestion run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowReading {
    /// The flow's input index.
    pub input: usize,
    /// Accepted throughput in flits/cycle.
    pub throughput: f64,
    /// Mean packet latency in cycles (GB class).
    pub mean_latency: f64,
    /// Packets delivered in the window.
    pub packets: u64,
}

/// Runs `switch` through `warmup` + `measure` cycles with the flight
/// recorder armed and reads each of the first `flows` GB flows at
/// output 0: the run keeps the last 4096 trace events in a ring and
/// executes under the stall watchdog, and a trip dumps a post-mortem to
/// `results/flight-<label>.txt` and panics with the reason, instead of
/// producing bad numbers.
///
/// # Panics
///
/// Panics when static analysis rejects the configuration or when the
/// monitored run trips.
#[must_use]
pub fn run_and_read_recorded(
    label: &str,
    switch: &mut QosSwitch,
    flows: usize,
    warmup: u64,
    measure: u64,
) -> Vec<FlowReading> {
    switch.tracer_mut().attach_ring(4096);
    let (outcome, _report) = Runner::new(Schedule::new(Cycles::new(warmup), Cycles::new(measure)))
        .run_checked_monitored(switch, Cycles::new(10_000))
        .expect("benchmark configurations pass static analysis");
    match outcome {
        MonitorOutcome::Completed(end) => read_flows(switch, flows, end),
        MonitorOutcome::Tripped { at, reason } => {
            switch.tracer_mut().flush();
            let dumped = ssq_trace::flight::write_post_mortem(
                std::path::Path::new("results"),
                label,
                &reason,
                at.value(),
                switch.tracer().ring(),
                None,
            );
            match dumped {
                Ok(path) => panic!(
                    "{label}: run tripped at {at}: {reason} (post-mortem at {})",
                    path.display()
                ),
                Err(e) => {
                    panic!("{label}: run tripped at {at}: {reason} (post-mortem write failed: {e})")
                }
            }
        }
    }
}

/// Reads each of the first `flows` GB flows at output 0 at time `end`.
#[must_use]
pub fn read_flows(switch: &QosSwitch, flows: usize, end: Cycle) -> Vec<FlowReading> {
    (0..flows)
        .map(|i| {
            let flow = FlowId::new(InputId::new(i), OutputId::new(0));
            let m = switch.gb_metrics().flow(flow);
            FlowReading {
                input: i,
                throughput: m.throughput(end),
                mean_latency: m.mean_latency(),
                packets: m.packets(),
            }
        })
        .collect()
}

/// Deterministically generates `count` reservation vectors for `flows`
/// flows, each summing to ~100 % on a 1 % grid with every flow getting
/// at least 1 % — the "20 combinations of reserved rates" sweep of §4.2.
#[must_use]
pub fn reservation_vectors(count: usize, flows: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ssq_types::rng::Xoshiro256StarStar::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let raw: Vec<f64> = (0..flows).map(|_| rng.f64() + 0.05).collect();
            let sum: f64 = raw.iter().sum();
            // Grid-quantize to whole percents, keeping >= 1% each.
            let mut pct: Vec<u64> = raw
                .iter()
                .map(|w| ((w / sum) * 100.0).floor().max(1.0) as u64)
                .collect();
            // Distribute the leftover percents to the largest flows.
            let mut left = 100i64 - pct.iter().sum::<u64>() as i64;
            let mut order: Vec<usize> = (0..flows).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(pct[i]));
            let mut k = 0;
            while left > 0 {
                pct[order[k % flows]] += 1;
                left -= 1;
                k += 1;
            }
            pct.into_iter().map(|p| p as f64 / 100.0).collect()
        })
        .collect()
}

/// Prints a table with a heading, both as aligned text and as CSV when
/// the `SSQ_CSV` environment variable is set.
#[expect(
    clippy::print_stdout,
    reason = "reporting to stdout is this harness's contract with its bins and benches"
)]
pub fn emit(title: &str, table: &Table) {
    println!("== {title} ==");
    if std::env::var_os("SSQ_CSV").is_some() {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_rig_reproduces_reserved_shares() {
        let mut switch = congestion_rig(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &FIG4_RATES,
            FIG4_PACKET_FLITS,
            Load::Saturating,
            1,
        );
        let readings = run_and_read_recorded("test", &mut switch, 8, 3_000, 30_000);
        let capacity = 8.0 / 9.0;
        for (r, &rate) in readings.iter().zip(&FIG4_RATES) {
            assert!(
                (r.throughput - rate * capacity).abs() < 0.03,
                "flow {}: {:.3} vs {:.3}",
                r.input,
                r.throughput,
                rate * capacity
            );
        }
    }

    #[test]
    fn reservation_vectors_are_valid_and_deterministic() {
        let a = reservation_vectors(25, 8, 42);
        let b = reservation_vectors(25, 8, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        for v in &a {
            let sum: f64 = v.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
            assert!(v.iter().all(|&r| r >= 0.01));
        }
    }

    #[test]
    fn bernoulli_load_stays_below_saturation() {
        let mut switch = congestion_rig(
            Policy::LrgOnly,
            &FIG4_RATES,
            FIG4_PACKET_FLITS,
            Load::Bernoulli(0.05),
            7,
        );
        let readings = run_and_read_recorded("test", &mut switch, 8, 2_000, 20_000);
        for r in &readings {
            assert!(
                (r.throughput - 0.05).abs() < 0.02,
                "flow {}: {:.3}",
                r.input,
                r.throughput
            );
        }
    }
}
