//! Micro-benchmark: cost of the tracing instrumentation on the
//! arbitration hot loop.
//!
//! The `off` variant is the zero-overhead-when-off claim: with no sinks
//! attached, every emission site in `QosSwitch::step` reduces to one
//! `sinks.is_empty()` branch and must stay within 1% of the
//! pre-instrumentation `ssvc_hotspot` baseline (see EXPERIMENTS.md).
//! The `null_sink` and `ring` variants price actually building the
//! events: a no-op consumer and the flight-recorder ring.
//!
//! The `jsonl_codec` group prices the on-path trace layer per event,
//! away from the switch: `jsonl_encode` is `JsonlSink::record` into
//! `io::sink()`, `jsonl_parse` is `Event::from_jsonl` on the same
//! lines (the writer's shape, so its exact-shape scan), and
//! `jsonl_parse_general` is `Event::from_jsonl` on those lines with each
//! one's fields rotated, so every line takes the general parser. All
//! walk a fixed batch in the kind mix a saturated traced run emits
//! (decision / inhibit / auxvc / grant).

use std::hint::black_box;

use ssq_arbiter::CounterPolicy;
use ssq_bench::microbench::{bench, group};
use ssq_core::{Policy, QosSwitch, SwitchConfig};
use ssq_sim::CycleModel;
use ssq_trace::{Event, EventKind, JsonlSink, NullSink, TraceSink};
use ssq_traffic::{FixedDest, Injector, Saturating};
use ssq_types::{Cycle, Geometry, InputId, OutputId, Rate, TrafficClass};

/// The same saturated-hotspot rig as `benches/switch.rs`, so the `off`
/// numbers compare directly against `ssvc_hotspot/<radix>`.
fn hotspot_switch(radix: usize) -> QosSwitch {
    let width = Geometry::min_bus_width(radix, 3).max(128);
    let geometry = Geometry::new(radix, width).expect("valid geometry");
    let mut config = SwitchConfig::builder(geometry)
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .build()
        .expect("valid config");
    let share = 1.0 / radix as f64;
    for i in 0..radix {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(0),
                Rate::new(share).expect("valid rate"),
                8,
            )
            .expect("reservations fit");
    }
    let mut switch = QosSwitch::new(config).expect("valid switch");
    for i in 0..radix {
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

/// 256 events in the decision / inhibit / auxvc / grant rotation, with
/// cycle numbers and waits of the widths a long run produces.
fn codec_batch() -> Vec<Event> {
    (0..256u32)
        .map(|n| {
            let (output, input) = (n % 16, (n / 4) % 16);
            let kind = match n % 4 {
                0 => EventKind::Decision {
                    output,
                    class: TrafficClass::GuaranteedBandwidth,
                    contenders: 1 + n % 7,
                    winner: input,
                },
                1 => EventKind::Inhibit {
                    output,
                    input,
                    msb: u64::from(n % 9),
                    winner_msb: u64::from(n % 5),
                },
                2 => EventKind::AuxVc {
                    output,
                    input,
                    aux: u64::from(n) * 13,
                    saturated: n % 64 == 2,
                },
                _ => EventKind::Grant {
                    output,
                    input,
                    class: TrafficClass::GuaranteedBandwidth,
                    len_flits: 8,
                    waited: u64::from(n) * 3,
                },
            };
            Event {
                cycle: 150_000 + u64::from(n / 4),
                kind,
            }
        })
        .collect()
}

fn jsonl_codec() {
    group("jsonl_codec");
    let batch = codec_batch();
    let lines: Vec<String> = batch.iter().map(Event::to_jsonl).collect();

    let mut sink = JsonlSink::new(std::io::sink());
    let mut next = batch.iter().cycle();
    bench("jsonl_codec", "jsonl_encode", || {
        if let Some(event) = next.next() {
            sink.record(black_box(event));
        }
    });
    assert!(sink.io_error().is_none() && sink.lines_written() > 0);

    let rotated: Vec<String> = lines.iter().map(|line| rotate_fields(line)).collect();
    for (name, lines) in [("jsonl_parse", &lines), ("jsonl_parse_general", &rotated)] {
        let mut next = lines.iter().cycle();
        bench("jsonl_codec", name, || {
            if let Some(line) = next.next() {
                let _ = black_box(Event::from_jsonl(black_box(line)));
            }
        });
    }
}

/// A writer line with its first field (`cycle`) moved to the end: the
/// same event, out of the writer's field order. Writer lines carry
/// labels only, so no value holds a `,`.
fn rotate_fields(line: &str) -> String {
    let inner = line.trim_start_matches('{').trim_end_matches('}');
    let (first, rest) = inner.split_once(',').expect("every line has two fields");
    let rotated = format!("{{{rest},{first}}}");
    assert_eq!(Event::from_jsonl(&rotated), Event::from_jsonl(line));
    rotated
}

/// How a variant arms the switch's tracer before the timed loop.
type Arm = fn(&mut QosSwitch);

fn main() {
    jsonl_codec();
    for radix in [8usize, 16] {
        group(&format!("trace_overhead/{radix}"));
        let variants: [(&str, Arm); 3] = [
            ("off", |_| {}),
            ("null_sink", |s| {
                s.tracer_mut().attach(Box::new(NullSink));
            }),
            ("ring", |s| s.tracer_mut().attach_ring(4096)),
        ];
        for (name, arm) in variants {
            let mut switch = hotspot_switch(radix);
            arm(&mut switch);
            let mut now = Cycle::ZERO;
            bench(&format!("trace_overhead/{radix}"), name, || {
                switch.step(black_box(now));
                now = now.next();
            });
        }
    }
}
