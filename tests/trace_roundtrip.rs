//! Cross-crate integration: capture a live workload as a trace file,
//! replay it into a fresh switch, and verify the replay reproduces the
//! original run exactly; and read a traced run's JSONL back through
//! `ssq trace-report` whatever shape its lines take, fault and fabric
//! activity included.

mod common;

use common::{ssq_in, Scratch};
use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig};
use swizzle_qos::sim::{Runner, Schedule};
use swizzle_qos::traffic::{
    Bernoulli, FixedDest, Injector, Replay, TraceEvent, TraceFile, UniformDest,
};
use swizzle_qos::types::{Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

fn base_config() -> SwitchConfig {
    let mut config = SwitchConfig::builder(Geometry::new(4, 128).unwrap())
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .build()
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(
            InputId::new(0),
            OutputId::new(0),
            Rate::new(0.5).unwrap(),
            4,
        )
        .unwrap();
    config
        .reservations_mut()
        .reserve_gb(
            InputId::new(1),
            OutputId::new(0),
            Rate::new(0.3).unwrap(),
            4,
        )
        .unwrap();
    config
}

/// Runs the original stochastic workload, capturing deliveries.
fn original_run() -> (QosSwitch, Vec<(Cycle, swizzle_qos::types::PacketSpec)>) {
    let mut switch = QosSwitch::new(base_config()).unwrap();
    switch.set_delivery_log(true);
    switch.add_injector(
        Injector::new(
            Box::new(Bernoulli::new(0.4, 4, 71)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(0)),
    );
    switch.add_injector(
        Injector::new(
            Box::new(Bernoulli::new(0.25, 4, 72)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(1)),
    );
    switch.add_injector(
        Injector::new(
            Box::new(Bernoulli::new(0.2, 2, 73)),
            Box::new(UniformDest::new(4, 74)),
            TrafficClass::BestEffort,
        )
        .for_input(InputId::new(2)),
    );
    let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(20_000))).run(&mut switch);
    let deliveries = switch.drain_deliveries();
    (switch, deliveries)
}

#[test]
fn captured_trace_replays_to_identical_deliveries() {
    let (original, deliveries) = original_run();
    assert!(
        deliveries.len() > 1000,
        "workload too thin to be meaningful"
    );

    // Capture: creation-time events of everything that was delivered.
    let events: Vec<TraceEvent> = deliveries
        .iter()
        .map(|(_, spec)| TraceEvent {
            cycle: spec.created().value(),
            input: spec.flow().input(),
            output: spec.flow().output(),
            class: spec.class(),
            len_flits: spec.len_flits(),
        })
        .collect();
    let text = TraceFile::from_events(events).to_string();

    // Replay the text into a fresh switch through the replay path
    // `ssq simulate --replay` uses.
    let mut replay = QosSwitch::new(base_config()).unwrap();
    replay.set_delivery_log(true);
    let file = Replay::open(std::io::Cursor::new(text), 4).unwrap();
    replay.add_replay(file);
    let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(25_000))).run(&mut replay);
    let replayed = replay.drain_deliveries();

    // Same number of packets delivered, same per-flow flit totals, and
    // (because the arrival schedule and arbitration are identical) the
    // same creation-cycle sequence per flow.
    assert_eq!(replayed.len(), deliveries.len());
    for i in 0..4 {
        for o in 0..4 {
            let flow = FlowId::new(InputId::new(i), OutputId::new(o));
            for metrics in [
                (original.gb_metrics(), replay.gb_metrics()),
                (original.be_metrics(), replay.be_metrics()),
            ] {
                assert_eq!(
                    metrics.0.flow(flow).flits(),
                    metrics.1.flow(flow).flits(),
                    "flit totals diverged on {flow}"
                );
            }
        }
    }
    let creation = |log: &[(Cycle, swizzle_qos::types::PacketSpec)]| {
        let mut v: Vec<(usize, u64)> = log
            .iter()
            .map(|(_, s)| (s.flow().input().index(), s.created().value()))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(creation(&deliveries), creation(&replayed));
}

/// `ssq trace-report` on a traced run's JSONL with every other line
/// rewritten out of the writer's shape — fields rotated, whitespace
/// padded, an unknown key added, a CRLF ending — prints byte for byte
/// what it prints for the file as written.
#[test]
fn trace_report_reads_any_line_shape_to_the_same_report() {
    let dir = Scratch::new("trace-shape");
    let (written, rewritten) = (dir.join("written"), dir.join("rewritten"));
    for d in [&written, &rewritten] {
        std::fs::create_dir_all(d).expect("scratch subdir");
    }
    let run = ssq_in(
        &written,
        &[
            "simulate",
            "--radix",
            "4",
            "--cycles",
            "3000",
            "--warmup",
            "100",
            "--chaining",
            "--reserve",
            "0:0:40",
            "--reserve",
            "1:0:30",
            "--gl-reserve",
            "0:5",
            "--flow",
            "0:0:GB:sat",
            "--flow",
            "1:0:GB:sat",
            "--flow",
            "2:0:BE:sat",
            "--flow",
            "3:0:GL:0.01:1",
            "--trace",
            "--trace-out",
            "t.jsonl",
        ],
    );
    assert!(run.status.success(), "{}", common::stderr(&run));
    let text = std::fs::read_to_string(written.join("t.jsonl")).expect("trace written");
    for kind in ["grant", "chained", "inhibit", "auxvc", "decay", "reject"] {
        assert!(
            text.contains(&format!("\"kind\":\"{kind}\"")),
            "no {kind} event"
        );
    }

    let mut out = String::new();
    for (n, line) in text.lines().enumerate() {
        if n % 2 == 0 {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        // Writer lines carry labels only, so no value holds a `,`.
        let fields: Vec<&str> = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .expect("one flat object")
            .split(',')
            .collect();
        let shaped = match (n / 2) % 4 {
            0 => format!("{{{},{}}}\n", fields[1..].join(","), fields[0]),
            1 => format!(" {{ {} }}\t\n", fields.join(" ,\t")),
            2 => format!("{{\"note\":\"x\",{}}}\n", fields.join(",")),
            _ => format!("{line}\r\n"),
        };
        assert_ne!(shaped, format!("{line}\n"));
        out.push_str(&shaped);
    }
    std::fs::write(rewritten.join("t.jsonl"), out).expect("rewrite");

    for args in [
        &["trace-report", "--in", "t.jsonl"][..],
        &["trace-report", "--in", "t.jsonl", "--csv"],
    ] {
        let (want, got) = (ssq_in(&written, args), ssq_in(&rewritten, args));
        assert!(want.status.success(), "{}", common::stderr(&want));
        assert!(got.status.success(), "{}", common::stderr(&got));
        assert!(!want.stdout.is_empty());
        assert_eq!(
            String::from_utf8_lossy(&got.stdout),
            String::from_utf8_lossy(&want.stdout),
            "{args:?}"
        );
    }
}

/// `ssq trace-report` prints the fault and fabric activity a trace
/// holds, after the other sections; `--csv` stays the grant table alone.
#[test]
fn trace_report_prints_fault_and_fabric_activity() {
    let dir = Scratch::new("trace-faults");
    let cwd = dir.join("run");
    std::fs::create_dir_all(&cwd).expect("scratch subdir");
    for args in [
        &["faults", "--scenario", "aux-seu", "--trace-dir", "d"][..],
        &["net", "--scenario", "chain-nack-blip", "--trace-dir", "d"],
    ] {
        let run = ssq_in(&cwd, args);
        assert!(run.status.success(), "{args:?}: {}", common::stderr(&run));
    }
    for (trace, tail) in [
        (
            "d/aux-seu.jsonl",
            "\nfault activity:\n\
             what                 detail  count\n\
             ----------------------------------\n\
             inject         aux_bit_flip      1\n\
             detected            SSQV003      2\n\
             degraded  out0 lrg_fallback      1\n\
             degraded         out0 retry      1\n\
             revoked           in0->out0      1\n",
        ),
        (
            "d/chain-nack-blip.jsonl",
            "\nfabric activity:\n\
             what             detail  count\n\
             ------------------------------\n\
             hop_enqueue       link0    272\n\
             hop_enqueue       link1    272\n\
             hop_enqueue       link2    271\n\
             nack_retransmit   link1      4\n",
        ),
    ] {
        let text = ssq_in(&cwd, &["trace-report", "--in", trace]);
        assert!(text.status.success(), "{trace}: {}", common::stderr(&text));
        let text = String::from_utf8_lossy(&text.stdout);
        assert!(text.ends_with(tail), "{trace}: {text}");
        // A hop trace has no grants, so no grant table either.
        let grants = text.contains("per-flow grant latency");
        assert_eq!(grants, trace.ends_with("aux-seu.jsonl"), "{trace}: {text}");
        let csv = ssq_in(&cwd, &["trace-report", "--in", trace, "--csv"]);
        let csv = String::from_utf8_lossy(&csv.stdout);
        assert!(csv.starts_with("flow,class,grants,"), "{trace}: {csv}");
        assert!(!csv.contains("activity"), "{trace}: {csv}");
    }
}
