//! The fabric workload's child process.
//!
//! `ssq net` runs only its built-in chaos catalog, so a custom fabric is
//! driven through the library: this program reads a generated
//! [`FabricSpec`], builds the `Fabric`, runs it under `Runner`, judges
//! the path, and prints a report — the whole of what a user of the
//! library would do, timed from outside by `qosbench` exactly as an
//! `ssq simulate` child is. It installs no counting allocator, so the
//! timed run uses the allocator users get.
//!
//! The report is deterministic for a given spec: two runs must print
//! identical bytes.

use std::process::ExitCode;

use qosbench::gen::FabricSpec;
use swizzle_qos::net::{judge_path, Fabric};
use swizzle_qos::sim::{MonitorOutcome, Runner, Schedule};
use swizzle_qos::types::Cycles;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: fabric-run SPEC_FILE");
        return ExitCode::from(2);
    };
    let spec = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| FabricSpec::from_text(&text))
    {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("fabric-run: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut fabric = match Fabric::new(spec.topology(), &spec.flows, spec.seed) {
        Ok(fabric) => fabric,
        Err(e) => {
            eprintln!("fabric-run: fabric refused: {e}");
            return ExitCode::from(2);
        }
    };
    let schedule = Schedule::new(Cycles::new(spec.warmup), Cycles::new(spec.cycles));
    let end = Runner::new(schedule).run(&mut fabric);
    let verdict = judge_path(
        &MonitorOutcome::Completed(end),
        &fabric.node_events(),
        fabric.events(),
    );

    println!("flow,class,injected,delivered_packets,delivered_flits,latency_sum,latency_max,lost");
    for (i, flow) in spec.flows.iter().enumerate() {
        let s = fabric.flow_stats(i);
        println!(
            "{}->{},{},{},{},{},{},{},{}",
            flow.src,
            flow.dest,
            flow.class.label(),
            s.injected_packets,
            s.delivered_packets,
            s.delivered_flits,
            s.latency_sum,
            s.latency_max,
            s.lost_packets
        );
    }
    println!("counters,{:?}", fabric.counters());
    println!("hop_events,{}", fabric.events().len());
    println!(
        "verdict,{}",
        if verdict.is_acceptable() {
            "acceptable"
        } else {
            "unacceptable"
        }
    );
    if verdict.is_acceptable() {
        ExitCode::SUCCESS
    } else {
        eprintln!("fabric-run: path verdict {:?}", verdict.overall);
        ExitCode::FAILURE
    }
}
