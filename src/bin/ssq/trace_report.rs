//! `ssq trace-report`: summarize a JSONL event trace.

use std::error::Error;
use std::io::BufRead;

use swizzle_qos::trace::{Event, TraceSummary};

use crate::opts::{err, Opts};

pub(crate) fn trace_report(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["csv"], &["in"])?;
    let path = opts.get("in").unwrap_or("results/trace.jsonl");
    let file =
        std::fs::File::open(path).map_err(|e| err(format!("reading trace {path:?}: {e}")))?;
    // Streamed: one reused line buffer feeds the summary, so memory is
    // the summary's, not the trace's.
    let mut reader = std::io::BufReader::with_capacity(1 << 16, file);
    let mut summary = TraceSummary::default();
    let mut line = String::new();
    let mut n = 0u64;
    loop {
        line.clear();
        n += 1;
        // A line that is not UTF-8 (a binary blob) is an `InvalidData` error.
        let read = reader.read_line(&mut line);
        if read.map_err(|e| err(format!("{path}:{n}: {e}")))? == 0 {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        summary.ingest(&Event::from_jsonl(&line).map_err(|e| err(format!("{path}:{n}: {e}")))?);
    }
    if opts.flag("csv") {
        print!("{}", summary.grant_table().to_csv());
        return Ok(());
    }
    match summary.span {
        Some((lo, hi)) => println!("{} events over cycles {lo}..={hi} ({path})", summary.events),
        None => {
            println!("empty trace ({path})");
            return Ok(());
        }
    }
    println!("\nper-flow grant latency (cycles):");
    print!("{}", summary.grant_table().to_text());
    if !summary.inhibits.is_empty() {
        println!("\ninhibits and auxVC saturations:");
        print!("{}", summary.contention_table().to_text());
    }
    if !summary.decay_epochs.is_empty() || !summary.gl_policed_cycles.is_empty() {
        println!("\nper-output decay epochs / policed cycles:");
        print!("{}", summary.output_table().to_text());
    }
    if !summary.rejects.is_empty() {
        println!("\nadmission rejections:");
        print!("{}", summary.reject_table().to_text());
    }
    if summary.has_fault_activity() {
        println!("\nfault activity:");
        print!("{}", summary.fault_table().to_text());
    }
    if summary.has_fabric_activity() {
        println!("\nfabric activity:");
        print!("{}", summary.fabric_table().to_text());
    }
    Ok(())
}
