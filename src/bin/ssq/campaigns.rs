//! `ssq faults` and `ssq net`: the single-switch and multi-hop chaos
//! campaigns.

use std::error::Error;

use swizzle_qos::stats::Table;
use swizzle_qos::trace::Event;

use crate::opts::{err, Opts};

/// Writes `events` to `path` as JSONL, the `--trace-dir` export of
/// `ssq faults` and `ssq net`.
fn write_trace(path: &std::path::Path, events: &[Event]) -> Result<(), Box<dyn Error>> {
    let mut text = Vec::new();
    for event in events {
        event.write_jsonl(&mut text);
        text.push(b'\n');
    }
    std::fs::write(path, text).map_err(|e| err(format!("writing {}: {e}", path.display())))
}

/// `ssq faults [--smoke | --scenario NAME] [--seed N] [--trace-dir DIR]`:
/// run the chaos-campaign catalog (or one scenario) and judge each run
/// with the two-outcome oracle. Exits non-zero on a silent violation —
/// a tripped watchdog with no revocation or degradation on record.
pub(crate) fn faults_cmd(args: &[String]) -> Result<(), Box<dyn Error>> {
    use swizzle_qos::faults::{run_scenario, run_smoke, Verdict, SCENARIOS};

    let opts = Opts::parse(args, &["smoke", "csv"], &["scenario", "seed", "trace-dir"])?;
    let seed = opts.num("seed", 7)?;
    let results = match opts.get("scenario") {
        Some(name) => {
            let result = run_scenario(name, seed).ok_or_else(|| {
                let names: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
                err(format!(
                    "unknown scenario {name:?}; catalog: {}",
                    names.join(", ")
                ))
            })?;
            vec![result]
        }
        None => run_smoke(seed),
    };

    if let Some(dir) = opts.get("trace-dir") {
        std::fs::create_dir_all(dir).map_err(|e| err(format!("creating {dir:?}: {e}")))?;
        for r in &results {
            let path = std::path::Path::new(dir).join(format!("{}.jsonl", r.name));
            write_trace(&path, &r.events)?;
        }
        if !opts.flag("csv") {
            println!("scenario traces written to {dir}/<scenario>.jsonl");
        }
    }

    let mut table = Table::with_columns(&[
        "scenario",
        "verdict",
        "detected",
        "degraded",
        "revoked",
        "faults",
        "delivered flits",
    ]);
    table.numeric();
    for r in &results {
        let (verdict, detected, degraded, revoked) = match &r.verdict {
            Verdict::BoundsPreserved => ("bounds-preserved".to_owned(), 0, 0, 0),
            Verdict::Revoked {
                revocations,
                degradations,
                detections,
            } => (
                "revoked".to_owned(),
                *detections,
                *degradations,
                *revocations,
            ),
            Verdict::SilentViolation { reason } => (format!("SILENT VIOLATION: {reason}"), 0, 0, 0),
        };
        table.row(vec![
            r.name.clone(),
            verdict,
            detected.to_string(),
            degraded.to_string(),
            revoked.to_string(),
            r.fault_injections.to_string(),
            r.delivered_flits.to_string(),
        ]);
    }
    if opts.flag("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
        for r in &results {
            for note in &r.notes {
                println!("note[{}]: {note}", r.name);
            }
        }
    }

    let silent: Vec<&str> = results
        .iter()
        .filter(|r| !r.verdict.is_acceptable())
        .map(|r| r.name.as_str())
        .collect();
    if !silent.is_empty() {
        return Err(err(format!(
            "silent violation in scenario(s): {} — a guarantee broke with no \
             structured revocation on record",
            silent.join(", ")
        )));
    }
    if !opts.flag("csv") {
        println!(
            "\ncampaign clean: {} scenario(s), seed {seed} — every fault either \
             absorbed or loudly revoked",
            results.len()
        );
    }
    Ok(())
}

/// `ssq net [--smoke | --scenario NAME] [--seed N] [--trace-dir DIR]`:
/// run the multi-hop chaos catalog (or one scenario) and judge each run
/// with the end-to-end oracle. The smoke tier runs every scenario twice
/// from the same seed, the second time on the dense oracle; any
/// divergence is reported as a silent violation. Exits non-zero if any
/// scenario's verdict is unacceptable.
pub(crate) fn net_cmd(args: &[String]) -> Result<(), Box<dyn Error>> {
    use swizzle_qos::faults::Verdict;
    use swizzle_qos::net::{run_net_scenario, run_net_smoke, NET_SCENARIOS};

    let opts = Opts::parse(args, &["smoke", "csv"], &["scenario", "seed", "trace-dir"])?;
    let seed = opts.num("seed", 7)?;
    let results = match opts.get("scenario") {
        Some(name) => {
            let result = run_net_scenario(name, seed).ok_or_else(|| {
                let names: Vec<&str> = NET_SCENARIOS.iter().map(|(n, _)| *n).collect();
                err(format!(
                    "unknown scenario {name:?}; catalog: {}",
                    names.join(", ")
                ))
            })?;
            vec![result]
        }
        None => run_net_smoke(seed),
    };

    if let Some(dir) = opts.get("trace-dir") {
        std::fs::create_dir_all(dir).map_err(|e| err(format!("creating {dir:?}: {e}")))?;
        for r in &results {
            let dir = std::path::Path::new(dir);
            write_trace(&dir.join(format!("{}.jsonl", r.name)), &r.fabric_events)?;
            for (i, ring) in r.node_events.iter().enumerate() {
                write_trace(&dir.join(format!("{}.node{i}.jsonl", r.name)), ring)?;
            }
        }
        if !opts.flag("csv") {
            println!("scenario traces written to {dir}/<scenario>[.node<i>].jsonl");
        }
    }

    let mut table = Table::with_columns(&[
        "scenario",
        "verdict",
        "first violation",
        "revoked",
        "dropped",
        "retransmits",
        "reroutes",
        "delivered flits",
    ]);
    table.numeric();
    for r in &results {
        let verdict = match &r.verdict.overall {
            Verdict::BoundsPreserved => "bounds-preserved".to_owned(),
            Verdict::Revoked { .. } => "revoked".to_owned(),
            Verdict::SilentViolation { reason } => format!("SILENT VIOLATION: {reason}"),
        };
        let first = match &r.verdict.first_violation {
            Some((site, at)) => format!("{site}@{at}"),
            None => "-".to_owned(),
        };
        table.row(vec![
            r.name.clone(),
            verdict,
            first,
            r.counters.revocations.to_string(),
            r.counters.dropped_packets.to_string(),
            r.counters.retransmits.to_string(),
            r.counters.reroutes.to_string(),
            r.counters.delivered_flits.to_string(),
        ]);
    }
    if opts.flag("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }

    let silent: Vec<&str> = results
        .iter()
        .filter(|r| !r.verdict.is_acceptable())
        .map(|r| r.name.as_str())
        .collect();
    if !silent.is_empty() {
        return Err(err(format!(
            "silent violation in scenario(s): {} — an end-to-end guarantee \
             broke with no structured revocation on record",
            silent.join(", ")
        )));
    }
    if !opts.flag("csv") {
        println!(
            "\nfabric campaign clean: {} scenario(s), seed {seed} — every topology \
             fault either absorbed or loudly revoked at a named hop",
            results.len()
        );
    }
    Ok(())
}
