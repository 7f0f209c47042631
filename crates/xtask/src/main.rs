//! Workspace automation for swizzle-qos.
//!
//! ```text
//! cargo run -p xtask -- lint                    # token-aware static analysis
//! cargo run -p xtask -- lint --json             # machine-readable diagnostics
//! cargo run -p xtask -- lint --update-baseline  # re-grandfather current findings
//! cargo run -p xtask -- verify                  # fast-tier model check (2x2)
//! cargo run -p xtask -- verify --deep           # + deep tier (4x4, bounded)
//! ```
//!
//! The lint pass is the [`ssq_lint`] engine: an in-tree lexer and
//! item/call-graph parser (no external dependencies) running the nine
//! legacy rules token-aware plus four semantic lints (`shard-purity`,
//! `panic-freedom-reachability`, `no-nondeterministic-order`,
//! `feature-gate-hygiene`). Findings print as
//! `file:line · RULE · message`; a finding can be waived in place with
//! `// ssq-lint: allow(<rule>)` on (or immediately above) the line, and
//! legacy findings recorded in `lint-baseline.txt` don't block CI —
//! only *new* ones fail the pass.
//!
//! The verify pass runs the [`ssq_verify`] bounded exhaustive model
//! checker over the fast-tier scenario battery (and, with `--deep`, the
//! 4x4 deep tier), printing per-scenario state counts and failing the
//! process on the first invariant violation (the minimal counterexample
//! trace is printed as ssq-trace JSONL).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod diffcheck;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: cargo run -p xtask -- <lint [--json] [--update-baseline] | verify [--deep]>";

/// Runs the model-checker tiers: the fast battery always, the deep
/// battery with `--deep`. Prints one line per scenario and the first
/// counterexample (as replayable JSONL) on violation.
fn verify(args: &[String]) -> ExitCode {
    let mut deep = false;
    for arg in args {
        match arg.as_str() {
            "--deep" => deep = true,
            other => {
                eprintln!("unknown verify flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut batteries = vec![("fast", ssq_verify::tier::fast_scenarios())];
    if deep {
        batteries.push(("deep", ssq_verify::tier::deep_scenarios()));
    }

    for (tier, scenarios) in batteries {
        let started = std::time::Instant::now();
        let count = scenarios.len();
        let mut states = 0usize;
        let mut transitions = 0u64;
        for scenario in scenarios {
            let outcome = ssq_verify::verify_scenario(&scenario);
            states += outcome.states;
            transitions += outcome.transitions;
            println!(
                "verify[{tier}] {:<28} {:>7} states {:>8} transitions {}",
                outcome.scenario,
                outcome.states,
                outcome.transitions,
                if outcome.closed { "closed" } else { "clipped" },
            );
            if let Some(cx) = outcome.violation {
                eprintln!(
                    "verify[{tier}] {}: {} ({}) violated at depth {}: {}",
                    outcome.scenario,
                    cx.invariant,
                    cx.code,
                    cx.depth(),
                    cx.detail,
                );
                eprintln!("counterexample trace (ssq-trace JSONL):");
                eprintln!("{}", cx.to_jsonl());
                return ExitCode::FAILURE;
            }
        }
        println!(
            "verify[{tier}] clean: {count} scenarios, {states} states, {transitions} transitions \
             in {:.2}s",
            started.elapsed().as_secs_f64(),
        );
    }

    // The engine-conformance battery rides the fast tier: every scenario
    // runs on the scalar reference kernel and under all three engines,
    // and any observable difference from the reference fails verify.
    let started = std::time::Instant::now();
    let report = diffcheck::run_battery();
    for line in &report.lines {
        println!("{line}");
    }
    if !report.failures.is_empty() {
        for failure in &report.failures {
            eprintln!("verify[diff] ENGINE DIVERGENCE: {failure}");
        }
        return ExitCode::FAILURE;
    }
    println!(
        "verify[diff] clean: {} scenarios, every engine == reference in {:.2}s",
        report.lines.len(),
        started.elapsed().as_secs_f64(),
    );
    ExitCode::SUCCESS
}

/// Drives the [`ssq_lint`] engine over the workspace, partitions the
/// findings against `lint-baseline.txt`, and fails on anything new.
fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut update_baseline = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("unknown lint flag `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let sources = match ssq_lint::load_workspace(&root) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("cannot load workspace sources: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = ssq_lint::run_sources(sources, &ssq_lint::EngineConfig::default());

    let baseline_path = root.join(ssq_lint::BASELINE_FILE);
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    let baseline = ssq_lint::Baseline::parse(&baseline_text);
    baseline.apply(&mut report.diagnostics);

    if update_baseline {
        let rendered = ssq_lint::baseline::render(&report.diagnostics);
        if let Err(err) = std::fs::write(&baseline_path, rendered) {
            eprintln!("cannot write {}: {err}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "lint baseline updated: {} finding(s) grandfathered in {}",
            report.diagnostics.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    if json {
        // The JSON document goes to stdout (pipe it into results/);
        // human summaries below go to stderr so the stream stays pure.
        print!(
            "{}",
            ssq_lint::render_json(
                &report.diagnostics,
                &report.discharged,
                report.files_scanned,
                &ssq_lint::rule_names(),
            )
        );
    }

    let blocking = report.blocking();
    let baselined = report.diagnostics.iter().filter(|d| d.baselined).count();
    if blocking.is_empty() {
        let summary = format!(
            "lint clean: {} files, {} rules, {} baselined finding(s), {} discharged, 0 new",
            report.files_scanned,
            ssq_lint::LINTS.len(),
            baselined,
            report.discharged.len(),
        );
        if json {
            eprintln!("{summary}");
        } else {
            println!("{summary}");
        }
        ExitCode::SUCCESS
    } else {
        for d in &blocking {
            eprintln!("{}", d.render());
        }
        eprintln!(
            "{} new lint finding(s) ({} baselined); fix them, waive with \
             `// ssq-lint: allow(<rule>)`, or (deliberately) run \
             `cargo xtask lint --update-baseline`",
            blocking.len(),
            baselined,
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/xtask`, two up.
fn workspace_root() -> PathBuf {
    let manifest =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| String::from(".")));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
