//! Workspace automation for swizzle-qos.
//!
//! ```text
//! cargo run -p xtask -- lint           # the four in-tree rules (ssq-lint)
//! cargo run -p xtask -- verify         # fast-tier model check (2x2)
//! cargo run -p xtask -- verify --deep  # + deep tier (4x4, bounded)
//! ```
//!
//! The lint pass runs the [`ssq_lint`] rules stock clippy cannot express
//! (DESIGN.md §10 has the table of what clippy enforces instead).
//! Findings print as `file:line · rule · message` and any finding fails
//! the pass.
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

const USAGE: &str = "usage: cargo run -p xtask -- <lint | verify [--deep]>";

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

/// Runs the [`ssq_lint`] rules over the workspace; any finding fails.
fn lint(args: &[String]) -> ExitCode {
    if let Some(other) = args.first() {
        eprintln!("unknown lint flag `{other}`");
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let sources = match ssq_lint::load_workspace(&workspace_root()) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("cannot load workspace sources: {err}");
            return ExitCode::FAILURE;
        }
    };
    let files = sources.len();
    let findings = ssq_lint::check_sources(sources);
    if findings.is_empty() {
        println!("lint clean: {files} files, {} rules", ssq_lint::RULES.len());
        return ExitCode::SUCCESS;
    }
    for finding in &findings {
        eprintln!("{finding}");
    }
    eprintln!("{} lint finding(s)", findings.len());
    ExitCode::FAILURE
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
