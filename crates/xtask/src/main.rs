//! Workspace automation for swizzle-qos.
//!
//! ```text
//! cargo run -p xtask -- lint           # the four in-tree rules (ssq-lint)
//! ```
//!
//! The lint pass runs the [`ssq_lint`] rules stock clippy cannot express
//! (DESIGN.md §10 has the table of what clippy enforces instead).
//! Findings print as `file:line · rule · message` and any finding fails
//! the pass, a rule's scope naming a file the workspace does not have
//! among them. The model checker is `ssq verify`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
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

const USAGE: &str = "usage: cargo run -p xtask -- lint";

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
    let findings = ssq_lint::check_workspace(sources);
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
