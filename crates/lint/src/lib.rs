//! # ssq-lint — the four checks no stock lint expresses
//!
//! The workspace's static gate is stock `cargo clippy` (the disposition
//! table is DESIGN.md §10). What stays here are four token rules that
//! tie names *this* codebase chose to contracts from its design:
//!
//! * `invariant-site-coverage` — a grant/inhibit/chain emission in the
//!   switch core sits within sight of a `sanitize::` check;
//! * `no-silent-degrade` — a QoS degradation sits within sight of a
//!   fault-family trace event;
//! * `must-use-decision` — `*Decision` / `*Grant` / `*Outcome` types are
//!   `#[must_use]`;
//! * `no-shared-mut-in-shards` — the files `decide_output` reaches hold
//!   no lock, atomic, interior mutability, static, wall clock or I/O.
//!
//! Under them: [`lexer`], a hand-rolled Rust lexer (the build is
//! offline, so no `syn`), and [`source`], the per-file view that masks
//! strings and comments and knows which lines are test code. A finding
//! has no waiver syntax and no baseline: fix the site. A rule's scope
//! that names a file the workspace does not have is a finding too
//! ([`check_workspace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub mod lexer;
mod rules;
pub mod source;

pub use source::SourceFile;

/// The rules, in listing order.
pub const RULES: [&str; 4] = [
    "invariant-site-coverage",
    "must-use-decision",
    "no-shared-mut-in-shards",
    "no-silent-degrade",
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number; 0 when the finding is about a whole file.
    pub line: usize,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} · {} · {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Runs every rule over in-memory sources — `(workspace-relative path,
/// text)` pairs — and returns the findings ordered by file, line, rule.
#[must_use]
pub fn check_sources(sources: Vec<(String, String)>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rel, text) in sources {
        rules::check_file(&SourceFile::new(&rel, text), &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Runs every rule over the workspace's sources, as [`check_sources`]
/// does, after a finding for each file a rule's scope names that
/// `sources` does not hold (at line 0: it is about the whole file).
#[must_use]
pub fn check_workspace(sources: Vec<(String, String)>) -> Vec<Finding> {
    let mut findings: Vec<Finding> = rules::NAMED_FILES
        .iter()
        .flat_map(|&(rule, files)| files.iter().map(move |&file| (rule, file)))
        .filter(|&(_, file)| !sources.iter().any(|(rel, _)| rel == file))
        .map(|(rule, file)| Finding {
            rule,
            file: file.to_owned(),
            line: 0,
            message: "the rule's scope names this file and the workspace has none; fix \
                      the list in crates/lint/src/rules.rs"
                .to_owned(),
        })
        .collect();
    findings.extend(check_sources(sources));
    findings
}

/// Loads every workspace Rust source the rules see: the `crates/*/src`
/// trees plus the root `src/` tree, sorted by relative path.
///
/// # Errors
///
/// Any I/O error from walking or reading the trees.
pub fn load_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(root, &src, &mut sources)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(root, &root_src, &mut sources)?;
    }
    sources.sort();
    Ok(sources)
}

/// Recursively collects `.rs` files under `dir` as `(rel, text)`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}
