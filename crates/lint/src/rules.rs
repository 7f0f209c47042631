//! The four rules no stock lint can express: each ties a *name* this
//! codebase gave something (an event kind, a degradation setter, a
//! decision type, the decide kernel's files) to a contract from
//! DESIGN.md. Matching happens on code tokens, or on the code-only line
//! render for the window rules, so nothing fires inside a string
//! literal or a comment.

use crate::lexer::{Token, TokenKind};
use crate::source::{attr_end, SourceFile};
use crate::Finding;

/// Runs every rule whose scope covers `file`.
pub(crate) fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    let rel = file.rel.as_str();
    must_use_decision(file, out);
    if rel == "crates/core/src/switch.rs" {
        invariant_site_coverage(file, out);
    }
    if in_decide_reach(rel) {
        no_shared_mut_in_shards(file, out);
    }
    if rel.starts_with("crates/core/src/") || rel.starts_with("crates/faults/src/") {
        no_silent_degrade(file, out);
    }
}

/// The files `QosSwitch::decide_output` reaches (read off the retired
/// call graph): the arbiters and the core modules the kernel reads.
fn in_decide_reach(rel: &str) -> bool {
    const CORE: &[&str] = &[
        "decide.rs",
        "port.rs",
        "channel.rs",
        "bitmask.rs",
        "faultctl.rs",
    ];
    rel.strip_prefix("crates/arbiter/src/").is_some()
        || rel
            .strip_prefix("crates/core/src/")
            .is_some_and(|name| CORE.contains(&name))
}

fn push(file: &SourceFile, out: &mut Vec<Finding>, rule: &'static str, line: usize, msg: String) {
    out.push(Finding {
        rule,
        file: file.rel.clone(),
        line: line + 1,
        message: msg,
    });
}

/// `must-use-decision`: arbitration result types (`*Decision`, `*Grant`,
/// `*Outcome`) must be `#[must_use]` — dropping one silently discards an
/// arbitration.
fn must_use_decision(file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<&Token> = file.code_tokens().collect();
    let text = |at: usize| code.get(at).map_or("", |t| t.text(&file.text));
    // Whether a `must_use` sits among the attributes directly above.
    let mut marked = false;
    let mut at = 0;
    while at < code.len() {
        if text(at) == "#" && text(at + 1) == "[" {
            let end = attr_end(&file.text, &code, at);
            marked |= (at..end).any(|j| text(j) == "must_use");
            at = end;
            continue;
        }
        let name = text(at + 1);
        if matches!(text(at), "struct" | "enum")
            && code.get(at + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            && ["Decision", "Grant", "Outcome"]
                .iter()
                .any(|suffix| name.ends_with(suffix) && name.len() > suffix.len())
            && !marked
            && !file.is_test_line(code[at].line)
        {
            push(
                file,
                out,
                "must-use-decision",
                code[at].line,
                format!(
                    "arbitration result type `{name}` must be #[must_use]: dropping one \
                     discards a grant"
                ),
            );
        }
        // Only the visibility may stand between attributes and keyword.
        if !matches!(text(at), "pub" | "(" | "crate" | "super" | "in" | ")") {
            marked = false;
        }
        at += 1;
    }
}

/// Whether `needle` occurs in the code-line `line` *not* followed by an
/// identifier continuation.
fn find_token(line: &str, needle: &str) -> bool {
    line.match_indices(needle).any(|(at, _)| {
        line[at + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_')
    })
}

/// How many lines may separate a site from the check or event that
/// covers it, for both window rules.
const WINDOW: usize = 25;

/// `invariant-site-coverage`: every grant/inhibit/chain emission site in
/// the switch core must sit within sight of a sanitizer check — a
/// `sanitize::` call in the preceding window — so the runtime
/// invariant-sanitizer (DESIGN.md §7) cannot silently drift out of the
/// hot path as the code evolves.
fn invariant_site_coverage(file: &SourceFile, out: &mut Vec<Finding>) {
    const SITES: &[&str] = &[
        "EventKind::Grant",
        "EventKind::Inhibit",
        "EventKind::Chained",
    ];
    let lines = file.code_lines();
    for (idx, line) in lines.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        let Some(site) = SITES.iter().find(|s| find_token(line, s)) else {
            continue;
        };
        let start = idx.saturating_sub(WINDOW);
        if !lines[start..=idx].iter().any(|l| l.contains("sanitize::")) {
            push(
                file,
                out,
                "invariant-site-coverage",
                idx,
                format!(
                    "{site} emission has no paired sanitize:: check within {WINDOW} lines; \
                     add the invariant-sanitizer call"
                ),
            );
        }
    }
}

/// `no-shared-mut-in-shards`: everything `decide_output` reaches must
/// stay a pure function of the prepared snapshot — no locks, atomics,
/// interior mutability, statics, wall clock or I/O. The sharded
/// engine's determinism argument (DESIGN.md §9) rests on it: workers
/// call the kernel concurrently through a shared `&self`.
fn no_shared_mut_in_shards(file: &SourceFile, out: &mut Vec<Finding>) {
    const NAMES: &[&str] = &[
        "Mutex",
        "RwLock",
        "Condvar",
        "Cell",
        "RefCell",
        "UnsafeCell",
        "OnceCell",
        "OnceLock",
        "LazyLock",
        "atomic",
        "static",
        "Instant",
        "SystemTime",
    ];
    const STD_MODULES: &[&str] = &["fs", "io", "net", "process", "env", "thread", "time"];
    // Non-test code tokens as `(line, text)`.
    let tokens: Vec<(usize, &str)> = file
        .code_tokens()
        .filter(|t| !file.is_test_line(t.line))
        .map(|t| (t.line, t.text(&file.text)))
        .collect();
    for (k, &(line, text)) in tokens.iter().enumerate() {
        let std_path = STD_MODULES.contains(&text)
            && k >= 3
            && [tokens[k - 3].1, tokens[k - 2].1, tokens[k - 1].1] == ["std", ":", ":"];
        if NAMES.contains(&text) || text.starts_with("Atomic") || std_path {
            let what = if std_path {
                format!("std::{text}")
            } else {
                text.to_owned()
            };
            push(
                file,
                out,
                "no-shared-mut-in-shards",
                line,
                format!(
                    "`{what}` in code the shard decide kernel reaches; decide_output must \
                     stay a pure function of the prepared snapshot (no shared mutable \
                     state, statics, wall clock or I/O)"
                ),
            );
        }
    }
}

/// `no-silent-degrade`: every QoS degradation site — flipping an output
/// into LRG fallback or GL demotion, or re-running admission — must sit
/// within sight of a fault-family trace emission. The two-outcome
/// contract of DESIGN.md §8 says a guarantee never weakens without a
/// structured event on the record.
fn no_silent_degrade(file: &SourceFile, out: &mut Vec<Finding>) {
    const SITES: &[&str] = &[".set_lrg_fallback(", ".set_gl_demoted(", ".readmit("];
    const LOUD: &[&str] = &[
        "EventKind::Degraded",
        "EventKind::GuaranteedRevoked",
        "EventKind::GuaranteeRevoked",
        "EventKind::Readmitted",
        "EventKind::Detected",
        "emit_degraded(",
        "detected_degrade(",
    ];
    let lines = file.code_lines();
    for (idx, line) in lines.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        let Some(site) = SITES.iter().find(|s| line.contains(**s)) else {
            continue;
        };
        let start = idx.saturating_sub(WINDOW);
        let end = (idx + WINDOW).min(lines.len().saturating_sub(1));
        let covered = lines[start..=end]
            .iter()
            .any(|l| LOUD.iter().any(|n| l.contains(n)));
        if !covered {
            push(
                file,
                out,
                "no-silent-degrade",
                idx,
                format!(
                    "degradation site `{}` has no fault-family trace emission within \
                     {WINDOW} lines; emit Degraded/GuaranteeRevoked/Readmitted",
                    site.trim_start_matches('.').trim_end_matches('(')
                ),
            );
        }
    }
}
