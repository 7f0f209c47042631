//! One fire-site fixture per rule: each file under `fixtures/` is fed to
//! the engine at the workspace path whose scope the rule guards, and
//! must fire on exactly its seeded lines — and nowhere outside that
//! scope.

use std::path::{Path, PathBuf};

use ssq_lint::{check_sources, check_workspace, load_workspace, Finding, RULES};

/// The workspace root, two up from this crate's manifest.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the rules over `text` as if it were the workspace file `rel`,
/// which must exist: a fixture fed at a path nobody has proves nothing
/// about the scopes the real files fall in.
fn check(rel: &str, text: &str) -> Vec<Finding> {
    assert!(root().join(rel).is_file(), "{rel} names no workspace file");
    check_sources(vec![(rel.to_string(), text.to_string())])
}

/// `(rule, line)` of every finding.
fn sites(findings: &[Finding]) -> Vec<(&str, usize)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn an_emission_without_a_sanitize_check_in_sight_fires() {
    let text = include_str!("../fixtures/invariant_coverage.rs");
    let found = check("crates/core/src/switch/kernel.rs", text);
    assert_eq!(sites(&found), [("invariant-site-coverage", 6)], "{found:?}");
    assert!(found[0].message.contains("EventKind::Grant"));
    // The rule guards the switch core only: not its scalar oracle, its
    // tests, or the rest of the crate.
    for rel in [
        "crates/core/src/vcd.rs",
        "crates/core/src/switch/reference.rs",
        "crates/core/src/switch/tests.rs",
        "crates/core/src/switch/tests/faults.rs",
    ] {
        assert!(check(rel, text).is_empty(), "{rel}");
    }
}

#[test]
fn a_degradation_without_a_fault_event_in_sight_fires() {
    let text = include_str!("../fixtures/silent_degrade.rs");
    for rel in [
        "crates/core/src/switch/faults.rs",
        "crates/faults/src/chaos.rs",
    ] {
        let found = check(rel, text);
        assert_eq!(
            sites(&found),
            [("no-silent-degrade", 6)],
            "{rel}: {found:?}"
        );
        assert!(found[0].message.contains("set_gl_demoted"));
    }
    assert!(check("crates/net/src/fabric/links.rs", text).is_empty());
}

#[test]
fn a_decision_type_without_must_use_fires() {
    let found = check(
        "crates/circuit/src/decision.rs",
        include_str!("../fixtures/must_use_decision.rs"),
    );
    // `StepDecision` has attributes but not the one; the `#[must_use]`
    // above `RetryOutcome` belongs to the function before it.
    assert_eq!(
        sites(&found),
        [("must-use-decision", 4), ("must-use-decision", 12)],
        "{found:?}"
    );
    assert!(found[0].message.contains("StepDecision"));
    assert!(found[1].message.contains("RetryOutcome"));
}

#[test]
fn impurity_fires_in_every_file_the_decide_kernel_reaches() {
    let text = include_str!("../fixtures/shared_mut.rs");
    for rel in [
        "crates/arbiter/src/lrg.rs",
        "crates/arbiter/src/ssvc.rs",
        "crates/core/src/switch/decide.rs",
        "crates/core/src/switch/output.rs",
        "crates/core/src/port.rs",
        "crates/core/src/bitmask.rs",
    ] {
        let found = check(rel, text);
        assert!(
            found.iter().all(|f| f.rule == "no-shared-mut-in-shards"),
            "{rel}: {found:?}"
        );
        let named: Vec<(usize, &str)> = found
            .iter()
            .map(|f| {
                (
                    f.line,
                    f.message.split('`').nth(1).expect("names the token"),
                )
            })
            .collect();
        assert_eq!(
            named,
            [
                (6, "Mutex"),
                (9, "static"),
                (9, "AtomicU64"),
                (9, "AtomicU64"),
                (12, "std::time"),
                (12, "Instant"),
            ],
            "{rel}"
        );
    }
    // The commit side and the runners may lock, time and print.
    for rel in ["crates/core/src/switch/kernel.rs", "crates/sim/src/par.rs"] {
        assert!(check(rel, text).is_empty(), "{rel}");
    }
}

#[test]
fn findings_are_ordered_and_render_on_one_line() {
    let found = check_sources(vec![
        (
            "crates/core/src/switch/kernel.rs".to_string(),
            include_str!("../fixtures/invariant_coverage.rs").to_string(),
        ),
        (
            "crates/core/src/switch/faults.rs".to_string(),
            include_str!("../fixtures/silent_degrade.rs").to_string(),
        ),
    ]);
    let files: Vec<&str> = found.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(
        files,
        [
            "crates/core/src/switch/faults.rs",
            "crates/core/src/switch/kernel.rs"
        ]
    );
    let line = found[1].to_string();
    assert!(
        line.starts_with("crates/core/src/switch/kernel.rs:6 · invariant-site-coverage · "),
        "{line}"
    );
    assert!(found.iter().all(|f| RULES.contains(&f.rule)));
}

#[test]
fn a_scope_naming_a_missing_file_fails_the_workspace() {
    let sources = load_workspace(&root()).expect("workspace sources load");
    let stale = |found: &[Finding]| {
        found
            .iter()
            .filter(|f| f.line == 0)
            .map(|f| (f.rule, f.file.clone()))
            .collect::<Vec<_>>()
    };
    // Every file the shipped scopes name exists.
    assert_eq!(stale(&check_workspace(sources.clone())), []);
    // Take one away, as a deleted or renamed file would.
    let gone = "crates/core/src/switch/output.rs";
    let without = sources.into_iter().filter(|(rel, _)| rel != gone).collect();
    let found = check_workspace(without);
    assert_eq!(
        stale(&found),
        [("no-shared-mut-in-shards", gone.to_owned())],
        "{found:?}"
    );
    assert!(found[0].to_string().starts_with(&format!("{gone}:0 · ")));
}
