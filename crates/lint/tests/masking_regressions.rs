//! Regression pins for the false-positive class a text scanner has:
//! rule patterns inside string literals, comments, or doc examples are
//! not sites. The rules see code tokens only, so all of these stay
//! clean — and the adjacent real sites still fire.

use ssq_lint::{check_sources, Finding};

fn check(rel: &str, text: &str) -> Vec<Finding> {
    check_sources(vec![(rel.to_string(), text.to_string())])
}

#[test]
fn quoted_event_site_does_not_need_sanitizer_coverage() {
    let found = check(
        "crates/core/src/switch.rs",
        "pub fn label() -> &'static str {\n    \"EventKind::Grant\" // EventKind::Inhibit\n}\n",
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn quoted_degrade_site_is_not_a_degradation() {
    let found = check(
        "crates/core/src/admission.rs",
        "pub fn help() -> &'static str {\n    \".set_gl_demoted( flips an output\" // .readmit( too\n}\n",
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn shared_mut_names_in_strings_and_docs_stay_clean_in_decide() {
    let found = check(
        "crates/core/src/decide.rs",
        "/// No `Mutex`; see std::time::Instant.\npub fn doc() -> &'static str {\n    r#\"no Mutex, RefCell, or AtomicU64 in shards\"#\n}\n",
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn a_decision_type_named_in_a_comment_or_string_is_not_a_definition() {
    let found = check(
        "crates/arbiter/src/request.rs",
        "// struct LostGrant;\npub const DOC: &str = \"enum StepOutcome\";\n",
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn real_sites_next_to_quoted_lookalikes_still_fire() {
    // Masking must not cut the other way: blanking literal bytes from
    // the line render keeps columns, so the real call is still seen.
    let found = check(
        "crates/core/src/decide.rs",
        "pub fn f() -> u64 {\n    let _s = \"Mutex::new(0)\"; *Mutex::new(1u64).lock().unwrap()\n}\n",
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(
        (found[0].rule, found[0].line),
        ("no-shared-mut-in-shards", 2)
    );
}

#[test]
fn test_code_is_exempt() {
    let found = check(
        "crates/core/src/decide.rs",
        "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    struct FakeGrant;\n}\n",
    );
    assert!(found.is_empty(), "{found:?}");
}
