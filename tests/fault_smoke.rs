//! The chaos-campaign smoke tier as an integration test, verified at
//! the JSONL level: every single-fault scenario's exported trace must
//! show one of exactly two outcomes — bounds preserved (no guarantee
//! machinery fired) or a loud, structured revocation/degradation. A
//! tripped run with a silent trace is the failure mode the whole
//! `ssq-faults` subsystem exists to rule out.

use swizzle_qos::faults::{run_smoke, Verdict};
use swizzle_qos::trace::Event;

#[test]
fn every_scenario_trace_is_loud_or_bounds_preserving() {
    let dir = std::env::temp_dir().join(format!("ssq-fault-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let results = run_smoke(7);
    assert!(results.len() >= 8, "catalog shrank to {}", results.len());
    for result in &results {
        // Export the scenario's trace exactly as `ssq faults --trace-dir`
        // would, then judge it from the serialized form alone.
        let path = dir.join(format!("{}.jsonl", result.name));
        let mut text = Vec::new();
        for event in &result.events {
            event.write_jsonl(&mut text);
            text.push(b'\n');
        }
        std::fs::write(&path, &text).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let mut loud = false;
        for line in text.lines() {
            // Every exported line is well-formed taxonomy JSONL.
            Event::from_jsonl(line).unwrap();
            loud |= line.contains("\"kind\":\"guarantee_revoked\"")
                || line.contains("\"kind\":\"degraded\"")
                || (line.contains("\"kind\":\"readmitted\"")
                    && !line.contains("\"action\":\"keep\""));
        }

        // The two-outcome contract, read off the trace file:
        match &result.verdict {
            Verdict::BoundsPreserved => assert!(
                !loud,
                "{}: bounds-preserved verdict but the trace revokes",
                result.name
            ),
            Verdict::Revoked { .. } => assert!(
                loud,
                "{}: revoked verdict with no structured revocation in the trace",
                result.name
            ),
            Verdict::SilentViolation { reason } => {
                panic!("{}: silent violation ({reason})", result.name)
            }
        }
    }

    // The catalog must exercise both arms of the contract.
    assert!(results
        .iter()
        .any(|r| matches!(r.verdict, Verdict::BoundsPreserved)));
    assert!(results
        .iter()
        .any(|r| matches!(r.verdict, Verdict::Revoked { .. })));

    std::fs::remove_dir_all(&dir).unwrap();
}
