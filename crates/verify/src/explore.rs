//! Breadth-first exhaustive exploration with memoized state hashing and
//! minimal counterexample reconstruction.
//!
//! The explorer enumerates the reachable state graph of a [`Model`]:
//! from every visited [`ModelState`] it applies all `2^radix` request
//! patterns, memoizes successors in a hash map, and records one parent
//! edge `(parent index, pattern)` per state. Exploration runs without
//! event recording — tracing every transition of a million-state sweep
//! would swamp the run — and only when an invariant trips is the
//! pattern path walked back to the root and **replayed** with recording
//! on, producing the `ssq-trace` event stream of exactly the offending
//! run. Breadth-first order makes that counterexample minimal: no
//! shorter request sequence reaches any violation.

use std::collections::HashMap;
use std::collections::VecDeque;

use ssq_trace::Event;
use ssq_types::invariant::Invariant;

use crate::model::{Model, Recording, Scenario};

/// A minimal failing run: the request patterns that drive the model
/// from reset into an invariant violation, plus the replayed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// The violated invariant: its `SSQV00x` code and V1–V6 name.
    pub invariant: Invariant,
    /// What went wrong, with concrete values.
    pub detail: String,
    /// Request pattern per cycle (bit `i` ⇔ input `i` requests); its
    /// length is the counterexample depth in cycles.
    pub patterns: Vec<u32>,
    /// The replayed trace in `ssq-trace` taxonomy, ending at the cycle
    /// that tripped the invariant.
    pub events: Vec<Event>,
}

impl CounterExample {
    /// The counterexample length in cycles.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.patterns.len()
    }

    /// Renders the replayed trace as JSONL — the same wire format the
    /// simulator's tracer writes, so `trace-report` and `ssq replay`
    /// tooling consume it unchanged.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        for event in &self.events {
            event.write_jsonl(&mut out);
            out.push(b'\n');
        }
        // The writer emits static labels and ASCII digits only: never lossy.
        String::from_utf8_lossy(&out).into_owned()
    }
}

/// The result of exhaustively checking one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "dropping a verification outcome discards the verdict"]
pub struct VerifyOutcome {
    /// Name of the verified scenario.
    pub scenario: String,
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions (state × pattern steps) executed.
    pub transitions: u64,
    /// Deepest cycle count reached from the initial state.
    pub depth: u32,
    /// Whether the reachable state space was fully closed — every
    /// reachable state expanded under every pattern, with neither the
    /// horizon nor the state cap cutting exploration short. A `true`
    /// here is an exhaustiveness proof for the scenario.
    pub closed: bool,
    /// The first (minimal-depth) invariant violation found, if any.
    pub violation: Option<CounterExample>,
}

impl VerifyOutcome {
    /// Whether every invariant held on every explored transition.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// Exhaustively explores `scenario`'s reachable state space, checking
/// V1–V6 on every transition.
pub fn verify_scenario(scenario: &Scenario) -> VerifyOutcome {
    let name = scenario.name.clone();
    let model = Model::new(scenario.clone());
    let patterns_per_state = 1u32 << scenario.radix();

    let initial = model.initial_state();
    let mut states = vec![initial.clone()];
    // Parent edge of each state: (parent index, pattern that led here).
    let mut parents: Vec<(u32, u32)> = vec![(0, 0)];
    let mut depths: Vec<u32> = vec![0];
    let mut index = HashMap::new();
    index.insert(initial, 0u32);

    let mut queue = VecDeque::from([0u32]);
    let mut transitions = 0u64;
    let mut max_depth = 0u32;
    let mut clipped = false;

    while let Some(at) = queue.pop_front() {
        let depth = depths[at as usize];
        max_depth = max_depth.max(depth);
        if depth >= scenario.horizon {
            clipped = true;
            continue;
        }
        for pattern in 0..patterns_per_state {
            let out = model.step(&states[at as usize], pattern, None);
            transitions += 1;
            if let Some(violation) = out.violation {
                let counterexample = replay(&model, &parents, &depths, at, pattern, &violation);
                return VerifyOutcome {
                    scenario: name,
                    states: states.len(),
                    transitions,
                    depth: max_depth.max(depth + 1),
                    closed: false,
                    violation: Some(counterexample),
                };
            }
            if index.contains_key(&out.next) {
                continue;
            }
            if states.len() >= scenario.max_states {
                clipped = true;
                continue;
            }
            let id = states.len() as u32;
            index.insert(out.next.clone(), id);
            states.push(out.next);
            parents.push((at, pattern));
            depths.push(depth + 1);
            queue.push_back(id);
        }
    }

    VerifyOutcome {
        scenario: name,
        states: states.len(),
        transitions,
        depth: max_depth,
        closed: !clipped,
        violation: None,
    }
}

/// Reconstructs the pattern path from the root to `(at, final_pattern)`
/// and replays it with event recording to build the counterexample.
fn replay(
    model: &Model,
    parents: &[(u32, u32)],
    depths: &[u32],
    at: u32,
    final_pattern: u32,
    violation: &crate::Violation,
) -> CounterExample {
    let mut patterns = Vec::with_capacity(depths[at as usize] as usize + 1);
    let mut cursor = at;
    while depths[cursor as usize] > 0 {
        let (parent, pattern) = parents[cursor as usize];
        patterns.push(pattern);
        cursor = parent;
    }
    patterns.reverse();
    patterns.push(final_pattern);

    let mut rec = Recording::default();
    let mut state = model.initial_state();
    let mut replay_violation = None;
    for (cycle, &pattern) in patterns.iter().enumerate() {
        rec.cycle = cycle as u64;
        let out = model.step(&state, pattern, Some(&mut rec));
        replay_violation = out.violation;
        state = out.next;
    }
    let replayed =
        replay_violation.expect("the replayed path must reproduce the violation deterministically");
    assert_eq!(
        replayed.invariant, violation.invariant,
        "replay diverged from search"
    );
    // Sanity: also prove the trace survives the JSONL wire format.
    debug_assert!(rec
        .events
        .iter()
        .all(|e| Event::from_jsonl(&e.to_jsonl()).as_ref() == Ok(e)));
    CounterExample {
        invariant: violation.invariant,
        detail: violation.detail.clone(),
        patterns,
        events: rec.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TieBreak;
    use ssq_arbiter::CounterPolicy;
    use ssq_trace::EventKind;
    use ssq_types::TrafficClass;

    /// The golden seeded-bug test: a deliberately wrong tie-break
    /// (highest index instead of LRG) must be caught by V6 with a
    /// minimal one-cycle counterexample whose trace round-trips through
    /// the JSONL wire format.
    #[test]
    fn broken_tie_break_yields_minimal_v6_counterexample() {
        let mut scenario = Scenario::new(
            "broken-tie-break",
            CounterPolicy::SubtractRealClock,
            vec![
                TrafficClass::GuaranteedBandwidth,
                TrafficClass::GuaranteedBandwidth,
            ],
            vec![1, 1],
        );
        scenario.tie_break = TieBreak::HighestIndex;
        let outcome = verify_scenario(&scenario);
        let cx = outcome.violation.expect("the seeded bug must be found");
        assert_eq!(cx.invariant, Invariant::GrantAgreement);
        // Minimality: both inputs tie at auxVC 0 in the very first
        // cycle, so one cycle suffices — and BFS must find exactly that.
        assert_eq!(cx.depth(), 1);
        assert_eq!(cx.patterns, vec![0b11]);
        // The trace records the diverging behavioural decision (the
        // broken tie-break picked input 1; LRG and the circuit pick 0),
        // followed by the loser's inhibit record.
        assert!(cx.events.iter().any(|e| matches!(
            e,
            Event {
                kind: EventKind::Decision { winner: 1, .. },
                ..
            }
        )));
        assert!(matches!(
            cx.events.last(),
            Some(Event {
                kind: EventKind::Inhibit { input: 0, .. },
                ..
            })
        ));
        // The JSONL rendering replays through the trace parser.
        let lines: Vec<Event> = cx
            .to_jsonl()
            .lines()
            .map(|l| Event::from_jsonl(l).expect("counterexample line parses"))
            .collect();
        assert_eq!(lines, cx.events);
    }

    /// The same scenario with the correct tie-break is clean and its
    /// state space closes.
    #[test]
    fn correct_tie_break_is_clean_and_closed() {
        let scenario = Scenario::new(
            "correct-tie-break",
            CounterPolicy::SubtractRealClock,
            vec![
                TrafficClass::GuaranteedBandwidth,
                TrafficClass::GuaranteedBandwidth,
            ],
            vec![1, 1],
        );
        let outcome = verify_scenario(&scenario);
        assert!(outcome.passed(), "{:?}", outcome.violation);
        assert!(outcome.closed);
        assert!(outcome.states > 1);
    }
}
