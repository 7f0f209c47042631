//! The chaos-campaign scenario catalog and the smoke tier.
//!
//! Each scenario is one single-fault story: a known-good saturated
//! switch, one fault from the DESIGN.md §8 taxonomy injected at a fixed
//! cycle (or an MTBF schedule), optionally healed, and the run judged by
//! the two-outcome oracle ([`crate::detect::judge`]). The smoke tier
//! ([`run_smoke`]) runs every scenario on the scalar reference kernel
//! and on the two engines a watchdogged run can differ on — the
//! sequential [`Runner`] and the sharded [`ParRunner`] (a monitored run
//! is dense, so idle skipping has no leg here) — and asserts none ends
//! in a silent violation; an engine divergence (verdict, counters, or
//! trace bytes differing between the runs) is itself reported as a
//! silent violation, making every smoke run a differential test of the
//! kernel under fault injection.

use ssq_arbiter::CounterPolicy;
use ssq_core::{Policy, QosSwitch, SwitchConfig};
use ssq_sim::{MonitorOutcome, ParRunner, Runner, Schedule};
use ssq_trace::{Event, EventKind, JsonlSink, RingSink};
use ssq_traffic::{FixedDest, Injector, Periodic, Saturating};
use ssq_types::{Cycles, Geometry, InputId, OutputId, Rate, TrafficClass};

use crate::chaos::ChaosSwitch;
use crate::detect::{judge, FailingWriter, Verdict};
use crate::plan::{FaultKind, FaultPlan};

/// Warm-up cycles before measurement (faults land after this).
const WARMUP: u64 = 500;
/// Measured cycles per scenario.
const MEASURE: u64 = 5_000;
/// Cycle at which the scenario's fault lands.
const INJECT_AT: u64 = 1_500;
/// Cycle at which healable scenarios heal.
const HEAL_AT: u64 = 3_000;

/// The catalog: `(name, what the scenario breaks)`.
pub const SCENARIOS: &[(&str, &str)] = &[
    ("link-down-heal", "one input's link down, healed mid-run"),
    ("link-flap", "MTBF-mode link flapping on one input"),
    (
        "bitline-stuck-0",
        "fabric wire stuck discharged (persistent)",
    ),
    (
        "bitline-stuck-1",
        "fabric wire stuck charged (transient, healed)",
    ),
    ("aux-seu", "single-event upset in an auxVC counter"),
    ("epoch-skip", "counter-policy clock drops epoch boundaries"),
    ("gl-lane-lost", "GL lane lost: demotion plus re-admission"),
    (
        "readmission-squeeze",
        "post-fault capacity below the admitted load",
    ),
    ("sink-failure", "trace sink write failure mid-campaign"),
    (
        "flap-during-stuck",
        "link flapping overlaps a stuck-wire window (budgets compose)",
    ),
    (
        "fault-during-readmit",
        "link down lands mid-readmission, healed later",
    ),
];

/// One scenario's outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (from [`SCENARIOS`]).
    pub name: String,
    /// The two-outcome oracle's ruling.
    pub verdict: Verdict,
    /// Fault injections the switch recorded.
    pub fault_injections: u64,
    /// Flits delivered during the measured window.
    pub delivered_flits: u64,
    /// Free-form observations (e.g. the sink's sticky error).
    pub notes: Vec<String>,
    /// The run's full event trace (from the ring), for JSONL export.
    pub events: Vec<Event>,
}

fn gb_config(fabric_checked: bool, retry_budget: u32, rates: &[f64]) -> SwitchConfig {
    let mut config = SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .sig_bits(3)
        .fabric_checked(fabric_checked)
        .fault_retry_budget(retry_budget)
        .build()
        .expect("valid config");
    for (i, &r) in rates.iter().enumerate() {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(0),
                Rate::new(r).expect("valid rate"),
                8,
            )
            .expect("reservation fits");
    }
    config
}

fn saturate(switch: &mut QosSwitch, inputs: usize) {
    for i in 0..inputs {
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(OutputId::new(0))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(i)),
        );
    }
}

fn add_gl(config: &mut SwitchConfig, switch_rate: f64) {
    config
        .reservations_mut()
        .reserve_gl(
            OutputId::new(0),
            Rate::new(switch_rate).expect("valid rate"),
        )
        .expect("GL reservation fits");
}

/// Builds and runs one named scenario; `None` for an unknown name.
///
/// The `seed` parameterizes MTBF-mode schedules (scripted scenarios are
/// seed-independent), so a campaign replays exactly from `(name, seed)`.
#[must_use]
pub fn run_scenario(name: &str, seed: u64) -> Option<ScenarioResult> {
    let (switch, plan) = build_scenario(name, seed)?;
    let mut chaos = arm(switch, plan);
    let outcome = Runner::new(Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)))
        .run_monitored(&mut chaos, Cycles::new(2_000), |_, _| {});
    Some(finish(name, chaos, &outcome))
}

/// [`run_scenario`] on the scalar reference kernel
/// (`QosSwitch::step_reference`) — the oracle every engine's result must
/// match exactly, which [`run_smoke`] enforces on every scenario. The
/// engines share one arbitration kernel, so they cannot vouch for each
/// other; the reference path shares no decision code with it.
#[must_use]
pub fn run_scenario_reference(name: &str, seed: u64) -> Option<ScenarioResult> {
    let (switch, plan) = build_scenario(name, seed)?;
    let mut chaos = arm(switch, plan).on_reference_kernel();
    let outcome = Runner::new(Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)))
        .run_monitored(&mut chaos, Cycles::new(2_000), |_, _| {});
    Some(finish(name, chaos, &outcome))
}

/// [`run_scenario`] on the sharded parallel engine with `threads`
/// compute threads. The result must match [`run_scenario_reference`]
/// exactly — same verdict, same counters, same trace — which
/// [`run_smoke`] enforces on every scenario.
#[must_use]
pub fn run_scenario_par(name: &str, seed: u64, threads: usize) -> Option<ScenarioResult> {
    let (switch, plan) = build_scenario(name, seed)?;
    let mut chaos = arm(switch, plan);
    let outcome = ParRunner::new(
        Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE)),
        threads,
    )
    .run_monitored(&mut chaos, Cycles::new(2_000), |_, _| {});
    Some(finish(name, chaos, &outcome))
}

fn arm(mut switch: QosSwitch, plan: FaultPlan) -> ChaosSwitch {
    switch.tracer_mut().attach_ring(1 << 17);
    ChaosSwitch::new(switch, plan)
}

fn finish(name: &str, chaos: ChaosSwitch, outcome: &MonitorOutcome) -> ScenarioResult {
    let switch = chaos.into_switch();
    let events = switch
        .tracer()
        .ring()
        .map(RingSink::events)
        .unwrap_or_default();
    let mut notes = Vec::new();
    if let Some(err) = switch.tracer().jsonl().and_then(JsonlSink::io_error) {
        notes.push(format!("sink fault detected (sticky): {err}"));
    }
    let verdict = judge(outcome, &events);
    ScenarioResult {
        name: name.to_string(),
        verdict,
        fault_injections: switch.counters().fault_injections,
        delivered_flits: switch.counters().delivered_flits,
        notes,
        events,
    }
}

fn build_scenario(name: &str, seed: u64) -> Option<(QosSwitch, FaultPlan)> {
    let horizon = WARMUP + MEASURE;
    let (switch, plan) = match name {
        "link-down-heal" => {
            let mut switch = QosSwitch::new(gb_config(false, 2, &[0.4, 0.3])).expect("valid");
            saturate(&mut switch, 2);
            let plan = FaultPlan::new()
                .schedule(INJECT_AT, FaultKind::LinkDown { input: 0 })
                .schedule(HEAL_AT, FaultKind::LinkUp { input: 0 });
            (switch, plan)
        }
        "link-flap" => {
            let mut switch = QosSwitch::new(gb_config(false, 2, &[0.4, 0.3])).expect("valid");
            saturate(&mut switch, 2);
            (switch, FaultPlan::link_flaps(seed, 0, 800, 150, horizon))
        }
        "bitline-stuck-0" => {
            // Stuck-at-0 on thermometer lane 0 of input 0: the wire can
            // never inhibit, so input 0's grants may silently diverge.
            let mut switch = QosSwitch::new(gb_config(true, 2, &[0.4, 0.3])).expect("valid");
            saturate(&mut switch, 2);
            let plan = FaultPlan::new().schedule(
                INJECT_AT,
                FaultKind::StickWire {
                    lane: 0,
                    input: 0,
                    charged: false,
                },
            );
            (switch, plan)
        }
        "bitline-stuck-1" => {
            // Transient stuck-at-1 (grant-bus corruption): healed after
            // a short burst, then SSVC explicitly restored — the retry
            // budget should absorb most of it.
            let mut switch = QosSwitch::new(gb_config(true, 3, &[0.4, 0.3])).expect("valid");
            saturate(&mut switch, 2);
            let plan = FaultPlan::new()
                .schedule(
                    INJECT_AT,
                    FaultKind::StickWire {
                        lane: 0,
                        input: 5,
                        charged: true,
                    },
                )
                .schedule(INJECT_AT + 40, FaultKind::HealWire { lane: 0, input: 5 })
                .schedule(INJECT_AT + 50, FaultKind::RestoreSsvc { output: 0 });
            (switch, plan)
        }
        "aux-seu" => {
            let mut switch = QosSwitch::new(gb_config(false, 1, &[0.4, 0.3])).expect("valid");
            saturate(&mut switch, 2);
            let plan = FaultPlan::new().schedule(
                INJECT_AT,
                FaultKind::FlipAuxBit {
                    output: 0,
                    input: 0,
                    bit: 40,
                },
            );
            (switch, plan)
        }
        "epoch-skip" => {
            let mut switch = QosSwitch::new(gb_config(false, 2, &[0.4, 0.3])).expect("valid");
            saturate(&mut switch, 2);
            let plan = FaultPlan::new().schedule(
                INJECT_AT,
                FaultKind::SkipEpochs {
                    output: 0,
                    epochs: 3,
                },
            );
            (switch, plan)
        }
        "gl-lane-lost" => {
            let mut config = gb_config(false, 2, &[0.4, 0.3]);
            add_gl(&mut config, 0.05);
            let mut switch = QosSwitch::new(config).expect("valid");
            saturate(&mut switch, 2);
            switch.add_injector(
                Injector::new(
                    Box::new(Periodic::new(200, 0, 1)),
                    Box::new(FixedDest::new(OutputId::new(0))),
                    TrafficClass::GuaranteedLatency,
                )
                .for_input(InputId::new(7)),
            );
            // A generous pre-fault bound: the revocation, not a trip,
            // must be what retires it.
            switch.set_gl_wait_bound(Some(5_000));
            let plan = FaultPlan::new()
                .schedule(INJECT_AT, FaultKind::DemoteGl { output: 0 })
                .schedule(
                    INJECT_AT + 1,
                    FaultKind::Readmit {
                        output: 0,
                        capacity: 1.0,
                        gl_lane_lost: true,
                    },
                );
            (switch, plan)
        }
        "readmission-squeeze" => {
            let mut switch = QosSwitch::new(gb_config(false, 2, &[0.4, 0.3, 0.2])).expect("valid");
            saturate(&mut switch, 3);
            let plan = FaultPlan::new().schedule(
                INJECT_AT,
                FaultKind::Readmit {
                    output: 0,
                    capacity: 0.5,
                    gl_lane_lost: false,
                },
            );
            (switch, plan)
        }
        "sink-failure" => {
            let mut switch = QosSwitch::new(gb_config(false, 2, &[0.4, 0.3])).expect("valid");
            saturate(&mut switch, 2);
            // The failing JSONL sink is the fault; record it in the
            // taxonomy before it can no longer be recorded.
            switch
                .tracer_mut()
                .attach_jsonl(Box::new(FailingWriter::new(2_048)));
            switch.tracer_mut().emit(|| Event {
                cycle: 0,
                kind: EventKind::Fault {
                    site: "sink".to_string(),
                    output: 0,
                    input: 0,
                    healed: false,
                },
            });
            (switch, FaultPlan::new())
        }
        "flap-during-stuck" => {
            // Overlap: MTBF link flapping on input 1 runs across the
            // stuck-wire window on input 0. Each fault consumes its own
            // retries; the judge's composition check holds the Detected
            // ↔ retry-Degraded pairing to 1:1 across both.
            let mut switch = QosSwitch::new(gb_config(true, 3, &[0.4, 0.3])).expect("valid");
            saturate(&mut switch, 2);
            let scripted = FaultPlan::new()
                .schedule(
                    INJECT_AT,
                    FaultKind::StickWire {
                        lane: 0,
                        input: 0,
                        charged: false,
                    },
                )
                .schedule(HEAL_AT, FaultKind::HealWire { lane: 0, input: 0 })
                .schedule(HEAL_AT + 10, FaultKind::RestoreSsvc { output: 0 });
            let plan = scripted.merge(FaultPlan::link_flaps(seed, 1, 700, 150, horizon));
            (switch, plan)
        }
        "fault-during-readmit" => {
            // A link dies five cycles into the post-readmission window,
            // while the squeezed reservation set is still settling.
            let mut switch = QosSwitch::new(gb_config(false, 2, &[0.4, 0.3, 0.2])).expect("valid");
            saturate(&mut switch, 3);
            let plan = FaultPlan::new()
                .schedule(
                    INJECT_AT,
                    FaultKind::Readmit {
                        output: 0,
                        capacity: 0.7,
                        gl_lane_lost: false,
                    },
                )
                .schedule(INJECT_AT + 5, FaultKind::LinkDown { input: 1 })
                .schedule(HEAL_AT, FaultKind::LinkUp { input: 1 });
            (switch, plan)
        }
        _ => return None,
    };
    Some((switch, plan))
}

/// Runs every catalog scenario with `seed` on the reference kernel and
/// both engines.
///
/// Each scenario executes on the scalar reference kernel and again under
/// the sequential runner and the parallel engine (two threads); the
/// reference result is returned, except that any divergence of an
/// engine from it — verdict, injection or delivery counters, or the
/// event trace — replaces the verdict with a
/// [`Verdict::SilentViolation`] naming the differential failure.
#[must_use]
pub fn run_smoke(seed: u64) -> Vec<ScenarioResult> {
    SCENARIOS
        .iter()
        .map(|(name, _)| {
            let valid = "catalog names are valid";
            let reference = run_scenario_reference(name, seed).expect(valid);
            let seq = run_scenario(name, seed).expect(valid);
            let reference = differential(reference, &seq, "sequential");
            let par = run_scenario_par(name, seed, 2).expect(valid);
            differential(reference, &par, "parallel")
        })
        .collect()
}

/// Folds an engine's rerun into the reference result: identical runs
/// pass through; any observable difference is the one failure mode this
/// subsystem exists to rule out, reported loudly.
fn differential(mut seq: ScenarioResult, other: &ScenarioResult, engine: &str) -> ScenarioResult {
    let mut diffs = Vec::new();
    if seq.verdict != other.verdict {
        diffs.push(format!("verdict {:?} vs {:?}", seq.verdict, other.verdict));
    }
    if seq.fault_injections != other.fault_injections {
        diffs.push(format!(
            "fault_injections {} vs {}",
            seq.fault_injections, other.fault_injections
        ));
    }
    if seq.delivered_flits != other.delivered_flits {
        diffs.push(format!(
            "delivered_flits {} vs {}",
            seq.delivered_flits, other.delivered_flits
        ));
    }
    if seq.events != other.events {
        diffs.push(format!(
            "event trace ({} vs {} events)",
            seq.events.len(),
            other.events.len()
        ));
    }
    if !diffs.is_empty() {
        seq.verdict = Verdict::SilentViolation {
            reason: format!(
                "{engine} engine diverged from the reference kernel: {}",
                diffs.join("; ")
            ),
        };
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_smoke_scenario_satisfies_the_two_outcome_contract() {
        for result in run_smoke(7) {
            assert!(
                result.verdict.is_acceptable(),
                "{}: silent violation: {:?}",
                result.name,
                result.verdict
            );
            assert!(
                result.delivered_flits > 0,
                "{}: switch stopped delivering entirely",
                result.name
            );
        }
    }

    #[test]
    fn overlapping_faults_compose_their_retry_budgets() {
        // Two concurrent fault stories must still satisfy the contract,
        // and the judge's 1:1 Detected ↔ retry pairing must hold — a
        // double-counted budget would surface as a SilentViolation.
        for name in ["flap-during-stuck", "fault-during-readmit"] {
            let result = run_scenario(name, 7).unwrap();
            assert!(
                result.verdict.is_acceptable(),
                "{name}: {:?}",
                result.verdict
            );
        }
        // The overlapped schedule really does interleave both stories.
        let result = run_scenario("flap-during-stuck", 7).unwrap();
        assert!(
            result.fault_injections >= 2,
            "expected overlapping injections, got {}",
            result.fault_injections
        );
    }

    #[test]
    fn deterministic_faults_lead_to_loud_revocation() {
        for name in ["aux-seu", "gl-lane-lost", "readmission-squeeze"] {
            let result = run_scenario(name, 7).unwrap();
            assert!(
                matches!(result.verdict, Verdict::Revoked { .. }),
                "{name}: expected a revocation, got {:?}",
                result.verdict
            );
        }
    }

    #[test]
    fn benign_faults_preserve_bounds() {
        for name in ["epoch-skip", "sink-failure"] {
            let result = run_scenario(name, 7).unwrap();
            assert_eq!(
                result.verdict,
                Verdict::BoundsPreserved,
                "{name} should be absorbed"
            );
        }
    }

    #[test]
    fn sink_failure_is_detected_but_not_fatal() {
        let result = run_scenario("sink-failure", 7).unwrap();
        assert!(
            result.notes.iter().any(|n| n.contains("sink fault")),
            "sticky sink error not surfaced: {:?}",
            result.notes
        );
    }

    #[test]
    fn campaigns_replay_exactly_from_their_seed() {
        let a = run_scenario("link-flap", 11).unwrap();
        let b = run_scenario("link-flap", 11).unwrap();
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.fault_injections, b.fault_injections);
        assert_eq!(a.delivered_flits, b.delivered_flits);
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_scenario("no-such-scenario", 0).is_none());
        assert!(run_scenario_reference("no-such-scenario", 0).is_none());
        assert!(run_scenario_par("no-such-scenario", 0, 2).is_none());
    }

    #[test]
    fn parallel_engine_matches_sequential_under_faults() {
        // The armed-fault paths (fabric corruption classification,
        // degraded-mode scans) are the hardest cases for the shared
        // decide/commit kernel: they mutate mid-arbitration. Hold every
        // engine bit-exact to the reference kernel through them, the
        // parallel one at 1 and 4 threads.
        for name in ["bitline-stuck-0", "bitline-stuck-1", "gl-lane-lost"] {
            let seq = run_scenario_reference(name, 7).unwrap();
            let dense = run_scenario(name, 7).unwrap();
            assert_eq!(seq.verdict, dense.verdict, "{name} @ seq");
            assert_eq!(seq.events, dense.events, "{name} @ seq");
            for threads in [1, 4] {
                let par = run_scenario_par(name, 7, threads).unwrap();
                assert_eq!(seq.verdict, par.verdict, "{name} @ {threads} threads");
                assert_eq!(
                    seq.fault_injections, par.fault_injections,
                    "{name} @ {threads} threads"
                );
                assert_eq!(
                    seq.delivered_flits, par.delivered_flits,
                    "{name} @ {threads} threads"
                );
                assert_eq!(seq.events, par.events, "{name} @ {threads} threads");
            }
        }
    }
}
