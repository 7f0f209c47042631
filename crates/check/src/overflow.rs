//! `auxVC` counter-width analysis: representability of each flow's
//! `Vtick`, time-to-saturation, and resolution loss under the *halve*
//! policy (§3.1, "Finite Counters and Real Time Clock").

use ssq_arbiter::{CounterPolicy, SsvcArbiter, SsvcConfig};
use ssq_types::{InputId, OutputId, Rate};

use crate::diag::{codes, Diagnostic, Report, Severity};

/// One GB flow as the counter analyzer sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterFlow {
    /// The reserving input.
    pub input: InputId,
    /// The reserved output.
    pub output: OutputId,
    /// The reserved rate.
    pub rate: Rate,
    /// Cycles one packet of this flow holds the channel (`L + 1` for an
    /// `L`-flit packet in the Swizzle Switch).
    pub slot_cycles: u64,
}

/// The counter analyzer's view of the switch: the `auxVC` geometry plus
/// every GB reservation.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterInput {
    /// Total `auxVC` width in bits.
    pub counter_bits: u32,
    /// Significant (thermometer) bits compared during arbitration.
    pub sig_bits: u32,
    /// The finite-counter management policy.
    pub policy: CounterPolicy,
    /// All GB reservations.
    pub flows: Vec<CounterFlow>,
}

/// Predicted counter behaviour for one flow, reusable by callers that
/// want the numbers rather than diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterPrediction {
    /// The quantized `Vtick` the runtime arbiter would program.
    pub vtick: u64,
    /// Consecutive wins until the `auxVC` saturates from zero
    /// (`ceil(cap / vtick)`).
    pub wins_to_saturation: u64,
    /// Thermometer lanes a single win advances (`ceil(vtick / msb_step)`).
    pub lanes_per_win: u64,
}

/// Predicts `Vtick` and saturation behaviour for one reserved rate,
/// using the *same* quantization as the runtime arbiter
/// ([`SsvcArbiter::slot_vtick`]) so static and dynamic views agree
/// bit-for-bit.
#[must_use]
pub fn predict(config: SsvcConfig, rate: Rate, slot_cycles: u64) -> CounterPrediction {
    let vtick = SsvcArbiter::slot_vtick(rate.value(), slot_cycles);
    CounterPrediction {
        vtick,
        wins_to_saturation: config.saturation_cap().div_ceil(vtick),
        lanes_per_win: vtick.div_ceil(config.msb_step()),
    }
}

/// Checks every reservation against the `auxVC` counter geometry.
///
/// Emits [`codes::VTICK_UNREPRESENTABLE`] (error) when a flow's `Vtick`
/// exceeds the saturation cap (one win overflows the counter and the
/// flow can never be rate-shaped), [`codes::HALVE_COLLAPSES_FLOWS`]
/// (warning) under the *halve* policy for distinct rates on the same
/// output whose `Vtick`s are closer than the post-halving resolution,
/// and [`codes::COUNTER_SATURATION`] notes — a warning when a single
/// win jumps more than one thermometer lane (the coarse comparison then
/// degrades toward pure LRG), otherwise an info line stating the
/// wins-to-saturation epoch.
pub fn analyze_counters(input: &CounterInput) -> Report {
    let mut report = Report::new();
    if input.flows.is_empty() {
        return report;
    }
    let config = SsvcConfig::new(input.counter_bits, input.sig_bits, input.policy);
    let cap = config.saturation_cap();
    let step = config.msb_step();

    for flow in &input.flows {
        let subject = format!(
            "input {} -> output {}",
            flow.input.index(),
            flow.output.index()
        );
        let p = predict(config, flow.rate, flow.slot_cycles);
        if p.vtick > cap {
            report.push(Diagnostic::new(
                codes::VTICK_UNREPRESENTABLE,
                Severity::Error,
                subject,
                format!(
                    "Vtick {} for a {:.2}% reservation exceeds the {}-bit auxVC cap of {}; \
                     one win overflows the counter",
                    p.vtick,
                    flow.rate.value() * 100.0,
                    input.counter_bits,
                    cap
                ),
            ));
        } else if p.lanes_per_win > 1 {
            report.push(Diagnostic::new(
                codes::COUNTER_SATURATION,
                Severity::Warning,
                subject,
                format!(
                    "a single win advances auxVC by Vtick {} = {} thermometer lanes \
                     (msb step {}); the coarse comparison degenerates toward LRG and the \
                     counter saturates after {} win(s)",
                    p.vtick, p.lanes_per_win, step, p.wins_to_saturation
                ),
            ));
        } else {
            report.push(Diagnostic::new(
                codes::COUNTER_SATURATION,
                Severity::Info,
                subject,
                format!(
                    "Vtick {}: auxVC saturates after {} consecutive wins; {}",
                    p.vtick,
                    p.wins_to_saturation,
                    match input.policy {
                        CounterPolicy::SubtractRealClock =>
                            format!("the real-time clock decays one lane every {step} cycles"),
                        CounterPolicy::Halve => "saturation halves every counter".to_string(),
                        CounterPolicy::Reset => "saturation resets every counter".to_string(),
                    }
                ),
            ));
        }
    }

    if input.policy == CounterPolicy::Halve {
        report.extend(halve_collapse_findings(config, &input.flows));
    }
    report
}

/// Under *halve*, two `auxVC` values within one post-halving step of
/// each other land in the same thermometer lane after a division, so
/// distinct rates whose `Vtick`s differ by less than `2 * msb_step`
/// stop being distinguishable each time the policy fires.
fn halve_collapse_findings(config: SsvcConfig, flows: &[CounterFlow]) -> Report {
    let mut report = Report::new();
    let mut by_output: std::collections::BTreeMap<usize, Vec<&CounterFlow>> = Default::default();
    for flow in flows {
        by_output.entry(flow.output.index()).or_default().push(flow);
    }
    for (output, group) in by_output {
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                if a.rate == b.rate {
                    continue;
                }
                let va = SsvcArbiter::slot_vtick(a.rate.value(), a.slot_cycles);
                let vb = SsvcArbiter::slot_vtick(b.rate.value(), b.slot_cycles);
                if va.abs_diff(vb) < 2 * config.msb_step() {
                    report.push(Diagnostic::new(
                        codes::HALVE_COLLAPSES_FLOWS,
                        Severity::Warning,
                        format!("output {output}"),
                        format!(
                            "inputs {} and {} reserve distinct rates ({:.2}% vs {:.2}%) but \
                             their Vticks ({} vs {}) differ by less than twice the msb step \
                             ({}); each halving folds them into one thermometer lane and the \
                             flows share bandwidth via LRG instead of their reservations",
                            a.input.index(),
                            b.input.index(),
                            a.rate.value() * 100.0,
                            b.rate.value() * 100.0,
                            va,
                            vb,
                            config.msb_step()
                        ),
                    ));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(input: usize, output: usize, rate: f64, slot: u64) -> CounterFlow {
        CounterFlow {
            input: InputId::new(input),
            output: OutputId::new(output),
            rate: Rate::new(rate).expect("valid rate"),
            slot_cycles: slot,
        }
    }

    fn base(policy: CounterPolicy, flows: Vec<CounterFlow>) -> CounterInput {
        CounterInput {
            counter_bits: 12,
            sig_bits: 3,
            policy,
            flows,
        }
    }

    #[test]
    fn prediction_matches_runtime_quantization() {
        let config = SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock);
        let rate = Rate::new(0.25).expect("valid");
        let p = predict(config, rate, 9);
        assert_eq!(p.vtick, SsvcArbiter::slot_vtick(0.25, 9));
        assert_eq!(p.wins_to_saturation, 4095u64.div_ceil(p.vtick));
    }

    #[test]
    fn healthy_flow_gets_an_info_note_only() {
        // 50% of a 9-cycle slot: Vtick 18 < msb step 512.
        let report = analyze_counters(&base(
            CounterPolicy::SubtractRealClock,
            vec![flow(0, 0, 0.5, 9)],
        ));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.with_code(codes::COUNTER_SATURATION).count(), 1);
    }

    #[test]
    fn cap_sized_vtick_saturates_in_one_win() {
        // Mirrors ssvc.rs's halve_policy_triggers_on_saturation: a Vtick
        // equal to the cap (4095) saturates the 12-bit counter in one win.
        let config = SsvcConfig::new(12, 3, CounterPolicy::Halve);
        // slot/rate chosen so slot_vtick rounds to exactly 4095.
        let rate = Rate::new(9.0 / 4095.0).expect("valid");
        let p = predict(config, rate, 9);
        assert_eq!(p.vtick, 4095);
        assert_eq!(p.wins_to_saturation, 1);
        let report = analyze_counters(&CounterInput {
            counter_bits: 12,
            sig_bits: 3,
            policy: CounterPolicy::Halve,
            flows: vec![flow(0, 0, 9.0 / 4095.0, 9)],
        });
        // Not unrepresentable (4095 == cap) but a multi-lane jump.
        assert!(report
            .with_code(codes::VTICK_UNREPRESENTABLE)
            .next()
            .is_none());
        assert!(!report.is_clean());
    }

    #[test]
    fn tiny_rate_overflows_the_counter() {
        // 0.01% of a 9-cycle slot: Vtick 90000 > 4095 cap.
        let report = analyze_counters(&base(
            CounterPolicy::SubtractRealClock,
            vec![flow(0, 0, 0.0001, 9)],
        ));
        assert!(report.has_errors());
        assert_eq!(report.with_code(codes::VTICK_UNREPRESENTABLE).count(), 1);
    }

    #[test]
    fn multi_lane_jump_warns() {
        // 1% of a 9-cycle slot: Vtick 900, msb step 512 -> 2 lanes/win.
        let report = analyze_counters(&base(
            CounterPolicy::SubtractRealClock,
            vec![flow(0, 0, 0.01, 9)],
        ));
        assert!(!report.has_errors());
        assert!(!report.is_clean());
        assert_eq!(report.with_code(codes::COUNTER_SATURATION).count(), 1);
    }

    #[test]
    fn halve_flags_rates_below_separation_resolution() {
        // Vticks 18 vs 20 differ by 2 < 2*512: halving cannot keep the
        // 50% and 45% flows apart.
        let report = analyze_counters(&base(
            CounterPolicy::Halve,
            vec![flow(0, 0, 0.5, 9), flow(1, 0, 0.45, 9)],
        ));
        assert_eq!(report.with_code(codes::HALVE_COLLAPSES_FLOWS).count(), 1);
    }

    #[test]
    fn halve_separable_rates_are_not_flagged() {
        // A 5-bit counter with 3 significant bits: msb step 4. Vticks
        // 10 vs 20 differ by 10 >= 8, so halving keeps them apart.
        let report = analyze_counters(&CounterInput {
            counter_bits: 5,
            sig_bits: 3,
            policy: CounterPolicy::Halve,
            flows: vec![flow(0, 0, 0.9, 9), flow(1, 0, 0.45, 9)],
        });
        assert!(report
            .with_code(codes::HALVE_COLLAPSES_FLOWS)
            .next()
            .is_none());
    }

    #[test]
    fn subtract_policy_never_reports_halve_collapse() {
        let report = analyze_counters(&base(
            CounterPolicy::SubtractRealClock,
            vec![flow(0, 0, 0.5, 9), flow(1, 0, 0.45, 9)],
        ));
        assert!(report
            .with_code(codes::HALVE_COLLAPSES_FLOWS)
            .next()
            .is_none());
    }

    #[test]
    fn different_outputs_never_collapse_together() {
        let report = analyze_counters(&base(
            CounterPolicy::Halve,
            vec![flow(0, 0, 0.5, 9), flow(1, 1, 0.45, 9)],
        ));
        assert!(report
            .with_code(codes::HALVE_COLLAPSES_FLOWS)
            .next()
            .is_none());
    }
}
