//! Per-output admission control: GB + GL reservations must fit the
//! channel (§3.3), with headroom for best-effort traffic.

use ssq_types::{InputId, OutputId, Rate};

use crate::diag::{codes, Diagnostic, Report, Severity};

/// Allocation above this fraction of a channel leaves best-effort
/// traffic effectively starved and earns an [`codes::NO_BE_HEADROOM`]
/// warning.
pub const BE_HEADROOM_THRESHOLD: f64 = 0.95;

/// The admission analyzer's view of the reservation table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionInput {
    /// Every GB reservation: `(input, output, reserved rate)`.
    pub gb: Vec<(InputId, OutputId, Rate)>,
    /// Every GL reservation: `(output, reserved rate)`.
    pub gl: Vec<(OutputId, Rate)>,
}

/// Checks per-output feasibility of the reservation table.
///
/// Emits [`codes::OVERSUBSCRIBED`] (error) for every output whose GB +
/// GL allocation exceeds the channel, and [`codes::NO_BE_HEADROOM`]
/// (warning) where the allocation is feasible but leaves less than
/// `1 - `[`BE_HEADROOM_THRESHOLD`] for best-effort traffic.
pub fn analyze_admission(input: &AdmissionInput) -> Report {
    let mut totals: std::collections::BTreeMap<usize, f64> = Default::default();
    for &(_, output, rate) in &input.gb {
        *totals.entry(output.index()).or_default() += rate.value();
    }
    for &(output, rate) in &input.gl {
        *totals.entry(output.index()).or_default() += rate.value();
    }

    let mut report = Report::new();
    for (output, allocated) in totals {
        if allocated > 1.0 + 1e-9 {
            report.push(Diagnostic::new(
                codes::OVERSUBSCRIBED,
                Severity::Error,
                format!("output {output}"),
                format!(
                    "GB+GL reservations claim {:.1}% of the channel; at most 100% is admissible",
                    allocated * 100.0
                ),
            ));
        } else if allocated > BE_HEADROOM_THRESHOLD {
            report.push(Diagnostic::new(
                codes::NO_BE_HEADROOM,
                Severity::Warning,
                format!("output {output}"),
                format!(
                    "reservations claim {:.1}% of the channel; best-effort traffic is limited to \
                     the {:.1}% the guaranteed classes leave idle",
                    allocated * 100.0,
                    (1.0 - allocated).max(0.0) * 100.0
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(i: usize, o: usize, r: f64) -> (InputId, OutputId, Rate) {
        (
            InputId::new(i),
            OutputId::new(o),
            Rate::new(r).expect("valid rate"),
        )
    }

    #[test]
    fn feasible_table_is_clean() {
        let input = AdmissionInput {
            gb: vec![gb(0, 0, 0.4), gb(1, 0, 0.2), gb(2, 1, 0.9)],
            gl: vec![],
        };
        let report = analyze_admission(&input);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn oversubscription_is_an_error() {
        let input = AdmissionInput {
            gb: vec![gb(0, 0, 0.6), gb(1, 0, 0.6)],
            gl: vec![],
        };
        let report = analyze_admission(&input);
        assert!(report.has_errors());
        assert_eq!(report.with_code(codes::OVERSUBSCRIBED).count(), 1);
    }

    #[test]
    fn gl_counts_toward_the_budget() {
        let input = AdmissionInput {
            gb: vec![gb(0, 0, 0.8)],
            gl: vec![(OutputId::new(0), Rate::new(0.3).expect("valid"))],
        };
        assert!(analyze_admission(&input).has_errors());
    }

    #[test]
    fn near_full_allocation_warns_but_runs() {
        let input = AdmissionInput {
            gb: vec![gb(0, 0, 0.96)],
            gl: vec![],
        };
        let report = analyze_admission(&input);
        assert!(!report.has_errors());
        assert_eq!(report.with_code(codes::NO_BE_HEADROOM).count(), 1);
    }

    #[test]
    fn outputs_are_assessed_independently() {
        let input = AdmissionInput {
            gb: vec![gb(0, 0, 0.7), gb(0, 1, 0.7), gb(1, 1, 0.7)],
            gl: vec![],
        };
        let report = analyze_admission(&input);
        // Output 0 is fine; output 1 is oversubscribed.
        assert_eq!(report.with_code(codes::OVERSUBSCRIBED).count(), 1);
    }
}
