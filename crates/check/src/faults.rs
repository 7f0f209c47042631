//! Fault-tolerance feasibility (SSQ012): can the declared provisions —
//! spare GB lanes and a transient-retry budget — preserve the Eq. 1 GL
//! bound for the admitted flow set once a single fault lands?
//!
//! The degradation ladder (DESIGN.md §8) costs cycles: every retry of a
//! corrupted grant re-runs one arbitration (up to `l_max` cycles of
//! occupancy each), and losing the GL lane with no spare forfeits the
//! bound outright. This analyzer prices that ladder at config time so an
//! operator learns *before* the campaign that their tolerance level and
//! latency promises are incompatible. Warnings, not errors: a fault may
//! never land, so the configuration is still runnable.

use crate::diag::{codes, Diagnostic, Report, Severity};
use crate::gl::GlInput;

/// The declared fault-tolerance provisions for one output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultToleranceSpec {
    /// GB thermometer lanes beyond the minimum the admitted flow set
    /// needs — lanes arbitration can lose before degrading to LRG.
    pub spare_gb_lanes: u32,
    /// Transient faults the switch will retry before revoking a
    /// guarantee; each retry costs one extra arbitration round.
    pub retry_budget: u32,
}

/// The Eq. 1 bound inflated by the retry budget: each retry re-runs one
/// arbitration the flow can lose, adding up to `l_max` cycles of channel
/// occupancy.
///
/// # Panics
///
/// Panics if `l_min` is zero (propagated from the Eq. 1 bound).
#[must_use]
pub fn post_fault_gl_bound(
    l_max: u64,
    l_min: u64,
    n_gl: u64,
    buffer_flits: u64,
    retry_budget: u32,
) -> u64 {
    ssq_types::bounds::gl_latency_bound(l_max, l_min, n_gl, buffer_flits)
        + u64::from(retry_budget) * l_max
}

/// Checks the declared tolerance level of one output against its GL
/// flow set.
///
/// Emits [`codes::FAULT_TOLERANCE`] warnings when:
///
/// - GL flows are admitted with `spare_gb_lanes == 0`: one stuck GL-lane
///   wire forces demotion and the Eq. 1 bound is forfeited, not merely
///   inflated;
/// - a flow's latency constraint holds under the healthy Eq. 1 bound but
///   not under the retry-inflated post-fault bound — the retry budget
///   silently converts a transient fault into a contract violation.
///
/// Flows already infeasible when healthy are skipped: SSQ003 owns those.
pub fn analyze_fault_tolerance(
    output: usize,
    input: &GlInput,
    spec: &FaultToleranceSpec,
) -> Report {
    let mut report = Report::new();
    if input.flows.is_empty() || input.l_min == 0 || input.l_min > input.l_max {
        // Nothing guaranteed, or degenerate lengths SSQ003 already rejects.
        return report;
    }

    if spec.spare_gb_lanes == 0 {
        report.push(Diagnostic::new(
            codes::FAULT_TOLERANCE,
            Severity::Warning,
            format!("output {output}"),
            format!(
                "{} GL flow(s) admitted with no spare lanes: a single stuck lane wire \
                 demotes GL to GB and forfeits the Eq. 1 bound",
                input.flows.len()
            ),
        ));
    }

    let n_gl = input.flows.len() as u64;
    let healthy =
        ssq_types::bounds::gl_latency_bound(input.l_max, input.l_min, n_gl, input.buffer_flits);
    let degraded = post_fault_gl_bound(
        input.l_max,
        input.l_min,
        n_gl,
        input.buffer_flits,
        spec.retry_budget,
    );
    for (i, flow) in input.flows.iter().enumerate() {
        if flow.latency_constraint >= healthy && flow.latency_constraint < degraded {
            report.push(Diagnostic::new(
                codes::FAULT_TOLERANCE,
                Severity::Warning,
                format!("output {output}, GL flow {i}"),
                format!(
                    "latency constraint {} holds when healthy (Eq. 1 bound {}) but not \
                     after {} retries of a transient fault (post-fault bound {}); \
                     lower the retry budget or loosen the constraint",
                    flow.latency_constraint, healthy, spec.retry_budget, degraded
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gl::GlFlowSpec;

    fn gl_input(constraints: &[u64]) -> GlInput {
        GlInput {
            l_max: 8,
            l_min: 1,
            buffer_flits: 4,
            flows: constraints
                .iter()
                .map(|&c| GlFlowSpec {
                    latency_constraint: c,
                    declared_burst: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn tolerant_config_is_clean() {
        // Healthy bound for 2 flows: 8 + 2*(4 + 4) = 24. Post-fault with
        // 2 retries: 24 + 16 = 40. Constraints at 100 clear both.
        let spec = FaultToleranceSpec {
            spare_gb_lanes: 1,
            retry_budget: 2,
        };
        let report = analyze_fault_tolerance(0, &gl_input(&[100, 100]), &spec);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn no_spare_lanes_with_gl_flows_warns() {
        let spec = FaultToleranceSpec {
            spare_gb_lanes: 0,
            retry_budget: 0,
        };
        let report = analyze_fault_tolerance(1, &gl_input(&[100]), &spec);
        let f: Vec<_> = report.with_code(codes::FAULT_TOLERANCE).collect();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity(), Severity::Warning);
        assert!(f[0].message().contains("forfeits"), "{}", f[0]);
    }

    #[test]
    fn retry_budget_that_breaks_a_tight_constraint_warns() {
        // Healthy bound (1 flow): 8 + 1*(4 + 4) = 16. Post-fault with 3
        // retries: 16 + 24 = 40. A 30-cycle constraint is healthy-only.
        let spec = FaultToleranceSpec {
            spare_gb_lanes: 1,
            retry_budget: 3,
        };
        let report = analyze_fault_tolerance(0, &gl_input(&[30]), &spec);
        let f: Vec<_> = report.with_code(codes::FAULT_TOLERANCE).collect();
        assert_eq!(f.len(), 1);
        assert!(f[0].message().contains("post-fault bound 40"), "{}", f[0]);
    }

    #[test]
    fn healthy_infeasible_flows_are_left_to_ssq003() {
        // Constraint 10 is below even the healthy bound of 16 — SSQ003
        // territory, no duplicate SSQ012 noise.
        let spec = FaultToleranceSpec {
            spare_gb_lanes: 1,
            retry_budget: 3,
        };
        assert!(analyze_fault_tolerance(0, &gl_input(&[10]), &spec).is_empty());
    }

    #[test]
    fn no_gl_flows_means_nothing_to_protect() {
        let spec = FaultToleranceSpec::default();
        assert!(analyze_fault_tolerance(0, &gl_input(&[]), &spec).is_empty());
    }

    #[test]
    fn post_fault_bound_adds_lmax_per_retry() {
        let healthy = ssq_types::bounds::gl_latency_bound(8, 1, 2, 4);
        assert_eq!(post_fault_gl_bound(8, 1, 2, 4, 0), healthy);
        assert_eq!(post_fault_gl_bound(8, 1, 2, 4, 2), healthy + 16);
    }
}
