//! Guaranteed-latency feasibility: the Eq. 1 worst-case waiting bound
//! and the Eqs. 2–3 burst budgets, applied statically.
//!
//! The formulas come from [`ssq_types::bounds`] — the single shared
//! implementation also consumed by `ssq-core` (simulation) and
//! `ssq-verify` (exhaustive model checking). The worked-example tests
//! here are kept as regression cross-checks: a change to the shared
//! module that shifts any bound fails this analyzer's suite too.

use crate::diag::{codes, Diagnostic, Report, Severity};

/// One GL flow at an output: its contractual latency ceiling and how
/// many packets it may burst back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlFlowSpec {
    /// The latency constraint `Lₙ` in cycles the flow was promised.
    pub latency_constraint: u64,
    /// The burst size in packets the source declares it may emit.
    pub declared_burst: u64,
}

/// The GL analyzer's view of one output's guaranteed-latency traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlInput {
    /// Maximum GL packet length in flits (`l_max`).
    pub l_max: u64,
    /// Minimum GL packet length in flits (`l_min`).
    pub l_min: u64,
    /// GL buffer depth per input in flits (`b` of Eq. 1).
    pub buffer_flits: u64,
    /// The GL flows targeting this output.
    pub flows: Vec<GlFlowSpec>,
}

/// Eq. 1: worst-case waiting time for a buffered GL packet,
/// `τ_GL <= l_max + N_GL·(b + ceil(b / l_min))`.
///
/// # Panics
///
/// Panics if `l_min` is zero.
#[must_use]
pub fn gl_latency_bound(l_max: u64, l_min: u64, n_gl: u64, buffer_flits: u64) -> u64 {
    ssq_types::bounds::gl_latency_bound(l_max, l_min, n_gl, buffer_flits)
}

/// Eqs. 2–3: burst budgets (in packets) for GL flows with ascending
/// latency constraints:
///
/// ```text
/// σ₁ = (L₁ − l_max) / ((l_max + 1) · N)
/// σₙ = σₙ₋₁ + (Lₙ − Lₙ₋₁) / ((l_max + 1) · (N − n))        (n > 1)
/// ```
///
/// The loosest flow (`n = N`) competes with nobody beyond the bursts
/// already granted, so its headroom converts one-for-one into packet
/// slots.
///
/// # Panics
///
/// Panics if `constraints` is empty or not sorted ascending.
#[must_use]
pub fn gl_burst_budgets(constraints: &[u64], l_max: u64) -> Vec<u64> {
    ssq_types::bounds::gl_burst_budgets(constraints, l_max)
}

/// Checks every GL flow of one output against Eq. 1 and Eqs. 2–3.
///
/// Emits [`codes::GL_BUFFER_TOO_SMALL`] (error) when the buffer cannot
/// hold one minimum-size packet (the Eq. 1 precondition),
/// [`codes::GL_CONSTRAINT_INFEASIBLE`] (error) for flows whose promised
/// latency is below the Eq. 1 worst-case wait, and
/// [`codes::GL_BURST_OVER_BUDGET`] (error) for flows declaring bursts
/// above their Eq. 2/3 budget.
pub fn analyze_gl(output: usize, input: &GlInput) -> Report {
    let mut report = Report::new();
    if input.flows.is_empty() {
        return report;
    }
    if input.l_min == 0 || input.l_min > input.l_max {
        report.push(Diagnostic::new(
            codes::GL_CONSTRAINT_INFEASIBLE,
            Severity::Error,
            format!("output {output}"),
            format!(
                "degenerate GL packet lengths: need 0 < l_min <= l_max, got {}..={}",
                input.l_min, input.l_max
            ),
        ));
        return report;
    }
    if input.buffer_flits < input.l_min {
        report.push(Diagnostic::new(
            codes::GL_BUFFER_TOO_SMALL,
            Severity::Error,
            format!("output {output}"),
            format!(
                "GL buffer of {} flits cannot hold one minimum-size packet ({} flits); \
                 the Eq. 1 bound assumes b >= l_min",
                input.buffer_flits, input.l_min
            ),
        ));
    }

    let n_gl = input.flows.len() as u64;
    let bound = gl_latency_bound(input.l_max, input.l_min, n_gl, input.buffer_flits);
    for (i, flow) in input.flows.iter().enumerate() {
        if flow.latency_constraint < bound {
            report.push(Diagnostic::new(
                codes::GL_CONSTRAINT_INFEASIBLE,
                Severity::Error,
                format!("output {output}, GL flow {i}"),
                format!(
                    "latency constraint {} cycles is below the Eq. 1 worst-case wait of {} \
                     ({} GL inputs, {}-flit buffers, packets {}..={} flits)",
                    flow.latency_constraint,
                    bound,
                    n_gl,
                    input.buffer_flits,
                    input.l_min,
                    input.l_max
                ),
            ));
        }
    }

    // Eqs. 2–3 assign budgets by ascending constraint; map each budget
    // back to the flow that owns the constraint.
    let mut order: Vec<usize> = (0..input.flows.len()).collect();
    order.sort_by_key(|&i| input.flows[i].latency_constraint);
    let constraints: Vec<u64> = order
        .iter()
        .map(|&i| input.flows[i].latency_constraint)
        .collect();
    let budgets = gl_burst_budgets(&constraints, input.l_max);
    for (rank, &flow_idx) in order.iter().enumerate() {
        let flow = input.flows[flow_idx];
        let budget = budgets[rank];
        if flow.declared_burst > budget {
            report.push(Diagnostic::new(
                codes::GL_BURST_OVER_BUDGET,
                Severity::Error,
                format!("output {output}, GL flow {flow_idx}"),
                format!(
                    "declared burst of {} packets exceeds the Eq. 2/3 budget of {} \
                     for a {}-cycle constraint (rank {} of {})",
                    flow.declared_burst,
                    budget,
                    flow.latency_constraint,
                    rank + 1,
                    constraints.len()
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_bound_matches_the_paper_shape() {
        // 8 inputs, 4-flit buffers, packets 1..=8 flits:
        // 8 + 8*(4 + 4/1) = 72.
        assert_eq!(gl_latency_bound(8, 1, 8, 4), 72);
        // b=6, l_min=4: ceil(6/4)=2 arbitrations per buffer.
        assert_eq!(gl_latency_bound(4, 4, 2, 6), 4 + 2 * (6 + 2));
    }

    #[test]
    fn burst_budgets_match_worked_examples() {
        assert_eq!(gl_burst_budgets(&[101], 1), vec![50]);
        assert_eq!(gl_burst_budgets(&[201; 8], 1)[0], 12);
        assert_eq!(gl_burst_budgets(&[50, 100, 400], 4), vec![3, 13, 73]);
    }

    fn spec(latency: u64, burst: u64) -> GlFlowSpec {
        GlFlowSpec {
            latency_constraint: latency,
            declared_burst: burst,
        }
    }

    #[test]
    fn feasible_gl_config_is_clean() {
        let input = GlInput {
            l_max: 1,
            l_min: 1,
            buffer_flits: 4,
            flows: vec![spec(200, 10), spec(400, 20)],
        };
        let report = analyze_gl(0, &input);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn constraint_below_eq1_bound_errors() {
        // Bound: 1 + 2*(4 + 4) = 17; constraint 10 is infeasible.
        let input = GlInput {
            l_max: 1,
            l_min: 1,
            buffer_flits: 4,
            flows: vec![spec(10, 0), spec(400, 1)],
        };
        let report = analyze_gl(3, &input);
        assert_eq!(report.with_code(codes::GL_CONSTRAINT_INFEASIBLE).count(), 1);
    }

    #[test]
    fn burst_above_budget_errors() {
        // Single flow, L=101, l_max=1: budget 50. Declaring 51 fails.
        let input = GlInput {
            l_max: 1,
            l_min: 1,
            buffer_flits: 4,
            flows: vec![spec(101, 51)],
        };
        let report = analyze_gl(0, &input);
        assert_eq!(report.with_code(codes::GL_BURST_OVER_BUDGET).count(), 1);
        // The same flow declaring exactly its budget passes.
        let ok = GlInput {
            flows: vec![spec(101, 50)],
            ..input
        };
        assert!(analyze_gl(0, &ok)
            .with_code(codes::GL_BURST_OVER_BUDGET)
            .next()
            .is_none());
    }

    #[test]
    fn undersized_buffer_errors() {
        let input = GlInput {
            l_max: 8,
            l_min: 4,
            buffer_flits: 2,
            flows: vec![spec(1_000, 0)],
        };
        let report = analyze_gl(0, &input);
        assert_eq!(report.with_code(codes::GL_BUFFER_TOO_SMALL).count(), 1);
    }

    #[test]
    fn budgets_follow_constraint_order_not_declaration_order() {
        // Flow 0 is the LOOSER flow; it must get the larger budget even
        // though it is declared first.
        let input = GlInput {
            l_max: 4,
            l_min: 4,
            buffer_flits: 4,
            flows: vec![spec(400, 70), spec(100, 2)],
        };
        // Budgets for sorted [100, 400]: σ1 = 96/10 = 9, σ2 = 9 + 300/5 = 69.
        // Flow 1 (constraint 100) budget 9: declared 2 passes.
        // Flow 0 (constraint 400) budget 69: declared 70 fails.
        let report = analyze_gl(0, &input);
        let findings: Vec<_> = report.with_code(codes::GL_BURST_OVER_BUDGET).collect();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].subject().contains("flow 0"), "{}", findings[0]);
    }

    #[test]
    fn empty_flow_list_is_clean() {
        let input = GlInput {
            l_max: 1,
            l_min: 1,
            buffer_flits: 4,
            flows: vec![],
        };
        assert!(analyze_gl(0, &input).is_empty());
    }
}
