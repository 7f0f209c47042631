//! Fairness summaries across flows.

/// Jain's fairness index over per-flow allocations.
///
/// `J = (Σxᵢ)² / (n · Σxᵢ²)`, ranging from `1/n` (one flow gets
/// everything) to `1.0` (perfectly equal). Used to quantify Fig. 4a's
/// claim that LRG "distributes bandwidth equally among inputs during
/// congestion" and to compare latency fairness across counter-management
/// policies (Fig. 5).
///
/// Returns `1.0` for an empty slice (no flows means nothing is unfair) and
/// for the all-zero allocation.
///
/// # Examples
///
/// ```
/// use ssq_stats::jain_fairness_index;
///
/// assert!((jain_fairness_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
/// assert!((jain_fairness_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
/// ```
#[must_use]
pub fn jain_fairness_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (allocations.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_allocations_is_one() {
        assert!((jain_fairness_index(&[3.0; 8]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let j = jain_fairness_index(&[10.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.2).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_and_zero_are_fair() {
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = jain_fairness_index(&[1.0, 2.0, 3.0]);
        let b = jain_fairness_index(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn jain_is_bounded() {
        let allocs = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];
        let j = jain_fairness_index(&allocs);
        assert!(j > 1.0 / 8.0 && j < 1.0);
    }
}
