//! The paper's guaranteed-latency mathematics (§3.4), shared by every
//! layer that reasons about GL service: the Eq. 1 worst-case waiting
//! bound and the Eqs. 2–3 burst budgets.
//!
//! This module is the single implementation of those formulas: the
//! simulator's GL watchdog, `ssq-check`'s static analysis, the fabric's
//! per-hop budgets and `ssq-verify`'s V5 invariant all call it, and the
//! paper's worked examples are pinned by the tests below.

/// Eq. 1: the maximum waiting time `τ_GL` for a buffered GL packet at
/// the switch:
///
/// ```text
/// τ_GL <= l_max + N_GL,o * (b + ceil(b / l_min))
/// ```
///
/// `l_max` covers the wait for channel release from a packet already
/// holding the channel; `N_GL,o · b` the transmit latency of buffered
/// flits ahead of this packet; `N_GL,o · ceil(b / l_min)` the
/// arbitration latency (one cycle per packet, at most `ceil(b / l_min)`
/// packets per buffer).
///
/// # Panics
///
/// Panics if `l_min` is zero or the bound exceeds `u64::MAX` (see
/// [`checked_gl_latency_bound`]).
///
/// # Examples
///
/// ```
/// use ssq_types::bounds::gl_latency_bound;
///
/// // One interrupt source with a 4-flit buffer and single-flit packets
/// // waits at most 1 + 1*(4 + 4) = 9 cycles.
/// assert_eq!(gl_latency_bound(1, 1, 1, 4), 9);
/// ```
#[must_use]
pub fn gl_latency_bound(l_max: u64, l_min: u64, n_gl: u64, buffer_flits: u64) -> u64 {
    assert!(l_min > 0, "l_min must be positive");
    checked_gl_latency_bound(l_max, l_min, n_gl, buffer_flits)
        .expect("the Eq. 1 bound exceeds u64::MAX")
}

/// [`gl_latency_bound`], or `None` when `l_min` is zero or the bound
/// does not fit a `u64`.
///
/// # Examples
///
/// ```
/// use ssq_types::bounds::checked_gl_latency_bound;
///
/// assert_eq!(checked_gl_latency_bound(1, 1, 1, 4), Some(9));
/// assert_eq!(checked_gl_latency_bound(8, 1, 64, u64::MAX), None);
/// ```
#[must_use]
pub fn checked_gl_latency_bound(
    l_max: u64,
    l_min: u64,
    n_gl: u64,
    buffer_flits: u64,
) -> Option<u64> {
    let packets = (l_min > 0).then(|| buffer_flits.div_ceil(l_min))?;
    let per_input = buffer_flits.checked_add(packets)?;
    l_max.checked_add(n_gl.checked_mul(per_input)?)
}

/// Eqs. 2–3: maximum burst sizes (in packets) for GL inputs with ordered
/// latency constraints `L₁ <= L₂ <= … <= L_N` (tightest first):
///
/// ```text
/// σ₁ = (L₁ − l_max) / ((l_max + 1) · N)
/// σₙ = σₙ₋₁ + (Lₙ − Lₙ₋₁) / ((l_max + 1) · (N − n))        (n > 1)
/// ```
///
/// The flow with constraint `Lₙ` "can burst as many flits as the flow
/// with the `Lₙ₋₁` constraint but has to compete with the remaining
/// `N_GL,o − n` flows with higher latency constraints". Results are
/// floored to whole packets; a constraint too tight to admit even one
/// packet yields 0. For the loosest flow (`n = N`) the divisor `N − n`
/// is zero, meaning no *other* flow constrains it beyond its own
/// constraint; the budget is then limited by its own latency headroom
/// against the already-granted bursts.
///
/// The arithmetic is exact for every input: a divisor `(l_max + 1) · k`
/// too large for a `u64` exceeds every numerator, so its quotient is 0.
///
/// # Panics
///
/// Panics if `constraints` is empty or not sorted ascending.
///
/// # Examples
///
/// ```
/// use ssq_types::bounds::gl_burst_budgets;
///
/// // Two GL flows with 1-flit packets; the tighter flow gets the
/// // smaller budget.
/// let budgets = gl_burst_budgets(&[40, 100], 1);
/// assert!(budgets[0] <= budgets[1]);
/// ```
#[must_use]
pub fn gl_burst_budgets(constraints: &[u64], l_max: u64) -> Vec<u64> {
    assert!(!constraints.is_empty(), "need at least one constraint");
    assert!(
        constraints.windows(2).all(|w| w[0] <= w[1]),
        "constraints must be sorted tightest (smallest) first"
    );
    let n = constraints.len() as u64;
    // `x / ((l_max + 1) · k)`, 0 when the divisor overflows.
    let per_slots = |x: u64, k: u64| {
        l_max
            .checked_add(1)
            .and_then(|slot| slot.checked_mul(k))
            .map_or(0, |d| x / d)
    };
    let mut budgets = Vec::with_capacity(constraints.len());
    // Eq. 2.
    budgets.push(per_slots(constraints[0].saturating_sub(l_max), n));
    // Eq. 3.
    for (idx, pair) in constraints.windows(2).enumerate() {
        let k = (idx + 2) as u64; // this is σ_k for k = idx + 2
        let prev = budgets[idx];
        let delta = pair[1] - pair[0];
        // The loosest flow (`k == n`) competes with nobody beyond the
        // bursts already granted: its headroom converts one-for-one
        // into packet slots.
        let extra = per_slots(delta, (n - k).max(1));
        // No overflow: each σ_k is at most L_k / (l_max + 1).
        budgets.push(prev + extra);
    }
    budgets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_matches_the_paper_shape() {
        // 8 inputs, 4-flit buffers, packets 1..=8 flits:
        // 8 + 8*(4 + 4/1) = 72.
        assert_eq!(gl_latency_bound(8, 1, 8, 4), 72);
        // b=6, l_min=4: at most ceil(6/4)=2 buffered packets per input.
        assert_eq!(gl_latency_bound(4, 4, 2, 6), 4 + 2 * (6 + 2));
    }

    #[test]
    #[should_panic(expected = "l_min")]
    fn zero_l_min_rejected() {
        let _ = gl_latency_bound(1, 0, 1, 4);
    }

    #[test]
    fn budgets_match_worked_examples() {
        assert_eq!(gl_burst_budgets(&[101], 1), vec![50]);
        assert_eq!(gl_burst_budgets(&[201; 8], 1)[0], 12);
        assert_eq!(gl_burst_budgets(&[50, 100, 400], 4), vec![3, 13, 73]);
    }

    #[test]
    fn bound_grows_with_each_parameter() {
        let base = gl_latency_bound(4, 2, 2, 8);
        assert!(gl_latency_bound(8, 2, 2, 8) > base);
        assert!(gl_latency_bound(4, 2, 4, 8) > base);
        assert!(gl_latency_bound(4, 2, 2, 16) > base);
        // Smaller minimum packets mean more arbitrations for the same
        // buffered flits.
        assert!(gl_latency_bound(4, 1, 2, 8) > base);
    }

    #[test]
    fn checked_bound_refuses_what_a_u64_cannot_hold() {
        assert_eq!(checked_gl_latency_bound(8, 1, 8, 4), Some(72));
        assert_eq!(checked_gl_latency_bound(8, 0, 8, 4), None);
        assert_eq!(checked_gl_latency_bound(u64::MAX, 1, 1, 1), None);
        assert_eq!(checked_gl_latency_bound(1024, 1, 64, u64::MAX), None);
        // 2·b flits per input: 64 · 2^58 = 2^64 does not fit, 2^63 does.
        assert_eq!(checked_gl_latency_bound(1024, 1, 64, 1 << 57), None);
        assert_eq!(
            checked_gl_latency_bound(1024, 1, 64, 1 << 56),
            Some(1024 + (1 << 63))
        );
    }

    #[test]
    fn equal_constraints_share_one_budget() {
        // 8 flows, 1-flit packets, L=201: σ1 = 200/(2*8) = 12 each;
        // equal constraints add nothing in Eq. 3.
        assert_eq!(gl_burst_budgets(&[201; 8], 1), vec![12; 8]);
    }

    #[test]
    fn budgets_keep_total_burst_under_the_tightest_bound() {
        // Serving all σ1·N tightest packets takes at most
        // N·σ1·(l_max+1) + l_max cycles <= L1.
        for l_max in [1u64, 4, 8] {
            for n in [1u64, 2, 4, 8] {
                let l1 = 500;
                let budgets = gl_burst_budgets(&vec![l1; n as usize], l_max);
                let worst = l_max + n * budgets[0] * (l_max + 1);
                assert!(
                    worst <= l1,
                    "l_max={l_max} n={n}: worst {worst} > bound {l1}"
                );
            }
        }
    }

    #[test]
    fn budgets_are_exact_at_the_u64_edges() {
        // l_max + 1 overflows: no constraint admits a packet.
        assert_eq!(gl_burst_budgets(&[5, u64::MAX], u64::MAX), vec![0, 0]);
        // (l_max + 1) · N overflows: Eq. 2 is 0.
        let half = u64::MAX / 2;
        assert_eq!(gl_burst_budgets(&[u64::MAX, u64::MAX], half), vec![0, 0]);
        // The widest headroom converts at one packet per l_max + 1 cycles.
        assert_eq!(gl_burst_budgets(&[0, u64::MAX], 1), vec![0, u64::MAX / 2]);
    }

    #[test]
    fn too_tight_constraint_yields_zero() {
        assert_eq!(gl_burst_budgets(&[3], 8)[0], 0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_constraints_rejected() {
        let _ = gl_burst_budgets(&[100, 50], 1);
    }
}
