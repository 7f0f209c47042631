//! Runtime fault-state control for the switch (DESIGN.md §8).
//!
//! [`FaultControl`] tracks which degradations are currently in force —
//! per-output SSVC→LRG fallback, GL demotion, and the remaining
//! transient-retry budget under the shared [`BackoffPolicy`] — so the
//! arbitration hot path can consult a single source of truth. Mutation
//! happens only through the `QosSwitch::fault_*` methods, which pair
//! every state change with a trace event (the `no-silent-degrade` lint
//! holds them to it).
//!
//! The state is always compiled and armed at run time: a healthy
//! switch pays two `Vec<bool>` loads per arbitration round and one
//! `armed` branch per grant check.

use crate::backoff::{BackoffPolicy, RetryTimer};
use ssq_types::rng::Xoshiro256StarStar;

/// Per-switch fault and degradation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultControl {
    /// Per-output: GB arbitration has fallen back from SSVC to LRG.
    lrg_fallback: Vec<bool>,
    /// Per-output: the GL class lost its lane and was demoted — GL no
    /// longer preempts GB and the Eq. 1 bound is off.
    gl_demoted: Vec<bool>,
    /// Per-output transient-retry bookkeeping against `policy`.
    retry: Vec<RetryTimer>,
    /// The shared retry/timeout/backoff policy (DESIGN.md §8, §13).
    policy: BackoffPolicy,
    /// Jitter stream for `policy` (untouched by jitter-free policies).
    rng: Xoshiro256StarStar,
    /// Whether any fault is currently armed: detection classifies (and
    /// never panics) only while this is set.
    armed: bool,
}

impl FaultControl {
    /// A healthy controller for `radix` outputs with a fixed retry
    /// budget ([`BackoffPolicy::immediate`]).
    #[must_use]
    pub fn new(radix: usize, retry_budget: u32) -> Self {
        let policy = BackoffPolicy::immediate(retry_budget);
        FaultControl {
            lrg_fallback: vec![false; radix],
            gl_demoted: vec![false; radix],
            retry: vec![RetryTimer::new(); radix],
            policy,
            rng: Xoshiro256StarStar::seed_from_u64(policy.seed()),
            armed: false,
        }
    }

    /// Whether any fault is currently armed.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Marks a fault as injected: detection sites start classifying.
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Marks all faults healed. Degradations stay in force — restoring
    /// SSVC or GL is an explicit re-admission decision, not a side
    /// effect of the wire healing.
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Whether output `o` arbitrates GB via the LRG fallback.
    #[must_use]
    pub fn lrg_fallback(&self, o: usize) -> bool {
        self.lrg_fallback[o]
    }

    /// Sets or clears the LRG fallback for output `o`.
    pub fn set_lrg_fallback(&mut self, o: usize, on: bool) {
        self.lrg_fallback[o] = on;
    }

    /// Whether output `o`'s GL class is demoted (no longer preemptive).
    #[must_use]
    pub fn gl_demoted(&self, o: usize) -> bool {
        self.gl_demoted[o]
    }

    /// Sets or clears GL demotion for output `o`.
    pub fn set_gl_demoted(&mut self, o: usize, on: bool) {
        self.gl_demoted[o] = on;
    }

    /// Transient retries left for output `o`.
    #[must_use]
    pub fn retries_left(&self, o: usize) -> u32 {
        self.retry.get(o).map_or(0, |t| {
            self.policy.max_retries().saturating_sub(t.attempts())
        })
    }

    /// Asks the backoff policy for a retry at output `o`, cycle `now`:
    /// `true` means keep retrying (a fresh attempt was consumed, or an
    /// earlier attempt's hold window is still open); `false` means the
    /// budget is exhausted and the caller must escalate. The policy is
    /// always [`BackoffPolicy::immediate`]: a plain countdown, the one
    /// the fault campaigns pin their verdicts against.
    pub fn try_retry(&mut self, o: usize, now: u64) -> bool {
        let Some(timer) = self.retry.get_mut(o) else {
            return false;
        };
        timer.decide(&self.policy, now, &mut self.rng).retrying()
    }

    /// Refills output `o`'s retry budget (on heal or SSVC restore).
    pub fn reset_retries(&mut self, o: usize) {
        if let Some(timer) = self.retry.get_mut(o) {
            timer.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retries_run_down_and_reset() {
        let mut fc = FaultControl::new(4, 2);
        assert_eq!(fc.retries_left(1), 2);
        assert!(fc.try_retry(1, 10));
        assert!(fc.try_retry(1, 11));
        assert!(!fc.try_retry(1, 12));
        fc.reset_retries(1);
        assert_eq!(fc.retries_left(1), 2);
        // Other outputs were untouched.
        assert_eq!(fc.retries_left(0), 2);
    }

    #[test]
    fn degradations_are_per_output_and_survive_disarm() {
        let mut fc = FaultControl::new(4, 0);
        fc.arm();
        fc.set_lrg_fallback(2, true);
        fc.set_gl_demoted(3, true);
        assert!(fc.armed());
        fc.disarm();
        assert!(!fc.armed());
        assert!(fc.lrg_fallback(2) && !fc.lrg_fallback(0));
        assert!(fc.gl_demoted(3) && !fc.gl_demoted(0));
    }
}
