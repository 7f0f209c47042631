//! Bounded retry with exponential backoff, for NACK links.
//!
//! A dropped hop transfer on a NACK link is retransmitted (DESIGN.md
//! §13) under a bounded number of attempts, with an explicit `Exhausted`
//! verdict when the budget runs out, so the caller escalates loudly
//! instead of retrying forever. Each attempt waits a deterministic,
//! exponentially growing hold window with optional seeded jitter.

use ssq_types::rng::Xoshiro256StarStar;

/// A bounded retry/timeout policy.
///
/// The `k`-th retry (0-based) is delayed
/// `min(base_delay * factor^k, max_delay)` cycles, plus a uniform
/// seeded jitter in `[0, jitter]` when jitter is configured. After
/// `max_retries` attempts the policy reports [`RetryDecision::Exhausted`]
/// and the caller must escalate (revoke, reroute, or drop loudly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackoffPolicy {
    max_retries: u32,
    base_delay: u64,
    factor: u64,
    max_delay: u64,
    jitter: u64,
    seed: u64,
}

impl BackoffPolicy {
    /// An exponential policy: the `k`-th retry waits
    /// `min(base_delay * factor^k, max_delay)` cycles. A `factor` of 1
    /// gives a constant delay; a `base_delay` of 0 fires immediately
    /// regardless of the factor.
    #[must_use]
    pub const fn exponential(
        max_retries: u32,
        base_delay: u64,
        factor: u64,
        max_delay: u64,
    ) -> Self {
        BackoffPolicy {
            max_retries,
            base_delay,
            factor,
            max_delay,
            jitter: 0,
            seed: 0,
        }
    }

    /// Adds a seeded uniform jitter of `[0, jitter]` cycles on top of
    /// each computed delay. Deterministic: the jitter stream is drawn
    /// from an in-tree xoshiro generator expanded from `seed`.
    #[must_use]
    pub const fn with_jitter(mut self, jitter: u64, seed: u64) -> Self {
        self.jitter = jitter;
        self.seed = seed;
        self
    }

    /// The seed the jitter stream expands from.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The hold window before the 0-based `attempt`-th retry fires.
    /// Draws one jitter sample from `rng` when jitter is configured;
    /// otherwise `rng` is untouched, keeping jitter-free policies
    /// bit-stable regardless of generator state.
    #[must_use]
    pub fn delay_for(&self, attempt: u32, rng: &mut Xoshiro256StarStar) -> u64 {
        let mut delay = self.base_delay;
        let mut k = 0u32;
        while k < attempt && delay > 0 && delay < self.max_delay {
            delay = delay.saturating_mul(self.factor).min(self.max_delay);
            k = k.saturating_add(1);
        }
        delay = delay.min(self.max_delay.max(self.base_delay));
        if self.jitter > 0 {
            delay = delay.saturating_add(rng.below(self.jitter.saturating_add(1)));
        }
        delay
    }
}

/// The policy's verdict on one retry request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum RetryDecision {
    /// A new attempt was consumed; the retry fires once `until` is
    /// reached (immediately when `until` is the current cycle).
    Retry {
        /// First cycle at which the retried operation may run.
        until: u64,
    },
    /// An earlier attempt's hold window is still open: ride it without
    /// consuming budget.
    Hold {
        /// First cycle at which the in-flight retry may run.
        until: u64,
    },
    /// The attempt budget is spent; the caller must escalate.
    Exhausted,
}

/// Per-subject retry bookkeeping (one per packet awaiting retransmission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryTimer {
    attempts: u32,
    next_allowed: u64,
}

impl RetryTimer {
    /// Attempts consumed since the last reset.
    #[must_use]
    pub const fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Asks `policy` for a retry at cycle `now`: consumes an attempt
    /// (and schedules its hold window) unless a previous attempt's
    /// window is still open or the budget is exhausted.
    pub fn decide(
        &mut self,
        policy: &BackoffPolicy,
        now: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> RetryDecision {
        if now < self.next_allowed {
            return RetryDecision::Hold {
                until: self.next_allowed,
            };
        }
        if self.attempts >= policy.max_retries {
            return RetryDecision::Exhausted;
        }
        let attempt = self.attempts;
        self.attempts = self.attempts.saturating_add(1);
        let until = now.saturating_add(policy.delay_for(attempt, rng));
        self.next_allowed = until;
        RetryDecision::Retry { until }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(99)
    }

    #[test]
    fn a_zero_delay_policy_is_a_plain_countdown() {
        let policy = BackoffPolicy::exponential(2, 0, 1, 0);
        let mut timer = RetryTimer::default();
        let mut r = rng();
        let pristine = r;
        assert_eq!(
            timer.decide(&policy, 10, &mut r),
            RetryDecision::Retry { until: 10 }
        );
        assert_eq!(
            timer.decide(&policy, 10, &mut r),
            RetryDecision::Retry { until: 10 }
        );
        assert_eq!(timer.decide(&policy, 10, &mut r), RetryDecision::Exhausted);
        assert_eq!(r, pristine, "jitter-free policies never touch the rng");
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let policy = BackoffPolicy::exponential(8, 4, 2, 20);
        let mut r = rng();
        assert_eq!(policy.delay_for(0, &mut r), 4);
        assert_eq!(policy.delay_for(1, &mut r), 8);
        assert_eq!(policy.delay_for(2, &mut r), 16);
        assert_eq!(policy.delay_for(3, &mut r), 20, "capped at max_delay");
        assert_eq!(policy.delay_for(7, &mut r), 20);
    }

    #[test]
    fn hold_windows_ride_the_open_attempt() {
        let policy = BackoffPolicy::exponential(2, 10, 2, 100);
        let mut timer = RetryTimer::default();
        let mut r = rng();
        assert_eq!(
            timer.decide(&policy, 100, &mut r),
            RetryDecision::Retry { until: 110 }
        );
        // Detections inside the window do not burn budget.
        assert_eq!(
            timer.decide(&policy, 105, &mut r),
            RetryDecision::Hold { until: 110 }
        );
        assert_eq!(timer.attempts(), 1);
        // Past the window the second (doubled) attempt fires...
        assert_eq!(
            timer.decide(&policy, 110, &mut r),
            RetryDecision::Retry { until: 130 }
        );
        // ...and once it too lapses, the budget is gone.
        assert_eq!(timer.decide(&policy, 130, &mut r), RetryDecision::Exhausted);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let policy = BackoffPolicy::exponential(4, 10, 2, 100).with_jitter(5, 7);
        let mut a = Xoshiro256StarStar::seed_from_u64(policy.seed());
        let mut b = Xoshiro256StarStar::seed_from_u64(policy.seed());
        for attempt in 0..4 {
            let da = policy.delay_for(attempt, &mut a);
            let db = policy.delay_for(attempt, &mut b);
            assert_eq!(da, db, "same seed, same jitter stream");
            let base = 10u64.saturating_mul(1 << attempt).min(100);
            assert!((base..=base + 5).contains(&da), "attempt {attempt}: {da}");
        }
    }

    #[test]
    fn zero_base_delay_fires_immediately_at_any_factor() {
        let policy = BackoffPolicy::exponential(3, 0, 16, 1_000);
        let mut r = rng();
        assert_eq!(policy.delay_for(0, &mut r), 0);
        assert_eq!(policy.delay_for(2, &mut r), 0);
    }
}
