//! The curated verification tiers behind `ssq verify`.
//!
//! * **Fast tier** — radix-2 switches, every class mix (all nine
//!   `{BE, GB, GL}²` combinations) under all three counter policies
//!   with asymmetric `Vtick`s, plus an all-GB symmetric-`Vtick` sweep.
//!   Every scenario's reachable state space closes, so a clean fast
//!   tier is an exhaustiveness proof at radix 2. Runs in seconds; wired
//!   into `scripts/check.sh`.
//! * **Deep tier** — radix-4 switches over representative mixes, with a
//!   bounded horizon and state cap (the radix-4 LRG permutation product
//!   alone is `24³`); outcomes report honestly whether the space closed
//!   or was clipped.

use ssq_arbiter::CounterPolicy;
use ssq_types::TrafficClass;

use crate::{all_policies, Scenario};

fn class_label(c: TrafficClass) -> &'static str {
    match c {
        TrafficClass::BestEffort => "be",
        TrafficClass::GuaranteedBandwidth => "gb",
        TrafficClass::GuaranteedLatency => "gl",
    }
}

fn scenario_name(prefix: &str, mix: &[TrafficClass], policy: CounterPolicy) -> String {
    let classes: Vec<&str> = mix.iter().map(|&c| class_label(c)).collect();
    format!("{prefix}-{}-{policy}", classes.join("+"))
}

/// The fast tier: exhaustive radix-2 coverage. 30 scenarios, each
/// closing its full reachable state space.
#[must_use]
pub fn fast_scenarios() -> Vec<Scenario> {
    let classes = [
        TrafficClass::BestEffort,
        TrafficClass::GuaranteedBandwidth,
        TrafficClass::GuaranteedLatency,
    ];
    let mut scenarios = Vec::new();
    for policy in all_policies() {
        for a in classes {
            for b in classes {
                let mix = vec![a, b];
                scenarios.push(Scenario::new(
                    scenario_name("2x2", &mix, policy),
                    policy,
                    mix,
                    vec![1, 3],
                ));
            }
        }
        // Symmetric Vticks exercise the pure-LRG tie-break path on
        // every contested GB cycle.
        let mix = vec![
            TrafficClass::GuaranteedBandwidth,
            TrafficClass::GuaranteedBandwidth,
        ];
        scenarios.push(Scenario::new(
            format!("2x2-gb+gb-even-{policy}"),
            policy,
            mix,
            vec![2, 2],
        ));
    }
    scenarios
}

/// The deep tier: radix-4 over representative mixes, horizon-bounded.
#[must_use]
pub fn deep_scenarios() -> Vec<Scenario> {
    use TrafficClass::{BestEffort as BE, GuaranteedBandwidth as GB, GuaranteedLatency as GL};
    let mixes: [[TrafficClass; 4]; 6] = [
        [GB, GB, GB, GB],
        [BE, BE, BE, BE],
        [GL, GL, GL, GL],
        [GB, GB, BE, BE],
        [GL, GB, GB, BE],
        [GL, GL, GB, BE],
    ];
    let mut scenarios = Vec::new();
    for policy in all_policies() {
        for mix in &mixes {
            scenarios.push(
                Scenario::new(
                    scenario_name("4x4", mix, policy),
                    policy,
                    mix.to_vec(),
                    vec![1, 2, 3, 1],
                )
                .with_bounds(24, 200_000),
            );
        }
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_tier_has_full_mix_and_policy_coverage() {
        let scenarios = fast_scenarios();
        assert_eq!(scenarios.len(), 30);
        for policy in all_policies() {
            assert_eq!(
                scenarios.iter().filter(|s| s.policy == policy).count(),
                10,
                "{policy}"
            );
        }
        assert!(scenarios.iter().all(|s| s.radix() == 2));
    }

    #[test]
    fn deep_tier_is_radix_4_and_bounded() {
        let scenarios = deep_scenarios();
        assert_eq!(scenarios.len(), 18);
        assert!(scenarios.iter().all(|s| s.radix() == 4));
        assert!(scenarios.iter().all(|s| s.horizon == 24));
    }
}
