//! Topology-level fault plans: kill and flap links, partition nodes,
//! and pass single-switch faults through to a specific node.
//!
//! [`NetFaultPlan`] mirrors the single-switch `ssq_faults::FaultPlan`
//! idiom — an ordered, seed-replayable schedule — but its targets are
//! fabric objects: a [`NetFaultKind::KillLink`] takes a wire down for
//! every flow crossing it, [`NetFaultKind::PartitionNode`] isolates a
//! whole switch, and [`NetFaultKind::NodeFault`] wraps any
//! [`FaultKind`] from the single-switch taxonomy, so the entire
//! DESIGN.md §8 catalog composes with topology faults.

use ssq_faults::FaultKind;
use ssq_types::rng::Xoshiro256StarStar;

/// One injectable (or healable) topology fault.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFaultKind {
    /// Take a link's wire down.
    KillLink {
        /// Index into the topology's link table.
        link: usize,
    },
    /// Bring a killed link back up.
    RestoreLink {
        /// Index into the topology's link table.
        link: usize,
    },
    /// Isolate a node: every incident link behaves as down and the node
    /// neither routes transit traffic nor accepts injections.
    PartitionNode {
        /// The node to isolate.
        node: usize,
    },
    /// Re-join a partitioned node.
    HealNode {
        /// The node to re-join.
        node: usize,
    },
    /// Apply a single-switch fault to one node's switch (the full
    /// DESIGN.md §8 taxonomy rides along unchanged).
    NodeFault {
        /// The node whose switch is hit.
        node: usize,
        /// The single-switch fault to apply.
        kind: FaultKind,
    },
}

/// One scheduled application of a [`NetFaultKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultStep {
    /// Absolute cycle (0 = first cycle of the run, warm-up included).
    pub at: u64,
    /// The fault to apply.
    pub kind: NetFaultKind,
}

/// An ordered, deterministic topology-fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetFaultPlan {
    steps: Vec<NetFaultStep>,
}

impl NetFaultPlan {
    /// An empty plan (a healthy fabric).
    #[must_use]
    pub fn new() -> Self {
        NetFaultPlan::default()
    }

    /// Schedules `kind` at absolute cycle `at`, keeping the plan
    /// sorted. Steps at the same cycle apply in insertion order.
    #[must_use]
    pub fn schedule(mut self, at: u64, kind: NetFaultKind) -> Self {
        let pos = self.steps.partition_point(|s| s.at <= at);
        self.steps.insert(pos, NetFaultStep { at, kind });
        self
    }

    /// MTBF mode: kill/restore pairs for `link` with exponentially
    /// distributed time-between-failures (`mtbf`) and time-to-repair
    /// (`mttr`) until `horizon` cycles. Fully deterministic given
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics when either mean time is zero.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an exponential draw: finite and non-negative, `as` saturates"
    )]
    pub fn link_flaps(seed: u64, link: usize, mtbf: u64, mttr: u64, horizon: u64) -> Self {
        assert!(mtbf > 0 && mttr > 0, "mean times must be positive");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut exp = |mean: u64| -> u64 {
            // Inverse-CDF exponential; the clamp keeps ln's argument
            // sane and every interval at least one cycle long.
            let u = rng.f64().min(0.999_999_9);
            let draw = -(1.0 - u).ln() * mean as f64;
            (draw as u64).max(1)
        };
        let mut plan = NetFaultPlan::new();
        let mut t = exp(mtbf);
        while t < horizon {
            plan = plan.schedule(t, NetFaultKind::KillLink { link });
            let up = t.saturating_add(exp(mttr));
            if up >= horizon {
                break;
            }
            plan = plan.schedule(up, NetFaultKind::RestoreLink { link });
            t = up.saturating_add(exp(mtbf));
        }
        plan
    }

    /// The scheduled steps, sorted by cycle.
    #[must_use]
    pub fn steps(&self) -> &[NetFaultStep] {
        &self.steps
    }

    /// Number of scheduled steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_steps_sorted_and_stable() {
        let plan = NetFaultPlan::new()
            .schedule(50, NetFaultKind::RestoreLink { link: 0 })
            .schedule(10, NetFaultKind::KillLink { link: 0 })
            .schedule(10, NetFaultKind::PartitionNode { node: 2 });
        let ats: Vec<u64> = plan.steps().iter().map(|s| s.at).collect();
        assert_eq!(ats, vec![10, 10, 50]);
        assert_eq!(plan.steps()[0].kind, NetFaultKind::KillLink { link: 0 });
    }

    #[test]
    fn link_flaps_replay_from_their_seed_and_alternate() {
        let a = NetFaultPlan::link_flaps(9, 1, 500, 100, 20_000);
        let b = NetFaultPlan::link_flaps(9, 1, 500, 100, 20_000);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty());
        for pair in a.steps().windows(2) {
            let kill0 = matches!(pair[0].kind, NetFaultKind::KillLink { .. });
            let kill1 = matches!(pair[1].kind, NetFaultKind::KillLink { .. });
            assert_ne!(kill0, kill1, "kills and restores must alternate");
        }
        assert_ne!(a, NetFaultPlan::link_flaps(10, 1, 500, 100, 20_000));
    }

    #[test]
    fn node_faults_carry_the_single_switch_taxonomy() {
        let plan = NetFaultPlan::new().schedule(
            5,
            NetFaultKind::NodeFault {
                node: 1,
                kind: FaultKind::DegradeToLrg { output: 0 },
            },
        );
        assert_eq!(plan.len(), 1);
    }
}
