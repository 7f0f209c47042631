//! Topology-level fault plans: kill and flap links, partition nodes,
//! and pass single-switch faults through to a specific node.
//!
//! [`NetFaultPlan`] is the single-switch plan type, [`ssq_faults::Plan`]
//! — an ordered, seed-replayable schedule — over fabric targets: a
//! [`NetFaultKind::KillLink`] takes a wire down for every flow crossing
//! it, [`NetFaultKind::PartitionNode`] isolates a whole switch, and
//! [`NetFaultKind::NodeFault`] wraps any [`FaultKind`] from the
//! single-switch taxonomy, so the entire DESIGN.md §8 catalog composes
//! with topology faults.

use ssq_faults::{FaultKind, LinkFault, Plan};

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

impl LinkFault for NetFaultKind {
    fn down(link: usize) -> Self {
        NetFaultKind::KillLink { link }
    }

    fn up(link: usize) -> Self {
        NetFaultKind::RestoreLink { link }
    }
}

/// An ordered, deterministic topology-fault schedule.
pub type NetFaultPlan = Plan<NetFaultKind>;

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
