//! Deterministic fault schedules: *what* to break, *when*, and when to
//! heal it.
//!
//! A [`Plan`] is an ordered list of [`Step`]s, each applying one fault
//! kind at an absolute cycle; a [`FaultPlan`] applies [`FaultKind`]s to
//! one switch, and `ssq_net::NetFaultPlan` is the same type over the
//! topology faults. Plans are either scripted ([`Plan::schedule`]:
//! inject at cycle N, heal at cycle M) or generated in MTBF mode
//! ([`Plan::link_flaps`], for any [`LinkFault`] kind): exponentially
//! distributed down/up pairs drawn from the in-tree seeded generator,
//! so a chaos campaign replays bit-identically from its seed.

use ssq_core::QosSwitch;
use ssq_types::rng::Xoshiro256StarStar;
use ssq_types::{Cycle, InputId, OutputId};

/// One injectable (or healable) fault, mirroring the taxonomy of
/// DESIGN.md §8. Sites map one-to-one onto the `QosSwitch::fault_*`
/// API, so applying a kind always emits the matching trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Take an input's port link down (site `link`).
    LinkDown {
        /// The input whose link dies.
        input: usize,
    },
    /// Bring a downed link back up.
    LinkUp {
        /// The input whose link heals.
        input: usize,
    },
    /// Stick one inhibit-fabric wire at charged (`true`, stuck-at-1)
    /// or discharged (`false`, stuck-at-0); site `bitline_stuck`.
    StickWire {
        /// Fabric lane (GB thermometer lanes first, GL lane last).
        lane: usize,
        /// Input whose wire on that lane sticks.
        input: usize,
        /// `true` = stuck-at-1, `false` = stuck-at-0.
        charged: bool,
    },
    /// Heal a previously stuck fabric wire.
    HealWire {
        /// Fabric lane of the stuck wire.
        lane: usize,
        /// Input of the stuck wire.
        input: usize,
    },
    /// Flip one bit of an `auxVC` counter (single-event upset, site
    /// `aux_bit_flip`).
    FlipAuxBit {
        /// Output whose SSVC engine is hit.
        output: usize,
        /// Input whose counter is hit.
        input: usize,
        /// Bit index to flip.
        bit: u32,
    },
    /// Drop the next `epochs` counter-policy decay events (site
    /// `epoch_skip`).
    SkipEpochs {
        /// Output whose policy clock skips.
        output: usize,
        /// Number of epoch boundaries silently dropped.
        epochs: u64,
    },
    /// Demote an output's GL class: it keeps service inside the GB
    /// round but forfeits the Eq. 1 bound.
    DemoteGl {
        /// Output whose GL lane is lost.
        output: usize,
    },
    /// Restore GL preemption (the caller re-arms the watchdog).
    RestoreGl {
        /// Output whose GL lane healed.
        output: usize,
    },
    /// Force an output's GB arbitration from SSVC to the LRG fallback.
    DegradeToLrg {
        /// Output that degrades.
        output: usize,
    },
    /// Restore full SSVC arbitration after the fabric healed.
    RestoreSsvc {
        /// Output that recovers.
        output: usize,
    },
    /// Re-run admission against a post-fault capacity, deterministically
    /// evicting or demoting flows that no longer fit.
    Readmit {
        /// Output to re-admit.
        output: usize,
        /// Surviving capacity as a fraction of the channel (≤ 1.0).
        capacity: f64,
        /// Whether the GL lane itself was lost.
        gl_lane_lost: bool,
    },
    /// Heal every persistent fault at once and refill retry budgets.
    HealAll,
}

impl FaultKind {
    /// Applies this fault to `switch` at cycle `now` (emits the
    /// corresponding trace events through the switch's fault API).
    pub fn apply(&self, switch: &mut QosSwitch, now: Cycle) {
        match *self {
            FaultKind::LinkDown { input } => {
                switch.fault_set_link(InputId::new(input), false, now);
            }
            FaultKind::LinkUp { input } => {
                switch.fault_set_link(InputId::new(input), true, now);
            }
            FaultKind::StickWire {
                lane,
                input,
                charged,
            } => switch.fault_stick_wire(lane, input, charged, now),
            FaultKind::HealWire { lane, input } => switch.fault_heal_wire(lane, input, now),
            FaultKind::FlipAuxBit { output, input, bit } => {
                let _ =
                    switch.fault_flip_aux_bit(OutputId::new(output), InputId::new(input), bit, now);
            }
            FaultKind::SkipEpochs { output, epochs } => {
                switch.fault_skip_epochs(OutputId::new(output), epochs, now);
            }
            FaultKind::DemoteGl { output } => switch.fault_demote_gl(OutputId::new(output), now),
            FaultKind::RestoreGl { output } => switch.fault_restore_gl(OutputId::new(output), now),
            FaultKind::DegradeToLrg { output } => {
                switch.fault_degrade_to_lrg(OutputId::new(output), now);
            }
            FaultKind::RestoreSsvc { output } => {
                switch.fault_restore_ssvc(OutputId::new(output), now);
            }
            FaultKind::Readmit {
                output,
                capacity,
                gl_lane_lost,
            } => {
                let _ = switch.readmit_output(OutputId::new(output), capacity, gl_lane_lost, now);
            }
            FaultKind::HealAll => switch.fault_heal_all(now),
        }
    }
}

/// A fault kind with a down/up pair per link — what MTBF mode flaps.
pub trait LinkFault {
    /// The fault that takes `link` down.
    fn down(link: usize) -> Self;
    /// The fault that brings `link` back up.
    fn up(link: usize) -> Self;
}

impl LinkFault for FaultKind {
    fn down(input: usize) -> Self {
        FaultKind::LinkDown { input }
    }

    fn up(input: usize) -> Self {
        FaultKind::LinkUp { input }
    }
}

/// One scheduled application of a fault kind `K`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step<K> {
    /// Absolute cycle (0 = first cycle of the run, warm-up included).
    pub at: u64,
    /// The fault to apply.
    pub kind: K,
}

/// An ordered, deterministic schedule of fault kind `K`: the
/// single-switch [`FaultPlan`] here, `ssq_net::NetFaultPlan` for
/// topology faults.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan<K> {
    steps: Vec<Step<K>>,
}

/// A single-switch fault schedule.
pub type FaultPlan = Plan<FaultKind>;

impl<K> Default for Plan<K> {
    fn default() -> Self {
        Plan { steps: Vec::new() }
    }
}

impl<K> Plan<K> {
    /// An empty plan (a healthy run).
    #[must_use]
    pub fn new() -> Self {
        Plan::default()
    }

    /// Schedules `kind` at absolute cycle `at`, keeping the plan
    /// sorted. Steps at the same cycle apply in insertion order.
    #[must_use]
    pub fn schedule(mut self, at: u64, kind: K) -> Self {
        let pos = self.steps.partition_point(|s| s.at <= at);
        self.steps.insert(pos, Step { at, kind });
        self
    }

    /// Interleaves `other` into this plan by cycle, keeping both plans'
    /// internal orderings (same-cycle steps apply `self` first). This is
    /// how overlapping-fault scenarios are built: script one fault
    /// story, merge an MTBF schedule over it.
    #[must_use]
    pub fn merge(mut self, other: Plan<K>) -> Self {
        for step in other.steps {
            let pos = self.steps.partition_point(|s| s.at <= step.at);
            self.steps.insert(pos, step);
        }
        self
    }

    /// The scheduled steps, sorted by cycle.
    #[must_use]
    pub fn steps(&self) -> &[Step<K>] {
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

impl<K: LinkFault> Plan<K> {
    /// MTBF mode: generates down/up pairs for `link`, with
    /// exponentially distributed time-between-failures (`mtbf`) and
    /// time-to-repair (`mttr`), until `horizon` cycles. Fully
    /// deterministic given `seed`.
    ///
    /// # Panics
    ///
    /// Panics when either mean time is zero.
    #[must_use]
    pub fn link_flaps(seed: u64, link: usize, mtbf: u64, mttr: u64, horizon: u64) -> Self {
        assert!(mtbf > 0 && mttr > 0, "mean times must be positive");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut exp = |mean: u64| -> u64 {
            // Inverse-CDF exponential; clamp keeps ln's argument sane
            // and every interval at least one cycle long.
            let u = rng.f64().min(0.999_999_9);
            let draw = -(1.0 - u).ln() * mean as f64;
            (draw as u64).max(1)
        };
        let mut plan = Plan::new();
        let mut t = exp(mtbf);
        while t < horizon {
            plan = plan.schedule(t, K::down(link));
            let up = t.saturating_add(exp(mttr));
            if up >= horizon {
                break;
            }
            plan = plan.schedule(up, K::up(link));
            t = up.saturating_add(exp(mtbf));
        }
        plan
    }
}

impl FaultPlan {
    /// Applies every step due at or before `now`, starting from
    /// `*cursor`; advances the cursor past what was applied.
    pub fn apply_due(&self, cursor: &mut usize, now: Cycle, switch: &mut QosSwitch) {
        while let Some(step) = self.steps.get(*cursor) {
            if step.at > now.value() {
                break;
            }
            step.kind.apply(switch, now);
            *cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_steps_sorted_and_stable() {
        let plan = FaultPlan::new()
            .schedule(50, FaultKind::HealAll)
            .schedule(10, FaultKind::LinkDown { input: 0 })
            .schedule(10, FaultKind::LinkDown { input: 1 });
        let ats: Vec<u64> = plan.steps().iter().map(|s| s.at).collect();
        assert_eq!(ats, vec![10, 10, 50]);
        assert_eq!(plan.steps()[0].kind, FaultKind::LinkDown { input: 0 });
        assert_eq!(plan.steps()[1].kind, FaultKind::LinkDown { input: 1 });
    }

    #[test]
    fn link_flaps_are_deterministic_and_alternate() {
        let a = FaultPlan::link_flaps(42, 3, 500, 100, 20_000);
        let b = FaultPlan::link_flaps(42, 3, 500, 100, 20_000);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty(), "20k cycles at MTBF 500 must flap");
        for pair in a.steps().windows(2) {
            assert!(pair[0].at <= pair[1].at);
            // Downs and ups strictly alternate.
            let down0 = matches!(pair[0].kind, FaultKind::LinkDown { .. });
            let down1 = matches!(pair[1].kind, FaultKind::LinkDown { .. });
            assert_ne!(down0, down1, "flap plan must alternate down/up");
        }
        let c = FaultPlan::link_flaps(43, 3, 500, 100, 20_000);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn merge_interleaves_by_cycle_keeping_relative_order() {
        let scripted = FaultPlan::new()
            .schedule(
                100,
                FaultKind::StickWire {
                    lane: 0,
                    input: 0,
                    charged: false,
                },
            )
            .schedule(300, FaultKind::HealWire { lane: 0, input: 0 });
        let flaps = FaultPlan::new()
            .schedule(100, FaultKind::LinkDown { input: 1 })
            .schedule(200, FaultKind::LinkUp { input: 1 });
        let merged = scripted.merge(flaps);
        let ats: Vec<u64> = merged.steps().iter().map(|s| s.at).collect();
        assert_eq!(ats, vec![100, 100, 200, 300]);
        // Same-cycle: the receiving plan's step applies first.
        assert!(matches!(
            merged.steps()[0].kind,
            FaultKind::StickWire { .. }
        ));
        assert!(matches!(merged.steps()[1].kind, FaultKind::LinkDown { .. }));
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new().len(), 0);
    }
}
