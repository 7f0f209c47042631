//! The chaos harness: a [`QosSwitch`] driven through a [`FaultPlan`].
//!
//! [`ChaosSwitch`] implements the simulator's [`CycleModel`] and
//! [`Monitored`] traits by delegation, injecting every due fault *before*
//! stepping the switch — so the standard [`ssq_sim::Runner`] (schedules,
//! stall watchdog, Eq. 1 violation monitor) drives fault campaigns with
//! no special-casing.

use ssq_core::QosSwitch;
use ssq_sim::{CycleModel, Monitored, ShardedModel};
use ssq_types::Cycle;

use crate::plan::FaultPlan;

/// A switch plus the fault schedule that torments it.
#[derive(Debug)]
pub struct ChaosSwitch {
    switch: QosSwitch,
    plan: FaultPlan,
    cursor: usize,
    /// Whether [`CycleModel::step`] drives the scalar reference kernel.
    reference: bool,
}

impl ChaosSwitch {
    /// Pairs a switch with a fault plan.
    #[must_use]
    pub fn new(switch: QosSwitch, plan: FaultPlan) -> Self {
        ChaosSwitch {
            switch,
            plan,
            cursor: 0,
            reference: false,
        }
    }

    /// Routes [`CycleModel::step`] through the scalar reference kernel
    /// (`QosSwitch::step_reference`) — the oracle side of the smoke
    /// tier's engine differential.
    #[must_use]
    pub fn on_reference_kernel(mut self) -> Self {
        self.reference = true;
        self
    }

    /// The wrapped switch.
    #[must_use]
    pub fn switch(&self) -> &QosSwitch {
        &self.switch
    }

    /// Mutable access to the wrapped switch (e.g. to attach sinks).
    pub fn switch_mut(&mut self) -> &mut QosSwitch {
        &mut self.switch
    }

    /// Unwraps the switch for post-run inspection.
    #[must_use]
    pub fn into_switch(self) -> QosSwitch {
        self.switch
    }

    /// Fault steps not yet applied.
    #[must_use]
    pub fn pending_faults(&self) -> usize {
        self.plan.len() - self.cursor
    }
}

impl CycleModel for ChaosSwitch {
    fn step(&mut self, now: Cycle) {
        self.plan.apply_due(&mut self.cursor, now, &mut self.switch);
        if self.reference {
            self.switch.step_reference(now);
        } else {
            self.switch.step(now);
        }
    }

    fn begin_measurement(&mut self, now: Cycle) {
        self.switch.begin_measurement(now);
    }
}

impl ShardedModel for ChaosSwitch {
    type Plan = ssq_core::OutputPlan;

    fn shard_count(&self) -> usize {
        self.switch.shard_count()
    }

    fn shard_prepare(&mut self, now: Cycle) {
        // Faults land in the serial prepare phase, exactly where the
        // sequential `step` applies them, so both engines see identical
        // pre-decision state.
        self.plan.apply_due(&mut self.cursor, now, &mut self.switch);
        self.switch.shard_prepare(now);
    }

    fn shard_decide(&self, shard: usize, now: Cycle) -> Self::Plan {
        self.switch.shard_decide(shard, now)
    }

    fn shard_merge(&mut self, now: Cycle, plans: Vec<Self::Plan>) {
        self.switch.shard_merge(now, plans);
    }

    fn plan_cost(plan: &Self::Plan) -> u64 {
        QosSwitch::plan_cost(plan)
    }
}

impl Monitored for ChaosSwitch {
    fn progress(&self) -> Option<u64> {
        self.switch.progress()
    }

    fn violation(&self) -> Option<String> {
        self.switch.violation()
    }
}
