//! The chaos harness: a [`QosSwitch`] driven through a [`FaultPlan`].
//!
//! [`ChaosSwitch`] implements the simulator's [`CycleModel`] and
//! [`Monitored`] traits by delegation, injecting every due fault *before*
//! stepping the switch — so the standard [`ssq_sim::Runner`] (schedules,
//! stall watchdog, Eq. 1 violation monitor) drives fault campaigns with
//! no special-casing.

use ssq_core::QosSwitch;
use ssq_sim::{CycleModel, Monitored};
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

    /// Unwraps the switch for post-run inspection.
    #[must_use]
    pub fn into_switch(self) -> QosSwitch {
        self.switch
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

impl Monitored for ChaosSwitch {
    fn progress(&self) -> Option<u64> {
        self.switch.progress()
    }

    fn violation(&self) -> Option<String> {
        self.switch.violation()
    }
}
