//! The sharded phase split of a cycle, and the runner that drives it.
//!
//! One simulated cycle splits into three phases:
//!
//! 1. **prepare** (`&mut`): advance clocks, inject traffic, snapshot
//!    which channels are busy;
//! 2. **decide** (`&`): every shard — for the switch, one output port —
//!    computes its arbitration plan against the prepared state;
//! 3. **merge** (`&mut`): plans are committed **in shard order**,
//!    replaying exactly the mutations and trace events of
//!    [`CycleModel::step`].
//!
//! [`ParRunner`] runs the three phases on the calling thread, every
//! decide before any merge. The decide is a few word operations per
//! output, so worker threads only added two barrier crossings per cycle
//! and were removed; what is left is the phase split and the names the
//! frozen benchmark package compiles against.

use ssq_types::Cycle;

use crate::runner::{CycleModel, Runner, Schedule};

/// A model whose cycle splits into per-shard decisions plus an in-order
/// merge.
///
/// # Contract
///
/// For every reachable state and cycle, [`CycleModel::step`] must be
/// observationally identical to:
///
/// ```text
/// self.shard_prepare(now);
/// let plans: Vec<_> = (0..self.shard_count())
///     .map(|s| self.shard_decide(s, now))
///     .collect();
/// self.shard_merge(now, plans);
/// ```
///
/// with `shard_decide` **pure**: it reads the prepared state only, and
/// a plan does not depend on which other shards were decided before it.
pub trait ShardedModel: CycleModel {
    /// The per-shard decision, handed from decide to merge.
    type Plan;

    /// Number of shards (constant for the lifetime of a run).
    fn shard_count(&self) -> usize;

    /// Phase 1: pre-cycle mutation (clock ticks, injection,
    /// snapshotting).
    fn shard_prepare(&mut self, now: Cycle);

    /// Phase 2: pure decision for one shard against the prepared state.
    fn shard_decide(&self, shard: usize, now: Cycle) -> Self::Plan;

    /// Phase 3: commit. `plans[s]` is the plan shard `s` produced; the
    /// implementation must apply them in ascending shard order to
    /// reproduce [`CycleModel::step`]'s effects.
    fn shard_merge(&mut self, now: Cycle, plans: Vec<Self::Plan>);

    /// Relative cost estimate of a plan. No runner reads it; the
    /// benchmark's `core.plan_cost_per_cycle` work counter does.
    fn plan_cost(_plan: &Self::Plan) -> u64 {
        1
    }
}

/// A [`ShardedModel`] stepped through its phases: prepare, decide every
/// shard, merge in shard order.
struct Phased<'a, M>(&'a mut M);

impl<M: ShardedModel> CycleModel for Phased<'_, M> {
    fn step(&mut self, now: Cycle) {
        let model = &mut *self.0;
        model.shard_prepare(now);
        let plans = (0..model.shard_count())
            .map(|s| model.shard_decide(s, now))
            .collect();
        model.shard_merge(now, plans);
    }

    fn begin_measurement(&mut self, now: Cycle) {
        self.0.begin_measurement(now);
    }
}

/// Drives a [`ShardedModel`] through a [`Schedule`] phase by phase, with
/// [`Runner::run`]'s cycles and measurement boundary.
///
/// Kept only because the frozen benchmark package (`benchmark/`) times
/// it; ROADMAP item 7 deletes it with that package's next version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParRunner {
    schedule: Schedule,
}

impl ParRunner {
    /// Creates a runner for `schedule`. `_threads` is ignored: it is
    /// kept only so `benchmark/` compiles, and goes with the runner.
    #[must_use]
    pub const fn new(schedule: Schedule, _threads: usize) -> Self {
        ParRunner { schedule }
    }

    /// [`Runner::run`] with each cycle split into its
    /// [`ShardedModel`] phases.
    pub fn run<M: ShardedModel>(&self, model: &mut M) -> Cycle {
        Runner::new(self.schedule).run(&mut Phased(model))
    }
}
