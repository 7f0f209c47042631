//! The sharded parallel execution engine.
//!
//! One simulated cycle splits into three phases:
//!
//! 1. **prepare** (serial, `&mut`): advance clocks, inject traffic,
//!    snapshot which channels are busy;
//! 2. **decide** (parallel, `&`): every shard — for the switch, one
//!    output port — computes its arbitration plan against the immutable
//!    snapshot;
//! 3. **merge** (serial, `&mut`): plans are committed **in shard
//!    order**, replaying exactly the mutations and trace events the
//!    sequential engine performs.
//!
//! Because decide is pure and merge is serial in a fixed order, the
//! engine's observable behaviour — grants, counters, statistics, trace
//! bytes — is identical to the sequential [`Runner`](crate::Runner) at
//! any thread count, including one. The conformance suite in `tests/`
//! holds both engines to that contract bit for bit.
//!
//! Worker threads persist across cycles (spawned once per
//! [`with_engine`] scope) and synchronize on a yielding spin barrier, so
//! the per-cycle cost is two barrier crossings rather than thread
//! spawns. Shards are claimed from a shared cursor, which load-balances
//! outputs whose request sets differ wildly in size.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use ssq_types::{Cycle, Cycles};

use crate::runner::{
    drive_monitored, drive_observed, drive_unwatched, CycleModel, MonitorOutcome, Monitored,
    Schedule, Stepper,
};

/// A model whose cycle splits into parallel per-shard decisions plus a
/// serial merge.
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
/// with `shard_decide` **pure** (no interior mutability, no shard
/// ordering assumptions): the engine calls it concurrently from several
/// threads in arbitrary order, and may call it again for the same shard
/// during merge if a plan slot was lost to a worker failure.
pub trait ShardedModel: CycleModel {
    /// The per-shard decision, handed from decide to merge.
    type Plan: Send;

    /// Number of shards (constant for the lifetime of a run).
    fn shard_count(&self) -> usize;

    /// Phase 1: serial pre-cycle mutation (clock ticks, injection,
    /// snapshotting).
    fn shard_prepare(&mut self, now: Cycle);

    /// Phase 2: pure decision for one shard against the prepared state.
    fn shard_decide(&self, shard: usize, now: Cycle) -> Self::Plan;

    /// Phase 3: serial commit. `plans[s]` is the plan shard `s`
    /// produced; the implementation must apply them in ascending shard
    /// order to reproduce the sequential engine's effects.
    fn shard_merge(&mut self, now: Cycle, plans: Vec<Self::Plan>);

    /// Relative cost estimate of a plan. The engine does not read it;
    /// the benchmark's `core.plan_cost_per_cycle` work counter does.
    fn plan_cost(_plan: &Self::Plan) -> u64 {
        1
    }
}

/// Sense-reversing spin barrier with bounded spinning: after a short
/// spin each waiter yields to the scheduler, so oversubscribed runs
/// (more threads than cores) degrade gracefully instead of starving the
/// thread that would release the barrier.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

/// Spins before the first yield; past this, waiters stop burning cycles.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Error returned by [`SpinBarrier::wait`] once any participant has
/// panicked: the cycle can never complete, so waiters must unwind.
struct BarrierPoisoned;

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Marks the barrier unusable; every current and future waiter
    /// receives [`BarrierPoisoned`] instead of blocking forever.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    fn wait(&self) -> Result<(), BarrierPoisoned> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(BarrierPoisoned);
        }
        let gen = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            return Ok(());
        }
        let mut spins: u32 = 0;
        while self.generation.load(Ordering::SeqCst) == gen {
            if self.poisoned.load(Ordering::SeqCst) {
                return Err(BarrierPoisoned);
            }
            spins = spins.saturating_add(1);
            if spins >= SPINS_BEFORE_YIELD {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        Ok(())
    }
}

/// Poisons the barrier if the owning scope unwinds, releasing every
/// thread parked on it so a panic anywhere tears the engine down
/// instead of deadlocking it.
struct PoisonOnPanic<'b>(&'b SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// State shared between the driving thread and the persistent workers.
struct Shared<'m, M: ShardedModel> {
    /// The model. Workers take read locks during decide; the driver
    /// holds the write lock through prepare and merge.
    model: RwLock<&'m mut M>,
    barrier: SpinBarrier,
    /// Next unclaimed shard of the current cycle.
    cursor: AtomicUsize,
    /// The cycle being decided, published before the decide barrier.
    now: AtomicU64,
    stop: AtomicBool,
    /// One plan slot per shard, filled during decide, drained at merge.
    slots: Vec<Mutex<Option<M::Plan>>>,
}

/// Claims shards from the shared cursor until none remain, depositing
/// each plan in its slot. Runs on workers *and* the driver, so a lone
/// thread still decides every shard through the same code path.
fn decide_claimed<M: ShardedModel>(shared: &Shared<'_, M>, model: &M, now: Cycle) {
    loop {
        let shard = shared.cursor.fetch_add(1, Ordering::SeqCst);
        if shard >= shared.slots.len() {
            return;
        }
        let plan = model.shard_decide(shard, now);
        *shared.slots[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(plan);
    }
}

/// The persistent worker loop: park at the cycle barrier, decide
/// claimed shards, park at the completion barrier, repeat until told to
/// stop.
fn worker<M: ShardedModel + Send + Sync>(shared: &Shared<'_, M>) {
    let _poison_guard = PoisonOnPanic(&shared.barrier);
    loop {
        if shared.barrier.wait().is_err() || shared.stop.load(Ordering::SeqCst) {
            return;
        }
        {
            let guard = shared.model.read().unwrap_or_else(|e| e.into_inner());
            let model: &M = &guard;
            let now = Cycle::new(shared.now.load(Ordering::SeqCst));
            decide_claimed(shared, model, now);
        }
        if shared.barrier.wait().is_err() {
            return;
        }
    }
}

/// The sharded [`Stepper`]: [`Stepper::step`] runs one full
/// prepare/decide/merge cycle, [`Stepper::with_model`] gives serial
/// access to the model between cycles. The workers are parked whenever
/// [`with_engine`]'s closure runs, so that access is exclusive without
/// extra synchronization beyond the lock.
pub(crate) struct Engine<'e, 'm, M: ShardedModel> {
    shared: &'e Shared<'m, M>,
}

impl<M: ShardedModel + Send + Sync> Stepper for Engine<'_, '_, M> {
    type Model = M;

    /// Serial prepare, parallel decide, serial in-order merge.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (the original panic is
    /// re-raised when the engine scope unwinds).
    fn step(&mut self, now: Cycle) {
        let shared = self.shared;
        // Prepare under the write lock, then publish the cycle and
        // reset the shard cursor for the workers.
        self.with_model(|m| m.shard_prepare(now));
        shared.now.store(now.value(), Ordering::SeqCst);
        shared.cursor.store(0, Ordering::SeqCst);

        // Decide: open the cycle barrier, claim shards alongside the
        // workers, close the completion barrier.
        let opened = shared.barrier.wait().is_ok();
        assert!(opened, "parallel engine: a worker thread panicked");
        {
            let guard = shared.model.read().unwrap_or_else(|e| e.into_inner());
            let model: &M = &guard;
            decide_claimed(shared, model, now);
        }
        let decided = shared.barrier.wait().is_ok();
        assert!(decided, "parallel engine: a worker thread panicked");

        // Merge: drain the plan slots in shard order and commit them.
        self.with_model(|model| {
            let mut plans = Vec::with_capacity(shared.slots.len());
            for (shard, slot) in shared.slots.iter().enumerate() {
                let plan = slot
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    // A lost slot (worker died between claim and deposit)
                    // is re-decided serially; decide is pure, so the
                    // outcome is identical.
                    .unwrap_or_else(|| model.shard_decide(shard, now));
                plans.push(plan);
            }
            model.shard_merge(now, plans);
        });
    }

    fn with_model<R>(&mut self, f: impl FnOnce(&mut M) -> R) -> R {
        let mut guard = self.shared.model.write().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }
}

/// Runs `f` with an [`Engine`] driving the model on `threads` compute
/// threads (the calling thread plus `threads - 1` scoped workers), then
/// parks the workers and returns `f`'s result. `threads` is clamped to
/// `1..=shard_count`: a thread beyond the shard count could never claim
/// a shard, and results do not depend on the thread count.
///
/// With one thread no worker is spawned and every phase runs on the
/// calling thread through the same code path, which is what makes the
/// single-thread parallel engine a true identity check against the
/// sequential runner.
pub(crate) fn with_engine<M, R, F>(threads: usize, model: &mut M, f: F) -> R
where
    M: ShardedModel + Send + Sync,
    F: FnOnce(&mut Engine<'_, '_, M>) -> R,
{
    let shards = model.shard_count();
    let threads = threads.clamp(1, shards.max(1));
    let shared: Shared<'_, M> = Shared {
        model: RwLock::new(model),
        barrier: SpinBarrier::new(threads),
        cursor: AtomicUsize::new(0),
        now: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        slots: (0..shards).map(|_| Mutex::new(None)).collect(),
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|_| scope.spawn(|| worker(&shared)))
            .collect();
        let mut engine = Engine { shared: &shared };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut engine)));
        shared.stop.store(true, Ordering::SeqCst);
        if result.is_err() {
            // Workers may be parked at either barrier; poisoning
            // releases them wherever they are.
            shared.barrier.poison();
        } else {
            // Workers are parked at the cycle barrier; one last crossing
            // sends them into the stop check.
            let _ = shared.barrier.wait();
        }
        let mut worker_panic = None;
        for handle in workers {
            if let Err(payload) = handle.join() {
                // Keep the first worker payload: it is the root cause;
                // the driver's own panic is the echo.
                worker_panic.get_or_insert(payload);
            }
        }
        match (result, worker_panic) {
            (_, Some(payload)) | (Err(payload), None) => std::panic::resume_unwind(payload),
            (Ok(r), None) => r,
        }
    })
}

/// Drives a [`ShardedModel`] through a [`Schedule`] on the parallel
/// engine, mirroring [`Runner`](crate::Runner)'s phase semantics
/// exactly — same cycles, same measurement boundary, same observer and
/// watchdog hooks — so the two are drop-in interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParRunner {
    schedule: Schedule,
    threads: usize,
}

impl ParRunner {
    /// Creates a parallel runner with `threads` total compute threads
    /// (clamped to at least one).
    #[must_use]
    pub fn new(schedule: Schedule, threads: usize) -> Self {
        ParRunner {
            schedule,
            threads: threads.max(1),
        }
    }

    /// The schedule this runner executes.
    #[must_use]
    pub const fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Total compute threads, including the calling thread.
    #[must_use]
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// Parallel counterpart of [`Runner::run`](crate::Runner::run).
    pub fn run<M>(&self, model: &mut M) -> Cycle
    where
        M: ShardedModel + Send + Sync,
    {
        with_engine(self.threads, model, |engine| {
            drive_unwatched(self.schedule, engine)
        })
    }

    /// Parallel counterpart of
    /// [`Runner::run_observed`](crate::Runner::run_observed): `observe`
    /// runs serially after every cycle, with the workers parked.
    pub fn run_observed<M, F>(&self, model: &mut M, observe: F) -> Cycle
    where
        M: ShardedModel + Send + Sync,
        F: FnMut(&M, Cycle),
    {
        with_engine(self.threads, model, |engine| {
            drive_observed(self.schedule, engine, observe)
        })
    }

    /// Parallel counterpart of
    /// [`Runner::run_monitored`](crate::Runner::run_monitored), with
    /// identical watchdog semantics: violations trip immediately, an
    /// unchanged progress measure over pending work trips after
    /// `stall_window` cycles, idle phases reset the window.
    ///
    /// # Panics
    ///
    /// Panics if `stall_window` is empty.
    pub fn run_monitored<M, F>(
        &self,
        model: &mut M,
        stall_window: Cycles,
        observe: F,
    ) -> MonitorOutcome
    where
        M: ShardedModel + Monitored + Send + Sync,
        F: FnMut(&M, Cycle),
    {
        with_engine(self.threads, model, |engine| {
            drive_monitored(self.schedule, engine, stall_window, observe)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, Schedule};

    /// A deterministic toy sharded model: each shard's decide hashes
    /// its state with the cycle, merge writes the results back in
    /// order. `step` is defined via the sharded contract, so the
    /// sequential runner and the parallel engine must agree exactly.
    /// (The phase semantics every entry point shares are pinned in
    /// `runner.rs`; these tests are about the threads.)
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Toy {
        outputs: Vec<u64>,
        /// When set, decide panics for this shard (failure-path test).
        poison_shard: Option<usize>,
    }

    impl Toy {
        fn new(shards: usize) -> Self {
            Toy {
                outputs: (0..shards as u64).collect(),
                poison_shard: None,
            }
        }
    }

    impl CycleModel for Toy {
        fn step(&mut self, now: Cycle) {
            self.shard_prepare(now);
            let plans: Vec<(usize, u64)> = (0..self.shard_count())
                .map(|s| self.shard_decide(s, now))
                .collect();
            self.shard_merge(now, plans);
        }
        fn begin_measurement(&mut self, _now: Cycle) {}
    }

    impl ShardedModel for Toy {
        type Plan = (usize, u64);
        fn shard_count(&self) -> usize {
            self.outputs.len()
        }
        fn shard_prepare(&mut self, _now: Cycle) {}
        fn shard_decide(&self, shard: usize, now: Cycle) -> (usize, u64) {
            if self.poison_shard == Some(shard) {
                panic!("poisoned shard");
            }
            let mixed = self.outputs[shard]
                .wrapping_mul(6364136223846793005)
                .wrapping_add(now.value());
            (shard, mixed)
        }
        fn shard_merge(&mut self, _now: Cycle, plans: Vec<(usize, u64)>) {
            assert_eq!(plans.len(), self.outputs.len(), "one plan per shard");
            for (i, (shard, value)) in plans.into_iter().enumerate() {
                assert_eq!(shard, i, "plans must arrive in shard order");
                self.outputs[i] = value;
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_at_any_thread_count() {
        let schedule = Schedule::new(Cycles::new(7), Cycles::new(50));
        let mut reference = Toy::new(16);
        let end_seq = Runner::new(schedule).run(&mut reference);
        for threads in [1, 2, 4, 8] {
            let mut par = Toy::new(16);
            let end_par = ParRunner::new(schedule, threads).run(&mut par);
            assert_eq!(end_par, end_seq);
            assert_eq!(par, reference, "divergence at {threads} threads");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let runner = ParRunner::new(Schedule::new(Cycles::ZERO, Cycles::new(5)), 0);
        assert_eq!(runner.threads(), 1);
        let mut toy = Toy::new(3);
        let end = runner.run(&mut toy);
        assert_eq!(end, Cycle::new(5));
    }

    #[test]
    fn threads_beyond_the_shard_count_are_not_spawned() {
        // Unclamped, this asks the OS for a million spinning threads.
        let schedule = Schedule::new(Cycles::ZERO, Cycles::new(20));
        let mut reference = Toy::new(3);
        Runner::new(schedule).run(&mut reference);
        let mut toy = Toy::new(3);
        let parties = with_engine(1_000_000, &mut toy, |engine| {
            drive_unwatched(schedule, engine);
            engine.shared.barrier.parties
        });
        assert_eq!(parties, 3);
        assert_eq!(toy, reference);
    }

    #[test]
    #[should_panic(expected = "poisoned shard")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let mut toy = Toy::new(8);
        toy.poison_shard = Some(5);
        let _ = ParRunner::new(Schedule::new(Cycles::ZERO, Cycles::new(3)), 4).run(&mut toy);
    }
}
