//! The synchronous cycle loop.
//!
//! Written once, in `drive`: every public entry point — [`Runner`]'s
//! and [`ParRunner::run`](crate::ParRunner::run) — hands it the model,
//! whether idle cycles may be skipped and at most one per-cycle hook,
//! and differs in nothing else.

use std::fmt;

use ssq_check::{Preflight, Report};
use ssq_types::{Cycle, Cycles};

/// Warm-up and measurement phases of one simulation.
///
/// Statistics gathered during warm-up are discarded so queue fill and
/// arbitration state reach steady state before measurement — the
/// standard methodology for the throughput/latency numbers of Figs. 4–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schedule {
    warmup: Cycles,
    measure: Cycles,
}

impl Schedule {
    /// Creates a schedule with the given warm-up and measurement lengths.
    ///
    /// # Panics
    ///
    /// Panics if the measurement phase is empty.
    #[must_use]
    pub fn new(warmup: Cycles, measure: Cycles) -> Self {
        assert!(measure.value() > 0, "measurement phase must be non-empty");
        Schedule { warmup, measure }
    }

    /// Warm-up length.
    #[must_use]
    pub const fn warmup(self) -> Cycles {
        self.warmup
    }

    /// Measurement length.
    #[must_use]
    pub const fn measure(self) -> Cycles {
        self.measure
    }

    /// Total simulated cycles.
    #[must_use]
    pub fn total(self) -> Cycles {
        self.warmup + self.measure
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} warm-up + {} measured",
            self.warmup.value(),
            self.measure.value()
        )
    }
}

/// A model that advances one clock cycle at a time.
pub trait CycleModel {
    /// Advances the model through cycle `now`.
    fn step(&mut self, now: Cycle);

    /// Called once at the warm-up/measurement boundary; implementations
    /// reset their statistics (not their state) here.
    fn begin_measurement(&mut self, now: Cycle);

    /// If the model is quiescent at `now`, batches the pure clock
    /// effects of the skippable cycles and returns the first cycle in
    /// `(now, limit]` that needs dense execution (`limit` itself when
    /// nothing will happen this phase). Returns `now` when the model
    /// cannot prove quiescence, in which case nothing was advanced —
    /// the default, for a model that never skips.
    ///
    /// The contract is strict byte-identity: a skip to `target` leaves
    /// the model in exactly the state `target - now` dense steps would,
    /// trace events and their cycle stamps included.
    fn skip_idle(&mut self, now: Cycle, _limit: Cycle) -> Cycle {
        now
    }
}

/// [`CycleModel::step`] under its old name, from when the word-wide
/// kernel was a second implementation. Every model has it; nothing in
/// this workspace calls it, the frozen benchmark package still does.
pub trait EventModel: CycleModel {
    /// [`CycleModel::step`].
    fn step_fast(&mut self, now: Cycle) {
        self.step(now);
    }
}

impl<M: CycleModel + ?Sized> EventModel for M {}

/// A model the runner can watch for stalls and invariant violations —
/// the hooks behind the flight recorder's trip wire.
pub trait Monitored: CycleModel {
    /// A monotone progress measure (e.g. total flits committed to
    /// output channels). `Some(v)` means the model currently holds
    /// pending work and has made `v` units of progress; `None` means
    /// it is legitimately idle (nothing buffered, nothing in flight),
    /// so an unchanged measure is not a stall.
    fn progress(&self) -> Option<u64>;

    /// A violated invariant (e.g. a GL wait above the Eq. 1 bound), if
    /// any. Checked after every step; the first `Some` trips the run.
    fn violation(&self) -> Option<String> {
        None
    }
}

/// How a monitored run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a tripped run must be reported, not dropped"]
pub enum MonitorOutcome {
    /// The full schedule ran; the cycle after the last step.
    Completed(Cycle),
    /// The watchdog fired: a stall or a violated invariant.
    Tripped {
        /// Cycle at which the trip was detected.
        at: Cycle,
        /// Human-readable trip reason.
        reason: String,
    },
}

impl MonitorOutcome {
    /// Whether the run completed without tripping.
    #[must_use]
    pub const fn is_completed(&self) -> bool {
        matches!(self, MonitorOutcome::Completed(_))
    }
}

/// The stall/violation trip wire of a monitored run.
struct Watchdog {
    window: u64,
    last_progress: Option<u64>,
    stalled_for: u64,
}

impl Watchdog {
    fn new(stall_window: Cycles) -> Self {
        assert!(stall_window.value() > 0, "stall window must be non-empty");
        Watchdog {
            window: stall_window.value(),
            last_progress: None,
            stalled_for: 0,
        }
    }

    /// Looks at the model after one executed cycle: a reported
    /// violation trips at once, pending work whose progress measure has
    /// not moved for the whole window trips as a stall, and an idle
    /// model (`progress() == None`) restarts the window.
    fn check<M: Monitored + ?Sized>(&mut self, model: &M) -> Option<String> {
        if let Some(reason) = model.violation() {
            return Some(reason);
        }
        let Some(p) = model.progress() else {
            self.last_progress = None;
            self.stalled_for = 0;
            return None;
        };
        if self.last_progress != Some(p) {
            self.last_progress = Some(p);
            self.stalled_for = 0;
            return None;
        }
        self.stalled_for += 1;
        (self.stalled_for >= self.window).then(|| {
            format!(
                "stall: pending work but no progress for {} cycles \
                 (progress measure stuck at {p})",
                self.window
            )
        })
    }
}

/// The cycle loop, written once: warm-up, `begin_measurement`, then the
/// measured phase. Returns the cycle reached and, if `after_step` ended
/// the run early, its reason (the cycle is then the one it fired at).
///
/// `after_step` sees the model after every executed cycle — observers
/// and the watchdog both live there. Both are defined per executed
/// cycle, so a run with a hook is dense and only an unwatched one sets
/// `skip`: idle stretches are then jumped wherever
/// [`CycleModel::skip_idle`] proves them. A jump is clamped to its
/// phase, so `begin_measurement` fires at the same cycle either way.
#[inline]
fn drive<M, F>(
    schedule: Schedule,
    model: &mut M,
    skip: bool,
    mut after_step: Option<F>,
) -> (Cycle, Option<String>)
where
    M: CycleModel + ?Sized,
    F: FnMut(&M, Cycle) -> Option<String>,
{
    let warm_end = Cycle::ZERO + schedule.warmup();
    let end = warm_end + schedule.measure();
    let mut now = Cycle::ZERO;
    for phase_end in [warm_end, end] {
        if phase_end == end {
            model.begin_measurement(now);
        }
        while now < phase_end {
            if skip {
                let next = model.skip_idle(now, phase_end);
                if next > now {
                    now = next;
                    continue;
                }
            }
            model.step(now);
            if let Some(hook) = &mut after_step {
                if let Some(reason) = hook(model, now) {
                    return (now, Some(reason));
                }
            }
            now = now.next();
        }
    }
    (now, None)
}

/// [`drive`] with nobody watching: the one run that may jump idle cycles.
fn drive_unwatched<M: CycleModel + ?Sized>(schedule: Schedule, model: &mut M, skip: bool) -> Cycle {
    drive(
        schedule,
        model,
        skip,
        None::<fn(&M, Cycle) -> Option<String>>,
    )
    .0
}

/// Drives a [`CycleModel`] through a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    schedule: Schedule,
}

impl Runner {
    /// Creates a runner for the given schedule.
    #[must_use]
    pub const fn new(schedule: Schedule) -> Self {
        Runner { schedule }
    }

    /// The schedule this runner executes.
    #[must_use]
    pub const fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Runs the model from cycle 0 through the full schedule and returns
    /// the cycle after the last step (== [`Schedule::total`]).
    pub fn run<M: CycleModel + ?Sized>(&self, model: &mut M) -> Cycle {
        drive_unwatched(self.schedule, model, false)
    }

    /// Like [`Runner::run`], but jumps over the stretches the model
    /// proves idle ([`CycleModel::skip_idle`]) instead of stepping
    /// through them — `--engine bitpar`. A jump never crosses the
    /// warm-up boundary, so `begin_measurement` fires at the same cycle
    /// as under [`Runner::run`].
    pub fn run_skipping<M: CycleModel + ?Sized>(&self, model: &mut M) -> Cycle {
        drive_unwatched(self.schedule, model, true)
    }

    /// Like [`Runner::run`], but invokes `observe(model, now)` after every
    /// step — the hook VCD recorders, time-series samplers, and live
    /// monitors attach to without hand-rolling the phase logic.
    pub fn run_observed<M, F>(&self, model: &mut M, mut observe: F) -> Cycle
    where
        M: CycleModel + ?Sized,
        F: FnMut(&M, Cycle),
    {
        let hook = |m: &M, now: Cycle| {
            observe(m, now);
            None
        };
        drive(self.schedule, model, false, Some(hook)).0
    }

    /// Runs the model's static preflight analysis
    /// ([`ssq_check::Preflight`]) and, only when it is free of
    /// error-severity findings, drives the full schedule.
    ///
    /// On success, returns the end cycle together with the report so
    /// callers can surface warnings. The model is untouched on refusal:
    /// not a single cycle is simulated under a configuration whose
    /// guarantees cannot hold.
    ///
    /// # Errors
    ///
    /// Returns the [`Report`] when it
    /// [`has_errors`](Report::has_errors).
    pub fn run_checked<M>(&self, model: &mut M) -> Result<(Cycle, Report), Report>
    where
        M: CycleModel + Preflight + ?Sized,
    {
        let report = model.preflight();
        if report.has_errors() {
            return Err(report);
        }
        let end = self.run(model);
        Ok((end, report))
    }

    /// Like [`Runner::run_observed`], but with a watchdog: the run
    /// trips when the model reports an invariant [`violation`]
    /// (checked every cycle) or when it holds pending work whose
    /// [`progress`] measure does not advance for `stall_window`
    /// consecutive cycles. Idle phases (`progress() == None`) reset
    /// the window.
    ///
    /// # Panics
    ///
    /// Panics if `stall_window` is empty.
    ///
    /// [`violation`]: Monitored::violation
    /// [`progress`]: Monitored::progress
    pub fn run_monitored<M, F>(
        &self,
        model: &mut M,
        stall_window: Cycles,
        mut observe: F,
    ) -> MonitorOutcome
    where
        M: Monitored + ?Sized,
        F: FnMut(&M, Cycle),
    {
        let mut watchdog = Watchdog::new(stall_window);
        let hook = |m: &M, now: Cycle| {
            observe(m, now);
            watchdog.check(m)
        };
        match drive(self.schedule, model, false, Some(hook)) {
            (at, Some(reason)) => MonitorOutcome::Tripped { at, reason },
            (end, None) => MonitorOutcome::Completed(end),
        }
    }

    /// [`Runner::run_checked`] with the [`Runner::run_monitored`]
    /// watchdog: preflight-gates the configuration, then drives the
    /// schedule under stall/violation monitoring.
    ///
    /// # Errors
    ///
    /// Returns the [`Report`] when it
    /// [`has_errors`](Report::has_errors).
    pub fn run_checked_monitored<M>(
        &self,
        model: &mut M,
        stall_window: Cycles,
    ) -> Result<(MonitorOutcome, Report), Report>
    where
        M: Monitored + Preflight + ?Sized,
    {
        let report = model.preflight();
        if report.has_errors() {
            return Err(report);
        }
        let outcome = self.run_monitored(model, stall_window, |_, _| {});
        Ok((outcome, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{ParRunner, ShardedModel};

    /// A scripted model implementing every trait a runner can ask for,
    /// which logs what the runner did to it. `step` is defined through
    /// the sharded contract, so every runner executes the same cycle.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    struct Toy {
        /// Dense work is due on multiples of this; the cycles between
        /// are provably idle. Zero: never idle.
        busy_every: u64,
        /// Progress stops advancing from this cycle on.
        stall_from: Option<u64>,
        /// A violation is reported once this cycle has been stepped.
        violate_at: Option<u64>,
        /// Report no pending work at all.
        idle: bool,

        stepped: Vec<u64>,
        jumps: Vec<(u64, u64)>,
        boundary: Option<u64>,
        progress: u64,
    }

    const SHARDS: usize = 3;

    impl CycleModel for Toy {
        fn step(&mut self, now: Cycle) {
            self.shard_prepare(now);
            let plans = (0..SHARDS).map(|s| self.shard_decide(s, now)).collect();
            self.shard_merge(now, plans);
        }
        fn begin_measurement(&mut self, now: Cycle) {
            assert_eq!(self.boundary, None, "begin_measurement fires once");
            self.boundary = Some(now.value());
        }
        fn skip_idle(&mut self, now: Cycle, limit: Cycle) -> Cycle {
            if self.busy_every == 0 || now.value().is_multiple_of(self.busy_every) {
                return now;
            }
            let next_busy = now.value().next_multiple_of(self.busy_every);
            let target = next_busy.min(limit.value());
            self.jumps.push((now.value(), target));
            Cycle::new(target)
        }
    }

    impl ShardedModel for Toy {
        type Plan = (usize, u64);
        fn shard_count(&self) -> usize {
            SHARDS
        }
        fn shard_prepare(&mut self, now: Cycle) {
            self.stepped.push(now.value());
        }
        fn shard_decide(&self, shard: usize, now: Cycle) -> (usize, u64) {
            (shard, now.value())
        }
        fn shard_merge(&mut self, now: Cycle, plans: Vec<(usize, u64)>) {
            let in_order: Vec<_> = (0..SHARDS).map(|s| (s, now.value())).collect();
            assert_eq!(plans, in_order, "one plan per shard, in shard order");
            if self.stall_from.is_none_or(|s| now.value() < s) {
                self.progress += 1;
            }
        }
    }

    impl Monitored for Toy {
        fn progress(&self) -> Option<u64> {
            (!self.idle).then_some(self.progress)
        }
        fn violation(&self) -> Option<String> {
            let at = self.violate_at?;
            (self.stepped.last()? >= &at).then(|| format!("bound violated at {at}"))
        }
    }

    /// Every public way to run a schedule.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Entry {
        Run,
        RunSkipping,
        RunObserved,
        RunMonitored,
        ParRun,
    }
    use Entry::*;

    const ENTRIES: [Entry; 5] = [Run, RunSkipping, RunObserved, RunMonitored, ParRun];

    impl Entry {
        fn observes(self) -> bool {
            !matches!(self, Run | RunSkipping | ParRun)
        }
        fn monitors(self) -> bool {
            self == RunMonitored
        }
    }

    /// What one entry point did: how it ended, and what its observer
    /// saw — `(cycle, steps executed so far)` per call.
    struct Seen {
        outcome: MonitorOutcome,
        observed: Vec<(u64, usize)>,
        toy: Toy,
    }

    fn run_entry(entry: Entry, schedule: Schedule, mut toy: Toy, window: u64) -> Seen {
        let mut observed = Vec::new();
        let observe = |m: &Toy, now: Cycle| observed.push((now.value(), m.stepped.len()));
        let window = Cycles::new(window);
        let seq = Runner::new(schedule);
        let outcome = match entry {
            Run => MonitorOutcome::Completed(seq.run(&mut toy)),
            RunSkipping => MonitorOutcome::Completed(seq.run_skipping(&mut toy)),
            RunObserved => MonitorOutcome::Completed(seq.run_observed(&mut toy, observe)),
            RunMonitored => seq.run_monitored(&mut toy, window, observe),
            ParRun => MonitorOutcome::Completed(ParRunner::new(schedule, 2).run(&mut toy)),
        };
        Seen {
            outcome,
            observed,
            toy,
        }
    }

    #[test]
    fn every_entry_point_runs_the_same_schedule() {
        for (warmup, measure) in [(10, 25), (0, 5), (15, 30)] {
            let schedule = Schedule::new(Cycles::new(warmup), Cycles::new(measure));
            let total = warmup + measure;
            let every_cycle: Vec<u64> = (0..total).collect();
            // Idle nine cycles in ten; never idle.
            for busy_every in [10, 0] {
                for entry in ENTRIES {
                    let what = format!("{entry:?} on {schedule}, busy_every {busy_every}");
                    let script = Toy {
                        busy_every,
                        ..Toy::default()
                    };
                    let seen = run_entry(entry, schedule, script, 3);
                    let toy = &seen.toy;
                    assert_eq!(
                        seen.outcome,
                        MonitorOutcome::Completed(Cycle::new(total)),
                        "{what}"
                    );
                    assert_eq!(toy.boundary, Some(warmup), "{what}");

                    // Only the unwatched skipping run may jump; an
                    // observer or a watchdog makes the run dense even
                    // over a model that could prove idleness.
                    if entry == RunSkipping && busy_every > 0 {
                        let busy: Vec<u64> = (0..total).filter(|c| c % busy_every == 0).collect();
                        assert_eq!(toy.stepped, busy, "{what}");
                    } else {
                        assert_eq!(toy.stepped, every_cycle, "{what}");
                        assert_eq!(toy.jumps, [], "{what}");
                    }

                    // Every cycle is stepped or jumped exactly once, and
                    // no jump crosses the warm-up boundary.
                    let mut covered = vec![0u32; total as usize];
                    for &c in &toy.stepped {
                        covered[c as usize] += 1;
                    }
                    for &(from, to) in &toy.jumps {
                        assert!(to <= warmup || from >= warmup, "{what}: {from}..{to}");
                        for c in from..to {
                            covered[c as usize] += 1;
                        }
                    }
                    assert!(covered.iter().all(|&n| n == 1), "{what}: {covered:?}");

                    // An observer runs after each step, in cycle order.
                    if entry.observes() {
                        let after_each: Vec<_> = (0..total).map(|c| (c, c as usize + 1)).collect();
                        assert_eq!(seen.observed, after_each, "{what}");
                    } else {
                        assert_eq!(seen.observed, [], "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn scripted_stall_and_violation_trip_at_the_same_cycle_everywhere() {
        let schedule = Schedule::new(Cycles::new(5), Cycles::new(995));
        let stall = Toy {
            stall_from: Some(10),
            ..Toy::default()
        };
        let violation = Toy {
            violate_at: Some(4),
            ..Toy::default()
        };
        // (script, stall window, tripped at, reason)
        let cases = [
            // Progress last moved at cycle 9; seven stuck cycles later.
            (
                &stall,
                7,
                16,
                "stall: pending work but no progress for 7 cycles \
                 (progress measure stuck at 10)",
            ),
            (&violation, 50, 4, "bound violated at 4"),
        ];
        for (script, window, at, reason) in cases {
            // A model that could jump the whole run is watched densely
            // all the same.
            for busy_every in [0, 1_000_000] {
                for entry in ENTRIES.into_iter().filter(|e| e.monitors()) {
                    let script = Toy {
                        busy_every,
                        ..script.clone()
                    };
                    let seen = run_entry(entry, schedule, script, window);
                    let tripped = MonitorOutcome::Tripped {
                        at: Cycle::new(at),
                        reason: reason.to_owned(),
                    };
                    assert_eq!(seen.outcome, tripped, "{entry:?}");
                    assert!(!seen.outcome.is_completed());
                    let through_the_trip: Vec<u64> = (0..=at).collect();
                    assert_eq!(seen.toy.stepped, through_the_trip, "{entry:?}");
                    assert_eq!(seen.observed.len() as u64, at + 1, "{entry:?}");
                }
            }
        }
    }

    #[test]
    fn progressing_and_idle_models_never_trip() {
        let schedule = Schedule::new(Cycles::new(5), Cycles::new(500));
        let idle = Toy {
            idle: true,
            stall_from: Some(0),
            ..Toy::default()
        };
        for script in [Toy::default(), idle] {
            for entry in ENTRIES.into_iter().filter(|e| e.monitors()) {
                let seen = run_entry(entry, schedule, script.clone(), 3);
                assert!(seen.outcome.is_completed(), "{entry:?}: {:?}", seen.outcome);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stall window must be non-empty")]
    fn empty_stall_window_rejected() {
        let schedule = Schedule::new(Cycles::ZERO, Cycles::new(5));
        let _ = run_entry(RunMonitored, schedule, Toy::default(), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_measurement_rejected() {
        let _ = Schedule::new(Cycles::new(5), Cycles::ZERO);
    }

    #[test]
    fn schedule_total() {
        let s = Schedule::new(Cycles::new(7), Cycles::new(13));
        assert_eq!(s.total(), Cycles::new(20));
        assert!(s.to_string().contains("7 warm-up"));
    }

    struct Gated {
        toy: Toy,
        severity: ssq_check::Severity,
    }

    impl CycleModel for Gated {
        fn step(&mut self, now: Cycle) {
            self.toy.step(now);
        }
        fn begin_measurement(&mut self, now: Cycle) {
            self.toy.begin_measurement(now);
        }
    }

    impl Preflight for Gated {
        fn preflight(&self) -> Report {
            std::iter::once(ssq_check::Diagnostic::new(
                ssq_check::codes::OVERSUBSCRIBED,
                self.severity,
                "output 0",
                "synthetic",
            ))
            .collect()
        }
    }

    #[test]
    fn run_checked_refuses_error_reports_without_stepping() {
        let mut model = Gated {
            toy: Toy::default(),
            severity: ssq_check::Severity::Error,
        };
        let result =
            Runner::new(Schedule::new(Cycles::new(2), Cycles::new(3))).run_checked(&mut model);
        let report = result.expect_err("error-severity findings refuse the run");
        assert!(report.has_errors());
        assert_eq!(
            model.toy.stepped,
            [],
            "no cycle may run under a broken config"
        );
    }

    #[test]
    fn run_checked_runs_through_warnings() {
        let mut model = Gated {
            toy: Toy::default(),
            severity: ssq_check::Severity::Warning,
        };
        let (end, report) = Runner::new(Schedule::new(Cycles::new(2), Cycles::new(3)))
            .run_checked(&mut model)
            .expect("warnings do not block");
        assert_eq!(end, Cycle::new(5));
        assert_eq!(model.toy.stepped, [0, 1, 2, 3, 4]);
        assert_eq!(report.len(), 1);
    }
}
