//! The counter-sampled phase profiler.
//!
//! A [`Profiler`] owns one wall-clock accumulator per named phase. The
//! embedding loop drives it with three calls:
//!
//! 1. [`Profiler::begin_cycle`] once per simulated cycle — disarmed
//!    this is one branch; armed it is one counter add plus a mask test,
//!    and the return value says whether this cycle is sampled;
//! 2. on sampled cycles, [`Stopwatch`] laps around each phase feeding
//!    [`Profiler::record_phase`];
//! 3. [`Profiler::report`] at the end of the run.
//!
//! Sampling is counter-based (every 2^k-th cycle, `k` chosen from the
//! requested rate) so the armed-but-unsampled hot path never touches the
//! OS clock. The phase set is a named slice: the switch kernel uses
//! [`KERNEL_PHASES`] (`prepare`/`decide`/`commit`).

use std::time::Instant;

use ssq_stats::Table;

/// The switch kernel's phase names, in cycle order.
pub const KERNEL_PHASES: &[&str] = &["prepare", "decide", "commit"];

/// Index of the prepare phase in [`KERNEL_PHASES`].
pub const PHASE_PREPARE: usize = 0;
/// Index of the decide phase in [`KERNEL_PHASES`].
pub const PHASE_DECIDE: usize = 1;
/// Index of the commit phase in [`KERNEL_PHASES`].
pub const PHASE_COMMIT: usize = 2;

/// A monotonic nanosecond lap timer around one phase.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the watch now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since the last start/lap, saturating at `u64::MAX`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reads the elapsed nanoseconds and restarts the watch, so
    /// consecutive laps tile a cycle without gaps.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(self.0).as_nanos()).unwrap_or(u64::MAX);
        self.0 = now;
        ns
    }
}

/// One accumulator: total nanoseconds and how many laps produced them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Acc {
    ns: u64,
    samples: u64,
}

impl Acc {
    fn record(&mut self, ns: u64) {
        self.ns = self.ns.saturating_add(ns);
        self.samples = self.samples.saturating_add(1);
    }
}

/// Counter-sampled per-phase wall-clock accumulators. See the module
/// docs for the driving protocol.
#[derive(Debug, Clone)]
pub struct Profiler {
    names: &'static [&'static str],
    armed: bool,
    /// Sample when `cycles & mask == 0` (mask is `2^k - 1`).
    mask: u64,
    cycles: u64,
    sampled: u64,
    sampling: bool,
    phases: Vec<Acc>,
}

impl Profiler {
    /// A disarmed profiler over the given phase names.
    #[must_use]
    pub fn new(names: &'static [&'static str]) -> Self {
        Profiler {
            names,
            armed: false,
            mask: 0,
            cycles: 0,
            sampled: 0,
            sampling: false,
            phases: vec![Acc::default(); names.len()],
        }
    }

    /// A disarmed profiler over the switch kernel's phases.
    #[must_use]
    pub fn kernel() -> Self {
        Profiler::new(KERNEL_PHASES)
    }

    /// Arms sampling at roughly one cycle in `sample_every` (rounded up
    /// to the next power of two; `0` and `1` both mean every cycle).
    pub fn arm(&mut self, sample_every: u64) {
        self.armed = true;
        self.mask = sample_every.max(1).next_power_of_two().saturating_sub(1);
    }

    /// Zeroes the accumulators and the cycle counters; armed stays
    /// armed at the same rate. The embedding model calls this where it
    /// resets its other statistics (the warm-up/measurement boundary),
    /// so a profiler armed before the run reports the measured phase
    /// only.
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.sampled = 0;
        self.sampling = false;
        self.phases.fill(Acc::default());
    }

    /// Stops sampling; accumulated totals are kept.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.sampling = false;
    }

    /// Whether the profiler is currently armed.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Advances the cycle counter and decides whether this cycle is
    /// sampled. This is the only call on the armed-but-unsampled hot
    /// path: one add and one mask test.
    #[inline]
    pub fn begin_cycle(&mut self) -> bool {
        if !self.armed {
            return false;
        }
        let n = self.cycles;
        self.cycles = n.wrapping_add(1);
        self.sampling = n & self.mask == 0;
        if self.sampling {
            self.sampled = self.sampled.saturating_add(1);
        }
        self.sampling
    }

    /// Whether the current cycle is being sampled.
    #[must_use]
    pub fn sampling(&self) -> bool {
        self.sampling
    }

    /// Adds one lap to a phase accumulator. Unknown indices are ignored
    /// (the hot path must never panic on accounting).
    #[inline]
    pub fn record_phase(&mut self, phase: usize, ns: u64) {
        if let Some(acc) = self.phases.get_mut(phase) {
            acc.record(ns);
        }
    }

    /// Cycles seen while armed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles that were sampled.
    #[must_use]
    pub fn sampled_cycles(&self) -> u64 {
        self.sampled
    }

    /// Snapshots the accumulated totals.
    #[must_use]
    pub fn report(&self) -> ProfReport {
        ProfReport {
            cycles: self.cycles,
            sampled_cycles: self.sampled,
            phases: self
                .names
                .iter()
                .zip(&self.phases)
                .map(|(name, acc)| PhaseLine {
                    name: (*name).to_string(),
                    ns: acc.ns,
                    samples: acc.samples,
                })
                .collect(),
        }
    }
}

/// One phase's accumulated totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLine {
    /// Phase name (`prepare`, `decide`, ...).
    pub name: String,
    /// Total sampled nanoseconds.
    pub ns: u64,
    /// Number of laps recorded.
    pub samples: u64,
}

/// An immutable snapshot of a [`Profiler`]'s accumulators.
#[derive(Debug, Clone, Default)]
pub struct ProfReport {
    /// Cycles seen while armed.
    pub cycles: u64,
    /// Cycles whose phases were timed.
    pub sampled_cycles: u64,
    /// Per-phase totals, in phase order.
    pub phases: Vec<PhaseLine>,
}

impl ProfReport {
    /// Whether nothing was sampled (feature off, disarmed, or an empty
    /// run).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sampled_cycles == 0
    }

    /// Total sampled nanoseconds across all phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().fold(0u64, |a, p| a.saturating_add(p.ns))
    }

    /// A named phase's share of total sampled time, if anything was
    /// sampled.
    #[must_use]
    pub fn fraction(&self, name: &str) -> Option<f64> {
        let total = self.total_ns();
        if total == 0 {
            return None;
        }
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.ns as f64 / total as f64)
    }

    /// The decide phase's share of total sampled time.
    #[must_use]
    pub fn decide_fraction(&self) -> Option<f64> {
        self.fraction("decide")
    }

    /// A named phase's mean nanoseconds per sampled cycle.
    #[must_use]
    pub fn ns_per_cycle(&self, name: &str) -> Option<f64> {
        if self.sampled_cycles == 0 {
            return None;
        }
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.ns as f64 / self.sampled_cycles as f64)
    }

    /// The per-phase breakdown as a table (`phase`, `ns/cycle`,
    /// `fraction`, `samples`).
    #[must_use]
    pub fn phase_table(&self) -> Table {
        let mut t = Table::with_columns(&["phase", "ns/cycle", "fraction", "samples"]);
        t.numeric();
        for p in &self.phases {
            t.row(vec![
                p.name.clone(),
                self.ns_per_cycle(&p.name)
                    .map_or_else(|| String::from("-"), |v| format!("{v:.0}")),
                self.fraction(&p.name)
                    .map_or_else(|| String::from("-"), |v| format!("{:.1}%", v * 100.0)),
                p.samples.to_string(),
            ]);
        }
        t
    }

    /// Renders the summary plus phase table as monospace text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "profiled {} of {} cycles\n",
            self.sampled_cycles, self.cycles
        );
        out.push_str(&self.phase_table().to_text());
        if let Some(f) = self.decide_fraction() {
            out.push_str(&format!("decide fraction: {:.1}%\n", f * 100.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_profiler_never_samples() {
        let mut p = Profiler::kernel();
        for _ in 0..100 {
            assert!(!p.begin_cycle());
        }
        assert!(p.report().is_empty());
        assert_eq!(p.cycles(), 0, "disarmed cycles are not even counted");
    }

    #[test]
    fn arm_one_samples_every_cycle() {
        let mut p = Profiler::kernel();
        p.arm(1);
        let mut sampled = 0;
        for _ in 0..64 {
            if p.begin_cycle() {
                sampled += 1;
                p.record_phase(PHASE_PREPARE, 10);
                p.record_phase(PHASE_DECIDE, 30);
                p.record_phase(PHASE_COMMIT, 10);
            }
        }
        assert_eq!(sampled, 64);
        let r = p.report();
        assert_eq!(r.sampled_cycles, 64);
        assert_eq!(r.total_ns(), 64 * 50);
        assert!((r.decide_fraction().unwrap() - 0.6).abs() < 1e-9);
        assert!((r.ns_per_cycle("prepare").unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_rate_rounds_to_power_of_two() {
        let mut p = Profiler::kernel();
        p.arm(6); // rounds to 8
        let sampled = (0..80).filter(|_| p.begin_cycle()).count();
        assert_eq!(sampled, 10);
        assert_eq!(p.cycles(), 80);
        assert_eq!(p.sampled_cycles(), 10);
    }

    #[test]
    fn reset_zeroes_totals_and_stays_armed() {
        let mut p = Profiler::kernel();
        p.arm(1);
        for _ in 0..5 {
            assert!(p.begin_cycle());
            p.record_phase(PHASE_DECIDE, 30);
        }
        p.reset();
        assert!(p.report().is_empty());
        assert_eq!(p.report().total_ns(), 0);
        assert!(p.begin_cycle(), "still armed, still every cycle");
        assert_eq!(p.report().sampled_cycles, 1);
    }

    #[test]
    fn stopwatch_laps_are_monotone() {
        let mut w = Stopwatch::start();
        let a = w.lap_ns();
        let b = w.elapsed_ns();
        // Both reads are valid nanosecond counts (no panic, no wrap).
        assert!(a < u64::MAX && b < u64::MAX);
    }

    #[test]
    fn empty_report_renders_without_percentages() {
        let r = Profiler::kernel().report();
        assert!(r.is_empty());
        assert!(r.decide_fraction().is_none());
        assert!(r.render_text().contains("profiled 0 of 0 cycles"));
    }
}
