//! The every-cycle phase profiler.
//!
//! A [`Profiler`] owns one wall-clock accumulator per switch-kernel
//! phase ([`KERNEL_PHASES`]: `prepare`/`decide`/`commit`). The
//! embedding loop drives it with three calls:
//!
//! 1. [`Profiler::begin_cycle`] once per simulated cycle — disarmed
//!    this is one branch; armed it counts the cycle and says to time it;
//! 2. on timed cycles, [`Stopwatch`] laps around each phase feeding
//!    [`Profiler::record_phase`];
//! 3. [`Profiler::report`] at the end of the run.
//!
//! Armed, every cycle is timed: the disarmed hot path never touches the
//! OS clock.

use std::time::Instant;

use ssq_stats::Table;

/// The switch kernel's phase names, in cycle order.
pub const KERNEL_PHASES: [&str; 3] = ["prepare", "decide", "commit"];

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

    /// Reads the elapsed nanoseconds and restarts the watch, so
    /// consecutive laps tile a cycle without gaps.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(self.0).as_nanos()).unwrap_or(u64::MAX);
        self.0 = now;
        ns
    }
}

/// Per-phase wall-clock accumulators over the switch kernel's phases.
/// See the module docs for the driving protocol.
#[derive(Debug, Clone)]
pub struct Profiler {
    armed: bool,
    totals: ProfReport,
}

impl Profiler {
    /// A disarmed profiler over the switch kernel's phases.
    #[must_use]
    pub fn kernel() -> Self {
        Profiler {
            armed: false,
            totals: ProfReport {
                cycles: 0,
                phases: KERNEL_PHASES.map(|name| PhaseLine {
                    name,
                    ns: 0,
                    samples: 0,
                }),
            },
        }
    }

    /// Arms the profiler: from the next cycle on, every cycle is timed.
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Zeroes the accumulators and the cycle count; armed stays armed.
    /// The embedding model calls this where it resets its other
    /// statistics (the warm-up/measurement boundary), so a profiler
    /// armed before the run reports the measured phase only.
    pub fn reset(&mut self) {
        self.totals = Profiler::kernel().totals;
    }

    /// Counts a cycle if armed, and says whether to time it: the only
    /// call on the disarmed hot path, one branch.
    #[inline]
    pub fn begin_cycle(&mut self) -> bool {
        if self.armed {
            self.totals.cycles = self.totals.cycles.wrapping_add(1);
        }
        self.armed
    }

    /// Adds one lap to a phase accumulator. Unknown indices are ignored
    /// (the hot path must never panic on accounting).
    #[inline]
    pub fn record_phase(&mut self, phase: usize, ns: u64) {
        if let Some(line) = self.totals.phases.get_mut(phase) {
            line.ns = line.ns.saturating_add(ns);
            line.samples = line.samples.saturating_add(1);
        }
    }

    /// Snapshots the accumulated totals.
    #[must_use]
    pub fn report(&self) -> ProfReport {
        self.totals
    }
}

/// One phase's accumulated totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLine {
    /// Phase name (`prepare`, `decide`, `commit`).
    pub name: &'static str,
    /// Total timed nanoseconds.
    pub ns: u64,
    /// Number of laps recorded.
    pub samples: u64,
}

/// An immutable snapshot of a [`Profiler`]'s accumulators.
#[derive(Debug, Clone, Copy)]
pub struct ProfReport {
    /// Cycles timed while armed.
    pub cycles: u64,
    /// Per-phase totals, in [`KERNEL_PHASES`] order.
    pub phases: [PhaseLine; KERNEL_PHASES.len()],
}

impl ProfReport {
    /// Renders the cycle count, the per-phase table (`phase`,
    /// `ns/cycle`, `fraction`, `samples`) and the decide phase's share
    /// as monospace text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let total = self.phases.iter().fold(0u64, |a, p| a.saturating_add(p.ns));
        let share = |p: &PhaseLine| (total > 0).then(|| p.ns as f64 / total as f64);
        let mut t = Table::with_columns(&["phase", "ns/cycle", "fraction", "samples"]);
        t.numeric();
        for p in &self.phases {
            t.row(vec![
                p.name.to_string(),
                (self.cycles > 0)
                    .then(|| p.ns as f64 / self.cycles as f64)
                    .map_or_else(|| String::from("-"), |v| format!("{v:.0}")),
                share(p).map_or_else(|| String::from("-"), |v| format!("{:.1}%", v * 100.0)),
                p.samples.to_string(),
            ]);
        }
        let mut out = format!("profiled {0} of {0} cycles\n", self.cycles);
        out.push_str(&t.to_text());
        if let Some(f) = share(&self.phases[PHASE_DECIDE]) {
            out.push_str(&format!("decide fraction: {:.1}%\n", f * 100.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_profiler_never_times() {
        let mut p = Profiler::kernel();
        for _ in 0..100 {
            assert!(!p.begin_cycle());
        }
        assert_eq!(p.report().cycles, 0, "disarmed cycles are not even counted");
    }

    #[test]
    fn armed_times_every_cycle() {
        let mut p = Profiler::kernel();
        p.arm();
        for _ in 0..64 {
            assert!(p.begin_cycle());
            p.record_phase(PHASE_PREPARE, 10);
            p.record_phase(PHASE_DECIDE, 30);
            p.record_phase(PHASE_COMMIT, 10);
        }
        let r = p.report();
        assert_eq!(r.cycles, 64);
        assert_eq!(
            r.phases.map(|l| (l.name, l.ns, l.samples)),
            [
                ("prepare", 640, 64),
                ("decide", 1920, 64),
                ("commit", 640, 64)
            ]
        );
        let text = r.render_text();
        assert!(text.starts_with("profiled 64 of 64 cycles\n"), "{text}");
        assert!(
            text.contains("prepare        10     20.0%       64"),
            "{text}"
        );
        assert!(text.ends_with("decide fraction: 60.0%\n"), "{text}");
    }

    #[test]
    fn reset_zeroes_totals_and_stays_armed() {
        let mut p = Profiler::kernel();
        p.arm();
        for _ in 0..5 {
            assert!(p.begin_cycle());
            p.record_phase(PHASE_DECIDE, 30);
        }
        p.reset();
        let r = p.report();
        assert_eq!((r.cycles, r.phases[PHASE_DECIDE].ns), (0, 0));
        assert!(p.begin_cycle(), "still armed, still every cycle");
        assert_eq!(p.report().cycles, 1);
    }

    #[test]
    fn stopwatch_laps_are_monotone() {
        let mut w = Stopwatch::start();
        let a = w.lap_ns();
        let b = w.lap_ns();
        // Both reads are valid nanosecond counts (no panic, no wrap).
        assert!(a < u64::MAX && b < u64::MAX);
    }

    #[test]
    fn empty_report_renders_without_percentages() {
        let text = Profiler::kernel().report().render_text();
        assert!(text.contains("profiled 0 of 0 cycles"), "{text}");
        assert!(!text.contains('%'), "{text}");
    }
}
