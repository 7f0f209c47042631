//! Cycle-phase profiling hooks for the switch (DESIGN.md §11).
//!
//! [`CycleProf`] wraps an [`ssq_prof::Profiler`] over the kernel's
//! prepare/decide/commit phases. `QosSwitch::step` consults it once per
//! cycle: a sampled cycle is routed through the instrumented step path,
//! every other cycle runs the uninstrumented loop.
//!
//! With the `prof` cargo feature **off** (the default), the struct is a
//! zero-sized stub and the per-cycle gate is an `#[inline(always)]`
//! constant `false`, so the instrumented path is dead code and the hot
//! loop is bit-identical to an unprofiled build — the same contract the
//! `sanitizer` and `faults` features keep, pinned by the
//! `trace_overhead` microbench methodology.

use ssq_prof::ProfReport;

/// Per-switch cycle-phase profiler state.
///
/// Held unconditionally by `QosSwitch`; zero-sized when the `prof`
/// feature is off.
#[cfg(feature = "prof")]
#[derive(Debug, Clone)]
pub struct CycleProf {
    inner: ssq_prof::Profiler,
}

#[cfg(feature = "prof")]
impl CycleProf {
    /// A disarmed profiler over the kernel phases.
    #[must_use]
    pub fn new() -> Self {
        CycleProf {
            inner: ssq_prof::Profiler::kernel(),
        }
    }

    /// Arms sampling at roughly one cycle in `sample_every` (rounded up
    /// to a power of two; `0`/`1` mean every cycle).
    pub fn arm(&mut self, sample_every: u64) {
        self.inner.arm(sample_every);
    }

    /// Zeroes the accumulated totals; armed stays armed.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Stops sampling; accumulated totals are kept.
    pub fn disarm(&mut self) {
        self.inner.disarm();
    }

    /// Advances the cycle counter; `true` when this cycle is sampled.
    #[inline]
    pub fn begin_cycle(&mut self) -> bool {
        self.inner.begin_cycle()
    }

    /// Adds one lap to a kernel phase accumulator.
    #[inline]
    pub fn record_phase(&mut self, phase: usize, ns: u64) {
        self.inner.record_phase(phase, ns);
    }

    /// Snapshots the accumulated totals.
    #[must_use]
    pub fn report(&self) -> Option<ProfReport> {
        Some(self.inner.report())
    }
}

#[cfg(feature = "prof")]
impl Default for CycleProf {
    fn default() -> Self {
        CycleProf::new()
    }
}

// --- Feature off: a zero-sized stub; the gate is const false. ---------

/// Per-switch cycle-phase profiler state (stub: `prof` feature off).
#[cfg(not(feature = "prof"))]
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleProf;

#[cfg(not(feature = "prof"))]
impl CycleProf {
    /// A disarmed profiler (stub).
    #[inline(always)]
    #[must_use]
    pub fn new() -> Self {
        CycleProf
    }

    /// No-op (stub): nothing to arm without the feature.
    #[inline(always)]
    pub fn arm(&mut self, _sample_every: u64) {}

    /// No-op (stub).
    #[inline(always)]
    pub fn reset(&mut self) {}

    /// No-op (stub).
    #[inline(always)]
    pub fn disarm(&mut self) {}

    /// Always `false`: no cycle is ever sampled, so the instrumented
    /// step path is dead code the optimizer removes.
    #[inline(always)]
    #[must_use]
    pub fn begin_cycle(&mut self) -> bool {
        false
    }

    /// No-op (stub).
    #[inline(always)]
    pub fn record_phase(&mut self, _phase: usize, _ns: u64) {}

    /// Always `None`: an unprofiled build has no data, which callers
    /// surface as a rebuild hint.
    #[inline(always)]
    #[must_use]
    pub fn report(&self) -> Option<ProfReport> {
        None
    }
}

#[cfg(all(test, feature = "prof"))]
mod tests {
    use super::*;

    #[test]
    fn armed_profiler_reports_sampled_phases() {
        let mut p = CycleProf::new();
        assert!(!p.begin_cycle(), "disarmed: never sampled");
        p.arm(1);
        assert!(p.begin_cycle());
        p.record_phase(ssq_prof::PHASE_DECIDE, 100);
        let report = p.report().expect("feature on: always Some");
        assert_eq!(report.sampled_cycles, 1);
        assert!((report.decide_fraction().unwrap() - 1.0).abs() < 1e-9);
    }
}
