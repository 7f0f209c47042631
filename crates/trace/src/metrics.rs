//! A registry of named counters, gauges, and histograms snapshotted on
//! a configurable cycle interval into a time series.
//!
//! Built directly on `ssq-stats` primitives: each snapshot appends one
//! row of every metric's current value, and the accumulated series
//! renders to monospace text, CSV, or JSON through
//! [`ssq_stats::Table`].

use ssq_stats::{Counter, Histogram, Table};

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Named metrics plus their sampled time series.
///
/// # Examples
///
/// ```
/// use ssq_trace::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new(100);
/// let grants = m.register_counter("grants");
/// let occupancy = m.register_gauge("occupancy");
/// for now in 0..250u64 {
///     m.add(grants, 2);
///     m.set_gauge(occupancy, now as f64 * 0.5);
///     if m.due(now) {
///         m.snapshot(now);
///     }
/// }
/// assert_eq!(m.samples(), 3); // cycles 0, 100, 200
/// assert!(m.to_table().to_csv().starts_with("cycle,grants,occupancy"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    interval: u64,
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
    rows: Vec<(u64, Vec<String>)>,
}

impl MetricsRegistry {
    /// Creates a registry snapshotted every `interval` cycles
    /// (`interval == 0` disables periodic sampling; explicit
    /// [`MetricsRegistry::snapshot`] calls still work).
    #[must_use]
    pub fn new(interval: u64) -> Self {
        MetricsRegistry {
            interval,
            ..MetricsRegistry::default()
        }
    }

    /// The sampling interval in cycles.
    #[must_use]
    pub const fn interval(&self) -> u64 {
        self.interval
    }

    /// Registers a monotone counter.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        self.assert_unsampled(name);
        self.counters.push((name.to_string(), Counter::new()));
        CounterId(self.counters.len() - 1)
    }

    /// Registers an instantaneous gauge.
    pub fn register_gauge(&mut self, name: &str) -> GaugeId {
        self.assert_unsampled(name);
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a histogram; each snapshot records its running mean,
    /// p99, and max as `<name>.mean` / `<name>.p99` / `<name>.max`.
    pub fn register_histogram(
        &mut self,
        name: &str,
        bin_width: u64,
        num_bins: usize,
    ) -> HistogramId {
        self.assert_unsampled(name);
        self.histograms
            .push((name.to_string(), Histogram::new(bin_width, num_bins)));
        HistogramId(self.histograms.len() - 1)
    }

    fn assert_unsampled(&self, name: &str) {
        assert!(
            self.rows.is_empty(),
            "cannot register `{name}` after snapshots were taken"
        );
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1.increment();
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1.add(n);
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0].1.value()
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Records one histogram sample.
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// Whether cycle `now` falls on the sampling interval.
    #[must_use]
    pub const fn due(&self, now: u64) -> bool {
        self.interval > 0 && now.is_multiple_of(self.interval)
    }

    /// Appends one row of every metric's current value at cycle `now`.
    pub fn snapshot(&mut self, now: u64) {
        let mut row = Vec::with_capacity(self.counters.len() + self.gauges.len());
        for (_, c) in &self.counters {
            row.push(c.value().to_string());
        }
        for (_, g) in &self.gauges {
            row.push(format!("{g:.3}"));
        }
        for (_, h) in &self.histograms {
            row.push(format!("{:.2}", h.mean()));
            row.push(h.percentile(99.0).unwrap_or(0).to_string());
            row.push(h.max().unwrap_or(0).to_string());
        }
        self.rows.push((now, row));
    }

    /// Number of snapshots taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.rows.len()
    }

    /// The column headers after `cycle`, in snapshot order.
    #[must_use]
    pub fn column_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (n, _) in &self.counters {
            names.push(n.clone());
        }
        for (n, _) in &self.gauges {
            names.push(n.clone());
        }
        for (n, _) in &self.histograms {
            names.push(format!("{n}.mean"));
            names.push(format!("{n}.p99"));
            names.push(format!("{n}.max"));
        }
        names
    }

    /// The sampled series as a table (`cycle` plus one column per
    /// metric), ready for [`Table::to_text`], [`Table::to_csv`], or
    /// [`Table::to_json`].
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut headers = vec![String::from("cycle")];
        headers.extend(self.column_names());
        let mut table = Table::new(headers);
        table.numeric();
        for (cycle, row) in &self.rows {
            let mut cells = Vec::with_capacity(row.len() + 1);
            cells.push(cycle.to_string());
            cells.extend(row.iter().cloned());
            table.row(cells);
        }
        table
    }

    /// One final-row summary (latest value of every metric), used by
    /// the flight-recorder post-mortem.
    #[must_use]
    pub fn latest_summary(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (n, c) in &self.counters {
            out.push((n.clone(), c.value().to_string()));
        }
        for (n, g) in &self.gauges {
            out.push((n.clone(), format!("{g:.3}")));
        }
        for (n, h) in &self.histograms {
            out.push((format!("{n}.mean"), format!("{:.2}", h.mean())));
            out.push((
                format!("{n}.p99"),
                h.percentile(99.0).unwrap_or(0).to_string(),
            ));
            out.push((format!("{n}.max"), h.max().unwrap_or(0).to_string()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_on_interval_only() {
        let m = MetricsRegistry::new(50);
        assert!(m.due(0));
        assert!(m.due(100));
        assert!(!m.due(99));
        let off = MetricsRegistry::new(0);
        assert!(!off.due(0));
    }

    #[test]
    fn table_has_cycle_plus_metric_columns() {
        let mut m = MetricsRegistry::new(10);
        let c = m.register_counter("grants");
        let g = m.register_gauge("fill");
        let h = m.register_histogram("wait", 1, 64);
        m.add(c, 3);
        m.set_gauge(g, 0.25);
        m.record(h, 7);
        m.record(h, 9);
        m.snapshot(10);
        m.add(c, 1);
        m.snapshot(20);
        let table = m.to_table();
        let csv = table.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("cycle,grants,fill,wait.mean,wait.p99,wait.max")
        );
        // p99 follows ssq-stats' cumulative-count percentile semantics:
        // with samples {7, 9} it lands in the top bin, not the bottom.
        assert_eq!(lines.next(), Some("10,3,0.250,8.00,9,9"));
        assert!(lines.next().is_some_and(|l| l.starts_with("20,4,")));
        assert_eq!(m.counter(c), 4);
    }

    #[test]
    fn empty_histogram_snapshots_as_zero() {
        // No samples: mean is 0, and the p99/max columns fall back to 0
        // rather than poisoning the series.
        let mut m = MetricsRegistry::new(1);
        let _h = m.register_histogram("wait", 1, 8);
        m.snapshot(0);
        let csv = m.to_table().to_csv();
        assert!(csv.ends_with("0,0.00,0,0\n"), "{csv}");
    }

    #[test]
    fn single_sample_histogram_reports_it_at_every_percentile() {
        let mut m = MetricsRegistry::new(1);
        let h = m.register_histogram("wait", 1, 8);
        m.record(h, 5);
        m.snapshot(0);
        let csv = m.to_table().to_csv();
        assert!(csv.ends_with("0,5.00,5,5\n"), "{csv}");
        // The one sample is every percentile of itself.
        let (_, hist) = &m.histograms[0];
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(hist.percentile(p), Some(5));
        }
    }

    #[test]
    fn saturated_bucket_percentiles_resolve_to_exact_max() {
        // Samples past the binned range land in the overflow bucket;
        // percentiles that fall there must report the exact observed
        // maximum, not a bin edge.
        let mut m = MetricsRegistry::new(1);
        let h = m.register_histogram("wait", 1, 4);
        for _ in 0..99 {
            m.record(h, 1);
        }
        m.record(h, 1_000); // beyond the 4-bin range
        let (_, hist) = &m.histograms[0];
        assert_eq!(hist.percentile(50.0), Some(1));
        assert_eq!(hist.percentile(90.0), Some(1));
        assert_eq!(hist.percentile(99.0), Some(1));
        assert_eq!(hist.percentile(100.0), Some(1_000));
        m.snapshot(0);
        let summary = m.latest_summary();
        assert!(
            summary.contains(&(String::from("wait.max"), String::from("1000"))),
            "{summary:?}"
        );
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let mut m = MetricsRegistry::new(1);
        let c = m.register_counter("x");
        m.inc(c);
        m.snapshot(1);
        let json = m.to_table().to_json();
        assert!(json.contains("\"x\":1"), "{json}");
    }

    #[test]
    #[should_panic(expected = "after snapshots")]
    fn registration_is_frozen_after_first_snapshot() {
        let mut m = MetricsRegistry::new(1);
        m.snapshot(0);
        let _ = m.register_counter("late");
    }

    #[test]
    fn latest_summary_reflects_current_values() {
        let mut m = MetricsRegistry::new(1);
        let c = m.register_counter("n");
        m.add(c, 5);
        let summary = m.latest_summary();
        assert_eq!(summary, vec![(String::from("n"), String::from("5"))]);
    }
}
