//! A series of named gauges snapshotted on a configurable cycle
//! interval.
//!
//! The columns are named when the registry is built; each snapshot
//! appends one row holding every gauge's value at that cycle, and the
//! accumulated series renders to monospace text, CSV, or JSON through
//! [`ssq_stats::Table`]. Values render with three decimals.

use ssq_stats::Table;

/// Named gauges plus their sampled time series.
///
/// # Examples
///
/// ```
/// use ssq_trace::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new(100, &["grants", "occupancy"]);
/// for now in 0..250u64 {
///     if m.due(now) {
///         m.snapshot(now, &[now as f64 * 2.0, now as f64 * 0.5]);
///     }
/// }
/// assert_eq!(m.samples(), 3); // cycles 0, 100, 200
/// assert!(m.to_table().to_csv().starts_with("cycle,grants,occupancy\n0,0.000,0.000\n"));
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    interval: u64,
    names: Vec<String>,
    /// `(cycle, one value per gauge)`, in snapshot order.
    rows: Vec<(u64, Vec<f64>)>,
}

impl MetricsRegistry {
    /// Creates a registry of the named gauges, snapshotted every
    /// `interval` cycles (`interval == 0` disables periodic sampling;
    /// explicit [`MetricsRegistry::snapshot`] calls still work).
    #[must_use]
    pub fn new(interval: u64, gauges: &[&str]) -> Self {
        MetricsRegistry {
            interval,
            names: gauges.iter().map(|&n| n.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Whether cycle `now` falls on the sampling interval.
    #[must_use]
    pub const fn due(&self, now: u64) -> bool {
        self.interval > 0 && now.is_multiple_of(self.interval)
    }

    /// Appends the row of every gauge's value at cycle `now`, in the
    /// order the gauges were named.
    ///
    /// # Panics
    ///
    /// If `values` does not hold one value per gauge.
    pub fn snapshot(&mut self, now: u64, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.names.len(),
            "a snapshot holds one value per gauge"
        );
        self.rows.push((now, values.to_vec()));
    }

    /// Number of snapshots taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.rows.len()
    }

    /// The sampled series as a table (`cycle` plus one column per
    /// gauge), ready for [`Table::to_text`], [`Table::to_csv`], or
    /// [`Table::to_json`].
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut headers = vec![String::from("cycle")];
        headers.extend(self.names.iter().cloned());
        let mut table = Table::new(headers);
        table.numeric();
        for (cycle, values) in &self.rows {
            let mut cells = vec![cycle.to_string()];
            cells.extend(values.iter().map(|v| format!("{v:.3}")));
            table.row(cells);
        }
        table
    }

    /// Every gauge's latest value (0 before the first snapshot), used by
    /// the flight-recorder post-mortem.
    #[must_use]
    pub fn latest_summary(&self) -> Vec<(String, String)> {
        let latest = self.rows.last().map(|(_, values)| values.as_slice());
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let value = latest.map_or(0.0, |values| values[i]);
                (n.clone(), format!("{value:.3}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_on_interval_only() {
        let m = MetricsRegistry::new(50, &["fill"]);
        assert!(m.due(0));
        assert!(m.due(100));
        assert!(!m.due(99));
        let off = MetricsRegistry::new(0, &["fill"]);
        assert!(!off.due(0));
    }

    #[test]
    fn table_has_cycle_plus_gauge_columns() {
        let mut m = MetricsRegistry::new(10, &["grants", "fill"]);
        m.snapshot(10, &[3.0, 0.25]);
        m.snapshot(20, &[4.0, 0.5]);
        let csv = m.to_table().to_csv();
        assert_eq!(csv, "cycle,grants,fill\n10,3.000,0.250\n20,4.000,0.500\n");
        assert_eq!(m.samples(), 2);
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let mut m = MetricsRegistry::new(1, &["x"]);
        m.snapshot(1, &[1.0]);
        let json = m.to_table().to_json();
        assert!(json.contains("{\"cycle\":1,\"x\":1.000}"), "{json}");
    }

    #[test]
    #[should_panic(expected = "one value per gauge")]
    fn columns_are_fixed_when_the_registry_is_built() {
        let mut m = MetricsRegistry::new(1, &["x"]);
        m.snapshot(0, &[1.0, 2.0]);
    }

    #[test]
    fn latest_summary_reflects_the_latest_snapshot() {
        let mut m = MetricsRegistry::new(1, &["n", "fill"]);
        assert_eq!(
            m.latest_summary(),
            [
                ("n".into(), "0.000".into()),
                ("fill".into(), "0.000".into())
            ]
        );
        m.snapshot(0, &[5.0, 0.125]);
        m.snapshot(1, &[6.0, 0.25]);
        assert_eq!(
            m.latest_summary(),
            [
                ("n".into(), "6.000".into()),
                ("fill".into(), "0.250".into())
            ]
        );
    }
}
