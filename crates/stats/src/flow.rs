//! Per-flow metric bundles.

use std::fmt;

use ssq_types::{Cycle, Cycles, FlowId};

use crate::{Histogram, RunningStats};

/// Default latency histogram layout: 4-cycle bins out to 4096 cycles,
/// with exact mean/max beyond that.
const LATENCY_BIN_WIDTH: u64 = 4;
const LATENCY_BINS: usize = 1024;

/// Everything the experiments record about one flow: delivered packets and
/// flits, packet latency distribution, and accepted throughput.
///
/// # Examples
///
/// ```
/// use ssq_stats::FlowMetrics;
/// use ssq_types::{Cycle, Cycles, FlowId, InputId, OutputId};
///
/// let mut m = FlowMetrics::new(FlowId::new(InputId::new(0), OutputId::new(0)));
/// m.start_window(Cycle::new(0));
/// m.record_delivery(Cycles::new(12), 8);
/// assert_eq!(m.packets(), 1);
/// assert_eq!(m.flits(), 8);
/// assert!((m.mean_latency() - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FlowMetrics {
    flow: FlowId,
    latency: Histogram,
    latency_stats: RunningStats,
    /// Where the measurement window starts.
    window_start: Cycle,
    packets: u64,
    flits: u64,
}

impl FlowMetrics {
    /// Creates an empty metric bundle for `flow`.
    #[must_use]
    pub fn new(flow: FlowId) -> Self {
        FlowMetrics {
            flow,
            latency: Histogram::new(LATENCY_BIN_WIDTH, LATENCY_BINS),
            latency_stats: RunningStats::new(),
            window_start: Cycle::ZERO,
            packets: 0,
            flits: 0,
        }
    }

    /// The flow these metrics describe.
    #[must_use]
    pub const fn flow(&self) -> FlowId {
        self.flow
    }

    /// Starts the measurement window at `now`, clearing all recorded data.
    pub fn start_window(&mut self, now: Cycle) {
        self.latency = Histogram::new(LATENCY_BIN_WIDTH, LATENCY_BINS);
        self.latency_stats = RunningStats::new();
        self.window_start = now;
        self.packets = 0;
        self.flits = 0;
    }

    /// Records a delivered packet: its end-to-end latency and flit count.
    pub fn record_delivery(&mut self, latency: Cycles, flits: u64) {
        self.packets = self.packets.saturating_add(1);
        self.latency.record(latency.value());
        self.latency_stats.push(latency.as_f64());
        self.flits = self.flits.saturating_add(flits);
    }

    /// Packets delivered within the window.
    #[must_use]
    pub const fn packets(&self) -> u64 {
        self.packets
    }

    /// Flits delivered within the window.
    #[must_use]
    pub const fn flits(&self) -> u64 {
        self.flits
    }

    /// Mean packet latency in cycles (zero if no packets arrived).
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Worst observed packet latency.
    #[must_use]
    pub fn max_latency(&self) -> Option<u64> {
        self.latency.max()
    }

    /// Approximate latency percentile (see [`Histogram::percentile`]).
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        self.latency.percentile(p)
    }

    /// Streaming latency statistics (mean/variance/min/max).
    #[must_use]
    pub fn latency_stats(&self) -> &RunningStats {
        &self.latency_stats
    }

    /// Accepted throughput in flits/cycle over the window ending at `now`
    /// (zero for an empty window) — what Fig. 4 plots on its y-axis.
    #[must_use]
    pub fn throughput(&self, now: Cycle) -> f64 {
        let window = now.saturating_since(self.window_start).value();
        if window == 0 {
            0.0
        } else {
            self.flits as f64 / window as f64
        }
    }
}

impl fmt::Display for FlowMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} pkts, mean latency {:.1}",
            self.flow,
            self.packets,
            self.mean_latency()
        )
    }
}

/// A dense `radix × radix` matrix of [`FlowMetrics`], one per crosspoint.
///
/// # Examples
///
/// ```
/// use ssq_stats::MetricsMatrix;
/// use ssq_types::{Cycles, FlowId, InputId, OutputId};
///
/// let mut m = MetricsMatrix::new(4);
/// let flow = FlowId::new(InputId::new(1), OutputId::new(2));
/// m.flow_mut(flow).record_delivery(Cycles::new(9), 1);
/// assert_eq!(m.flow(flow).packets(), 1);
/// assert_eq!(m.radix(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct MetricsMatrix {
    radix: usize,
    flows: Vec<FlowMetrics>,
}

impl MetricsMatrix {
    /// Creates an empty matrix for a `radix × radix` switch.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero.
    #[must_use]
    pub fn new(radix: usize) -> Self {
        assert!(radix > 0, "radix must be positive");
        let flows = (0..radix * radix)
            .map(|i| {
                FlowMetrics::new(FlowId::new(
                    ssq_types::InputId::new(i / radix),
                    ssq_types::OutputId::new(i % radix),
                ))
            })
            .collect();
        MetricsMatrix { radix, flows }
    }

    /// The switch radix this matrix covers.
    #[must_use]
    pub const fn radix(&self) -> usize {
        self.radix
    }

    /// Metrics for one flow.
    ///
    /// # Panics
    ///
    /// Panics if the flow's port indices exceed the radix.
    #[must_use]
    pub fn flow(&self, flow: FlowId) -> &FlowMetrics {
        &self.flows[self.index(flow)]
    }

    /// Mutable metrics for one flow.
    ///
    /// # Panics
    ///
    /// Panics if the flow's port indices exceed the radix.
    pub fn flow_mut(&mut self, flow: FlowId) -> &mut FlowMetrics {
        let i = self.index(flow);
        &mut self.flows[i]
    }

    /// Iterates over all flows' metrics.
    pub fn iter(&self) -> impl Iterator<Item = &FlowMetrics> {
        self.flows.iter()
    }

    /// Starts the measurement window for every flow.
    pub fn start_window(&mut self, now: Cycle) {
        for f in &mut self.flows {
            f.start_window(now);
        }
    }

    /// Total packets delivered across all flows.
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.flows.iter().map(FlowMetrics::packets).sum()
    }

    /// Total flits delivered across all flows.
    #[must_use]
    pub fn total_flits(&self) -> u64 {
        self.flows.iter().map(FlowMetrics::flits).sum()
    }

    fn index(&self, flow: FlowId) -> usize {
        let (i, o) = (flow.input().index(), flow.output().index());
        assert!(
            i < self.radix && o < self.radix,
            "flow {flow} outside radix {}",
            self.radix
        );
        i * self.radix + o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_types::{InputId, OutputId};

    fn flow(i: usize, o: usize) -> FlowId {
        FlowId::new(InputId::new(i), OutputId::new(o))
    }

    #[test]
    fn metrics_accumulate() {
        let mut m = FlowMetrics::new(flow(0, 0));
        m.record_delivery(Cycles::new(10), 8);
        m.record_delivery(Cycles::new(20), 8);
        assert_eq!(m.packets(), 2);
        assert_eq!(m.flits(), 16);
        assert!((m.mean_latency() - 15.0).abs() < 1e-12);
        assert_eq!(m.max_latency(), Some(20));
    }

    #[test]
    fn window_restart_clears() {
        let mut m = FlowMetrics::new(flow(0, 0));
        m.record_delivery(Cycles::new(10), 8);
        m.start_window(Cycle::new(100));
        assert_eq!(m.packets(), 0);
        assert_eq!(m.flits(), 0);
        assert!(m.latency_stats().is_empty());
    }

    #[test]
    fn throughput_uses_window() {
        let mut m = FlowMetrics::new(flow(0, 0));
        m.start_window(Cycle::new(0));
        m.record_delivery(Cycles::new(1), 50);
        assert!((m.throughput(Cycle::new(100)) - 0.5).abs() < 1e-12);
        // An empty window reads zero, not NaN.
        assert_eq!(m.throughput(Cycle::new(0)), 0.0);
    }

    #[test]
    fn matrix_addresses_every_crosspoint() {
        let mut m = MetricsMatrix::new(3);
        for i in 0..3 {
            for o in 0..3 {
                m.flow_mut(flow(i, o)).record_delivery(Cycles::new(1), 1);
            }
        }
        assert_eq!(m.total_packets(), 9);
        assert_eq!(m.total_flits(), 9);
        assert_eq!(m.iter().count(), 9);
    }

    #[test]
    #[should_panic(expected = "outside radix")]
    fn matrix_rejects_out_of_range_flow() {
        let m = MetricsMatrix::new(2);
        let _ = m.flow(flow(2, 0));
    }

    #[test]
    fn matrix_window_restart_applies_to_all() {
        let mut m = MetricsMatrix::new(2);
        m.flow_mut(flow(1, 1)).record_delivery(Cycles::new(5), 2);
        m.start_window(Cycle::new(10));
        assert_eq!(m.total_packets(), 0);
    }
}
