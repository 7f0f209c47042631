//! Per-flow metric bundles.

use ssq_types::{Cycle, Cycles, FlowId};

use crate::Histogram;

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
/// use ssq_types::{Cycle, Cycles};
///
/// let mut m = FlowMetrics::new();
/// m.start_window(Cycle::new(0));
/// m.record_delivery(Cycles::new(12), 8);
/// assert_eq!(m.packets(), 1);
/// assert_eq!(m.flits(), 8);
/// assert!((m.mean_latency() - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FlowMetrics {
    /// One sample per delivered packet: its count is the packet count,
    /// and its sum, minimum and maximum are exact.
    latency: Histogram,
    /// Where the measurement window starts.
    window_start: Cycle,
    flits: u64,
}

impl Default for FlowMetrics {
    fn default() -> Self {
        FlowMetrics::new()
    }
}

impl FlowMetrics {
    /// Creates an empty metric bundle whose window starts at cycle 0.
    #[must_use]
    pub const fn new() -> Self {
        FlowMetrics {
            latency: Histogram::new(LATENCY_BIN_WIDTH, LATENCY_BINS),
            window_start: Cycle::ZERO,
            flits: 0,
        }
    }

    /// Starts the measurement window at `now`, clearing all recorded data.
    pub fn start_window(&mut self, now: Cycle) {
        *self = FlowMetrics {
            window_start: now,
            ..FlowMetrics::new()
        };
    }

    /// Records a delivered packet: its end-to-end latency and flit count.
    pub fn record_delivery(&mut self, latency: Cycles, flits: u64) {
        self.latency.record(latency.value());
        self.flits = self.flits.saturating_add(flits);
    }

    /// Packets delivered within the window.
    #[must_use]
    pub const fn packets(&self) -> u64 {
        self.latency.count()
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

/// What every flow that never recorded anything reads as.
static EMPTY: FlowMetrics = FlowMetrics::new();

/// Slot of a crosspoint with no [`FlowMetrics`] yet.
const NO_FLOW: u32 = u32::MAX;

/// Per-flow metrics of a `radix × radix` switch, sized by the flows that
/// recorded something: a `u32` slot per crosspoint indexes a dense table
/// holding one [`FlowMetrics`] per flow that has recorded since the
/// matrix was built. A flow that never recorded reads as one shared
/// empty record.
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
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MetricsMatrix {
    radix: usize,
    /// Row-major by (input, output): an index into `flows`, or [`NO_FLOW`].
    slots: Vec<u32>,
    flows: Vec<FlowMetrics>,
    /// The current window's start, given to each flow created in it.
    window_start: Cycle,
}

impl MetricsMatrix {
    /// Creates an empty matrix for a `radix × radix` switch.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero or its square does not fit a `u32` slot.
    #[must_use]
    pub fn new(radix: usize) -> Self {
        assert!(radix > 0, "radix must be positive");
        let crosspoints = radix.checked_mul(radix).filter(|&n| n < NO_FLOW as usize);
        let crosspoints = crosspoints.unwrap_or_else(|| panic!("radix {radix} too large"));
        MetricsMatrix {
            radix,
            slots: vec![NO_FLOW; crosspoints],
            flows: Vec::new(),
            window_start: Cycle::ZERO,
        }
    }

    /// The switch radix this matrix covers.
    #[must_use]
    pub const fn radix(&self) -> usize {
        self.radix
    }

    /// Flows holding a [`FlowMetrics`] of their own: those that have
    /// recorded since the matrix was built.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow has recorded since the matrix was built.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Latency bins the live flows hold, summed (see
    /// [`Histogram::allocated_bins`]).
    #[must_use]
    pub fn allocated_bins(&self) -> usize {
        self.flows.iter().map(|f| f.latency.allocated_bins()).sum()
    }

    /// Metrics for one flow; the shared empty record if it never recorded.
    ///
    /// # Panics
    ///
    /// Panics if the flow's port indices exceed the radix.
    #[must_use]
    pub fn flow(&self, flow: FlowId) -> &FlowMetrics {
        match self.slots[self.index(flow)] {
            NO_FLOW => &EMPTY,
            slot => &self.flows[slot as usize],
        }
    }

    /// Mutable metrics for one flow, created on first use with the
    /// current window's start.
    ///
    /// # Panics
    ///
    /// Panics if the flow's port indices exceed the radix.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "at most radix² < u32::MAX flows, asserted in new"
    )]
    pub fn flow_mut(&mut self, flow: FlowId) -> &mut FlowMetrics {
        let i = self.index(flow);
        if self.slots[i] == NO_FLOW {
            self.slots[i] = self.flows.len() as u32;
            self.flows.push(FlowMetrics {
                window_start: self.window_start,
                ..FlowMetrics::new()
            });
        }
        &mut self.flows[self.slots[i] as usize]
    }

    /// Starts the measurement window for every flow.
    pub fn start_window(&mut self, now: Cycle) {
        self.window_start = now;
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
        let mut m = FlowMetrics::new();
        m.record_delivery(Cycles::new(10), 8);
        m.record_delivery(Cycles::new(20), 8);
        assert_eq!(m.packets(), 2);
        assert_eq!(m.flits(), 16);
        assert!((m.mean_latency() - 15.0).abs() < 1e-12);
        assert_eq!(m.max_latency(), Some(20));
    }

    #[test]
    fn window_restart_clears() {
        let mut m = FlowMetrics::new();
        m.record_delivery(Cycles::new(10), 8);
        m.start_window(Cycle::new(100));
        assert_eq!(m.packets(), 0);
        assert_eq!(m.flits(), 0);
        assert_eq!(m.max_latency(), None);
    }

    #[test]
    fn throughput_uses_window() {
        let mut m = FlowMetrics::new();
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
        assert_eq!(m.len(), 9);
        for i in 0..3 {
            for o in 0..3 {
                assert_eq!(m.flow(flow(i, o)).packets(), 1, "({i}, {o})");
            }
        }
    }

    #[test]
    fn a_flow_that_never_recorded_reads_empty() {
        let mut m = MetricsMatrix::new(4);
        m.flow_mut(flow(2, 3)).record_delivery(Cycles::new(7), 4);
        let never = m.flow(flow(3, 2));
        assert_eq!(never.packets(), 0);
        assert_eq!(never.flits(), 0);
        assert_eq!(never.throughput(Cycle::new(1_000)), 0.0);
        assert_eq!(never.mean_latency(), 0.0);
        assert_eq!(never.max_latency(), None);
        assert_eq!(never.latency_percentile(99.0), None);
        // Reading creates nothing; only the one recording flow is held.
        assert_eq!(m.len(), 1);
        assert_eq!(MetricsMatrix::new(64).len(), 0);
        assert!(MetricsMatrix::new(64).is_empty());
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
        assert_eq!(m.flow(flow(1, 1)).max_latency(), None);
    }

    #[test]
    fn a_flow_created_after_the_window_opens_measures_from_its_start() {
        let mut m = MetricsMatrix::new(2);
        m.start_window(Cycle::new(100));
        m.flow_mut(flow(0, 1)).record_delivery(Cycles::new(3), 50);
        // 50 flits over the 100 cycles since the window opened, not 200.
        let thr = m.flow(flow(0, 1)).throughput(Cycle::new(200));
        assert!((thr - 0.5).abs() < 1e-12, "{thr}");
    }
}
