//! Measurement toolkit for `swizzle-qos` experiments.
//!
//! The paper's evaluation (§4) reports accepted throughput per flow
//! (Fig. 4), average packet latency and its variance across bandwidth
//! allocations (Fig. 5), adherence to reserved rates ("within 2 % of their
//! reserved rates"), and worst-case GL waiting times (Eq. 1). This crate
//! provides the instruments those experiments need:
//!
//! * [`Counter`] — monotonically increasing event counts.
//! * [`RunningStats`] — streaming mean/variance/min/max (Welford).
//! * [`Histogram`] — fixed-bin latency histograms with percentiles.
//! * [`ThroughputMeter`] — flits delivered per cycle over a window.
//! * [`FlowMetrics`] / [`MetricsMatrix`] — per-flow accounting.
//! * [`jain_fairness_index`] and [`min_over_max`] — fairness summaries.
//! * [`TimeSeries`] — windowed means over simulated time (convergence
//!   and transient views).
//! * [`Table`] and [`Series`] — plain-text and CSV rendering of the rows
//!   and series each paper figure/table reports.
//!
//! # Examples
//!
//! ```
//! use ssq_stats::{Histogram, RunningStats};
//!
//! let mut lat = Histogram::new(10, 64);
//! let mut stats = RunningStats::new();
//! for sample in [12, 18, 25, 90] {
//!     lat.record(sample);
//!     stats.push(sample as f64);
//! }
//! assert_eq!(lat.count(), 4);
//! assert!((stats.mean() - 36.25).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::cast_possible_truncation
    )
)]

mod counter;
mod fairness;
mod flow;
mod histogram;
mod running;
mod series;
mod table;
mod throughput;
mod timeseries;

pub use counter::Counter;
pub use fairness::{jain_fairness_index, min_over_max};
pub use flow::{FlowMetrics, MetricsMatrix};
pub use histogram::Histogram;
pub use running::RunningStats;
pub use series::{Figure, Series};
pub use table::{Align, Table};
pub use throughput::ThroughputMeter;
pub use timeseries::TimeSeries;
