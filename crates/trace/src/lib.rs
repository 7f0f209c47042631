//! # ssq-trace
//!
//! Zero-overhead-when-off observability for the swizzle-qos switch
//! core: structured event tracing, a sampled metrics registry, and a
//! flight recorder for post-mortems.
//!
//! The paper's claims (single-cycle SSVC+LRG arbitration, latency
//! fairness under the three counter policies, the Eq. 1 GL bound) are
//! per-cycle, per-flow phenomena. This crate makes them observable:
//!
//! * [`Event`] / [`EventKind`] — the taxonomy (DESIGN.md §6): one event
//!   per arbitration decision, grant, inhibit, `auxVC` update /
//!   saturation, decay epoch, GL policing stall, packet chaining, and
//!   admission rejection, with a stable JSONL wire format.
//! * [`TraceSink`] — consumers: [`NullSink`] (deleted by the
//!   optimizer), [`RingSink`] (bounded flight recorder), [`JsonlSink`]
//!   (streaming writer).
//! * [`Tracer`] — the front end instrumented code holds. With no sink
//!   attached, [`Tracer::emit`] costs one predictable branch and the
//!   event-building closure never runs — the microbench in
//!   `crates/bench` pins this at ≤1% of the arbitration hot loop.
//! * [`MetricsRegistry`] — named counters/gauges/histograms built on
//!   `ssq-stats`, snapshotted on a cycle interval into a time series
//!   rendering to text/CSV/JSON.
//! * [`flight`] — post-mortem rendering: trip reason + last N events +
//!   metrics snapshot, written under `results/`.
//! * [`TraceSummary`] — one-pass JSONL summarization backing the
//!   `ssq trace-report` subcommand.

pub mod event;
pub mod flight;
pub mod metrics;
pub mod report;
pub mod sink;

pub use event::{Event, EventKind, ParseError, RejectReason};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use report::{FlowGrants, TraceSummary};
pub use sink::{BoxedWriter, JsonlSink, NullSink, RingSink, TraceSink, Tracer};
