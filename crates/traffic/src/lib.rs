//! Workload generation for `swizzle-qos` simulations.
//!
//! The paper's experiments drive the switch with controlled injection
//! processes: Fig. 4 sweeps a Bernoulli injection rate from zero to one
//! flit/input/cycle; Fig. 5 uses saturated and *bursty* injection; the GL
//! experiments inject infrequent time-critical packets over a saturated
//! GB background. This crate provides those processes and the
//! destination patterns used to scale beyond a single output:
//!
//! * [`TrafficSource`] implementations: [`Bernoulli`],
//!   [`BimodalBernoulli`] (mixed packet sizes), [`Periodic`],
//!   [`OnOffBursty`], [`Saturating`], and [`Trace`] replay.
//! * [`DestinationPattern`] implementations: [`FixedDest`],
//!   [`UniformDest`], [`HotspotDest`], [`BitComplement`], [`Transpose`],
//!   and [`Shuffle`].
//! * [`Injector`]: one input port's traffic — a source, a pattern, a QoS
//!   class, and a packet length.
//! * [`ArrivalSchedule`]: a switch's injectors with their arrivals drawn
//!   64 cycles ahead, so a cycle visits only the injectors that are due.
//! * [`TraceFile`]: a diff-friendly text format for capturing and
//!   replaying whole workloads, convertible straight into injectors.
//! * [`Replay`]: a trace file checked for replay, then read into the
//!   arrival schedule a block at a time.
//!
//! All randomness is drawn from per-source seeded generators, so every
//! experiment is reproducible from its seed.
//!
//! # Examples
//!
//! ```
//! use ssq_traffic::{Bernoulli, FixedDest, Injector, TrafficSource};
//! use ssq_types::{Cycle, OutputId, TrafficClass};
//!
//! // A GB flow injecting 8-flit packets at 0.4 flits/cycle toward Out0.
//! let mut inj = Injector::new(
//!     Box::new(Bernoulli::new(0.4, 8, 42)),
//!     Box::new(FixedDest::new(OutputId::new(0))),
//!     TrafficClass::GuaranteedBandwidth,
//! );
//! let mut offered = 0u64;
//! for c in 0..10_000 {
//!     if let Some(p) = inj.poll(Cycle::new(c)) {
//!         offered += p.len_flits;
//!     }
//! }
//! let rate = offered as f64 / 10_000.0;
//! assert!((rate - 0.4).abs() < 0.05, "measured {rate}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

mod injector;
mod pattern;
mod replay;
mod source;
mod trace_file;

pub use injector::{ArrivalSchedule, Injector, PacketIntent};
pub use pattern::{
    BitComplement, DestinationPattern, FixedDest, HotspotDest, Shuffle, Transpose, UniformDest,
};
pub use replay::Replay;
pub use source::{
    Bernoulli, BimodalBernoulli, OnOffBursty, Periodic, Saturating, Trace, TrafficSource,
};
pub use trace_file::{ParseTraceError, TraceEvent, TraceFile};
