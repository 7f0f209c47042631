//! Common vocabulary types for the `swizzle-qos` workspace.
//!
//! This crate defines the identifiers, units, traffic classes, and switch
//! geometry shared by every other crate in the reproduction of
//! *Quality-of-Service for a High-Radix Switch* (Abeyratne et al., DAC 2014).
//!
//! Everything here is deliberately small and dependency-free: newtypes such
//! as [`Cycle`], [`Rate`], [`InputId`], and [`OutputId`] exist so that the
//! arbitration, traffic, and switch crates cannot accidentally confuse a
//! port index with a lane index or a point in time with a duration.
//!
//! Two leaf modules hold shared mathematics rather than vocabulary:
//! [`bounds`] is the single implementation of the paper's Eq. 1–3
//! guaranteed-latency formulas, and [`invariant`] is the V1–V6 predicate
//! catalog compiled into both the `ssq-verify` model checker and
//! `ssq-core`'s `sanitizer` feature.
//!
//! # Examples
//!
//! ```
//! use ssq_types::{Geometry, TrafficClass, Rate};
//!
//! # fn main() -> Result<(), ssq_types::GeometryError> {
//! // The paper's flagship configuration: a radix-64 switch with 256-bit
//! // output channels, which is the smallest bus that supports all three
//! // QoS classes at that radix (paper §4.4).
//! let geom = Geometry::new(64, 256)?;
//! assert_eq!(geom.num_lanes(), 4);
//! assert!(geom.supports_classes(3));
//!
//! let r = Rate::new(0.4).expect("valid fraction");
//! assert!(r.value() > 0.0);
//! assert_eq!(TrafficClass::GuaranteedLatency.priority(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod bounds;
mod class;
mod error;
mod geometry;
mod ids;
pub mod invariant;
mod packet;
pub mod rng;
mod units;

pub use class::TrafficClass;
pub use error::{GeometryError, RateError};
pub use geometry::Geometry;
pub use ids::{FlowId, InputId, OutputId, PacketId};
pub use packet::{PacketSpec, MAX_PACKET_FLITS};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use units::{Cycle, Cycles, Rate};
