//! Bit-level model of the Swizzle Switch's inhibit-based arbitration
//! fabric, extended with the SSVC QoS circuits of the paper.
//!
//! The Swizzle Switch reuses the bitlines of each output data bus to
//! perform switch arbitration: at the start of an arbitration cycle a
//! subset of bitlines is precharged; requesting inputs then *discharge*
//! the bitlines they have priority over, inhibiting lower-priority
//! inputs; finally each input senses a single wire and wins iff that wire
//! is still charged (paper §3.1, Fig. 1).
//!
//! This crate models that fabric one wire at a time:
//!
//! * [`Bitlines`] — the precharged wire array, one [`Wire`] per bitline,
//!   grouped into lanes of `radix` wires.
//! * [`discharge_decision`] — the two-adjacent-thermometer-bit circuit of
//!   Fig. 1(b) that decides, per lane, whether an input discharges
//!   everything (strictly higher priority), nothing (strictly lower), or
//!   its LRG row (tie lane).
//! * [`gl_discharge_override`] — the Fig. 3 modification: a GL request
//!   discharges every GB lane outright and competes by LRG within the
//!   dedicated GL lane.
//! * [`ThermometerRegister`] — the unary shift register of Fig. 2 that
//!   tracks the counter's significant bits incrementally (shift up on an
//!   MSB change, shift down on a real-time epoch, halve/reset per the
//!   counter-management policies).
//! * [`InhibitFabric`] — wires it all together and reports the winner the
//!   sense amps would observe.
//!
//! The paper verified its circuit "with all input combinations of
//! thermometer code vectors and valid LRG states", comparing each
//! decision against a true `auxVC` comparison (§4.1). The tests in this
//! crate replicate that: exhaustive equivalence against
//! [`ssq_arbiter::SsvcArbiter::peek`] at small radices and
//! property-based equivalence at radix 64.
//!
//! # Examples
//!
//! ```
//! use ssq_circuit::{CircuitConfig, InhibitFabric, PortRequest};
//! use ssq_arbiter::Lrg;
//!
//! // Fig. 1: an 8-input switch with 8 GB lanes (64-bit bus), no GL lane.
//! let fabric = InhibitFabric::new(CircuitConfig::new(8, 8, false));
//! let lrg = Lrg::new(8);
//! let mut ports = vec![PortRequest::Idle; 8];
//! for (i, msb) in [(0, 6), (1, 6), (2, 4), (5, 4), (6, 4)] {
//!     ports[i] = PortRequest::Gb { msb_value: msb };
//! }
//! let outcome = fabric.arbitrate(&ports, &lrg, &lrg);
//! // In2 wins: smallest thermometer code, highest LRG priority in the tie.
//! assert_eq!(outcome.winner(), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )
)]

mod bitline;
mod decision;
mod fabric;
mod thermometer;

pub use bitline::{Bitlines, Wire};
pub use decision::{discharge_decision, gl_discharge_override, LaneDecision};
pub use fabric::{
    ArbitrationOutcome, CircuitConfig, InhibitFabric, PortRequest, StuckWire, WinnerClass,
};
pub use thermometer::ThermometerRegister;
