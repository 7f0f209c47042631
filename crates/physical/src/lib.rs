//! Storage, area, and timing models of the Swizzle Switch with SSVC QoS
//! (paper §4.5, Tables 1 and 2).
//!
//! The paper's physical evaluation rests on a fabricated 32 nm Swizzle
//! Switch and SPICE-extracted wire delays, neither of which a software
//! reproduction can rerun. Per the substitution policy in `DESIGN.md`,
//! this crate models the same quantities analytically:
//!
//! * [`StorageModel`] — byte-exact accounting of input-port buffering and
//!   per-crosspoint SSVC state (`auxVC`, thermometer code, `Vtick`, LRG
//!   row). Reproduces Table 1 exactly: 1056 KiB of buffering plus 45 KiB
//!   of crosspoint state ≈ 1101 KiB for a 64×64 switch with 512-bit
//!   buses.
//! * [`AreaModel`] — the crosspoint-area overhead of the SSVC logic: ~2 %
//!   at 128-bit channels (the paper's "equivalent to the area of a
//!   131-bit channel"), zero at 256/512 bits where the wider crosspoint
//!   already has room.
//! * [`DelayModel`] — an Elmore-style arbitration critical path
//!   (precharged bitline spanning `radix` rows, row wiring spanning the
//!   bus width, and — for SSVC — the lane-select multiplexer before the
//!   sense amp, depth `log2(lanes)`). Calibrated so the unmodified
//!   64×64/128-bit switch lands at the published 1.5 GHz and the worst
//!   SSVC slowdown is 8.4 % at (8×8, 256-bit), then used to regenerate
//!   Table 2's shape.
//! * [`PowerModel`] — aggregate bandwidth (Tb/s) and first-order power,
//!   calibrated to the fabricated switch's 3.4 Tb/s/W (ISSCC'12, the
//!   paper's ref \[15]).
//! * [`elmore`] — the distributed-RC delay estimate underlying the wire
//!   terms.
//!
//! # Examples
//!
//! ```
//! use ssq_physical::StorageModel;
//! use ssq_types::Geometry;
//!
//! let table1 = StorageModel::paper_table1();
//! assert_eq!(table1.total_buffering_bytes() / 1024, 1056);
//! assert_eq!(table1.total_crosspoint_bytes() / 1024, 45);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

mod area;
mod delay;
pub mod elmore;
mod power;
mod storage;

pub use area::AreaModel;
pub use delay::{DelayModel, TABLE2_RADICES, TABLE2_WIDTHS};
pub use power::PowerModel;
pub use storage::StorageModel;
