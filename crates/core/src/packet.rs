//! In-flight packet state.

#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::arithmetic_side_effects)
)]

use std::fmt;

use ssq_types::{Cycle, Cycles, PacketSpec};

/// A packet inside the switch: its immutable [`PacketSpec`] plus transit
/// state (flits still to transmit, and when it reached the head of its
/// queue — the start of the "waiting at the switch" interval bounded by
/// Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    spec: PacketSpec,
    remaining_flits: u64,
    enqueued: Cycle,
}

impl Packet {
    /// Wraps a freshly injected packet, recording its enqueue time.
    #[must_use]
    pub fn new(spec: PacketSpec, enqueued: Cycle) -> Self {
        Packet {
            spec,
            remaining_flits: spec.len_flits(),
            enqueued,
        }
    }

    /// The immutable injection-time description.
    #[must_use]
    pub const fn spec(&self) -> PacketSpec {
        self.spec
    }

    /// Flits not yet transmitted.
    #[must_use]
    pub const fn remaining_flits(&self) -> u64 {
        self.remaining_flits
    }

    /// When the packet entered its input-port queue.
    #[must_use]
    pub const fn enqueued(&self) -> Cycle {
        self.enqueued
    }

    /// Time spent queued at the switch so far.
    #[must_use]
    pub fn waiting_time(&self, now: Cycle) -> Cycles {
        now.saturating_since(self.enqueued)
    }

    /// Transmits one flit; returns `true` when the packet completes.
    ///
    /// # Panics
    ///
    /// Panics if called after the packet already completed.
    pub fn transmit_flit(&mut self) -> bool {
        assert!(self.remaining_flits > 0, "packet already fully transmitted");
        self.remaining_flits = self.remaining_flits.saturating_sub(1);
        self.remaining_flits == 0
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} flits left)", self.spec, self.remaining_flits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_types::{FlowId, InputId, OutputId, PacketId, TrafficClass};

    fn packet(len: u64) -> Packet {
        Packet::new(
            PacketSpec::new(
                PacketId::new(0),
                FlowId::new(InputId::new(0), OutputId::new(0)),
                TrafficClass::GuaranteedBandwidth,
                len,
                Cycle::new(10),
            ),
            Cycle::new(12),
        )
    }

    #[test]
    fn transmission_drains_flits() {
        let mut p = packet(3);
        assert!(!p.transmit_flit());
        assert!(!p.transmit_flit());
        assert!(p.transmit_flit());
        assert_eq!(p.remaining_flits(), 0);
    }

    #[test]
    #[should_panic(expected = "already fully transmitted")]
    fn over_transmission_panics() {
        let mut p = packet(1);
        let _ = p.transmit_flit();
        let _ = p.transmit_flit();
    }

    #[test]
    fn waiting_time_counts_from_enqueue() {
        let p = packet(8);
        assert_eq!(p.waiting_time(Cycle::new(20)), Cycles::new(8));
        assert_eq!(p.waiting_time(Cycle::new(5)), Cycles::ZERO);
    }

    #[test]
    fn spec_is_preserved() {
        let p = packet(8);
        assert_eq!(p.spec().len_flits(), 8);
        assert_eq!(p.spec().created(), Cycle::new(10));
        assert_eq!(p.enqueued(), Cycle::new(12));
    }
}
