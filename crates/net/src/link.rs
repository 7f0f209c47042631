//! Links between fabric nodes: latency, capacity, a bounded queue, and
//! one of three loss disciplines.
//!
//! A [`LinkSpec`] joins an output port of one node's switch to an input
//! port of another. Packets launched onto the wire serialize at
//! `capacity` flits per cycle, fly for `latency` cycles, and land in a
//! downstream queue of `queue_depth` packets, from which the fabric
//! offers them to the downstream switch one per cycle. What happens when
//! the queue is full, the downstream switch refuses, or the wire is dead
//! is the link's [`LinkDiscipline`], applied by the fabric's one loss
//! rule:
//!
//! * **Credit** — PFC-style backpressure: launches pause while the
//!   downstream queue (plus the wire) holds `queue_depth` packets, so
//!   nothing is ever lost to overflow. `credit_pause`/`credit_resume`
//!   trace events bracket each pause window.
//! * **Lossy** — overflow and dead-wire packets are dropped with a
//!   per-flow loss account and a `drop` trace event.
//! * **Nack** — dropped packets are retransmitted from the upstream
//!   copy under a shared [`BackoffPolicy`] (exponential backoff, seeded
//!   jitter); budget exhaustion escalates to an explicit loud drop.

use crate::backoff::BackoffPolicy;

/// What a link does with packets it cannot deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDiscipline {
    /// Credit/PFC backpressure: pause upstream launches when the
    /// downstream queue is full; lossless except for explicit
    /// revocation flushes on a killed wire.
    Credit,
    /// Drop on overflow or dead wire, with per-flow loss accounting.
    Lossy,
    /// Drop plus bounded retransmission under the given backoff policy.
    Nack(BackoffPolicy),
}

impl LinkDiscipline {
    /// Stable label used in reports.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            LinkDiscipline::Credit => "credit",
            LinkDiscipline::Lossy => "lossy",
            LinkDiscipline::Nack(_) => "nack",
        }
    }
}

/// One directed link of the topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Upstream node index.
    pub src: usize,
    /// Output port of the upstream node's switch this link drains.
    pub src_port: usize,
    /// Downstream node index.
    pub dst: usize,
    /// Input port of the downstream node's switch this link feeds.
    pub dst_port: usize,
    /// Wire latency in cycles (packets arrive `latency` cycles after
    /// their last flit is serialized).
    pub latency: u64,
    /// Wire capacity in flits per cycle (serialization rate).
    pub capacity: u64,
    /// Downstream queue depth in packets; also the credit pool of the
    /// `Credit` discipline.
    pub queue_depth: usize,
    /// The link's loss discipline.
    pub discipline: LinkDiscipline,
}

impl LinkSpec {
    /// A 1-cycle, 8-flits/cycle link with an 8-packet queue — the
    /// default hop used by the topology builders.
    #[must_use]
    pub fn new(src: usize, src_port: usize, dst: usize, dst_port: usize) -> Self {
        LinkSpec {
            src,
            src_port,
            dst,
            dst_port,
            latency: 1,
            capacity: 8,
            queue_depth: 8,
            discipline: LinkDiscipline::Credit,
        }
    }

    /// Sets the wire latency.
    #[must_use]
    pub fn latency(mut self, cycles: u64) -> Self {
        self.latency = cycles;
        self
    }

    /// Sets the serialization capacity in flits per cycle.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity (the wire could never move a flit).
    #[must_use]
    pub fn capacity(mut self, flits_per_cycle: u64) -> Self {
        assert!(flits_per_cycle > 0, "link capacity must be positive");
        self.capacity = flits_per_cycle;
        self
    }

    /// Sets the downstream queue depth in packets.
    ///
    /// # Panics
    ///
    /// Panics on a zero depth (nothing could ever arrive).
    #[must_use]
    pub fn queue_depth(mut self, packets: usize) -> Self {
        assert!(packets > 0, "link queue depth must be positive");
        self.queue_depth = packets;
        self
    }

    /// Sets the loss discipline.
    #[must_use]
    pub fn discipline(mut self, discipline: LinkDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Cycles the wire is busy serializing one packet of `len` flits.
    #[must_use]
    pub fn serialize_cycles(&self, len_flits: u64) -> u64 {
        len_flits.div_ceil(self.capacity).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_rounds_up_and_never_hits_zero() {
        let link = LinkSpec::new(0, 0, 1, 0).capacity(8);
        assert_eq!(link.serialize_cycles(8), 1);
        assert_eq!(link.serialize_cycles(9), 2);
        assert_eq!(link.serialize_cycles(1), 1);
        let wide = LinkSpec::new(0, 0, 1, 0).capacity(64);
        assert_eq!(wide.serialize_cycles(8), 1);
    }

    #[test]
    fn discipline_labels_are_stable() {
        assert_eq!(LinkDiscipline::Credit.label(), "credit");
        assert_eq!(LinkDiscipline::Lossy.label(), "lossy");
        assert_eq!(
            LinkDiscipline::Nack(BackoffPolicy::exponential(3, 0, 1, 0)).label(),
            "nack"
        );
    }
}
