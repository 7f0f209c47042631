//! Input-port buffering: one BE queue, per-output GB virtual queues, and
//! one GL queue (the buffering organization of Table 1).

use std::collections::VecDeque;

use ssq_types::{InputId, OutputId, TrafficClass};

use crate::packet::Packet;

/// A flit-accounted FIFO of packets.
#[derive(Debug, Clone, Default)]
struct ClassQueue {
    capacity_flits: u64,
    used_flits: u64,
    packets: VecDeque<Packet>,
}

impl ClassQueue {
    fn new(capacity_flits: u64) -> Self {
        ClassQueue {
            capacity_flits,
            used_flits: 0,
            packets: VecDeque::new(),
        }
    }

    fn free_flits(&self) -> u64 {
        // `used <= capacity` is a `push`-maintained invariant, so the
        // subtraction is exact.
        self.capacity_flits.saturating_sub(self.used_flits)
    }

    fn has_room(&self, len_flits: u64) -> bool {
        // Overflow-free form of `used + len <= capacity`.
        len_flits <= self.free_flits()
    }

    fn push(&mut self, packet: Packet) -> bool {
        if !self.has_room(packet.spec().len_flits()) {
            return false;
        }
        self.used_flits = self.used_flits.saturating_add(packet.spec().len_flits());
        self.packets.push_back(packet);
        true
    }

    fn head(&self) -> Option<&Packet> {
        self.packets.front()
    }

    /// Frees the buffer slots of `n` flits the head packet has moved.
    fn drain(&mut self, n: u64) {
        // The head holds at least `n` of the used flits (the output's
        // transmit interval asserts it); saturating keeps it total.
        self.used_flits = self.used_flits.saturating_sub(n);
    }
}

/// One input port of the switch with its per-class buffering:
///
/// * a single **BE** FIFO (4 flits in Table 1),
/// * one **GB** virtual output queue per output ("GB 4 flits/out" —
///   per-flow separation is what lets the crosspoint `auxVC` state track
///   exactly one flow),
/// * a single **GL** FIFO ("GL class packets should be buffered
///   separately from GB class packets", §3.2).
///
/// The port holds queues only. Which outputs its heads request lives in
/// the switch's per-output request rows, and whether its link is up in
/// the switch's live-links word.
#[derive(Debug, Clone)]
pub(crate) struct InputPort {
    input: InputId,
    /// One shared FIFO (length 1) or per-output virtual queues (length
    /// `radix`) — see [`InputPort::with_be_voq`].
    be: Vec<ClassQueue>,
    gb: Vec<ClassQueue>,
    gl: ClassQueue,
}

impl InputPort {
    /// Creates a port for `input` on a switch with `radix` outputs and
    /// the given buffer depths in flits.
    #[must_use]
    pub fn new(
        input: InputId,
        radix: usize,
        be_buffer_flits: u64,
        gb_buffer_flits: u64,
        gl_buffer_flits: u64,
    ) -> Self {
        InputPort {
            input,
            be: vec![ClassQueue::new(be_buffer_flits)],
            gb: (0..radix)
                .map(|_| ClassQueue::new(gb_buffer_flits))
                .collect(),
            gl: ClassQueue::new(gl_buffer_flits),
        }
    }

    /// Replaces the shared BE FIFO with per-output virtual queues of the
    /// same per-queue depth, eliminating BE head-of-line blocking at the
    /// cost of `radix ×` the BE buffering (an ablation beyond the
    /// paper's Table 1 organization).
    #[must_use]
    pub fn with_be_voq(mut self, radix: usize, be_buffer_flits: u64) -> Self {
        self.be = (0..radix)
            .map(|_| ClassQueue::new(be_buffer_flits))
            .collect();
        self
    }

    /// Unoccupied flit slots of the queue a `class` packet headed to
    /// `output` would join. Only [`InputPort::drain_head`] raises it, by
    /// the flits it moves.
    #[must_use]
    pub fn free_flits(&self, class: TrafficClass, output: OutputId) -> u64 {
        self.queue(class, output).free_flits()
    }

    /// Enqueues a packet into its class queue. Returns `false` (dropping
    /// the packet) if the buffer lacks space.
    pub fn try_enqueue(&mut self, packet: Packet) -> bool {
        let class = packet.spec().class();
        let output = packet.spec().flow().output();
        self.queue_mut(class, output).push(packet)
    }

    /// The head packet of `class` that is requesting `output`, if any.
    ///
    /// For the single-FIFO classes (BE, GL) only the head's own
    /// destination is requested — the head-of-line blocking a real shared
    /// FIFO exhibits.
    #[must_use]
    pub fn head(&self, class: TrafficClass, output: OutputId) -> Option<&Packet> {
        let q = self.queue(class, output);
        q.head().filter(|p| p.spec().flow().output() == output)
    }

    /// The destination of the front packet in the queue a `class`
    /// packet headed to `output` would join, if the queue holds one:
    /// `output` itself for a virtual queue, any output for a shared FIFO.
    #[must_use]
    pub fn front(&self, class: TrafficClass, output: OutputId) -> Option<OutputId> {
        let q = self.queue(class, output);
        q.head().map(|p| p.spec().flow().output())
    }

    /// Frees the buffer slots of `n` flits the committed head packet has
    /// moved. The packet stays the head until [`InputPort::pop_head`].
    ///
    /// # Panics
    ///
    /// Panics if there is no matching head packet — the channel committed
    /// to a queue that does not hold one, which is a scheduling bug.
    pub fn drain_head(&mut self, class: TrafficClass, output: OutputId, n: u64) {
        assert!(
            self.head(class, output).is_some(),
            "no {class} head for {output} at {}",
            self.input
        );
        self.queue_mut(class, output).drain(n);
    }

    /// Removes the committed head packet once its last flit has left
    /// (every flit already drained by [`InputPort::drain_head`]).
    pub fn pop_head(&mut self, class: TrafficClass, output: OutputId) -> Option<Packet> {
        self.head(class, output)?;
        self.queue_mut(class, output).packets.pop_front()
    }

    /// Whether `class` packets headed to `a` and to `b` share one queue:
    /// always for the single-FIFO classes, only for `a == b` for the
    /// virtual-queue ones.
    #[must_use]
    pub fn shares_queue(&self, class: TrafficClass, a: OutputId, b: OutputId) -> bool {
        match class {
            TrafficClass::GuaranteedBandwidth => a == b,
            TrafficClass::BestEffort => self.be_index(a) == self.be_index(b),
            TrafficClass::GuaranteedLatency => true,
        }
    }

    /// Total flits buffered at this port across all classes and outputs.
    #[must_use]
    pub fn total_occupancy(&self) -> u64 {
        self.be.iter().map(|q| q.used_flits).sum::<u64>()
            + self.gl.used_flits
            + self.gb.iter().map(|q| q.used_flits).sum::<u64>()
    }

    fn be_index(&self, output: OutputId) -> usize {
        if self.be.len() == 1 {
            0
        } else {
            output.index()
        }
    }

    fn queue(&self, class: TrafficClass, output: OutputId) -> &ClassQueue {
        match class {
            TrafficClass::BestEffort => &self.be[self.be_index(output)],
            TrafficClass::GuaranteedBandwidth => &self.gb[output.index()],
            TrafficClass::GuaranteedLatency => &self.gl,
        }
    }

    fn queue_mut(&mut self, class: TrafficClass, output: OutputId) -> &mut ClassQueue {
        match class {
            TrafficClass::BestEffort => {
                let idx = self.be_index(output);
                &mut self.be[idx]
            }
            TrafficClass::GuaranteedBandwidth => &mut self.gb[output.index()],
            TrafficClass::GuaranteedLatency => &mut self.gl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_types::{Cycle, FlowId, PacketId, PacketSpec};

    fn make(id: u64, class: TrafficClass, output: usize, len: u64) -> Packet {
        Packet::new(
            PacketSpec::new(
                PacketId::new(id),
                FlowId::new(InputId::new(0), OutputId::new(output)),
                class,
                len,
                Cycle::ZERO,
            ),
            Cycle::ZERO,
        )
    }

    fn port() -> InputPort {
        InputPort::new(InputId::new(0), 4, 4, 8, 4)
    }

    #[test]
    fn gb_queues_are_per_output() {
        let mut p = port();
        assert!(p.try_enqueue(make(0, TrafficClass::GuaranteedBandwidth, 1, 8)));
        assert!(p.try_enqueue(make(1, TrafficClass::GuaranteedBandwidth, 2, 8)));
        // Each VOQ holds 8 flits; both fit despite 16 flits total.
        assert!(p
            .head(TrafficClass::GuaranteedBandwidth, OutputId::new(1))
            .is_some());
        assert!(p
            .head(TrafficClass::GuaranteedBandwidth, OutputId::new(2))
            .is_some());
        assert!(p
            .head(TrafficClass::GuaranteedBandwidth, OutputId::new(3))
            .is_none());
    }

    #[test]
    fn full_buffer_rejects() {
        let mut p = port();
        assert!(p.try_enqueue(make(0, TrafficClass::GuaranteedBandwidth, 0, 8)));
        assert!(!p.try_enqueue(make(1, TrafficClass::GuaranteedBandwidth, 0, 1)));
        assert_eq!(
            p.free_flits(TrafficClass::GuaranteedBandwidth, OutputId::new(0)),
            0
        );
    }

    #[test]
    fn be_fifo_exhibits_head_of_line_blocking() {
        let mut p = port();
        assert!(p.try_enqueue(make(0, TrafficClass::BestEffort, 1, 2)));
        assert!(p.try_enqueue(make(1, TrafficClass::BestEffort, 2, 2)));
        // The head targets output 1, so output 2 sees no BE request even
        // though a packet for it is queued behind.
        assert!(p.head(TrafficClass::BestEffort, OutputId::new(1)).is_some());
        assert!(p.head(TrafficClass::BestEffort, OutputId::new(2)).is_none());
    }

    #[test]
    fn transmission_frees_space_per_flit() {
        let mut p = port();
        let (gl, out) = (TrafficClass::GuaranteedLatency, OutputId::new(0));
        assert!(p.try_enqueue(make(0, gl, 0, 4)));
        assert_eq!(p.free_flits(gl, out), 0);
        p.drain_head(gl, out, 1);
        // One flit freed mid-packet; the packet is still the head.
        assert_eq!(p.free_flits(gl, out), 1);
        assert!(p.head(gl, out).is_some());
        // Two more at once.
        p.drain_head(gl, out, 2);
        assert_eq!(p.free_flits(gl, out), 3);
        p.drain_head(gl, out, 1);
        let done = p.pop_head(gl, out).expect("the drained head pops");
        assert_eq!(done.spec().id(), PacketId::new(0));
        assert_eq!(p.free_flits(gl, out), 4);
        assert!(p.pop_head(gl, out).is_none());
    }

    #[test]
    #[should_panic(expected = "no GL head")]
    fn transmitting_from_empty_queue_is_a_bug() {
        let mut p = port();
        p.drain_head(TrafficClass::GuaranteedLatency, OutputId::new(0), 1);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut p = port();
        assert!(p.try_enqueue(make(10, TrafficClass::GuaranteedBandwidth, 0, 2)));
        assert!(p.try_enqueue(make(11, TrafficClass::GuaranteedBandwidth, 0, 2)));
        let head = p
            .head(TrafficClass::GuaranteedBandwidth, OutputId::new(0))
            .unwrap();
        assert_eq!(head.spec().id(), PacketId::new(10));
    }
}
