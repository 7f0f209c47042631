//! Input-port buffering: one BE queue, per-output GB virtual queues, and
//! one GL queue (the buffering organization of Table 1).

use std::collections::VecDeque;
use std::fmt;

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
/// # Examples
///
/// ```
/// use ssq_core::{InputPort, Packet};
/// use ssq_types::*;
///
/// let mut port = InputPort::new(InputId::new(0), 4, 4, 16, 4);
/// let spec = PacketSpec::new(
///     PacketId::new(0),
///     FlowId::new(InputId::new(0), OutputId::new(2)),
///     TrafficClass::GuaranteedBandwidth,
///     8,
///     Cycle::ZERO,
/// );
/// assert!(port.try_enqueue(Packet::new(spec, Cycle::ZERO)));
/// assert!(port
///     .head(TrafficClass::GuaranteedBandwidth, OutputId::new(2))
///     .is_some());
/// ```
#[derive(Debug, Clone)]
pub struct InputPort {
    input: InputId,
    /// One shared FIFO (length 1) or per-output virtual queues (length
    /// `radix`) — see [`InputPort::with_be_voq`].
    be: Vec<ClassQueue>,
    gb: Vec<ClassQueue>,
    gl: ClassQueue,
    /// Request word for the GB VOQs: bit `o` ⇔ `gb[o]` holds a packet.
    /// Maintained incrementally at the two queue mutation points so the
    /// bitpar engine reads per-port requests in O(1) instead of probing
    /// `radix` queue heads.
    gb_bits: u64,
    /// Same for BE when running per-output virtual queues; unused (0) in
    /// the single-FIFO organization, where the request word is the head
    /// packet's destination bit.
    be_bits: u64,
    /// Link state of the input channel. `false` models a downed (or
    /// currently-flapped-down) link: buffered packets stay put, but the
    /// port neither accepts new packets nor requests arbitration. The
    /// switch flips this only through its fault API, which emits the
    /// matching trace events.
    link_up: bool,
}

impl InputPort {
    /// Creates a port for `input` on a switch with `radix` outputs and
    /// the given buffer depths in flits.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero or exceeds 64 (the paper's high-radix
    /// ceiling, and the word width the request bitmaps rely on).
    #[must_use]
    pub fn new(
        input: InputId,
        radix: usize,
        be_buffer_flits: u64,
        gb_buffer_flits: u64,
        gl_buffer_flits: u64,
    ) -> Self {
        assert!(radix > 0, "radix must be positive");
        assert!(
            radix <= 64,
            "radix {radix} exceeds the paper's 64-port ceiling"
        );
        InputPort {
            input,
            be: vec![ClassQueue::new(be_buffer_flits)],
            gb: (0..radix)
                .map(|_| ClassQueue::new(gb_buffer_flits))
                .collect(),
            gl: ClassQueue::new(gl_buffer_flits),
            gb_bits: 0,
            be_bits: 0,
            link_up: true,
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
        self.be_bits = 0;
        self
    }

    /// The port's input id.
    #[must_use]
    pub const fn input(&self) -> InputId {
        self.input
    }

    /// Whether the input link is up. Ports start up; only the fault
    /// layer takes a link down (or back up).
    #[must_use]
    pub const fn is_link_up(&self) -> bool {
        self.link_up
    }

    /// Forces the link state — the port-level half of the link-down /
    /// flapping fault model. Buffered packets are retained either way;
    /// a downed link just stops admitting and requesting. Callers are
    /// responsible for tracing the transition (the switch's fault API
    /// does).
    pub fn fault_set_link(&mut self, up: bool) {
        self.link_up = up;
    }

    /// Whether a packet of `len_flits` flits of `class` headed to
    /// `output` would fit right now.
    #[must_use]
    pub fn has_room(&self, class: TrafficClass, output: OutputId, len_flits: u64) -> bool {
        self.queue(class, output).has_room(len_flits)
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
        let accepted = self.queue_mut(class, output).push(packet);
        if accepted {
            self.refresh_bit(class, output);
        }
        accepted
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
        let done = self.queue_mut(class, output).packets.pop_front();
        // Only a pop can change which head (if any) the queue presents;
        // a flit leaving mid-packet cannot.
        self.refresh_bit(class, output);
        done
    }

    /// The per-output request word of `class`: bit `o` set iff
    /// [`InputPort::head`]`(class, OutputId::new(o))` is `Some`. For the
    /// virtual-queue classes this reads the incrementally maintained
    /// word; for the single-FIFO classes it is the head packet's
    /// destination bit (head-of-line blocking makes the word one-hot).
    #[must_use]
    pub fn request_bits(&self, class: TrafficClass) -> u64 {
        match class {
            TrafficClass::GuaranteedBandwidth => self.gb_bits,
            TrafficClass::BestEffort if self.be.len() > 1 => self.be_bits,
            // `new` always allocates at least one BE queue.
            TrafficClass::BestEffort => Self::front_bit(&self.be[0]),
            TrafficClass::GuaranteedLatency => Self::front_bit(&self.gl),
        }
    }

    fn front_bit(q: &ClassQueue) -> u64 {
        match q.head() {
            // Output index < radix ≤ 64 (asserted in `new`).
            Some(p) => 1u64 << p.spec().flow().output().index(),
            None => 0,
        }
    }

    /// Re-derives the request bit of one `(class, output)` queue after a
    /// mutation. Only the virtual-queue words carry state; the
    /// single-FIFO words are computed on demand.
    fn refresh_bit(&mut self, class: TrafficClass, output: OutputId) {
        let o = output.index();
        // Output index < radix ≤ 64 (asserted in `new`).
        let bit = 1u64 << o;
        match class {
            TrafficClass::GuaranteedBandwidth => {
                if self.gb[o].head().is_some() {
                    self.gb_bits |= bit;
                } else {
                    self.gb_bits &= !bit;
                }
            }
            TrafficClass::BestEffort if self.be.len() > 1 => {
                if self.be[o].head().is_some() {
                    self.be_bits |= bit;
                } else {
                    self.be_bits &= !bit;
                }
            }
            TrafficClass::BestEffort | TrafficClass::GuaranteedLatency => {}
        }
    }

    /// Whether `class` packets headed to `a` and to `b` share one queue:
    /// always for the single-FIFO classes, only for `a == b` for the
    /// virtual-queue ones.
    #[must_use]
    pub(crate) fn shares_queue(&self, class: TrafficClass, a: OutputId, b: OutputId) -> bool {
        match class {
            TrafficClass::GuaranteedBandwidth => a == b,
            TrafficClass::BestEffort => self.be_index(a) == self.be_index(b),
            TrafficClass::GuaranteedLatency => true,
        }
    }

    /// Flits currently buffered in `class` toward `output` (for BE/GL the
    /// shared queue's total occupancy).
    #[must_use]
    pub fn occupancy(&self, class: TrafficClass, output: OutputId) -> u64 {
        self.queue(class, output).used_flits
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

impl fmt::Display for InputPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: BE {}f, GB {}f, GL {}f buffered",
            self.input,
            self.be.iter().map(|q| q.used_flits).sum::<u64>(),
            self.gb.iter().map(|q| q.used_flits).sum::<u64>(),
            self.gl.used_flits
        )
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
        assert!(!p.has_room(TrafficClass::GuaranteedBandwidth, OutputId::new(0), 1));
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
        assert!(!p.has_room(gl, out, 1));
        p.drain_head(gl, out, 1);
        // One flit freed mid-packet; the packet is still the head.
        assert!(p.has_room(gl, out, 1));
        assert!(p.head(gl, out).is_some());
        // Two more at once.
        p.drain_head(gl, out, 2);
        assert_eq!(p.free_flits(gl, out), 3);
        p.drain_head(gl, out, 1);
        let done = p.pop_head(gl, out).expect("the drained head pops");
        assert_eq!(done.spec().id(), PacketId::new(0));
        assert_eq!(p.occupancy(gl, out), 0);
        assert!(p.pop_head(gl, out).is_none());
    }

    #[test]
    #[should_panic(expected = "no GL head")]
    fn transmitting_from_empty_queue_is_a_bug() {
        let mut p = port();
        p.drain_head(TrafficClass::GuaranteedLatency, OutputId::new(0), 1);
    }

    #[test]
    fn links_start_up_and_fault_toggles_them() {
        let mut p = port();
        assert!(p.is_link_up());
        assert!(p.try_enqueue(make(0, TrafficClass::BestEffort, 1, 2)));
        p.fault_set_link(false);
        assert!(!p.is_link_up());
        // Buffered traffic is retained across the outage.
        assert_eq!(p.total_occupancy(), 2);
        p.fault_set_link(true);
        assert!(p.is_link_up());
    }

    #[test]
    fn request_bits_mirror_head_probes() {
        let mut p = port();
        let check = |p: &InputPort| {
            for class in [
                TrafficClass::BestEffort,
                TrafficClass::GuaranteedBandwidth,
                TrafficClass::GuaranteedLatency,
            ] {
                let mut expect = 0u64;
                for o in 0..4 {
                    if p.head(class, OutputId::new(o)).is_some() {
                        expect |= 1 << o;
                    }
                }
                assert_eq!(p.request_bits(class), expect, "{class} word diverged");
            }
        };
        check(&p);
        assert!(p.try_enqueue(make(0, TrafficClass::GuaranteedBandwidth, 1, 2)));
        assert!(p.try_enqueue(make(1, TrafficClass::GuaranteedBandwidth, 3, 2)));
        assert!(p.try_enqueue(make(2, TrafficClass::BestEffort, 2, 2)));
        assert!(p.try_enqueue(make(3, TrafficClass::BestEffort, 0, 2)));
        assert!(p.try_enqueue(make(4, TrafficClass::GuaranteedLatency, 3, 1)));
        check(&p);
        // Drain the GB packet to output 1 flit by flit; the bit must drop
        // only when the packet pops.
        let gb = TrafficClass::GuaranteedBandwidth;
        p.drain_head(gb, OutputId::new(1), 1);
        check(&p);
        p.drain_head(gb, OutputId::new(1), 1);
        check(&p);
        assert!(p.pop_head(gb, OutputId::new(1)).is_some());
        check(&p);
        // Popping the BE head re-points the one-hot word at the next
        // packet's destination.
        p.drain_head(TrafficClass::BestEffort, OutputId::new(2), 2);
        assert!(p
            .pop_head(TrafficClass::BestEffort, OutputId::new(2))
            .is_some());
        check(&p);
        assert_eq!(p.request_bits(TrafficClass::BestEffort), 1 << 0);
        p.drain_head(TrafficClass::GuaranteedLatency, OutputId::new(3), 1);
        assert!(p
            .pop_head(TrafficClass::GuaranteedLatency, OutputId::new(3))
            .is_some());
        check(&p);
    }

    #[test]
    fn request_bits_track_be_voq() {
        let mut p = port().with_be_voq(4, 4);
        assert!(p.try_enqueue(make(0, TrafficClass::BestEffort, 1, 2)));
        assert!(p.try_enqueue(make(1, TrafficClass::BestEffort, 3, 2)));
        // Per-output BE queues request both destinations at once.
        assert_eq!(
            p.request_bits(TrafficClass::BestEffort),
            (1 << 1) | (1 << 3)
        );
        p.drain_head(TrafficClass::BestEffort, OutputId::new(1), 2);
        assert!(p
            .pop_head(TrafficClass::BestEffort, OutputId::new(1))
            .is_some());
        assert_eq!(p.request_bits(TrafficClass::BestEffort), 1 << 3);
    }

    #[test]
    #[should_panic(expected = "64-port ceiling")]
    fn radix_above_word_width_is_rejected() {
        let _ = InputPort::new(InputId::new(0), 65, 4, 4, 4);
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
