//! Per-shard event staging for the parallel arbitration engine.
//!
//! The sharded engine's decide phase runs one shard per output port
//! against an immutable switch snapshot, so shards cannot write into the
//! single [`Tracer`](crate::Tracer) directly without a lock — and a lock
//! would make event *order* depend on thread scheduling, breaking the
//! byte-identical-JSONL contract with the sequential engine. Instead
//! each shard stages its events in a private [`ShardBuffer`]; the serial
//! merge phase replays the buffers in canonical shard order, which for
//! the switch is exactly the output-port order the sequential engine
//! emits in.

use crate::event::Event;

/// An ordered batch of events produced by one decide shard.
///
/// Events within a buffer keep their push order (the order the shard's
/// instrumentation sites fired in); the consumer replays buffers in
/// ascending shard index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardBuffer {
    shard: usize,
    events: Vec<Event>,
}

impl ShardBuffer {
    /// Creates an empty buffer for `shard`.
    #[must_use]
    pub fn new(shard: usize) -> Self {
        ShardBuffer {
            shard,
            events: Vec::new(),
        }
    }

    /// The shard index this buffer belongs to.
    #[must_use]
    pub const fn shard(&self) -> usize {
        self.shard
    }

    /// Stages one event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Number of staged events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The staged events in push order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the buffer, yielding its events in push order.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Drops events staged after the first `keep` — used when a commit
    /// phase invalidates a shard's speculative tail (e.g. a predicted
    /// grant discarded by a fabric check).
    pub fn truncate(&mut self, keep: usize) {
        self.events.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64, output: u32) -> Event {
        Event {
            cycle,
            kind: EventKind::Decay {
                output,
                epoch: cycle,
            },
        }
    }

    #[test]
    fn buffer_preserves_push_order() {
        let mut b = ShardBuffer::new(3);
        assert!(b.is_empty());
        b.push(ev(1, 3));
        b.push(ev(0, 3));
        assert_eq!(b.len(), 2);
        assert_eq!(b.shard(), 3);
        let cycles: Vec<u64> = b.into_events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 0], "push order, not cycle order");
    }

    #[test]
    fn truncate_discards_speculative_tail() {
        let mut b = ShardBuffer::new(0);
        b.push(ev(1, 0));
        b.push(ev(2, 0));
        b.push(ev(3, 0));
        b.truncate(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.events()[0].cycle, 1);
    }
}
