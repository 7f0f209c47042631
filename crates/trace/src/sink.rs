//! Trace sinks and the [`Tracer`] front end.
//!
//! The cost model is the whole point of this module: instrumentation
//! sites call [`Tracer::emit`] with a *closure* that builds the event.
//! When no sink is attached the closure is never invoked, so the only
//! per-site cost is one `Vec::is_empty` check the optimizer folds into
//! a load-and-branch — the microbench in `crates/bench` holds this to
//! ≤1% of the arbitration hot loop.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};

use crate::event::Event;

/// Consumer of trace events.
pub trait TraceSink {
    /// Accepts one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output; a no-op for in-memory sinks.
    fn flush(&mut self) {}
}

/// The do-nothing sink. Its `record` body is empty and `#[inline]`, so
/// attaching it (or compiling instrumentation against it directly) costs
/// nothing — the optimizer deletes the call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _event: &Event) {}
}

/// Bounded in-memory flight recorder: keeps the most recent
/// `capacity` events, evicting the oldest on overflow.
///
/// The events are stored packed (`Event::pack`, generated from the event
/// table beside the JSONL writer), about 8 B each where an [`Event`]
/// takes 40, in blocks of up to 256 events each (or `capacity`, if that
/// is smaller). Each event's cycle is stored as its wrapping difference
/// from the block's previous event. One block is filled at a time; when
/// it is full it joins a deque of full blocks, and the next one is the
/// oldest full block, cleared, once the newer blocks already hold
/// `capacity` events, else a new one. A wrapped ring thus reuses its
/// blocks in place: a reused block's buffer grows, by an eighth, only
/// when its new events pack larger than its old ones did. The ring holds
/// between `capacity` and `capacity` + two blocks of events, and
/// [`RingSink::iter`] decodes the blocks and skips the surplus at the
/// front: it yields exactly the last `capacity` events recorded.
///
/// A ring of capacity `usize::MAX` never evicts: it is an append-only
/// packed log, which is how a fabric keeps its hop events
/// (`ssq_net::Fabric::events`).
///
/// # Examples
///
/// ```
/// use ssq_trace::{Event, EventKind, RingSink, TraceSink};
///
/// let mut ring = RingSink::new(300);
/// for cycle in 0..1_000 {
///     ring.record(&Event {
///         cycle,
///         kind: EventKind::Decay { output: 0, epoch: cycle },
///     });
/// }
/// assert_eq!(ring.len(), 300);
/// assert_eq!(ring.total_recorded(), 1_000);
/// assert_eq!(ring.events()[0].cycle, 700);
/// // Less than the 40-byte `Event`s themselves would take.
/// assert!(ring.retained_bytes() < 300 * std::mem::size_of::<Event>());
/// ```
#[derive(Debug, Clone)]
pub struct RingSink {
    /// Full blocks, oldest first.
    full: VecDeque<Block>,
    /// The block being filled: the newest events.
    open: Block,
    capacity: usize,
    /// Events per block: 256, or `capacity` if that is smaller.
    block_len: usize,
    total: u64,
}

/// Up to `block_len` packed events.
#[derive(Debug, Clone, Default)]
struct Block {
    bytes: Vec<u8>,
    /// Events packed into `bytes`.
    len: usize,
    /// The cycle of the last event, which the next one is packed against.
    last_cycle: u64,
}

impl RingSink {
    /// Most events one block holds.
    const BLOCK_LEN: usize = 256;

    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity > 0");
        RingSink {
            full: VecDeque::new(),
            open: Block::default(),
            capacity,
            block_len: capacity.min(Self::BLOCK_LEN),
            total: 0,
        }
    }

    /// Maximum number of retained events.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.total).map_or(self.capacity, |total| total.min(self.capacity))
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total events ever recorded, including evicted ones.
    #[must_use]
    pub const fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Heap bytes the ring holds: each block's buffer at its allocated
    /// capacity, plus the deque's slots. An exact count, for pricing the
    /// recorder beside a stopwatch.
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        let buffers: usize = self.blocks().map(|b| b.bytes.capacity()).sum();
        buffers + self.full.capacity() * std::mem::size_of::<Block>()
    }

    /// The retained events in chronological order (oldest first),
    /// decoded one at a time as the iterator is advanced: a reader that
    /// streams them holds one [`Event`] at a time, not a copy of the ring.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        let held: usize = self.blocks().map(|b| b.len).sum();
        let surplus = held - self.len();
        self.blocks()
            .flat_map(|block| {
                let (mut bytes, mut prev) = (block.bytes.as_slice(), 0);
                std::iter::from_fn(move || {
                    let event = Event::unpack(prev, &mut bytes)?;
                    prev = event.cycle;
                    Some(event)
                })
            })
            .skip(surplus)
    }

    /// The retained events in chronological order (oldest first):
    /// [`RingSink::iter`], collected.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.iter().collect()
    }

    /// Every block, oldest first.
    fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.full.iter().chain(std::iter::once(&self.open))
    }

    /// Moves the full open block into the deque and opens the next: the
    /// oldest full block, cleared, once the blocks after it hold
    /// `capacity` events; before that, a new block sized like the one
    /// just filled.
    fn open_next(&mut self) {
        let next = if self.full.len() * self.block_len >= self.capacity {
            self.full.pop_front()
        } else {
            None
        };
        let next = match next {
            Some(Block { mut bytes, .. }) => {
                bytes.clear();
                Block {
                    bytes,
                    ..Block::default()
                }
            }
            None => Block {
                bytes: Vec::with_capacity(self.open.bytes.len() + Event::PACKED_MAX),
                ..Block::default()
            },
        };
        self.full.push_back(std::mem::replace(&mut self.open, next));
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &Event) {
        if self.open.len == self.block_len {
            self.open_next();
        }
        let block = &mut self.open;
        // Grow by an eighth, never by doubling: a block ends within an
        // eighth (plus one event) of what it holds.
        if block.bytes.capacity() - block.bytes.len() < Event::PACKED_MAX {
            block
                .bytes
                .reserve_exact(block.bytes.len() / 8 + Event::PACKED_MAX);
        }
        event.pack(block.last_cycle, &mut block.bytes);
        block.last_cycle = event.cycle;
        block.len += 1;
        self.total += 1;
    }
}

/// Streams events as JSON Lines to any writer.
///
/// IO errors are sticky: the first failure is stored, subsequent
/// records become no-ops, and the error is reported via
/// [`JsonlSink::io_error`] (a trace must never abort a simulation).
pub struct JsonlSink<W: Write> {
    out: W,
    /// The current line, reused for every event so `record` asks the
    /// allocator for nothing once it has grown to the longest line.
    line: Vec<u8>,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink writing one JSON object per line to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: Vec::new(),
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully written.
    #[must_use]
    pub const fn lines_written(&self) -> u64 {
        self.lines
    }

    /// The sticky IO error, if any write failed.
    #[must_use]
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.write_jsonl(&mut self.line);
        self.line.push(b'\n');
        match self.out.write_all(&self.line) {
            Ok(()) => self.lines += 1,
            Err(err) => self.error = Some(err),
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(err) = self.out.flush() {
                self.error = Some(err);
            }
        }
    }
}

impl<W: Write> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// A boxed writer a [`Tracer`] can stream JSONL to. `Send + Sync` so a
/// tracer-bearing model can be shared immutably across the parallel
/// engine's decide shards.
pub type BoxedWriter = Box<dyn Write + Send + Sync>;

/// An attached sink (the tracer owns heterogeneous sinks without a
/// virtual call on the hot path for the built-in ones).
enum SinkSlot {
    Ring(RingSink),
    Jsonl(JsonlSink<BoxedWriter>),
    Custom(Box<dyn TraceSink + Send + Sync>),
}

impl SinkSlot {
    fn record(&mut self, event: &Event) {
        match self {
            SinkSlot::Ring(s) => s.record(event),
            SinkSlot::Jsonl(s) => s.record(event),
            SinkSlot::Custom(s) => s.record(event),
        }
    }

    fn flush(&mut self) {
        match self {
            SinkSlot::Ring(s) => TraceSink::flush(s),
            SinkSlot::Jsonl(s) => TraceSink::flush(s),
            SinkSlot::Custom(s) => s.flush(),
        }
    }
}

/// The emission front end instrumented code holds.
///
/// A default tracer has no sinks and is **off**: [`Tracer::emit`]
/// returns before the event-building closure runs. Multiple sinks may
/// be attached at once (e.g. a JSONL stream plus a flight-recorder
/// ring); every event fans out to all of them.
///
/// # Examples
///
/// ```
/// use ssq_trace::{Event, EventKind, Tracer};
///
/// let mut tracer = Tracer::new();
/// assert!(tracer.is_off());
/// tracer.emit(|| unreachable!("never built while off"));
///
/// tracer.attach_ring(16);
/// tracer.emit(|| Event {
///     cycle: 3,
///     kind: EventKind::Decay { output: 0, epoch: 1 },
/// });
/// assert_eq!(tracer.ring().unwrap().len(), 1);
/// ```
#[derive(Default)]
pub struct Tracer {
    sinks: Vec<SinkSlot>,
}

impl Tracer {
    /// Creates a tracer with no sinks (off).
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Whether emission is disabled (no sinks attached). This is the
    /// one branch instrumentation pays when tracing is off.
    #[inline(always)]
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Attaches a bounded flight recorder.
    pub fn attach_ring(&mut self, capacity: usize) {
        self.sinks.push(SinkSlot::Ring(RingSink::new(capacity)));
    }

    /// Attaches a JSONL stream writing to `out`.
    pub fn attach_jsonl(&mut self, out: BoxedWriter) {
        self.sinks.push(SinkSlot::Jsonl(JsonlSink::new(out)));
    }

    /// Attaches any custom sink.
    pub fn attach(&mut self, sink: Box<dyn TraceSink + Send + Sync>) {
        self.sinks.push(SinkSlot::Custom(sink));
    }

    /// Emits one event: `make` runs only when at least one sink is
    /// attached, so event construction costs nothing when tracing is
    /// off.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> Event) {
        if self.sinks.is_empty() {
            return;
        }
        self.emit_cold(make());
    }

    #[cold]
    fn emit_cold(&mut self, event: Event) {
        for sink in &mut self.sinks {
            sink.record(&event);
        }
    }

    /// The first attached ring (flight recorder), if any.
    #[must_use]
    pub fn ring(&self) -> Option<&RingSink> {
        self.sinks.iter().find_map(|s| match s {
            SinkSlot::Ring(r) => Some(r),
            _ => None,
        })
    }

    /// The first attached JSONL sink, if any.
    #[must_use]
    pub fn jsonl(&self) -> Option<&JsonlSink<BoxedWriter>> {
        self.sinks.iter().find_map(|s| match s {
            SinkSlot::Jsonl(j) => Some(j),
            _ => None,
        })
    }

    /// Flushes every sink.
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kinds: Vec<&str> = self
            .sinks
            .iter()
            .map(|s| match s {
                SinkSlot::Ring(_) => "ring",
                SinkSlot::Jsonl(_) => "jsonl",
                SinkSlot::Custom(_) => "custom",
            })
            .collect();
        f.debug_struct("Tracer").field("sinks", &kinds).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64) -> Event {
        Event {
            cycle,
            kind: EventKind::Decay {
                output: 0,
                epoch: cycle,
            },
        }
    }

    #[test]
    fn off_tracer_never_builds_events() {
        let mut t = Tracer::new();
        let mut built = false;
        t.emit(|| {
            built = true;
            ev(0)
        });
        assert!(!built, "closure must not run while off");
        assert!(t.is_off());
    }

    #[test]
    fn ring_wraparound_evicts_oldest_chronological() {
        let mut r = RingSink::new(4);
        for c in 0..10 {
            r.record(&ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_recorded(), 10);
        let cycles: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(
            cycles,
            vec![6, 7, 8, 9],
            "oldest evicted, oldest-first dump"
        );
    }

    #[test]
    fn ring_below_capacity_keeps_everything_in_order() {
        let mut r = RingSink::new(8);
        for c in 0..3 {
            r.record(&ev(c));
        }
        let cycles: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    /// A seeded stream over every kind: first each kind with every label
    /// of its fields and every number at 0, `u32::MAX` and `u64::MAX`,
    /// then random events. Cycles walk: they repeat, step forward, go
    /// backwards, jump by `u64::MAX` (one back, wrapping) and land on 0
    /// and `u64::MAX`.
    fn stream(seed: u64, len: usize) -> Vec<Event> {
        use crate::event::tests::{all_kinds, random_event, redraw, Fixed};
        use ssq_types::rng::Xoshiro256StarStar;

        let mut events = Vec::with_capacity(len);
        for (i, edge) in [0, u64::from(u32::MAX), u64::MAX].into_iter().enumerate() {
            for label in 0..16 {
                for mut ev in all_kinds() {
                    redraw(&mut ev, &mut Fixed(edge, label + i));
                    events.push(ev);
                }
            }
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut cycle = 0u64;
        while events.len() < len {
            let kind = rng.index(19);
            let mut ev = random_event(&mut rng, kind);
            cycle = match rng.index(8) {
                0 => cycle,
                1 => cycle.wrapping_sub(rng.below(1_000)),
                2 => cycle.wrapping_add(u64::MAX),
                3 => [0, u64::MAX][rng.index(2)],
                4 => rng.next_u64(),
                _ => cycle.wrapping_add(rng.below(40)),
            };
            ev.cycle = cycle;
            events.push(ev);
        }
        events.truncate(len);
        events
    }

    /// The block ring against a plain `VecDeque<Event>` of the last
    /// `capacity` events, after every push (for the largest capacity,
    /// on the pushes around each block boundary from one block short of
    /// full, around the first reuse, and every 4 096th), and a
    /// clone taken mid-stream continuing as the original does; read both
    /// ways, decoded into a `Vec` and streamed by `iter`.
    #[test]
    fn ring_matches_a_plain_deque_on_seeded_streams() {
        for (seed, capacity) in [1, 2, 255, 256, 257, 1000, 1 << 15].into_iter().enumerate() {
            let events = stream(seed as u64, capacity + 3 * 256 + 500);
            let mut ring = RingSink::new(capacity);
            let mut model = std::collections::VecDeque::new();
            let mut twin = None;
            for (i, ev) in events.iter().enumerate() {
                if i == events.len() / 2 {
                    twin = Some(ring.clone());
                }
                ring.record(ev);
                model.push_back(ev.clone());
                if model.len() > capacity {
                    model.pop_front();
                }
                assert_eq!(ring.len(), model.len(), "capacity {capacity}, push {i}");
                assert!(!ring.is_empty());
                assert_eq!(ring.total_recorded(), i as u64 + 1);
                let pushed = i + 1;
                let check = capacity <= 1000
                    || pushed % 4096 == 0
                    || (pushed + 256 >= capacity && pushed % 256 <= 1)
                    || pushed.abs_diff(capacity + 256) <= 2;
                if let Some(twin) = twin.as_mut() {
                    twin.record(ev);
                    assert_eq!(twin.total_recorded(), ring.total_recorded());
                    if check {
                        assert!(twin.events().iter().eq(model.iter()), "clone, push {i}");
                        assert!(
                            twin.iter().eq(model.iter().cloned()),
                            "clone iter, push {i}"
                        );
                    }
                }
                if check {
                    let got = ring.events();
                    assert!(got.iter().eq(model.iter()), "capacity {capacity}, push {i}");
                    assert!(
                        ring.iter().eq(model.iter().cloned()),
                        "capacity {capacity}, iter, push {i}"
                    );
                }
            }
            assert!(twin.is_some());
        }
    }

    /// A `usize::MAX` ring is an append-only log: fed more than three
    /// blocks, it still holds its first event and everything after it.
    #[test]
    fn an_unbounded_ring_never_evicts() {
        let events = stream(11, 3 * 256 + 100);
        let mut r = RingSink::new(usize::MAX);
        for ev in &events {
            r.record(ev);
        }
        assert_eq!(r.len() as u64, r.total_recorded());
        assert_eq!(r.len(), events.len());
        assert_eq!(r.iter().next().as_ref(), events.first());
        assert!(r.iter().eq(events.iter().cloned()));
    }

    #[test]
    fn an_empty_ring_holds_nothing() {
        let r = RingSink::new(3);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.events(), Vec::new());
        assert_eq!(r.retained_bytes(), 0);
    }

    /// Once a ring has wrapped, a stream that repeats itself asks the
    /// allocator for nothing more: its blocks are reused in place.
    #[test]
    fn a_wrapped_ring_reuses_its_blocks() {
        let events = stream(9, 512);
        let mut r = RingSink::new(1000);
        let feed = |r: &mut RingSink, rounds| {
            for _ in 0..rounds {
                for ev in &events {
                    r.record(ev);
                }
            }
        };
        feed(&mut r, 6);
        let settled = r.retained_bytes();
        assert!(settled > 0);
        feed(&mut r, 6);
        assert_eq!(r.retained_bytes(), settled);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn ring_rejects_zero_capacity() {
        let _ = RingSink::new(0);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(1));
        sink.record(&ev(2));
        assert_eq!(sink.lines_written(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        for line in text.lines() {
            let _ = Event::from_jsonl(line).expect(line);
        }
    }

    #[test]
    fn jsonl_io_errors_are_sticky_not_fatal() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.record(&ev(1));
        sink.record(&ev(2));
        assert_eq!(sink.lines_written(), 0);
        assert!(sink.io_error().is_some());
    }

    #[test]
    fn tracer_fans_out_to_all_sinks() {
        let mut t = Tracer::new();
        t.attach_ring(2);
        t.attach_jsonl(Box::new(Vec::new()));
        t.emit(|| ev(5));
        assert_eq!(t.ring().unwrap().total_recorded(), 1);
        assert_eq!(t.jsonl().unwrap().lines_written(), 1);
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut n = NullSink;
        n.record(&ev(0));
        TraceSink::flush(&mut n);
    }

    #[test]
    fn custom_sinks_receive_events() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        struct Count(Arc<AtomicU32>);
        impl TraceSink for Count {
            fn record(&mut self, _: &Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let n = Arc::new(AtomicU32::new(0));
        let mut t = Tracer::new();
        t.attach(Box::new(Count(n.clone())));
        t.emit(|| ev(0));
        t.emit(|| ev(1));
        t.flush();
        assert_eq!(n.load(Ordering::Relaxed), 2);
    }
}
