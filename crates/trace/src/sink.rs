//! Trace sinks and the [`Tracer`] front end.
//!
//! The cost model is the whole point of this module: instrumentation
//! sites call [`Tracer::emit`] with a *closure* that builds the event.
//! When no sink is attached the closure is never invoked, so the only
//! per-site cost is one `Vec::is_empty` check the optimizer folds into
//! a load-and-branch — the microbench in `crates/bench` holds this to
//! ≤1% of the arbitration hot loop.

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
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<Event>,
    capacity: usize,
    /// Index the next event overwrites once the buffer is full.
    next: usize,
    total: u64,
}

impl RingSink {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity > 0");
        RingSink {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            next: 0,
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
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    #[must_use]
    pub const fn total_recorded(&self) -> u64 {
        self.total
    }

    /// The retained events in chronological order (oldest first).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.capacity {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event.clone());
        } else {
            self.buf[self.next] = event.clone();
        }
        self.next = (self.next + 1) % self.capacity;
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
