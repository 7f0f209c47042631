//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it. The
//! traced pass opens one around every call into a layer's public
//! function, keeps them in memory, and writes them out when it ends.
//! Hot loops run hundreds of thousands of cycles, so only one cycle in
//! [`SAMPLE_EVERY`] keeps its spans in full; every cycle feeds the
//! per-name accumulators (count, total, self, min, max) the per-layer
//! metrics are computed from.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Hot loops keep full spans for one cycle in this many.
pub const SAMPLE_EVERY: u64 = 256;

/// Full spans kept per recorder. Reserved up front, so recording never
/// allocates inside a measured loop (the allocation counters stay the
/// simulator's own); once full, further spans feed only accumulators.
const FULL_SPAN_CAP: usize = 1 << 16;

/// Span names reserved per recorder, for the same reason.
const MAX_NAMES: usize = 64;

/// A registered span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One span kept in full. Times are nanoseconds since the recorder was
/// created; `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Running totals of every span recorded under one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Acc {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Acc {
    fn add(&mut self, ns: u64, self_ns: u64) {
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
        self.count += 1;
        self.total_ns += ns;
        self.self_ns += self_ns;
    }

    /// Mean duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Total in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

struct Open {
    id: SpanId,
    start: Instant,
    /// Time covered by already-closed children.
    child_ns: u64,
    /// Index in `spans` when this span is kept in full.
    full: Option<usize>,
}

/// Records spans; see the module docs.
pub struct Recorder {
    origin: Instant,
    names: Vec<&'static str>,
    accs: Vec<Acc>,
    open: Vec<Open>,
    spans: Vec<Span>,
    keep: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            names: Vec::with_capacity(MAX_NAMES),
            accs: Vec::with_capacity(MAX_NAMES),
            open: Vec::with_capacity(16),
            spans: Vec::with_capacity(FULL_SPAN_CAP),
            keep: true,
        }
    }

    /// Registers `name` (idempotent) and returns its id.
    pub fn register(&mut self, name: &'static str) -> SpanId {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return SpanId(i);
        }
        self.names.push(name);
        self.accs.push(Acc::default());
        SpanId(self.names.len() - 1)
    }

    /// Whether spans opened from now on are kept in full (hot loops
    /// turn this on for one cycle in [`SAMPLE_EVERY`]).
    pub fn keep_full(&mut self, keep: bool) {
        self.keep = keep;
    }

    fn since_origin(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, id: SpanId) {
        let full = if self.keep && self.spans.len() < FULL_SPAN_CAP {
            let parent = self.open.iter().rev().find_map(|o| o.full);
            self.spans.push(Span {
                name: self.names[id.0],
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            Some(self.spans.len() - 1)
        } else {
            None
        };
        // Read the clock last, so bookkeeping stays outside the span.
        let start = Instant::now();
        self.open.push(Open {
            id,
            start,
            child_ns: 0,
            full,
        });
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    #[inline]
    pub fn exit(&mut self) -> u64 {
        let end = Instant::now();
        let open = self.open.pop().expect("exit without a matching enter");
        let ns = u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX);
        self.accs[open.id.0].add(ns, ns.saturating_sub(open.child_ns));
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
        if let Some(i) = open.full {
            let start_ns = self.since_origin(open.start);
            self.spans[i].start_ns = start_ns;
            self.spans[i].end_ns = start_ns + ns;
        }
        ns
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, id: SpanId, f: impl FnOnce() -> R) -> R {
        self.enter(id);
        let out = f();
        self.exit();
        out
    }

    /// Registers `name` and runs `f` inside a span of it — for calls
    /// made once, outside hot loops. `f` gets the recorder back, to open
    /// spans of its own underneath.
    pub fn once<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.register(name);
        self.enter(id);
        let out = f(self);
        self.exit();
        out
    }

    /// Totals for `name` (zeros when it never ran).
    pub fn acc(&self, name: &str) -> Acc {
        self.names
            .iter()
            .position(|&n| n == name)
            .map_or_else(Acc::default, |i| self.accs[i])
    }

    /// The spans kept in full.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the recorder as the `spans-<workload>.json` document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 4096);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\
             \"hot_loop_sample_every\":{SAMPLE_EVERY},\"names\":{{"
        );
        for (i, (name, acc)) in self.names.iter().zip(&self.accs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                acc.count, acc.total_ns, acc.self_ns, acc.min_ns, acc.max_ns
            );
        }
        out.push_str("},\"spans\":[\n");
        let self_ns = self_times(&self.spans);
        for (i, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"self\":{own}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let tree = [
            span("run", 0, 100, None),
            span("prepare", 10, 30, Some(0)),
            span("decide", 30, 70, Some(0)),
            // Overlaps `decide` by 10: covered once.
            span("commit", 60, 90, Some(0)),
            span("peek", 35, 45, Some(2)),
            // A grandchild does not shorten the root's self time twice.
            span("peek", 50, 55, Some(2)),
        ];
        assert_eq!(self_times(&tree), vec![20, 20, 25, 30, 10, 5]);
    }

    #[test]
    fn recorder_nests_and_accumulates() {
        let mut rec = Recorder::new();
        let outer = rec.register("outer");
        let inner = rec.register("inner");
        assert_eq!(rec.register("outer"), outer);
        rec.enter(outer);
        for cycle in 0..4 {
            rec.keep_full(cycle == 0);
            rec.span(inner, || std::hint::black_box(cycle));
        }
        rec.keep_full(true);
        rec.exit();
        let (o, i) = (rec.acc("outer"), rec.acc("inner"));
        assert_eq!((o.count, i.count), (1, 4));
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.min_ns <= i.max_ns);
        // One full `outer`, one sampled `inner` under it.
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.acc("never").count, 0);
        let doc = swizzle_qos::prof::json::Json::parse(&rec.to_json("w", 3)).expect("valid JSON");
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(2)
        );
    }
}
