//! A plain-text trace format for capturing and replaying workloads.
//!
//! Each line is one packet injection:
//!
//! ```text
//! # cycle input output class len_flits
//! 0      2     5      GB    8
//! 17     2     5      GB    8
//! 40     0     5      GL    1
//! ```
//!
//! `#`-prefixed lines and blank lines are ignored. The format is stable,
//! diff-friendly, and easy to produce from any other simulator or from a
//! captured delivery log, making experiments portable across tools.
//!
//! [`TraceFile::into_injectors`] converts a trace into ready-to-attach
//! [`Injector`]s — one per `(input, class)` pair, each built from a
//! [`Trace`] source and a [`SequenceDest`] pattern that replays the
//! recorded destinations in order.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

use ssq_types::{InputId, OutputId, TrafficClass};

use crate::{DestinationPattern, Injector, Trace};

/// One recorded packet injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Injection cycle.
    pub cycle: u64,
    /// Source input port.
    pub input: InputId,
    /// Destination output port.
    pub output: OutputId,
    /// QoS class.
    pub class: TrafficClass,
    /// Packet length in flits.
    pub len_flits: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.cycle,
            self.input.index(),
            self.output.index(),
            self.class.label(),
            self.len_flits
        )
    }
}

/// Error from parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    message: String,
}

impl ParseTraceError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseTraceError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending input line.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }

    /// What was wrong with that line, without the line-number prefix
    /// `Display` adds.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl Error for ParseTraceError {}

/// A parsed workload trace: events sorted by cycle.
///
/// # Examples
///
/// ```
/// use ssq_traffic::TraceFile;
///
/// let text = "\
/// 0  2 5 GB 8
/// 17 2 5 GB 8
/// 40 0 5 GL 1
/// ";
/// let trace: TraceFile = text.parse()?;
/// assert_eq!(trace.len(), 3);
/// // Round trip.
/// let reparsed: TraceFile = trace.to_string().parse()?;
/// assert_eq!(trace, reparsed);
/// # Ok::<(), ssq_traffic::ParseTraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceFile {
    events: Vec<TraceEvent>,
}

impl TraceFile {
    /// Builds a trace from events (sorted by cycle automatically; the
    /// sort is stable, preserving same-cycle order).
    #[must_use]
    pub fn from_events(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.cycle);
        TraceFile { events }
    }

    /// The events, ascending by cycle.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Converts the trace into injectors, one per `(input, class)` pair
    /// present in the trace (a port replays each class stream
    /// independently, matching the per-class buffering of the switch).
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] (with a pseudo line number of 0) if
    /// any `(input, class)` stream carries two packets in one cycle —
    /// an input channel cannot accept more than one packet per cycle.
    pub fn into_injectors(self) -> Result<Vec<Injector>, ParseTraceError> {
        use std::collections::BTreeMap;
        /// Per-(input, class) stream: the (cycle, len) schedule plus the
        /// destination sequence.
        type Stream = (Vec<(u64, u64)>, VecDeque<OutputId>);
        let mut groups: BTreeMap<(usize, u8), Stream> = BTreeMap::new();
        for e in &self.events {
            let key = (e.input.index(), e.class.priority());
            let entry = groups.entry(key).or_default();
            if let Some(&(last, _)) = entry.0.last() {
                if last == e.cycle {
                    return Err(ParseTraceError::new(
                        0,
                        format!(
                            "input {} injects two {} packets at cycle {}",
                            e.input, e.class, e.cycle
                        ),
                    ));
                }
            }
            entry.0.push((e.cycle, e.len_flits));
            entry.1.push_back(e.output);
        }
        Ok(groups
            .into_iter()
            .map(|((input, priority), (schedule, dests))| {
                let class = match priority {
                    0 => TrafficClass::BestEffort,
                    1 => TrafficClass::GuaranteedBandwidth,
                    _ => TrafficClass::GuaranteedLatency,
                };
                Injector::new(
                    Box::new(Trace::new(schedule)),
                    Box::new(SequenceDest::new(dests)),
                    class,
                )
                .for_input(InputId::new(input))
            })
            .collect())
    }
}

impl TraceFile {
    /// Merges another trace into this one (stable by cycle; same-cycle
    /// events keep `self` first).
    ///
    /// # Examples
    ///
    /// ```
    /// use ssq_traffic::TraceFile;
    ///
    /// let a: TraceFile = "0 0 1 GB 4".parse()?;
    /// let b: TraceFile = "5 1 1 BE 2".parse()?;
    /// let merged = a.merged(b);
    /// assert_eq!(merged.len(), 2);
    /// # Ok::<(), ssq_traffic::ParseTraceError>(())
    /// ```
    #[must_use]
    pub fn merged(mut self, other: TraceFile) -> TraceFile {
        self.events.extend(other.events);
        TraceFile::from_events(self.events)
    }

    /// Keeps only the events matching `predicate` — slice a workload by
    /// class, port, or length without re-generating it.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssq_traffic::TraceFile;
    /// use ssq_types::TrafficClass;
    ///
    /// let t: TraceFile = "0 0 1 GB 4\n1 0 1 GL 1".parse()?;
    /// let gl_only = t.filtered(|e| e.class == TrafficClass::GuaranteedLatency);
    /// assert_eq!(gl_only.len(), 1);
    /// # Ok::<(), ssq_traffic::ParseTraceError>(())
    /// ```
    #[must_use]
    pub fn filtered(self, predicate: impl FnMut(&TraceEvent) -> bool) -> TraceFile {
        let mut predicate = predicate;
        TraceFile {
            events: self.events.into_iter().filter(|e| predicate(e)).collect(),
        }
    }

    /// Keeps the events in `[start, end)` cycles and rebases them so the
    /// window starts at cycle 0 — extract a steady-state excerpt from a
    /// long capture.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    #[must_use]
    pub fn window(self, start: u64, end: u64) -> TraceFile {
        assert!(start < end, "empty window {start}..{end}");
        TraceFile {
            events: self
                .events
                .into_iter()
                .filter(|e| (start..end).contains(&e.cycle))
                .map(|mut e| {
                    e.cycle -= start;
                    e
                })
                .collect(),
        }
    }

    /// Total flits in the trace.
    #[must_use]
    pub fn total_flits(&self) -> u64 {
        self.events.iter().map(|e| e.len_flits).sum()
    }

    /// Offered load in flits/cycle over the trace's span (zero for traces
    /// shorter than two cycles).
    #[must_use]
    pub fn offered_load(&self) -> f64 {
        match (self.events.first(), self.events.last()) {
            (Some(first), Some(last)) if last.cycle > first.cycle => {
                self.total_flits() as f64 / (last.cycle - first.cycle + 1) as f64
            }
            _ => 0.0,
        }
    }
}

impl FromStr for TraceFile {
    type Err = ParseTraceError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut events = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(ParseTraceError::new(
                    line_no,
                    format!("expected 5 fields, found {}", fields.len()),
                ));
            }
            let parse_num = |s: &str, what: &str| {
                s.parse::<u64>()
                    .map_err(|_| ParseTraceError::new(line_no, format!("invalid {what} {s:?}")))
            };
            let cycle = parse_num(fields[0], "cycle")?;
            let input = parse_num(fields[1], "input")? as usize;
            let output = parse_num(fields[2], "output")? as usize;
            let class = match fields[3] {
                "BE" => TrafficClass::BestEffort,
                "GB" => TrafficClass::GuaranteedBandwidth,
                "GL" => TrafficClass::GuaranteedLatency,
                other => {
                    return Err(ParseTraceError::new(
                        line_no,
                        format!("unknown class {other:?} (expected BE, GB, or GL)"),
                    ))
                }
            };
            let len_flits = parse_num(fields[4], "length")?;
            if len_flits == 0 {
                return Err(ParseTraceError::new(line_no, "zero-length packet"));
            }
            events.push(TraceEvent {
                cycle,
                input: InputId::new(input),
                output: OutputId::new(output),
                class,
                len_flits,
            });
        }
        Ok(TraceFile::from_events(events))
    }
}

impl fmt::Display for TraceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# cycle input output class len_flits")?;
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// Replays a fixed sequence of destinations, one per generated packet.
///
/// Used by [`TraceFile::into_injectors`]; panics if asked for more
/// destinations than were recorded, which would mean the paired source
/// produced more packets than the trace contains — a logic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceDest {
    remaining: VecDeque<OutputId>,
}

impl SequenceDest {
    /// Creates the pattern from the recorded destination sequence.
    #[must_use]
    pub fn new(remaining: VecDeque<OutputId>) -> Self {
        SequenceDest { remaining }
    }

    /// Destinations not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining.len()
    }
}

impl DestinationPattern for SequenceDest {
    fn dest(&mut self, _input: InputId) -> OutputId {
        self.remaining
            .pop_front()
            .expect("sequence pattern exhausted: source outran its trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_types::Cycle;

    const SAMPLE: &str = "\
# a comment
0  2 5 GB 8

17 2 5 GB 8
40 0 5 GL 1
12 1 3 BE 4
";

    #[test]
    fn parses_and_sorts() {
        let trace: TraceFile = SAMPLE.parse().unwrap();
        assert_eq!(trace.len(), 4);
        let cycles: Vec<u64> = trace.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 12, 17, 40]);
        assert_eq!(trace.events()[1].class, TrafficClass::BestEffort);
    }

    #[test]
    fn display_round_trips() {
        let trace: TraceFile = SAMPLE.parse().unwrap();
        let reparsed: TraceFile = trace.to_string().parse().unwrap();
        assert_eq!(trace, reparsed);
    }

    #[test]
    fn field_count_errors_carry_line_numbers() {
        let err = "0 1 2 GB".parse::<TraceFile>().unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("5 fields"));

        let err = "0 1 2 GB 8\nbogus line here also x"
            .parse::<TraceFile>()
            .unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn bad_class_and_zero_length_rejected() {
        assert!("0 1 2 XX 8".parse::<TraceFile>().is_err());
        assert!("0 1 2 GB 0".parse::<TraceFile>().is_err());
        assert!("x 1 2 GB 8".parse::<TraceFile>().is_err());
    }

    #[test]
    fn injectors_replay_the_trace_exactly() {
        let trace: TraceFile = SAMPLE.parse().unwrap();
        let mut injectors = trace.into_injectors().unwrap();
        // Groups: (0, GL), (1, BE), (2, GB) — BTreeMap order.
        assert_eq!(injectors.len(), 3);
        let mut fired = Vec::new();
        for c in 0..=40u64 {
            for inj in &mut injectors {
                if let Some(p) = inj.poll(Cycle::new(c)) {
                    fired.push((
                        c,
                        inj.input().index(),
                        p.output.index(),
                        p.class,
                        p.len_flits,
                    ));
                }
            }
        }
        assert_eq!(
            fired,
            vec![
                (0, 2, 5, TrafficClass::GuaranteedBandwidth, 8),
                (12, 1, 3, TrafficClass::BestEffort, 4),
                (17, 2, 5, TrafficClass::GuaranteedBandwidth, 8),
                (40, 0, 5, TrafficClass::GuaranteedLatency, 1),
            ]
        );
    }

    #[test]
    fn same_cycle_same_stream_rejected() {
        let trace: TraceFile = "5 0 1 GB 2\n5 0 2 GB 2".parse().unwrap();
        let err = trace.into_injectors().unwrap_err();
        assert!(err.to_string().contains("two GB packets"));
    }

    #[test]
    fn same_cycle_different_classes_allowed() {
        let trace: TraceFile = "5 0 1 GB 2\n5 0 2 GL 1".parse().unwrap();
        assert_eq!(trace.into_injectors().unwrap().len(), 2);
    }

    #[test]
    fn merged_traces_interleave_by_cycle() {
        let a: TraceFile = "0 0 1 GB 4\n10 0 1 GB 4".parse().unwrap();
        let b: TraceFile = "5 1 2 BE 2".parse().unwrap();
        let m = a.merged(b);
        let cycles: Vec<u64> = m.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 5, 10]);
        assert_eq!(m.total_flits(), 10);
    }

    #[test]
    fn filtered_keeps_matching_events() {
        let t: TraceFile = SAMPLE.parse().unwrap();
        let gb = t
            .clone()
            .filtered(|e| e.class == TrafficClass::GuaranteedBandwidth);
        assert_eq!(gb.len(), 2);
        let none = t.filtered(|_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn window_rebases_cycles() {
        let t: TraceFile = SAMPLE.parse().unwrap(); // cycles 0, 12, 17, 40
        let w = t.window(10, 20);
        let cycles: Vec<u64> = w.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 7]);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn window_rejects_inverted_range() {
        let t: TraceFile = SAMPLE.parse().unwrap();
        let _ = t.window(20, 20);
    }

    #[test]
    fn offered_load_over_span() {
        let t: TraceFile = "0 0 1 GB 4\n9 0 1 GB 4".parse().unwrap();
        assert!((t.offered_load() - 0.8).abs() < 1e-12);
        let single: TraceFile = "5 0 1 GB 4".parse().unwrap();
        assert_eq!(single.offered_load(), 0.0);
    }

    /// Seeded corruption fuzz: whatever a damaged capture file looks
    /// like — flipped bytes, truncations, spliced or duplicated lines —
    /// the replay path either parses it or returns a structured
    /// [`ParseTraceError`] pointing at a real line. It never panics.
    #[test]
    fn corrupted_traces_never_panic_and_errors_carry_real_lines() {
        use ssq_types::rng::Xoshiro256StarStar;

        let pristine: TraceFile = SAMPLE.parse().unwrap();
        let rendered = pristine.to_string();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xFA_075);
        for _ in 0..500 {
            let mut bytes = rendered.clone().into_bytes();
            for _ in 0..=rng.index(4) {
                match rng.index(5) {
                    // Flip one byte to a random printable character.
                    0 => {
                        let at = rng.index(bytes.len());
                        bytes[at] = 0x20 + rng.below(0x5f) as u8;
                    }
                    // Delete one byte.
                    1 => {
                        let at = rng.index(bytes.len());
                        bytes.remove(at);
                    }
                    // Truncate mid-file (torn write).
                    2 => bytes.truncate(rng.index(bytes.len() + 1)),
                    // Duplicate a line (double flush).
                    3 => {
                        let text = String::from_utf8_lossy(&bytes).into_owned();
                        let lines: Vec<&str> = text.lines().collect();
                        if !lines.is_empty() {
                            let at = rng.index(lines.len());
                            let mut out = lines.clone();
                            out.insert(at, lines[at]);
                            bytes = out.join("\n").into_bytes();
                        }
                    }
                    // Splice in a junk line.
                    _ => {
                        let junk = match rng.index(4) {
                            0 => "99 99 99 ZZ 99",
                            1 => "not a trace line",
                            2 => "1 2 3 GB",
                            _ => "18446744073709551616 0 0 GB 8", // u64::MAX + 1
                        };
                        let at = rng.index(bytes.len() + 1);
                        let mut spliced = bytes[..at].to_vec();
                        spliced.extend_from_slice(b"\n");
                        spliced.extend_from_slice(junk.as_bytes());
                        spliced.extend_from_slice(b"\n");
                        spliced.extend_from_slice(&bytes[at..]);
                        bytes = spliced;
                    }
                }
                if bytes.is_empty() {
                    bytes.push(b'\n');
                }
            }
            let text = String::from_utf8_lossy(&bytes).into_owned();
            match text.parse::<TraceFile>() {
                Ok(trace) => {
                    // A parseable corruption must still replay cleanly
                    // or be rejected loudly downstream.
                    let _ = trace.into_injectors();
                }
                Err(e) => {
                    let lines = text.lines().count();
                    assert!(
                        (1..=lines.max(1)).contains(&e.line()),
                        "error line {} outside file of {lines} lines",
                        e.line()
                    );
                    // The error formats without panicking.
                    let _ = e.to_string();
                }
            }
        }
    }

    #[test]
    fn sequence_dest_pops_in_order() {
        let mut p = SequenceDest::new(VecDeque::from(vec![OutputId::new(3), OutputId::new(1)]));
        assert_eq!(p.dest(InputId::new(0)), OutputId::new(3));
        assert_eq!(p.dest(InputId::new(0)), OutputId::new(1));
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn sequence_dest_exhaustion_is_a_bug() {
        let mut p = SequenceDest::new(VecDeque::new());
        let _ = p.dest(InputId::new(0));
    }
}
