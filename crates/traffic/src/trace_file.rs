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
//! # Loading
//!
//! One line tokenizer reads every trace. Its fast path works on the
//! bytes of the shape [`TraceFile`]'s `Display` writes: ASCII digits,
//! `BE`/`GB`/`GL`, spaces or tabs, `\n` or `\r\n` line ends. A reader's
//! line is tokenized in place in the reader's buffer. Any other line (a
//! `+5`, Unicode whitespace, a comment, the wrong number of fields, an
//! overflowing number) goes through the general rules, which refuse a
//! line that is not UTF-8. Both refuse a packet length outside
//! `1..=`[`MAX_PACKET_FLITS`].
//!
//! A port replays each `(input, class)` stream independently, matching
//! the per-class buffering of the switch: a trace becomes one
//! [`Injector`] per non-empty stream, in `(input, class)` order, and the
//! packets arrive as a stable sort of the whole trace by cycle orders
//! them. The replay path (`ssq simulate --replay`) is
//! [`Replay::open`](crate::Replay::open): one tokenize-only pass checks
//! the file, refusing a port outside the switch radix too, and finds
//! whether it is sorted by cycle. A sorted file is rewound and read
//! again during the run, one 64-cycle block at a time, straight into
//! the switch's arrival schedule; an unsorted one is read again, sorted
//! by cycle in memory and read from there the same way.
//! `text.parse::<TraceFile>()` then [`TraceFile::into_injectors`] builds
//! the same streams up front, each an [`Injector`] of a [`Trace`]
//! source and a pattern that replays the recorded destinations in
//! order.
//!
//! Every refusal is a [`ParseTraceError`] naming the 1-based line: a bad
//! field, a non-UTF-8 byte, a port outside the radix, or the second of
//! two packets one `(input, class)` stream injects in one cycle (the
//! earliest such cycle, then file order). Only
//! [`TraceFile::into_injectors`], which has no lines, names line 0.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::io::BufRead;
use std::str::FromStr;

use ssq_types::{InputId, OutputId, TrafficClass, MAX_PACKET_FLITS};

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
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
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
    /// present in the trace, in `(input, class)` order (a port replays
    /// each class stream independently, matching the per-class buffering
    /// of the switch).
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] (with a pseudo line number of 0) if
    /// any `(input, class)` stream carries two packets in one cycle —
    /// an input channel cannot accept more than one packet per cycle.
    pub fn into_injectors(self) -> Result<Vec<Injector>, ParseTraceError> {
        let inputs = self
            .events
            .iter()
            .map(|e| e.input.index().saturating_add(1))
            .max()
            .unwrap_or(0);
        let too_many = || ParseTraceError::new(0, format!("no room for {inputs} input streams"));
        let len = inputs.checked_mul(3).ok_or_else(too_many)?;
        // Per stream slot `input × 3 + class priority`, so the injectors
        // come out in `(input, class)` order: injector index order is
        // part of every report.
        let mut streams: Vec<Stream> = Vec::new();
        streams.try_reserve_exact(len).map_err(|_| too_many())?;
        streams.resize_with(len, Stream::default);
        for e in &self.events {
            let slot = slot(e);
            let stream = &mut streams[slot];
            if stream.schedule.last().map(|&(cycle, _)| cycle) == Some(e.cycle) {
                return Err(two_packets(e.cycle, 0, slot));
            }
            stream.schedule.push((e.cycle, e.len_flits));
            stream.dests.push_back(e.output);
        }
        Ok(streams
            .into_iter()
            .enumerate()
            .filter(|(_, stream)| !stream.schedule.is_empty())
            .map(|(slot, stream)| {
                Injector::new(
                    Box::new(Trace::new(stream.schedule)),
                    Box::new(SequenceDest::new(stream.dests)),
                    TrafficClass::ALL[slot % 3],
                )
                .for_input(InputId::new(slot / 3))
            })
            .collect())
    }
}

/// One `(input, class)` stream of a trace.
#[derive(Default)]
struct Stream {
    /// `(cycle, len_flits)`, one per packet.
    schedule: Vec<(u64, u64)>,
    dests: VecDeque<OutputId>,
}

/// A trace's packet lines, tokenized one at a time from a reader. A
/// line that lies whole in the reader's buffer is tokenized there; only
/// one that crosses the buffer's end is copied out.
pub(crate) struct Lines<R> {
    reader: R,
    /// The last line read, when it crossed the end of the buffer.
    spill: Vec<u8>,
    /// 1-based number of the last line read.
    line: usize,
}

impl<R: BufRead> Lines<R> {
    pub(crate) fn new(reader: R) -> Self {
        Lines {
            reader,
            spill: Vec::new(),
            line: 0,
        }
    }

    /// 1-based number of the last line read.
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    pub(crate) fn into_inner(self) -> R {
        self.reader
    }

    /// The next packet line's event, past any blank and comment lines;
    /// `None` at the end of the file.
    pub(crate) fn next_event(&mut self) -> Result<Option<TraceEvent>, ParseTraceError> {
        loop {
            let line_no = self.line + 1;
            let reading =
                |e: std::io::Error| ParseTraceError::new(line_no, format!("reading: {e}"));
            let buf = match self.reader.fill_buf() {
                Ok(buf) => buf,
                // Retried, as `read_until` retries it.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(reading(e)),
            };
            if buf.is_empty() {
                return Ok(None);
            }
            self.line = line_no;
            let event = if let Some((event, len)) = scan_line(buf) {
                self.reader.consume(len);
                check_len(event, line_no)?
            } else if let Some(end) = buf.iter().position(|&b| b == b'\n') {
                let event = parse_line(&buf[..end], line_no);
                self.reader.consume(end + 1);
                event?
            } else {
                self.spill.clear();
                self.reader
                    .read_until(b'\n', &mut self.spill)
                    .map_err(reading)?;
                let line = self.spill.strip_suffix(b"\n").unwrap_or(&self.spill);
                parse_line(line, line_no)?
            };
            if event.is_some() {
                return Ok(event);
            }
        }
    }
}

/// Refuses an event, read from `line`, whose input or output is not a
/// port of a radix-`radix` switch.
#[inline]
pub(crate) fn check_ports(
    e: &TraceEvent,
    radix: usize,
    line: usize,
) -> Result<(), ParseTraceError> {
    for (side, port) in [("input", e.input.index()), ("output", e.output.index())] {
        if port >= radix {
            return Err(ParseTraceError::new(
                line,
                format!("{side} {port} is outside radix {radix}"),
            ));
        }
    }
    Ok(())
}

/// The stream slot of an event: `input × 3 + class priority`, so that
/// slots ascend in `(input, class)` order.
#[inline]
pub(crate) fn slot(e: &TraceEvent) -> usize {
    e.input.index() * 3 + usize::from(e.class.priority())
}

/// The refusal of the packet on `line`: its stream `slot` already
/// injects one in `cycle`.
pub(crate) fn two_packets(cycle: u64, line: usize, slot: usize) -> ParseTraceError {
    ParseTraceError::new(
        line,
        format!(
            "input {} injects two {} packets at cycle {cycle}",
            InputId::new(slot / 3),
            TrafficClass::ALL[slot % 3]
        ),
    )
}

/// Tokenizes one line (without its `\n`): `None` for a blank or comment
/// line.
fn parse_line(line: &[u8], line_no: usize) -> Result<Option<TraceEvent>, ParseTraceError> {
    let event = match fast_line(line) {
        Some(event) => event,
        None => {
            let text = std::str::from_utf8(line)
                .map_err(|_| ParseTraceError::new(line_no, "not valid UTF-8"))?;
            general_line(text, line_no)?
        }
    };
    check_len(event, line_no)
}

/// Refuses a packet length outside `1..=`[`MAX_PACKET_FLITS`].
#[inline]
fn check_len(
    event: Option<TraceEvent>,
    line_no: usize,
) -> Result<Option<TraceEvent>, ParseTraceError> {
    match event {
        Some(e) if e.len_flits == 0 => Err(ParseTraceError::new(line_no, "zero-length packet")),
        Some(e) if e.len_flits > MAX_PACKET_FLITS => Err(ParseTraceError::new(
            line_no,
            format!(
                "packet length {} flits outside 1..={MAX_PACKET_FLITS}",
                e.len_flits
            ),
        )),
        event => Ok(event),
    }
}

/// The byte fast path: a blank line, or five fields separated by
/// spaces or tabs — three numbers, a class label, a number — with an
/// optional `\r` end. A number here is 1 to 19 ASCII digits, so it never
/// overflows. `None` hands the line to [`general_line`].
fn fast_line(line: &[u8]) -> Option<Option<TraceEvent>> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let mut c = Cursor { line, at: 0 };
    let event = c.event()?;
    (c.at == line.len()).then_some(event)
}

/// The byte fast path on the front of a reader's buffer, which holds
/// the next line and perhaps more: the line's reading and its length
/// with its `\n`, exactly as [`fast_line`] reads the line. `None` when
/// the fast path does not take the line or the buffer ends before its
/// `\n`.
#[inline]
fn scan_line(buf: &[u8]) -> Option<(Option<TraceEvent>, usize)> {
    let mut c = Cursor { line: buf, at: 0 };
    let event = c.event()?;
    if c.line.get(c.at) == Some(&b'\r') {
        c.at += 1;
    }
    (c.line.get(c.at) == Some(&b'\n')).then_some((event, c.at + 1))
}

/// A position in a line's bytes.
struct Cursor<'a> {
    line: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    /// Blanks, then the five fields and blanks, unless a `\r`, a `\n`
    /// or the end follows the first blanks (a blank line: `Some(None)`).
    #[inline]
    fn event(&mut self) -> Option<Option<TraceEvent>> {
        self.blanks();
        if matches!(self.line.get(self.at), None | Some(b'\r' | b'\n')) {
            return Some(None);
        }
        let cycle = self.number()?;
        self.separator()?;
        let input = usize::try_from(self.number()?).ok()?;
        self.separator()?;
        let output = usize::try_from(self.number()?).ok()?;
        self.separator()?;
        let class = match self.line.get(self.at..self.at + 2)? {
            b"BE" => TrafficClass::BestEffort,
            b"GB" => TrafficClass::GuaranteedBandwidth,
            b"GL" => TrafficClass::GuaranteedLatency,
            _ => return None,
        };
        self.at += 2;
        self.separator()?;
        let len_flits = self.number()?;
        self.blanks();
        Some(Some(TraceEvent {
            cycle,
            input: InputId::new(input),
            output: OutputId::new(output),
            class,
            len_flits,
        }))
    }

    /// Skips spaces and tabs; whether there were any.
    #[inline]
    fn blanks(&mut self) -> bool {
        let start = self.at;
        while matches!(self.line.get(self.at), Some(b' ' | b'\t')) {
            self.at += 1;
        }
        self.at > start
    }

    /// At least one space or tab.
    #[inline]
    fn separator(&mut self) -> Option<()> {
        self.blanks().then_some(())
    }

    /// A run of 1 to 19 ASCII digits as a number.
    #[inline]
    fn number(&mut self) -> Option<u64> {
        let start = self.at;
        let mut n = 0u64;
        while let Some(&b @ b'0'..=b'9') = self.line.get(self.at) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.at += 1;
        }
        (1..=19).contains(&(self.at - start)).then_some(n)
    }
}

/// The general rules, for every line the fast path does not take: any
/// whitespace, `+`-signed numbers, comments, and the errors.
fn general_line(text: &str, line_no: usize) -> Result<Option<TraceEvent>, ParseTraceError> {
    let line = text.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = [""; 5];
    let mut found = 0;
    for field in line.split_whitespace() {
        if let Some(slot) = fields.get_mut(found) {
            *slot = field;
        }
        found += 1;
    }
    if found != 5 {
        return Err(ParseTraceError::new(
            line_no,
            format!("expected 5 fields, found {found}"),
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
    Ok(Some(TraceEvent {
        cycle,
        input: InputId::new(input),
        output: OutputId::new(output),
        class,
        len_flits,
    }))
}

impl FromStr for TraceFile {
    type Err = ParseTraceError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut events = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            events.extend(parse_line(line.as_bytes(), idx + 1)?);
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
#[derive(Debug)]
pub(crate) struct SequenceDest {
    remaining: VecDeque<OutputId>,
}

impl SequenceDest {
    /// Creates the pattern from the recorded destination sequence.
    pub(crate) fn new(remaining: VecDeque<OutputId>) -> Self {
        SequenceDest { remaining }
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
    use crate::ArrivalSchedule;
    use ssq_types::rng::Xoshiro256StarStar;
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
        // Streams: (0, GL), (1, BE), (2, GB) — (input, class) order.
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

    /// One damaged copy of `rendered`: flipped bytes, truncations,
    /// spliced or duplicated lines, the way a capture file breaks.
    fn corrupted(rng: &mut Xoshiro256StarStar, rendered: &str) -> String {
        let mut bytes = rendered.as_bytes().to_vec();
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
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Seeded corruption fuzz: whatever a damaged capture file looks
    /// like — flipped bytes, truncations, spliced or duplicated lines —
    /// the replay path either parses it or returns a structured
    /// [`ParseTraceError`] pointing at a real line. It never panics.
    #[test]
    fn corrupted_traces_never_panic_and_errors_carry_real_lines() {
        let pristine: TraceFile = SAMPLE.parse().unwrap();
        let rendered = pristine.to_string();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xFA_075);
        for _ in 0..500 {
            let text = corrupted(&mut rng, &rendered);
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

    /// Every `(cycle, input, output, class, len)` the injectors fire,
    /// polled at each of `cycles` in ascending order (a trace source
    /// fires only at its recorded cycles).
    fn fired(mut injectors: Vec<Injector>, cycles: &[u64]) -> Vec<Fired> {
        let mut fired = Vec::new();
        for &c in cycles {
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
        fired
    }

    type Fired = (u64, usize, usize, TrafficClass, u64);

    /// The distinct cycles of a trace, ascending.
    fn cycles_of(trace: &TraceFile) -> Vec<u64> {
        let mut cycles: Vec<u64> = trace.events().iter().map(|e| e.cycle).collect();
        cycles.dedup();
        cycles
    }

    /// The replay path against the parse-then-convert path on one text:
    /// the same packets, or the same refusal. A duplicate, which
    /// `into_injectors` can only place on line 0, must name `dup_line`.
    fn assert_reader_matches(text: &str, radix: usize, dup_line: impl FnOnce() -> usize) {
        // Every line the byte fast path takes reads the same under the
        // general rules, and in place in a buffer that holds more.
        for line in text.lines() {
            if let Some(fast) = fast_line(line.as_bytes()) {
                assert_eq!(Ok(fast), general_line(line, 1), "{line:?}");
            }
            let buffered = format!("{line}\n0 0 0 GB 1\n");
            if let Some((scanned, len)) = scan_line(buffered.as_bytes()) {
                assert_eq!(Some(scanned), fast_line(line.as_bytes()), "{line:?}");
                assert_eq!(len, line.len() + 1, "{line:?}");
            }
        }
        let trace = match text.parse::<TraceFile>() {
            Ok(trace) => trace,
            Err(e) => {
                let refusal = (e.line(), e.message().to_owned());
                assert_eq!(replayed(text, radix, &[]), Err(refusal), "{text:?}");
                return;
            }
        };
        let cycles = cycles_of(&trace);
        let replay = replayed(text, radix, &cycles);
        match trace.into_injectors() {
            Ok(injectors) => assert_eq!(Ok(fired(injectors, &cycles)), replay, "{text:?}"),
            Err(e) => {
                assert_eq!(e.line(), 0);
                let refusal = (dup_line(), e.message().to_owned());
                assert_eq!(replay, Err(refusal), "{text:?}");
            }
        }
    }

    /// What the replay path makes of `text`: the packets its injectors
    /// fire at each of `cycles`, drawn a block at a time and polled
    /// densely alike, or its refusal.
    fn replayed(text: &str, radix: usize, cycles: &[u64]) -> Result<Vec<Fired>, (usize, String)> {
        let open = || {
            crate::Replay::open(std::io::Cursor::new(text.to_owned()), radix)
                .map_err(|e| (e.line(), e.message().to_owned()))
        };
        let (mut drawn, mut dense) = (ArrivalSchedule::default(), ArrivalSchedule::default());
        drawn.push_replay(open()?);
        dense.push_replay(open()?);
        let (mut fired, mut polled) = (Vec::new(), Vec::new());
        for &c in cycles {
            let now = Cycle::new(c);
            drawn.advance(now);
            for idx in 0..drawn.len() {
                let input = drawn.input(idx).index();
                let out =
                    |p: crate::PacketIntent| (c, input, p.output.index(), p.class, p.len_flits);
                if drawn.due(idx / 64) >> (idx % 64) & 1 == 1 {
                    fired.push(out(drawn.take(idx)));
                }
                polled.extend(dense.poll_dense(idx, now).map(out));
            }
        }
        assert_eq!(fired, polled, "{text:?}");
        assert_eq!(drawn.replay_error(), None, "{text:?}");
        assert_eq!(dense.replay_error(), None, "{text:?}");
        Ok(fired)
    }

    /// The replay and the parse path agree on the corruption corpus of
    /// [`corrupted_traces_never_panic_and_errors_carry_real_lines`].
    #[test]
    fn reader_matches_the_parse_path_on_corrupted_traces() {
        let rendered = SAMPLE.parse::<TraceFile>().unwrap().to_string();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xFA_075);
        for _ in 0..500 {
            let text = corrupted(&mut rng, &rendered);
            let radix = text.parse::<TraceFile>().map_or(64, |t| {
                let ports = t
                    .events()
                    .iter()
                    .map(|e| e.input.index().max(e.output.index()));
                ports.max().unwrap_or(0) + 1
            });
            assert_reader_matches(&text, radix, || first_duplicate_line(&text));
        }
    }

    /// The line of the packet a stable sort of `text`'s lines by cycle
    /// meets first whose stream already has a packet in its cycle.
    fn first_duplicate_line(text: &str) -> usize {
        let mut events: Vec<(TraceEvent, usize)> = text
            .lines()
            .enumerate()
            .filter_map(|(idx, line)| {
                let one: TraceFile = line.parse().unwrap();
                one.events().first().map(|&e| (e, idx + 1))
            })
            .collect();
        events.sort_by_key(|(e, _)| e.cycle);
        let mut seen = std::collections::HashSet::new();
        events
            .into_iter()
            .find(|(e, _)| !seen.insert((e.input, e.class, e.cycle)))
            .map_or(0, |(_, line)| line)
    }

    /// `text` with its packet lines stably sorted by cycle, each line
    /// kept as written and the other lines where they were.
    fn sorted_by_cycle(text: &str) -> String {
        let cycle = |line: &str| {
            line.parse::<TraceFile>()
                .ok()
                .and_then(|t| t.events().first().map(|e| e.cycle))
        };
        let mut packets: Vec<&str> = text
            .split_inclusive('\n')
            .filter(|l| cycle(l).is_some())
            .collect();
        packets.sort_by_key(|l| cycle(l));
        let mut packets = packets.into_iter();
        text.split_inclusive('\n')
            .map(|l| match cycle(l) {
                Some(_) => packets.next().unwrap_or_default(),
                None => l,
            })
            .collect()
    }

    /// A seeded trace in every shape the tokenizer reads: unsorted
    /// lines, comments, blank lines, CRLF, tabs, `+`-signed numbers,
    /// Unicode spaces, and now and then two packets of one stream in
    /// one cycle.
    fn styled_trace(rng: &mut Xoshiro256StarStar) -> String {
        fn space(rng: &mut Xoshiro256StarStar) -> &'static str {
            [" ", "  ", "\t", " \t ", "\u{2003}", "\u{a0}"][rng.index(6)]
        }
        fn number(rng: &mut Xoshiro256StarStar, lo: u64, hi: u64) -> String {
            let n = rng.range(lo, hi);
            if rng.index(8) == 0 {
                format!("+{n}")
            } else {
                n.to_string()
            }
        }
        let mut text = String::new();
        for _ in 0..rng.index(60) {
            match rng.index(16) {
                0 => text.push_str("# a comment, ünïcode\n"),
                1 => text.push_str(" \t\r\n"),
                _ => {
                    let fields = [
                        number(rng, 0, 199),
                        number(rng, 0, 3),
                        number(rng, 0, 3),
                        ["BE", "GB", "GL"][rng.index(3)].to_owned(),
                        number(rng, 1, 8),
                    ];
                    if rng.index(8) == 0 {
                        text.push_str(space(rng));
                    }
                    for (i, field) in fields.iter().enumerate() {
                        if i > 0 {
                            text.push_str(space(rng));
                        }
                        text.push_str(field);
                    }
                    text.push_str(if rng.index(4) == 0 { "\r\n" } else { "\n" });
                }
            }
        }
        text
    }

    /// The replay and `from_str` + `into_injectors` fire the same
    /// packets, or refuse the same duplicate (the replay naming its
    /// line), on seeded traces of every shape, unsorted and sorted.
    #[test]
    fn reader_matches_the_parse_path_on_styled_traces() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0033);
        let (mut replayed, mut refused, mut unsorted) = (0, 0, 0);
        for _ in 0..400 {
            let text = styled_trace(&mut rng);
            assert_reader_matches(&text, 4, || first_duplicate_line(&text));
            let sorted = sorted_by_cycle(&text);
            assert_reader_matches(&sorted, 4, || first_duplicate_line(&sorted));
            match text.parse::<TraceFile>().unwrap().into_injectors() {
                Ok(_) => replayed += 1,
                Err(_) => refused += 1,
            }
            unsorted += u32::from(sorted != text);
        }
        // Both outcomes are exercised, on unsorted files as well.
        assert!(
            replayed > 50 && refused > 50 && unsorted > 200,
            "{replayed} replayed, {refused} refused, {unsorted} unsorted"
        );
    }

    /// `Replay::open` of `bytes` at radix `radix`.
    fn open(bytes: &[u8], radix: usize) -> Result<crate::Replay, ParseTraceError> {
        crate::Replay::open(std::io::Cursor::new(bytes.to_vec()), radix)
    }

    /// The `(line, message)` of `open`'s refusal.
    fn refusal(bytes: &[u8], radix: usize) -> (usize, String) {
        let e = open(bytes, radix).unwrap_err();
        (e.line(), e.message().to_owned())
    }

    /// Each refusal reads the same whether the file is sorted or turns
    /// unsorted before the refused line.
    #[test]
    fn reader_refuses_ports_outside_the_radix_and_long_packets() {
        for head in ["", "5 0 1 GB 2\n3 0 1 GB 2\n"] {
            let err = |text: &str| {
                let (line, message) = refusal(format!("{head}{text}").as_bytes(), 8);
                (line - head.lines().count(), message)
            };
            assert_eq!(err("0 9 3 GB 8"), (1, "input 9 is outside radix 8".into()));
            assert_eq!(
                err("\n0 1 8 GB 8"),
                (2, "output 8 is outside radix 8".into())
            );
            assert_eq!(
                err("0 1 3 GB 1025"),
                (1, "packet length 1025 flits outside 1..=1024".into())
            );
            assert!(open(format!("{head}0 1 3 GB 1024").as_bytes(), 8).is_ok());
            // A non-UTF-8 byte is refused wherever it is, comments included.
            let bytes = [head.as_bytes(), b"0 1 3 GB 8\n# caf\xe9\n"].concat();
            let (line, message) = refusal(&bytes, 8);
            assert_eq!(
                (line - head.lines().count(), &*message),
                (2, "not valid UTF-8")
            );
        }
        assert!("0 1 3 GB 1025".parse::<TraceFile>().is_err());
    }

    /// Lines just outside the fast path's shape read as the general
    /// rules read them: `Ok(cycle)` or the error message.
    #[test]
    fn lines_outside_the_fast_path_follow_the_general_rules() {
        let read = |line: &str| {
            line.parse::<TraceFile>()
                .map(|t| t.events()[0].cycle)
                .map_err(|e| e.message().to_owned())
        };
        assert_eq!(read("+7 1 2 GB 8"), Ok(7));
        assert_eq!(read("7\u{a0}1 2\u{2003}GB 8"), Ok(7));
        assert_eq!(read("07 1 2 GB 008"), Ok(7));
        assert_eq!(
            read("10000000000000000000 1 2 GB 8"),
            Ok(10_000_000_000_000_000_000)
        );
        assert_eq!(
            read("18446744073709551616 1 2 GB 8"),
            Err("invalid cycle \"18446744073709551616\"".into())
        );
        assert_eq!(read("7+1 2 GB 8"), Err("expected 5 fields, found 4".into()));
        assert_eq!(
            read("7 1 2 GB 8 9"),
            Err("expected 5 fields, found 6".into())
        );
        assert_eq!(
            read("7 1 2 GBX 8"),
            Err("unknown class \"GBX\" (expected BE, GB, or GL)".into())
        );
        assert_eq!(
            read("7 1 2 gb 8"),
            Err("unknown class \"gb\" (expected BE, GB, or GL)".into())
        );
        assert_eq!(read("7 1 -2 GB 8"), Err("invalid output \"-2\"".into()));
    }

    #[test]
    fn reader_names_the_earliest_duplicate_in_an_unsorted_file() {
        let text = "9 0 1 GB 2\n5 0 1 GB 2\n9 0 2 GB 2\n5 0 3 GB 2\n3 1 1 BE 2\n";
        assert_eq!(
            refusal(text.as_bytes(), 4),
            (4, "input In0 injects two GB packets at cycle 5".into())
        );
        // A later syntax error wins, as it does in the parse path.
        let broken = format!("{text}bogus\n");
        assert_eq!(refusal(broken.as_bytes(), 4).0, 6);
    }

    #[test]
    fn sequence_dest_pops_in_order() {
        let mut p = SequenceDest::new(VecDeque::from(vec![OutputId::new(3), OutputId::new(1)]));
        assert_eq!(p.dest(InputId::new(0)), OutputId::new(3));
        assert_eq!(p.dest(InputId::new(0)), OutputId::new(1));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn sequence_dest_exhaustion_is_a_bug() {
        let mut p = SequenceDest::new(VecDeque::new());
        let _ = p.dest(InputId::new(0));
    }
}
