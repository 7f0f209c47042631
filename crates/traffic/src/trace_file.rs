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
//! them. There are two ways in:
//! - `text.parse::<TraceFile>()` then [`TraceFile::into_injectors`],
//!   which keeps the events for editing ([`TraceFile::merged`],
//!   [`TraceFile::window`], ...). One stream builder groups them into
//!   per-stream schedules, each an [`Injector`] of a [`Trace`] source and
//!   a [`SequenceDest`] pattern that replays the recorded destinations
//!   in order.
//! - [`Replay::open`](crate::Replay::open), the replay path (`ssq
//!   simulate --replay`), which never holds the text or the events. One
//!   tokenize-only pass checks the file, refusing a port outside the
//!   switch radix too, and finds whether it is sorted by cycle. A sorted
//!   file is rewound and read again during the run, one 64-cycle block
//!   at a time, straight into the switch's arrival schedule; an unsorted
//!   one goes line by line into the stream builder.
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
        let mut streams = Streams::new(inputs)?;
        for e in &self.events {
            streams.push(e, 0);
        }
        streams.into_injectors()
    }

    /// Reads a trace line by line and returns its injectors, exactly as
    /// `text.parse::<TraceFile>()?.into_injectors()` would, without
    /// holding the text or the events: each line goes straight into its
    /// `(input, class)` stream. [`Replay::open`](crate::Replay::open)
    /// builds an unsorted file's injectors here.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] naming the 1-based line of the first
    /// line the tokenizer refuses, that cannot be read or that names a
    /// port outside `radix`; failing those, of the second of two packets
    /// one stream injects in one cycle (the earliest such cycle, then
    /// file order).
    pub(crate) fn read_injectors(
        reader: impl BufRead,
        radix: usize,
    ) -> Result<Vec<Injector>, ParseTraceError> {
        let mut streams = Streams::new(radix)?;
        let mut lines = Lines::new(reader);
        while let Some(event) = lines.next_event()? {
            check_ports(&event, radix, lines.line())?;
            streams.push(&event, lines.line());
        }
        streams.into_injectors()
    }
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

/// The per-`(input, class)` replay streams of a trace, filled one packet
/// at a time. Slot `input × 3 + class priority`, so the injectors come
/// out in `(input, class)` order: injector index order is part of every
/// report.
struct Streams {
    slots: Vec<Stream>,
    /// The packet a stable sort of the whole trace by cycle meets first
    /// among those whose stream already has a packet in their cycle, as
    /// `(cycle, line, slot)`.
    duplicate: Option<(u64, usize, usize)>,
}

/// One `(input, class)` stream, in arrival order until
/// [`Streams::into_injectors`] sorts it.
#[derive(Default)]
struct Stream {
    /// `(cycle, len_flits)`, one per packet.
    schedule: Vec<(u64, u64)>,
    dests: Vec<OutputId>,
    /// Once a packet arrives before its predecessor: its index, and the
    /// lines of it and of every later packet, which the sort needs to
    /// name a duplicate. Duplicates before it were noted on arrival.
    unsorted: Option<(usize, Vec<usize>)>,
}

impl Streams {
    fn new(inputs: usize) -> Result<Self, ParseTraceError> {
        let too_many = || ParseTraceError::new(0, format!("no room for {inputs} input streams"));
        let len = inputs.checked_mul(3).ok_or_else(too_many)?;
        let mut slots = Vec::new();
        slots.try_reserve_exact(len).map_err(|_| too_many())?;
        slots.resize_with(len, Stream::default);
        Ok(Streams {
            slots,
            duplicate: None,
        })
    }

    /// Appends `e`, read from `line`, to its stream. Its input must be
    /// below the `inputs` the builder was made for.
    fn push(&mut self, e: &TraceEvent, line: usize) {
        let slot = slot(e);
        let stream = &mut self.slots[slot];
        let last = stream.schedule.last().map(|&(cycle, _)| cycle);
        match &mut stream.unsorted {
            Some((_, lines)) => lines.push(line),
            None if last.is_some_and(|last| e.cycle < last) => {
                stream.unsorted = Some((stream.schedule.len(), vec![line]));
            }
            None => {}
        }
        stream.schedule.push((e.cycle, e.len_flits));
        stream.dests.push(e.output);
        if stream.unsorted.is_none() && last == Some(e.cycle) {
            self.note_duplicate(e.cycle, line, slot);
        }
    }

    fn note_duplicate(&mut self, cycle: u64, line: usize, slot: usize) {
        if self
            .duplicate
            .is_none_or(|(c, l, _)| (cycle, line) < (c, l))
        {
            self.duplicate = Some((cycle, line, slot));
        }
    }

    fn into_injectors(mut self) -> Result<Vec<Injector>, ParseTraceError> {
        for slot in 0..self.slots.len() {
            if let Some(duplicate) = self.slots[slot].sort() {
                self.note_duplicate(duplicate.0, duplicate.1, slot);
            }
        }
        if let Some((cycle, line, slot)) = self.duplicate {
            return Err(two_packets(cycle, line, slot));
        }
        Ok(self
            .slots
            .into_iter()
            .enumerate()
            .filter(|(_, stream)| !stream.schedule.is_empty())
            .map(|(slot, stream)| {
                Injector::new(
                    Box::new(Trace::new(stream.schedule)),
                    Box::new(SequenceDest::new(stream.dests.into())),
                    TrafficClass::ALL[slot % 3],
                )
                .for_input(InputId::new(slot / 3))
            })
            .collect())
    }
}

impl Stream {
    /// Sorts an out-of-order stream stably by cycle. Returns the
    /// earliest `(cycle, line)` of a packet that follows one of its
    /// cycle in file order, among those whose line was kept.
    fn sort(&mut self) -> Option<(u64, usize)> {
        let (from, lines) = self.unsorted.take()?;
        let mut order: Vec<usize> = (0..self.schedule.len()).collect();
        order.sort_by_key(|&i| self.schedule[i].0);
        let duplicate = order
            .windows(2)
            .filter(|pair| pair[1] >= from && self.schedule[pair[0]].0 == self.schedule[pair[1]].0)
            .map(|pair| (self.schedule[pair[1]].0, lines[pair[1] - from]))
            .min();
        self.schedule = order.iter().map(|&i| self.schedule[i]).collect();
        self.dests = order.iter().map(|&i| self.dests[i]).collect();
        duplicate
    }
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

    /// The reader and the replay path against the parse-then-convert
    /// path on one text: the same injectors, or the same refusal. A
    /// duplicate, which `into_injectors` can only place on line 0, must
    /// name `dup_line`.
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
        let read = TraceFile::read_injectors(text.as_bytes(), radix);
        let refusal = |e: &ParseTraceError| (e.line(), e.message().to_owned());
        let trace = match text.parse::<TraceFile>() {
            Ok(trace) => trace,
            Err(e) => {
                let got = read.err().unwrap_or_else(|| panic!("reader took {text:?}"));
                assert_eq!(refusal(&got), refusal(&e), "{text:?}");
                assert_eq!(replayed(text, radix, &[]), Err(refusal(&e)), "{text:?}");
                return;
            }
        };
        let cycles = cycles_of(&trace);
        let replay = replayed(text, radix, &cycles);
        match (trace.into_injectors(), read) {
            (Ok(old), Ok(new)) => {
                let old = fired(old, &cycles);
                assert_eq!(old, fired(new, &cycles), "{text:?}");
                assert_eq!(Ok(old), replay, "{text:?}");
            }
            (Err(old), Err(new)) => {
                assert_eq!(old.line(), 0);
                assert_eq!(new.message(), old.message(), "{text:?}");
                assert_eq!(new.line(), dup_line(), "{text:?}");
                assert_eq!(replay, Err(refusal(&new)), "{text:?}");
            }
            (old, new) => panic!(
                "{text:?}: parse path {:?}, reader {:?}",
                old.err(),
                new.err()
            ),
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

    /// The reader and the parse path agree on the corruption corpus of
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

    /// The reader and `from_str` + `into_injectors` fire the same
    /// packets, or refuse the same duplicate (the reader naming its
    /// line), on seeded traces of every shape.
    #[test]
    fn reader_matches_the_parse_path_on_styled_traces() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0033);
        let (mut replayed, mut refused, mut streamed) = (0, 0, 0);
        for _ in 0..400 {
            let text = styled_trace(&mut rng);
            assert_reader_matches(&text, 4, || first_duplicate_line(&text));
            let sorted = sorted_by_cycle(&text);
            assert_reader_matches(&sorted, 4, || first_duplicate_line(&sorted));
            let replay = crate::Replay::open(std::io::Cursor::new(sorted), 4);
            streamed += u32::from(replay.is_ok_and(|r| r.is_streamed()));
            match text.parse::<TraceFile>().unwrap().into_injectors() {
                Ok(_) => replayed += 1,
                Err(_) => refused += 1,
            }
        }
        // Both outcomes are exercised, and sorted files replay streamed.
        assert!(
            replayed > 50 && refused > 50 && streamed > 50,
            "{replayed} replayed, {refused} refused, {streamed} streamed"
        );
    }

    #[test]
    fn reader_refuses_ports_outside_the_radix_and_long_packets() {
        let err = |text: &str| {
            let e = TraceFile::read_injectors(text.as_bytes(), 8).unwrap_err();
            (e.line(), e.message().to_owned())
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
        assert!("0 1 3 GB 1025".parse::<TraceFile>().is_err());
        assert!(TraceFile::read_injectors("0 1 3 GB 1024".as_bytes(), 8).is_ok());
        // A non-UTF-8 byte is refused wherever it is, comments included.
        let bytes: &[u8] = b"0 1 3 GB 8\n# caf\xe9\n";
        let e = TraceFile::read_injectors(bytes, 8).unwrap_err();
        assert_eq!((e.line(), e.message()), (2, "not valid UTF-8"));
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
        let e = TraceFile::read_injectors(text.as_bytes(), 4).unwrap_err();
        assert_eq!(
            (e.line(), e.message()),
            (4, "input In0 injects two GB packets at cycle 5")
        );
        // A later syntax error wins, as it does in the parse path.
        let broken = format!("{text}bogus\n");
        let e = TraceFile::read_injectors(broken.as_bytes(), 4).unwrap_err();
        assert_eq!(e.line(), 6);
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
