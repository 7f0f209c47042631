//! A trace file opened for replay: checked once, then read into the
//! arrival schedule one block at a time.

use std::fmt;
use std::io::{BufRead, Cursor, Seek};

use ssq_types::{InputId, OutputId, TrafficClass};

use crate::trace_file::{check_ports, slot, two_packets, Lines};
use crate::{ParseTraceError, TraceEvent, TraceFile};

/// A trace file checked for replay into a switch
/// ([`ArrivalSchedule::push_replay`](crate::ArrivalSchedule::push_replay)).
///
/// [`Replay::open`] reads the file once, tokenizing each line and
/// keeping one cycle per `(input, class)` stream. A file sorted by cycle
/// is then rewound and read again during the run, one 64-cycle block at
/// a time, so replay memory is bounded by a block, not by the file. An
/// unsorted file is read again and sorted by cycle in memory, and the
/// run reads that copy the same way. Either way the switch gets one
/// injector per non-empty `(input, class)` stream, in `(input, class)`
/// order, replaying the packets exactly as
/// [`TraceFile::into_injectors`] builds them.
///
/// # Examples
///
/// ```
/// use std::io::Cursor;
/// use ssq_traffic::Replay;
///
/// // Not sorted by cycle: sorted in memory, then replayed alike.
/// let text = "17 2 5 GB 8\n0 2 5 GB 8\n40 0 5 GL 1\n";
/// let _replay = Replay::open(Cursor::new(text), 8)?;
///
/// let err = Replay::open(Cursor::new(text), 4).unwrap_err();
/// assert_eq!((err.line(), err.message()), (1, "output 5 is outside radix 4"));
/// # Ok::<(), ssq_traffic::ParseTraceError>(())
/// ```
#[derive(Debug)]
pub struct Replay {
    feed: Feed,
    /// The cycle and line of the earliest packet.
    first: Option<(u64, usize)>,
}

impl Replay {
    /// Checks the trace `reader` holds for a radix-`radix` switch and
    /// rewinds it for the run; an unsorted one is read again instead and
    /// sorted by cycle in memory.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] naming the 1-based line of the first
    /// line the tokenizer refuses, that cannot be read or that names a
    /// port outside `radix`; failing those, of the second of two packets
    /// one stream injects in one cycle (the earliest such cycle, then
    /// file order). A rewind that fails names line 1.
    pub fn open<R>(reader: R, radix: usize) -> Result<Replay, ParseTraceError>
    where
        R: BufRead + Seek + Send + Sync + 'static,
    {
        let mut check = Check::new(radix)?;
        let mut lines = Lines::new(reader);
        let sorted = loop {
            match next_packet(&mut lines, radix)? {
                None => break true,
                Some(e) if !check.push(&e, lines.line()) => break false,
                Some(_) => {}
            }
        };
        let mut reader = lines.into_inner();
        reader
            .rewind()
            .map_err(|e| ParseTraceError::new(1, format!("rewinding: {e}")))?;
        if sorted {
            return check.into_replay(Box::new(reader), radix);
        }
        let mut lines = Lines::new(reader);
        let mut packets = Vec::new();
        while let Some(e) = next_packet(&mut lines, radix)? {
            packets.push((e, lines.line()));
        }
        packets.sort_by_key(|(e, _)| e.cycle);
        let mut check = Check::new(radix)?;
        for (e, line) in &packets {
            check.push(e, *line);
        }
        let sorted = TraceFile::from_events(packets.into_iter().map(|(e, _)| e).collect());
        let text = Cursor::new(sorted.to_string().into_bytes());
        check.into_replay(Box::new(text), radix)
    }

    /// The feed, stopped if the first packet's cycle is before `cursor`,
    /// the first cycle the schedule will step.
    pub(crate) fn into_feed(self, cursor: u64) -> Feed {
        let mut feed = self.feed;
        if let Some((cycle, line)) = self.first.filter(|&(cycle, _)| cycle < cursor) {
            feed.stop(ParseTraceError::new(
                line,
                format!(
                    "the replay was added at cycle {cursor}, after this packet's cycle {cycle}"
                ),
            ));
        }
        feed
    }
}

/// The next packet line's event, refused if it names a port outside
/// `radix`.
fn next_packet<R: BufRead>(
    lines: &mut Lines<R>,
    radix: usize,
) -> Result<Option<TraceEvent>, ParseTraceError> {
    let event = lines.next_event()?;
    if let Some(e) = &event {
        check_ports(e, radix, lines.line())?;
    }
    Ok(event)
}

/// The check of a trace's packets in cycle order: one packet per
/// `(input, class)` stream per cycle.
struct Check {
    /// Per stream slot, the cycle of its last packet so far.
    last: Vec<Option<u64>>,
    /// The cycle of the last packet.
    cycle: u64,
    packets: u64,
    /// The cycle and line of the first packet.
    first: Option<(u64, usize)>,
    /// The first packet whose stream already has one in its cycle, as
    /// `(cycle, line, slot)`.
    duplicate: Option<(u64, usize, usize)>,
}

impl Check {
    fn new(radix: usize) -> Result<Self, ParseTraceError> {
        let no_room = || ParseTraceError::new(0, format!("no room for {radix} input streams"));
        let slots = radix.checked_mul(3).ok_or_else(no_room)?;
        let mut last = Vec::new();
        last.try_reserve_exact(slots).map_err(|_| no_room())?;
        last.resize(slots, None);
        Ok(Check {
            last,
            cycle: 0,
            packets: 0,
            first: None,
            duplicate: None,
        })
    }

    /// Checks packet `e`, read from `line`; `false`, checking nothing,
    /// when its cycle is before the last packet's.
    fn push(&mut self, e: &TraceEvent, line: usize) -> bool {
        if e.cycle < self.cycle {
            return false;
        }
        self.cycle = e.cycle;
        self.packets += 1;
        self.first.get_or_insert((e.cycle, line));
        let slot = slot(e);
        if self.last[slot] == Some(e.cycle) {
            self.duplicate.get_or_insert((e.cycle, line, slot));
        }
        self.last[slot] = Some(e.cycle);
        true
    }

    /// The replay of the checked packets, which `reader` holds in cycle
    /// order, or the refusal of the first duplicate.
    fn into_replay(
        self,
        reader: Box<dyn BufRead + Send + Sync>,
        radix: usize,
    ) -> Result<Replay, ParseTraceError> {
        if let Some((cycle, line, slot)) = self.duplicate {
            return Err(two_packets(cycle, line, slot));
        }
        let streams = (0..self.last.len())
            .filter(|&s| self.last[s].is_some())
            .collect();
        Ok(Replay {
            feed: Feed::new(reader, radix, streams, self.packets),
            first: self.first,
        })
    }
}

/// The lines of a sorted trace, read one window of cycles at a time:
/// the arrival schedule's bulk feeder. Each packet is filed under its
/// stream's lane; the schedule sets the lane's due bit as it is read.
///
/// The run reads the file a second time, and checks it as it goes: a
/// line that no longer reads as it did, or an I/O error, stops the feed
/// (no further packet arrives) and is kept as [`Feed::error`].
pub(crate) struct Feed {
    lines: Lines<Box<dyn BufRead + Send + Sync>>,
    radix: usize,
    /// The stream slot (`input × 3 + class priority`) of each lane,
    /// ascending.
    pub(crate) streams: Vec<usize>,
    /// Per stream slot, its lane, or `usize::MAX` for a stream the
    /// check found empty.
    lane_of: Vec<usize>,
    /// The window filled last: cycles `from..to`.
    from: u64,
    to: u64,
    /// Per lane, the cycle of its last packet filed; `u64::MAX` before
    /// the first.
    last: Vec<u64>,
    /// `(len_flits, output)` of lane `l`'s packet in cycle `from + t`,
    /// at `64 l + t`.
    packets: Vec<(u64, OutputId)>,
    /// Lanes whose next packet's cycle had passed when a window first
    /// reached it: silent from then on, as a [`crate::Trace`] is.
    silent: Vec<bool>,
    /// The first packet past the window, read ahead: the event, its
    /// lane and its line.
    next: Option<(TraceEvent, usize, usize)>,
    /// The cycle of the last packet line read.
    cycle: u64,
    /// Packets the check counted, and the run has read so far.
    expected: u64,
    read: u64,
    error: Option<ParseTraceError>,
}

impl Feed {
    fn new(
        reader: Box<dyn BufRead + Send + Sync>,
        radix: usize,
        streams: Vec<usize>,
        expected: u64,
    ) -> Self {
        let mut lane_of = vec![usize::MAX; radix * 3];
        for (lane, &slot) in streams.iter().enumerate() {
            lane_of[slot] = lane;
        }
        let lanes = streams.len();
        let mut feed = Feed {
            lines: Lines::new(reader),
            radix,
            streams,
            lane_of,
            from: 0,
            to: 0,
            last: vec![u64::MAX; lanes],
            packets: vec![(0, OutputId::new(0)); 64 * lanes],
            silent: vec![false; lanes],
            next: None,
            cycle: 0,
            expected,
            read: 0,
            error: None,
        };
        feed.next = feed.read();
        feed
    }

    /// The input port and class of lane `lane`'s stream.
    pub(crate) fn stream(&self, lane: usize) -> (InputId, TrafficClass) {
        let slot = self.streams[lane];
        (InputId::new(slot / 3), TrafficClass::ALL[slot % 3])
    }

    /// The first line of the run that no longer read as the check read
    /// it, or could not be read.
    pub(crate) fn error(&self) -> Option<&ParseTraceError> {
        self.error.as_ref()
    }

    /// Reads the packets of cycles `from..to` (at most 64; none when
    /// `to <= from`), filing each and calling `arrive(lane, cycle)` —
    /// one of an earlier cycle silences its lane instead — and reads
    /// ahead the first packet past them.
    pub(crate) fn fill(&mut self, from: u64, to: u64, mut arrive: impl FnMut(usize, u64)) {
        let to = to.max(from);
        debug_assert!(to - from <= 64, "a window is at most a block");
        (self.from, self.to) = (from, to);
        while let Some((e, lane, line)) = self.next.filter(|(e, ..)| e.cycle < to) {
            if e.cycle < from {
                self.silent[lane] = true;
            } else if self.last[lane] == e.cycle {
                self.stop(two_packets(e.cycle, line, self.streams[lane]));
                return;
            } else {
                self.last[lane] = e.cycle;
                self.packets[64 * lane + (e.cycle - from) as usize] = (e.len_flits, e.output);
                arrive(lane, e.cycle);
            }
            self.next = self.read();
        }
    }

    /// `(len_flits, output)` of lane `lane`'s packet in `cycle`, which
    /// the window filled last holds.
    pub(crate) fn packet(&self, lane: usize, cycle: u64) -> (u64, OutputId) {
        self.packets[64 * lane + (cycle - self.from) as usize]
    }

    /// Dense form: lane `lane`'s packet in `now`, reading the file up to
    /// `now` on the first poll of a cycle. Cycles ascend.
    pub(crate) fn poll(&mut self, lane: usize, now: u64) -> Option<(u64, OutputId)> {
        if now >= self.to {
            self.fill(now, now.saturating_add(1), |_, _| {});
        }
        debug_assert!((self.from..self.to).contains(&now), "dense polls ascend");
        (self.last[lane] == now).then(|| self.packet(lane, now))
    }

    /// The cycle of the first packet past the window; `u64::MAX` when
    /// there is none.
    pub(crate) fn next_cycle(&self) -> u64 {
        self.next.map_or(u64::MAX, |(e, ..)| e.cycle)
    }

    /// The next packet of a lane still replaying, checked against what
    /// [`Replay::open`] read; `None` at the end of the file or once the
    /// feed has stopped.
    fn read(&mut self) -> Option<(TraceEvent, usize, usize)> {
        while self.error.is_none() {
            let e = match self.lines.next_event() {
                Ok(Some(e)) => e,
                Ok(None) if self.read == self.expected => return None,
                Ok(None) => {
                    let line = self.lines.line() + 1;
                    self.stop(changed(line, "it ends before the packets it held"));
                    return None;
                }
                Err(e) => {
                    self.stop(e);
                    return None;
                }
            };
            let line = self.lines.line();
            self.read += 1;
            let previous = std::mem::replace(&mut self.cycle, e.cycle);
            let lane = check_ports(&e, self.radix, line).map(|()| self.lane_of[slot(&e)]);
            let refusal = match lane {
                Err(e) => e,
                Ok(_) if self.read > self.expected => {
                    changed(line, "it holds more packets than it did")
                }
                Ok(_) if e.cycle < previous => {
                    changed(line, &format!("cycle {} follows cycle {previous}", e.cycle))
                }
                Ok(usize::MAX) => changed(
                    line,
                    &format!("input {} had no {} packet", e.input, e.class),
                ),
                Ok(lane) if self.silent[lane] => continue,
                Ok(lane) => return Some((e, lane, line)),
            };
            self.stop(refusal);
        }
        None
    }

    /// Ends the feed on `error`: no further packet arrives.
    fn stop(&mut self, error: ParseTraceError) {
        self.error.get_or_insert(error);
        self.next = None;
    }
}

/// A run-time refusal of `line`: the file no longer reads as it did
/// when [`Replay::open`] checked it.
fn changed(line: usize, what: &str) -> ParseTraceError {
    ParseTraceError::new(
        line,
        format!("the file changed after it was checked: {what}"),
    )
}

impl fmt::Debug for Feed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Feed")
            .field("lanes", &self.streams.len())
            .field("window", &(self.from..self.to))
            .field("line", &self.lines.line())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, Cursor, Read, SeekFrom};

    use ssq_types::Cycle;

    use super::*;
    use crate::ArrivalSchedule;

    /// A file that reads as `before` until it is rewound, then as
    /// `after`, failing once `fail_at` bytes of it have been read.
    struct Changing {
        before: Cursor<Vec<u8>>,
        after: Cursor<Vec<u8>>,
        rewound: bool,
        fail_at: u64,
    }

    impl Read for Changing {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.rewound {
                return self.before.read(buf);
            }
            let left = self.fail_at.saturating_sub(self.after.position());
            if left == 0 {
                return Err(std::io::Error::other("the disk went away"));
            }
            let n = buf.len().min(usize::try_from(left).unwrap_or(usize::MAX));
            self.after.read(&mut buf[..n])
        }
    }

    impl Seek for Changing {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.rewound = true;
            self.after.seek(pos)
        }
    }

    const CHECKED: &str = "0 0 1 GB 2\n5 1 2 BE 3\n70 0 1 GB 2\n140 2 3 GL 1\n";

    /// The `(cycle, input)` of each packet that arrived, and the fault
    /// the run met as `(line, message)`.
    type Run = (Vec<(u64, usize)>, Option<(usize, String)>);

    /// Replays `CHECKED` rewound into `after` on a radix-4 schedule
    /// stepped over cycles 0..300.
    fn run_changed(after: &str, fail_at: u64) -> Run {
        let file = Changing {
            before: Cursor::new(CHECKED.into()),
            after: Cursor::new(after.into()),
            rewound: false,
            fail_at,
        };
        run(Replay::open(BufReader::with_capacity(16, file), 4).expect("checked"))
    }

    /// Replays `replay` on a radix-4 schedule stepped over cycles 0..300.
    fn run(replay: Replay) -> Run {
        let mut schedule = ArrivalSchedule::default();
        schedule.push_replay(replay);
        let mut arrived = Vec::new();
        for c in 0..300 {
            schedule.advance(Cycle::new(c));
            for idx in 0..schedule.len() {
                if schedule.due(0) >> idx & 1 == 1 {
                    let _ = schedule.take(idx);
                    arrived.push((c, schedule.input(idx).index()));
                }
            }
        }
        let error = schedule.replay_error();
        (arrived, error.map(|e| (e.line(), e.message().to_owned())))
    }

    /// A file whose every other read is interrupted.
    struct Interrupted {
        inner: Cursor<Vec<u8>>,
        now: bool,
    }

    impl Read for Interrupted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.now = !self.now;
            if self.now {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    impl Seek for Interrupted {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    /// An unchanged file replays whole, and an interrupted read is
    /// retried, on the check and in the run.
    #[test]
    fn an_unchanged_file_replays_whole() {
        let whole = [(0, 0), (5, 1), (70, 0), (140, 2)];
        assert_eq!(run_changed(CHECKED, u64::MAX), (whole.into(), None));
        let file = Interrupted {
            inner: Cursor::new(CHECKED.into()),
            now: false,
        };
        let replay = Replay::open(BufReader::with_capacity(8, file), 4).expect("checked");
        assert_eq!(run(replay), (whole.into(), None));
    }

    /// A line that no longer reads as the check read it ends the replay
    /// there: the packets before it arrive, none after, and the fault
    /// names its line.
    #[test]
    fn a_file_changed_after_the_check_stops_at_the_changed_line() {
        let changed = |what: &str| format!("the file changed after it was checked: {what}");
        let cases: [(&str, usize, String); 6] = [
            (
                "0 0 1 GB 2\n5 1 2 BE 3\n70 0 1 GB x\n",
                3,
                "invalid length \"x\"".into(),
            ),
            (
                "0 0 1 GB 2\n5 1 2 BE 3\n70 9 1 GB 2\n",
                3,
                "input 9 is outside radix 4".into(),
            ),
            (
                "0 0 1 GB 2\n5 1 2 BE 3\n70 3 1 GB 2\n",
                3,
                changed("input In3 had no GB packet"),
            ),
            (
                "0 0 1 GB 2\n5 1 2 BE 3\n1 0 1 GB 2\n",
                3,
                changed("cycle 1 follows cycle 5"),
            ),
            (
                "0 0 1 GB 2\n5 1 2 BE 3\n5 1 2 BE 3\n",
                3,
                "input In1 injects two BE packets at cycle 5".into(),
            ),
            (
                "0 0 1 GB 2\n5 1 2 BE 3\n",
                3,
                changed("it ends before the packets it held"),
            ),
        ];
        for (after, line, message) in cases {
            let (arrived, error) = run_changed(after, u64::MAX);
            assert_eq!(arrived, [(0, 0), (5, 1)], "{after:?}");
            assert_eq!(error, Some((line, message)), "{after:?}");
        }
        let longer = format!("{CHECKED}200 0 1 GB 2\n");
        let (arrived, error) = run_changed(&longer, u64::MAX);
        assert_eq!(arrived, [(0, 0), (5, 1), (70, 0), (140, 2)]);
        assert_eq!(
            error,
            Some((5, changed("it holds more packets than it did")))
        );
    }

    #[test]
    fn a_read_that_fails_during_the_run_stops_the_replay() {
        let (arrived, error) = run_changed(CHECKED, 25);
        assert_eq!(arrived, [(0, 0), (5, 1)]);
        assert_eq!(error, Some((3, "reading: the disk went away".to_owned())));
    }

    /// A replay added after its first packet's cycle has passed is
    /// refused whole, naming that packet's line in the file (in an
    /// unsorted file too) and both cycles; one added in time replays.
    #[test]
    fn a_replay_pushed_late_is_refused() {
        let unsorted = "70 0 1 GB 2\n5 1 2 BE 3\n140 2 3 GL 1\n";
        let late = |cycle: u64| {
            format!("the replay was added at cycle 6, after this packet's cycle {cycle}")
        };
        for (text, pushed_at, want) in [
            (CHECKED, 6, (vec![], Some((1, late(0))))),
            (unsorted, 6, (vec![], Some((2, late(5))))),
            (unsorted, 5, (vec![(5, 1), (70, 0), (140, 2)], None)),
        ] {
            let mut schedule = ArrivalSchedule::default();
            schedule.advance(Cycle::new(0));
            schedule.skip_to(Cycle::new(pushed_at));
            let replay = Replay::open(Cursor::new(text), 4).expect("checked");
            schedule.push_replay(replay);
            let mut arrived = Vec::new();
            for c in pushed_at..300 {
                schedule.advance(Cycle::new(c));
                for idx in 0..schedule.len() {
                    if schedule.due(0) >> idx & 1 == 1 {
                        let _ = schedule.take(idx);
                        arrived.push((c, schedule.input(idx).index()));
                    }
                }
            }
            let error = schedule.replay_error();
            let error = error.map(|e| (e.line(), e.message().to_owned()));
            assert_eq!((arrived, error), want, "{text:?} at {pushed_at}");
        }
    }
}
