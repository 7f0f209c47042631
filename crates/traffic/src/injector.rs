//! One input port's complete traffic description.

use ssq_types::{Cycle, InputId, OutputId, TrafficClass};

use crate::replay::Feed;
use crate::{DestinationPattern, ParseTraceError, Replay, TrafficSource};

/// A packet the injector wants to create this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketIntent {
    /// Destination output port.
    pub output: OutputId,
    /// QoS class of the packet.
    pub class: TrafficClass,
    /// Packet length in flits.
    pub len_flits: u64,
}

/// Combines an arrival process, a destination pattern, and a QoS class
/// into the traffic of one input port.
///
/// A port can carry several injectors at once (e.g. a saturated GB flow
/// plus an infrequent GL interrupt source). [`Injector::poll`] is the
/// dense form, one source poll per cycle; a switch instead hands its
/// injectors to an [`ArrivalSchedule`], which draws their arrivals a
/// block ahead. One injector is driven one way or the other, not both.
///
/// # Examples
///
/// ```
/// use ssq_traffic::{Injector, Periodic, FixedDest};
/// use ssq_types::{Cycle, OutputId, TrafficClass};
///
/// let mut watchdog = Injector::new(
///     Box::new(Periodic::new(1000, 0, 1)),
///     Box::new(FixedDest::new(OutputId::new(0))),
///     TrafficClass::GuaranteedLatency,
/// );
/// assert!(watchdog.poll(Cycle::new(0)).is_some());
/// assert!(watchdog.poll(Cycle::new(1)).is_none());
/// ```
pub struct Injector {
    source: Box<dyn TrafficSource + Send + Sync>,
    pattern: Box<dyn DestinationPattern + Send + Sync>,
    class: TrafficClass,
    input: InputId,
}

impl Injector {
    /// Creates an injector. The owning input port is attached later with
    /// [`Injector::for_input`] (defaults to input 0). The boxed source
    /// and pattern are `Send + Sync`, so a switch holding injectors is
    /// too. No runner needs that since the sharded engine lost its
    /// decide threads; the bounds stay until an API change drops them.
    #[must_use]
    pub fn new(
        source: Box<dyn TrafficSource + Send + Sync>,
        pattern: Box<dyn DestinationPattern + Send + Sync>,
        class: TrafficClass,
    ) -> Self {
        Injector {
            source,
            pattern,
            class,
            input: InputId::new(0),
        }
    }

    /// Attaches the injector to a specific input port (used by patterns
    /// that depend on the source index, e.g. permutations).
    #[must_use]
    pub fn for_input(mut self, input: InputId) -> Self {
        self.input = input;
        self
    }

    /// The QoS class of the generated packets.
    #[must_use]
    pub const fn class(&self) -> TrafficClass {
        self.class
    }

    /// The input port this injector feeds.
    #[must_use]
    pub const fn input(&self) -> InputId {
        self.input
    }

    /// The long-run offered load, if the underlying source has one.
    #[must_use]
    pub fn offered_load(&self) -> Option<f64> {
        self.source.offered_load()
    }

    /// Polls the arrival process at `now`.
    pub fn poll(&mut self, now: Cycle) -> Option<PacketIntent> {
        let len_flits = self.source.poll(now)?;
        Some(self.intent(len_flits))
    }

    /// Consults the destination pattern for a packet arriving now. The
    /// pattern is only ever asked at the arrival's own cycle, in arrival
    /// order, however far ahead the length was drawn.
    fn intent(&mut self, len_flits: u64) -> PacketIntent {
        PacketIntent {
            output: self.pattern.dest(self.input),
            class: self.class,
            len_flits,
        }
    }
}

/// A switch's injectors and the arrivals drawn ahead for them.
///
/// Instead of polling every source every cycle, the schedule pre-polls
/// each source over a block of 64 cycles — one `u64` arrival word
/// ([`TrafficSource::poll_block`]:
/// same stream, same order, one `dyn` call) and transposes the arrival
/// words into per-cycle *due* words — bit `j` of group `g`'s word for a
/// cycle is set iff injector `64 g + j` has a packet arriving then. A
/// [`Replay`] is fed in bulk instead: at each block draw its feeder
/// reads the file up to the first line past the block and files each
/// line's packet under the line's `(input, class)` injector
/// ([`ArrivalSchedule::push_replay`]). The
/// switch calls [`ArrivalSchedule::advance`] once per cycle, reads the
/// due words and [`ArrivalSchedule::take`]s exactly the due arrivals, in
/// ascending injector order.
///
/// Cycles ascend, and every cycle that holds a drawn arrival must be
/// stepped: the draw already consumed the source's randomness, so a
/// cycle jumped over would lose its packet. [`ArrivalSchedule::advance`]
/// panics on that instead of running on with a different arrival
/// sequence than dense polling produces.
#[derive(Debug)]
pub struct ArrivalSchedule {
    lanes: Vec<Lane>,
    /// The bulk feeders of the replays, each with the index of its first
    /// lane.
    feeds: Vec<(usize, Feed)>,
    /// The drawn block is `base..end`; cycles before `cursor` have been
    /// stepped (or skipped as idle). `base == end` before the first draw.
    base: u64,
    cursor: u64,
    end: u64,
    /// Due words, group-major: `due[64 g + (cycle - base)]`.
    due: Vec<u64>,
    /// Bit `cycle - base` set iff any injector is due in `cycle`.
    any: u64,
    /// Lengths of the block's drawn arrivals, each polled injector's run
    /// in cycle order; `lens[next[idx]]` is injector `idx`'s next one.
    /// One buffer for all, sized at `push` and reused across blocks.
    lens: Vec<u64>,
    next: Vec<usize>,
    /// The earliest arrival at or after `end`, asked of the sources as
    /// the draw left them; `None` when some source cannot predict.
    after: Option<u64>,
}

impl Default for ArrivalSchedule {
    fn default() -> Self {
        ArrivalSchedule {
            lanes: Vec::new(),
            feeds: Vec::new(),
            base: 0,
            cursor: 0,
            end: 0,
            due: Vec::new(),
            any: 0,
            lens: Vec::new(),
            next: Vec::new(),
            // No injector, no arrival, ever.
            after: Some(u64::MAX),
        }
    }
}

impl ArrivalSchedule {
    /// Number of injectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the schedule holds no injector.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The input port injector `idx` feeds.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (as do the other `idx` methods).
    #[must_use]
    pub fn input(&self, idx: usize) -> InputId {
        match &self.lanes[idx] {
            Lane::Polled(injector) => injector.input,
            Lane::Fed { input, .. } => *input,
        }
    }

    /// Adds an injector. Mid-block it is drawn over the rest of the
    /// block only, so its first poll is the next cycle to be stepped —
    /// the same first poll a densely polled injector would get.
    ///
    /// # Panics
    ///
    /// Panics if the injector's source predicts a packet before that
    /// cycle ([`TrafficSource::next_arrival`]): a [`Trace`](crate::Trace)
    /// added after its next event's cycle, which could deliver nothing.
    pub fn push(&mut self, injector: Injector) {
        if let Some(due) = injector.source.next_arrival(Cycle::new(self.cursor)) {
            assert!(
                due.value() >= self.cursor,
                "injector added at cycle {}: its next packet was due at {due}, which has passed",
                self.cursor
            );
        }
        let idx = self.add(Lane::Polled(injector));
        // Room for a packet per injector per cycle of a block, taken
        // here so that no refill ever allocates.
        self.lens
            .reserve((64 * (idx + 1)).saturating_sub(self.lens.len()));
        self.draw(idx);
    }

    /// Adds a replay's injectors, one per non-empty `(input, class)`
    /// stream in `(input, class)` order, drawn from the next cycle to be
    /// stepped as [`ArrivalSchedule::push`] draws one. The replay is read
    /// from here on, a block at a time. A replay whose first packet's
    /// cycle has already passed delivers nothing; neither does the rest
    /// of one whose line no longer reads as [`Replay::open`] read it, or
    /// whose read fails. The refusal is kept as
    /// [`ArrivalSchedule::replay_error`].
    pub fn push_replay(&mut self, replay: Replay) {
        let feed = replay.into_feed(self.cursor);
        let (first, at) = (self.lanes.len(), self.feeds.len());
        for lane in 0..feed.streams.len() {
            let (input, class) = feed.stream(lane);
            self.add(Lane::Fed {
                input,
                class,
                feed: at,
                lane,
            });
        }
        self.feeds.push((first, feed));
        self.fill(at);
    }

    /// The first fault a replay met: its first packet's cycle had passed
    /// when it was added, or a line no longer read as [`Replay::open`]
    /// read it, or could not be read.
    #[must_use]
    pub fn replay_error(&self) -> Option<&ParseTraceError> {
        self.feeds.iter().find_map(|(_, feed)| feed.error())
    }

    /// Appends `lane` undrawn; its index.
    fn add(&mut self, lane: Lane) -> usize {
        let idx = self.lanes.len();
        if idx.is_multiple_of(64) {
            self.due.resize(self.due.len() + 64, 0);
        }
        self.lanes.push(lane);
        self.next.push(0);
        idx
    }

    /// Draws injector `idx` over `cursor..end` and files its arrivals,
    /// if it is polled: a fed one's feed files them.
    fn draw(&mut self, idx: usize) {
        let Lane::Polled(injector) = &mut self.lanes[idx] else {
            return;
        };
        let source = &mut injector.source;
        let first = self.cursor - self.base;
        if self.cursor < self.end {
            // At most 64 cycles, so the narrowing is exact.
            let cycles = (self.end - self.cursor) as u32;
            self.next[idx] = self.lens.len();
            let word = source.poll_block(Cycle::new(self.cursor), cycles, &mut self.lens) << first;
            self.any |= word;
            let row = &mut self.due[idx / 64 * 64..][..64];
            let mut rest = word;
            while rest != 0 {
                row[rest.trailing_zeros() as usize] |= 1 << (idx % 64);
                rest &= rest - 1;
            }
        }
        let next = source.next_arrival(Cycle::new(self.end));
        self.after = self.after.zip(next).map(|(a, t)| a.min(t.value()));
    }

    /// Has feed `f` read its packets of `cursor..end`, setting each one's
    /// due bit.
    fn fill(&mut self, f: usize) {
        let (first, feed) = &mut self.feeds[f];
        let (due, any, base) = (&mut self.due, &mut self.any, self.base);
        feed.fill(self.cursor, self.end, |lane, cycle| {
            let (idx, t) = (*first + lane, cycle - base);
            due[idx / 64 * 64 + t as usize] |= 1 << (idx % 64);
            *any |= 1 << t;
        });
        let next = feed.next_cycle();
        self.after = self.after.map(|a| a.min(next));
    }

    /// Drawn arrivals in `from..to` (clipped to the block), as offsets
    /// from `base`.
    fn due_between(&self, from: u64, to: u64) -> u64 {
        let lo = from.clamp(self.base, self.end) - self.base;
        let hi = to.clamp(self.base, self.end) - self.base;
        if lo >= hi {
            return 0;
        }
        // `hi - lo` is in `1..=64`.
        self.any & (u64::MAX >> (64 - (hi - lo)) << lo)
    }

    /// Moves on to `target` without stepping the cycles before it: they
    /// were skipped as idle ([`ArrivalSchedule::next_arrival`] found
    /// nothing due in them).
    ///
    /// # Panics
    ///
    /// Panics if that loses a drawn arrival, or goes back in time.
    pub fn skip_to(&mut self, target: Cycle) {
        let (to, last) = (target.value(), self.cursor.wrapping_sub(1));
        assert!(
            to >= self.cursor,
            "cycle {to} follows cycle {last}: injectors need ascending cycles"
        );
        let lost = self.due_between(self.cursor, to);
        assert!(
            lost == 0,
            "cycle {to} follows cycle {last}, but cycle {} holds a pre-drawn arrival and \
             was never stepped: injectors need consecutive cycles (gaps only where \
             skip_idle found nothing due)",
            self.base + u64::from(lost.trailing_zeros()),
        );
        self.cursor = to;
    }

    /// Moves to cycle `now`, drawing a new block when `now` lies outside
    /// the current one; [`ArrivalSchedule::due`] then answers for `now`.
    /// Returns whether a block was drawn.
    ///
    /// # Panics
    ///
    /// Panics if `now` jumps over a cycle holding a drawn arrival, or is
    /// not later than the cycle before.
    pub fn advance(&mut self, now: Cycle) -> bool {
        let inside = (self.cursor..self.end).contains(&now.value());
        self.skip_to(now);
        let now = now.value();
        if !inside {
            self.base = now;
            self.end = now.saturating_add(64);
            self.due.fill(0);
            self.any = 0;
            self.lens.clear();
            self.after = Some(u64::MAX);
            for idx in 0..self.lanes.len() {
                self.draw(idx);
            }
            for f in 0..self.feeds.len() {
                self.fill(f);
            }
        }
        self.cursor = now.wrapping_add(1);
        !inside
    }

    /// Group `g`'s due word for the cycle last passed to
    /// [`ArrivalSchedule::advance`].
    #[must_use]
    pub fn due(&self, g: usize) -> u64 {
        // `advance` left `cursor` one past a cycle inside the block.
        self.due[g * 64 + (self.cursor.wrapping_sub(1) - self.base) as usize]
    }

    /// The arrival injector `idx` is due this cycle. Call once per set
    /// bit of [`ArrivalSchedule::due`], in ascending order.
    pub fn take(&mut self, idx: usize) -> PacketIntent {
        match &mut self.lanes[idx] {
            Lane::Polled(injector) => {
                let len_flits = self.lens[self.next[idx]];
                self.next[idx] += 1;
                injector.intent(len_flits)
            }
            &mut Lane::Fed {
                class, feed, lane, ..
            } => {
                let (len_flits, output) = self.feeds[feed].1.packet(lane, self.cursor - 1);
                PacketIntent {
                    output,
                    class,
                    len_flits,
                }
            }
        }
    }

    /// Dense form, for an oracle that polls every injector every cycle
    /// ([`Injector::poll`]; a fed injector's first poll of a cycle reads
    /// its replay up to that cycle); never mixed with
    /// [`ArrivalSchedule::advance`] inside a drawn block.
    ///
    /// # Panics
    ///
    /// Panics if `now` was already drawn.
    pub fn poll_dense(&mut self, idx: usize, now: Cycle) -> Option<PacketIntent> {
        assert!(now.value() >= self.end, "{now} is already drawn ahead");
        match &mut self.lanes[idx] {
            Lane::Polled(injector) => injector.poll(now),
            &mut Lane::Fed {
                class, feed, lane, ..
            } => self.feeds[feed]
                .1
                .poll(lane, now.value())
                .map(|(len_flits, output)| PacketIntent {
                    output,
                    class,
                    len_flits,
                }),
        }
    }

    /// The earliest cycle at or after `now` (the next cycle to step) in
    /// which any injector has a packet: read from the due words inside
    /// the block and from the sources' own predictions beyond it. `None`
    /// when some source cannot predict, which forces dense stepping
    /// whatever the block holds.
    #[must_use]
    pub fn next_arrival(&self, now: Cycle) -> Option<Cycle> {
        let after = self.after?;
        let now = now.value();
        if now < self.cursor {
            return Some(Cycle::new(now));
        }
        let due = self.due_between(now, self.end);
        Some(Cycle::new(if due == 0 {
            after
        } else {
            self.base + u64::from(due.trailing_zeros())
        }))
    }
}

/// One injector of a schedule.
#[derive(Debug)]
enum Lane {
    /// Drawn by polling its source a block at a time.
    Polled(Injector),
    /// Stream `lane` of feed `feed`, which files its arrivals.
    Fed {
        input: InputId,
        class: TrafficClass,
        feed: usize,
        lane: usize,
    },
}

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("class", &self.class)
            .field("input", &self.input)
            .field("offered_load", &self.offered_load())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bernoulli, FixedDest, Periodic, Saturating, Trace, Transpose, UniformDest};

    fn random_injector(seed: u64) -> Injector {
        Injector::new(
            Box::new(Bernoulli::new(0.3, 2, seed)),
            Box::new(UniformDest::new(16, seed ^ 0xD357)),
            TrafficClass::BestEffort,
        )
        .for_input(InputId::new(seed as usize % 16))
    }

    fn periodic_injector(interval: u64, phase: u64) -> Injector {
        Injector::new(
            Box::new(Periodic::new(interval, phase, 1)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::GuaranteedLatency,
        )
    }

    /// Two groups of injectors, a start off the block grid and one more
    /// injector pushed mid-block: every cycle the due words name exactly
    /// the injectors whose dense twin produces a packet, and `take`
    /// yields that packet (length from the drawn block, destination from
    /// the pattern asked in arrival order).
    #[test]
    fn the_schedule_hands_out_what_dense_polling_produces() {
        let mut schedule = ArrivalSchedule::default();
        let mut dense: Vec<Injector> = Vec::new();
        for seed in 0..70 {
            schedule.push(random_injector(seed));
            dense.push(random_injector(seed));
        }
        let mut refills = 0;
        for c in 5..400 {
            if c == 100 {
                schedule.push(random_injector(70));
                dense.push(random_injector(70));
            }
            let now = Cycle::new(c);
            refills += u64::from(schedule.advance(now));
            for (idx, twin) in dense.iter_mut().enumerate() {
                let due = schedule.due(idx / 64) >> (idx % 64) & 1 == 1;
                let expect = twin.poll(now);
                assert_eq!(due, expect.is_some(), "injector {idx}, cycle {c}");
                if due {
                    assert_eq!(
                        Some(schedule.take(idx)),
                        expect,
                        "injector {idx}, cycle {c}"
                    );
                }
            }
        }
        assert_eq!(refills, 7, "blocks start at 5, 69, ..., 389");
    }

    #[test]
    #[should_panic(expected = "injector added at cycle 21: its next packet was due at cycle 20")]
    fn a_trace_pushed_after_its_next_event_is_refused() {
        let mut schedule = ArrivalSchedule::default();
        schedule.push(periodic_injector(1000, 999));
        for c in 0..21 {
            schedule.advance(Cycle::new(c));
        }
        schedule.push(Injector::new(
            Box::new(Trace::new(vec![(20, 1), (30, 1)])),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::BestEffort,
        ));
    }

    #[test]
    fn next_arrival_reads_the_block_then_the_sources() {
        let mut schedule = ArrivalSchedule::default();
        schedule.push(periodic_injector(50, 20));
        schedule.push(periodic_injector(1000, 999));
        // Nothing drawn yet: the sources answer.
        assert_eq!(schedule.next_arrival(Cycle::ZERO), Some(Cycle::new(20)));
        assert!(schedule.advance(Cycle::ZERO), "first step draws 0..64");
        assert_eq!(schedule.next_arrival(Cycle::new(1)), Some(Cycle::new(20)));
        schedule.skip_to(Cycle::new(20));
        // Pushed after the skip, an injector is drawn from cycle 20 on:
        // its cycle-10 arrival is in the past, as it is for dense polls.
        schedule.push(periodic_injector(500, 10));
        assert!(!schedule.advance(Cycle::new(20)));
        assert_eq!(schedule.due(0), 0b001);
        let _ = schedule.take(0);
        // Past the block's last arrival the answer is the sources' own,
        // asked as the draw left them: 70, not the far 510 or 999.
        assert_eq!(schedule.next_arrival(Cycle::new(21)), Some(Cycle::new(70)));
        schedule.skip_to(Cycle::new(70));
        assert!(schedule.advance(Cycle::new(70)), "70 lies past the block");
        assert_eq!(schedule.due(0), 0b001);
        // One unpredictable source forces dense stepping, block or not.
        schedule.push(random_injector(1));
        assert_eq!(schedule.next_arrival(Cycle::new(71)), None);
    }

    #[test]
    #[should_panic(expected = "cycle 20 holds a pre-drawn arrival and was never stepped")]
    fn jumping_over_a_drawn_arrival_is_diagnosed() {
        let mut schedule = ArrivalSchedule::default();
        schedule.push(periodic_injector(50, 20));
        schedule.advance(Cycle::new(0));
        schedule.advance(Cycle::new(30));
    }

    #[test]
    #[should_panic(expected = "cycle 0 follows cycle 1: injectors need ascending cycles")]
    fn stepping_backwards_is_diagnosed() {
        let mut schedule = ArrivalSchedule::default();
        schedule.push(periodic_injector(50, 20));
        schedule.advance(Cycle::new(0));
        schedule.advance(Cycle::new(1));
        schedule.advance(Cycle::new(0));
    }

    /// A gap that strands no drawn arrival is an ordinary step: the
    /// block is kept, or drawn afresh from the new cycle.
    #[test]
    fn a_gap_with_nothing_due_is_an_ordinary_step() {
        let mut schedule = ArrivalSchedule::default();
        schedule.push(periodic_injector(50, 20));
        assert!(
            schedule.advance(Cycle::new(3)),
            "the first step may be anywhere"
        );
        assert!(!schedule.advance(Cycle::new(20)), "still inside 3..67");
        let _ = schedule.take(0);
        assert!(
            schedule.advance(Cycle::new(200)),
            "nothing stranded in 21..67"
        );
    }

    #[test]
    fn intent_carries_class_and_destination() {
        let mut inj = Injector::new(
            Box::new(Saturating::new(4)),
            Box::new(FixedDest::new(OutputId::new(2))),
            TrafficClass::BestEffort,
        );
        let p = inj.poll(Cycle::ZERO).unwrap();
        assert_eq!(p.output, OutputId::new(2));
        assert_eq!(p.class, TrafficClass::BestEffort);
        assert_eq!(p.len_flits, 4);
    }

    #[test]
    fn pattern_sees_the_attached_input() {
        let mut inj = Injector::new(
            Box::new(Saturating::new(1)),
            Box::new(Transpose::new(4)),
            TrafficClass::GuaranteedBandwidth,
        )
        .for_input(InputId::new(1)); // (0,1) -> (1,0) = output 2
        assert_eq!(inj.poll(Cycle::ZERO).unwrap().output, OutputId::new(2));
        assert_eq!(inj.input(), InputId::new(1));
    }

    #[test]
    fn offered_load_passthrough() {
        let inj = Injector::new(
            Box::new(Saturating::new(1)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::BestEffort,
        );
        assert_eq!(inj.offered_load(), Some(1.0));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let inj = Injector::new(
            Box::new(Saturating::new(1)),
            Box::new(FixedDest::new(OutputId::new(0))),
            TrafficClass::GuaranteedLatency,
        );
        assert!(format!("{inj:?}").contains("Injector"));
    }
}
