//! Packet arrival processes.

use ssq_types::rng::Xoshiro256StarStar;
use ssq_types::Cycle;

/// A packet arrival process at one input port.
///
/// Polled once per cycle; returns the length (in flits) of a packet
/// created this cycle, or `None`. At most one packet per cycle can be
/// created — the paper's injection rates never require more (an input
/// channel carries one flit per cycle, so sustained injection above one
/// packet per `len` cycles is unphysical anyway).
///
/// `poll` is a function of the source's own state and `now`, nothing
/// else: the switch draws arrivals a block ahead
/// ([`TrafficSource::poll_block`]), so a poll may run up to 63 cycles
/// before the simulation reaches its `now`, and a source must not look
/// at anything that changes in between.
pub trait TrafficSource {
    /// Polls the process at `now`; `Some(len_flits)` if a packet arrives.
    /// Successive calls carry ascending `now`.
    fn poll(&mut self, now: Cycle) -> Option<u64>;

    /// Polls `cycles` (at most 64) consecutive cycles from `base` in one
    /// call: bit `c` of the returned arrival word is set iff a packet
    /// arrives in cycle `base + c`, and the packets' lengths are appended
    /// to `lens` in cycle order. The source is left exactly where that
    /// many dense [`TrafficSource::poll`]s would leave it — the draws
    /// come from its own stream in the same order — but behind a `dyn`
    /// this is one virtual call instead of `cycles`, and a source that
    /// predicts ([`TrafficSource::next_arrival`]) is polled only where it
    /// says a packet is.
    fn poll_block(&mut self, base: Cycle, cycles: u32, lens: &mut Vec<u64>) -> u64 {
        debug_assert!(cycles <= 64, "an arrival word holds 64 cycles");
        // Clipped once so that `base + c` cannot overflow in the loop.
        let cycles = u64::from(cycles).min(u64::MAX - base.value());
        let mut word = 0;
        let mut c = 0;
        while c < cycles {
            let now = Cycle::new(base.value() + c);
            match self.next_arrival(now) {
                // Polls before a predicted arrival are no-ops by
                // `next_arrival`'s contract.
                Some(next) if next > now => c = c.saturating_add(next.value() - now.value()),
                _ => {
                    if let Some(len) = self.poll(now) {
                        word |= 1 << c;
                        lens.push(len);
                    }
                    c += 1;
                }
            }
        }
        word
    }

    /// The long-run offered load in flits/cycle, if the process has one
    /// (trace replay reports `None`).
    fn offered_load(&self) -> Option<f64> {
        None
    }

    /// The earliest cycle `t >= now` at which `poll(t)` could return a
    /// packet, if the process can predict it *without* consuming state.
    /// `None` (the default) means unpredictable: the process draws
    /// randomness every poll, so every cycle must be polled densely and
    /// the idle-skip engine cannot jump it. `Some(Cycle::new(u64::MAX))`
    /// means the process will never produce another packet. A cycle
    /// before `now` is a packet that was due then and that no later poll
    /// delivers ([`Trace`] polled past its next event);
    /// [`ArrivalSchedule::push`](crate::ArrivalSchedule::push) refuses
    /// such a source.
    ///
    /// The contract backing the idle skip: if `next_arrival(now)` is
    /// `Some(t)` with `t > now`, then for every cycle `c` in `now..t`,
    /// `poll(c)` returns `None` *and* leaves the source in a state
    /// identical to not having been polled at all.
    fn next_arrival(&self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        None
    }
}

/// Bernoulli injection: each cycle a packet arrives with probability
/// `rate / len_flits`, giving an offered load of `rate` flits/cycle with
/// geometric inter-arrival gaps — the standard random injection process
/// of NoC evaluations and the x-axis of Fig. 4.
///
/// # Examples
///
/// ```
/// use ssq_traffic::{Bernoulli, TrafficSource};
///
/// let src = Bernoulli::new(0.25, 8, 7);
/// assert_eq!(src.offered_load(), Some(0.25));
/// ```
#[derive(Debug, Clone)]
pub struct Bernoulli {
    rate: f64,
    len_flits: u64,
    /// Per-cycle packet probability, `rate / len_flits`: divided once
    /// here instead of on every poll.
    packet_prob: f64,
    rng: Xoshiro256StarStar,
}

impl Bernoulli {
    /// Creates a Bernoulli source offering `rate` flits/cycle of
    /// `len_flits`-flit packets, seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]` or `len_flits` is zero.
    #[must_use]
    pub fn new(rate: f64, len_flits: u64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        assert!(len_flits > 0, "packets need at least one flit");
        Bernoulli {
            rate,
            len_flits,
            packet_prob: rate / len_flits as f64,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }
}

impl TrafficSource for Bernoulli {
    fn poll(&mut self, _now: Cycle) -> Option<u64> {
        if self.rng.f64() < self.packet_prob {
            Some(self.len_flits)
        } else {
            None
        }
    }

    fn offered_load(&self) -> Option<f64> {
        Some(self.rate)
    }
}

/// Deterministic periodic injection: one packet every `interval` cycles,
/// starting at `phase`. Models the constant-rate flows of real-time SoC
/// producers (e.g. a display controller or a baseband pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Periodic {
    interval: u64,
    phase: u64,
    len_flits: u64,
}

impl Periodic {
    /// Creates a periodic source.
    ///
    /// # Panics
    ///
    /// Panics if `interval` or `len_flits` is zero.
    #[must_use]
    pub fn new(interval: u64, phase: u64, len_flits: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        assert!(len_flits > 0, "packets need at least one flit");
        Periodic {
            interval,
            phase: phase % interval,
            len_flits,
        }
    }
}

impl TrafficSource for Periodic {
    fn poll(&mut self, now: Cycle) -> Option<u64> {
        if now.value() % self.interval == self.phase {
            Some(self.len_flits)
        } else {
            None
        }
    }

    fn offered_load(&self) -> Option<f64> {
        Some(self.len_flits as f64 / self.interval as f64)
    }

    fn next_arrival(&self, now: Cycle) -> Option<Cycle> {
        // The smallest t >= now with t % interval == phase. Pure: `poll`
        // keeps no state, so skipped cycles are exactly no-ops.
        let rem = now.value() % self.interval;
        let wait = (self.phase + self.interval - rem) % self.interval;
        Some(Cycle::new(now.value().saturating_add(wait)))
    }
}

/// Two-state Markov-modulated (on/off) bursty injection.
///
/// In the ON state the source injects like a Bernoulli source at
/// `rate_on`; each cycle it may flip state with the given probabilities.
/// Bursty injection is what exposes the latency-fairness differences
/// between the counter-management policies ("especially during bursty
/// injection", §4.3).
#[derive(Debug, Clone)]
pub struct OnOffBursty {
    rate_on: f64,
    len_flits: u64,
    p_on_to_off: f64,
    p_off_to_on: f64,
    on: bool,
    rng: Xoshiro256StarStar,
}

impl OnOffBursty {
    /// Creates an on/off source starting in the ON state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`, `rate_on` is
    /// outside `[0, 1]`, or `len_flits` is zero.
    #[must_use]
    pub fn new(
        rate_on: f64,
        len_flits: u64,
        p_on_to_off: f64,
        p_off_to_on: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate_on),
            "rate {rate_on} outside [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&p_on_to_off) && (0.0..=1.0).contains(&p_off_to_on),
            "transition probabilities must be in [0, 1]"
        );
        assert!(len_flits > 0, "packets need at least one flit");
        OnOffBursty {
            rate_on,
            len_flits,
            p_on_to_off,
            p_off_to_on,
            on: true,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }

    /// Whether the source is currently in its ON state.
    #[must_use]
    pub const fn is_on(&self) -> bool {
        self.on
    }
}

impl TrafficSource for OnOffBursty {
    fn poll(&mut self, _now: Cycle) -> Option<u64> {
        let flip = self.rng.f64();
        if self.on && flip < self.p_on_to_off {
            self.on = false;
        } else if !self.on && flip < self.p_off_to_on {
            self.on = true;
        }
        if !self.on {
            return None;
        }
        let p = self.rate_on / self.len_flits as f64;
        if self.rng.f64() < p {
            Some(self.len_flits)
        } else {
            None
        }
    }

    fn offered_load(&self) -> Option<f64> {
        let duty = self.p_off_to_on / (self.p_on_to_off + self.p_off_to_on);
        Some(self.rate_on * duty)
    }
}

/// A source that always has a packet ready — the saturation workload of
/// Fig. 4's congested region and of every rate-adherence experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saturating {
    len_flits: u64,
}

impl Saturating {
    /// Creates a saturating source of `len_flits`-flit packets.
    ///
    /// # Panics
    ///
    /// Panics if `len_flits` is zero.
    #[must_use]
    pub fn new(len_flits: u64) -> Self {
        assert!(len_flits > 0, "packets need at least one flit");
        Saturating { len_flits }
    }
}

impl TrafficSource for Saturating {
    fn poll(&mut self, _now: Cycle) -> Option<u64> {
        Some(self.len_flits)
    }

    fn offered_load(&self) -> Option<f64> {
        Some(1.0)
    }

    fn next_arrival(&self, now: Cycle) -> Option<Cycle> {
        Some(now) // a packet every polled cycle: never skippable
    }
}

/// Replays an explicit `(cycle, len_flits)` schedule — used by the GL
/// burst-budget experiments (Eqs. 2–3), where the workload is "σ packets
/// back to back at cycle T".
///
/// It is polled from the cycle its injector is added on, and delivers
/// each event in its own cycle only. A trace whose next event's cycle
/// has passed by then could deliver nothing more, so
/// [`ArrivalSchedule::push`](crate::ArrivalSchedule::push) refuses it
/// (as a switch refuses a [`Replay`](crate::Replay) added late).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Remaining events, ascending by cycle.
    events: Vec<(u64, u64)>,
    next: usize,
}

impl Trace {
    /// Creates a trace source. Events must be sorted by cycle and carry
    /// at most one packet per cycle.
    ///
    /// # Panics
    ///
    /// Panics if events are unsorted, duplicated, or have zero-flit
    /// packets.
    #[must_use]
    pub fn new(events: Vec<(u64, u64)>) -> Self {
        for pair in events.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "trace events must be strictly ascending"
            );
        }
        assert!(
            events.iter().all(|&(_, len)| len > 0),
            "packets need at least one flit"
        );
        Trace { events, next: 0 }
    }

    /// Events not yet replayed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

impl TrafficSource for Trace {
    fn poll(&mut self, now: Cycle) -> Option<u64> {
        match self.events.get(self.next) {
            Some(&(cycle, len)) if cycle == now.value() => {
                self.next += 1;
                Some(len)
            }
            _ => None,
        }
    }

    fn next_arrival(&self, _now: Cycle) -> Option<Cycle> {
        // A pending event before `now` is reported as it is: `poll`'s
        // equality test can never match it again.
        let cycle = self.events.get(self.next).map_or(u64::MAX, |&(c, _)| c);
        Some(Cycle::new(cycle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first 64 poll outcomes as a word: bit `c` set iff a packet
    /// arrived in cycle `c`.
    fn arrival_word(rate: f64, len_flits: u64, seed: u64) -> u64 {
        let mut src = Bernoulli::new(rate, len_flits, seed);
        (0..64).fold(0, |word, c| {
            word | (u64::from(src.poll(Cycle::new(c)).is_some()) << c)
        })
    }

    /// The arrival sequence is part of every seeded golden: these words
    /// were captured from the per-poll `rate / len_flits` division that
    /// the stored per-packet probability replaced.
    #[test]
    fn bernoulli_arrivals_are_pinned_for_known_seeds() {
        assert_eq!(arrival_word(0.2, 4, 0x55), 0x0000_0001_4000_0000);
        assert_eq!(arrival_word(0.5, 1, 1), 0x4286_37db_47bf_00e8);
        assert_eq!(arrival_word(0.9, 8, 7), 0x1100_2000_4400_00c0);
        assert_eq!(arrival_word(0.35, 3, 0xDEAD_BEEF), 0x0800_0102_0080_2000);
        assert_eq!(arrival_word(1.0, 1, 42), u64::MAX);
        assert_eq!(arrival_word(0.0, 2, 42), 0);
    }

    fn total_flits(src: &mut dyn TrafficSource, cycles: u64) -> u64 {
        (0..cycles).filter_map(|c| src.poll(Cycle::new(c))).sum()
    }

    /// The idle-skip contract: wherever `next_arrival` predicts, dense
    /// polling must agree — no arrival strictly before the prediction,
    /// an arrival exactly at it (when within the horizon).
    fn check_prediction(src: &mut dyn TrafficSource, horizon: u64) {
        let mut c = 0;
        while c < horizon {
            let predicted = src
                .next_arrival(Cycle::new(c))
                .expect("deterministic source must predict");
            for probe in c..predicted.value().min(horizon) {
                assert_eq!(
                    src.poll(Cycle::new(probe)),
                    None,
                    "arrival before predicted cycle {predicted} (probe {probe})"
                );
            }
            if predicted.value() >= horizon {
                return;
            }
            assert!(
                src.poll(predicted).is_some(),
                "no arrival at predicted cycle {predicted}"
            );
            c = predicted.value() + 1;
        }
    }

    #[test]
    fn periodic_predicts_its_own_arrivals() {
        check_prediction(&mut Periodic::new(7, 3, 4), 100);
        check_prediction(&mut Periodic::new(1, 0, 2), 20);
        check_prediction(&mut Periodic::new(160, 159, 8), 1000);
    }

    #[test]
    fn trace_predicts_its_own_arrivals() {
        check_prediction(&mut Trace::new(vec![(3, 2), (9, 8), (40, 1)]), 100);
    }

    #[test]
    fn exhausted_trace_predicts_never() {
        let mut t = Trace::new(vec![(1, 1)]);
        assert_eq!(t.poll(Cycle::new(1)), Some(1));
        assert_eq!(t.next_arrival(Cycle::new(2)), Some(Cycle::new(u64::MAX)));
    }

    #[test]
    fn stale_trace_event_is_reported_in_the_past() {
        // An unmatched past event can never fire again under dense
        // polling; the prediction points at it, so a schedule can refuse
        // the source instead of losing its packets without a word.
        let t = Trace::new(vec![(5, 1)]);
        assert_eq!(t.next_arrival(Cycle::new(6)), Some(Cycle::new(5)));
        let exhausted = Trace::new(Vec::new());
        assert_eq!(
            exhausted.next_arrival(Cycle::new(6)),
            Some(Cycle::new(u64::MAX))
        );
    }

    #[test]
    fn saturating_never_allows_a_skip() {
        let s = Saturating::new(8);
        assert_eq!(s.next_arrival(Cycle::new(17)), Some(Cycle::new(17)));
    }

    #[test]
    fn random_sources_decline_to_predict() {
        assert_eq!(
            Bernoulli::new(0.5, 8, 1).next_arrival(Cycle::ZERO),
            None,
            "RNG-per-poll sources must force dense stepping"
        );
    }

    #[test]
    fn bernoulli_hits_its_offered_load() {
        let mut src = Bernoulli::new(0.3, 4, 123);
        let rate = total_flits(&mut src, 100_000) as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.02, "measured {rate}");
    }

    #[test]
    fn bernoulli_zero_rate_never_fires() {
        let mut src = Bernoulli::new(0.0, 8, 1);
        assert_eq!(total_flits(&mut src, 10_000), 0);
    }

    #[test]
    fn bernoulli_is_reproducible_per_seed() {
        let mut a = Bernoulli::new(0.5, 2, 99);
        let mut b = Bernoulli::new(0.5, 2, 99);
        for c in 0..1000 {
            assert_eq!(a.poll(Cycle::new(c)), b.poll(Cycle::new(c)));
        }
    }

    #[test]
    fn periodic_fires_on_schedule() {
        let mut src = Periodic::new(10, 3, 2);
        let fired: Vec<u64> = (0..40)
            .filter(|&c| src.poll(Cycle::new(c)).is_some())
            .collect();
        assert_eq!(fired, vec![3, 13, 23, 33]);
        assert_eq!(src.offered_load(), Some(0.2));
    }

    #[test]
    fn bursty_duty_cycle_matches_transitions() {
        // Symmetric transitions => 50% duty, so load ~ rate_on / 2.
        let mut src = OnOffBursty::new(0.8, 1, 0.01, 0.01, 7);
        let rate = total_flits(&mut src, 200_000) as f64 / 200_000.0;
        assert!((rate - 0.4).abs() < 0.05, "measured {rate}");
    }

    #[test]
    fn bursty_goes_silent_in_off_state() {
        // Immediately flips to OFF and can never return.
        let mut src = OnOffBursty::new(1.0, 1, 1.0, 0.0, 3);
        let _ = src.poll(Cycle::ZERO);
        assert!(!src.is_on());
        assert_eq!(total_flits(&mut src, 1000), 0);
    }

    #[test]
    fn saturating_always_offers() {
        let mut src = Saturating::new(8);
        for c in 0..100 {
            assert_eq!(src.poll(Cycle::new(c)), Some(8));
        }
        assert_eq!(src.offered_load(), Some(1.0));
    }

    #[test]
    fn trace_replays_exactly() {
        let mut src = Trace::new(vec![(5, 1), (9, 3)]);
        assert_eq!(src.remaining(), 2);
        assert_eq!(src.poll(Cycle::new(4)), None);
        assert_eq!(src.poll(Cycle::new(5)), Some(1));
        assert_eq!(src.poll(Cycle::new(6)), None);
        assert_eq!(src.poll(Cycle::new(9)), Some(3));
        assert_eq!(src.remaining(), 0);
        assert_eq!(src.poll(Cycle::new(10)), None);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn trace_rejects_unsorted_events() {
        let _ = Trace::new(vec![(9, 1), (5, 1)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bernoulli_rejects_bad_rate() {
        let _ = Bernoulli::new(1.5, 1, 0);
    }
}

/// Bernoulli arrivals with a bimodal packet-length mix — short control
/// packets interleaved with long data packets, the "variety of packet
/// sizes" of §4.2 in one source. `rate` is the offered load in
/// flits/cycle; packet starts are scheduled so the flit average works
/// out regardless of the short/long split.
#[derive(Debug, Clone)]
pub struct BimodalBernoulli {
    rate: f64,
    len_short: u64,
    len_long: u64,
    p_long: f64,
    rng: Xoshiro256StarStar,
}

impl BimodalBernoulli {
    /// Creates a bimodal source: each generated packet is `len_long`
    /// flits with probability `p_long`, otherwise `len_short`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`, `p_long` is outside
    /// `[0, 1]`, or either length is zero.
    #[must_use]
    pub fn new(rate: f64, len_short: u64, len_long: u64, p_long: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        assert!(
            (0.0..=1.0).contains(&p_long),
            "p_long {p_long} outside [0, 1]"
        );
        assert!(
            len_short > 0 && len_long > 0,
            "packets need at least one flit"
        );
        BimodalBernoulli {
            rate,
            len_short,
            len_long,
            p_long,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }

    /// Mean packet length in flits.
    #[must_use]
    pub fn mean_len(&self) -> f64 {
        self.p_long * self.len_long as f64 + (1.0 - self.p_long) * self.len_short as f64
    }
}

impl TrafficSource for BimodalBernoulli {
    fn poll(&mut self, _now: Cycle) -> Option<u64> {
        let p = self.rate / self.mean_len();
        if self.rng.f64() < p {
            if self.rng.f64() < self.p_long {
                Some(self.len_long)
            } else {
                Some(self.len_short)
            }
        } else {
            None
        }
    }

    fn offered_load(&self) -> Option<f64> {
        Some(self.rate)
    }
}

#[cfg(test)]
mod bimodal_tests {
    use super::*;

    #[test]
    fn offered_load_holds_despite_the_mix() {
        let mut src = BimodalBernoulli::new(0.4, 1, 8, 0.3, 21);
        let flits: u64 = (0..200_000).filter_map(|c| src.poll(Cycle::new(c))).sum();
        let rate = flits as f64 / 200_000.0;
        assert!((rate - 0.4).abs() < 0.02, "measured {rate}");
    }

    #[test]
    fn both_modes_appear() {
        let mut src = BimodalBernoulli::new(0.8, 2, 8, 0.5, 5);
        let mut shorts = 0;
        let mut longs = 0;
        for c in 0..50_000 {
            match src.poll(Cycle::new(c)) {
                Some(2) => shorts += 1,
                Some(8) => longs += 1,
                Some(other) => panic!("unexpected length {other}"),
                None => {}
            }
        }
        assert!(shorts > 1000 && longs > 1000, "{shorts} / {longs}");
        let frac = longs as f64 / (shorts + longs) as f64;
        assert!((frac - 0.5).abs() < 0.05, "long fraction {frac}");
    }

    #[test]
    fn degenerate_mix_is_plain_bernoulli() {
        let mut src = BimodalBernoulli::new(0.3, 4, 8, 0.0, 9);
        assert_eq!(src.mean_len(), 4.0);
        for c in 0..1000 {
            if let Some(len) = src.poll(Cycle::new(c)) {
                assert_eq!(len, 4);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_bad_p_long() {
        let _ = BimodalBernoulli::new(0.5, 1, 8, 1.5, 0);
    }
}
