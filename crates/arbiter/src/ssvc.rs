//! SSVC: the Swizzle Switch-Virtual Clock arbitration (paper §3.1).

use std::fmt;

use ssq_types::Cycle;

use crate::{Arbiter, Lrg, Request};

/// Finite-counter management policy for the `auxVC` registers (§3.1,
/// "Finite Counters and Real Time Clock" + "Improving Latency Fairness").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CounterPolicy {
    /// Keep `auxVC` relative to a real-time clock of the same granularity
    /// as its low bits: every time the real-time subcounter wraps, every
    /// `auxVC` is decremented by one MSB step (flooring at zero) and all
    /// thermometer codes shift down one lane. This is the paper's
    /// modified step 1, `auxVC ← max(auxVC, real time) − real time`,
    /// implemented without per-transfer subtraction.
    #[default]
    SubtractRealClock,
    /// When any `auxVC` saturates, divide all of them by two (shift right;
    /// the top half of each thermometer code is copied to the bottom half
    /// and the top reset). Halving collapses distinct thermometer values
    /// together, so more contention resolves through the fair LRG
    /// tie-break — the mechanism behind Fig. 5's flatter latency curve.
    Halve,
    /// When any `auxVC` saturates, reset all of them (and all thermometer
    /// codes) to zero. Most aggressive collapse; the paper observes it has
    /// the least latency variance across bandwidth allocations.
    Reset,
}

impl fmt::Display for CounterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CounterPolicy::SubtractRealClock => "subtract-real-clock",
            CounterPolicy::Halve => "halve",
            CounterPolicy::Reset => "reset",
        })
    }
}

/// Static configuration of an SSVC arbiter.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{CounterPolicy, SsvcConfig};
///
/// // Fig. 1's crosspoint state: a 12-bit auxVC whose top 3 bits form the
/// // thermometer code.
/// let cfg = SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock);
/// assert_eq!(cfg.num_lanes(), 8);
/// assert_eq!(cfg.saturation_cap(), (1 << 12) - 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SsvcConfig {
    counter_bits: u32,
    sig_bits: u32,
    policy: CounterPolicy,
}

impl SsvcConfig {
    /// Creates a configuration with a `counter_bits`-wide `auxVC` whose
    /// top `sig_bits` bits are compared during arbitration.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < sig_bits < counter_bits <= 32`. The paper's
    /// configurations are 12-bit counters with 3 significant bits (Fig. 1)
    /// and 11-bit counters ("3+8 bits", Table 1); Fig. 4 uses 4
    /// significant bits.
    #[must_use]
    pub fn new(counter_bits: u32, sig_bits: u32, policy: CounterPolicy) -> Self {
        assert!(
            sig_bits > 0 && sig_bits < counter_bits && counter_bits <= 32,
            "need 0 < sig_bits ({sig_bits}) < counter_bits ({counter_bits}) <= 32"
        );
        SsvcConfig {
            counter_bits,
            sig_bits,
            policy,
        }
    }

    /// Total `auxVC` width in bits.
    #[must_use]
    pub const fn counter_bits(self) -> u32 {
        self.counter_bits
    }

    /// Number of most-significant bits compared by arbitration.
    #[must_use]
    pub const fn sig_bits(self) -> u32 {
        self.sig_bits
    }

    /// The counter-management policy.
    #[must_use]
    pub const fn policy(self) -> CounterPolicy {
        self.policy
    }

    /// Width of the low (sub-lane) portion of the counter.
    #[must_use]
    pub const fn lsb_bits(self) -> u32 {
        self.counter_bits - self.sig_bits
    }

    /// Number of GB arbitration lanes the thermometer code addresses:
    /// `2^sig_bits`.
    #[must_use]
    pub const fn num_lanes(self) -> usize {
        1usize << self.sig_bits
    }

    /// Maximum representable `auxVC` value, at which saturation-triggered
    /// policies fire.
    #[must_use]
    pub const fn saturation_cap(self) -> u64 {
        (1u64 << self.counter_bits) - 1
    }

    /// One MSB step: the amount subtracted from every counter when the
    /// real-time subcounter wraps.
    #[must_use]
    pub const fn msb_step(self) -> u64 {
        1u64 << self.lsb_bits()
    }
}

/// The SSVC arbiter: the paper's single-cycle combination of coarse
/// Virtual Clock comparison and LRG tie-breaking (§3.1).
///
/// Per crosspoint (here: per input, since this arbiter serves one output
/// channel) the hardware keeps a `Vtick` register, an `auxVC` counter, a
/// thermometer-code register derived from the counter's significant bits,
/// and a replica of the LRG state. During arbitration:
///
/// 1. the requesting input with the **smallest** thermometer code (=
///    smallest significant `auxVC` bits = most under-served flow) defeats
///    all inputs with larger codes;
/// 2. ties between equal codes are resolved by **LRG**.
///
/// On a win, the winner's `auxVC` increases by its `Vtick` (one virtual
/// time step per transmitted packet) and the finite counters are managed
/// per [`CounterPolicy`].
///
/// The coarse comparison is precisely what improves latency fairness over
/// the exact algorithm: flows whose `auxVC`s differ only below the
/// significant bits look identical and share bandwidth fairly through
/// LRG, so low-rate flows stop paying the full Virtual Clock latency
/// penalty (Fig. 5).
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, CounterPolicy, Request, SsvcArbiter, SsvcConfig};
/// use ssq_types::Cycle;
///
/// let cfg = SsvcConfig::new(12, 4, CounterPolicy::SubtractRealClock);
/// // Fig. 4b reservations: 40/20/10/10/5/5/5/5 % of an 8-flit-packet channel.
/// let rates = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];
/// let vticks: Vec<u64> = rates.iter().map(|r| SsvcArbiter::quantized_vtick(*r, 8)).collect();
/// let mut ssvc = SsvcArbiter::new(cfg, &vticks);
///
/// let all: Vec<Request> = (0..8).map(|i| Request::new(i, 8)).collect();
/// let mut wins = [0u32; 8];
/// for c in 0..4000u64 {
///     ssvc.tick();
///     wins[ssvc.arbitrate(Cycle::new(c), &all).unwrap()] += 1;
/// }
/// // The 40% flow wins roughly twice as often as the 20% flow.
/// assert!(wins[0] > wins[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsvcArbiter {
    config: SsvcConfig,
    vticks: Vec<u64>,
    aux: Vec<u64>,
    lrg: Lrg,
    /// Real-time subcounter for [`CounterPolicy::SubtractRealClock`],
    /// with the granularity of the `auxVC` low bits.
    real_lsb: u64,
    /// Completed decay epochs (subcounter wraps) since construction.
    epochs: u64,
    /// Wins that left the winner's counter clamped at the cap.
    saturations: u64,
    /// Pending epoch-skip faults: wraps whose broadcast subtraction is
    /// swallowed (see [`SsvcArbiter::fault_skip_epochs`]).
    skipped_epochs: u64,
}

impl SsvcArbiter {
    /// Creates an SSVC arbiter with one `Vtick` (in cycles, LSB
    /// granularity) per input.
    ///
    /// # Panics
    ///
    /// Panics if `vticks` is empty or any `Vtick` is zero.
    #[must_use]
    pub fn new(config: SsvcConfig, vticks: &[u64]) -> Self {
        assert!(!vticks.is_empty(), "need at least one input");
        assert!(vticks.iter().all(|&v| v > 0), "Vticks must be positive");
        SsvcArbiter {
            config,
            vticks: vticks.to_vec(),
            aux: vec![0; vticks.len()],
            lrg: Lrg::new(vticks.len()),
            real_lsb: 0,
            epochs: 0,
            saturations: 0,
            skipped_epochs: 0,
        }
    }

    /// Quantizes the ideal `Vtick = len_flits / rate` to the integer
    /// cycle granularity of the hardware counter (minimum 1).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]`.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "quantization: a finite positive ratio, `as` saturates"
    )]
    pub fn quantized_vtick(rate: f64, len_flits: u64) -> u64 {
        let ideal = crate::vtick_for_rate(rate, len_flits);
        (ideal.round() as u64).max(1)
    }

    /// `Vtick` for a flow reserving fraction `rate` of a channel on which
    /// each packet occupies `slot_cycles` cycles end to end.
    ///
    /// In the Swizzle Switch an `L`-flit packet holds the channel for
    /// `L + 1` cycles (one arbitration cycle plus `L` data cycles — the
    /// 0.89 flits/cycle ceiling of Fig. 4). A flow served at exactly its
    /// reserved share then wins once every `slot_cycles / rate` cycles, so
    /// with this `Vtick` its `auxVC` advances at precisely one count per
    /// cycle — tracking the real-time clock, as the original algorithm
    /// intends ("its VirtualClock should approximately equal the real
    /// time clock").
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]` or `slot_cycles` is zero.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "quantization: a finite positive ratio, `as` saturates"
    )]
    pub fn slot_vtick(rate: f64, slot_cycles: u64) -> u64 {
        assert!(slot_cycles > 0, "a packet slot spans at least one cycle");
        assert!(
            rate > 0.0 && rate <= 1.0 && rate.is_finite(),
            "reserved rate {rate} outside (0, 1]"
        );
        ((slot_cycles as f64 / rate).round() as u64).max(1)
    }

    /// The static configuration.
    #[must_use]
    pub const fn config(&self) -> SsvcConfig {
        self.config
    }

    /// Current `auxVC` counter of `input`.
    #[must_use]
    pub fn aux_vc(&self, input: usize) -> u64 {
        self.aux[input]
    }

    /// Rewrites `input`'s `Vtick` register — the hardware operation behind
    /// live QoS renegotiation: changing a flow's reservation is one
    /// register write at its crosspoint, taking effect at the next
    /// transmission.
    ///
    /// # Panics
    ///
    /// Panics if `vtick` is zero.
    pub fn set_vtick(&mut self, input: usize, vtick: u64) {
        assert!(vtick > 0, "Vtick must be positive");
        self.vticks[input] = vtick;
    }

    /// Current `Vtick` of `input`.
    #[must_use]
    pub fn vtick(&self, input: usize) -> u64 {
        self.vticks[input]
    }

    /// Overwrites `input`'s counter — used by the bit-level circuit
    /// verification (paper §4.1) to enumerate arbitrary counter states.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the saturation cap.
    pub fn set_aux_vc(&mut self, input: usize, value: u64) {
        assert!(
            value <= self.config.saturation_cap(),
            "auxVC {value} exceeds cap {}",
            self.config.saturation_cap()
        );
        self.aux[input] = value;
    }

    /// The significant (thermometer) bits of `input`'s counter: the lane
    /// its sense wire sits in.
    #[must_use]
    pub fn msb_value(&self, input: usize) -> u64 {
        self.aux[input] >> self.config.lsb_bits()
    }

    /// The thermometer code of `input` as a bitmask: bit `j` is set iff
    /// `j <= msb_value(input)` — the unary "shift up by 1 each time the
    /// most significant bits change" register of Fig. 2.
    #[must_use]
    pub fn thermometer_code(&self, input: usize) -> u64 {
        let m = self.msb_value(input);
        if m >= 63 {
            u64::MAX
        } else {
            (1u64 << (m + 1)) - 1
        }
    }

    /// Read access to the replicated LRG state (shared with the circuit
    /// model so both compare identical pairwise bits).
    #[must_use]
    pub fn lrg(&self) -> &Lrg {
        &self.lrg
    }

    /// Selects a winner without mutating state: smallest significant
    /// `auxVC` bits, ties by LRG. This is the pure decision function the
    /// bit-level circuit model must agree with.
    #[must_use]
    pub fn peek(&self, candidates: &[usize]) -> Option<usize> {
        let min_msb = candidates.iter().map(|&c| self.msb_value(c)).min()?;
        let tied: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| self.msb_value(c) == min_msb)
            .collect();
        self.lrg.peek(&tied)
    }

    /// Word-wide [`SsvcArbiter::peek`] over a request *word* (bit `i` ⇔
    /// input `i` requests): one pass finds the lowest occupied
    /// thermometer lane and the word of requesters sensing it, then
    /// [`Lrg::peek_mask`] breaks the tie — the arbitration of Figs. 1–3
    /// as word arithmetic, with no candidate list. Agrees with `peek` on
    /// every request word (held exhaustively by the tests).
    ///
    /// # Panics
    ///
    /// Panics if a candidate bit is out of range or the arbiter has more
    /// than 64 inputs (see [`Lrg::peek_mask`]).
    #[must_use]
    pub fn peek_mask(&self, candidates: u64) -> Option<usize> {
        let lsb_bits = self.config.lsb_bits();
        let mut min_msb = u64::MAX;
        let mut tied = 0u64;
        let mut rest = candidates;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            let msb = self.aux[i] >> lsb_bits;
            if msb < min_msb {
                min_msb = msb;
                tied = 0;
            }
            if msb == min_msb {
                tied |= 1u64 << i;
            }
            rest &= rest - 1;
        }
        self.lrg.peek_mask(tied)
    }

    /// Predicts the counter outcome of a win without mutating state:
    /// `(aux_after, saturated)`, where `aux_after` is the winner's `auxVC`
    /// after the `Vtick` charge **and** any saturation-triggered policy
    /// action, exactly as [`SsvcArbiter::commit_win`] would leave it.
    ///
    /// The sharded engine uses this to pre-build counter-update trace
    /// events during the pure decide phase; the
    /// `preview_win_matches_commit_win` test pins the agreement.
    #[must_use]
    pub fn preview_win(&self, winner: usize) -> (u64, bool) {
        let cap = self.config.saturation_cap();
        let charged = (self.aux[winner] + self.vticks[winner]).min(cap);
        let saturated = charged == cap;
        let after = match self.config.policy() {
            CounterPolicy::Halve if saturated => charged >> 1,
            CounterPolicy::Reset if saturated => 0,
            CounterPolicy::SubtractRealClock | CounterPolicy::Halve | CounterPolicy::Reset => {
                charged
            }
        };
        (after, saturated)
    }

    /// Records a win: LRG update, `auxVC += Vtick` (saturating), and
    /// counter-management policy actions.
    pub fn commit_win(&mut self, winner: usize) {
        self.lrg.grant(winner);
        let cap = self.config.saturation_cap();
        self.aux[winner] = (self.aux[winner] + self.vticks[winner]).min(cap);
        let saturated = self.aux[winner] == cap;
        if saturated {
            self.saturations += 1;
        }
        match self.config.policy() {
            CounterPolicy::SubtractRealClock => {}
            CounterPolicy::Halve => {
                if saturated {
                    for a in &mut self.aux {
                        *a >>= 1;
                    }
                }
            }
            CounterPolicy::Reset => {
                if saturated {
                    self.aux.fill(0);
                }
            }
        }
    }

    /// Flips one raw bit of `input`'s `auxVC` register — the
    /// single-event-upset fault model (DESIGN.md §8). Unlike
    /// [`SsvcArbiter::set_aux_vc`] this deliberately bypasses the
    /// saturation-cap check: an upset in the top bit can push the
    /// register *above* the cap, the exact corruption the V3 runtime
    /// detector must classify. Cold path only; never called during
    /// healthy arbitration.
    ///
    /// Returns the counter value after the flip.
    pub fn fault_flip_aux_bit(&mut self, input: usize, bit: u32) -> u64 {
        self.aux[input] ^= 1u64 << bit;
        self.aux[input]
    }

    /// Skips the next `epochs` real-time decay epochs: the counter-policy
    /// epoch-skip fault model. Under [`CounterPolicy::SubtractRealClock`]
    /// the hardware subtracts one MSB step from every `auxVC` each time
    /// the subcounter wraps; a skipped epoch means the wrap happened but
    /// the broadcast subtraction did not, so busy counters keep climbing
    /// toward saturation. The next `epochs` wraps are swallowed at the
    /// moment they occur (they do not count as completed decay epochs).
    pub fn fault_skip_epochs(&mut self, epochs: u64) {
        self.skipped_epochs += epochs;
    }

    /// Decay epochs swallowed so far by [`SsvcArbiter::fault_skip_epochs`].
    #[must_use]
    pub const fn skipped_epoch_count(&self) -> u64 {
        self.skipped_epochs
    }

    /// Completed decay epochs: how many times the real-time subcounter
    /// has wrapped (each wrap subtracts one MSB step from every
    /// `auxVC`). Always zero for the halve/reset policies.
    #[must_use]
    pub const fn decay_epochs(&self) -> u64 {
        self.epochs
    }

    /// Number of wins that left the winner's counter clamped at the
    /// saturation cap — the trigger count for the halve/reset policies.
    #[must_use]
    pub const fn saturation_count(&self) -> u64 {
        self.saturations
    }

    /// How many ticks from now complete the next decay epoch — the `n`
    /// for which the `n`-th [`Arbiter::tick`] is the next one to raise
    /// [`SsvcArbiter::decay_epochs`], pending epoch-skip faults counted
    /// in. `None` off the real-clock policy, which never decays on time.
    #[must_use]
    pub fn ticks_to_next_epoch(&self) -> Option<u64> {
        if self.config.policy() != CounterPolicy::SubtractRealClock {
            return None;
        }
        let step = self.config.msb_step();
        let to_wrap = step.saturating_sub(self.real_lsb).max(1);
        Some(to_wrap.saturating_add(self.skipped_epochs.saturating_mul(step)))
    }

    /// Advances the real-time subcounter by `n` ticks at once,
    /// bit-identically to `n` consecutive [`Arbiter::tick`] calls —
    /// including the epoch-skip fault swallowing. `on_epoch(offset,
    /// epochs)` fires for every decay epoch the batch performs, where
    /// `offset` is the 0-based tick index within the batch whose wrap
    /// caused it and `epochs` the post-decay epoch count — exactly the
    /// sampling a dense caller would observe around each single tick.
    ///
    /// This is the idle-skip clock for the `bitpar` engine: instead of
    /// `n` per-cycle ticks it walks wrap to wrap, so the cost scales
    /// with decay epochs (rare), not skipped cycles.
    pub fn tick_batch(&mut self, n: u64, mut on_epoch: impl FnMut(u64, u64)) {
        if self.config.policy() != CounterPolicy::SubtractRealClock {
            return;
        }
        let step = self.config.msb_step();
        let mut done = 0u64;
        while done < n {
            // Ticks until (and including) the next wrap; `max(1)`
            // mirrors `tick()`'s `>=` wrap guard if `real_lsb` were
            // ever at/above the step.
            let to_wrap = step.saturating_sub(self.real_lsb).max(1);
            if n - done < to_wrap {
                self.real_lsb += n - done;
                return;
            }
            done += to_wrap;
            self.real_lsb = 0;
            if self.skipped_epochs > 0 {
                // Epoch-skip fault: the wrap happened but the broadcast
                // subtraction was swallowed, so counters keep climbing.
                self.skipped_epochs -= 1;
                continue;
            }
            self.epochs += 1;
            for a in &mut self.aux {
                *a = a.saturating_sub(step);
            }
            on_epoch(done - 1, self.epochs);
        }
    }
}

impl Arbiter for SsvcArbiter {
    fn num_inputs(&self) -> usize {
        self.vticks.len()
    }

    fn arbitrate(&mut self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        let candidates: Vec<usize> = requests
            .iter()
            .map(|r| {
                assert!(
                    r.input() < self.aux.len(),
                    "input {} out of range",
                    r.input()
                );
                r.input()
            })
            .collect();
        let winner = self.peek(&candidates)?;
        self.commit_win(winner);
        Some(winner)
    }

    fn decide(&self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        let candidates: Vec<usize> = requests
            .iter()
            .map(|r| {
                assert!(
                    r.input() < self.aux.len(),
                    "input {} out of range",
                    r.input()
                );
                r.input()
            })
            .collect();
        self.peek(&candidates)
    }

    /// Advances the real-time subcounter. Under
    /// [`CounterPolicy::SubtractRealClock`], when the subcounter wraps,
    /// one MSB step is subtracted from every `auxVC` (flooring at zero),
    /// which shifts every thermometer code down by one position — keeping
    /// the counters relative to real time so idle flows cannot bank
    /// priority and busy counters never saturate.
    fn tick(&mut self) {
        if self.config.policy() != CounterPolicy::SubtractRealClock {
            return;
        }
        self.real_lsb += 1;
        if self.real_lsb >= self.config.msb_step() {
            self.real_lsb = 0;
            if self.skipped_epochs > 0 {
                // Epoch-skip fault: the wrap happened but the broadcast
                // subtraction was swallowed, so counters keep climbing.
                self.skipped_epochs -= 1;
                return;
            }
            self.epochs += 1;
            let step = self.config.msb_step();
            for a in &mut self.aux {
                *a = a.saturating_sub(step);
            }
        }
    }
}

impl fmt::Display for SsvcArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SSVC({} inputs, {}+{} bits, {})",
            self.vticks.len(),
            self.config.sig_bits(),
            self.config.lsb_bits(),
            self.config.policy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: CounterPolicy) -> SsvcConfig {
        SsvcConfig::new(12, 3, policy)
    }

    fn reqs(inputs: &[usize]) -> Vec<Request> {
        inputs.iter().map(|&i| Request::new(i, 8)).collect()
    }

    #[test]
    fn config_derivations() {
        let c = cfg(CounterPolicy::SubtractRealClock);
        assert_eq!(c.lsb_bits(), 9);
        assert_eq!(c.num_lanes(), 8);
        assert_eq!(c.saturation_cap(), 4095);
        assert_eq!(c.msb_step(), 512);
    }

    #[test]
    #[should_panic(expected = "sig_bits")]
    fn config_rejects_degenerate_widths() {
        let _ = SsvcConfig::new(8, 8, CounterPolicy::Reset);
    }

    #[test]
    fn tick_batch_matches_repeated_ticks() {
        for n in [0u64, 1, 7, 511, 512, 513, 5_000, 12_345] {
            let mut batched = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[10, 20]);
            let mut dense = batched.clone();
            batched.set_aux_vc(0, 3000);
            dense.set_aux_vc(0, 3000);
            let mut batch_epochs = Vec::new();
            batched.tick_batch(n, |off, epoch| batch_epochs.push((off, epoch)));
            let mut dense_epochs = Vec::new();
            for j in 0..n {
                let before = dense.decay_epochs();
                dense.tick();
                if dense.decay_epochs() != before {
                    dense_epochs.push((j, dense.decay_epochs()));
                }
            }
            assert_eq!(batch_epochs, dense_epochs, "epoch stream differs at n={n}");
            assert_eq!(batched.decay_epochs(), dense.decay_epochs(), "n={n}");
            for i in 0..2 {
                assert_eq!(batched.aux_vc(i), dense.aux_vc(i), "aux {i} at n={n}");
            }
        }
    }

    #[test]
    fn ticks_to_next_epoch_names_the_tick_that_decays() {
        for (warm, skips) in [(0, 0), (1, 0), (255, 0), (256, 0), (300, 2)] {
            let mut ssvc = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[4, 4]);
            for _ in 0..warm {
                ssvc.tick();
            }
            ssvc.fault_skip_epochs(skips);
            let n = ssvc.ticks_to_next_epoch().expect("real-clock policy");
            let before = ssvc.decay_epochs();
            for _ in 1..n {
                ssvc.tick();
            }
            assert_eq!(ssvc.decay_epochs(), before, "decayed before tick {n}");
            ssvc.tick();
            assert_eq!(ssvc.decay_epochs(), before + 1, "tick {n} must decay");
        }
        let halve = SsvcArbiter::new(cfg(CounterPolicy::Halve), &[4, 4]);
        assert_eq!(halve.ticks_to_next_epoch(), None);
    }

    #[test]
    fn tick_batch_is_a_noop_off_the_real_clock_policy() {
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::Halve), &[10]);
        s.set_aux_vc(0, 2000);
        s.tick_batch(10_000, |_, _| panic!("no epochs under Halve"));
        assert_eq!(s.aux_vc(0), 2000);
        assert_eq!(s.decay_epochs(), 0);
    }

    #[test]
    fn smallest_aux_vc_wins() {
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[100, 100, 100]);
        s.set_aux_vc(0, 3000);
        s.set_aux_vc(1, 100);
        s.set_aux_vc(2, 2000);
        assert_eq!(s.arbitrate(Cycle::ZERO, &reqs(&[0, 1, 2])), Some(1));
    }

    #[test]
    fn coarse_comparison_ignores_low_bits() {
        // auxVC 0 and 511 share MSB value 0 on a 3+9 bit counter, so LRG
        // (not the counter) must decide between them.
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[1, 1]);
        s.set_aux_vc(0, 511);
        s.set_aux_vc(1, 0);
        // Fresh LRG prefers input 0 despite its larger exact auxVC — the
        // coarse comparison deliberately cannot see the difference.
        assert_eq!(s.peek(&[0, 1]), Some(0));
    }

    #[test]
    fn figure1_example_decision() {
        // Fig. 1(a): MSB values In0=6, In1=6, In2=4, In5=4, In6=4 (among
        // requesters); In2 wins because 4 < 6 and LRG prefers 2 over 5, 6.
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[1; 8]);
        let msbs = [6u64, 6, 4, 0, 1, 4, 4, 7];
        for (i, &m) in msbs.iter().enumerate() {
            s.set_aux_vc(i, m << 9);
        }
        assert_eq!(s.peek(&[0, 1, 2, 5, 6]), Some(2));
    }

    #[test]
    fn win_increments_by_vtick() {
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[20, 40]);
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(s.aux_vc(0), 20);
        assert_eq!(s.aux_vc(1), 0);
    }

    #[test]
    fn ties_rotate_through_lrg() {
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[512, 512, 512]);
        // Identical Vticks land all flows in the same lane between
        // subtractions, so service should rotate fairly.
        let mut wins = [0u32; 3];
        for _ in 0..30 {
            // Reset counters to an identical state to isolate the tie-break.
            for i in 0..3 {
                s.set_aux_vc(i, 0);
            }
            wins[s.arbitrate(Cycle::ZERO, &reqs(&[0, 1, 2])).unwrap()] += 1;
        }
        assert_eq!(wins, [10, 10, 10]);
    }

    #[test]
    fn bandwidth_shares_follow_reservations() {
        let rates = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];
        // 8-flit packets occupy 9 channel cycles each (1 arb + 8 data).
        let vticks: Vec<u64> = rates
            .iter()
            .map(|&r| SsvcArbiter::slot_vtick(r, 9))
            .collect();
        let mut s = SsvcArbiter::new(
            SsvcConfig::new(12, 4, CounterPolicy::SubtractRealClock),
            &vticks,
        );
        let all = reqs(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut wins = [0u64; 8];
        let mut now = Cycle::ZERO;
        for _ in 0..8000 {
            // Each 8-flit packet occupies 9 channel cycles (1 arb + 8 data).
            for _ in 0..9 {
                s.tick();
                now = now.next();
            }
            wins[s.arbitrate(now, &all).unwrap()] += 1;
        }
        let total: u64 = wins.iter().sum();
        for (i, &rate) in rates.iter().enumerate() {
            let share = wins[i] as f64 / total as f64;
            assert!(
                (share - rate).abs() < 0.03,
                "flow {i}: share {share:.3} vs reserved {rate}"
            );
        }
    }

    #[test]
    fn subtract_policy_decays_counters() {
        let c = cfg(CounterPolicy::SubtractRealClock);
        let mut s = SsvcArbiter::new(c, &[1, 1]);
        s.set_aux_vc(0, 1024); // MSB value 2
        for _ in 0..c.msb_step() {
            s.tick();
        }
        assert_eq!(s.aux_vc(0), 512); // one MSB step subtracted
        assert_eq!(s.msb_value(0), 1);
        for _ in 0..2 * c.msb_step() {
            s.tick();
        }
        assert_eq!(s.aux_vc(0), 0, "floors at zero");
    }

    #[test]
    fn halve_policy_triggers_on_saturation() {
        let c = cfg(CounterPolicy::Halve);
        let mut s = SsvcArbiter::new(c, &[4095, 10]);
        s.set_aux_vc(1, 3000);
        // Input 0's win saturates its counter, halving everyone.
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(s.aux_vc(0), 4095 >> 1);
        assert_eq!(s.aux_vc(1), 1500);
    }

    #[test]
    fn reset_policy_clears_all_counters() {
        let c = cfg(CounterPolicy::Reset);
        let mut s = SsvcArbiter::new(c, &[4095, 10]);
        s.set_aux_vc(1, 3000);
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(s.aux_vc(0), 0);
        assert_eq!(s.aux_vc(1), 0);
    }

    #[test]
    fn counters_never_exceed_cap() {
        let c = cfg(CounterPolicy::SubtractRealClock);
        let mut s = SsvcArbiter::new(c, &[4000]);
        for _ in 0..10 {
            let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
            assert!(s.aux_vc(0) <= c.saturation_cap());
        }
    }

    #[test]
    fn thermometer_code_is_unary() {
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[1]);
        s.set_aux_vc(0, 5 << 9); // MSB value 5
        assert_eq!(s.thermometer_code(0), 0b0011_1111);
        s.set_aux_vc(0, 0);
        assert_eq!(s.thermometer_code(0), 0b1);
    }

    #[test]
    fn quantized_vtick_matches_figure4_rates() {
        assert_eq!(SsvcArbiter::quantized_vtick(0.4, 8), 20);
        assert_eq!(SsvcArbiter::quantized_vtick(0.05, 8), 160);
        assert_eq!(SsvcArbiter::quantized_vtick(1.0, 1), 1);
    }

    #[test]
    fn halve_preserves_bystander_order() {
        // Halving is the paper's order-preserving compression: among the
        // inputs that did not win (the winner is first charged its Vtick,
        // which may reorder it), a < b before the halve implies
        // a/2 <= b/2 after.
        let c = cfg(CounterPolicy::Halve);
        let mut s = SsvcArbiter::new(c, &[4095, 1, 1, 1]);
        s.set_aux_vc(1, 100);
        s.set_aux_vc(2, 2000);
        s.set_aux_vc(3, 4000);
        let before: Vec<u64> = (0..4).map(|i| s.aux_vc(i)).collect();
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0])); // saturates, halves all
        for i in 1..4 {
            for j in 1..4 {
                if before[i] < before[j] {
                    assert!(
                        s.aux_vc(i) <= s.aux_vc(j),
                        "order inverted: {} vs {}",
                        s.aux_vc(i),
                        s.aux_vc(j)
                    );
                }
            }
        }
        assert_eq!(s.aux_vc(1), 50);
        assert_eq!(s.aux_vc(2), 1000);
        // The winner itself: charged to the cap, then halved like the rest.
        assert_eq!(s.aux_vc(0), c.saturation_cap() >> 1);
    }

    #[test]
    fn subtract_epoch_boundary_is_exact() {
        // The decay fires exactly when the subcounter completes an MSB
        // step, not one tick early or late.
        let c = cfg(CounterPolicy::SubtractRealClock);
        let mut s = SsvcArbiter::new(c, &[1]);
        s.set_aux_vc(0, 1000);
        for _ in 0..c.msb_step() - 1 {
            s.tick();
        }
        assert_eq!(s.aux_vc(0), 1000, "decayed early");
        s.tick();
        assert_eq!(s.aux_vc(0), 1000 - c.msb_step(), "missed the boundary");
    }

    #[test]
    fn saturation_exactly_at_cap_triggers_policies() {
        // A win that lands exactly on the cap (not beyond) still fires
        // the halve/reset management.
        for policy in [CounterPolicy::Halve, CounterPolicy::Reset] {
            let c = cfg(policy);
            let cap = c.saturation_cap();
            let mut s = SsvcArbiter::new(c, &[5]);
            s.set_aux_vc(0, cap - 5);
            let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
            let expected = match policy {
                CounterPolicy::Halve => cap >> 1,
                CounterPolicy::Reset => 0,
                CounterPolicy::SubtractRealClock => unreachable!(),
            };
            assert_eq!(s.aux_vc(0), expected, "{policy}");
        }
    }

    #[test]
    fn near_cap_win_without_saturation_does_not_trigger() {
        let c = cfg(CounterPolicy::Reset);
        let cap = c.saturation_cap();
        let mut s = SsvcArbiter::new(c, &[5, 1]);
        s.set_aux_vc(0, cap - 6);
        s.set_aux_vc(1, cap - 1);
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(s.aux_vc(0), cap - 1, "no reset expected");
        assert_eq!(s.aux_vc(1), cap - 1, "bystander must be untouched");
    }

    #[test]
    fn vtick_rewrite_changes_future_charging_only() {
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[10, 10]);
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(s.aux_vc(0), 10);
        s.set_vtick(0, 100);
        assert_eq!(s.vtick(0), 100);
        assert_eq!(s.aux_vc(0), 10, "rewrite must not touch the counter");
        // Make input 0 the sole candidate again: next win charges 100.
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(s.aux_vc(0), 110);
    }

    #[test]
    fn epoch_and_saturation_counters_track_events() {
        let c = cfg(CounterPolicy::SubtractRealClock);
        let mut s = SsvcArbiter::new(c, &[1]);
        assert_eq!(s.decay_epochs(), 0);
        for _ in 0..3 * c.msb_step() {
            s.tick();
        }
        assert_eq!(s.decay_epochs(), 3);

        let c = cfg(CounterPolicy::Halve);
        let mut s = SsvcArbiter::new(c, &[4095]);
        assert_eq!(s.saturation_count(), 0);
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(s.saturation_count(), 1, "clamped win is a saturation");
        let _ = s.arbitrate(Cycle::ZERO, &reqs(&[0]));
        assert_eq!(s.saturation_count(), 2);
    }

    #[test]
    fn aux_bit_flip_can_exceed_the_cap() {
        // The fault mutator deliberately bypasses the cap check: an upset
        // of a bit above the counter width yields V3-violating state.
        let c = cfg(CounterPolicy::SubtractRealClock);
        let mut s = SsvcArbiter::new(c, &[1, 1]);
        s.set_aux_vc(0, 7);
        let after = s.fault_flip_aux_bit(0, c.counter_bits());
        assert!(after > c.saturation_cap(), "flip should exceed the cap");
        assert_eq!(s.aux_vc(0), after);
        // Flipping the same bit back heals the register exactly.
        assert_eq!(s.fault_flip_aux_bit(0, c.counter_bits()), 7);
        assert_eq!(s.aux_vc(1), 0, "bystander untouched");
    }

    #[test]
    fn skipped_epochs_swallow_the_broadcast_subtraction() {
        let c = cfg(CounterPolicy::SubtractRealClock);
        let mut s = SsvcArbiter::new(c, &[1]);
        s.set_aux_vc(0, 2000);
        s.fault_skip_epochs(1);
        assert_eq!(s.skipped_epoch_count(), 1);
        for _ in 0..c.msb_step() {
            s.tick();
        }
        assert_eq!(s.aux_vc(0), 2000, "skipped wrap must not decay");
        assert_eq!(s.decay_epochs(), 0, "a swallowed wrap is not completed");
        assert_eq!(s.skipped_epoch_count(), 0);
        for _ in 0..c.msb_step() {
            s.tick();
        }
        assert_eq!(s.aux_vc(0), 2000 - c.msb_step(), "next wrap decays again");
        assert_eq!(s.decay_epochs(), 1);
    }

    #[test]
    fn preview_win_matches_commit_win() {
        use ssq_types::rng::Xoshiro256StarStar;

        let mut rng = Xoshiro256StarStar::seed_from_u64(0x55C0_11A7);
        for policy in [
            CounterPolicy::SubtractRealClock,
            CounterPolicy::Halve,
            CounterPolicy::Reset,
        ] {
            let c = cfg(policy);
            let vticks: Vec<u64> = (0..4).map(|_| 1 + rng.below(600)).collect();
            let mut s = SsvcArbiter::new(c, &vticks);
            for _ in 0..500 {
                let winner = rng.index(4);
                let (predicted_aux, predicted_sat) = s.preview_win(winner);
                let sat_before = s.saturation_count();
                s.commit_win(winner);
                assert_eq!(s.aux_vc(winner), predicted_aux, "{policy} aux");
                assert_eq!(
                    s.saturation_count() > sat_before,
                    predicted_sat,
                    "{policy} saturation"
                );
            }
        }
    }

    const POLICIES: [CounterPolicy; 3] = [
        CounterPolicy::SubtractRealClock,
        CounterPolicy::Halve,
        CounterPolicy::Reset,
    ];

    /// The candidate list `peek` takes for a request word.
    fn list_of(word: u64) -> Vec<usize> {
        (0..64).filter(|&i| word & (1u64 << i) != 0).collect()
    }

    #[test]
    fn peek_mask_matches_peek_on_every_request_word_up_to_radix_6() {
        use ssq_types::rng::Xoshiro256StarStar;

        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_3A5C);
        for policy in POLICIES {
            for n in 1..=6usize {
                let vticks: Vec<u64> = (0..n).map(|_| 1 + rng.below(900)).collect();
                let mut s = SsvcArbiter::new(cfg(policy), &vticks);
                // Evolve the counters, lanes and LRG order between sweeps:
                // ticks decay, wins charge, saturations halve or reset.
                for _ in 0..60 {
                    for word in 0..1u64 << n {
                        assert_eq!(
                            s.peek_mask(word),
                            s.peek(&list_of(word)),
                            "{policy} n={n} word={word:#b}"
                        );
                    }
                    for _ in 0..rng.below(700) {
                        s.tick();
                    }
                    let word = 1 + rng.below((1u64 << n) - 1);
                    let winner = s.peek_mask(word).expect("non-empty word");
                    s.commit_win(winner);
                }
            }
        }
    }

    #[test]
    fn peek_mask_matches_peek_seeded_at_radix_64() {
        use ssq_types::rng::Xoshiro256StarStar;

        for policy in POLICIES {
            let mut rng = Xoshiro256StarStar::seed_from_u64(0x64 + policy as u64);
            let vticks: Vec<u64> = (0..64).map(|_| 1 + rng.below(400)).collect();
            let mut s = SsvcArbiter::new(cfg(policy), &vticks);
            for round in 0..2_000 {
                // Dense, sparse and single-bit words alike.
                let word = match round % 3 {
                    0 => rng.next_u64(),
                    1 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                    _ => 1u64 << rng.index(64),
                };
                let by_mask = s.peek_mask(word);
                assert_eq!(
                    by_mask,
                    s.peek(&list_of(word)),
                    "{policy} round={round} word={word:#x}"
                );
                for _ in 0..rng.below(40) {
                    s.tick();
                }
                if let Some(w) = by_mask {
                    s.commit_win(w);
                }
            }
        }
    }

    #[test]
    fn peek_mask_ranks_a_corrupted_counter_by_its_raw_lane() {
        // An upset above the counter width puts the input in a lane the
        // thermometer cannot express; both entry points must still agree
        // that it loses to every healthy requester.
        let mut s = SsvcArbiter::new(cfg(CounterPolicy::SubtractRealClock), &[1, 1, 1]);
        let _ = s.fault_flip_aux_bit(0, 40);
        assert_eq!(s.peek_mask(0b111), s.peek(&[0, 1, 2]));
        assert_eq!(s.peek_mask(0b111), Some(1));
        assert_eq!(s.peek_mask(0b001), Some(0));
        assert_eq!(s.peek_mask(0), None);
    }

    #[test]
    fn display_mentions_policy() {
        let s = SsvcArbiter::new(cfg(CounterPolicy::Reset), &[1]);
        assert!(s.to_string().contains("reset"));
    }
}
