//! The verification model: one output channel of a small switch, as an
//! explicit finite-state transition system.
//!
//! # State-space encoding (DESIGN.md §7)
//!
//! Arbitration state in `ssq-core` is kept **per output**, so checking
//! one output channel exhaustively is sound for the whole switch. One
//! [`ModelState`] packs everything the pipeline remembers between
//! cycles:
//!
//! * the `auxVC` counter of every input (`aux`),
//! * the real-time subcounter phase (`real_lsb`, subtract-real-clock
//!   policy only; pinned to 0 otherwise),
//! * the three LRG priority permutations — the SSVC-internal GB order,
//!   the dedicated GL-lane order, and the best-effort bus order — each
//!   stored as its `priority_order()` permutation,
//! * the V4/V5 observation counters (`starved`, `gl_wait`).
//!
//! States are *rebuilt* into live [`SsvcArbiter`]/[`Lrg`] instances
//! rather than poked field-by-field: an LRG whose grant history was
//! `O[0], O[1], …, O[n−1]` ends in exactly the priority order
//! `O[0] > O[1] > … > O[n−1]`, so replaying the stored permutation as a
//! grant sequence reproduces the arbiter bit-for-bit through its public
//! API only.
//!
//! Each input has a fixed traffic class (the scenario *mix*) and the
//! transition alphabet is the full power set of request patterns: every
//! subset of inputs may assert a request in every cycle. Packets are
//! single-flit (`l_max = l_min = b = 1`), which is the arbitration
//! granularity — QoS decisions happen per arbitration, so longer
//! packets only dilate time without adding arbitration behaviour.

use ssq_arbiter::{Arbiter, CounterPolicy, Lrg, SsvcArbiter, SsvcConfig};
use ssq_circuit::{CircuitConfig, InhibitFabric, PortRequest, ThermometerRegister};
use ssq_trace::{Event, EventKind};
use ssq_types::invariant::{self, Invariant};
use ssq_types::{bounds, TrafficClass};

/// How the behavioural model breaks ties between equal thermometer
/// codes. The shipped pipeline always uses LRG; the deliberately wrong
/// variant exists (under `cfg(test)`) to prove the checker finds a
/// seeded arbitration bug with a minimal counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Least-recently-granted — the paper's tie-break.
    #[default]
    Lrg,
    /// Deliberately broken: highest input index wins ties. The circuit
    /// model still implements LRG, so V6 must catch the divergence.
    #[cfg(test)]
    HighestIndex,
}

/// One model-checking scenario: the switch shape, class mix, and
/// exploration bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Human-readable scenario name (appears in reports).
    pub name: String,
    /// Finite-counter management policy under test.
    pub policy: CounterPolicy,
    /// Traffic class of each input; its length is the radix.
    pub mix: Vec<TrafficClass>,
    /// `Vtick` per input (GB inputs consume these; others keep a
    /// placeholder since the SSVC arbiter tracks every input).
    pub vticks: Vec<u64>,
    /// Total `auxVC` width in bits.
    pub counter_bits: u32,
    /// Significant (thermometer) bits of the counter.
    pub sig_bits: u32,
    /// Maximum exploration depth in cycles.
    pub horizon: u32,
    /// Maximum number of distinct states to retain before truncating.
    pub max_states: usize,
    /// Behavioural tie-break (always [`TieBreak::Lrg`] outside tests).
    pub tie_break: TieBreak,
}

impl Scenario {
    /// Creates a scenario with the default exploration bounds: 4-bit
    /// counters with 2 significant bits, a 4096-cycle horizon, and a
    /// one-million-state cap.
    ///
    /// # Panics
    ///
    /// Panics if `mix` and `vticks` disagree in length, the radix is
    /// below 2, or any `Vtick` is zero or would saturate a fresh
    /// counter in one win (the state rebuild relies on single wins
    /// staying far from the cap).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        policy: CounterPolicy,
        mix: Vec<TrafficClass>,
        vticks: Vec<u64>,
    ) -> Self {
        let scenario = Scenario {
            name: name.into(),
            policy,
            mix,
            vticks,
            counter_bits: 4,
            sig_bits: 2,
            horizon: 4096,
            max_states: 1 << 20,
            tie_break: TieBreak::default(),
        };
        scenario.validate();
        scenario
    }

    /// Overrides the exploration bounds (used by the deep tier).
    #[must_use]
    pub fn with_bounds(mut self, horizon: u32, max_states: usize) -> Self {
        self.horizon = horizon;
        self.max_states = max_states;
        self
    }

    /// The switch radix (number of inputs at the modelled output).
    #[must_use]
    pub fn radix(&self) -> usize {
        self.mix.len()
    }

    fn validate(&self) {
        assert_eq!(
            self.mix.len(),
            self.vticks.len(),
            "one Vtick per input of the mix"
        );
        assert!(self.radix() >= 2, "a switch needs at least two inputs");
        let cap = (1u64 << self.counter_bits) - 1;
        assert!(
            self.vticks.iter().all(|&v| v > 0 && v < cap),
            "Vticks must be in 1..cap ({cap}) so a single win cannot saturate"
        );
    }
}

/// One reachable state of the modelled output channel. Hashable so the
/// explorer can memoize visited states.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// `auxVC` counter per input.
    pub aux: Vec<u64>,
    /// Real-time subcounter phase (subtract-real-clock policy only).
    pub real_lsb: u64,
    /// SSVC-internal (GB) LRG priority permutation, best first.
    pub gb_order: Vec<u8>,
    /// GL-lane LRG priority permutation, best first.
    pub gl_order: Vec<u8>,
    /// Best-effort bus LRG priority permutation, best first.
    pub be_order: Vec<u8>,
    /// V4: consecutive best-effort arbitration losses while requesting.
    pub starved: Vec<u8>,
    /// V5: consecutive cycles a GL input has requested without a grant.
    pub gl_wait: Vec<u8>,
}

/// One invariant violation found on a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// What went wrong, with the concrete values involved.
    pub detail: String,
}

/// The result of one model step.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "dropping a step output discards the violation verdict"]
pub struct StepOutput {
    /// The successor state.
    pub next: ModelState,
    /// The first invariant violated on this transition, if any.
    pub violation: Option<Violation>,
}

/// Trace recording context threaded through a counterexample replay.
#[derive(Debug, Default)]
pub(crate) struct Recording {
    /// Cycle stamped on emitted events.
    pub cycle: u64,
    /// Cumulative decay epochs across the whole replay.
    pub decays: u64,
    /// The events of the replay so far.
    pub events: Vec<Event>,
}

/// The executable transition system for one scenario.
#[derive(Debug, Clone)]
pub struct Model {
    scenario: Scenario,
    cfg: SsvcConfig,
    fabric: InhibitFabric,
    n_gl: usize,
    /// Eq. 1 bound at arbitration granularity (`l_max = l_min = b = 1`).
    eq1_bound: u64,
}

impl Model {
    /// Builds the transition system for `scenario`.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        let cfg = SsvcConfig::new(scenario.counter_bits, scenario.sig_bits, scenario.policy);
        let has_gl = scenario.mix.contains(&TrafficClass::GuaranteedLatency);
        let n_gl = scenario
            .mix
            .iter()
            .filter(|&&c| c == TrafficClass::GuaranteedLatency)
            .count();
        let circuit = CircuitConfig::new(scenario.radix(), cfg.num_lanes(), has_gl);
        let eq1_bound = bounds::gl_latency_bound(1, 1, n_gl as u64, 1);
        Model {
            scenario,
            cfg,
            fabric: InhibitFabric::new(circuit),
            n_gl,
            eq1_bound,
        }
    }

    /// The scenario this model executes.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The Eq. 1 waiting bound checked by V5, in arbitration cycles.
    #[must_use]
    pub fn eq1_bound(&self) -> u64 {
        self.eq1_bound
    }

    /// The quiescent initial state: all counters zero, identity LRG
    /// orders, no observed waiting.
    #[must_use]
    pub fn initial_state(&self) -> ModelState {
        let n = self.scenario.radix();
        let identity: Vec<u8> = (0..n).map(|i| i as u8).collect();
        ModelState {
            aux: vec![0; n],
            real_lsb: 0,
            gb_order: identity.clone(),
            gl_order: identity.clone(),
            be_order: identity,
            starved: vec![0; n],
            gl_wait: vec![0; n],
        }
    }

    /// Reconstructs live arbiters from a stored state, through public
    /// APIs only: LRG orders are replayed as grant sequences, counters
    /// overwritten afterwards, and the real-time phase advanced tick by
    /// tick.
    fn rebuild(&self, state: &ModelState) -> (SsvcArbiter, Lrg, Lrg) {
        let n = self.scenario.radix();
        let mut ssvc = SsvcArbiter::new(self.cfg, &self.scenario.vticks);
        for &w in &state.gb_order {
            ssvc.commit_win(w as usize);
        }
        assert_eq!(
            ssvc.saturation_count(),
            0,
            "rebuild saturated a counter; scenario Vticks too large"
        );
        for (i, &a) in state.aux.iter().enumerate() {
            ssvc.set_aux_vc(i, a);
        }
        for _ in 0..state.real_lsb {
            ssvc.tick();
        }
        assert_eq!(ssvc.decay_epochs(), 0, "stored real_lsb crossed an epoch");
        let mut gl_lrg = Lrg::new(n);
        for &w in &state.gl_order {
            gl_lrg.grant(w as usize);
        }
        let mut be_lrg = Lrg::new(n);
        for &w in &state.be_order {
            be_lrg.grant(w as usize);
        }
        (ssvc, gl_lrg, be_lrg)
    }

    /// Executes one cycle from `state` under the given request
    /// `pattern` (bit `i` set ⇔ input `i` requests), checking V1–V6 on
    /// the way. When `rec` is supplied, the cycle's observable events
    /// are appended in `ssq-trace` taxonomy order.
    pub(crate) fn step(
        &self,
        state: &ModelState,
        pattern: u32,
        mut rec: Option<&mut Recording>,
    ) -> StepOutput {
        let n = self.scenario.radix();
        let cap = self.cfg.saturation_cap();
        let lanes = self.cfg.num_lanes() as u32;
        let (mut ssvc, mut gl_lrg, mut be_lrg) = self.rebuild(state);

        // --- Real-time tick (decay under subtract-real-clock). -------
        let pre_msb: Vec<u64> = (0..n).map(|i| ssvc.msb_value(i)).collect();
        ssvc.tick();
        let decayed = ssvc.decay_epochs() > 0;

        // Mirror the per-crosspoint thermometer registers: seed from the
        // pre-tick significant bits, then apply exactly the register
        // operations the hardware would (V2 checks the mirror against
        // the counter arithmetic after every phase).
        let mut regs: Vec<ThermometerRegister> = pre_msb
            .iter()
            .map(|&m| {
                let mut r = ThermometerRegister::new(lanes);
                r.set_value(m);
                r
            })
            .collect();
        if decayed {
            for r in &mut regs {
                r.shift_down();
            }
            if let Some(r) = rec.as_deref_mut() {
                r.decays += 1;
                let (cycle, epoch) = (r.cycle, r.decays);
                r.events.push(Event {
                    cycle,
                    kind: EventKind::Decay { output: 0, epoch },
                });
            }
        }
        if let Some(v) = self.check_thermometers(&regs, &ssvc, "after real-time decay") {
            return self.abort(state, v);
        }

        // --- Classify this cycle's requesters. ------------------------
        let mut gl = Vec::new();
        let mut gb = Vec::new();
        let mut be = Vec::new();
        for (i, &class) in self.scenario.mix.iter().enumerate() {
            if pattern & (1 << i) == 0 {
                continue;
            }
            match class {
                TrafficClass::GuaranteedLatency => gl.push(i),
                TrafficClass::GuaranteedBandwidth => gb.push(i),
                TrafficClass::BestEffort => be.push(i),
            }
        }

        // --- Behavioural decision (class priority GL > GB > BE). ------
        let (winner, class) = if !gl.is_empty() {
            (gl_lrg.peek(&gl), TrafficClass::GuaranteedLatency)
        } else if !gb.is_empty() {
            let w = match self.scenario.tie_break {
                TieBreak::Lrg => ssvc.peek(&gb),
                #[cfg(test)]
                TieBreak::HighestIndex => {
                    let min = gb.iter().map(|&c| ssvc.msb_value(c)).min();
                    min.and_then(|m| gb.iter().copied().filter(|&c| ssvc.msb_value(c) == m).max())
                }
            };
            (w, TrafficClass::GuaranteedBandwidth)
        } else {
            (be_lrg.peek(&be), TrafficClass::BestEffort)
        };

        // --- Record the decision and GB inhibit activity (before the
        // circuit cross-check, so a V1/V6 counterexample trace ends
        // with the diverging decision). ---------------------------------
        if let (Some(r), Some(w)) = (rec.as_deref_mut(), winner) {
            let contenders = match class {
                TrafficClass::GuaranteedLatency => gl.len(),
                TrafficClass::GuaranteedBandwidth => gb.len(),
                TrafficClass::BestEffort => be.len(),
            };
            let cycle = r.cycle;
            r.events.push(Event {
                cycle,
                kind: EventKind::Decision {
                    output: 0,
                    class,
                    contenders: contenders as u32,
                    winner: w as u32,
                },
            });
            if class == TrafficClass::GuaranteedBandwidth {
                let winner_msb = ssvc.msb_value(w);
                for &loser in gb.iter().filter(|&&i| i != w) {
                    r.events.push(Event {
                        cycle,
                        kind: EventKind::Inhibit {
                            output: 0,
                            input: loser as u32,
                            msb: ssvc.msb_value(loser),
                            winner_msb,
                        },
                    });
                }
            }
        }

        // --- V1 + V6: the bitline circuit must agree. -----------------
        // BE traffic arbitrates on a separate LRG-only bus, so the
        // inhibit fabric sees only the GL/GB requesters.
        if !gl.is_empty() || !gb.is_empty() {
            let ports: Vec<PortRequest> = (0..n)
                .map(|i| {
                    if pattern & (1 << i) == 0 {
                        return PortRequest::Idle;
                    }
                    match self.scenario.mix[i] {
                        TrafficClass::GuaranteedLatency => PortRequest::Gl,
                        TrafficClass::GuaranteedBandwidth => PortRequest::Gb {
                            msb_value: ssvc.msb_value(i),
                        },
                        TrafficClass::BestEffort => PortRequest::Idle,
                    }
                })
                .collect();
            let outcome = self.fabric.arbitrate(&ports, ssvc.lrg(), &gl_lrg);

            // Replicate the sense phase to count still-charged wires.
            let any_gl = !gl.is_empty();
            let gl_lane = self.cfg.num_lanes();
            let mut charged = 0usize;
            for (i, port) in ports.iter().enumerate() {
                match *port {
                    PortRequest::Idle => {}
                    PortRequest::Gb { msb_value } => {
                        if !any_gl && outcome.bitlines().is_charged(msb_value as usize, i) {
                            charged += 1;
                        }
                    }
                    PortRequest::Gl => {
                        if outcome.bitlines().is_charged(gl_lane, i) {
                            charged += 1;
                        }
                    }
                }
            }
            if !invariant::single_grant(charged, true) {
                return self.abort(
                    state,
                    Violation {
                        invariant: Invariant::SingleGrant,
                        detail: format!(
                            "{charged} charged sense wires for pattern {pattern:#b} \
                             (expected exactly 1)"
                        ),
                    },
                );
            }
            if !invariant::grants_agree(winner, outcome.winner()) {
                return self.abort(
                    state,
                    Violation {
                        invariant: Invariant::GrantAgreement,
                        detail: format!(
                            "behavioural arbiter granted {winner:?} but the bitline \
                             circuit granted {:?} for pattern {pattern:#b}",
                            outcome.winner()
                        ),
                    },
                );
            }
        }

        // --- Commit the grant. ----------------------------------------
        let post_tick_msb: Vec<u64> = (0..n).map(|i| ssvc.msb_value(i)).collect();
        let waited_pre = winner.map(|w| match class {
            TrafficClass::GuaranteedLatency => u64::from(state.gl_wait[w]),
            TrafficClass::BestEffort => u64::from(state.starved[w]),
            TrafficClass::GuaranteedBandwidth => 0,
        });
        if let Some(w) = winner {
            match class {
                TrafficClass::GuaranteedLatency => gl_lrg.grant(w),
                TrafficClass::BestEffort => be_lrg.grant(w),
                TrafficClass::GuaranteedBandwidth => {
                    let bumped = (ssvc.aux_vc(w) + ssvc.vtick(w)).min(cap);
                    ssvc.commit_win(w);
                    let saturated = ssvc.saturation_count() > 0;
                    // Mirror the winner's register: one shift per MSB
                    // step crossed, then the policy's collapse action.
                    for _ in post_tick_msb[w]..(bumped >> self.cfg.lsb_bits()) {
                        regs[w].shift_up();
                    }
                    if saturated {
                        match self.scenario.policy {
                            CounterPolicy::SubtractRealClock => {}
                            CounterPolicy::Halve => regs.iter_mut().for_each(|r| r.halve()),
                            CounterPolicy::Reset => regs.iter_mut().for_each(|r| r.reset()),
                        }
                    }
                    if let Some(r) = rec.as_deref_mut() {
                        let cycle = r.cycle;
                        r.events.push(Event {
                            cycle,
                            kind: EventKind::AuxVc {
                                output: 0,
                                input: w as u32,
                                aux: ssvc.aux_vc(w),
                                saturated,
                            },
                        });
                    }
                    if let Some(v) =
                        self.check_thermometers(&regs, &ssvc, "after the winner's Vtick charge")
                    {
                        return self.abort(state, v);
                    }
                }
            }
        }
        if let (Some(r), Some(w)) = (rec, winner) {
            let cycle = r.cycle;
            r.events.push(Event {
                cycle,
                kind: EventKind::Grant {
                    output: 0,
                    input: w as u32,
                    class,
                    len_flits: 1,
                    waited: waited_pre.unwrap_or(0),
                },
            });
        }

        // --- V3: counters stay within their configured width. ---------
        for i in 0..n {
            if !invariant::aux_within_cap(ssvc.aux_vc(i), cap) {
                return self.abort(
                    state,
                    Violation {
                        invariant: Invariant::AuxWidth,
                        detail: format!(
                            "auxVC[{i}] = {} exceeds the {}-bit cap {cap}",
                            ssvc.aux_vc(i),
                            self.cfg.counter_bits()
                        ),
                    },
                );
            }
        }

        // --- V4/V5: starvation and waiting-time observation. ----------
        let be_round = gl.is_empty() && gb.is_empty() && !be.is_empty();
        let mut starved = state.starved.clone();
        let mut gl_wait = state.gl_wait.clone();
        for i in 0..n {
            let requested = pattern & (1 << i) != 0;
            match self.scenario.mix[i] {
                TrafficClass::BestEffort => {
                    if !requested || winner == Some(i) {
                        starved[i] = 0;
                    } else if be_round {
                        // Lost a best-effort round to another BE input;
                        // cycles pre-empted by GL/GB traffic do not count
                        // against the LRG fairness guarantee.
                        starved[i] = starved[i].saturating_add(1);
                    }
                    if !invariant::lrg_no_starvation(u64::from(starved[i]), n) {
                        return self.abort(
                            state,
                            Violation {
                                invariant: Invariant::LrgStarvation,
                                detail: format!(
                                    "BE input {i} lost {} consecutive contested rounds \
                                     (radix {n})",
                                    starved[i]
                                ),
                            },
                        );
                    }
                }
                TrafficClass::GuaranteedLatency => {
                    if !requested || winner == Some(i) {
                        gl_wait[i] = 0;
                    } else {
                        gl_wait[i] = gl_wait[i].saturating_add(1);
                    }
                    if !invariant::gl_wait_within_bound(u64::from(gl_wait[i]), self.eq1_bound) {
                        return self.abort(
                            state,
                            Violation {
                                invariant: Invariant::GlBound,
                                detail: format!(
                                    "GL input {i} has waited {} cycles, above the Eq. 1 \
                                     bound of {} ({} GL inputs)",
                                    gl_wait[i], self.eq1_bound, self.n_gl
                                ),
                            },
                        );
                    }
                }
                TrafficClass::GuaranteedBandwidth => {}
            }
        }

        // --- Pack the successor state. --------------------------------
        let real_lsb = if self.scenario.policy == CounterPolicy::SubtractRealClock {
            (state.real_lsb + 1) % self.cfg.msb_step()
        } else {
            0
        };
        let next = ModelState {
            aux: (0..n).map(|i| ssvc.aux_vc(i)).collect(),
            real_lsb,
            gb_order: order_bytes(ssvc.lrg()),
            gl_order: order_bytes(&gl_lrg),
            be_order: order_bytes(&be_lrg),
            starved,
            gl_wait,
        };
        StepOutput {
            next,
            violation: None,
        }
    }

    /// V2: every mirrored thermometer register must be well formed and
    /// agree with the counter's significant bits.
    fn check_thermometers(
        &self,
        regs: &[ThermometerRegister],
        ssvc: &SsvcArbiter,
        phase: &str,
    ) -> Option<Violation> {
        for (i, reg) in regs.iter().enumerate() {
            if !invariant::thermometer_well_formed(reg.code()) {
                return Some(Violation {
                    invariant: Invariant::Thermometer,
                    detail: format!(
                        "input {i}: thermometer code {:#b} is malformed {phase}",
                        reg.code()
                    ),
                });
            }
            if reg.value() != ssvc.msb_value(i) {
                return Some(Violation {
                    invariant: Invariant::Thermometer,
                    detail: format!(
                        "input {i}: register lane {} diverged from counter MSBs {} {phase}",
                        reg.value(),
                        ssvc.msb_value(i)
                    ),
                });
            }
        }
        None
    }

    /// Wraps a violation into a step output whose successor is the
    /// (unchanged) source state — exploration stops at the violation,
    /// so the successor is never enqueued.
    fn abort(&self, state: &ModelState, violation: Violation) -> StepOutput {
        StepOutput {
            next: state.clone(),
            violation: Some(violation),
        }
    }
}

/// An LRG's priority permutation as compact bytes for state hashing.
fn order_bytes(lrg: &Lrg) -> Vec<u8> {
    lrg.priority_order().into_iter().map(|p| p as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb2() -> Scenario {
        Scenario::new(
            "gb2",
            CounterPolicy::SubtractRealClock,
            vec![
                TrafficClass::GuaranteedBandwidth,
                TrafficClass::GuaranteedBandwidth,
            ],
            vec![1, 3],
        )
    }

    #[test]
    fn rebuild_round_trips_through_step() {
        let model = Model::new(gb2());
        let s0 = model.initial_state();
        // Stepping twice from the same state is deterministic.
        let a = model.step(&s0, 0b11, None);
        let b = model.step(&s0, 0b11, None);
        assert_eq!(a, b);
        assert!(a.violation.is_none());
        // The winner charged its counter.
        assert_eq!(a.next.aux.iter().sum::<u64>(), 1);
    }

    #[test]
    fn idle_pattern_only_advances_the_clock() {
        let model = Model::new(gb2());
        let s0 = model.initial_state();
        let out = model.step(&s0, 0, None);
        assert!(out.violation.is_none());
        assert_eq!(out.next.aux, vec![0, 0]);
        assert_eq!(out.next.real_lsb, 1);
        assert_eq!(out.next.gb_order, s0.gb_order);
    }

    #[test]
    fn lrg_orders_survive_the_permutation_encoding() {
        let model = Model::new(gb2());
        let s0 = model.initial_state();
        // Input 0 wins (identity LRG, equal counters) and drops to the
        // bottom of the GB order.
        let out = model.step(&s0, 0b11, None);
        assert_eq!(out.next.gb_order, vec![1, 0]);
        // Rebuilding from that state and tying again must grant 1.
        let out2 = model.step(&out.next, 0b11, None);
        assert!(out2.violation.is_none());
        assert_eq!(out2.next.aux[1], 3);
    }

    #[test]
    fn gl_preempts_and_resets_its_wait() {
        let model = Model::new(Scenario::new(
            "gl-gb",
            CounterPolicy::Reset,
            vec![
                TrafficClass::GuaranteedLatency,
                TrafficClass::GuaranteedBandwidth,
            ],
            vec![1, 1],
        ));
        let out = model.step(&model.initial_state(), 0b11, None);
        assert!(out.violation.is_none());
        // GL wins, so its wait counter stays zero and no GB charge
        // happened.
        assert_eq!(out.next.gl_wait[0], 0);
        assert_eq!(out.next.aux, vec![0, 0]);
    }
}
