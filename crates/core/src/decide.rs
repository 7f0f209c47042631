//! The pure per-output arbitration kernel behind every `step`.
//!
//! [`QosSwitch::decide_output`] predicts what one output will do this
//! cycle — transmit, idle, wait out the arbitration latency, or run one
//! arbitration round and who wins it — **without mutating any switch
//! state**, and does it as word arithmetic: the output's three class
//! request words (`xreq`) ANDed with the word of inputs allowed to
//! compete, then the mask-native arbiters (`SsvcArbiter::peek_mask`,
//! `Lrg::peek_mask`). The result is a small `Copy` [`OutputPlan`]; the
//! serial commit side in `switch.rs` applies its predicted winner.
//!
//! `CycleModel::step`, the profiled step and the sharded
//! `shard_decide`/`shard_merge` pair all drive this one kernel, so
//! their grant streams agree bit for bit by construction; the scalar
//! gather-and-slice implementation in `reference.rs` is the oracle the
//! differential batteries compare it against.
//!
//! Purity here is load-bearing twice over: the sharded engine calls
//! this concurrently from several workers through a shared `&self`, and
//! the merge phase re-calls it for any plan invalidated by an
//! earlier-output grant. The `no-shared-mut-in-shards` lint holds this
//! file and everything it reaches to that contract — no lock, static,
//! clock or interior-mutability primitive may appear, because a shard
//! that synchronized with its siblings would reintroduce the
//! cross-output ordering dependence the engine exists to remove. The
//! module-level clippy `deny` below keeps the kernel free of unchecked
//! indexing and arithmetic.

#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::arithmetic_side_effects)
)]

use ssq_arbiter::{Arbiter, Request};
use ssq_types::{Cycle, OutputId, TrafficClass};

use super::{GbEngine, QosSwitch};
use crate::bitmask::PortSet;
use crate::channel::ChannelState;
use crate::config::Policy;

/// What [`QosSwitch::decide_output`] found the output doing this cycle:
/// one of three non-arbitrating states, or the arbitration round the
/// strict-priority ladder (or flat policy) selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanKind {
    /// The channel is mid-packet; the commit phase moves one flit (and
    /// handles delivery/chaining) with live state.
    Transmit,
    /// No input requests this output: the arbitration-latency clock
    /// resets.
    NoRequests,
    /// Requests are waiting but the arbitration latency has not elapsed.
    AwaitLatency,
    /// `Policy::LrgOnly`: class-blind LRG over every requester; the
    /// winner sends its highest-class head.
    FlatLrg,
    /// `Policy::FourLevel`: per input, only its highest-class head
    /// competes, at that class's level.
    FourLevel,
    /// GL preempts everything (not policed, lane intact).
    GlPreempt,
    /// Degraded mode: the GB round runs on pure LRG.
    GbFallback,
    /// The reservation-weighing GB round.
    GbRound,
    /// Policed GL serves below GB (here: no GB waiting).
    GlBelowGb,
    /// Best effort, when no guaranteed class requests.
    Be,
}

/// One output's precomputed cycle plan: what the output will do when the
/// serial commit phase reaches it. Opaque outside the crate — a plan is
/// only meaningful to the switch that produced it, and only for the
/// cycle it was produced in.
#[derive(Debug, Clone, Copy)]
pub struct OutputPlan {
    pub(crate) kind: PlanKind,
    /// Whether the GL policer withheld GL priority this cycle (the
    /// commit phase counts and traces it).
    pub(crate) gl_policed: bool,
    /// Whether GL lost its lane and competes inside the GB round.
    pub(crate) demoted: bool,
    /// The class request words the decision weighed: bit `i` ⇔ input `i`
    /// was allowed to compete and held a head of that class for this
    /// output. All zero for `Transmit` and `NoRequests`.
    pub(crate) gl: u64,
    pub(crate) gb: u64,
    pub(crate) be: u64,
    /// The predicted `(winner, class)` of an arbitration round.
    pub(crate) predicted: Option<(usize, TrafficClass)>,
}

impl OutputPlan {
    fn idle(kind: PlanKind) -> Self {
        OutputPlan {
            kind,
            gl_policed: false,
            demoted: false,
            gl: 0,
            gb: 0,
            be: 0,
            predicted: None,
        }
    }

    /// Every input that contributed a request at decide time. If an
    /// earlier output's grant blocks one of them during the merge, the
    /// plan is stale and the kernel re-decides.
    pub(crate) fn requesters(&self) -> u64 {
        self.gl | self.gb | self.be
    }

    /// Rough work estimate for load accounting: one unit plus the number
    /// of *distinct* requesting inputs the decision had to weigh — a
    /// `count_ones` over the requester word.
    #[must_use]
    pub fn cost(&self) -> u64 {
        1 + u64::from(self.requesters().count_ones())
    }

    /// Whether an earlier output's grant blocked one of this plan's
    /// requesters since it was decided. Blocking is monotone within a
    /// cycle, so this is the *only* way a plan can go stale.
    pub(crate) fn stale(&self, blocked: u64) -> bool {
        self.requesters() & blocked != 0
    }

    /// The GL inputs competing inside the GB round (they win as GL).
    pub(crate) fn demoted_gl(&self) -> u64 {
        if self.demoted {
            self.gl & !self.gb
        } else {
            0
        }
    }

    /// The word of inputs the selected round weighs.
    pub(crate) fn contenders(&self) -> u64 {
        match self.kind {
            PlanKind::Transmit | PlanKind::NoRequests | PlanKind::AwaitLatency => 0,
            PlanKind::FlatLrg | PlanKind::FourLevel => self.requesters(),
            PlanKind::GlPreempt | PlanKind::GlBelowGb => self.gl,
            PlanKind::GbFallback | PlanKind::GbRound => self.gb | self.demoted_gl(),
            PlanKind::Be => self.be,
        }
    }

    /// The class a GB-round winner sends: demoted GL wins as GL.
    pub(crate) fn gb_round_class(&self, winner: usize) -> TrafficClass {
        if PortSet::from_bits(self.gb).contains(winner) {
            TrafficClass::GuaranteedBandwidth
        } else {
            TrafficClass::GuaranteedLatency
        }
    }

    /// The highest class `input` requests with.
    pub(crate) fn best_class_of(&self, input: usize) -> TrafficClass {
        if PortSet::from_bits(self.gl).contains(input) {
            TrafficClass::GuaranteedLatency
        } else if PortSet::from_bits(self.gb).contains(input) {
            TrafficClass::GuaranteedBandwidth
        } else {
            TrafficClass::BestEffort
        }
    }
}

/// Stack scratch for the engines that only speak the slice-of-requests
/// [`Arbiter`] protocol (the non-SSVC baselines): at most one request
/// per input, so radix ≤ 64 bounds it.
pub(crate) struct RequestBuf {
    reqs: [Request; 64],
    len: usize,
}

impl RequestBuf {
    fn new() -> Self {
        RequestBuf {
            reqs: [Request::new(0, 1); 64],
            len: 0,
        }
    }

    pub(crate) fn as_slice(&self) -> &[Request] {
        self.reqs.get(..self.len).unwrap_or(&[])
    }
}

impl QosSwitch {
    /// Predicts `output`'s action for cycle `now` without mutating
    /// anything. `avail` is the word of inputs allowed to compete —
    /// `live_links & !blocked` — so the two cheap outcomes
    /// (`NoRequests`, `AwaitLatency`) resolve in a few word ops without
    /// touching a single port. The serial commit phase (`commit_output`
    /// in `switch.rs`) applies the returned plan — or re-calls this with
    /// an updated `avail` when an earlier output's grant invalidated it.
    pub(crate) fn decide_output(&self, output: OutputId, now: Cycle, avail: u64) -> OutputPlan {
        let o = output.index();
        let (Some(channel), Some(&wait), Some(&[be, gb, gl])) =
            (self.channels.get(o), self.arb_wait.get(o), self.xreq.get(o))
        else {
            return OutputPlan::idle(PlanKind::NoRequests);
        };
        if matches!(channel.state(), ChannelState::Transmitting { .. }) {
            return OutputPlan::idle(PlanKind::Transmit);
        }
        // `xreq` rows are indexed by `TrafficClass::priority()`.
        let (gl, gb, be) = (gl & avail, gb & avail, be & avail);
        if gl | gb | be == 0 {
            return OutputPlan::idle(PlanKind::NoRequests);
        }
        let mut plan = OutputPlan {
            gl,
            gb,
            be,
            ..OutputPlan::idle(PlanKind::AwaitLatency)
        };
        if wait.saturating_add(1) < self.config.policy().arbitration_cycles() {
            return plan;
        }
        match self.config.policy() {
            Policy::LrgOnly => {
                plan.kind = PlanKind::FlatLrg;
                plan.predicted = self
                    .flat_lrg
                    .get(o)
                    .and_then(|lrg| lrg.peek_mask(plan.requesters()))
                    .map(|w| (w, plan.best_class_of(w)));
            }
            Policy::FourLevel => {
                plan.kind = PlanKind::FourLevel;
                let reqs = self.four_level_requests(output, &plan);
                plan.predicted = self
                    .four_level
                    .get(o)
                    .and_then(|arb| arb.decide(now, reqs.as_slice()))
                    .map(|w| (w, plan.best_class_of(w)));
            }
            _ => self.decide_strict_priority(output, now, &mut plan),
        }
        plan
    }

    /// The strict class-priority ladder: GL > GB > policed (or demoted)
    /// GL > BE. Demotion means GL lost its dedicated lane, not its
    /// service: demoted GL competes inside the GB round.
    fn decide_strict_priority(&self, output: OutputId, now: Cycle, plan: &mut OutputPlan) {
        let o = output.index();
        let policed = self.gl_policers.get(o).is_some_and(|p| p.policed());
        plan.demoted = self.faultctl.gl_demoted(o);
        plan.gl_policed = policed && plan.gl != 0;
        let round = plan.gb | plan.demoted_gl();
        let lrg_winner = |lanes: &[ssq_arbiter::Lrg], word: u64| {
            lanes.get(o).and_then(|lrg| lrg.peek_mask(word))
        };
        let (kind, winner, class) = if plan.gl != 0 && !policed && !plan.demoted {
            let w = lrg_winner(&self.gl_lrg, plan.gl);
            (PlanKind::GlPreempt, w, TrafficClass::GuaranteedLatency)
        } else if round != 0 {
            let (kind, w) = if self.faultctl.lrg_fallback(o) {
                (PlanKind::GbFallback, lrg_winner(&self.flat_lrg, round))
            } else {
                let w = match self.gb_engines.get(o) {
                    Some(GbEngine::Ssvc(ssvc)) => ssvc.peek_mask(round),
                    Some(engine) => engine.as_arbiter_ref().and_then(|arb| {
                        let reqs = self.gb_round_requests(output, plan);
                        arb.decide(now, reqs.as_slice())
                    }),
                    None => None,
                };
                (PlanKind::GbRound, w)
            };
            let class = w.map_or(TrafficClass::GuaranteedBandwidth, |w| {
                plan.gb_round_class(w)
            });
            (kind, w, class)
        } else if plan.gl != 0 {
            let w = lrg_winner(&self.gl_lrg, plan.gl);
            (PlanKind::GlBelowGb, w, TrafficClass::GuaranteedLatency)
        } else {
            let w = lrg_winner(&self.be_lrg, plan.be);
            (PlanKind::Be, w, TrafficClass::BestEffort)
        };
        plan.kind = kind;
        plan.predicted = winner.map(|w| (w, class));
    }

    /// Appends one request per set bit of `word`, in ascending input
    /// order, carrying the length of that input's `class` head toward
    /// `output`.
    fn push_requests(
        &self,
        buf: &mut RequestBuf,
        output: OutputId,
        class: TrafficClass,
        word: u64,
        level: u8,
    ) {
        for i in PortSet::from_bits(word) {
            let head = self.ports.get(i).and_then(|p| p.head(class, output));
            let (Some(head), Some(slot)) = (head, buf.reqs.get_mut(buf.len)) else {
                // A set request bit with no matching head means the
                // incremental masks desynced from the queues.
                debug_assert!(false, "request word set without a matching queue head");
                continue;
            };
            *slot = Request::new(i, head.spec().len_flits()).with_level(level);
            buf.len = buf.len.saturating_add(1);
        }
    }

    /// The `Policy::FourLevel` request list: GL -> level 3, GB -> level
    /// 1, BE -> level 0; per input, only its highest-class head competes.
    pub(crate) fn four_level_requests(&self, output: OutputId, plan: &OutputPlan) -> RequestBuf {
        let mut buf = RequestBuf::new();
        let (gl, gb, be) = (plan.gl, plan.gb & !plan.gl, plan.be & !(plan.gl | plan.gb));
        self.push_requests(&mut buf, output, TrafficClass::GuaranteedLatency, gl, 3);
        self.push_requests(&mut buf, output, TrafficClass::GuaranteedBandwidth, gb, 1);
        self.push_requests(&mut buf, output, TrafficClass::BestEffort, be, 0);
        buf
    }

    /// The GB round's request list for the slice-protocol engines: the
    /// GB requesters, then the demoted GL inputs merged in behind them.
    pub(crate) fn gb_round_requests(&self, output: OutputId, plan: &OutputPlan) -> RequestBuf {
        let mut buf = RequestBuf::new();
        self.push_requests(
            &mut buf,
            output,
            TrafficClass::GuaranteedBandwidth,
            plan.gb,
            0,
        );
        self.push_requests(
            &mut buf,
            output,
            TrafficClass::GuaranteedLatency,
            plan.demoted_gl(),
            0,
        );
        buf
    }
}
