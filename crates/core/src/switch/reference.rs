//! The scalar reference kernel: the differential batteries' oracle.
//!
//! A second, deliberately naive implementation of one switch cycle: per
//! output it probes `radix × 3` queue heads into `Vec<Request>` sets,
//! decides with the slice-protocol [`Arbiter::decide`], pre-builds the
//! round's trace events into a boxed [`ArbPlan`], and commits by
//! re-running the mutating [`Arbiter::arbitrate`]. It never reads the
//! request words and shares no decision code with `decide.rs`, so
//! holding [`CycleModel::step`](ssq_sim::CycleModel::step) to
//! [`QosSwitch::step_reference`] byte for byte compares two
//! implementations rather than the kernel with itself. Injection is
//! likewise the dense form the arrival schedule replaced — every source
//! polled and every staged head probed every cycle — so the same
//! batteries hold the schedule and its `retry_at` timing to it. It
//! visits every output every cycle and rebuilds the transmit-blocked set
//! from the transmit intervals, so it holds the kernel's work word and
//! `busy_in` to the same standard, and it moves one flit per
//! transmitting channel per cycle — finishing a packet on its last one,
//! never off the completion wheel — where the kernel applies a packet's
//! flits in batches, so it holds the batches and the staged heads' exact
//! wakes to the per-flit timing. Only the clocks, the per-injector
//! staging body, the settle, the packet completion, the grant
//! bookkeeping and the commit-time checks (the fabric cross-check, the
//! armed-fault detectors) are shared.
//!
//! Nothing here is on a hot path: it allocates freely and is reachable
//! only through the doc-hidden [`QosSwitch::step_reference`].

use ssq_arbiter::{Arbiter, FourLevel, Lrg, Request};
use ssq_circuit::{ArbitrationOutcome, PortRequest};
use ssq_trace::{Event, EventKind};
use ssq_types::{Cycle, OutputId, TrafficClass};

use super::output::{Arbiters, GbEngine, Ladder};
use super::{wire, QosSwitch};
use crate::sanitize;

/// What `decide_output_reference` found the output doing this cycle.
enum PlanAction {
    /// The channel is mid-packet; the commit phase moves one flit (and
    /// handles delivery/chaining) with live state.
    Transmit,
    /// No input requests this output: the arbitration-latency clock
    /// resets.
    NoRequests,
    /// Requests are waiting but the arbitration latency has not elapsed.
    AwaitLatency,
    /// The latency gate is open: a full arbitration decision, ready to
    /// commit.
    Arbitrate(Box<ArbPlan>),
}

/// A complete predicted arbitration for one output.
struct ArbPlan {
    /// Whether the GL policer withheld GL priority this cycle (the
    /// commit phase counts it).
    gl_policed: bool,
    /// Which arbitration round the strict-priority ladder (or flat
    /// policy) selected, with the request set that round weighs.
    route: Route,
    /// The predicted `(winner, class)`, for cross-checking the commit.
    predicted: Option<(usize, TrafficClass)>,
    /// Trace events this decision emits, in canonical order.
    events: Vec<Event>,
    /// Events below this index (the `GlPoliced` notice) are emitted as
    /// soon as the commit reaches the arbitration; the rest only on a
    /// clean grant (a detected fault suppresses them, exactly as the
    /// sequential path never reaches its emission sites).
    pre_events: usize,
}

/// The arbitration round a plan resolved to. Each variant carries the
/// request set its commit-side twin feeds to the (mutating) arbiter.
enum Route {
    /// `Policy::LrgOnly`: class-blind LRG over deduplicated requesters.
    FlatLrg {
        /// One unit-length request per distinct requesting input.
        reqs: Vec<Request>,
    },
    /// `Policy::FourLevel`: one leveled request per input.
    FourLevel {
        /// Requests tagged with the 4-level priority of their class.
        reqs: Vec<Request>,
    },
    /// GL preempts everything (not policed, lane intact).
    GlPreempt {
        /// The GL request set.
        gl: Vec<Request>,
        /// The inhibit-fabric outcome on the same requests, if checked.
        circuit: Option<ArbitrationOutcome>,
    },
    /// Degraded mode: the GB round runs on pure LRG.
    GbFallback {
        /// The GB request set (demoted GL merged in).
        gb: Vec<Request>,
        /// Inputs competing as demoted GL (win as GL class).
        demoted_gl: Vec<usize>,
    },
    /// The reservation-weighing GB round.
    GbRound {
        /// The GB request set (demoted GL merged in).
        gb: Vec<Request>,
        /// Inputs competing as demoted GL (win as GL class).
        demoted_gl: Vec<usize>,
        /// The inhibit-fabric outcome on the same requests, if checked.
        circuit: Option<ArbitrationOutcome>,
    },
    /// Policed GL serves below GB (here: no GB waiting).
    GlBelowGb {
        /// The GL request set.
        gl: Vec<Request>,
    },
    /// Best effort, when no guaranteed class requests.
    Be {
        /// The BE request set.
        be: Vec<Request>,
    },
}

/// A switch stepped on the scalar kernel, so the stock runners can drive
/// the oracle through the same schedules as the engines under test.
#[doc(hidden)]
#[derive(Debug)]
pub struct ReferenceKernel<'a>(pub &'a mut QosSwitch);

impl ssq_sim::CycleModel for ReferenceKernel<'_> {
    fn step(&mut self, now: Cycle) {
        self.0.step_reference(now);
    }

    fn begin_measurement(&mut self, now: Cycle) {
        self.0.begin_measurement(now);
    }
}

impl QosSwitch {
    /// One cycle on the scalar kernel: the prepare phase with injection
    /// in its dense form, then per output a queue-probing decide followed
    /// immediately by its commit — the oracle
    /// [`CycleModel::step`](ssq_sim::CycleModel::step) is differentially
    /// tested against.
    #[doc(hidden)]
    pub fn step_reference(&mut self, now: Cycle) {
        self.tick_clocks(now, 1);
        self.inject_dense(now);
        let radix = self.config.geometry().radix();
        // A switch the kernel stepped may hold flits it has not applied;
        // from here on each loop moves exactly one per channel.
        for o in 0..radix {
            self.settle(o);
        }
        self.clock += 1;
        self.outputs_visited += radix as u64;
        // Inputs already transmitting cannot compete this cycle: read
        // off the intervals, not the kernel's `busy_in` word.
        let mut blocked = vec![false; radix];
        for tx in self.outputs.iter().filter_map(|out| out.interval) {
            blocked[tx.input.index()] = true;
        }
        for o in 0..radix {
            let output = OutputId::new(o);
            let action = self.decide_output_reference(output, now, &blocked);
            self.commit_output_reference(output, now, &mut blocked, action);
        }
    }

    /// Injection as it was before the arrival schedule, and its oracle:
    /// every injector's source polled every cycle
    /// ([`Injector::poll`](ssq_traffic::Injector::poll)), every staged
    /// head probed every cycle, over the per-injector body `inject`
    /// shares.
    fn inject_dense(&mut self, now: Cycle) {
        for idx in 0..self.injectors.len() {
            let intent = self.injectors.poll_dense(idx, now);
            self.injection_work.polls += 1;
            self.inject_one(idx, now, intent, true);
        }
    }

    /// Moves one flit of the packet `output`'s channel transmits, and
    /// completes the packet on its last one.
    fn transmit_flit_reference(&mut self, output: OutputId, now: Cycle) {
        let Some(tx) = self.outputs[output.index()].interval.as_mut() else {
            return;
        };
        tx.apply(tx.applied + 1);
        let (input, class, last) = (tx.input, tx.class, tx.applied == tx.done_at);
        self.ports[input.index()].drain_head(class, output, 1);
        if last {
            self.finish_packet(output, now);
        }
    }

    /// Collects the requesting inputs for `output` grouped by class.
    fn gather(
        &self,
        output: OutputId,
        blocked: &[bool],
    ) -> (Vec<Request>, Vec<Request>, Vec<Request>) {
        let mut gl = Vec::new();
        let mut gb = Vec::new();
        let mut be = Vec::new();
        for (i, port) in self.ports.iter().enumerate() {
            if blocked[i] || !self.link_up(i) {
                continue;
            }
            if let Some(p) = port.head(TrafficClass::GuaranteedLatency, output) {
                gl.push(Request::new(i, p.spec().len_flits()));
            }
            if let Some(p) = port.head(TrafficClass::GuaranteedBandwidth, output) {
                gb.push(Request::new(i, p.spec().len_flits()));
            }
            if let Some(p) = port.head(TrafficClass::BestEffort, output) {
                be.push(Request::new(i, p.spec().len_flits()));
            }
        }
        (gl, gb, be)
    }

    /// Predicts `output`'s action for cycle `now` against the `blocked`
    /// input set, without mutating anything; `commit_output_reference`
    /// applies it straight away.
    fn decide_output_reference(
        &self,
        output: OutputId,
        now: Cycle,
        blocked: &[bool],
    ) -> PlanAction {
        let o = output.index();
        if self.outputs[o].interval.is_some() {
            return PlanAction::Transmit;
        }
        let (gl, gb, be) = self.gather(output, blocked);
        if gl.is_empty() && gb.is_empty() && be.is_empty() {
            return PlanAction::NoRequests;
        }
        let arb_latency = self.config.policy().arbitration_cycles();
        if self.outputs[o].arb_wait + 1 < arb_latency {
            return PlanAction::AwaitLatency;
        }
        self.decide_gathered(output, now, gl, gb, be)
    }

    /// The policy dispatch over the gathered request sets.
    fn decide_gathered(
        &self,
        output: OutputId,
        now: Cycle,
        gl: Vec<Request>,
        gb: Vec<Request>,
        be: Vec<Request>,
    ) -> PlanAction {
        let arb = match &self.outputs[output.index()].arbiters {
            Arbiters::Flat(lrg) => self.decide_flat_lrg(lrg, output, now, &gl, &gb, &be),
            Arbiters::FourLevel(arb) => self.decide_four_level(arb, output, now, &gl, &gb, &be),
            Arbiters::Ladder(ladder) => {
                self.decide_strict_priority_reference(ladder, output, now, gl, gb, be)
            }
        };
        PlanAction::Arbitrate(Box::new(arb))
    }

    /// `Policy::LrgOnly`: class-blind LRG over every requester; a winner
    /// sends its highest-class head.
    fn decide_flat_lrg(
        &self,
        lrg: &Lrg,
        output: OutputId,
        now: Cycle,
        gl: &[Request],
        gb: &[Request],
        be: &[Request],
    ) -> ArbPlan {
        let o = output.index();
        let mut requesters: Vec<usize> = Vec::new();
        for r in gl.iter().chain(gb).chain(be) {
            if !requesters.contains(&r.input()) {
                requesters.push(r.input());
            }
        }
        let reqs: Vec<Request> = requesters.into_iter().map(|i| Request::new(i, 1)).collect();
        let mut events = Vec::new();
        let predicted = lrg
            .decide(now, &reqs)
            .map(|w| (w, self.best_head_class(w, output)));
        if let Some((w, class)) = predicted {
            push_decision(&mut events, now, o, class, reqs.len(), w, self.watching());
        }
        ArbPlan {
            gl_policed: false,
            route: Route::FlatLrg { reqs },
            predicted,
            events,
            pre_events: 0,
        }
    }

    /// `Policy::FourLevel`: GL -> level 3, GB -> level 1, BE -> level 0;
    /// per input, only its highest-class head competes.
    fn decide_four_level(
        &self,
        arb: &FourLevel,
        output: OutputId,
        now: Cycle,
        gl: &[Request],
        gb: &[Request],
        be: &[Request],
    ) -> ArbPlan {
        let o = output.index();
        let mut reqs: Vec<Request> = Vec::new();
        let add = |r: &Request, level: u8, reqs: &mut Vec<Request>| {
            if !reqs.iter().any(|q| q.input() == r.input()) {
                reqs.push(Request::new(r.input(), r.len_flits()).with_level(level));
            }
        };
        for r in gl {
            add(r, 3, &mut reqs);
        }
        for r in gb {
            add(r, 1, &mut reqs);
        }
        for r in be {
            add(r, 0, &mut reqs);
        }
        let mut events = Vec::new();
        let predicted = arb.decide(now, &reqs).and_then(|w| {
            reqs.iter()
                .find(|r| r.input() == w)
                .map(|r| (w, four_level_class(r.level())))
        });
        if let Some((w, class)) = predicted {
            push_decision(&mut events, now, o, class, reqs.len(), w, self.watching());
        }
        ArbPlan {
            gl_policed: false,
            route: Route::FourLevel { reqs },
            predicted,
            events,
            pre_events: 0,
        }
    }

    /// The strict class-priority ladder: GL > GB > policed (or demoted)
    /// GL > BE, mirroring the sequential branch structure condition for
    /// condition.
    fn decide_strict_priority_reference(
        &self,
        ladder: &Ladder,
        output: OutputId,
        now: Cycle,
        gl: Vec<Request>,
        mut gb: Vec<Request>,
        be: Vec<Request>,
    ) -> ArbPlan {
        let o = output.index();
        let watch = self.watching();
        let mut events = Vec::new();
        let policed = ladder
            .policer
            .as_ref()
            .is_some_and(|p| p.policed(self.clock));
        let demoted = self.outputs[o].gl_demoted();
        let gl_policed = policed && !gl.is_empty();
        if gl_policed && watch {
            events.push(Event {
                cycle: now.value(),
                kind: EventKind::GlPoliced {
                    output: wire(o),
                    backlog: wire(gl.len()),
                },
            });
        }
        let pre_events = events.len();
        // Demotion means GL lost its dedicated lane, not its service:
        // demoted GL competes inside the GB round.
        let mut demoted_gl: Vec<usize> = Vec::new();
        if demoted {
            for r in &gl {
                if !gb.iter().any(|q| q.input() == r.input()) {
                    demoted_gl.push(r.input());
                    gb.push(Request::new(r.input(), r.len_flits()));
                }
            }
        }

        let (route, predicted) = if !gl.is_empty() && !policed && !demoted {
            let circuit = self.fabric_decision_reference(o, &gl, &[]);
            let predicted = ladder
                .gl
                .decide(now, &gl)
                .map(|w| (w, TrafficClass::GuaranteedLatency));
            if let Some((w, class)) = predicted {
                push_decision(&mut events, now, o, class, gl.len(), w, watch);
            }
            (Route::GlPreempt { gl, circuit }, predicted)
        } else if !gb.is_empty() && self.outputs[o].lrg_fallback() {
            let predicted = ladder.fallback.decide(now, &gb).map(|w| {
                if demoted_gl.contains(&w) {
                    (w, TrafficClass::GuaranteedLatency)
                } else {
                    (w, TrafficClass::GuaranteedBandwidth)
                }
            });
            if let Some((w, class)) = predicted {
                push_decision(&mut events, now, o, class, gb.len(), w, watch);
            }
            (Route::GbFallback { gb, demoted_gl }, predicted)
        } else if !gb.is_empty() {
            let circuit = self.fabric_decision_reference(o, &[], &gb);
            // Snapshot the MSB lanes before the (future) commit mutates
            // auxVC state, so inhibit events carry the values the losers
            // are actually defeated with.
            let msbs: Vec<(usize, u64)> = match &ladder.gb {
                GbEngine::Ssvc(ssvc) if watch => gb
                    .iter()
                    .map(|r| (r.input(), ssvc.msb_value(r.input())))
                    .collect(),
                _ => Vec::new(),
            };
            let predicted_w = match &ladder.gb {
                GbEngine::Ssvc(ssvc) => ssvc.decide(now, &gb),
                GbEngine::Rate(engine) => engine.decide(now, &gb),
            };
            let predicted = predicted_w.map(|w| {
                if let GbEngine::Ssvc(ssvc) = &ladder.gb {
                    if watch {
                        let winner_msb = msbs.iter().find(|&&(i, _)| i == w).map_or(0, |&(_, m)| m);
                        let (aux, saturated) = ssvc.preview_win(w);
                        for &(i, msb) in msbs.iter().filter(|&&(i, _)| i != w) {
                            events.push(Event {
                                cycle: now.value(),
                                kind: EventKind::Inhibit {
                                    output: wire(o),
                                    input: wire(i),
                                    msb,
                                    winner_msb,
                                },
                            });
                        }
                        events.push(Event {
                            cycle: now.value(),
                            kind: EventKind::AuxVc {
                                output: wire(o),
                                input: wire(w),
                                aux,
                                saturated,
                            },
                        });
                    }
                }
                let class = if demoted_gl.contains(&w) {
                    TrafficClass::GuaranteedLatency
                } else {
                    TrafficClass::GuaranteedBandwidth
                };
                push_decision(&mut events, now, o, class, gb.len(), w, watch);
                (w, class)
            });
            (
                Route::GbRound {
                    gb,
                    demoted_gl,
                    circuit,
                },
                predicted,
            )
        } else if !gl.is_empty() {
            let predicted = ladder
                .gl
                .decide(now, &gl)
                .map(|w| (w, TrafficClass::GuaranteedLatency));
            if let Some((w, class)) = predicted {
                push_decision(&mut events, now, o, class, gl.len(), w, watch);
            }
            (Route::GlBelowGb { gl }, predicted)
        } else {
            let predicted = ladder
                .be
                .decide(now, &be)
                .map(|w| (w, TrafficClass::BestEffort));
            if let Some((w, class)) = predicted {
                push_decision(&mut events, now, o, class, be.len(), w, watch);
            }
            (Route::Be { be }, predicted)
        };
        ArbPlan {
            gl_policed,
            route,
            predicted,
            events,
            pre_events,
        }
    }

    /// Whether any trace sink is attached (event prediction is skipped
    /// entirely when off, exactly like the sequential emission sites).
    fn watching(&self) -> bool {
        !self.tracer.is_off()
    }

    /// Applies one output's action: the completion and the grant
    /// bookkeeping are the kernel's own (`finish_packet`,
    /// `commit_grant`); the flit-by-flit transmit side and the
    /// arbitration replay are the scalar ones.
    fn commit_output_reference(
        &mut self,
        output: OutputId,
        now: Cycle,
        blocked: &mut [bool],
        action: PlanAction,
    ) {
        let o = output.index();
        match action {
            PlanAction::Transmit => self.transmit_flit_reference(output, now),
            PlanAction::NoRequests => self.outputs[o].arb_wait = 0,
            PlanAction::AwaitLatency => self.outputs[o].arb_wait += 1,
            PlanAction::Arbitrate(arb) => {
                self.outputs[o].arb_wait = 0;
                if let Some((input, class)) = self.commit_arbitration_reference(output, now, *arb) {
                    self.commit_grant(output, now, input, class, blocked[input]);
                    blocked[input] = true;
                }
            }
        }
    }

    /// Emits pre-built trace events (from a decide-phase plan) in their
    /// buffered order. One branch per event when tracing is off —
    /// matching the sequential emission sites, which never build events
    /// without a sink.
    fn emit_buffered(&mut self, events: &[Event]) {
        for ev in events {
            self.tracer.emit(|| ev.clone());
        }
    }

    /// Commits a decided arbitration: replays the winning round's
    /// *mutating* arbiter call (the identical code path the sequential
    /// switch takes, so counter charges and LRG matrix updates are
    /// bit-exact), runs the fabric cross-checks and fault detectors
    /// against the live post-charge state, and emits the plan's buffered
    /// events. Returns the committed `(input, class)`.
    fn commit_arbitration_reference(
        &mut self,
        output: OutputId,
        now: Cycle,
        arb: ArbPlan,
    ) -> Option<(usize, TrafficClass)> {
        let o = output.index();
        let ArbPlan {
            gl_policed,
            route,
            predicted,
            events,
            pre_events,
        } = arb;
        let (pre, win) = events.split_at(pre_events);
        if gl_policed {
            self.counters.gl_policed_cycles += 1;
        }
        self.emit_buffered(pre);
        let committed = match route {
            Route::FlatLrg { reqs } => {
                let Arbiters::Flat(lrg) = &mut self.outputs[o].arbiters else {
                    return None;
                };
                let w = lrg.arbitrate(now, &reqs)?;
                let class = self.best_head_class(w, output);
                self.emit_buffered(win);
                Some((w, class))
            }
            Route::FourLevel { reqs } => {
                let Arbiters::FourLevel(arb) = &mut self.outputs[o].arbiters else {
                    return None;
                };
                let w = arb.arbitrate(now, &reqs)?;
                let class = four_level_class(reqs.iter().find(|r| r.input() == w)?.level());
                self.emit_buffered(win);
                Some((w, class))
            }
            Route::GlPreempt { gl, circuit } => {
                let w = self.outputs[o].ladder_mut()?.gl.arbitrate(now, &gl)?;
                if let Some(outcome) = circuit {
                    let class = TrafficClass::GuaranteedLatency;
                    self.check_fabric(output, now, class, w, &outcome).ok()?;
                }
                let len = gl.iter().find(|r| r.input() == w)?.len_flits();
                self.outputs[o].charge_gl(len, self.clock);
                self.emit_buffered(win);
                Some((w, TrafficClass::GuaranteedLatency))
            }
            Route::GbFallback { gb, demoted_gl } => {
                // Degraded mode: the GB thermometer lanes are gone, so
                // arbitrate by pure LRG. SSVC state is neither consulted
                // nor advanced, and the fabric cross-check is off (the
                // circuit no longer models the grant).
                let w = self.outputs[o].ladder_mut()?.fallback.arbitrate(now, &gb)?;
                let class = if demoted_gl.contains(&w) {
                    TrafficClass::GuaranteedLatency
                } else {
                    TrafficClass::GuaranteedBandwidth
                };
                self.emit_buffered(win);
                Some((w, class))
            }
            Route::GbRound {
                gb,
                demoted_gl,
                circuit,
            } => {
                let w = match &mut self.outputs[o].ladder_mut()?.gb {
                    GbEngine::Ssvc(ssvc) => ssvc.arbitrate(now, &gb),
                    GbEngine::Rate(engine) => engine.arbitrate(now, &gb),
                }?;
                let class = TrafficClass::GuaranteedBandwidth;
                if let Some(outcome) = circuit {
                    self.check_fabric(output, now, class, w, &outcome).ok()?;
                }
                let contenders = gb.iter().map(|r| r.input());
                if let Some((i, code, detail)) = self.corrupt_contender(o, contenders) {
                    return self.detected_degrade(output, now, class, i, code, detail);
                }
                if let Some(ssvc) = self.outputs[o].ssvc() {
                    sanitize::gb_win(
                        o,
                        w,
                        ssvc.thermometer_code(w),
                        ssvc.aux_vc(w),
                        ssvc.config().saturation_cap(),
                    );
                }
                let class = if demoted_gl.contains(&w) {
                    TrafficClass::GuaranteedLatency
                } else {
                    TrafficClass::GuaranteedBandwidth
                };
                self.emit_buffered(win);
                Some((w, class))
            }
            Route::GlBelowGb { gl } => {
                let w = self.outputs[o].ladder_mut()?.gl.arbitrate(now, &gl)?;
                let len = gl.iter().find(|r| r.input() == w)?.len_flits();
                self.outputs[o].charge_gl(len, self.clock);
                self.emit_buffered(win);
                Some((w, TrafficClass::GuaranteedLatency))
            }
            Route::Be { be } => {
                let w = self.outputs[o].ladder_mut()?.be.arbitrate(now, &be)?;
                self.emit_buffered(win);
                Some((w, TrafficClass::BestEffort))
            }
        };
        debug_assert_eq!(
            committed, predicted,
            "decide/commit divergence at {output}, cycle {now}"
        );
        committed
    }

    /// Runs the bit-level inhibit fabric on the same request set the
    /// behavioural arbiter is about to decide (fabric-in-the-loop
    /// verification; see `SwitchConfigBuilder::fabric_checked`). Returns
    /// `None` when checking is disabled or the engine is not SSVC.
    fn fabric_decision_reference(
        &self,
        o: usize,
        gl: &[Request],
        gb: &[Request],
    ) -> Option<ArbitrationOutcome> {
        let fabric = self.fabric.as_ref()?;
        let Arbiters::Ladder(Ladder {
            gb: GbEngine::Ssvc(ssvc),
            gl: gl_lrg,
            ..
        }) = &self.outputs[o].arbiters
        else {
            return None;
        };
        let radix = self.config.geometry().radix();
        let mut ports = vec![PortRequest::Idle; radix];
        for r in gb {
            ports[r.input()] = PortRequest::Gb {
                msb_value: ssvc.msb_value(r.input()),
            };
        }
        for r in gl {
            ports[r.input()] = PortRequest::Gl;
        }
        Some(fabric.arbitrate(&ports, ssvc.lrg(), gl_lrg))
    }

    fn best_head_class(&self, input: usize, output: OutputId) -> TrafficClass {
        let port = &self.ports[input];
        for class in [
            TrafficClass::GuaranteedLatency,
            TrafficClass::GuaranteedBandwidth,
            TrafficClass::BestEffort,
        ] {
            if port.head(class, output).is_some() {
                return class;
            }
        }
        unreachable!("winner had no head packet")
    }
}

/// Maps a 4-level priority back to its traffic class.
fn four_level_class(level: u8) -> TrafficClass {
    match level {
        3 => TrafficClass::GuaranteedLatency,
        1 => TrafficClass::GuaranteedBandwidth,
        _ => TrafficClass::BestEffort,
    }
}

/// Buffers the `Decision` event a committed arbitration emits.
fn push_decision(
    events: &mut Vec<Event>,
    now: Cycle,
    o: usize,
    class: TrafficClass,
    contenders: usize,
    winner: usize,
    watch: bool,
) {
    if !watch {
        return;
    }
    events.push(Event {
        cycle: now.value(),
        kind: EventKind::Decision {
            output: wire(o),
            class,
            contenders: wire(contenders),
            winner: wire(winner),
        },
    });
}
