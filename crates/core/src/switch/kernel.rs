//! The cycle: prepare (clocks, injection, the transmit-blocked word),
//! the loop over the outputs with work — a pure decide then its serial
//! commit — the transmit side with its completion and chaining, and the
//! stepping traits every engine drives it through.

use ssq_arbiter::{Arbiter, Request};
use ssq_circuit::{ArbitrationOutcome, PortRequest};
use ssq_sim::{CycleModel, EventModel, ShardedModel};
use ssq_stats::Histogram;
use ssq_trace::{Event, EventKind};
use ssq_types::invariant::Invariant;
use ssq_types::{Cycle, InputId, OutputId, TrafficClass};

use super::decide::PlanKind;
use super::output::{Arbiters, GbEngine, Interval, Ladder, Output};
use super::{slot, wire, InjectionWork, OutputPlan, QosSwitch, SwitchCounters, TransmitOnlyCycles};
use crate::bitmask::PortSet;
use crate::config::{Policy, SwitchConfig};
use crate::sanitize;

impl QosSwitch {
    /// Phase 1 of a cycle, shared verbatim by every engine: per-cycle
    /// clocks, injection, and the transmit-blocked input word for this
    /// cycle (left in `blocked` for the decide phase); then the clock
    /// advances to the cycle's output loop.
    pub(super) fn prepare_cycle(&mut self, now: Cycle) {
        self.tick_clocks(now, 1);
        self.inject(now);
        // Inputs already transmitting cannot compete this cycle: each
        // input port drives one channel's worth of flits per cycle.
        self.blocked = self.busy_in;
        self.clock += 1;
    }

    /// The per-cycle clocks of cycles `now .. now + k` that the switch
    /// clock (still at the cycle before `now`) does not carry: the shared
    /// SSVC real-time subcounter's wraps — a pass over the arbiters only
    /// on the cycle that reaches `next_wrap`, with its decay events at
    /// that cycle's stamp — and the other engines' ticks. The GL policers
    /// read their decay off the clock.
    pub(super) fn tick_clocks(&mut self, now: Cycle, k: u64) {
        self.now_hint = Cycle::new(now.value() + k - 1);
        // Cycle `now + j` runs at clock `clock + j + 1`.
        while self.next_wrap <= self.clock + k {
            self.wrap_epochs(now.value() + (self.next_wrap - self.clock - 1));
            self.next_wrap += self.epoch_len;
        }
        if !matches!(self.config.policy(), Policy::Ssvc(_)) {
            for engine in self.outputs.iter_mut().filter_map(Output::rate_mut) {
                for _ in 0..k {
                    engine.tick();
                }
            }
        }
    }

    /// A wrap of the shared real-time subcounter, on the cycle stamped
    /// `cycle`: every SSVC arbiter decays one epoch or swallows the wrap
    /// (a pending epoch-skip fault), and each decay is traced, in output
    /// order. Decay events are only built while tracing.
    fn wrap_epochs(&mut self, cycle: u64) {
        let watch = !self.tracer.is_off();
        for (o, out) in self.outputs.iter_mut().enumerate() {
            if let Some(ssvc) = out.ssvc_mut() {
                if ssvc.wrap() && watch {
                    let epoch = ssvc.decay_epochs();
                    self.tracer.emit(|| Event {
                        cycle,
                        kind: EventKind::Decay {
                            output: wire(o),
                            epoch,
                        },
                    });
                }
            }
        }
    }

    /// Applies one output's plan, in sequential output order. `blocked`
    /// is the cycle's live grant-block word: a plan whose requesters
    /// were blocked by an earlier output's grant is stale and gets
    /// re-decided here against the updated picture — the only staleness
    /// source, since blocking is monotone within a cycle (transmit-side
    /// head pops only ever touch inputs that were already blocked when
    /// the plans were decided). A plan that is not stale is *applied*:
    /// its predicted winner is granted without arbitrating again.
    fn commit_output(&mut self, output: OutputId, now: Cycle, blocked: &mut u64, plan: OutputPlan) {
        let o = output.index();
        if plan.stale(*blocked) {
            let fresh = self.decide_output(output, now, self.live_links & !*blocked);
            debug_assert!(!fresh.stale(*blocked), "a fresh plan cannot be stale");
            return self.commit_output(output, now, blocked, fresh);
        }
        let Some(wait) = self.outputs.get_mut(o).map(|out| &mut out.arb_wait) else {
            return;
        };
        match plan.kind {
            PlanKind::Transmit => self.commit_transmit(output, now),
            PlanKind::NoRequests => *wait = 0,
            PlanKind::AwaitLatency => *wait = wait.saturating_add(1),
            _ => {
                *wait = 0;
                if let Some((input, class)) = self.commit_arbitration(output, now, &plan) {
                    let mut set = PortSet::from_bits(*blocked);
                    self.commit_grant(output, now, input, class, set.contains(input));
                    set.insert(input);
                    *blocked = set.bits();
                }
            }
        }
    }

    /// The transmit side of a visit. The kernel visits a transmitting
    /// output only in the loop that moves its packet's last flit: the
    /// packet finishes, and the queue's next packet may chain. A visit
    /// mid-packet (the sharded engine visits every output) leaves the
    /// flits to whoever reads them.
    fn commit_transmit(&mut self, output: OutputId, now: Cycle) {
        let last_loop = self
            .outputs
            .get(output.index())
            .and_then(|out| out.interval)
            .is_some_and(|tx| tx.done_at == self.clock);
        if last_loop {
            self.finish_packet(output, now);
        }
    }

    /// Frees the flits output `o`'s packet has moved by the current
    /// clock from its queue.
    pub(super) fn settle(&mut self, o: usize) {
        let Some(tx) = self
            .outputs
            .get_mut(o)
            .and_then(|out| out.interval.as_mut())
        else {
            return;
        };
        let n = tx.apply(self.clock);
        if let Some(port) = self.ports.get_mut(tx.input.index()) {
            port.drain_head(tx.class, OutputId::new(o), n);
        }
    }

    /// The last flit of `output`'s packet has left: its flits are
    /// freed, the head pops and the channel goes idle, the delivery is
    /// recorded, and the queue's next packet may chain.
    pub(super) fn finish_packet(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        self.settle(o);
        let Some(Interval {
            input,
            class,
            done_at,
            ..
        }) = self.outputs.get_mut(o).and_then(|out| out.interval.take())
        else {
            debug_assert!(false, "output {o} finished without a packet");
            return;
        };
        let pkt = self
            .ports
            .get_mut(input.index())
            .and_then(|port| port.pop_head(class, output));
        // The channel went idle (a chained packet re-commits it below).
        self.busy_out &= !(1 << o);
        self.busy_in &= !(1 << input.index());
        self.finish[slot(done_at)] &= !(1 << o);
        let Some(pkt) = pkt else {
            debug_assert!(false, "output {o}'s queue lost its head");
            return;
        };
        self.sync_port_masks(input.index(), class);
        let latency = now.saturating_since(pkt.spec().created());
        let flits = pkt.spec().len_flits();
        let counters = &mut self.counters;
        counters.delivered_packets = counters.delivered_packets.saturating_add(1);
        counters.delivered_flits = counters.delivered_flits.saturating_add(flits);
        self.metrics_for_mut(class)
            .flow_mut(pkt.spec().flow())
            .record_delivery(latency, flits);
        if let Some(log) = &mut self.delivery_log {
            log.push((now, pkt.spec()));
        }
        // A chained packet keeps the channel committed with no
        // arbitration bubble.
        if !self.try_chain(output, input, class, now) {
            if let Some(out) = self.outputs.get_mut(o) {
                out.chain_count = 0;
            }
        }
    }

    /// Commits `output`'s channel to `input`'s `class` head of `len`
    /// flits, granted or chained in the current loop: the packet's
    /// interval with its last loop on the completion wheel, the busy
    /// words, and the wake of staged heads waiting on the queue it starts
    /// to drain.
    fn start_packet(&mut self, output: OutputId, input: InputId, class: TrafficClass, len: u64) {
        let (o, i) = (output.index(), input.index());
        let (Some(out), Some(feeds)) = (self.outputs.get_mut(o), self.feeds.get_mut(i)) else {
            return;
        };
        assert!(out.interval.is_none(), "commit on a busy {output}");
        assert!(len > 0, "cannot commit an empty packet");
        let done_at = self.clock + len;
        out.interval = Some(Interval {
            input,
            class,
            applied: self.clock,
            done_at,
        });
        *feeds = o;
        self.finish[slot(done_at)] |= 1 << o;
        self.busy_out |= 1 << o;
        self.busy_in |= 1 << i;
        self.wake_waiters(i);
    }

    /// Grants `output` to `input`'s `class` head: commits the channel and
    /// emits the grant. `already_granted` is whether the input was
    /// blocked when the grant was made (the V1 sanitizer's input).
    pub(super) fn commit_grant(
        &mut self,
        output: OutputId,
        now: Cycle,
        input: usize,
        class: TrafficClass,
        already_granted: bool,
    ) {
        let o = output.index();
        let head = self.ports.get(input).and_then(|p| p.head(class, output));
        let gl_wait = self.outputs.get_mut(o).map(|out| &mut out.gl_wait);
        let (Some(head), Some(gl_wait)) = (head, gl_wait) else {
            // An arbitration winner always has a head packet; if that
            // invariant ever breaks, skip the grant instead of aborting
            // the sweep.
            debug_assert!(false, "winner without a head packet");
            return;
        };
        let len = head.spec().len_flits();
        let waited = head.waiting_time(now).value();
        if class == TrafficClass::GuaranteedLatency {
            gl_wait.record(waited);
        }
        sanitize::single_grant_commit(o, input, already_granted);
        self.start_packet(output, InputId::new(input), class, len);
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Grant {
                output: wire(o),
                input: wire(input),
                class,
                len_flits: len,
                waited,
            },
        });
    }

    /// Commits a decided arbitration by *applying* the plan's predicted
    /// winner: the winning round's state update (`Lrg::grant`,
    /// `SsvcArbiter::commit_win`, the policer charge — or, for the
    /// slice-protocol baselines, their mutating `arbitrate` on the same
    /// request list the decide saw), the fabric cross-check and fault
    /// detectors against the live post-charge state, and the round's
    /// trace events, built here from the pre-charge snapshot. Returns
    /// the committed `(input, class)`.
    fn commit_arbitration(
        &mut self,
        output: OutputId,
        now: Cycle,
        plan: &OutputPlan,
    ) -> Option<(usize, TrafficClass)> {
        let o = output.index();
        if plan.gl_policed {
            let policed = &mut self.counters.gl_policed_cycles;
            *policed = policed.saturating_add(1);
            self.tracer.emit(|| Event {
                cycle: now.value(),
                kind: EventKind::GlPoliced {
                    output: wire(o),
                    backlog: plan.gl.count_ones(),
                },
            });
        }
        let (w, class) = plan.predicted?;
        match plan.kind {
            PlanKind::FlatLrg => {
                let Arbiters::Flat(lrg) = &mut self.outputs.get_mut(o)?.arbiters else {
                    return None;
                };
                lrg.grant(w);
            }
            PlanKind::FourLevel => {
                let reqs = self.four_level_requests(output, plan);
                let Arbiters::FourLevel(arb) = &mut self.outputs.get_mut(o)?.arbiters else {
                    return None;
                };
                let committed = arb.arbitrate(now, reqs.as_slice());
                debug_assert_eq!(committed, Some(w), "decide/commit divergence at {output}");
            }
            // A degraded round arbitrates by pure LRG: the GB engine is
            // neither consulted nor advanced, and the fabric cross-check
            // is off (the circuit no longer models the grant).
            PlanKind::GbFallback => self.outputs.get_mut(o)?.ladder_mut()?.fallback.grant(w),
            PlanKind::Be => self.outputs.get_mut(o)?.ladder_mut()?.be.grant(w),
            PlanKind::GlPreempt | PlanKind::GlBelowGb => {
                let circuit = if plan.kind == PlanKind::GlPreempt {
                    self.fabric_decision(o, plan.gl, 0)
                } else {
                    None
                };
                self.outputs.get_mut(o)?.ladder_mut()?.gl.grant(w);
                if let Some(outcome) = circuit {
                    self.check_fabric(output, now, class, w, &outcome).ok()?;
                }
                let len = self
                    .ports
                    .get(w)?
                    .head(TrafficClass::GuaranteedLatency, output)?
                    .spec()
                    .len_flits();
                self.outputs.get_mut(o)?.charge_gl(len, self.clock);
            }
            PlanKind::GbRound => return self.commit_gb_round(output, now, plan, w),
            PlanKind::Transmit | PlanKind::NoRequests | PlanKind::AwaitLatency => return None,
        }
        self.emit_decision(now, o, class, plan.contenders(), w);
        Some((w, class))
    }

    /// The reservation-weighing GB round's commit: charges the winner,
    /// cross-checks the inhibit fabric, runs the armed-fault detectors
    /// over every contender, and emits the round's events.
    fn commit_gb_round(
        &mut self,
        output: OutputId,
        now: Cycle,
        plan: &OutputPlan,
        predicted: usize,
    ) -> Option<(usize, TrafficClass)> {
        let o = output.index();
        let round = plan.contenders();
        // Contenders in request order: GB requesters, then demoted GL.
        let in_order = || {
            PortSet::from_bits(plan.gb)
                .iter()
                .chain(PortSet::from_bits(plan.demoted_gl()))
        };
        // Snapshot what the events and the fabric must see *before* the
        // charge: the MSB lanes the losers are actually defeated with,
        // the winner's counter outcome, and the circuit's own decision.
        let circuit = self.fabric_decision(o, 0, round);
        let snapshot = match self.outputs.get(o)?.ssvc() {
            Some(ssvc) if !self.tracer.is_off() => {
                let mut msbs = [0u64; 64];
                for i in in_order() {
                    if let Some(msb) = msbs.get_mut(i) {
                        *msb = ssvc.msb_value(i);
                    }
                }
                Some((msbs, ssvc.preview_win(predicted)))
            }
            _ => None,
        };
        let w = if let Some(ssvc) = self.outputs.get_mut(o)?.ssvc_mut() {
            ssvc.commit_win(predicted);
            predicted
        } else {
            let reqs = self.gb_round_requests(output, plan);
            let engine = self.outputs.get_mut(o)?.rate_mut()?;
            let committed = engine.arbitrate(now, reqs.as_slice())?;
            debug_assert_eq!(committed, predicted, "decide/commit divergence at {output}");
            committed
        };
        if let Some(outcome) = circuit {
            self.check_fabric(output, now, TrafficClass::GuaranteedBandwidth, w, &outcome)
                .ok()?;
        }
        if let Some((i, code, detail)) = self.corrupt_contender(o, in_order()) {
            let class = TrafficClass::GuaranteedBandwidth;
            return self.detected_degrade(output, now, class, i, code, detail);
        }
        if let Some(ssvc) = self.outputs.get(o)?.ssvc() {
            sanitize::gb_win(
                o,
                w,
                ssvc.thermometer_code(w),
                ssvc.aux_vc(w),
                ssvc.config().saturation_cap(),
            );
        }
        if let Some((msbs, (aux, saturated))) = snapshot {
            let msb_of = |i: usize| msbs.get(i).copied().unwrap_or(0);
            for i in in_order().filter(|&i| i != w) {
                self.tracer.emit(|| Event {
                    cycle: now.value(),
                    kind: EventKind::Inhibit {
                        output: wire(o),
                        input: wire(i),
                        msb: msb_of(i),
                        winner_msb: msb_of(w),
                    },
                });
            }
            self.tracer.emit(|| Event {
                cycle: now.value(),
                kind: EventKind::AuxVc {
                    output: wire(o),
                    input: wire(w),
                    aux,
                    saturated,
                },
            });
        }
        let class = plan.gb_round_class(w);
        self.emit_decision(now, o, class, round, w);
        Some((w, class))
    }

    /// With a fault armed, the V2/V3 sanitizer predicates run
    /// unconditionally and *classify* (Detected → retry → degrade)
    /// instead of panicking: the first of a GB round's `contenders` (GB
    /// requesters, then demoted GL) whose counter at SSVC output `o` is
    /// malformed, with its invariant code and the offending value. Every
    /// contender is scanned, not just the winner: an upward-corrupted
    /// auxVC makes its flow silently *lose* every round, which is just
    /// as much a broken guarantee as a corrupt win.
    pub(super) fn corrupt_contender(
        &self,
        o: usize,
        mut contenders: impl Iterator<Item = usize>,
    ) -> Option<(usize, Invariant, u64)> {
        let ssvc = self.outputs.get(o)?.ssvc().filter(|_| self.armed)?;
        let cap = ssvc.config().saturation_cap();
        contenders.find_map(|i| {
            let (code, aux) = (ssvc.thermometer_code(i), ssvc.aux_vc(i));
            if !ssq_types::invariant::thermometer_well_formed(code) {
                Some((i, Invariant::Thermometer, code))
            } else if !ssq_types::invariant::aux_within_cap(aux, cap) {
                Some((i, Invariant::AuxWidth, aux))
            } else {
                None
            }
        })
    }

    /// Holds a committed `class` winner to the inhibit fabric's own
    /// decision on the same requests. With a fault armed a divergence is
    /// *classified* (Detected → retry → degrade) and `Err` says the
    /// round grants nothing: a multi-grant is V1 (SSQV001, `detail` = the
    /// fabric's first extra winner), a winner mismatch V6 (SSQV006,
    /// `detail` = the fabric's winner, or `u64::MAX` when it granted
    /// nobody). Unarmed, a divergence is a model bug.
    pub(super) fn check_fabric(
        &mut self,
        output: OutputId,
        now: Cycle,
        class: TrafficClass,
        winner: usize,
        outcome: &ArbitrationOutcome,
    ) -> Result<(), ()> {
        let expected = outcome.winner();
        if self.armed && (expected != Some(winner) || outcome.is_multi_grant()) {
            let code = if outcome.is_multi_grant() {
                Invariant::SingleGrant
            } else {
                Invariant::GrantAgreement
            };
            let detail = expected.map_or(u64::MAX, |w| w as u64);
            let granted = self.detected_degrade(output, now, class, winner, code, detail);
            debug_assert!(granted.is_none(), "a detected corruption never grants");
            return Err(());
        }
        sanitize::fabric_agreement(output.index(), expected, Some(winner));
        assert_eq!(
            expected,
            Some(winner),
            "fabric/behavioural {class} disagreement at {output}, cycle {now}"
        );
        Ok(())
    }

    /// Emits the `Decision` event of a committed arbitration over the
    /// `contenders` word.
    fn emit_decision(
        &mut self,
        now: Cycle,
        o: usize,
        class: TrafficClass,
        contenders: u64,
        winner: usize,
    ) {
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Decision {
                output: wire(o),
                class,
                contenders: contenders.count_ones(),
                winner: wire(winner),
            },
        });
    }

    /// Runs the bit-level inhibit fabric on the request words the
    /// behavioural arbiter is about to commit (fabric-in-the-loop
    /// verification; see `SwitchConfigBuilder::fabric_checked`). Returns
    /// `None` when checking is disabled or the engine is not SSVC.
    fn fabric_decision(&self, o: usize, gl: u64, gb: u64) -> Option<ArbitrationOutcome> {
        let fabric = self.fabric.as_ref()?;
        let Arbiters::Ladder(Ladder {
            gb: GbEngine::Ssvc(ssvc),
            gl: gl_lrg,
            ..
        }) = &self.outputs.get(o)?.arbiters
        else {
            return None;
        };
        let (gl, gb) = (PortSet::from_bits(gl), PortSet::from_bits(gb));
        let mut ports = [PortRequest::Idle; 64];
        for (i, port) in ports.iter_mut().enumerate() {
            if gl.contains(i) {
                *port = PortRequest::Gl;
            } else if gb.contains(i) {
                *port = PortRequest::Gb {
                    msb_value: ssvc.msb_value(i),
                };
            }
        }
        let ports = ports.get(..self.config.geometry().radix())?;
        Some(fabric.arbitrate(ports, ssvc.lrg(), gl_lrg))
    }

    /// Attempts to chain the next packet of the same queue onto the
    /// channel that just completed a packet (paper §4.2's Packet Chaining
    /// mitigation, ref [10]). Chaining is allowed when the feature is
    /// enabled, the same `(input, class, output)` queue holds another
    /// packet, no strictly-higher class is waiting for the output, and
    /// fewer than [`SwitchConfig::CHAIN_LIMIT`] packets chained in a row.
    /// Returns whether the channel was re-committed.
    fn try_chain(
        &mut self,
        output: OutputId,
        input: InputId,
        class: TrafficClass,
        now: Cycle,
    ) -> bool {
        if !self.config.packet_chaining() {
            return false;
        }
        let o = output.index();
        if self.outputs[o].chain_count >= SwitchConfig::CHAIN_LIMIT {
            return false;
        }
        if !self.ports[input.index()].is_link_up() {
            // The link died mid-burst: no chained grant across it.
            return false;
        }
        let Some(next) = self.ports[input.index()].head(class, output) else {
            return false;
        };
        let len = next.spec().len_flits();
        let wait = next.waiting_time(now);
        // A waiting higher class must win a real arbitration instead:
        // any bit in an outranking request word of this output (synced
        // by `finish_packet` just before the call).
        let higher_waiting = self.outputs[o].xreq[class.priority() as usize + 1..]
            .iter()
            .any(|&word| word != 0);
        if higher_waiting {
            return false;
        }
        let out = &mut self.outputs[o];
        if class == TrafficClass::GuaranteedLatency {
            out.gl_wait.record(wait.value());
            out.charge_gl(len, self.clock);
        }
        if class == TrafficClass::GuaranteedBandwidth {
            // Chained packets still consume the flow's virtual time /
            // credits / stamps, so reservations keep meaning something
            // across chains. A single-candidate arbitration performs
            // exactly the winner-side bookkeeping of each engine.
            if let Some(ladder) = out.ladder_mut() {
                let only = [Request::new(input.index(), len)];
                let committed = match &mut ladder.gb {
                    GbEngine::Ssvc(ssvc) => ssvc.arbitrate(now, &only),
                    GbEngine::Rate(engine) => engine.arbitrate(now, &only),
                };
                debug_assert_eq!(committed, Some(input.index()));
            }
        }
        sanitize::chained_grant(o, out.chain_count, SwitchConfig::CHAIN_LIMIT);
        out.chain_count += 1;
        self.start_packet(output, input, class, len);
        self.counters.chained_packets += 1;
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Chained {
                output: wire(o),
                input: wire(input.index()),
                len_flits: len,
            },
        });
        true
    }

    /// One cycle on the decide/commit kernel: prepare (clocks,
    /// injection, the transmit-blocked word), then, for each output with
    /// work, a pure [`QosSwitch::decide_output`] against the live
    /// blocked word followed immediately by its serial commit. An output
    /// has work when it is idle and some input requests it, or when its
    /// packet moves its last flit in this loop
    /// (`(req_out & !busy_out) | finishing`). The others are skipped: an
    /// idle, unrequested output's decide is `NoRequests` and its commit
    /// would zero an `arb_wait` that is already 0, and a mid-packet
    /// output's flit is applied, with the ones before and after it, when
    /// something reads its channel or queue (DESIGN.md §9 "Outputs with
    /// work"). The work word is re-read after each
    /// output: a BE head finishing at one output can expose a head for a
    /// later one in the same cycle.
    ///
    /// On a cycle the armed profiler times (`profiled`), a
    /// [`Stopwatch`](ssq_prof::Stopwatch) lap feeds the profiler around
    /// each phase. Inlined into its two call sites with `profiled` a
    /// constant, so the timer reads never touch the unprofiled copy.
    #[inline(always)]
    fn run_cycle(&mut self, now: Cycle, profiled: bool) {
        let mut watch = profiled.then(ssq_prof::Stopwatch::start);
        let mut lap = move || watch.as_mut().map_or(0, ssq_prof::Stopwatch::lap_ns);
        let transmit_only = profiled && self.transmit_only();
        let polls = self.injection_work.polls;
        self.prepare_cycle(now);
        if profiled {
            self.prof.record_phase(ssq_prof::PHASE_PREPARE, lap());
        }
        let mut blocked = self.blocked;
        // A packet longer than 64 flits comes round early, a visit whose
        // `Transmit` commit returns at once; a grant in this loop cannot
        // finish in it.
        let finishing = self.finish[slot(self.clock)];
        if transmit_only {
            self.transmit_only.transmit_only += 1;
            let arrived = self.injection_work.polls != polls;
            self.transmit_only.clock_only += u64::from(finishing == 0 && !arrived);
        }
        // Bits at and below the output visited last.
        let mut passed = 0u64;
        loop {
            let work = ((self.req_out & !self.busy_out) | finishing) & !passed;
            if work == 0 {
                break;
            }
            let o = work.trailing_zeros();
            #[cfg(debug_assertions)]
            self.debug_assert_no_work(!passed & ((1 << o) - 1));
            passed = (2u64 << o).wrapping_sub(1);
            self.outputs_visited += 1;
            let output = OutputId::new(o as usize);
            let plan = self.decide_output(output, now, self.live_links & !blocked);
            if profiled {
                self.prof.record_phase(ssq_prof::PHASE_DECIDE, lap());
            }
            self.commit_output(output, now, &mut blocked, plan);
            if profiled {
                self.prof.record_phase(ssq_prof::PHASE_COMMIT, lap());
            }
        }
        #[cfg(debug_assertions)]
        self.debug_assert_no_work(!passed);
        self.blocked = blocked;
    }

    /// Debug-only: the outputs in `skipped` (a word over the radix) are
    /// ones a cycle need not visit — idle and unrequested, or mid-packet
    /// and not finishing — with the arbitration-wait clock a
    /// `NoRequests` commit would leave.
    #[cfg(debug_assertions)]
    fn debug_assert_no_work(&self, skipped: u64) {
        for o in PortSet::from_bits(skipped & self.all_ports) {
            let out = &self.outputs[o];
            match out.interval {
                None => assert_eq!(out.xreq, [0; 3], "skipped a requested output {o}"),
                Some(tx) => assert_ne!(
                    tx.done_at, self.clock,
                    "skipped output {o} in its packet's last loop"
                ),
            }
            assert_eq!(out.arb_wait, 0, "skipped output {o} mid-arbitration");
        }
    }
}

impl CycleModel for QosSwitch {
    /// One cycle on the shared decide/commit kernel
    /// (`QosSwitch::decide_output` reading the request words, the
    /// commit applying each predicted winner). The sharded engine runs
    /// the same kernel with all decides hoisted before all commits (see
    /// the [`ShardedModel`] impl), so the engines agree bit for bit.
    fn step(&mut self, now: Cycle) {
        #[cfg(debug_assertions)]
        self.debug_assert_masks_synced();
        // Profiler gate: disarmed, one predictable branch; armed, every
        // cycle is timed.
        if self.prof.begin_cycle() {
            self.run_cycle(now, true);
        } else {
            self.run_cycle(now, false);
        }
    }

    fn begin_measurement(&mut self, now: Cycle) {
        self.counters = SwitchCounters::default();
        self.injection_work = InjectionWork::default();
        self.outputs_visited = 0;
        self.transmit_only = TransmitOnlyCycles::default();
        self.be_metrics.start_window(now);
        self.gb_metrics.start_window(now);
        self.gl_metrics.start_window(now);
        for out in &mut self.outputs {
            out.gl_wait = Histogram::new(4, 1024);
        }
        self.prof.reset();
    }
}

impl EventModel for QosSwitch {
    /// Quiescence probe and batched clock advance. The switch is
    /// skippable when it [is quiescent](QosSwitch::is_quiescent) —
    /// nothing buffered, staged, or in flight, every link up, the fault
    /// machinery disarmed — and every injector can predict its next
    /// arrival (asked of the arrival schedule: its due words inside the
    /// drawn block, the sources beyond it). The only per-cycle state
    /// changes in that regime are the SSVC real-time decay clocks, the
    /// other engines' ticks and the GL policer decay (the
    /// arbitration-wait clocks of unrequested outputs are already zero)
    /// — all batched here, with the decay-epoch events dense stepping
    /// would have traced emitted at their exact cycle stamps.
    fn skip_idle(&mut self, now: Cycle, limit: Cycle) -> Cycle {
        if limit <= now || !self.is_quiescent() {
            return now;
        }
        let Some(arrival) = self.injectors.next_arrival(now) else {
            return now; // unpredictable source: stay dense
        };
        if arrival <= now {
            return now; // work due this very cycle
        }
        let target = limit.min(arrival);
        self.injectors.skip_to(target);
        // The skipped cycles' clocks in one batch, their decay events
        // at the dense stamps (cycle-major, then output: the prepare
        // loop's order); the GL policers read theirs off the clock.
        let k = target.value() - now.value();
        self.tick_clocks(now, k);
        self.clock += k;
        debug_assert!(self.outputs.iter().all(|out| out.arb_wait == 0));
        // Each skipped cycle's prepare leaves an all-clear blocked word.
        self.blocked = 0;
        target
    }
}

impl ShardedModel for QosSwitch {
    type Plan = OutputPlan;

    fn shard_count(&self) -> usize {
        self.config.geometry().radix()
    }

    fn shard_prepare(&mut self, now: Cycle) {
        self.prepare_cycle(now);
    }

    fn shard_decide(&self, shard: usize, now: Cycle) -> OutputPlan {
        self.decide_output(OutputId::new(shard), now, self.live_links & !self.blocked)
    }

    /// Commits the plans in output order against the blocked set the
    /// decides ran with. A plan invalidated by an earlier output's grant
    /// is re-decided inside [`QosSwitch::commit_output`] with the
    /// updated picture — exactly the decision the sequential loop would
    /// have made at that point, which is why the engines agree at any
    /// thread count.
    fn shard_merge(&mut self, now: Cycle, plans: Vec<OutputPlan>) {
        let mut blocked = self.blocked;
        for (o, plan) in plans.into_iter().enumerate() {
            self.commit_output(OutputId::new(o), now, &mut blocked, plan);
        }
        self.blocked = blocked;
    }

    fn plan_cost(plan: &OutputPlan) -> u64 {
        plan.cost()
    }
}
