//! The fault surface: injection, detection handling and recovery
//! (DESIGN.md §8). The degradations are per output, in the output's
//! record; whether any fault is armed is per switch.

use ssq_trace::{DegradeMode, Event, EventKind, FaultSite, ReadmitAction};
use ssq_types::invariant::Invariant;
use ssq_types::{Cycle, InputId, OutputId, TrafficClass};

use super::{wire, QosSwitch};
use crate::bitmask::PortSet;
use crate::reservations::ReadmitDecision;

/// Fault injection, detection handling, and recovery (DESIGN.md §8).
///
/// Every state change here pairs with a trace event — the
/// `no-silent-degrade` lint holds these paths to that contract — so a
/// chaos campaign can reconstruct the full injection → detection →
/// degradation → re-admission story from the JSONL trace alone.
impl QosSwitch {
    /// Emits a [`EventKind::Fault`] and arms detection on injection.
    fn emit_fault(
        &mut self,
        now: Cycle,
        site: FaultSite,
        output: usize,
        input: usize,
        healed: bool,
    ) {
        if !healed {
            self.counters.fault_injections += 1;
            self.armed = true;
        }
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Fault {
                site,
                output: wire(output),
                input: wire(input),
                healed,
            },
        });
    }

    /// Emits a [`EventKind::Degraded`] mode transition for `output`.
    fn emit_degraded(&mut self, now: Cycle, o: usize, mode: DegradeMode) {
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Degraded {
                output: wire(o),
                mode,
            },
        });
    }

    /// Flips `input`'s bit in the live-links word, which injection,
    /// chaining and the decide kernel read.
    fn set_link(&mut self, input: usize, up: bool) {
        // `input` is a port of the switch: below its radix ≤ 64.
        let bit = 1u64 << input;
        if up {
            self.live_links |= bit;
        } else {
            self.live_links &= !bit;
        }
    }

    /// Disarms detection once no persistent fault remains (all stuck
    /// wires healed, all links up). Degradations stay in force until
    /// explicitly restored.
    fn try_disarm(&mut self) {
        let fabric_ok = self.fabric.as_ref().is_none_or(|f| !f.is_faulted());
        let links_ok = self.live_links == self.all_ports;
        if fabric_ok && links_ok {
            self.armed = false;
        }
    }

    /// A detector tripped on a corrupted grant: emit [`EventKind::Detected`],
    /// then walk the degradation ladder — consume a transient retry
    /// (skip this grant, re-arbitrate next cycle) while the budget
    /// lasts, else degrade the class's mechanism and revoke its
    /// guarantee. Always grants nothing this cycle.
    pub(super) fn detected_degrade(
        &mut self,
        output: OutputId,
        now: Cycle,
        class: TrafficClass,
        winner: usize,
        code: Invariant,
        detail: u64,
    ) -> Option<(usize, TrafficClass)> {
        let o = output.index();
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Detected {
                output: wire(o),
                code,
                detail,
            },
        });
        if self.outputs[o].try_retry() {
            self.counters.fault_retries += 1;
            self.emit_degraded(now, o, DegradeMode::Retry);
            return None;
        }
        if class == TrafficClass::GuaranteedLatency {
            self.demote_gl(now, o, winner);
        } else {
            self.outputs[o].set_lrg_fallback(true);
            self.emit_degraded(now, o, DegradeMode::LrgFallback);
            self.revoke(now, o, winner, TrafficClass::GuaranteedBandwidth, 0);
        }
        None
    }

    /// Demotes output `o`'s GL class and revokes its Eq. 1 bound in
    /// `input`'s name. The watchdog contract is replaced by the
    /// revocation event; a tripped monitor after this would be noise.
    fn demote_gl(&mut self, now: Cycle, o: usize, input: usize) {
        self.outputs[o].set_gl_demoted(true);
        self.emit_degraded(now, o, DegradeMode::GlDemoted);
        let bound = self.gl_wait_bound.take().unwrap_or(0);
        self.revoke(now, o, input, TrafficClass::GuaranteedLatency, bound);
    }

    /// Counts and traces one revoked guarantee.
    fn revoke(&mut self, now: Cycle, o: usize, input: usize, class: TrafficClass, bound: u64) {
        self.counters.guarantees_revoked += 1;
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::GuaranteeRevoked {
                output: wire(o),
                input: wire(input),
                class,
                bound,
                forfeited: true,
            },
        });
    }

    /// Takes `input`'s link down (`up == false`) or brings it back up.
    ///
    /// Down means the port neither admits new packets (injection
    /// rejects with
    /// [`RejectReason::LinkDown`](ssq_trace::RejectReason::LinkDown))
    /// nor competes in arbitration; buffered packets are retained and
    /// resume when the link heals.
    pub fn fault_set_link(&mut self, input: InputId, up: bool, now: Cycle) {
        self.set_link(input.index(), up);
        self.emit_fault(now, FaultSite::Link, 0, input.index(), up);
        if up {
            self.try_disarm();
        }
    }

    /// Sticks the inhibit-fabric wire at `(lane, input)` at charged
    /// (stuck-at-1) or discharged (stuck-at-0).
    ///
    /// # Panics
    ///
    /// Panics when the switch runs without a checked fabric (see
    /// `SwitchConfigBuilder::fabric_checked`) or the wire is out of
    /// the fabric's geometry.
    #[expect(
        clippy::expect_used,
        reason = "documented misuse panic; injection only runs from fault plans"
    )]
    pub fn fault_stick_wire(&mut self, lane: usize, input: usize, charged: bool, now: Cycle) {
        self.fabric
            .as_mut()
            .expect("bitline fault injection requires a fabric_checked switch")
            .fault_stick_wire(lane, input, charged);
        self.emit_fault(now, FaultSite::BitlineStuck, 0, input, false);
    }

    /// Heals the stuck fabric wire at `(lane, input)`.
    pub fn fault_heal_wire(&mut self, lane: usize, input: usize, now: Cycle) {
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.heal_wire(lane, input);
        }
        self.emit_fault(now, FaultSite::BitlineStuck, 0, input, true);
        self.try_disarm();
    }

    /// Flips bit `bit` of `input`'s `auxVC` counter at `output` (a
    /// single-event upset) and returns the corrupted raw value.
    ///
    /// # Panics
    ///
    /// Panics unless `output`'s engine is SSVC.
    #[expect(
        clippy::panic,
        reason = "documented misuse panic; injection only runs from fault plans"
    )]
    pub fn fault_flip_aux_bit(
        &mut self,
        output: OutputId,
        input: InputId,
        bit: u32,
        now: Cycle,
    ) -> u64 {
        let o = output.index();
        let Some(ssvc) = self.outputs[o].ssvc_mut() else {
            panic!("auxVC fault injection requires the SSVC policy")
        };
        let raw = ssvc.fault_flip_aux_bit(input.index(), bit);
        self.emit_fault(now, FaultSite::AuxBitFlip, o, input.index(), false);
        raw
    }

    /// Makes `output`'s counter-policy clock skip its next `epochs`
    /// epoch boundaries (decay events silently dropped).
    ///
    /// # Panics
    ///
    /// Panics unless `output`'s engine is SSVC.
    #[expect(
        clippy::panic,
        reason = "documented misuse panic; injection only runs from fault plans"
    )]
    pub fn fault_skip_epochs(&mut self, output: OutputId, epochs: u64, now: Cycle) {
        let o = output.index();
        let Some(ssvc) = self.outputs[o].ssvc_mut() else {
            panic!("epoch-skip fault injection requires the SSVC policy")
        };
        ssvc.fault_skip_epochs(epochs);
        self.emit_fault(now, FaultSite::EpochSkip, o, 0, false);
    }

    /// Heals every persistent fault at once (stuck wires, downed
    /// links), disarms detection, and refills every retry budget.
    /// Degradations (LRG fallback, GL demotion) stay in force until
    /// explicitly restored — healing hardware does not silently
    /// re-promise guarantees.
    pub fn fault_heal_all(&mut self, now: Cycle) {
        if let Some(fabric) = self.fabric.as_mut() {
            if fabric.is_faulted() {
                fabric.heal_all();
                self.emit_fault(now, FaultSite::BitlineStuck, 0, 0, true);
            }
        }
        for i in PortSet::from_bits(self.all_ports & !self.live_links) {
            self.set_link(i, true);
            self.emit_fault(now, FaultSite::Link, 0, i, true);
        }
        self.armed = false;
        let budget = self.config.fault_retry_budget();
        for out in &mut self.outputs {
            out.retries_left = budget;
        }
    }

    /// Forces `output`'s GB arbitration from SSVC down to the pure-LRG
    /// fallback, revoking the rate guarantee of every reserved GB flow
    /// there (one [`EventKind::GuaranteeRevoked`] each).
    pub fn fault_degrade_to_lrg(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if self.outputs[o].lrg_fallback() {
            return;
        }
        self.outputs[o].set_lrg_fallback(true);
        self.emit_degraded(now, o, DegradeMode::LrgFallback);
        let flows: Vec<usize> = self
            .config
            .reservations()
            .iter_gb()
            .filter(|(_, out, _)| out.index() == o)
            .map(|(i, _, _)| i.index())
            .collect();
        for i in flows {
            self.revoke(now, o, i, TrafficClass::GuaranteedBandwidth, 0);
        }
    }

    /// Restores full SSVC arbitration at `output` (after the fabric
    /// healed) and refills its retry budget.
    pub fn fault_restore_ssvc(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if !self.outputs[o].lrg_fallback() {
            return;
        }
        self.outputs[o].set_lrg_fallback(false);
        self.outputs[o].retries_left = self.config.fault_retry_budget();
        self.emit_degraded(now, o, DegradeMode::SsvcRestored);
    }

    /// Demotes `output`'s GL class: packets keep flowing but no longer
    /// preempt GB, and the Eq. 1 bound is forfeited (the watchdog is
    /// disarmed — the revocation event replaces its contract).
    pub fn fault_demote_gl(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if !self.outputs[o].gl_demoted() {
            self.demote_gl(now, o, 0);
        }
    }

    /// Restores GL preemption at `output`. The Eq. 1 watchdog stays
    /// off until the caller re-arms it with
    /// [`QosSwitch::set_gl_wait_bound`] — recomputing the bound is an
    /// admission decision, not a switch-level side effect.
    pub fn fault_restore_gl(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if !self.outputs[o].gl_demoted() {
            return;
        }
        self.outputs[o].set_gl_demoted(false);
        self.emit_degraded(now, o, DegradeMode::GlRestored);
    }

    /// Re-runs admission for `output` against the post-fault `capacity`
    /// (see `Reservations::readmit`): GB flows are evicted
    /// largest-rate-first until the survivors fit, and the GL rate is
    /// demoted when its lane was lost. Emits one
    /// [`EventKind::Readmitted`] per decision and a
    /// [`EventKind::GuaranteeRevoked`] per demotion/eviction.
    ///
    /// Evicted flows lose their reservation, so their future packets
    /// demote to BE at injection; packets already buffered drain in
    /// their original class. Combine with
    /// [`QosSwitch::fault_demote_gl`] when the GL *lane* (not just
    /// rate) is gone.
    pub fn readmit_output(
        &mut self,
        output: OutputId,
        capacity: f64,
        gl_lane_lost: bool,
        now: Cycle,
    ) -> Vec<ReadmitDecision> {
        let decisions = self
            .config
            .reservations_mut()
            .readmit(output, capacity, gl_lane_lost);
        for d in &decisions {
            let (o, i, class, action) = (d.output.index(), d.input.index(), d.class, d.action);
            self.tracer.emit(|| Event {
                cycle: now.value(),
                kind: EventKind::Readmitted {
                    output: wire(o),
                    input: wire(i),
                    class,
                    action,
                },
            });
            if !matches!(d.action, ReadmitAction::Keep) {
                self.revoke(now, o, i, class, 0);
            }
        }
        decisions
    }
}
