//! Injection: injectors and their staging queues, the arrival-schedule
//! visit, the staged heads' retry timing, and the enqueue that sets the
//! outputs' request rows when a packet becomes a queue head.

use std::collections::VecDeque;

use ssq_trace::{Event, EventKind, RejectReason};
use ssq_traffic::{Injector, PacketIntent, ParseTraceError, Replay};
use ssq_types::{Cycle, FlowId, InputId, PacketSpec, TrafficClass};

use super::{wire, QosSwitch, NEVER};
use crate::bitmask::PortSet;
use crate::config::Policy;
use crate::packet::Packet;

/// Per-injector staging queue bound: when an injector outruns its input
/// buffer by this many packets, further packets are dropped (and
/// counted), keeping saturated runs memory-bounded.
const STAGING_CAP_PACKETS: usize = 64;

impl QosSwitch {
    /// Attaches a traffic injector to its input port.
    ///
    /// # Panics
    ///
    /// Panics if the input is not a port of the switch, or if the
    /// injector's next packet is due in a cycle the switch has already
    /// stepped past ([`ArrivalSchedule::push`](ssq_traffic::ArrivalSchedule::push)):
    /// a [`Trace`](ssq_traffic::Trace) added after its next event.
    pub fn add_injector(&mut self, injector: Injector) {
        self.attach(injector.input());
        if self.clock > 0 {
            // Only a schedule with injectors follows the steps: bring
            // it to the next cycle, where the new injector starts.
            self.injectors.skip_to(self.now_hint.next());
        }
        self.injectors.push(injector);
    }

    /// Attaches a replayed trace's injectors to their input ports, one
    /// per non-empty `(input, class)` stream in `(input, class)` order
    /// ([`ArrivalSchedule::push_replay`](ssq_traffic::ArrivalSchedule::push_replay)).
    /// The replay is read during the run, a block at a time. One added
    /// after its first packet's cycle delivers nothing, and a line that
    /// no longer reads as it did ends the replay there;
    /// [`QosSwitch::replay_error`] names the line either way.
    ///
    /// # Panics
    ///
    /// Panics if a stream's input is not a port of the switch (open the
    /// replay with the switch's radix).
    pub fn add_replay(&mut self, replay: Replay) {
        let first = self.injectors.len();
        self.injectors.push_replay(replay);
        for idx in first..self.injectors.len() {
            self.attach(self.injectors.input(idx));
        }
    }

    /// The first fault a replay added with [`QosSwitch::add_replay`] met,
    /// naming its line: once there is one, no further replayed packet
    /// arrives, so a report of the run is not the file's.
    #[must_use]
    pub fn replay_error(&self) -> Option<&ParseTraceError> {
        self.injectors.replay_error()
    }

    /// The injection state of the next injector, which feeds `input`.
    fn attach(&mut self, input: InputId) {
        assert!(
            input.index() < self.config.geometry().radix(),
            "injector input out of range"
        );
        let idx = self.staging.len();
        if idx.is_multiple_of(64) {
            self.staged.push(0);
            self.asleep.push(0);
        }
        self.injectors_of[input.index()].push(idx);
        self.staging.push(VecDeque::new());
        self.retry_at.push(0);
    }

    /// Offers a packet directly to its input-port buffer, bypassing the
    /// injector/staging machinery — the hook that lets an external agent
    /// (another switch stage, a replayed trace with its own backpressure
    /// model) drive this switch. Returns `false` (and drops the packet)
    /// if the class buffer lacks space.
    ///
    /// For the exact-Virtual-Clock policy a GB packet is stamped on
    /// arrival, exactly as injector-fed GB packets are.
    ///
    /// # Panics
    ///
    /// Panics if the packet's ports exceed the radix.
    pub fn offer_packet(&mut self, spec: PacketSpec, now: Cycle) -> bool {
        let input = spec.flow().input();
        let output = spec.flow().output();
        assert!(
            input.index() < self.config.geometry().radix()
                && output.index() < self.config.geometry().radix(),
            "packet {spec} outside the switch radix"
        );
        self.counters.offered_packets += 1;
        let accepted = self.enqueue(Packet::new(spec, now));
        if accepted {
            self.counters.accepted_packets += 1;
            if spec.class() == TrafficClass::GuaranteedBandwidth {
                if let Some(engine) = self.outputs[output.index()].rate_mut() {
                    engine.note_arrival(input.index(), now);
                }
            }
        } else {
            self.counters.dropped_packets += 1;
            self.tracer.emit(|| Event {
                cycle: now.value(),
                kind: EventKind::Reject {
                    input: wire(input.index()),
                    output: wire(output.index()),
                    class: spec.class(),
                    reason: RejectReason::BufferFull,
                },
            });
        }
        accepted
    }

    /// Injection on the arrival schedule: visits, in ascending order, the
    /// injectors with a packet due this cycle or packets still staged.
    pub(super) fn inject(&mut self, now: Cycle) {
        if self.injectors.is_empty() {
            return;
        }
        self.injection_work.refills += u64::from(self.injectors.advance(now));
        let clock = self.clock;
        #[cfg(debug_assertions)]
        for idx in 0..self.retry_at.len() {
            // Every probe skipped before `retry_at` would have failed.
            assert!(
                self.retry_at[idx] <= clock
                    || self.staged_shortfall(idx).is_some_and(|short| short > 0),
                "injector {idx}'s staged head fits before its retry_at"
            );
        }
        for g in 0..self.staged.len() {
            let due = PortSet::from_bits(self.injectors.due(g));
            self.injection_work.polls += u64::from(due.len());
            // A staged head waits for its `retry_at`, the loop after
            // which it fits: before it an injector is visited only for
            // an arrival. (Branch-free: most of them are waiting.)
            let mut visit = due;
            for j in PortSet::from_bits(self.staged[g] & !due.bits() & !self.asleep[g]) {
                let ready = self.retry_at[g * 64 + j] <= clock;
                visit = PortSet::from_bits(visit.bits() | u64::from(ready) << j);
            }
            for j in visit {
                let idx = g * 64 + j;
                let intent = due.contains(j).then(|| self.injectors.take(idx));
                self.inject_one(idx, now, intent, self.retry_at[idx] <= clock);
            }
        }
    }

    /// Flits by which injector `idx`'s staged head exceeds the free room
    /// of the queue it would join (zero: it fits); `None` when nothing
    /// is staged.
    fn staged_shortfall(&self, idx: usize) -> Option<u64> {
        let head = self.staging[idx].front()?;
        let free = self.free_flits(
            self.injectors.input(idx),
            head.class(),
            head.flow().output(),
        );
        Some(head.len_flits().saturating_sub(free))
    }

    /// The `retry_at` of injector `idx`'s staged head, `short` flits
    /// short of room: its queue frees one flit a loop while it drains and
    /// none otherwise, so the head fits `short` loops on if the queue's
    /// packet has that many flits left to move, and is left to the
    /// queue's next grant or chain if not.
    fn retry_for(&self, idx: usize, short: u64) -> u64 {
        let left = self.staging[idx].front().and_then(|head| {
            let i = self.injectors.input(idx).index();
            self.draining(i, head.class(), head.flow().output())
        });
        match left {
            Some((_, left)) if short <= left => self.clock + short,
            _ => NEVER,
        }
    }

    /// Sets injector `idx`'s `retry_at` and its `asleep` bit with it.
    fn set_retry(&mut self, idx: usize, at: u64) {
        self.retry_at[idx] = at;
        let bit = 1u64 << (idx % 64);
        if at == NEVER {
            self.asleep[idx / 64] |= bit;
        } else {
            self.asleep[idx / 64] &= !bit;
        }
    }

    /// Re-times the staged heads at `input` that are waiting, once a
    /// grant or chain has started draining one of its queues.
    pub(super) fn wake_waiters(&mut self, input: usize) {
        for k in 0..self.injectors_of[input].len() {
            let idx = self.injectors_of[input][k];
            if self.retry_at[idx] <= self.clock {
                continue;
            }
            if let Some(short) = self.staged_shortfall(idx) {
                self.set_retry(idx, self.retry_for(idx, short));
            }
        }
    }

    /// One injector's cycle: stage the packet arriving now, if any, then
    /// (`drain`) move as many staged packets as fit into their input
    /// buffer. The reference kernel always drains.
    pub(super) fn inject_one(
        &mut self,
        idx: usize,
        now: Cycle,
        intent: Option<PacketIntent>,
        drain: bool,
    ) {
        let input = self.injectors.input(idx);
        if !self.link_up(input.index()) {
            // A downed link rejects new packets at the source and
            // freezes staged ones; the arrival process itself keeps
            // ticking so healing resumes deterministically.
            if let Some(intent) = intent {
                self.counters.offered_packets += 1;
                self.counters.dropped_packets += 1;
                let out = intent.output;
                let class = intent.class;
                self.tracer.emit(|| Event {
                    cycle: now.value(),
                    kind: EventKind::Reject {
                        input: wire(input.index()),
                        output: wire(out.index()),
                        class,
                        reason: RejectReason::LinkDown,
                    },
                });
            }
            return;
        }
        if let Some(intent) = intent {
            self.counters.offered_packets += 1;
            // GB packets on unreserved flows carry no Vtick state at
            // their crosspoint; demote them to BE (observable via the
            // demoted counter) rather than inventing a reservation.
            let mut class = intent.class;
            if class == TrafficClass::GuaranteedBandwidth
                && self
                    .config
                    .reservations()
                    .gb(input, intent.output)
                    .is_none()
                && matches!(
                    self.config.policy(),
                    Policy::Ssvc(_) | Policy::ExactVirtualClock
                )
            {
                class = TrafficClass::BestEffort;
                self.counters.demoted_packets += 1;
                let out = intent.output;
                self.tracer.emit(|| Event {
                    cycle: now.value(),
                    kind: EventKind::Reject {
                        input: wire(input.index()),
                        output: wire(out.index()),
                        class: TrafficClass::GuaranteedBandwidth,
                        reason: RejectReason::Demoted,
                    },
                });
            }
            if self.staging[idx].len() >= STAGING_CAP_PACKETS {
                self.counters.dropped_packets += 1;
                let out = intent.output;
                self.tracer.emit(|| Event {
                    cycle: now.value(),
                    kind: EventKind::Reject {
                        input: wire(input.index()),
                        output: wire(out.index()),
                        class,
                        reason: RejectReason::StagingOverflow,
                    },
                });
            } else {
                let spec = PacketSpec::new(
                    self.next_packet_id,
                    FlowId::new(input, intent.output),
                    class,
                    intent.len_flits,
                    now,
                );
                self.next_packet_id = self.next_packet_id.next();
                self.staging[idx].push_back(spec);
            }
        }
        if !drain {
            return;
        }
        while let Some(short) = self.staged_shortfall(idx) {
            self.injection_work.probes += 1;
            if short > 0 {
                self.set_retry(idx, self.retry_for(idx, short));
                break;
            }
            let Some(spec) = self.staging[idx].pop_front() else {
                break;
            };
            let (class, output) = (spec.class(), spec.flow().output());
            let accepted = self.enqueue(Packet::new(spec, now));
            debug_assert!(accepted, "free_flits guaranteed space");
            self.counters.accepted_packets += 1;
            if class == TrafficClass::GuaranteedBandwidth {
                if let Some(engine) = self.outputs[output.index()].rate_mut() {
                    // The original algorithm stamps at arrival (§2.2).
                    engine.note_arrival(input.index(), now);
                }
            }
        }
        let bit = 1u64 << (idx % 64);
        if self.staging[idx].is_empty() {
            self.staged[idx / 64] &= !bit;
        } else {
            self.staged[idx / 64] |= bit;
        }
    }

    /// Enqueues `packet` at its input port, after applying the flits
    /// the port has sent so far. Only a packet landing in an empty queue
    /// becomes a head, so only then does it set a request bit; one
    /// joining a backlog changes none.
    fn enqueue(&mut self, packet: Packet) -> bool {
        let spec = packet.spec();
        let (i, class, output) = (
            spec.flow().input().index(),
            spec.class(),
            spec.flow().output(),
        );
        if self.busy_in & (1 << i) != 0 {
            self.settle(self.feeds[i]);
        }
        let Some(port) = self.ports.get_mut(i) else {
            return false;
        };
        let new_head = port.front(class, output).is_none();
        let accepted = port.try_enqueue(packet);
        if accepted && new_head {
            self.set_request(i, class, output.index(), true);
        }
        accepted
    }

    /// Sets (`on`) or clears input `i`'s bit in output `o`'s `class`
    /// request row, and `o`'s `req_out` bit with the row. Called where a
    /// queue head changes and nowhere else: an enqueue into an empty
    /// queue, and a pop (a flit leaving mid-packet keeps the head).
    pub(super) fn set_request(&mut self, i: usize, class: TrafficClass, o: usize, on: bool) {
        let Some(row) = self.outputs.get_mut(o).map(|out| &mut out.xreq) else {
            return;
        };
        let c = class.priority() as usize;
        // `i` and `o` are ports of the switch: below its radix ≤ 64.
        row[c] = row[c] & !(1 << i) | u64::from(on) << i;
        self.req_out = self.req_out & !(1 << o) | u64::from(*row != [0; 3]) << o;
    }
}
