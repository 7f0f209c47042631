//! The cycle-accurate QoS Swizzle Switch model, split along its seams:
//! this file holds the switch, its constructor and its read side;
//! `output.rs` the per-output record; `inject.rs` injection;
//! `kernel.rs` the cycle (prepare, the decide/commit loop, chaining);
//! `faults.rs` the fault surface; `decide.rs` the pure decide kernel
//! and `reference.rs` its scalar oracle.

use std::collections::VecDeque;
use std::fmt;

use ssq_arbiter::SsvcArbiter;
use ssq_circuit::{CircuitConfig, InhibitFabric};
use ssq_sim::Monitored;
use ssq_stats::{Histogram, MetricsMatrix};
use ssq_trace::Tracer;
use ssq_traffic::ArrivalSchedule;
use ssq_types::{Cycle, FlowId, InputId, OutputId, PacketId, PacketSpec, Rate, TrafficClass};

use crate::bitmask::PortSet;
use crate::config::{ConfigError, Policy, SwitchConfig};
use crate::port::InputPort;

mod decide;
mod faults;
mod inject;
mod kernel;
mod output;
mod reference;
#[cfg(test)]
mod tests;

pub use decide::OutputPlan;
pub use output::ChannelState;
use output::Output;
pub use reference::ReferenceKernel;

/// Narrows a port/flow index, or a count of ports, to the `u32` the
/// trace wire format carries. Both are bounded by the radix (≤ 64), so
/// the cast is lossless; every narrowing in the crate funnels through
/// here.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "indices and counts of ports are bounded by the radix (≤ 64)"
)]
fn wire(index: usize) -> u32 {
    debug_assert!(u32::try_from(index).is_ok(), "index {index} overflows u32");
    index as u32
}

/// The `retry_at` of a staged head that waits on a queue which is not
/// draining: no clock reaches it, and the queue's next grant or
/// chain re-times it.
const NEVER: u64 = u64::MAX;

/// The slot of clock `clock` on the 64-slot completion wheel.
#[inline]
fn slot(clock: u64) -> usize {
    (clock % 64) as usize
}

/// Aggregate event counters of one simulation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchCounters {
    /// Packets generated by injectors.
    pub offered_packets: u64,
    /// Packets accepted into an input buffer.
    pub accepted_packets: u64,
    /// Packets dropped because the staging queue overflowed.
    pub dropped_packets: u64,
    /// GB packets demoted to BE for lack of a reservation.
    pub demoted_packets: u64,
    /// Packets fully delivered.
    pub delivered_packets: u64,
    /// Flits fully delivered.
    pub delivered_flits: u64,
    /// Times the GL policer withheld GL priority.
    pub gl_policed_cycles: u64,
    /// Packets committed through packet chaining (no arbitration cycle).
    pub chained_packets: u64,
    /// Faults injected into this switch (healing does not count).
    pub fault_injections: u64,
    /// Arbitration rounds skipped to retry after detected corruption.
    pub fault_retries: u64,
    /// Guarantees revoked (demotion, eviction, or forfeited bound).
    pub guarantees_revoked: u64,
}

/// Exact counts of the injection phase's work over one measurement
/// window — what `ssq simulate --prof` prints beside the phase times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionWork {
    /// Source polls answered: arrivals taken off the schedule (on the
    /// reference kernel, one per injector per cycle).
    pub polls: u64,
    /// Staged heads probed for buffer room.
    pub probes: u64,
    /// 64-cycle arrival blocks drawn.
    pub refills: u64,
}

/// Stepped cycles in which nothing could arbitrate while outputs
/// transmitted, over one measurement window: what `ssq simulate --prof`
/// counts for sleeping through transmission (DESIGN.md §9, "Outputs
/// with work"). Counted by the profiled cycle only, so on `seq` and
/// `bitpar` alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransmitOnlyCycles {
    /// Cycles that began with some output transmitting, every requested
    /// output transmitting, nothing staged, every link up and the fault
    /// machinery disarmed: [`QosSwitch::is_quiescent`] failed on the
    /// busy outputs alone, or on requests that wait for them.
    pub transmit_only: u64,
    /// Of those, the cycles in which no packet finished and no arrival
    /// was due (with nothing staged, no retry can be): only the clocks
    /// moved.
    pub clock_only: u64,
}

/// The QoS-enabled single-stage switch (see the crate-level docs for the
/// model and an end-to-end example).
pub struct QosSwitch {
    config: SwitchConfig,
    /// The injectors, with their arrivals drawn a block ahead.
    injectors: ArrivalSchedule,
    /// Per injector, packets generated but not yet in an input buffer.
    staging: Vec<VecDeque<PacketSpec>>,
    /// Bit `j` of `staged[g]` ⇔ `staging[64 g + j]` is non-empty: with
    /// the schedule's due words, the injectors a cycle must visit.
    staged: Vec<u64>,
    /// Per injector, the clock at which its staged head is next probed.
    /// A head `n` flits short on a queue that drains at least `n` more
    /// flits is probed in the loop after which it fits; on any other
    /// queue it waits at [`NEVER`] until the queue's next grant or chain
    /// re-times it.
    retry_at: Vec<u64>,
    /// Bit `j` of `asleep[g]` ⇔ `retry_at[64 g + j]` is [`NEVER`]: the
    /// staged injectors a cycle need not even compare.
    asleep: Vec<u64>,
    /// Per input, its injectors: where a grant finds the staged heads
    /// that wait on the queue it starts to drain.
    injectors_of: Vec<Vec<usize>>,
    injection_work: InjectionWork,
    ports: Vec<InputPort>,
    /// Per output, its column's state and arbiters.
    outputs: Vec<Output>,
    /// The inhibit fabric every SSVC arbitration is held to, when
    /// fabric-checked.
    fabric: Option<InhibitFabric>,
    /// The word of inputs that cannot compete this cycle: the
    /// transmit-blocked set computed by [`Self::prepare_cycle`], grown by
    /// each grant the commit phase makes (bit `i` ⇔ input `i`).
    blocked: u64,
    /// The word of inputs whose link is up — all ones over the radix
    /// (`all_ports`) until the fault layer takes a link down. The only
    /// record of link state: a downed input neither admits packets nor
    /// competes, and its buffered packets stay put.
    live_links: u64,
    /// Bit `i` set for every port of the switch.
    all_ports: u64,
    /// Bit `o` ⇔ output `o` has a transmit interval. With `busy_in` it
    /// is written where an interval opens or closes and nowhere else:
    /// [`Self::start_packet`] and [`Self::finish_packet`].
    busy_out: u64,
    /// Bit `i` ⇔ input `i` feeds a transmitting channel — the word of
    /// inputs that cannot compete when a cycle starts.
    busy_in: u64,
    /// Bit `o` ⇔ output `o`'s `xreq` has a bit set in some class, kept by
    /// [`Self::set_request`] beside the row. `(req_out & !busy_out) |
    /// finishing` is the word of outputs a cycle has work at.
    req_out: u64,
    /// Per input, the output it feeds while its `busy_in` bit is set.
    feeds: Vec<usize>,
    /// Cycles begun, stepped or skipped: a cycle's output loop runs at
    /// its value, its prepare at the one before. The transmit intervals,
    /// the staged heads' retries and the GL policers run on it, and so
    /// does the real-time subcounter all SSVC arbiters share (they are
    /// built and ticked together): it wraps at clock `next_wrap`, and
    /// every `epoch_len` after.
    clock: u64,
    next_wrap: u64,
    /// One MSB step under `SubtractRealClock`; zero, with `next_wrap`
    /// [`NEVER`], when nothing decays on time.
    epoch_len: u64,
    /// The completion wheel: bit `o` of `finish[slot(t)]` ⇔ output `o`'s
    /// packet moves its last flit at a clock `≡ t (mod 64)`.
    finish: [u64; 64],
    /// Outputs visited by [`Self::run_cycle`] in the current window.
    outputs_visited: u64,
    transmit_only: TransmitOnlyCycles,
    next_packet_id: PacketId,
    counters: SwitchCounters,
    be_metrics: MetricsMatrix,
    gb_metrics: MetricsMatrix,
    gl_metrics: MetricsMatrix,
    delivery_log: Option<Vec<(Cycle, PacketSpec)>>,
    now_hint: Cycle,
    /// Event tracer; off (no sinks) by default, so emission sites cost
    /// one branch.
    tracer: Tracer,
    /// Eq. 1 GL waiting-time bound checked by the run watchdog
    /// ([`Monitored::violation`]); `None` disables the check.
    gl_wait_bound: Option<u64>,
    /// Whether a fault is injected and not healed: detection sites
    /// classify (and never panic) only while this is set. The
    /// degradations it leads to are per output.
    armed: bool,
    /// Cycle-phase profiler; disarmed by default, when it costs one
    /// branch per cycle.
    prof: ssq_prof::Profiler,
}

impl QosSwitch {
    /// Builds a switch from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration (including any
    /// reservations added after `build()`) fails validation.
    pub fn new(config: SwitchConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let radix = config.geometry().radix();
        let all_ports = if radix == 64 {
            u64::MAX
        } else {
            (1u64 << radix) - 1
        };
        let epoch_len = output::epoch_len(&config);
        let ports = (0..radix)
            .map(|i| {
                let port = InputPort::new(
                    InputId::new(i),
                    radix,
                    config.be_buffer_flits(),
                    config.gb_buffer_flits(),
                    config.gl_buffer_flits(),
                );
                if config.be_voq() {
                    port.with_be_voq(radix, config.be_buffer_flits())
                } else {
                    port
                }
            })
            .collect();

        Ok(QosSwitch {
            injectors: ArrivalSchedule::default(),
            staging: Vec::new(),
            staged: Vec::new(),
            retry_at: Vec::new(),
            asleep: Vec::new(),
            injectors_of: vec![Vec::new(); radix],
            injection_work: InjectionWork::default(),
            ports,
            outputs: (0..radix).map(|o| Output::new(&config, o)).collect(),
            fabric: config.fabric_checked().then(|| {
                InhibitFabric::new(CircuitConfig::new(radix, 1 << config.sig_bits(), true))
            }),
            blocked: 0,
            live_links: all_ports,
            all_ports,
            busy_out: 0,
            busy_in: 0,
            req_out: 0,
            feeds: vec![0; radix],
            clock: 0,
            next_wrap: if epoch_len == 0 { NEVER } else { epoch_len },
            epoch_len,
            finish: [0; 64],
            outputs_visited: 0,
            transmit_only: TransmitOnlyCycles::default(),
            next_packet_id: PacketId::new(0),
            counters: SwitchCounters::default(),
            be_metrics: MetricsMatrix::new(radix),
            gb_metrics: MetricsMatrix::new(radix),
            gl_metrics: MetricsMatrix::new(radix),
            delivery_log: None,
            now_hint: Cycle::ZERO,
            tracer: Tracer::new(),
            gl_wait_bound: None,
            armed: false,
            prof: ssq_prof::Profiler::kernel(),
            config,
        })
    }

    /// Renegotiates a GB reservation while the switch runs: validates the
    /// new rate against the output's budget and rewrites the crosspoint's
    /// `Vtick` register — one register write, effective from the next
    /// transmitted packet, exactly as the hardware would apply it. Only
    /// the SSVC policies support live renegotiation (the baselines derive
    /// static weights at construction).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Oversubscribed`] or
    /// [`ConfigError::ZeroRate`] when the new rate does not fit the
    /// output's budget; the previous reservation and `Vtick` are left
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if the switch's policy is not SSVC — the baselines derive
    /// static weights at construction and cannot be renegotiated live.
    pub fn update_gb_reservation(
        &mut self,
        input: InputId,
        output: OutputId,
        rate: Rate,
        packet_flits: u64,
    ) -> Result<(), ConfigError> {
        assert!(
            matches!(self.config.policy(), Policy::Ssvc(_)),
            "live renegotiation requires an SSVC policy"
        );
        self.config
            .reservations_mut()
            .reserve_gb(input, output, rate, packet_flits)?;
        let arb = self.config.policy().arbitration_cycles();
        let vtick = SsvcArbiter::slot_vtick(rate.value(), packet_flits + arb);
        if let Some(ssvc) = self.outputs[output.index()].ssvc_mut() {
            ssvc.set_vtick(input.index(), vtick);
        }
        Ok(())
    }

    /// Enables or disables the delivery log consumed by
    /// [`QosSwitch::drain_deliveries`]. Off by default (long simulations
    /// would otherwise accumulate every delivered packet).
    pub fn set_delivery_log(&mut self, enabled: bool) {
        self.delivery_log = if enabled { Some(Vec::new()) } else { None };
    }

    /// Takes the packets delivered since the last drain (with their
    /// delivery cycles), in delivery order. Empty unless
    /// [`QosSwitch::set_delivery_log`] enabled logging.
    pub fn drain_deliveries(&mut self) -> Vec<(Cycle, PacketSpec)> {
        self.delivery_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Swaps the delivery log with `spare` (handed in empty): the
    /// deliveries since the last drain come back in it and its
    /// allocation becomes the log's, so a caller draining every cycle
    /// allocates nothing. Does nothing unless
    /// [`QosSwitch::set_delivery_log`] enabled logging.
    pub fn swap_deliveries(&mut self, spare: &mut Vec<(Cycle, PacketSpec)>) {
        debug_assert!(spare.is_empty(), "the spare buffer would be logged");
        if let Some(log) = &mut self.delivery_log {
            std::mem::swap(log, spare);
        }
    }

    /// The configuration the switch was built with.
    #[must_use]
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The last cycle passed to
    /// [`CycleModel::step`](ssq_sim::CycleModel::step) — where a run got
    /// to when it ended (or aborted).
    #[must_use]
    pub fn now_hint(&self) -> Cycle {
        self.now_hint
    }

    /// The event tracer. With no sinks attached (the default) every
    /// emission site costs one branch and never builds an event.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access — attach sinks
    /// ([`Tracer::attach_jsonl`], [`Tracer::attach_ring`]) before the
    /// run, and [`Tracer::flush`] after it.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Arms (or disarms) the GL waiting-time watchdog: when any
    /// output's observed GL wait exceeds `bound` cycles, a monitored
    /// run ([`ssq_sim::Runner::run_monitored`]) trips and the flight
    /// recorder dumps. Pair with
    /// [`ssq_types::bounds::gl_latency_bound`] for Eq. 1.
    pub fn set_gl_wait_bound(&mut self, bound: Option<u64>) {
        self.gl_wait_bound = bound;
    }

    /// Arms the cycle-phase profiler: every cycle is routed through the
    /// instrumented step path and its prepare/decide/commit wall-clock
    /// is accumulated.
    /// [`CycleModel::begin_measurement`](ssq_sim::CycleModel::begin_measurement)
    /// zeroes the totals with the switch's other statistics, so arming
    /// before a run profiles its measured phase.
    pub fn prof_arm(&mut self) {
        self.prof.arm();
    }

    /// The profiler's accumulated totals (empty until armed).
    #[must_use]
    pub fn prof_report(&self) -> ssq_prof::ProfReport {
        self.prof.report()
    }

    /// Event counters for the current measurement window.
    #[must_use]
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// The injection phase's work counts for the current measurement
    /// window.
    #[must_use]
    pub fn injection_work(&self) -> InjectionWork {
        self.injection_work
    }

    /// Outputs the kernel visited (decided and committed) in the current
    /// measurement window: per cycle, those with a transmitting channel
    /// or a requester (on the reference kernel, all of them).
    #[must_use]
    pub fn outputs_visited(&self) -> u64 {
        self.outputs_visited
    }

    /// The profiled cycles of the current measurement window in which
    /// only transmission and the clocks could move.
    #[must_use]
    pub fn transmit_only_cycles(&self) -> TransmitOnlyCycles {
        self.transmit_only
    }

    /// Per-flow metrics of the BE class.
    #[must_use]
    pub fn be_metrics(&self) -> &MetricsMatrix {
        &self.be_metrics
    }

    /// Per-flow metrics of the GB class.
    #[must_use]
    pub fn gb_metrics(&self) -> &MetricsMatrix {
        &self.gb_metrics
    }

    /// Per-flow metrics of the GL class.
    #[must_use]
    pub fn gl_metrics(&self) -> &MetricsMatrix {
        &self.gl_metrics
    }

    /// One output channel's state as of the last step, with every flit
    /// its packet has moved counted (the kernel frees them from the
    /// queue lazily; this reads them off the transmit interval).
    #[must_use]
    pub fn channel(&self, output: OutputId) -> ChannelState {
        self.outputs[output.index()].channel(self.clock)
    }

    /// Unoccupied flit slots of the queue at `input` a `class` packet
    /// headed to `output` would join, as of the last step — the room an
    /// external agent checks before [`QosSwitch::offer_packet`].
    #[must_use]
    pub fn free_flits(&self, input: InputId, class: TrafficClass, output: OutputId) -> u64 {
        let i = input.index();
        let unapplied = self
            .draining(i, class, output)
            .map_or(0, |(pending, _)| pending);
        self.ports[i].free_flits(class, output) + unapplied
    }

    /// Flits buffered at `input` across all its queues, as of the last
    /// step.
    #[must_use]
    pub fn buffered_flits(&self, input: InputId) -> u64 {
        let i = input.index();
        let unapplied = if self.busy_in & (1 << i) == 0 {
            0
        } else {
            self.unapplied(self.feeds[i])
        };
        self.ports[i].total_occupancy() - unapplied
    }

    /// For `input`'s `class` queue toward `output`, when it feeds a
    /// transmitting channel: the flits that have left it but are not yet
    /// applied, and the flits its packet has still to move.
    fn draining(&self, i: usize, class: TrafficClass, output: OutputId) -> Option<(u64, u64)> {
        if self.busy_in & (1 << i) == 0 {
            return None;
        }
        let o = self.feeds[i];
        let tx = self.outputs[o].interval?;
        if tx.class != class || !self.ports[i].shares_queue(class, output, OutputId::new(o)) {
            return None;
        }
        Some((self.clock - tx.applied, tx.done_at - self.clock))
    }

    /// Flits transmitting output `o`'s packet has moved but not yet
    /// applied.
    fn unapplied(&self, o: usize) -> u64 {
        self.outputs[o]
            .interval
            .map_or(0, |tx| self.clock - tx.applied)
    }

    /// Histogram of GL waiting times (enqueue → grant) at `output`; its
    /// maximum is the measured counterpart of Eq. 1's `τ_GL`.
    #[must_use]
    pub fn gl_wait_histogram(&self, output: OutputId) -> &Histogram {
        &self.outputs[output.index()].gl_wait
    }

    /// Accepted throughput at `output` in flits/cycle over the current
    /// window (all classes).
    #[must_use]
    pub fn output_throughput(&self, output: OutputId, now: Cycle) -> f64 {
        InputId::all(self.config.geometry().radix())
            .map(|i| {
                let flow = FlowId::new(i, output);
                self.be_metrics.flow(flow).throughput(now)
                    + self.gb_metrics.flow(flow).throughput(now)
                    + self.gl_metrics.flow(flow).throughput(now)
            })
            .sum()
    }

    fn metrics_for_mut(&mut self, class: TrafficClass) -> &mut MetricsMatrix {
        match class {
            TrafficClass::BestEffort => &mut self.be_metrics,
            TrafficClass::GuaranteedBandwidth => &mut self.gb_metrics,
            TrafficClass::GuaranteedLatency => &mut self.gl_metrics,
        }
    }

    /// Whether any packet is staged or buffered. A non-empty queue has a
    /// head and a head sets a request bit, so `req_out` answers for
    /// every buffer at once
    /// ([`Self::debug_assert_masks_synced`] guards the equivalence).
    fn holds_packets(&self) -> bool {
        self.req_out != 0 || self.staged.iter().any(|&word| word != 0)
    }

    /// Whether a step would change nothing but the clocks: no channel
    /// transmitting, nothing buffered or staged, every link up and the
    /// fault machinery disarmed. A handful of word tests, so a caller
    /// may ask every cycle. What
    /// [`CycleModel::skip_idle`](ssq_sim::CycleModel::skip_idle) requires
    /// of the switch itself (it also asks the injectors for their next
    /// arrival).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.busy_out == 0
            && !self.holds_packets()
            && self.live_links == self.all_ports
            && !self.armed
    }

    /// Whether a step can arbitrate nothing while some output transmits:
    /// every requested output busy, nothing staged, every link up and
    /// the fault machinery disarmed ([`TransmitOnlyCycles`]).
    fn transmit_only(&self) -> bool {
        self.busy_out != 0
            && self.req_out & !self.busy_out == 0
            && self.staged.iter().all(|&word| word == 0)
            && self.live_links == self.all_ports
            && !self.armed
    }

    /// The cycle stamp of the next decay-epoch event, were the switch
    /// stepped every cycle from `from` on: the alarm of a caller that
    /// lets a quiescent switch sleep and owes its trace sinks the
    /// events dense stepping would have emitted. `None` when nothing is
    /// traced or no output runs a real-time decay clock.
    #[must_use]
    pub fn next_traced_decay(&self, from: Cycle) -> Option<Cycle> {
        if self.tracer.is_off() || self.epoch_len == 0 {
            return None;
        }
        // Every arbiter wraps with the shared phase; the first to decay
        // is the one with the fewest wraps still to swallow.
        let swallowed = self
            .outputs
            .iter()
            .filter_map(|out| out.ssvc().map(SsvcArbiter::skipped_epoch_count))
            .min()?;
        let ticks = self.next_wrap - self.clock + swallowed.saturating_mul(self.epoch_len);
        // The first tick happens at `from` itself.
        Some(Cycle::new(from.value().saturating_add(ticks - 1)))
    }

    /// Whether input `i`'s link is up.
    fn link_up(&self, i: usize) -> bool {
        PortSet::from_bits(self.live_links).contains(i)
    }

    /// Debug-only cross-check of the incrementally maintained words
    /// against a from-scratch recomputation: the transmit words against
    /// the intervals, and every request row against the queue heads —
    /// catches any queue-mutation site that forgot its
    /// [`Self::set_request`] call.
    #[cfg(debug_assertions)]
    fn debug_assert_masks_synced(&self) {
        let (mut busy_out, mut busy_in, mut req_out) = (0u64, 0u64, 0u64);
        for (o, out) in self.outputs.iter().enumerate() {
            if let Some(output::Interval {
                input,
                applied,
                done_at,
                ..
            }) = out.interval
            {
                busy_out |= 1 << o;
                busy_in |= 1 << input.index();
                assert!(
                    applied <= self.clock && self.clock < done_at,
                    "output {o}'s interval {applied}..{done_at} is not open at {}",
                    self.clock
                );
                assert_ne!(
                    self.finish[slot(done_at)] & 1 << o,
                    0,
                    "output {o} is off the wheel"
                );
                assert_eq!(
                    self.feeds[input.index()],
                    o,
                    "input {input} feeds another output"
                );
            }
            req_out |= u64::from(out.xreq != [0; 3]) << o;
        }
        let wheel = self.finish.iter().fold(0, |all, &word| {
            assert_eq!(all & word, 0, "an output sits on the wheel twice");
            all | word
        });
        assert_eq!(
            wheel, busy_out,
            "the completion wheel disagrees with the intervals"
        );
        assert_eq!(
            self.busy_out, busy_out,
            "busy_out disagrees with the intervals"
        );
        assert_eq!(
            self.busy_in, busy_in,
            "busy_in disagrees with the intervals"
        );
        assert_eq!(self.req_out, req_out, "req_out disagrees with xreq");
        for (o, out) in self.outputs.iter().enumerate() {
            for class in TrafficClass::ALL {
                let mut row = PortSet::EMPTY;
                for (i, port) in self.ports.iter().enumerate() {
                    if port.head(class, OutputId::new(o)).is_some() {
                        row.insert(i);
                    }
                }
                assert_eq!(
                    out.xreq[class.priority() as usize],
                    row.bits(),
                    "output {o}'s {class:?} request row disagrees with the queue heads"
                );
            }
        }
    }
}

impl Monitored for QosSwitch {
    /// Progress is the delivered-flit count, reported only while the
    /// switch holds undelivered work (staged, buffered, or in flight) —
    /// an idle switch never reads as stalled, while a wedged one with
    /// pending packets trips the watchdog.
    fn progress(&self) -> Option<u64> {
        let busy = self.busy_out != 0 || self.holds_packets();
        busy.then_some(self.counters.delivered_flits)
    }

    /// Trips when any output's observed GL waiting time exceeds the
    /// armed [`QosSwitch::set_gl_wait_bound`] (Eq. 1's `τ_GL`).
    fn violation(&self) -> Option<String> {
        let bound = self.gl_wait_bound?;
        for (o, out) in self.outputs.iter().enumerate() {
            if let Some(max) = out.gl_wait.max() {
                if max > bound {
                    return Some(format!(
                        "GL wait of {max} cycles at out{o} exceeds the Eq. 1 bound of {bound}"
                    ));
                }
            }
        }
        None
    }
}

impl fmt::Debug for QosSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QosSwitch")
            .field("geometry", &self.config.geometry())
            .field("policy", &self.config.policy())
            .field("injectors", &self.injectors.len())
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}
