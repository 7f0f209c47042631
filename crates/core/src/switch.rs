//! The cycle-accurate QoS Swizzle Switch model.

use std::collections::VecDeque;
use std::fmt;

use ssq_arbiter::{
    Arbiter, CounterPolicy, Dwrr, FourLevel, Gsf, Lrg, Request, SsvcArbiter, SsvcConfig,
    VirtualClock, Wfq, Wrr,
};
use ssq_sim::{CycleModel, EventModel, Monitored, ShardedModel};
use ssq_stats::{Histogram, MetricsMatrix};
use ssq_trace::{Event, EventKind, RejectReason, Tracer};
use ssq_traffic::{ArrivalSchedule, Injector, PacketIntent};
use ssq_types::{Cycle, FlowId, InputId, OutputId, PacketId, PacketSpec, Rate, TrafficClass};

use ssq_circuit::{ArbitrationOutcome, CircuitConfig, InhibitFabric, PortRequest};

use crate::bitmask::PortSet;
use crate::channel::{ChannelState, OutputChannel};
use crate::config::{ConfigError, Policy, SwitchConfig};
#[path = "decide.rs"]
pub(crate) mod decide;
use crate::faultctl::FaultControl;
use crate::packet::Packet;
use crate::port::InputPort;
use crate::reservations::{ReadmitAction, ReadmitDecision};
use crate::sanitize;
#[path = "reference.rs"]
mod reference;
pub use decide::OutputPlan;
use decide::PlanKind;
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

/// Per-injector staging queue bound: when an injector outruns its input
/// buffer by this many packets, further packets are dropped (and
/// counted), keeping saturated runs memory-bounded.
const STAGING_CAP_PACKETS: usize = 64;

/// Fallback reserved rate assumed for flows the arbiter must weigh but
/// that carry no reservation (only reachable for baseline policies).
const DEFAULT_RATE: f64 = 0.01;

/// The `retry_at` of a staged head that waits on a queue which is not
/// draining: no clock reaches it, and the queue's next grant or
/// chain re-times it.
const NEVER: u64 = u64::MAX;

/// The slot of clock `clock` on the 64-slot completion wheel.
#[inline]
fn slot(clock: u64) -> usize {
    (clock % 64) as usize
}

/// The transmit interval of the packet an output channel is committed
/// to, on the switch's clock: granted or chained in the output loop of
/// cycle `g`, an `L`-flit packet moves one flit in each of the loops of
/// cycles `g + 1 ..= g + L`. The kernel applies those flits to the
/// channel, the queue and the packet in one batch, only when something
/// reads them — at the latest in loop `done_at`, where it finishes the
/// packet.
#[derive(Debug, Clone, Copy, Default)]
struct Interval {
    /// The clock through which the packet's flits are applied.
    applied: u64,
    /// The clock of the loop that moves the last flit.
    done_at: u64,
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

/// Tracks GL-class bandwidth usage at one output: "the bandwidth usage of
/// the GL class is tracked by a counter similar to the auxVC counters of
/// the GB class and increments by a tick count proportional to the
/// reserved rate" (§3.4). While the counter runs more than `allowance`
/// cycles ahead of real time, GL loses its preemptive priority — the
/// safeguard against abuse of the highest-priority class.
///
/// The counter decays by one every cycle, flooring at zero. It is kept
/// as its value at the switch clock `stamp` and decayed when read, so a
/// cycle costs nothing: `level(t) = counter − (t − stamp)`, saturating,
/// is what `t − stamp` single decrements would have left.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GlPolicer {
    enabled: bool,
    rate: f64,
    counter: u64,
    stamp: u64,
    allowance: u64,
}

impl GlPolicer {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "quantization: a finite positive ratio, `as` saturates"
    )]
    fn new(enabled: bool, rate: Rate, gl_buffer_flits: u64) -> Self {
        let rate = if rate.is_zero() {
            DEFAULT_RATE
        } else {
            rate.value()
        };
        GlPolicer {
            enabled,
            rate,
            counter: 0,
            stamp: 0,
            // Allow roughly four buffer-fulls of burst before policing.
            allowance: (4.0 * (gl_buffer_flits + 1) as f64 / rate) as u64,
        }
    }

    /// The counter at switch clock `clock` (never before `stamp`).
    fn level(&self, clock: u64) -> u64 {
        self.counter.saturating_sub(clock - self.stamp)
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "quantization: a finite positive ratio, `as` saturates"
    )]
    fn charge(&mut self, len_flits: u64, clock: u64) {
        let cost = ((len_flits + 1) as f64 / self.rate).round() as u64;
        self.counter = self.level(clock).saturating_add(cost);
        self.stamp = clock;
    }

    fn policed(&self, clock: u64) -> bool {
        self.enabled && self.level(clock) > self.allowance
    }
}

/// The per-output GB arbitration engine selected by [`Policy`].
enum GbEngine {
    Ssvc(SsvcArbiter),
    Exact(VirtualClock),
    Gsf(Gsf),
    Wrr(Wrr),
    Dwrr(Dwrr),
    Wfq(Wfq),
    /// LrgOnly / FourLevel do class-insensitive arbitration elsewhere.
    Unused,
}

impl GbEngine {
    fn as_arbiter(&mut self) -> Option<&mut dyn Arbiter> {
        match self {
            GbEngine::Ssvc(a) => Some(a),
            GbEngine::Exact(a) => Some(a),
            GbEngine::Gsf(a) => Some(a),
            GbEngine::Wrr(a) => Some(a),
            GbEngine::Dwrr(a) => Some(a),
            GbEngine::Wfq(a) => Some(a),
            GbEngine::Unused => None,
        }
    }

    /// Shared view for the pure decide kernel ([`Arbiter::decide`]
    /// predicts without committing).
    fn as_arbiter_ref(&self) -> Option<&dyn Arbiter> {
        match self {
            GbEngine::Ssvc(a) => Some(a),
            GbEngine::Exact(a) => Some(a),
            GbEngine::Gsf(a) => Some(a),
            GbEngine::Wrr(a) => Some(a),
            GbEngine::Dwrr(a) => Some(a),
            GbEngine::Wfq(a) => Some(a),
            GbEngine::Unused => None,
        }
    }
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
    /// Per injector, the clock at which its staged head is next probed: probed `n` flits short on a queue that drains at least `n`
    /// more flits, the loop after which it fits; on any other queue
    /// [`NEVER`], until the queue's next grant or chain re-times it.
    retry_at: Vec<u64>,
    /// Bit `j` of `asleep[g]` ⇔ `retry_at[64 g + j]` is [`NEVER`]: the
    /// staged injectors a cycle need not even compare.
    asleep: Vec<u64>,
    /// Per input, its injectors: where a grant finds the staged heads
    /// that wait on the queue it starts to drain.
    injectors_of: Vec<Vec<usize>>,
    injection_work: InjectionWork,
    ports: Vec<InputPort>,
    channels: Vec<OutputChannel>,
    gb_engines: Vec<GbEngine>,
    gl_lrg: Vec<Lrg>,
    be_lrg: Vec<Lrg>,
    flat_lrg: Vec<Lrg>,
    four_level: Vec<FourLevel>,
    gl_policers: Vec<GlPolicer>,
    fabric: Option<InhibitFabric>,
    arb_wait: Vec<u64>,
    chain_count: Vec<u32>,
    /// The word of inputs that cannot compete this cycle: the
    /// transmit-blocked set computed by [`Self::prepare_cycle`], grown by
    /// each grant the commit phase makes (bit `i` ⇔ input `i`).
    blocked: u64,
    /// The word of inputs whose link is up — all ones over the radix
    /// (`all_ports`) until the fault layer takes a link down.
    live_links: u64,
    /// Bit `i` set for every port of the switch.
    all_ports: u64,
    /// Bit `o` ⇔ channel `o` is `Transmitting`. With `busy_in` it is
    /// written where a channel changes state and nowhere else:
    /// [`Self::start_packet`] and [`Self::finish_packet`].
    busy_out: u64,
    /// Bit `i` ⇔ input `i` feeds a transmitting channel — the word of
    /// inputs that cannot compete when a cycle starts.
    busy_in: u64,
    /// Bit `o` ⇔ `xreq[o]` has a bit set in some class, kept by
    /// [`Self::sync_port_masks`]. `(req_out & !busy_out) | finishing` is
    /// the word of outputs a cycle has work at.
    req_out: u64,
    /// Per output, the interval of the packet its channel transmits.
    intervals: Vec<Interval>,
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
    /// Transposed per-class request words, the decide kernel's input:
    /// `xreq[o][class.priority()]` has bit `i` set iff input `i` holds a
    /// head-of-queue packet of that class requesting output `o`.
    /// Maintained incrementally whenever a queue head changes (see
    /// [`Self::sync_port_masks`]) so the decide phase reads one row per
    /// output instead of probing `radix` queue heads.
    xreq: Vec<[u64; 3]>,
    /// Last-synced copy of each port's own request words
    /// ([`InputPort::request_bits`]), indexed `[input][class.priority()]`
    /// and XOR-diffed against the fresh words so `xreq` updates cost
    /// O(changed bits) per mutation.
    mask_shadow: Vec<[u64; 3]>,
    next_packet_id: PacketId,
    counters: SwitchCounters,
    be_metrics: MetricsMatrix,
    gb_metrics: MetricsMatrix,
    gl_metrics: MetricsMatrix,
    gl_wait: Vec<Histogram>,
    delivery_log: Option<Vec<(Cycle, PacketSpec)>>,
    now_hint: Cycle,
    /// Event tracer; off (no sinks) by default, so emission sites cost
    /// one branch.
    tracer: Tracer,
    /// Eq. 1 GL waiting-time bound checked by the run watchdog
    /// ([`Monitored::violation`]); `None` disables the check.
    gl_wait_bound: Option<u64>,
    /// Fault and degradation state; healthy and disarmed by default.
    faultctl: FaultControl,
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
        let arb = config.policy().arbitration_cycles();
        let all_ports = if radix == 64 {
            u64::MAX
        } else {
            (1u64 << radix) - 1
        };

        let gb_engines = (0..radix)
            .map(|o| Self::build_engine(&config, OutputId::new(o), arb))
            .collect();
        let epoch_len = match config.policy() {
            Policy::Ssvc(CounterPolicy::SubtractRealClock) => SsvcConfig::new(
                config.counter_bits(),
                config.sig_bits(),
                CounterPolicy::SubtractRealClock,
            )
            .msb_step(),
            _ => 0,
        };
        let gl_policers = (0..radix)
            .map(|o| {
                GlPolicer::new(
                    config.gl_policing(),
                    config.reservations().gl(OutputId::new(o)),
                    config.gl_buffer_flits(),
                )
            })
            .collect();
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
            channels: (0..radix)
                .map(|o| OutputChannel::new(OutputId::new(o)))
                .collect(),
            gb_engines,
            gl_lrg: (0..radix).map(|_| Lrg::new(radix)).collect(),
            be_lrg: (0..radix).map(|_| Lrg::new(radix)).collect(),
            flat_lrg: (0..radix).map(|_| Lrg::new(radix)).collect(),
            four_level: (0..radix).map(|_| FourLevel::new(radix)).collect(),
            fabric: if config.fabric_checked() && matches!(config.policy(), Policy::Ssvc(_)) {
                Some(InhibitFabric::new(CircuitConfig::new(
                    radix,
                    1 << config.sig_bits(),
                    true,
                )))
            } else {
                None
            },
            gl_policers,
            arb_wait: vec![0; radix],
            chain_count: vec![0; radix],
            blocked: 0,
            live_links: all_ports,
            all_ports,
            busy_out: 0,
            busy_in: 0,
            req_out: 0,
            intervals: vec![Interval::default(); radix],
            feeds: vec![0; radix],
            clock: 0,
            next_wrap: if epoch_len == 0 { NEVER } else { epoch_len },
            epoch_len,
            finish: [0; 64],
            outputs_visited: 0,
            xreq: vec![[0; 3]; radix],
            mask_shadow: vec![[0; 3]; radix],
            next_packet_id: PacketId::new(0),
            counters: SwitchCounters::default(),
            be_metrics: MetricsMatrix::new(radix),
            gb_metrics: MetricsMatrix::new(radix),
            gl_metrics: MetricsMatrix::new(radix),
            gl_wait: (0..radix).map(|_| Histogram::new(4, 1024)).collect(),
            delivery_log: None,
            now_hint: Cycle::ZERO,
            tracer: Tracer::new(),
            gl_wait_bound: None,
            faultctl: FaultControl::new(radix, config.fault_retry_budget()),
            prof: ssq_prof::Profiler::kernel(),
            config,
        })
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "quantization: a finite positive ratio, `as` saturates"
    )]
    fn build_engine(config: &SwitchConfig, output: OutputId, arb_cycles: u64) -> GbEngine {
        let radix = config.geometry().radix();
        let res = config.reservations();
        let rate_of = |i: usize| {
            res.gb(InputId::new(i), output)
                .map_or(DEFAULT_RATE, |r| r.rate().value())
        };
        let slot_of = |i: usize| {
            res.gb(InputId::new(i), output)
                .map_or(8 + arb_cycles, |r| r.packet_flits() + arb_cycles)
        };
        match config.policy() {
            Policy::Ssvc(counter_policy) => {
                let cfg = SsvcConfig::new(config.counter_bits(), config.sig_bits(), counter_policy);
                let vticks: Vec<u64> = (0..radix)
                    .map(|i| SsvcArbiter::slot_vtick(rate_of(i), slot_of(i)))
                    .collect();
                GbEngine::Ssvc(SsvcArbiter::new(cfg, &vticks))
            }
            Policy::ExactVirtualClock => {
                let vticks: Vec<f64> = (0..radix).map(|i| slot_of(i) as f64 / rate_of(i)).collect();
                GbEngine::Exact(VirtualClock::new(&vticks))
            }
            Policy::Gsf => {
                // One frame spans enough packet slots that every flow's
                // budget resolves to at least one packet; budgets are the
                // flit share of the frame's deliverable capacity.
                let frame_cycles = 128 * (8 + arb_cycles);
                let budgets: Vec<u64> = (0..radix)
                    .map(|i| {
                        let slot = slot_of(i) as f64;
                        let deliverable = frame_cycles as f64 * (slot - arb_cycles as f64) / slot;
                        ((rate_of(i) * deliverable).round() as u64).max(1)
                    })
                    .collect();
                GbEngine::Gsf(Gsf::new(&budgets, frame_cycles))
            }
            Policy::Wrr => {
                let weights: Vec<u64> = (0..radix)
                    .map(|i| ((rate_of(i) * 100.0).round() as u64).max(1))
                    .collect();
                GbEngine::Wrr(Wrr::new(&weights))
            }
            Policy::Dwrr => {
                let quanta: Vec<u64> = (0..radix)
                    .map(|i| ((rate_of(i) * 64.0).round() as u64).max(1))
                    .collect();
                GbEngine::Dwrr(Dwrr::new(&quanta))
            }
            Policy::Wfq => {
                let weights: Vec<f64> = (0..radix).map(|i| rate_of(i).max(1e-3)).collect();
                GbEngine::Wfq(Wfq::new(&weights))
            }
            Policy::LrgOnly | Policy::FourLevel => GbEngine::Unused,
        }
    }

    /// Attaches a traffic injector to its input port.
    pub fn add_injector(&mut self, injector: Injector) {
        assert!(
            injector.input().index() < self.config.geometry().radix(),
            "injector input out of range"
        );
        if self.injectors.len().is_multiple_of(64) {
            self.staged.push(0);
            self.asleep.push(0);
        }
        self.injectors_of[injector.input().index()].push(self.injectors.len());
        self.injectors.push(injector);
        self.staging.push(VecDeque::new());
        self.retry_at.push(0);
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
        if let GbEngine::Ssvc(ssvc) = &mut self.gb_engines[output.index()] {
            ssvc.set_vtick(input.index(), vtick);
        }
        Ok(())
    }

    /// Offers a packet directly to its input-port buffer, bypassing the
    /// injector/staging machinery — the hook that lets an external agent
    /// (another switch stage, a replayed trace with its own backpressure
    /// model) drive this switch. Returns `false` (and drops the packet)
    /// if the class buffer lacks space.
    ///
    /// For the exact-Virtual-Clock policy the packet is stamped on
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
                if let GbEngine::Exact(vc) = &mut self.gb_engines[output.index()] {
                    let _ = vc.on_arrival(input.index(), now);
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

    /// The last cycle passed to [`CycleModel::step`] — where a run got
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
    /// [`latency_bound`](crate::gl::latency_bound) for Eq. 1.
    pub fn set_gl_wait_bound(&mut self, bound: Option<u64>) {
        self.gl_wait_bound = bound;
    }

    /// Arms the cycle-phase profiler: roughly one cycle in
    /// `sample_every` (rounded up to a power of two; `0`/`1` mean every
    /// cycle) is routed through the instrumented step path and its
    /// prepare/decide/commit wall-clock is accumulated.
    /// [`CycleModel::begin_measurement`] zeroes the totals with the
    /// switch's other statistics, so arming before a run profiles its
    /// measured phase.
    pub fn prof_arm(&mut self, sample_every: u64) {
        self.prof.arm(sample_every);
    }

    /// Stops profiler sampling; accumulated totals are kept.
    pub fn prof_disarm(&mut self) {
        self.prof.disarm();
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

    /// One output channel's state and utilization as of the last step,
    /// with every flit its packet has moved counted (the kernel applies
    /// them lazily; this reads them through).
    #[must_use]
    pub fn channel(&self, output: OutputId) -> OutputChannel {
        let o = output.index();
        let mut channel = self.channels[o].clone();
        if self.busy_out & (1 << o) != 0 {
            let _ = channel.transmit_flits(self.unapplied(o));
        }
        channel
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
        let ChannelState::Transmitting {
            class: sending,
            remaining_flits,
            ..
        } = self.channels[o].state()
        else {
            return None;
        };
        if sending != class || !self.ports[i].shares_queue(class, output, OutputId::new(o)) {
            return None;
        }
        let pending = self.unapplied(o);
        Some((pending, remaining_flits - pending))
    }

    /// Flits transmitting output `o`'s packet has moved but not yet
    /// applied.
    fn unapplied(&self, o: usize) -> u64 {
        self.clock - self.intervals[o].applied
    }

    /// Histogram of GL waiting times (enqueue → grant) at `output`; its
    /// maximum is the measured counterpart of Eq. 1's `τ_GL`.
    #[must_use]
    pub fn gl_wait_histogram(&self, output: OutputId) -> &Histogram {
        &self.gl_wait[output.index()]
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

    /// Injection on the arrival schedule: visits, in ascending order, the
    /// injectors with a packet due this cycle or packets still staged.
    fn inject(&mut self, now: Cycle) {
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
    fn wake_waiters(&mut self, input: usize) {
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
    fn inject_one(&mut self, idx: usize, now: Cycle, intent: Option<PacketIntent>, drain: bool) {
        let input = self.injectors.input(idx);
        if !self.ports[input.index()].is_link_up() {
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
                if let GbEngine::Exact(vc) = &mut self.gb_engines[output.index()] {
                    // The original algorithm stamps at arrival (§2.2).
                    let _ = vc.on_arrival(input.index(), now);
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
    /// becomes a head, so only then are the request words re-synced; one
    /// joining a backlog changes no request bit.
    fn enqueue(&mut self, packet: Packet) -> bool {
        let spec = packet.spec();
        let (i, class, output) = (
            spec.flow().input().index(),
            spec.class(),
            spec.flow().output(),
        );
        if self.busy_in & (1 << i) != 0 {
            let done = self.settle(self.feeds[i]);
            debug_assert!(done.is_none(), "a packet completed outside its loop");
        }
        let Some(port) = self.ports.get_mut(i) else {
            return false;
        };
        let new_head = port.occupancy(class, output) == 0;
        let accepted = port.try_enqueue(packet);
        if accepted && new_head {
            self.sync_port_masks(i, class);
        }
        accepted
    }

    /// Reconciles the transposed request words with port `i`'s current
    /// `class` word after one of its queue heads changed (an enqueue
    /// into an empty queue, a packet pop — a flit leaving mid-packet
    /// keeps the head and needs no sync). XOR against the shadow copy
    /// makes the update O(set bits in the delta): a head pop or push
    /// changes at most a couple of output bits.
    fn sync_port_masks(&mut self, i: usize, class: TrafficClass) {
        let c = class.priority() as usize;
        let (Some(port), Some(shadow)) = (
            self.ports.get(i),
            self.mask_shadow.get_mut(i).and_then(|s| s.get_mut(c)),
        ) else {
            return;
        };
        let fresh = port.request_bits(class);
        let delta = fresh ^ *shadow;
        *shadow = fresh;
        // `i` indexed `ports`, whose length is the radix ≤ 64.
        let mut bit = PortSet::EMPTY;
        bit.insert(i);
        for o in PortSet::from_bits(delta) {
            if let Some(row) = self.xreq.get_mut(o) {
                row[c] ^= bit.bits();
                // `o` indexed `xreq`, whose length is the radix ≤ 64.
                self.req_out = self.req_out & !(1 << o) | u64::from(*row != [0; 3]) << o;
            }
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
    /// may ask every cycle. What [`EventModel::skip_idle`] requires of
    /// the switch itself (it also asks the injectors for their next
    /// arrival).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.busy_out == 0
            && !self.holds_packets()
            && self.live_links == self.all_ports
            && !self.faultctl.armed()
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
            .gb_engines
            .iter()
            .filter_map(|engine| match engine {
                GbEngine::Ssvc(ssvc) => Some(ssvc.skipped_epoch_count()),
                _ => None,
            })
            .min()?;
        let ticks = self.next_wrap - self.clock + swallowed.saturating_mul(self.epoch_len);
        // The first tick happens at `from` itself.
        Some(Cycle::new(from.value().saturating_add(ticks - 1)))
    }

    /// Debug-only cross-check that the incrementally maintained words
    /// (request words and their shadow, live links) agree with a
    /// from-scratch recomputation — catches any queue-mutation site that
    /// forgot its [`Self::sync_port_masks`] call.
    #[cfg(debug_assertions)]
    fn debug_assert_masks_synced(&self) {
        let (mut busy_out, mut busy_in, mut req_out) = (0u64, 0u64, 0u64);
        for (o, (channel, row)) in self.channels.iter().zip(&self.xreq).enumerate() {
            if let ChannelState::Transmitting {
                input,
                remaining_flits,
                ..
            } = channel.state()
            {
                busy_out |= 1 << o;
                busy_in |= 1 << input.index();
                let Interval { applied, done_at } = self.intervals[o];
                assert_eq!(
                    done_at,
                    applied + remaining_flits,
                    "output {o}'s interval disagrees with its channel"
                );
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
            req_out |= u64::from(*row != [0; 3]) << o;
        }
        let wheel = self.finish.iter().fold(0, |all, &word| {
            assert_eq!(all & word, 0, "an output sits on the wheel twice");
            all | word
        });
        assert_eq!(
            wheel, busy_out,
            "the completion wheel disagrees with the channels"
        );
        assert_eq!(
            self.busy_out, busy_out,
            "busy_out disagrees with the channels"
        );
        assert_eq!(self.busy_in, busy_in, "busy_in disagrees with the channels");
        assert_eq!(self.req_out, req_out, "req_out disagrees with xreq");
        let live = PortSet::from_bits(self.live_links);
        for (i, port) in self.ports.iter().enumerate() {
            assert_eq!(
                live.contains(i),
                port.is_link_up(),
                "live-links bit {i} disagrees with the port"
            );
            for class in TrafficClass::ALL {
                let c = class.priority() as usize;
                let fresh = PortSet::from_bits(port.request_bits(class));
                assert_eq!(
                    self.mask_shadow[i][c],
                    fresh.bits(),
                    "stale {class:?} shadow word for input {i}: a queue \
                     mutation site is missing sync_port_masks"
                );
                for (o, row) in self.xreq.iter().enumerate() {
                    assert_eq!(
                        PortSet::from_bits(row[c]).contains(i),
                        fresh.contains(o),
                        "xreq[{o}][{c}] bit {i} disagrees with the queue head"
                    );
                }
            }
        }
    }

    /// Phase 1 of a cycle, shared verbatim by every engine: per-cycle
    /// clocks, injection, and the transmit-blocked input word for this
    /// cycle (left in `blocked` for the decide phase); then the clock
    /// advances to the cycle's output loop.
    fn prepare_cycle(&mut self, now: Cycle) {
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
    fn tick_clocks(&mut self, now: Cycle, k: u64) {
        self.now_hint = Cycle::new(now.value() + k - 1);
        // Cycle `now + j` runs at clock `clock + j + 1`.
        while self.next_wrap <= self.clock + k {
            self.wrap_epochs(now.value() + (self.next_wrap - self.clock - 1));
            self.next_wrap += self.epoch_len;
        }
        if !matches!(self.config.policy(), Policy::Ssvc(_)) {
            for engine in &mut self.gb_engines {
                if let Some(a) = engine.as_arbiter() {
                    for _ in 0..k {
                        a.tick();
                    }
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
        for (o, engine) in self.gb_engines.iter_mut().enumerate() {
            if let GbEngine::Ssvc(ssvc) = engine {
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
        let Some(wait) = self.arb_wait.get_mut(o) else {
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
    /// packet's flits are applied, the delivery recorded, and the queue's
    /// next packet may chain. A visit mid-packet (the sharded engine
    /// visits every output) leaves the flits to whoever reads them.
    fn commit_transmit(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if self
            .intervals
            .get(o)
            .is_none_or(|iv| iv.done_at != self.clock)
        {
            return;
        }
        match self.settle(o) {
            Some((input, class, pkt)) => self.finish_packet(output, input, class, pkt, now),
            None => debug_assert!(false, "output {o}'s last loop left its packet unfinished"),
        }
    }

    /// Applies the flits output `o`'s packet has moved by the current
    /// clock to its channel, its queue and the packet itself; returns
    /// the packet with its `(input, class)` if that was its last one.
    fn settle(&mut self, o: usize) -> Option<(InputId, TrafficClass, Packet)> {
        let interval = self.intervals.get_mut(o)?;
        let n = self.clock - interval.applied;
        interval.applied = self.clock;
        let (input, class, done) = self.channels.get_mut(o)?.transmit_flits(n)?;
        let completed = self
            .ports
            .get_mut(input.index())
            .and_then(|port| port.transmit_head_flits(class, OutputId::new(o), n));
        debug_assert_eq!(completed.is_some(), done, "port/channel desync");
        completed.map(|pkt| (input, class, pkt))
    }

    /// Settles every transmitting channel.
    fn settle_all(&mut self) {
        for o in PortSet::from_bits(self.busy_out) {
            let done = self.settle(o);
            debug_assert!(done.is_none(), "a packet completed outside its loop");
        }
    }

    /// The last flit of `pkt` left `output`: the channel goes idle,
    /// the delivery is recorded, and the queue's next packet may chain.
    fn finish_packet(
        &mut self,
        output: OutputId,
        input: InputId,
        class: TrafficClass,
        pkt: Packet,
        now: Cycle,
    ) {
        let o = output.index();
        // The channel went idle (a chained packet re-commits it below).
        self.busy_out &= !(1 << o);
        self.busy_in &= !(1 << input.index());
        if let Some(interval) = self.intervals.get(o) {
            self.finish[slot(interval.done_at)] &= !(1 << o);
        }
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
            if let Some(chained) = self.chain_count.get_mut(o) {
                *chained = 0;
            }
        }
    }

    /// Commits `output`'s channel to `input`'s `class` head of `len`
    /// flits, granted or chained in the current loop (`arb_cycles` is
    /// what the grant cost): the channel, the busy words, the packet's
    /// interval with its last loop on the completion wheel, and the wake
    /// of staged heads waiting on the queue it starts to drain.
    fn start_packet(
        &mut self,
        output: OutputId,
        input: InputId,
        class: TrafficClass,
        len: u64,
        arb_cycles: u64,
    ) {
        let (o, i) = (output.index(), input.index());
        let (Some(channel), Some(interval), Some(feeds)) = (
            self.channels.get_mut(o),
            self.intervals.get_mut(o),
            self.feeds.get_mut(i),
        ) else {
            return;
        };
        channel.commit(input, class, len, arb_cycles);
        let done_at = self.clock + len;
        *interval = Interval {
            applied: self.clock,
            done_at,
        };
        *feeds = o;
        self.finish[slot(done_at)] |= 1 << o;
        self.busy_out |= 1 << o;
        self.busy_in |= 1 << i;
        self.wake_waiters(i);
    }

    /// Grants `output` to `input`'s `class` head: commits the channel and
    /// emits the grant. `already_granted` is whether the input was
    /// blocked when the grant was made (the V1 sanitizer's input).
    fn commit_grant(
        &mut self,
        output: OutputId,
        now: Cycle,
        input: usize,
        class: TrafficClass,
        already_granted: bool,
    ) {
        let o = output.index();
        let head = self.ports.get(input).and_then(|p| p.head(class, output));
        let (Some(head), Some(gl_wait)) = (head, self.gl_wait.get_mut(o)) else {
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
        let arb_latency = self.config.policy().arbitration_cycles();
        self.start_packet(output, InputId::new(input), class, len, arb_latency);
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
            // Flat and degraded rounds arbitrate by pure LRG. In fallback
            // mode SSVC state is neither consulted nor advanced, and the
            // fabric cross-check is off (the circuit no longer models
            // the grant).
            PlanKind::FlatLrg | PlanKind::GbFallback => self.flat_lrg.get_mut(o)?.grant(w),
            PlanKind::Be => self.be_lrg.get_mut(o)?.grant(w),
            PlanKind::FourLevel => {
                let reqs = self.four_level_requests(output, plan);
                let committed = self.four_level.get_mut(o)?.arbitrate(now, reqs.as_slice());
                debug_assert_eq!(committed, Some(w), "decide/commit divergence at {output}");
            }
            PlanKind::GlPreempt | PlanKind::GlBelowGb => {
                let circuit = if plan.kind == PlanKind::GlPreempt {
                    self.fabric_decision(o, plan.gl, 0)
                } else {
                    None
                };
                self.gl_lrg.get_mut(o)?.grant(w);
                if let Some(outcome) = circuit {
                    self.check_fabric(output, now, class, w, &outcome).ok()?;
                }
                let len = self
                    .ports
                    .get(w)?
                    .head(TrafficClass::GuaranteedLatency, output)?
                    .spec()
                    .len_flits();
                self.gl_policers.get_mut(o)?.charge(len, self.clock);
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
        let snapshot = match self.gb_engines.get(o) {
            Some(GbEngine::Ssvc(ssvc)) if !self.tracer.is_off() => {
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
        let w = if let Some(GbEngine::Ssvc(ssvc)) = self.gb_engines.get_mut(o) {
            ssvc.commit_win(predicted);
            predicted
        } else {
            let reqs = self.gb_round_requests(output, plan);
            let engine = self.gb_engines.get_mut(o)?.as_arbiter()?;
            let committed = engine.arbitrate(now, reqs.as_slice())?;
            debug_assert_eq!(committed, predicted, "decide/commit divergence at {output}");
            committed
        };
        if let Some(outcome) = circuit {
            self.check_fabric(output, now, TrafficClass::GuaranteedBandwidth, w, &outcome)
                .ok()?;
        }
        if let Some(GbEngine::Ssvc(ssvc)) = self.gb_engines.get(o) {
            // With a fault armed, the V2/V3 sanitizer predicates run
            // unconditionally and *classify* (Detected → retry →
            // degrade) instead of panicking. Every contender is scanned,
            // not just the winner: an upward-corrupted auxVC makes its
            // flow silently *lose* every round, which is just as much a
            // broken guarantee as a corrupt win.
            if self.faultctl.armed() {
                let cap = ssvc.config().saturation_cap();
                let offender = in_order().find_map(|i| {
                    let (code, aux) = (ssvc.thermometer_code(i), ssvc.aux_vc(i));
                    if !ssq_types::invariant::thermometer_well_formed(code) {
                        Some((i, "SSQV002", code))
                    } else if !ssq_types::invariant::aux_within_cap(aux, cap) {
                        Some((i, "SSQV003", aux))
                    } else {
                        None
                    }
                });
                if let Some((i, code, detail)) = offender {
                    return self.detected_degrade(
                        output,
                        now,
                        TrafficClass::GuaranteedBandwidth,
                        i,
                        code,
                        detail,
                    );
                }
            }
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

    /// Holds a committed `class` winner to the inhibit fabric's own
    /// decision on the same requests. With a fault armed a divergence is
    /// *classified* (Detected → retry → degrade) and `Err` says the
    /// round grants nothing; otherwise a divergence is a model bug.
    fn check_fabric(
        &mut self,
        output: OutputId,
        now: Cycle,
        class: TrafficClass,
        winner: usize,
        outcome: &ArbitrationOutcome,
    ) -> Result<(), ()> {
        let expected = outcome.winner();
        if self.faultctl.armed() && (expected != Some(winner) || outcome.is_multi_grant()) {
            let granted = self.classify_fabric_corruption(
                output,
                now,
                class,
                winner,
                expected,
                outcome.is_multi_grant(),
            );
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
        let Some(GbEngine::Ssvc(ssvc)) = self.gb_engines.get(o) else {
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
        Some(fabric.arbitrate(ports, ssvc.lrg(), self.gl_lrg.get(o)?))
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
        if self.chain_count[o] >= SwitchConfig::CHAIN_LIMIT {
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
        let higher_waiting = self.xreq[o][class.priority() as usize + 1..]
            .iter()
            .any(|&word| word != 0);
        if higher_waiting {
            return false;
        }
        if class == TrafficClass::GuaranteedLatency {
            self.gl_wait[o].record(wait.value());
            self.gl_policers[o].charge(len, self.clock);
        }
        if class == TrafficClass::GuaranteedBandwidth {
            // Chained packets still consume the flow's virtual time /
            // credits / stamps, so reservations keep meaning something
            // across chains. A single-candidate arbitration performs
            // exactly the winner-side bookkeeping of each engine.
            if let Some(engine) = self.gb_engines[o].as_arbiter() {
                let committed = engine.arbitrate(now, &[Request::new(input.index(), len)]);
                debug_assert_eq!(committed, Some(input.index()));
            }
        }
        sanitize::chained_grant(o, self.chain_count[o], SwitchConfig::CHAIN_LIMIT);
        self.start_packet(output, input, class, len, 0);
        self.chain_count[o] += 1;
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

    /// The fault/degradation controller.
    pub fn fault_control(&self) -> &FaultControl {
        &self.faultctl
    }
}

/// Fault injection, detection handling, and recovery (DESIGN.md §8).
///
/// Every state change here pairs with a trace event — the
/// `no-silent-degrade` lint holds these paths to that contract — so a
/// chaos campaign can reconstruct the full injection → detection →
/// degradation → re-admission story from the JSONL trace alone.
impl QosSwitch {
    /// Emits a [`EventKind::Fault`] and arms detection on injection.
    fn emit_fault(&mut self, now: Cycle, site: &str, output: usize, input: usize, healed: bool) {
        if !healed {
            self.counters.fault_injections += 1;
            self.faultctl.arm();
        }
        let site = site.to_string();
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
    fn emit_degraded(&mut self, now: Cycle, o: usize, mode: &str) {
        let mode = mode.to_string();
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Degraded {
                output: wire(o),
                mode,
            },
        });
    }

    /// Flips `input`'s link state at the port and in the live-links word
    /// the decide kernel masks requests with.
    fn set_link(&mut self, input: usize, up: bool) {
        self.ports[input].fault_set_link(up);
        // `input` just indexed `ports`, whose length is the radix ≤ 64.
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
        let links_ok = self.ports.iter().all(InputPort::is_link_up);
        if fabric_ok && links_ok {
            self.faultctl.disarm();
        }
    }

    /// A detector tripped on a corrupted grant: emit [`EventKind::Detected`],
    /// then walk the degradation ladder — consume a transient retry
    /// (skip this grant, re-arbitrate next cycle) while the budget
    /// lasts, else degrade the class's mechanism and revoke its
    /// guarantee. Always grants nothing this cycle.
    fn detected_degrade(
        &mut self,
        output: OutputId,
        now: Cycle,
        class: TrafficClass,
        winner: usize,
        code: &str,
        detail: u64,
    ) -> Option<(usize, TrafficClass)> {
        let o = output.index();
        let code = code.to_string();
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::Detected {
                output: wire(o),
                code,
                detail,
            },
        });
        if self.faultctl.try_retry(o, now.value()) {
            self.counters.fault_retries += 1;
            self.emit_degraded(now, o, "retry");
            return None;
        }
        match class {
            TrafficClass::GuaranteedLatency => {
                self.faultctl.set_gl_demoted(o, true);
                self.emit_degraded(now, o, "gl_demoted");
                // The watchdog contract is replaced by the revocation
                // event; a tripped monitor after this would be noise.
                let bound = self.gl_wait_bound.take().unwrap_or(0);
                self.counters.guarantees_revoked += 1;
                self.tracer.emit(|| Event {
                    cycle: now.value(),
                    kind: EventKind::GuaranteeRevoked {
                        output: wire(o),
                        input: wire(winner),
                        class: TrafficClass::GuaranteedLatency,
                        bound,
                        forfeited: true,
                    },
                });
            }
            _ => {
                self.faultctl.set_lrg_fallback(o, true);
                self.emit_degraded(now, o, "lrg_fallback");
                self.counters.guarantees_revoked += 1;
                self.tracer.emit(|| Event {
                    cycle: now.value(),
                    kind: EventKind::GuaranteeRevoked {
                        output: wire(o),
                        input: wire(winner),
                        class: TrafficClass::GuaranteedBandwidth,
                        bound: 0,
                        forfeited: true,
                    },
                });
            }
        }
        None
    }

    /// Maps a fabric/behavioural divergence to its invariant code and
    /// hands it to the degradation ladder: a multi-grant is V1
    /// (SSQV001, `detail` = the fabric's first extra winner), a winner
    /// mismatch is V6 (SSQV006, `detail` = the fabric's winner or
    /// `u64::MAX` when the fabric granted nobody).
    fn classify_fabric_corruption(
        &mut self,
        output: OutputId,
        now: Cycle,
        class: TrafficClass,
        behavioural: usize,
        expected: Option<usize>,
        multi: bool,
    ) -> Option<(usize, TrafficClass)> {
        let (code, detail) = if multi {
            ("SSQV001", expected.map_or(u64::MAX, |w| w as u64))
        } else {
            ("SSQV006", expected.map_or(u64::MAX, |w| w as u64))
        };
        self.detected_degrade(output, now, class, behavioural, code, detail)
    }

    /// Takes `input`'s link down (`up == false`) or brings it back up.
    ///
    /// Down means the port neither admits new packets (injection
    /// rejects with [`RejectReason::LinkDown`]) nor competes in
    /// arbitration; buffered packets are retained and resume when the
    /// link heals.
    pub fn fault_set_link(&mut self, input: InputId, up: bool, now: Cycle) {
        self.set_link(input.index(), up);
        self.emit_fault(now, "link", 0, input.index(), up);
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
        self.emit_fault(now, "bitline_stuck", 0, input, false);
    }

    /// Heals the stuck fabric wire at `(lane, input)`.
    pub fn fault_heal_wire(&mut self, lane: usize, input: usize, now: Cycle) {
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.heal_wire(lane, input);
        }
        self.emit_fault(now, "bitline_stuck", 0, input, true);
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
        let GbEngine::Ssvc(ssvc) = &mut self.gb_engines[o] else {
            panic!("auxVC fault injection requires the SSVC policy")
        };
        let raw = ssvc.fault_flip_aux_bit(input.index(), bit);
        self.emit_fault(now, "aux_bit_flip", o, input.index(), false);
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
        let GbEngine::Ssvc(ssvc) = &mut self.gb_engines[o] else {
            panic!("epoch-skip fault injection requires the SSVC policy")
        };
        ssvc.fault_skip_epochs(epochs);
        self.emit_fault(now, "epoch_skip", o, 0, false);
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
                self.emit_fault(now, "bitline_stuck", 0, 0, true);
            }
        }
        for i in 0..self.ports.len() {
            if !self.ports[i].is_link_up() {
                self.set_link(i, true);
                self.emit_fault(now, "link", 0, i, true);
            }
        }
        self.faultctl.disarm();
        for o in 0..self.config.geometry().radix() {
            self.faultctl.reset_retries(o);
        }
    }

    /// Forces `output`'s GB arbitration from SSVC down to the pure-LRG
    /// fallback, revoking the rate guarantee of every reserved GB flow
    /// there (one [`EventKind::GuaranteeRevoked`] each).
    pub fn fault_degrade_to_lrg(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if self.faultctl.lrg_fallback(o) {
            return;
        }
        self.faultctl.set_lrg_fallback(o, true);
        self.emit_degraded(now, o, "lrg_fallback");
        let flows: Vec<usize> = self
            .config
            .reservations()
            .iter_gb()
            .filter(|(_, out, _)| out.index() == o)
            .map(|(i, _, _)| i.index())
            .collect();
        for i in flows {
            self.counters.guarantees_revoked += 1;
            self.tracer.emit(|| Event {
                cycle: now.value(),
                kind: EventKind::GuaranteeRevoked {
                    output: wire(o),
                    input: wire(i),
                    class: TrafficClass::GuaranteedBandwidth,
                    bound: 0,
                    forfeited: true,
                },
            });
        }
    }

    /// Restores full SSVC arbitration at `output` (after the fabric
    /// healed) and refills its retry budget.
    pub fn fault_restore_ssvc(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if !self.faultctl.lrg_fallback(o) {
            return;
        }
        self.faultctl.set_lrg_fallback(o, false);
        self.faultctl.reset_retries(o);
        self.emit_degraded(now, o, "ssvc_restored");
    }

    /// Demotes `output`'s GL class: packets keep flowing but no longer
    /// preempt GB, and the Eq. 1 bound is forfeited (the watchdog is
    /// disarmed — the revocation event replaces its contract).
    pub fn fault_demote_gl(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if self.faultctl.gl_demoted(o) {
            return;
        }
        self.faultctl.set_gl_demoted(o, true);
        self.emit_degraded(now, o, "gl_demoted");
        let bound = self.gl_wait_bound.take().unwrap_or(0);
        self.counters.guarantees_revoked += 1;
        self.tracer.emit(|| Event {
            cycle: now.value(),
            kind: EventKind::GuaranteeRevoked {
                output: wire(o),
                input: wire(0),
                class: TrafficClass::GuaranteedLatency,
                bound,
                forfeited: true,
            },
        });
    }

    /// Restores GL preemption at `output`. The Eq. 1 watchdog stays
    /// off until the caller re-arms it with
    /// [`QosSwitch::set_gl_wait_bound`] — recomputing the bound is an
    /// admission decision, not a switch-level side effect.
    pub fn fault_restore_gl(&mut self, output: OutputId, now: Cycle) {
        let o = output.index();
        if !self.faultctl.gl_demoted(o) {
            return;
        }
        self.faultctl.set_gl_demoted(o, false);
        self.emit_degraded(now, o, "gl_restored");
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
            let action = d.action.label().to_string();
            let (o, i, class) = (d.output.index(), d.input.index(), d.class);
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
                self.counters.guarantees_revoked += 1;
                self.tracer.emit(|| Event {
                    cycle: now.value(),
                    kind: EventKind::GuaranteeRevoked {
                        output: wire(o),
                        input: wire(i),
                        class,
                        bound: 0,
                        forfeited: true,
                    },
                });
            }
        }
        decisions
    }
}

impl QosSwitch {
    /// One cycle on the decide/commit kernel: prepare (clocks,
    /// injection, the transmit-blocked word), then, for each output with
    /// work, a pure [`QosSwitch::decide_output`] against the live
    /// blocked word followed immediately by its serial commit. An output
    /// has work when it is idle and some input requests it, or when its
    /// packet moves its last flit in this loop
    /// (`(req_out & !busy_out) | finishing`). The others are skipped: an
    /// idle, unrequested output's decide is `NoRequests` and its commit
    /// would write `arb_wait[o] = 0` over a value that is already 0, and
    /// a mid-packet output's flit is applied, with the ones before and
    /// after it, when something reads its channel or queue (DESIGN.md
    /// §9 "Outputs with work"). The work word is re-read after each
    /// output: a BE head finishing at one output can expose a head for a
    /// later one in the same cycle.
    ///
    /// On a cycle the profiler elected to sample (`profiled`), a
    /// [`Stopwatch`](ssq_prof::Stopwatch) lap feeds the profiler around
    /// each phase. Inlined into its two call sites with `profiled` a
    /// constant, so the timer reads never touch the unsampled copy.
    #[inline(always)]
    fn run_cycle(&mut self, now: Cycle, profiled: bool) {
        let mut watch = profiled.then(ssq_prof::Stopwatch::start);
        let mut lap = move || watch.as_mut().map_or(0, ssq_prof::Stopwatch::lap_ns);
        self.prepare_cycle(now);
        if profiled {
            self.prof.record_phase(ssq_prof::PHASE_PREPARE, lap());
        }
        let mut blocked = self.blocked;
        // A packet longer than 64 flits comes round early, a visit whose
        // `Transmit` commit returns at once; a grant in this loop cannot
        // finish in it.
        let finishing = self.finish[slot(self.clock)];
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
            if self.channels[o].is_idle() {
                assert_eq!(self.xreq[o], [0; 3], "skipped a requested output {o}");
            } else {
                assert_ne!(
                    self.intervals[o].done_at, self.clock,
                    "skipped output {o} in its packet's last loop"
                );
            }
            assert_eq!(self.arb_wait[o], 0, "skipped output {o} mid-arbitration");
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
        // Profiler gate: disarmed, one predictable branch; armed, one
        // counter add plus a mask test per cycle.
        if self.prof.begin_cycle() {
            self.run_cycle(now, true);
        } else {
            self.run_cycle(now, false);
        }
    }

    fn begin_measurement(&mut self, now: Cycle) {
        // Flits moved before the boundary belong to the warm-up.
        self.settle_all();
        self.counters = SwitchCounters::default();
        self.injection_work = InjectionWork::default();
        self.outputs_visited = 0;
        self.be_metrics.start_window(now);
        self.gb_metrics.start_window(now);
        self.gl_metrics.start_window(now);
        for ch in &mut self.channels {
            ch.reset_counters();
        }
        for h in &mut self.gl_wait {
            *h = Histogram::new(4, 1024);
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
        debug_assert!(self.arb_wait.iter().all(|&w| w == 0));
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
        for (o, hist) in self.gl_wait.iter().enumerate() {
            if let Some(max) = hist.max() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_sim::{Runner, Schedule};
    use ssq_traffic::{Bernoulli, FixedDest, Periodic, Saturating, Trace};
    use ssq_types::{Cycles, Geometry};

    fn geometry() -> Geometry {
        Geometry::new(8, 128).unwrap()
    }

    fn out0() -> OutputId {
        OutputId::new(0)
    }

    fn saturating_gb_switch(policy: Policy, rates: &[f64]) -> QosSwitch {
        let mut config = SwitchConfig::builder(geometry())
            .policy(policy)
            .gb_buffer_flits(16)
            .sig_bits(4)
            .build()
            .unwrap();
        for (i, &r) in rates.iter().enumerate() {
            config
                .reservations_mut()
                .reserve_gb(InputId::new(i), out0(), Rate::new(r).unwrap(), 8)
                .unwrap();
        }
        let mut switch = QosSwitch::new(config).unwrap();
        for i in 0..rates.len() {
            switch.add_injector(
                Injector::new(
                    Box::new(Saturating::new(8)),
                    Box::new(FixedDest::new(out0())),
                    TrafficClass::GuaranteedBandwidth,
                )
                .for_input(InputId::new(i)),
            );
        }
        switch
    }

    const FIG4_RATES: [f64; 8] = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];

    #[test]
    fn ssvc_enforces_reserved_rates_under_saturation() {
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &FIG4_RATES,
        );
        let end =
            Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(50_000))).run(&mut switch);
        // Peak deliverable bandwidth is 8/9; each flow should receive its
        // reserved fraction of it ("within 2% of their reserved rates").
        let capacity = 8.0 / 9.0;
        for (i, &rate) in FIG4_RATES.iter().enumerate() {
            let flow = FlowId::new(InputId::new(i), out0());
            let got = switch.gb_metrics().flow(flow).throughput(end);
            let want = rate * capacity;
            assert!(
                (got - want).abs() < 0.02,
                "flow {i}: got {got:.3} want {want:.3}"
            );
        }
    }

    #[test]
    fn lrg_splits_bandwidth_equally() {
        let mut switch = saturating_gb_switch(Policy::LrgOnly, &FIG4_RATES);
        let end =
            Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(50_000))).run(&mut switch);
        let per_flow = 8.0 / 9.0 / 8.0;
        for i in 0..8 {
            let flow = FlowId::new(InputId::new(i), out0());
            let got = switch.gb_metrics().flow(flow).throughput(end);
            assert!(
                (got - per_flow).abs() < 0.02,
                "flow {i}: got {got:.3} want {per_flow:.3}"
            );
        }
    }

    #[test]
    fn throughput_ceiling_is_l_over_l_plus_one() {
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &FIG4_RATES,
        );
        let end =
            Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(20_000))).run(&mut switch);
        let total = switch.output_throughput(out0(), end);
        assert!(
            (total - 8.0 / 9.0).abs() < 0.01,
            "saturated output delivered {total:.3} flits/cycle"
        );
    }

    #[test]
    fn gl_packets_preempt_gb_traffic() {
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &FIG4_RATES[..7],
        );
        // Input 7 sends an occasional 1-flit GL interrupt.
        switch
            .config
            .reservations_mut()
            .reserve_gl(out0(), Rate::new(0.05).unwrap())
            .unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(500, 0, 1)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(7)),
        );
        let _ =
            Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000))).run(&mut switch);
        let gl_flow = FlowId::new(InputId::new(7), out0());
        let m = switch.gl_metrics().flow(gl_flow);
        assert!(m.packets() >= 35, "GL packets delivered: {}", m.packets());
        // Against a fully saturated GB background, a lone 1-flit GL packet
        // waits at most for channel release (8 flits) + its arbitration.
        let max_wait = switch.gl_wait_histogram(out0()).max().unwrap();
        assert!(max_wait <= 10, "GL waited {max_wait} cycles");
    }

    #[test]
    fn gl_wait_respects_eq1_bound() {
        use crate::gl::{latency_bound, GlScenario};
        let n_gl = 4;
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &FIG4_RATES[..4],
        );
        switch
            .config
            .reservations_mut()
            .reserve_gl(out0(), Rate::new(0.1).unwrap())
            .unwrap();
        // Four GL injectors with colliding bursts of 1-flit packets.
        for i in 4..8 {
            switch.add_injector(
                Injector::new(
                    Box::new(Periodic::new(97, (i as u64 - 4) % 2, 1)),
                    Box::new(FixedDest::new(out0())),
                    TrafficClass::GuaranteedLatency,
                )
                .for_input(InputId::new(i)),
            );
        }
        let _ =
            Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(40_000))).run(&mut switch);
        let bound = latency_bound(GlScenario::new(
            8, // l_max: GB packets are 8 flits
            1,
            n_gl,
            switch.config().gl_buffer_flits(),
        ));
        let measured = switch.gl_wait_histogram(out0()).max().unwrap();
        assert!(
            measured <= bound,
            "measured GL wait {measured} exceeds Eq. 1 bound {bound}"
        );
    }

    #[test]
    fn unreserved_gb_flows_are_demoted_to_best_effort() {
        let config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(16)
            .build()
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.2, 4, 3)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(2)),
        );
        let end = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(10_000))).run(&mut switch);
        assert!(switch.counters().demoted_packets > 0);
        let flow = FlowId::new(InputId::new(2), out0());
        assert_eq!(switch.gb_metrics().flow(flow).packets(), 0);
        assert!(switch.be_metrics().flow(flow).throughput(end) > 0.1);
    }

    #[test]
    fn best_effort_gets_leftover_bandwidth_only() {
        let mut config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(16)
            .be_buffer_flits(16)
            .build()
            .unwrap();
        config
            .reservations_mut()
            .reserve_gb(InputId::new(0), out0(), Rate::new(0.9).unwrap(), 8)
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        // The GB flow reserves 90% but only offers ~0.45 flits/cycle;
        // Virtual Clock is work-conserving, so BE scavenges the idle
        // slots instead of the channel sitting reserved-but-unused (the
        // §2.2 advantage over strict TDM).
        switch.add_injector(
            Injector::new(
                Box::new(Bernoulli::new(0.45, 8, 17)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(1)),
        );
        let end =
            Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(30_000))).run(&mut switch);
        let gb = switch
            .gb_metrics()
            .flow(FlowId::new(InputId::new(0), out0()))
            .throughput(end);
        let be = switch
            .be_metrics()
            .flow(FlowId::new(InputId::new(1), out0()))
            .throughput(end);
        // GB gets its full demand; BE absorbs the leftover capacity.
        assert!((gb - 0.45).abs() < 0.03, "GB got {gb:.3}");
        assert!(be > 0.3, "BE got {be:.3}");
        // Together they keep the channel near its ceiling.
        assert!(gb + be > 0.8, "total {:.3}", gb + be);
    }

    #[test]
    fn inputs_never_feed_two_outputs_at_once() {
        // One input saturates two outputs; total delivered from that input
        // cannot exceed one flit/cycle (its input channel width).
        let mut config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(32)
            .build()
            .unwrap();
        for o in 0..2 {
            config
                .reservations_mut()
                .reserve_gb(
                    InputId::new(0),
                    OutputId::new(o),
                    Rate::new(1.0).unwrap(),
                    8,
                )
                .unwrap();
        }
        let mut switch = QosSwitch::new(config).unwrap();
        for o in 0..2 {
            switch.add_injector(
                Injector::new(
                    Box::new(Saturating::new(8)),
                    Box::new(FixedDest::new(OutputId::new(o))),
                    TrafficClass::GuaranteedBandwidth,
                )
                .for_input(InputId::new(0)),
            );
        }
        let end =
            Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000))).run(&mut switch);
        let total: f64 = (0..2)
            .map(|o| {
                switch
                    .gb_metrics()
                    .flow(FlowId::new(InputId::new(0), OutputId::new(o)))
                    .throughput(end)
            })
            .sum();
        assert!(total <= 1.0 + 1e-9, "input oversubscribed: {total:.3}");
        assert!(total > 0.85, "input underutilized: {total:.3}");
    }

    #[test]
    fn four_level_pays_two_arbitration_cycles() {
        // Single saturating flow: per-packet slot is len + 2 with the
        // 4-level scheme, so throughput tops out at 8/10.
        let mut config = SwitchConfig::builder(geometry())
            .policy(Policy::FourLevel)
            .gb_buffer_flits(16)
            .build()
            .unwrap();
        config
            .reservations_mut()
            .reserve_gb(InputId::new(0), out0(), Rate::new(1.0).unwrap(), 8)
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
        let end =
            Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000))).run(&mut switch);
        let got = switch.output_throughput(out0(), end);
        assert!((got - 0.8).abs() < 0.01, "got {got:.3}, want 0.8");
    }

    #[test]
    fn delivery_conservation_offered_accepted_delivered() {
        let mut switch =
            saturating_gb_switch(Policy::Ssvc(ssq_arbiter::CounterPolicy::Reset), &FIG4_RATES);
        let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(10_000))).run(&mut switch);
        let c = switch.counters();
        assert!(c.accepted_packets <= c.offered_packets);
        assert!(c.delivered_packets <= c.accepted_packets);
        assert_eq!(
            c.delivered_packets,
            switch.gb_metrics().total_packets()
                + switch.be_metrics().total_packets()
                + switch.gl_metrics().total_packets()
        );
        assert!(c.delivered_packets > 0);
    }

    #[test]
    fn trace_injection_is_exact() {
        let config = SwitchConfig::builder(geometry()).build().unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Trace::new(vec![(10, 4), (100, 4)])),
                Box::new(FixedDest::new(out0())),
                TrafficClass::BestEffort,
            )
            .for_input(InputId::new(5)),
        );
        let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(200))).run(&mut switch);
        let flow = FlowId::new(InputId::new(5), out0());
        assert_eq!(switch.be_metrics().flow(flow).packets(), 2);
        // Uncongested: arbitration in the creation cycle, then 4 flit
        // cycles; latency = delivery cycle − creation cycle = 4.
        assert_eq!(switch.be_metrics().flow(flow).max_latency(), Some(4));
    }

    #[test]
    fn measurement_window_resets_statistics() {
        let mut switch = saturating_gb_switch(Policy::LrgOnly, &FIG4_RATES);
        let _ = Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(100))).run(&mut switch);
        // Counters reflect only the measurement window, not warm-up.
        let c = switch.counters();
        assert!(c.offered_packets <= 8 * 100);
    }

    #[test]
    fn offer_packet_bypasses_staging_and_counts() {
        use ssq_types::{PacketId, PacketSpec};
        let config = SwitchConfig::builder(geometry())
            .be_buffer_flits(8)
            .build()
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.set_delivery_log(true);
        let spec = PacketSpec::new(
            PacketId::new(42),
            FlowId::new(InputId::new(3), out0()),
            TrafficClass::BestEffort,
            4,
            Cycle::ZERO,
        );
        assert!(switch.offer_packet(spec, Cycle::ZERO));
        // A second 8-flit packet does not fit the 8-flit buffer with 4
        // already queued.
        let big = PacketSpec::new(
            PacketId::new(43),
            FlowId::new(InputId::new(3), out0()),
            TrafficClass::BestEffort,
            8,
            Cycle::ZERO,
        );
        assert!(!switch.offer_packet(big, Cycle::ZERO));
        let c = switch.counters();
        assert_eq!(c.offered_packets, 2);
        assert_eq!(c.accepted_packets, 1);
        assert_eq!(c.dropped_packets, 1);
        // Drive to delivery and observe the log.
        for step in 0..20u64 {
            switch.step(Cycle::new(step));
        }
        let deliveries = switch.drain_deliveries();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].1.id(), PacketId::new(42));
        assert!(switch.drain_deliveries().is_empty(), "drain consumes");
    }

    #[test]
    fn delivery_log_is_off_by_default() {
        let mut switch = saturating_gb_switch(Policy::LrgOnly, &FIG4_RATES[..2]);
        let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(1_000))).run(&mut switch);
        assert!(switch.counters().delivered_packets > 0);
        assert!(switch.drain_deliveries().is_empty());
    }

    /// Live QoS renegotiation: halving one flow's reservation mid-run
    /// shifts its steady-state share accordingly, with no switch rebuild.
    #[test]
    fn live_reservation_update_takes_effect() {
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &[0.5, 0.5],
        );
        // Phase 1: 50/50.
        let end1 =
            Runner::new(Schedule::new(Cycles::new(3_000), Cycles::new(30_000))).run(&mut switch);
        let t0_before = switch
            .gb_metrics()
            .flow(FlowId::new(InputId::new(0), out0()))
            .throughput(end1);
        assert!((t0_before - 0.5 * 8.0 / 9.0).abs() < 0.02);

        // Renegotiate to 20/80 and measure a fresh window.
        switch
            .update_gb_reservation(InputId::new(0), out0(), Rate::new(0.2).unwrap(), 8)
            .unwrap();
        switch
            .update_gb_reservation(InputId::new(1), out0(), Rate::new(0.8).unwrap(), 8)
            .unwrap();
        let mut now = end1;
        // Settle, then measure.
        for _ in 0..5_000u64 {
            switch.step(now);
            now = now.next();
        }
        switch.begin_measurement(now);
        let start = now;
        for _ in 0..30_000u64 {
            switch.step(now);
            now = now.next();
        }
        let _ = start;
        let t0_after = switch
            .gb_metrics()
            .flow(FlowId::new(InputId::new(0), out0()))
            .throughput(now);
        let t1_after = switch
            .gb_metrics()
            .flow(FlowId::new(InputId::new(1), out0()))
            .throughput(now);
        assert!(
            (t0_after - 0.2 * 8.0 / 9.0).abs() < 0.03,
            "flow 0 after renegotiation: {t0_after:.3}"
        );
        assert!(
            (t1_after - 0.8 * 8.0 / 9.0).abs() < 0.03,
            "flow 1 after renegotiation: {t1_after:.3}"
        );
    }

    /// Renegotiation respects the output budget.
    #[test]
    fn live_reservation_update_validates_budget() {
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &[0.5, 0.5],
        );
        let err = switch
            .update_gb_reservation(InputId::new(0), out0(), Rate::new(0.6).unwrap(), 8)
            .unwrap_err();
        assert!(matches!(err, ConfigError::Oversubscribed { .. }));
        // The failed update must not have touched the Vtick.
        let end =
            Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(20_000))).run(&mut switch);
        let t0 = switch
            .gb_metrics()
            .flow(FlowId::new(InputId::new(0), out0()))
            .throughput(end);
        assert!((t0 - 0.5 * 8.0 / 9.0).abs() < 0.02, "state leaked: {t0:.3}");
    }

    /// Staging-queue overflow is counted as drops, never as memory growth.
    #[test]
    fn staging_overflow_counts_drops() {
        // One saturating 1-flit flow into a 1-flit buffer: the staging
        // queue (64 packets) fills, after which new offers drop.
        let mut config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(1)
            .build()
            .unwrap();
        config
            .reservations_mut()
            .reserve_gb(InputId::new(0), out0(), Rate::new(0.1).unwrap(), 1)
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(1)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
        let _ = Runner::new(Schedule::new(Cycles::ZERO, Cycles::new(5_000))).run(&mut switch);
        let c = switch.counters();
        assert!(c.dropped_packets > 0, "saturation must overflow staging");
        assert_eq!(c.offered_packets, 5_000);
        // Nothing vanishes: offered = dropped + accepted + still staged.
        assert!(c.accepted_packets + c.dropped_packets <= c.offered_packets);
        assert!(c.offered_packets - c.accepted_packets - c.dropped_packets <= 64);
    }

    /// The chain limit is enforced exactly: a lone saturated 1-flit flow
    /// chains CHAIN_LIMIT packets per arbitration, no more.
    #[test]
    fn chain_limit_is_exact() {
        let mut config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(16)
            .packet_chaining(true)
            .build()
            .unwrap();
        config
            .reservations_mut()
            .reserve_gb(InputId::new(0), out0(), Rate::new(1.0).unwrap(), 1)
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(1)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
        let _ =
            Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(30_000))).run(&mut switch);
        let c = switch.counters();
        let arbitrated = c.delivered_packets - c.chained_packets;
        // Steady state: per arbitration, exactly CHAIN_LIMIT chains.
        let ratio = c.chained_packets as f64 / arbitrated as f64;
        assert!(
            (ratio - f64::from(SwitchConfig::CHAIN_LIMIT)).abs() < 0.1,
            "chain ratio {ratio:.2} vs limit {}",
            SwitchConfig::CHAIN_LIMIT
        );
    }

    /// BE virtual output queues eliminate head-of-line blocking: with
    /// uniform BE traffic on a 4x4 switch, the shared FIFO saturates well
    /// below the VOQ organization.
    #[test]
    fn be_voq_removes_head_of_line_blocking() {
        use ssq_traffic::UniformDest;
        let run = |voq: bool| {
            let geometry = Geometry::new(4, 128).unwrap();
            let config = SwitchConfig::builder(geometry)
                .policy(Policy::LrgOnly)
                .be_buffer_flits(16)
                .be_voq(voq)
                .build()
                .unwrap();
            let mut switch = QosSwitch::new(config).unwrap();
            for i in 0..4 {
                switch.add_injector(
                    Injector::new(
                        Box::new(Saturating::new(4)),
                        Box::new(UniformDest::new(4, 900 + i as u64)),
                        TrafficClass::BestEffort,
                    )
                    .for_input(InputId::new(i)),
                );
            }
            let end = Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(30_000)))
                .run(&mut switch);
            (0..4)
                .map(|o| switch.output_throughput(OutputId::new(o), end))
                .sum::<f64>()
                / 4.0
        };
        let fifo = run(false);
        let voq = run(true);
        // Classic input-queued result: a shared FIFO tops out near ~60%
        // of capacity under uniform traffic; VOQs recover most of it.
        assert!(fifo < 0.62, "shared FIFO unexpectedly fast: {fifo:.3}");
        assert!(voq > fifo + 0.1, "VOQ gain missing: {fifo:.3} -> {voq:.3}");
    }

    /// Fabric-in-the-loop: a mixed GB+GL run where every arbitration is
    /// double-checked against the bit-level inhibit fabric. Any
    /// behavioural/circuit divergence panics inside step().
    #[test]
    fn fabric_checked_run_agrees_throughout() {
        let mut config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(16)
            .sig_bits(3)
            .fabric_checked(true)
            .build()
            .unwrap();
        for (i, &r) in FIG4_RATES[..6].iter().enumerate() {
            config
                .reservations_mut()
                .reserve_gb(InputId::new(i), out0(), Rate::new(r).unwrap(), 8)
                .unwrap();
        }
        config
            .reservations_mut()
            .reserve_gl(out0(), Rate::new(0.05).unwrap())
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        for i in 0..6 {
            switch.add_injector(
                Injector::new(
                    Box::new(Saturating::new(8)),
                    Box::new(FixedDest::new(out0())),
                    TrafficClass::GuaranteedBandwidth,
                )
                .for_input(InputId::new(i)),
            );
        }
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(113, 0, 1)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(7)),
        );
        let end =
            Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(30_000))).run(&mut switch);
        // The run completing is the verification; sanity-check output too.
        assert!(switch.output_throughput(out0(), end) > 0.8);
        assert!(
            switch
                .gl_metrics()
                .flow(FlowId::new(InputId::new(7), out0()))
                .packets()
                > 200
        );
    }

    #[test]
    fn gsf_policy_respects_reservations() {
        let mut switch = saturating_gb_switch(Policy::Gsf, &FIG4_RATES);
        let end =
            Runner::new(Schedule::new(Cycles::new(5_000), Cycles::new(50_000))).run(&mut switch);
        let capacity = 8.0 / 9.0;
        for (i, &rate) in FIG4_RATES.iter().enumerate() {
            let got = switch
                .gb_metrics()
                .flow(FlowId::new(InputId::new(i), out0()))
                .throughput(end);
            assert!(
                got >= rate * capacity - 0.03,
                "flow {i} below reservation: {got:.3} vs {:.3}",
                rate * capacity
            );
        }
    }

    /// Packet chaining removes the per-packet arbitration bubble: a
    /// single saturated 1-flit flow goes from 0.5 to ~1.0 flits/cycle.
    #[test]
    fn packet_chaining_removes_arbitration_bubbles() {
        let throughput_with = |chaining: bool| {
            let mut config = SwitchConfig::builder(geometry())
                .gb_buffer_flits(16)
                .packet_chaining(chaining)
                .build()
                .unwrap();
            config
                .reservations_mut()
                .reserve_gb(InputId::new(0), out0(), Rate::new(1.0).unwrap(), 1)
                .unwrap();
            let mut switch = QosSwitch::new(config).unwrap();
            switch.add_injector(
                Injector::new(
                    Box::new(Saturating::new(1)),
                    Box::new(FixedDest::new(out0())),
                    TrafficClass::GuaranteedBandwidth,
                )
                .for_input(InputId::new(0)),
            );
            let end = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000)))
                .run(&mut switch);
            (
                switch.output_throughput(out0(), end),
                switch.counters().chained_packets,
            )
        };
        let (plain, chained_plain) = throughput_with(false);
        let (chained, chained_count) = throughput_with(true);
        assert!((plain - 0.5).abs() < 0.01, "no chaining: {plain:.3}");
        assert_eq!(chained_plain, 0);
        // CHAIN_LIMIT = 4 means 4 of every 5 packets skip arbitration:
        // 5 flits per 6 cycles.
        assert!(chained > 0.82, "with chaining: {chained:.3}");
        assert!(chained_count > 10_000);
    }

    /// A waiting GL packet interrupts a GB chain at the next packet
    /// boundary: chaining must not extend GB priority over GL.
    #[test]
    fn chaining_yields_to_higher_classes() {
        let mut config = SwitchConfig::builder(geometry())
            .gb_buffer_flits(32)
            .packet_chaining(true)
            .build()
            .unwrap();
        config
            .reservations_mut()
            .reserve_gb(InputId::new(0), out0(), Rate::new(0.9).unwrap(), 8)
            .unwrap();
        config
            .reservations_mut()
            .reserve_gl(out0(), Rate::new(0.1).unwrap())
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(8)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(211, 0, 1)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(1)),
        );
        let _ =
            Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(30_000))).run(&mut switch);
        // Even though the GB flow could chain forever, every GL packet is
        // served within the channel-release + arbitration window.
        let max_wait = switch.gl_wait_histogram(out0()).max().unwrap();
        assert!(max_wait <= 10, "GL waited {max_wait} cycles behind a chain");
        assert!(
            switch.counters().chained_packets > 0,
            "chaining never engaged"
        );
    }

    /// With policing enabled, an abusive saturating GL flow loses its
    /// preemptive priority and GB service recovers; without policing it
    /// monopolizes the output.
    #[test]
    fn gl_policer_contains_an_abusive_flow() {
        let run_with = |policing: bool| {
            let mut config = SwitchConfig::builder(geometry())
                .gb_buffer_flits(16)
                .gl_policing(policing)
                .build()
                .unwrap();
            config
                .reservations_mut()
                .reserve_gb(InputId::new(0), out0(), Rate::new(0.85).unwrap(), 8)
                .unwrap();
            config
                .reservations_mut()
                .reserve_gl(out0(), Rate::new(0.1).unwrap())
                .unwrap();
            let mut switch = QosSwitch::new(config).unwrap();
            switch.add_injector(
                Injector::new(
                    Box::new(Saturating::new(8)),
                    Box::new(FixedDest::new(out0())),
                    TrafficClass::GuaranteedBandwidth,
                )
                .for_input(InputId::new(0)),
            );
            // The abuser: a GL flow that never stops sending.
            switch.add_injector(
                Injector::new(
                    Box::new(Saturating::new(4)),
                    Box::new(FixedDest::new(out0())),
                    TrafficClass::GuaranteedLatency,
                )
                .for_input(InputId::new(1)),
            );
            let end = Runner::new(Schedule::new(Cycles::new(2_000), Cycles::new(40_000)))
                .run(&mut switch);
            let gb = switch
                .gb_metrics()
                .flow(FlowId::new(InputId::new(0), out0()))
                .throughput(end);
            (gb, switch.counters().gl_policed_cycles)
        };
        let (gb_unpoliced, policed_events_off) = run_with(false);
        let (gb_policed, policed_events_on) = run_with(true);
        assert_eq!(policed_events_off, 0);
        assert!(policed_events_on > 0, "policer never engaged");
        assert!(
            gb_unpoliced < 0.1,
            "without policing GL should monopolize; GB got {gb_unpoliced:.3}"
        );
        assert!(
            gb_policed > 5.0 * gb_unpoliced.max(0.01),
            "policing should restore GB service: {gb_policed:.3} vs {gb_unpoliced:.3}"
        );
    }

    #[test]
    fn tracer_records_decisions_grants_and_auxvc_updates() {
        use ssq_trace::{EventKind, RingSink};
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &[0.5, 0.5],
        );
        switch.tracer_mut().attach_ring(8192);
        let _ = Runner::new(Schedule::new(Cycles::new(100), Cycles::new(2_000))).run(&mut switch);
        let events = switch.tracer().ring().map(RingSink::events).unwrap();
        assert!(!events.is_empty(), "saturated run emitted no events");
        let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(k, EventKind::Decision { .. })));
        assert!(has(&|k| matches!(
            k,
            EventKind::Grant {
                class: TrafficClass::GuaranteedBandwidth,
                ..
            }
        )));
        assert!(has(&|k| matches!(k, EventKind::AuxVc { .. })));
        // Two inputs contending for one output: the loser of each GB
        // round must show up as inhibited.
        assert!(has(&|k| matches!(k, EventKind::Inhibit { .. })));
        // Events arrive in chronological order.
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn untraced_switch_matches_traced_switch_exactly() {
        let run = |attach: bool| {
            let mut switch = saturating_gb_switch(
                Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
                &FIG4_RATES,
            );
            if attach {
                switch.tracer_mut().attach_ring(1024);
            }
            let _ =
                Runner::new(Schedule::new(Cycles::new(500), Cycles::new(5_000))).run(&mut switch);
            switch.counters()
        };
        // Tracing must observe, never perturb: identical counters.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn gl_wait_bound_violation_trips_monitored_run() {
        use ssq_sim::MonitorOutcome;
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &FIG4_RATES[..7],
        );
        switch
            .config
            .reservations_mut()
            .reserve_gl(out0(), Rate::new(0.05).unwrap())
            .unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(500, 0, 1)),
                Box::new(FixedDest::new(out0())),
                TrafficClass::GuaranteedLatency,
            )
            .for_input(InputId::new(7)),
        );
        // A 0-cycle bound is unattainable: the first GL grant trips.
        switch.set_gl_wait_bound(Some(0));
        let outcome = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000)))
            .run_monitored(&mut switch, Cycles::new(10_000), |_, _| {});
        match outcome {
            MonitorOutcome::Tripped { reason, .. } => {
                assert!(reason.contains("Eq. 1 bound"), "unexpected reason {reason}");
            }
            MonitorOutcome::Completed(_) => panic!("bound of 0 cycles should have tripped"),
        }
    }

    #[test]
    fn healthy_saturated_run_never_trips_the_watchdog() {
        let mut switch = saturating_gb_switch(
            Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
            &FIG4_RATES,
        );
        let outcome = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000)))
            .run_monitored(&mut switch, Cycles::new(100), |_, _| {});
        assert!(
            outcome.is_completed(),
            "a progressing saturated switch tripped the watchdog"
        );
    }

    /// Fault-injection and degraded-mode behaviour (DESIGN.md §8).
    mod faults {
        use super::*;
        use ssq_trace::RingSink;

        fn ring_events(switch: &QosSwitch) -> Vec<Event> {
            switch.tracer().ring().map(RingSink::events).unwrap()
        }

        #[test]
        fn link_down_rejects_at_source_and_heals() {
            let mut switch = saturating_gb_switch(
                Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
                &[0.4, 0.4],
            );
            switch.tracer_mut().attach_ring(1 << 16);
            for c in 0..300 {
                switch.step(Cycle::new(c));
            }
            switch.fault_set_link(InputId::new(0), false, Cycle::new(300));
            let dropped_before = switch.counters().dropped_packets;
            for c in 300..800 {
                switch.step(Cycle::new(c));
            }
            assert!(
                switch.counters().dropped_packets > dropped_before,
                "a downed link should reject offered packets"
            );
            let events = ring_events(&switch);
            assert!(events.iter().any(|e| matches!(
                e.kind,
                EventKind::Reject {
                    reason: RejectReason::LinkDown,
                    ..
                }
            )));
            assert!(events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::Fault { site, healed: false, .. } if site == "link")));
            // The isolated input wins nothing once in-flight packets drain.
            assert!(
                !events
                    .iter()
                    .any(|e| e.cycle >= 320 && matches!(e.kind, EventKind::Grant { input: 0, .. })),
                "granted a downed input"
            );
            switch.fault_set_link(InputId::new(0), true, Cycle::new(800));
            assert!(!switch.fault_control().armed(), "healed switch stays armed");
            for c in 800..1400 {
                switch.step(Cycle::new(c));
            }
            let events = ring_events(&switch);
            assert!(
                events
                    .iter()
                    .any(|e| e.cycle > 800 && matches!(e.kind, EventKind::Grant { input: 0, .. })),
                "healed input never resumed service"
            );
        }

        #[test]
        fn aux_corruption_walks_the_degradation_ladder() {
            let mut config = SwitchConfig::builder(geometry())
                .policy(Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock))
                .gb_buffer_flits(16)
                .sig_bits(4)
                .fault_retry_budget(1)
                .build()
                .unwrap();
            for (i, &r) in [0.4, 0.4].iter().enumerate() {
                config
                    .reservations_mut()
                    .reserve_gb(InputId::new(i), out0(), Rate::new(r).unwrap(), 8)
                    .unwrap();
            }
            let mut switch = QosSwitch::new(config).unwrap();
            for i in 0..2 {
                switch.add_injector(
                    Injector::new(
                        Box::new(Saturating::new(8)),
                        Box::new(FixedDest::new(out0())),
                        TrafficClass::GuaranteedBandwidth,
                    )
                    .for_input(InputId::new(i)),
                );
            }
            switch.tracer_mut().attach_ring(1 << 16);
            for c in 0..200 {
                switch.step(Cycle::new(c));
            }
            // An SEU far above the counter cap: the V3 classifier must
            // catch it on the *losing* side of arbitration too.
            let raw = switch.fault_flip_aux_bit(out0(), InputId::new(0), 40, Cycle::new(200));
            assert!(raw >= 1 << 40);
            for c in 200..1000 {
                switch.step(Cycle::new(c));
            }
            assert_eq!(switch.counters().fault_retries, 1, "budget of 1 retry");
            assert!(switch.fault_control().lrg_fallback(0));
            assert!(switch.counters().guarantees_revoked >= 1);
            let events = ring_events(&switch);
            let detected = events
                .iter()
                .filter(
                    |e| matches!(&e.kind, EventKind::Detected { code, .. } if code == "SSQV003"),
                )
                .count();
            assert_eq!(detected, 2, "one detection per ladder rung");
            let mode_count = |m: &str| {
                events
                    .iter()
                    .filter(|e| matches!(&e.kind, EventKind::Degraded { mode, .. } if mode == m))
                    .count()
            };
            assert_eq!(mode_count("retry"), 1);
            assert_eq!(mode_count("lrg_fallback"), 1);
            assert!(events
                .iter()
                .any(|e| matches!(e.kind, EventKind::GuaranteeRevoked { .. })));
            // Degraded, not dead: LRG fallback keeps the output moving.
            let delivered_at_fallback = switch.counters().delivered_flits;
            for c in 1000..2000 {
                switch.step(Cycle::new(c));
            }
            assert!(
                switch.counters().delivered_flits > delivered_at_fallback,
                "LRG fallback stopped delivering"
            );
        }

        #[test]
        fn readmit_evictions_are_traced_and_future_packets_demote() {
            let mut switch = saturating_gb_switch(
                Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
                &[0.4, 0.3, 0.2],
            );
            switch.tracer_mut().attach_ring(1 << 16);
            let decisions = switch.readmit_output(out0(), 0.5, false, Cycle::new(10));
            let actions: Vec<(usize, &str)> = decisions
                .iter()
                .map(|d| (d.input.index(), d.action.label()))
                .collect();
            assert_eq!(actions, vec![(0, "evict"), (1, "keep"), (2, "keep")]);
            let events = ring_events(&switch);
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Readmitted { .. }))
                    .count(),
                3
            );
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::GuaranteeRevoked { .. }))
                    .count(),
                1
            );
            // The evicted flow's future GB packets demote to BE.
            for c in 10..300 {
                switch.step(Cycle::new(c));
            }
            assert!(
                switch.counters().demoted_packets > 0,
                "evicted flow kept injecting as GB"
            );
        }

        #[test]
        fn demoting_gl_suspends_the_watchdog() {
            use ssq_sim::MonitorOutcome;
            let mut switch = saturating_gb_switch(
                Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock),
                &FIG4_RATES[..7],
            );
            switch
                .config
                .reservations_mut()
                .reserve_gl(out0(), Rate::new(0.05).unwrap())
                .unwrap();
            switch.add_injector(
                Injector::new(
                    Box::new(Periodic::new(500, 0, 1)),
                    Box::new(FixedDest::new(out0())),
                    TrafficClass::GuaranteedLatency,
                )
                .for_input(InputId::new(7)),
            );
            switch.tracer_mut().attach_ring(1 << 16);
            // The 0-cycle bound would trip instantly — but the demotion
            // revokes (and records) the contract the watchdog enforces.
            switch.set_gl_wait_bound(Some(0));
            switch.fault_demote_gl(out0(), Cycle::ZERO);
            assert!(
                ring_events(&switch).iter().any(|e| matches!(
                    e.kind,
                    EventKind::GuaranteeRevoked {
                        class: TrafficClass::GuaranteedLatency,
                        ..
                    }
                )),
                "demotion must record the revoked contract"
            );
            let outcome = Runner::new(Schedule::new(Cycles::new(1_000), Cycles::new(20_000)))
                .run_monitored(&mut switch, Cycles::new(10_000), |_, _| {});
            assert!(
                matches!(outcome, MonitorOutcome::Completed(_)),
                "revoked bound still tripped the watchdog"
            );
            let events = ring_events(&switch);
            // Demoted GL still delivers (as non-preemptive traffic).
            assert!(events.iter().any(|e| matches!(
                e.kind,
                EventKind::Grant {
                    class: TrafficClass::GuaranteedLatency,
                    ..
                }
            )));
        }

        #[test]
        fn heal_all_disarms_and_refills_retries() {
            let mut config = SwitchConfig::builder(geometry())
                .policy(Policy::Ssvc(ssq_arbiter::CounterPolicy::SubtractRealClock))
                .fault_retry_budget(2)
                .build()
                .unwrap();
            config
                .reservations_mut()
                .reserve_gb(InputId::new(0), out0(), Rate::new(0.4).unwrap(), 8)
                .unwrap();
            let mut switch = QosSwitch::new(config).unwrap();
            switch.fault_set_link(InputId::new(1), false, Cycle::new(1));
            switch.fault_flip_aux_bit(out0(), InputId::new(0), 3, Cycle::new(2));
            assert!(switch.fault_control().armed());
            assert_eq!(switch.counters().fault_injections, 2);
            switch.fault_heal_all(Cycle::new(3));
            assert!(!switch.fault_control().armed());
            assert!(switch.ports[1].is_link_up());
            assert_eq!(switch.fault_control().retries_left(0), 2);
        }
    }
}
