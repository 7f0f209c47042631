//! One output's record: everything the switch keeps per output column.
//!
//! In the Swizzle Switch an output's arbitration state lives in that
//! output's column — its crosspoints' auxVC counters and LRG bits, the
//! GL usage counter, the channel it drives. [`Output`] holds it the same
//! way: the transmit interval of the packet the channel sends, the
//! column's class request words, the arbitration-wait and chain clocks,
//! the fault and degradation state, and the arbiters the switch's
//! [`Policy`] reads — and nothing a policy never reads.

use ssq_arbiter::{
    Arbiter, CounterPolicy, Dwrr, FourLevel, Gsf, Lrg, SsvcArbiter, SsvcConfig, VirtualClock, Wfq,
    Wrr,
};
use ssq_stats::Histogram;
use ssq_types::{InputId, OutputId, Rate, TrafficClass};

use crate::config::{Policy, SwitchConfig};

/// Fallback reserved rate assumed for flows the arbiter must weigh but
/// that carry no reservation (only reachable for baseline policies).
const DEFAULT_RATE: f64 = 0.01;

/// The per-cycle state of one output channel, as
/// [`QosSwitch::channel`](super::QosSwitch::channel) reports it.
///
/// The cycle-accurate timing of the Swizzle Switch: a packet costs one
/// (or, for the 4-level prior design, two) arbitration cycle(s) during
/// which no data moves, then one cycle per flit. Back-to-back packets on
/// a saturated channel therefore deliver `L/(L+A)` flits/cycle — the
/// "maximum possible throughput is 0.89 flits/cycle … because this
/// experiment uses 8-flit packet sizes" ceiling of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// No packet holds the channel; arbitration may start.
    Idle,
    /// A committed packet is streaming its flits.
    Transmitting {
        /// The granted input.
        input: InputId,
        /// The class of the committed packet (identifies the queue).
        class: TrafficClass,
        /// Flits left to move after the last step.
        remaining_flits: u64,
    },
}

/// The transmit interval of the packet an output channel is committed
/// to, on the switch's clock — the one record of its progress: granted
/// or chained in the output loop of cycle `g`, an `L`-flit packet moves
/// one flit in each of the loops of cycles `g + 1 ..= g + L`. The kernel
/// frees those flits from the queue in one batch, only when something
/// reads them — at the latest in loop `done_at`, where it finishes the
/// packet.
#[derive(Debug, Clone, Copy)]
pub(super) struct Interval {
    /// The input whose queue the packet heads.
    pub(super) input: InputId,
    /// The packet's class (with `input` and the output, its queue).
    pub(super) class: TrafficClass,
    /// The clock through which the packet's flits are applied.
    pub(super) applied: u64,
    /// The clock of the loop that moves the last flit.
    pub(super) done_at: u64,
}

impl Interval {
    /// Marks the flits moved through clock `clock` applied; returns how
    /// many were not yet.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is past the packet's last loop: never more
    /// flits applied than the packet has.
    pub(super) fn apply(&mut self, clock: u64) -> u64 {
        assert!(
            clock <= self.done_at,
            "flits applied through {clock}, past the packet's last loop {}",
            self.done_at
        );
        let n = clock - self.applied;
        self.applied = clock;
        n
    }
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
pub(super) struct GlPolicer {
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
    fn new(rate: Rate, gl_buffer_flits: u64) -> Self {
        let rate = if rate.is_zero() {
            DEFAULT_RATE
        } else {
            rate.value()
        };
        GlPolicer {
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
    pub(super) fn charge(&mut self, len_flits: u64, clock: u64) {
        let cost = ((len_flits + 1) as f64 / self.rate).round() as u64;
        self.counter = self.level(clock).saturating_add(cost);
        self.stamp = clock;
    }

    pub(super) fn policed(&self, clock: u64) -> bool {
        self.level(clock) > self.allowance
    }
}

/// The GB engine of a strict-priority ladder.
pub(super) enum GbEngine {
    /// The paper's SSVC arbiter, driven through its mask-native entry
    /// points.
    Ssvc(SsvcArbiter),
    /// A rate baseline (exact Virtual Clock, GSF, WRR, DWRR, WFQ),
    /// driven through the slice-of-requests [`Arbiter`] protocol.
    Rate(Box<dyn Arbiter + Send + Sync>),
}

/// The strict class-priority ladder of SSVC and the rate baselines:
/// GL > GB > policed (or demoted) GL > BE.
pub(super) struct Ladder {
    /// The GB round's engine.
    pub(super) gb: GbEngine,
    /// LRG among GL requesters.
    pub(super) gl: Lrg,
    /// LRG among BE requesters.
    pub(super) be: Lrg,
    /// The GB round in LRG-fallback mode: pure LRG, the engine
    /// neither consulted nor advanced.
    pub(super) fallback: Lrg,
    /// The GL usage policer, when policing is on.
    pub(super) policer: Option<GlPolicer>,
}

/// The arbiters an output's policy reads.
#[expect(
    clippy::large_enum_variant,
    reason = "every policy but two runs the ladder, read in place on each visit"
)]
pub(super) enum Arbiters {
    /// `Policy::LrgOnly`: class-blind LRG over every requester.
    Flat(Lrg),
    /// `Policy::FourLevel`: the prior 4-level fixed-priority scheme.
    FourLevel(FourLevel),
    /// SSVC and the five rate baselines.
    Ladder(Ladder),
}

/// One output column. `repr(C)` keeps the declaration order: what the
/// decide kernel and the commit read on every visit — the channel's
/// interval, the request row, the two clocks, the two degradation flags
/// the ladder consults and the arbiters — comes first; the retry budget
/// (read on a detection) and the GL-wait histogram (on a GL grant)
/// trail.
#[repr(C)]
pub(super) struct Output {
    /// The interval of the packet the channel transmits; `None` while
    /// the channel is idle.
    pub(super) interval: Option<Interval>,
    /// The column's class request words, the decide kernel's input:
    /// `xreq[class.priority()]` has bit `i` set iff input `i` holds a
    /// head-of-queue packet of that class for this output. Maintained
    /// incrementally whenever a queue head changes
    /// (`QosSwitch::sync_port_masks`), so a decide reads one row instead
    /// of probing `radix` queue heads.
    pub(super) xreq: [u64; 3],
    /// Cycles requesters have waited out the arbitration latency.
    pub(super) arb_wait: u64,
    /// Packets chained onto the channel since its last arbitration.
    pub(super) chain_count: u32,
    /// GB arbitration has fallen back from the engine to LRG.
    lrg_fallback: bool,
    /// GL lost its lane: it no longer preempts GB and its Eq. 1 bound is
    /// off.
    gl_demoted: bool,
    pub(super) arbiters: Arbiters,
    /// Transient retries left before a detection degrades the output: a
    /// plain countdown from `fault_retry_budget`, the zero-delay,
    /// jitter-free `BackoffPolicy::immediate`.
    pub(super) retries_left: u32,
    /// GL waiting times (enqueue → grant).
    pub(super) gl_wait: Histogram,
}

impl Output {
    /// A healthy, idle output `o` of a switch built from `config`.
    pub(super) fn new(config: &SwitchConfig, o: usize) -> Self {
        let output = OutputId::new(o);
        Output {
            interval: None,
            xreq: [0; 3],
            arb_wait: 0,
            chain_count: 0,
            lrg_fallback: false,
            gl_demoted: false,
            arbiters: arbiters(config, output),
            retries_left: config.fault_retry_budget(),
            gl_wait: Histogram::new(4, 1024),
        }
    }

    /// The channel's state at switch clock `clock`, every flit moved by
    /// then counted.
    pub(super) fn channel(&self, clock: u64) -> ChannelState {
        match self.interval {
            None => ChannelState::Idle,
            Some(Interval {
                input,
                class,
                done_at,
                ..
            }) => ChannelState::Transmitting {
                input,
                class,
                remaining_flits: done_at - clock,
            },
        }
    }

    /// Whether GB arbitration runs on the LRG fallback.
    pub(super) fn lrg_fallback(&self) -> bool {
        self.lrg_fallback
    }

    /// Sets or clears the LRG fallback.
    pub(super) fn set_lrg_fallback(&mut self, on: bool) {
        self.lrg_fallback = on;
    }

    /// Whether the GL class is demoted (no longer preemptive).
    pub(super) fn gl_demoted(&self) -> bool {
        self.gl_demoted
    }

    /// Sets or clears GL demotion.
    pub(super) fn set_gl_demoted(&mut self, on: bool) {
        self.gl_demoted = on;
    }

    /// Consumes a transient retry: `false` once the budget is spent and
    /// the caller must degrade.
    pub(super) fn try_retry(&mut self) -> bool {
        let left = self.retries_left.checked_sub(1);
        if let Some(left) = left {
            self.retries_left = left;
        }
        left.is_some()
    }

    /// The ladder, when the policy runs one.
    pub(super) fn ladder_mut(&mut self) -> Option<&mut Ladder> {
        match &mut self.arbiters {
            Arbiters::Ladder(ladder) => Some(ladder),
            _ => None,
        }
    }

    /// The SSVC arbiter, when the ladder's GB engine is one.
    pub(super) fn ssvc(&self) -> Option<&SsvcArbiter> {
        match &self.arbiters {
            Arbiters::Ladder(Ladder {
                gb: GbEngine::Ssvc(ssvc),
                ..
            }) => Some(ssvc),
            _ => None,
        }
    }

    /// Mutable access to the SSVC arbiter, when there is one.
    pub(super) fn ssvc_mut(&mut self) -> Option<&mut SsvcArbiter> {
        match &mut self.ladder_mut()?.gb {
            GbEngine::Ssvc(ssvc) => Some(ssvc),
            GbEngine::Rate(_) => None,
        }
    }

    /// The ladder's GB engine, when it is a rate baseline.
    pub(super) fn rate_mut(&mut self) -> Option<&mut (dyn Arbiter + Send + Sync)> {
        match &mut self.ladder_mut()?.gb {
            GbEngine::Rate(engine) => Some(engine.as_mut()),
            GbEngine::Ssvc(_) => None,
        }
    }

    /// Charges a GL packet of `len` flits, sent at switch clock `clock`,
    /// to the GL policer, when there is one.
    pub(super) fn charge_gl(&mut self, len: u64, clock: u64) {
        if let Some(policer) = self.ladder_mut().and_then(|l| l.policer.as_mut()) {
            policer.charge(len, clock);
        }
    }
}

/// The arbiters `config`'s policy reads at `output`; a ladder's GB
/// engine weighs each input by its reservation there.
#[expect(
    clippy::cast_possible_truncation,
    reason = "quantization: a finite positive ratio, `as` saturates"
)]
fn arbiters(config: &SwitchConfig, output: OutputId) -> Arbiters {
    let radix = config.geometry().radix();
    let arb_cycles = config.policy().arbitration_cycles();
    let res = config.reservations();
    let rate_of = |i: usize| {
        res.gb(InputId::new(i), output)
            .map_or(DEFAULT_RATE, |r| r.rate().value())
    };
    let slot_of = |i: usize| {
        res.gb(InputId::new(i), output)
            .map_or(8 + arb_cycles, |r| r.packet_flits() + arb_cycles)
    };
    let ladder = |gb| {
        Arbiters::Ladder(Ladder {
            gb,
            gl: Lrg::new(radix),
            be: Lrg::new(radix),
            fallback: Lrg::new(radix),
            policer: config
                .gl_policing()
                .then(|| GlPolicer::new(res.gl(output), config.gl_buffer_flits())),
        })
    };
    let rate = |engine: Box<dyn Arbiter + Send + Sync>| ladder(GbEngine::Rate(engine));
    match config.policy() {
        Policy::LrgOnly => Arbiters::Flat(Lrg::new(radix)),
        Policy::FourLevel => Arbiters::FourLevel(FourLevel::new(radix)),
        Policy::Ssvc(counter_policy) => {
            let cfg = SsvcConfig::new(config.counter_bits(), config.sig_bits(), counter_policy);
            let vticks: Vec<u64> = (0..radix)
                .map(|i| SsvcArbiter::slot_vtick(rate_of(i), slot_of(i)))
                .collect();
            ladder(GbEngine::Ssvc(SsvcArbiter::new(cfg, &vticks)))
        }
        Policy::ExactVirtualClock => {
            let vticks: Vec<f64> = (0..radix).map(|i| slot_of(i) as f64 / rate_of(i)).collect();
            rate(Box::new(VirtualClock::new(&vticks)))
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
            rate(Box::new(Gsf::new(&budgets, frame_cycles)))
        }
        Policy::Wrr => {
            let weights: Vec<u64> = (0..radix)
                .map(|i| ((rate_of(i) * 100.0).round() as u64).max(1))
                .collect();
            rate(Box::new(Wrr::new(&weights)))
        }
        Policy::Dwrr => {
            let quanta: Vec<u64> = (0..radix)
                .map(|i| ((rate_of(i) * 64.0).round() as u64).max(1))
                .collect();
            rate(Box::new(Dwrr::new(&quanta)))
        }
        Policy::Wfq => {
            let weights: Vec<f64> = (0..radix).map(|i| rate_of(i).max(1e-3)).collect();
            rate(Box::new(Wfq::new(&weights)))
        }
    }
}

/// One MSB step of the shared real-time subcounter under
/// `SubtractRealClock`; zero when nothing decays on time.
pub(super) fn epoch_len(config: &SwitchConfig) -> u64 {
    match config.policy() {
        Policy::Ssvc(CounterPolicy::SubtractRealClock) => SsvcConfig::new(
            config.counter_bits(),
            config.sig_bits(),
            CounterPolicy::SubtractRealClock,
        )
        .msb_step(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval() -> Interval {
        Interval {
            input: InputId::new(3),
            class: TrafficClass::GuaranteedBandwidth,
            applied: 10,
            done_at: 14,
        }
    }

    #[test]
    fn apply_counts_each_flit_once() {
        let mut tx = interval();
        assert_eq!(tx.apply(12), 2);
        assert_eq!(tx.apply(12), 0);
        assert_eq!(tx.apply(14), 2);
        assert_eq!(tx.applied, tx.done_at);
    }

    #[test]
    #[should_panic(expected = "past the packet's last loop")]
    fn never_more_flits_applied_than_the_packet_has() {
        let _ = interval().apply(15);
    }
}
