//! Switch configuration and validation.

use std::error::Error;
use std::fmt;

use ssq_arbiter::CounterPolicy;
use ssq_types::{Geometry, InputId, OutputId};

use crate::reservations::Reservations;

/// The arbitration policy driving every output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// No QoS: least-recently-granted arbitration over all requests
    /// regardless of class — the baseline Swizzle Switch of Fig. 4(a).
    LrgOnly,
    /// The paper's SSVC mechanism with the given counter-management
    /// policy (Fig. 4(b), Fig. 5).
    Ssvc(CounterPolicy),
    /// Exact Virtual Clock with arrival-time stamping — the "Original
    /// Virtual Clock" baseline of Fig. 5.
    ExactVirtualClock,
    /// Globally-synchronized frames (local adaptation of Lee et al.,
    /// ISCA'08 — ref \[8]) with frame budgets proportional to
    /// reservations.
    Gsf,
    /// Weighted round robin with weights proportional to reservations.
    Wrr,
    /// Deficit weighted round robin with quanta proportional to
    /// reservations.
    Dwrr,
    /// Self-clocked weighted fair queueing with weights proportional to
    /// reservations.
    Wfq,
    /// The prior 4-level fixed-priority Swizzle Switch QoS (ref \[14]);
    /// costs two arbitration cycles per decision.
    FourLevel,
}

impl Policy {
    /// Arbitration latency in cycles: 1 for everything except the prior
    /// two-cycle 4-level design (§2.2, third difference).
    #[must_use]
    pub const fn arbitration_cycles(self) -> u64 {
        match self {
            Policy::FourLevel => 2,
            _ => 1,
        }
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Policy::LrgOnly => "LRG (no QoS)",
            Policy::Ssvc(CounterPolicy::SubtractRealClock) => "SSVC subtract",
            Policy::Ssvc(CounterPolicy::Halve) => "SSVC halve",
            Policy::Ssvc(CounterPolicy::Reset) => "SSVC reset",
            Policy::Gsf => "GSF",
            Policy::ExactVirtualClock => "Original Virtual Clock",
            Policy::Wrr => "WRR",
            Policy::Dwrr => "DWRR",
            Policy::Wfq => "WFQ",
            Policy::FourLevel => "4-level fixed priority",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors detected while building or validating a switch configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// An output's GB + GL allocations exceed its bandwidth (§3.3).
    Oversubscribed {
        /// The over-allocated output.
        output: OutputId,
        /// The attempted total allocation.
        allocated: f64,
    },
    /// A zero-rate reservation was requested.
    ZeroRate {
        /// The flow's input.
        input: InputId,
        /// The flow's output.
        output: OutputId,
    },
    /// The geometry's lane budget cannot host the configured classes:
    /// three classes need at least three lanes (§4.4).
    InsufficientLanes {
        /// Lanes available (`bus_width / radix`).
        available: usize,
        /// Lanes required.
        required: usize,
    },
    /// A buffer depth is zero or smaller than the largest packet it must
    /// hold.
    BufferTooSmall {
        /// Which buffer ("BE", "GB", or "GL").
        which: &'static str,
        /// The configured depth in flits.
        depth: u64,
    },
    /// More ports than the model's one-`u64`-per-output request words
    /// hold (64, also the paper's high-radix ceiling).
    RadixTooLarge {
        /// The configured radix.
        radix: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::Oversubscribed { output, allocated } => write!(
                f,
                "{output} oversubscribed: {:.1}% of channel bandwidth allocated",
                allocated * 100.0
            ),
            ConfigError::ZeroRate { input, output } => {
                write!(f, "zero-rate GB reservation for flow {input}->{output}")
            }
            ConfigError::InsufficientLanes {
                available,
                required,
            } => write!(
                f,
                "geometry provides {available} arbitration lanes but {required} are required"
            ),
            ConfigError::BufferTooSmall { which, depth } => {
                write!(f, "{which} buffer of {depth} flits is too small")
            }
            ConfigError::RadixTooLarge { radix } => {
                write!(f, "radix {radix} exceeds the 64 ports the switch models")
            }
        }
    }
}

impl Error for ConfigError {}

/// Complete configuration of a [`QosSwitch`](crate::QosSwitch).
///
/// Built through [`SwitchConfig::builder`]; reservations may be edited
/// afterwards through [`SwitchConfig::reservations_mut`] and are
/// re-validated when the switch is constructed.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    geometry: Geometry,
    be_buffer_flits: u64,
    gb_buffer_flits: u64,
    gl_buffer_flits: u64,
    policy: Policy,
    counter_bits: u32,
    sig_bits: u32,
    reservations: Reservations,
    gl_policing: bool,
    packet_chaining: bool,
    fabric_checked: bool,
    be_voq: bool,
    spare_gb_lanes: u32,
    fault_retry_budget: u32,
}

impl SwitchConfig {
    /// Maximum consecutive packets a channel may chain without
    /// re-arbitrating when [`SwitchConfigBuilder::packet_chaining`] is
    /// enabled.
    pub const CHAIN_LIMIT: u32 = 4;

    /// Starts building a configuration for the given geometry with the
    /// paper's defaults: SSVC with the subtract-real-clock policy,
    /// 4-flit BE/GL buffers and 4-flit GB virtual output queues
    /// (Table 1), a 12-bit `auxVC` whose significant bits match the
    /// geometry's lane budget.
    #[must_use]
    pub fn builder(geometry: Geometry) -> SwitchConfigBuilder {
        SwitchConfigBuilder {
            geometry,
            be_buffer_flits: 4,
            gb_buffer_flits: 4,
            gl_buffer_flits: 4,
            policy: Policy::Ssvc(CounterPolicy::SubtractRealClock),
            counter_bits: 12,
            sig_bits: None,
            gl_policing: false,
            packet_chaining: false,
            fabric_checked: false,
            be_voq: false,
            spare_gb_lanes: 0,
            fault_retry_budget: 0,
        }
    }

    /// The switch geometry.
    #[must_use]
    pub const fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Best-effort buffer depth per input, in flits.
    #[must_use]
    pub const fn be_buffer_flits(&self) -> u64 {
        self.be_buffer_flits
    }

    /// GB virtual-output-queue depth per (input, output), in flits.
    #[must_use]
    pub const fn gb_buffer_flits(&self) -> u64 {
        self.gb_buffer_flits
    }

    /// GL buffer depth per input, in flits.
    #[must_use]
    pub const fn gl_buffer_flits(&self) -> u64 {
        self.gl_buffer_flits
    }

    /// The arbitration policy.
    #[must_use]
    pub const fn policy(&self) -> Policy {
        self.policy
    }

    /// Total `auxVC` counter width in bits.
    #[must_use]
    pub const fn counter_bits(&self) -> u32 {
        self.counter_bits
    }

    /// Significant `auxVC` bits compared by SSVC arbitration.
    #[must_use]
    pub const fn sig_bits(&self) -> u32 {
        self.sig_bits
    }

    /// Whether the GL usage policer is enabled (see
    /// [`SwitchConfigBuilder::gl_policing`]).
    #[must_use]
    pub const fn gl_policing(&self) -> bool {
        self.gl_policing
    }

    /// Whether packet chaining is enabled (see
    /// [`SwitchConfigBuilder::packet_chaining`]).
    #[must_use]
    pub const fn packet_chaining(&self) -> bool {
        self.packet_chaining
    }

    /// Whether fabric-in-the-loop checking is enabled (see
    /// [`SwitchConfigBuilder::fabric_checked`]).
    #[must_use]
    pub const fn fabric_checked(&self) -> bool {
        self.fabric_checked
    }

    /// Whether BE uses per-output virtual queues (see
    /// [`SwitchConfigBuilder::be_voq`]).
    #[must_use]
    pub const fn be_voq(&self) -> bool {
        self.be_voq
    }

    /// Spare GB thermometer lanes declared for fault tolerance (see
    /// [`SwitchConfigBuilder::spare_gb_lanes`]).
    #[must_use]
    pub const fn spare_gb_lanes(&self) -> u32 {
        self.spare_gb_lanes
    }

    /// Transient-fault retry budget (see
    /// [`SwitchConfigBuilder::fault_retry_budget`]).
    #[must_use]
    pub const fn fault_retry_budget(&self) -> u32 {
        self.fault_retry_budget
    }

    /// The bandwidth allocation table.
    #[must_use]
    pub fn reservations(&self) -> &Reservations {
        &self.reservations
    }

    /// Mutable access to the allocation table.
    pub fn reservations_mut(&mut self) -> &mut Reservations {
        &mut self.reservations
    }

    /// Re-validates the configuration (used by the switch constructor
    /// after reservations were edited).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let radix = self.geometry.radix();
        if radix > 64 {
            return Err(ConfigError::RadixTooLarge { radix });
        }
        // Lane budget: GL needs its own lane; GB needs at least two for a
        // meaningful thermometer; BE shares the GB lanes time-wise.
        if matches!(self.policy, Policy::Ssvc(_)) {
            let required = if self.reservations.any_gl() { 3 } else { 2 };
            let available = self.geometry.num_lanes();
            if available < required {
                return Err(ConfigError::InsufficientLanes {
                    available,
                    required,
                });
            }
        }
        for (_, output, _) in self.reservations.iter_gb() {
            if self.reservations.allocated(output) > 1.0 + 1e-9 {
                return Err(ConfigError::Oversubscribed {
                    output,
                    allocated: self.reservations.allocated(output),
                });
            }
        }
        for (which, depth) in [
            ("BE", self.be_buffer_flits),
            ("GB", self.gb_buffer_flits),
            ("GL", self.gl_buffer_flits),
        ] {
            if depth == 0 {
                return Err(ConfigError::BufferTooSmall { which, depth });
            }
        }
        Ok(())
    }
}

impl fmt::Display for SwitchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | buffers BE {} / GB {} / GL {} flits | auxVC {}+{} bits",
            self.geometry,
            self.policy,
            self.be_buffer_flits,
            self.gb_buffer_flits,
            self.gl_buffer_flits,
            self.sig_bits,
            self.counter_bits - self.sig_bits,
        )?;
        let mut extras = Vec::new();
        if self.packet_chaining {
            extras.push("chaining");
        }
        if self.gl_policing {
            extras.push("GL policing");
        }
        if self.fabric_checked {
            extras.push("fabric-checked");
        }
        if self.be_voq {
            extras.push("BE VOQs");
        }
        if !extras.is_empty() {
            write!(f, " | {}", extras.join(", "))?;
        }
        Ok(())
    }
}

/// Builder for [`SwitchConfig`]; see [`SwitchConfig::builder`].
#[derive(Debug, Clone)]
pub struct SwitchConfigBuilder {
    geometry: Geometry,
    be_buffer_flits: u64,
    gb_buffer_flits: u64,
    gl_buffer_flits: u64,
    policy: Policy,
    counter_bits: u32,
    sig_bits: Option<u32>,
    gl_policing: bool,
    packet_chaining: bool,
    fabric_checked: bool,
    be_voq: bool,
    spare_gb_lanes: u32,
    fault_retry_budget: u32,
}

impl SwitchConfigBuilder {
    /// Sets the arbitration policy.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the best-effort buffer depth per input, in flits.
    #[must_use]
    pub fn be_buffer_flits(mut self, flits: u64) -> Self {
        self.be_buffer_flits = flits;
        self
    }

    /// Sets the GB virtual-output-queue depth per (input, output), in
    /// flits. Fig. 4 uses 16.
    #[must_use]
    pub fn gb_buffer_flits(mut self, flits: u64) -> Self {
        self.gb_buffer_flits = flits;
        self
    }

    /// Sets the GL buffer depth per input, in flits (the `b` of Eq. 1).
    #[must_use]
    pub fn gl_buffer_flits(mut self, flits: u64) -> Self {
        self.gl_buffer_flits = flits;
        self
    }

    /// Sets the total `auxVC` width in bits (default 12, as in Fig. 1).
    #[must_use]
    pub fn counter_bits(mut self, bits: u32) -> Self {
        self.counter_bits = bits;
        self
    }

    /// Overrides the number of significant `auxVC` bits (default: the
    /// geometry's lane budget, [`Geometry::significant_bits`]).
    #[must_use]
    pub fn sig_bits(mut self, bits: u32) -> Self {
        self.sig_bits = Some(bits);
        self
    }

    /// Enables the GL usage policer: a per-output counter tracks GL
    /// bandwidth like an `auxVC` ("tracked by a counter similar to the
    /// auxVC counters of the GB class", §3.4); while GL usage runs ahead
    /// of its reservation the class loses its preemptive priority, the
    /// safeguard "to prevent its abuse" (§1). Off by default — the Eq. 1
    /// latency bound assumes unpoliced priority.
    #[must_use]
    pub fn gl_policing(mut self, enabled: bool) -> Self {
        self.gl_policing = enabled;
        self
    }

    /// Gives the best-effort class per-output virtual queues instead of
    /// the paper's single shared FIFO (Table 1's "BE 4 flits"),
    /// eliminating BE head-of-line blocking at a `radix ×` buffering
    /// cost — an organization ablation beyond the paper.
    #[must_use]
    pub fn be_voq(mut self, enabled: bool) -> Self {
        self.be_voq = enabled;
        self
    }

    /// Runs every SSVC (GB-class) and GL arbitration through the
    /// bit-level inhibit fabric of `ssq-circuit` *in addition to* the
    /// behavioural arbiter, panicking on any disagreement — the paper's
    /// §4.1 wire-level verification, applied continuously to live
    /// traffic instead of offline vectors. Only meaningful with an SSVC
    /// policy; costs roughly one extra fabric evaluation per packet.
    #[must_use]
    pub fn fabric_checked(mut self, enabled: bool) -> Self {
        self.fabric_checked = enabled;
        self
    }

    /// Enables *packet chaining* (Michelogiannakis et al., CAL'11 — the
    /// paper's ref \[10], cited in §4.2 as the mitigation for the
    /// arbitration-cycle throughput loss): when a packet finishes and the
    /// same queue holds another packet for the same output, the channel
    /// chains to it without spending an arbitration cycle — provided no
    /// higher-priority class is waiting and at most
    /// [`SwitchConfig::CHAIN_LIMIT`] packets chain consecutively (so
    /// competing flows still get arbitrated in bounded time).
    #[must_use]
    pub fn packet_chaining(mut self, enabled: bool) -> Self {
        self.packet_chaining = enabled;
        self
    }

    /// Declares how many GB thermometer lanes are spares the switch can
    /// afford to lose before arbitration quality degrades — the
    /// fault-tolerance level priced by the SSQ012 preflight check.
    /// Default 0: any single stuck lane wire immediately costs either a
    /// thermometer position or (for the GL lane) the Eq. 1 bound.
    #[must_use]
    pub fn spare_gb_lanes(mut self, lanes: u32) -> Self {
        self.spare_gb_lanes = lanes;
        self
    }

    /// Sets the transient-fault retry budget: how many times a grant
    /// corrupted in flight (multi-grant, parity miss) is re-arbitrated
    /// before the affected guarantee is revoked. Each retry can cost up
    /// to `l_max` extra cycles of GL wait, which SSQ012 prices against
    /// the admitted latency constraints. Default 0: first corruption
    /// revokes.
    #[must_use]
    pub fn fault_retry_budget(mut self, retries: u32) -> Self {
        self.fault_retry_budget = retries;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the radix, lane budget, buffers, or
    /// counter widths are inconsistent.
    pub fn build(self) -> Result<SwitchConfig, ConfigError> {
        let sig_bits = self.sig_bits.unwrap_or_else(|| {
            // Default to the geometry's thermometer budget, floored to at
            // least 1 so tiny buses still build with non-SSVC policies.
            self.geometry.significant_bits().max(1)
        });
        let config = SwitchConfig {
            geometry: self.geometry,
            be_buffer_flits: self.be_buffer_flits,
            gb_buffer_flits: self.gb_buffer_flits,
            gl_buffer_flits: self.gl_buffer_flits,
            policy: self.policy,
            counter_bits: self.counter_bits.max(sig_bits + 1),
            sig_bits,
            reservations: Reservations::new(self.geometry.radix()),
            gl_policing: self.gl_policing,
            packet_chaining: self.packet_chaining,
            fabric_checked: self.fabric_checked,
            be_voq: self.be_voq,
            spare_gb_lanes: self.spare_gb_lanes,
            fault_retry_budget: self.fault_retry_budget,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_types::Rate;

    fn geom() -> Geometry {
        Geometry::new(8, 128).unwrap()
    }

    #[test]
    fn defaults_match_the_paper() {
        let c = SwitchConfig::builder(geom()).build().unwrap();
        assert_eq!(c.be_buffer_flits(), 4);
        assert_eq!(c.gb_buffer_flits(), 4);
        assert_eq!(c.gl_buffer_flits(), 4);
        assert_eq!(c.counter_bits(), 12);
        assert_eq!(c.policy(), Policy::Ssvc(CounterPolicy::SubtractRealClock));
        assert_eq!(c.policy().arbitration_cycles(), 1);
    }

    #[test]
    fn four_level_costs_two_cycles() {
        assert_eq!(Policy::FourLevel.arbitration_cycles(), 2);
    }

    #[test]
    fn builder_overrides_apply() {
        let c = SwitchConfig::builder(geom())
            .policy(Policy::Wfq)
            .gb_buffer_flits(16)
            .sig_bits(4)
            .gl_policing(true)
            .build()
            .unwrap();
        assert_eq!(c.policy(), Policy::Wfq);
        assert_eq!(c.gb_buffer_flits(), 16);
        assert_eq!(c.sig_bits(), 4);
        assert!(c.gl_policing());
    }

    #[test]
    fn fault_tolerance_fields_default_off_and_are_settable() {
        let c = SwitchConfig::builder(geom()).build().unwrap();
        assert_eq!(c.spare_gb_lanes(), 0);
        assert_eq!(c.fault_retry_budget(), 0);
        let c = SwitchConfig::builder(geom())
            .spare_gb_lanes(2)
            .fault_retry_budget(3)
            .build()
            .unwrap();
        assert_eq!(c.spare_gb_lanes(), 2);
        assert_eq!(c.fault_retry_budget(), 3);
    }

    #[test]
    fn zero_buffers_rejected() {
        let err = SwitchConfig::builder(geom())
            .be_buffer_flits(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::BufferTooSmall { which: "BE", .. }
        ));
    }

    #[test]
    fn more_than_64_ports_rejected() {
        let wide = Geometry::new(128, 1024).unwrap();
        let err = SwitchConfig::builder(wide).build().unwrap_err();
        assert_eq!(err, ConfigError::RadixTooLarge { radix: 128 });
        assert!(err.to_string().contains("radix 128"), "{err}");
    }

    #[test]
    fn gl_on_ssvc_needs_three_lanes() {
        // Radix-64 on a 128-bit bus: only 2 lanes.
        let tight = Geometry::new(64, 128).unwrap();
        let mut config = SwitchConfig::builder(tight).build().unwrap();
        config
            .reservations_mut()
            .reserve_gl(OutputId::new(0), Rate::new(0.05).unwrap())
            .unwrap();
        let err = config.validate().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::InsufficientLanes {
                available: 2,
                required: 3
            }
        ));
        // The same allocation on a 256-bit bus validates (paper §4.4).
        let wide = Geometry::new(64, 256).unwrap();
        let mut config = SwitchConfig::builder(wide).build().unwrap();
        config
            .reservations_mut()
            .reserve_gl(OutputId::new(0), Rate::new(0.05).unwrap())
            .unwrap();
        assert!(config.validate().is_ok());
    }

    #[test]
    fn counter_bits_never_below_sig_bits() {
        let c = SwitchConfig::builder(geom())
            .counter_bits(3)
            .sig_bits(4)
            .build()
            .unwrap();
        assert!(c.counter_bits() > c.sig_bits());
    }

    #[test]
    fn display_summarizes_the_configuration() {
        let c = SwitchConfig::builder(geom())
            .packet_chaining(true)
            .fabric_checked(true)
            .build()
            .unwrap();
        let text = c.to_string();
        assert!(text.contains("8x8"), "{text}");
        assert!(text.contains("SSVC subtract"), "{text}");
        assert!(text.contains("chaining"), "{text}");
        assert!(text.contains("fabric-checked"), "{text}");
        assert!(!text.contains("GL policing"), "{text}");
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels = [
            Policy::LrgOnly.label(),
            Policy::Ssvc(CounterPolicy::SubtractRealClock).label(),
            Policy::Ssvc(CounterPolicy::Halve).label(),
            Policy::Ssvc(CounterPolicy::Reset).label(),
            Policy::ExactVirtualClock.label(),
            Policy::Wrr.label(),
            Policy::Dwrr.label(),
            Policy::Wfq.label(),
            Policy::FourLevel.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
