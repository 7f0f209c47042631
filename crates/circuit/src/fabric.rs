//! The complete inhibit-based arbitration fabric.

use std::fmt;

use ssq_arbiter::{Arbiter as _, Lrg};

use crate::decision::{discharge_decision, drive_lane, gl_discharge_override, LaneDecision};
use crate::Bitlines;

/// Geometry of the arbitration fabric for one output channel.
///
/// # Examples
///
/// ```
/// use ssq_circuit::CircuitConfig;
///
/// // Radix-8, 8 GB lanes plus a dedicated GL lane (72 bitlines total).
/// let cfg = CircuitConfig::new(8, 8, true);
/// assert_eq!(cfg.total_lanes(), 9);
/// assert_eq!(cfg.total_wires(), 72);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircuitConfig {
    radix: usize,
    gb_lanes: usize,
    gl_lane: bool,
}

impl CircuitConfig {
    /// Creates a fabric configuration.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero or `gb_lanes` is zero.
    #[must_use]
    pub fn new(radix: usize, gb_lanes: usize, gl_lane: bool) -> Self {
        assert!(radix > 0, "radix must be positive");
        assert!(gb_lanes > 0, "need at least one GB lane");
        CircuitConfig {
            radix,
            gb_lanes,
            gl_lane,
        }
    }

    /// Number of inputs.
    #[must_use]
    pub const fn radix(self) -> usize {
        self.radix
    }

    /// Number of GB thermometer lanes.
    #[must_use]
    pub const fn gb_lanes(self) -> usize {
        self.gb_lanes
    }

    /// Whether a dedicated GL lane exists.
    #[must_use]
    pub const fn has_gl_lane(self) -> bool {
        self.gl_lane
    }

    /// Total lanes including the GL lane.
    #[must_use]
    pub const fn total_lanes(self) -> usize {
        self.gb_lanes
            .saturating_add(if self.gl_lane { 1 } else { 0 })
    }

    /// Total bitlines used for arbitration.
    #[must_use]
    pub const fn total_wires(self) -> usize {
        self.total_lanes() * self.radix
    }
}

/// What one input port drives into the fabric this arbitration cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PortRequest {
    /// Not requesting this output.
    #[default]
    Idle,
    /// Requesting with a GB (or BE) packet; `msb_value` is the significant
    /// bits of the crosspoint's `auxVC` counter, i.e. its thermometer
    /// lane. BE traffic arbitrates the same way with all counters equal.
    Gb {
        /// The thermometer lane this input senses.
        msb_value: u64,
    },
    /// Requesting with a Guaranteed Latency packet.
    Gl,
}

/// Which class won the arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WinnerClass {
    /// A GL request won (it always does when present).
    GuaranteedLatency,
    /// A GB/BE request won.
    GuaranteedBandwidth,
}

/// The result of one bit-level arbitration cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "dropping an arbitration outcome discards the grant"]
pub struct ArbitrationOutcome {
    winner: Option<usize>,
    class: Option<WinnerClass>,
    bitlines: Bitlines,
    /// Every input whose sense wire stayed charged. Healthy fabrics
    /// produce at most one; a stuck-at-1 wire can produce several.
    winners: Vec<usize>,
}

impl ArbitrationOutcome {
    /// The winning input, if any input requested. With a faulted fabric
    /// this is the lowest-indexed charged sense wire; check
    /// [`ArbitrationOutcome::is_multi_grant`] before trusting it.
    #[must_use]
    pub const fn winner(&self) -> Option<usize> {
        self.winner
    }

    /// The class of the winning request.
    #[must_use]
    pub const fn class(&self) -> Option<WinnerClass> {
        self.class
    }

    /// Every input that sensed a win this cycle. A healthy fabric yields
    /// zero or one; more than one is the V1 multi-grant corruption a
    /// stuck-at-1 bitline causes.
    #[must_use]
    pub fn winners(&self) -> &[usize] {
        &self.winners
    }

    /// Whether more than one input sensed a win — the detection signal
    /// for grant-bus corruption (V1).
    #[must_use]
    pub fn is_multi_grant(&self) -> bool {
        self.winners.len() > 1
    }

    /// The final bitline state, for inspection (e.g. counting discharge
    /// activity).
    #[must_use]
    pub const fn bitlines(&self) -> &Bitlines {
        &self.bitlines
    }
}

/// A persistent bitline defect: the wire at (`lane`, `input`) no longer
/// follows precharge/discharge and instead reads a constant level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckWire {
    /// The lane the wire belongs to.
    pub lane: usize,
    /// The input position along the lane.
    pub input: usize,
    /// The constant level: `true` = stuck-at-1 (always charged, the
    /// wire can no longer be inhibited), `false` = stuck-at-0 (always
    /// discharged, the input can never sense a win there).
    pub charged: bool,
}

/// The inhibit-based arbitration fabric of one output channel, modelling
/// every wire, pull-down decision, and sense amp (the verification
/// vehicle of paper §4.1).
///
/// Lane layout: lanes `0..gb_lanes` are the GB thermometer lanes; when
/// enabled, lane `gb_lanes` is the dedicated GL lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InhibitFabric {
    config: CircuitConfig,
    /// Persistent stuck-at defects, applied after every discharge phase.
    stuck: Vec<StuckWire>,
}

impl InhibitFabric {
    /// Creates a fabric with the given geometry.
    #[must_use]
    pub const fn new(config: CircuitConfig) -> Self {
        InhibitFabric {
            config,
            stuck: Vec::new(),
        }
    }

    /// The fabric geometry.
    #[must_use]
    pub const fn config(&self) -> CircuitConfig {
        self.config
    }

    /// Injects a persistent stuck-at defect on the wire at
    /// (`lane`, `input`): stuck-at-1 when `charged`, stuck-at-0
    /// otherwise. Re-sticking the same wire overwrites its level.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `input` is outside the fabric geometry.
    pub fn fault_stick_wire(&mut self, lane: usize, input: usize, charged: bool) {
        assert!(lane < self.config.total_lanes(), "lane out of range");
        assert!(input < self.config.radix(), "input out of range");
        if let Some(w) = self
            .stuck
            .iter_mut()
            .find(|w| w.lane == lane && w.input == input)
        {
            w.charged = charged;
        } else {
            self.stuck.push(StuckWire {
                lane,
                input,
                charged,
            });
        }
    }

    /// Heals the stuck wire at (`lane`, `input`), if any.
    pub fn heal_wire(&mut self, lane: usize, input: usize) {
        self.stuck.retain(|w| !(w.lane == lane && w.input == input));
    }

    /// Heals every stuck wire.
    pub fn heal_all(&mut self) {
        self.stuck.clear();
    }

    /// The currently injected stuck-at defects.
    #[must_use]
    pub fn stuck_wires(&self) -> &[StuckWire] {
        &self.stuck
    }

    /// Whether any stuck-at defect is active.
    #[must_use]
    pub fn is_faulted(&self) -> bool {
        !self.stuck.is_empty()
    }

    /// Runs one full arbitration cycle at the bit level:
    ///
    /// 1. precharge all bitlines;
    /// 2. every requesting input drives its per-lane discharge decisions
    ///    (Fig. 1(b) for GB, Fig. 3 for GL);
    /// 3. every requesting input senses its wire; the one whose wire is
    ///    still charged wins.
    ///
    /// `gb_lrg` supplies the pairwise tie-break bits replicated at each
    /// crosspoint; `gl_lrg` the (independent) LRG state of the GL lane.
    /// Neither is mutated — committing the winner's LRG update is the
    /// caller's job, mirroring how the silicon separates arbitration from
    /// the grant-feedback update.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is not exactly `radix` long, an `msb_value`
    /// exceeds the lane count, a GL request arrives with no GL lane
    /// configured, or the LRG states are sized differently from the
    /// fabric.
    pub fn arbitrate(
        &self,
        ports: &[PortRequest],
        gb_lrg: &Lrg,
        gl_lrg: &Lrg,
    ) -> ArbitrationOutcome {
        let cfg = self.config;
        assert_eq!(ports.len(), cfg.radix(), "one request slot per input");
        assert_eq!(gb_lrg.num_inputs(), cfg.radix(), "GB LRG size mismatch");
        assert_eq!(gl_lrg.num_inputs(), cfg.radix(), "GL LRG size mismatch");

        let mut bitlines = Bitlines::new(cfg.radix(), cfg.total_lanes());
        bitlines.precharge_all();

        let any_gl = ports.iter().any(|p| matches!(p, PortRequest::Gl));
        let gl_lane = cfg.gb_lanes();

        // Phase 2: discharge.
        for (input, port) in ports.iter().enumerate() {
            match *port {
                PortRequest::Idle => {}
                PortRequest::Gb { msb_value } => {
                    assert!(
                        (msb_value as usize) < cfg.gb_lanes(),
                        "msb value {msb_value} exceeds {} GB lanes",
                        cfg.gb_lanes()
                    );
                    for lane in 0..cfg.gb_lanes() {
                        let d = discharge_decision(msb_value, lane as u64);
                        drive_lane(&mut bitlines, lane, input, d, gb_lrg);
                    }
                }
                PortRequest::Gl => {
                    assert!(cfg.has_gl_lane(), "GL request but fabric has no GL lane");
                    // Fig. 3: every GB lane is discharged entirely.
                    for lane in 0..cfg.gb_lanes() {
                        drive_lane(&mut bitlines, lane, input, gl_discharge_override(), gb_lrg);
                    }
                    // Within the GL lane, compete by the GL LRG state.
                    drive_lane(&mut bitlines, gl_lane, input, LaneDecision::LrgRow, gl_lrg);
                }
            }
        }

        // Stuck-at defects override whatever the discharge phase decided:
        // a stuck-at-1 wire reads charged no matter who inhibited it, a
        // stuck-at-0 wire reads discharged even if nobody did.
        for w in &self.stuck {
            if w.charged {
                bitlines.force_charge(w.lane, w.input);
            } else {
                bitlines.discharge(w.lane, w.input);
            }
        }

        // Phase 3: sense. Each requester's sense-amp multiplexer selects
        // the wire at (its lane, its index); a still-charged wire means it
        // won.
        let mut winner = None;
        let mut class = None;
        let mut winners = Vec::new();
        for (input, port) in ports.iter().enumerate() {
            let (lane, won_class) = match *port {
                PortRequest::Idle => continue,
                PortRequest::Gb { msb_value } => {
                    if any_gl {
                        // All GB sense wires were discharged by the GL
                        // override; skip the sense to mirror hardware.
                        continue;
                    }
                    (msb_value as usize, WinnerClass::GuaranteedBandwidth)
                }
                PortRequest::Gl => (gl_lane, WinnerClass::GuaranteedLatency),
            };
            if bitlines.is_charged(lane, input) {
                // A healthy fabric can never charge two sense wires; a
                // stuck-at-1 defect can, so under injected faults the
                // condition is reported through `winners` instead of
                // crashing the model.
                assert!(
                    winner.is_none() || self.is_faulted(),
                    "fabric produced two winners: {:?} and {input}",
                    winner
                );
                if winner.is_none() {
                    winner = Some(input);
                    class = Some(won_class);
                }
                winners.push(input);
            }
        }
        ArbitrationOutcome {
            winner,
            class,
            bitlines,
            winners,
        }
    }
}

impl fmt::Display for InhibitFabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inhibit fabric: radix {}, {} GB lanes{}",
            self.config.radix(),
            self.config.gb_lanes(),
            if self.config.has_gl_lane() {
                " + GL lane"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(msb: u64) -> PortRequest {
        PortRequest::Gb { msb_value: msb }
    }

    /// The fully worked example of Fig. 1: inputs 0,1,2,5,6 requesting
    /// with MSB values 6,6,4,4,4; In2 must win.
    #[test]
    fn figure1_worked_example() {
        let fabric = InhibitFabric::new(CircuitConfig::new(8, 8, false));
        let lrg = Lrg::new(8);
        let mut ports = vec![PortRequest::Idle; 8];
        ports[0] = gb(6);
        ports[1] = gb(6);
        ports[2] = gb(4);
        ports[5] = gb(4);
        ports[6] = gb(4);
        let out = fabric.arbitrate(&ports, &lrg, &lrg);
        assert_eq!(out.winner(), Some(2));
        assert_eq!(out.class(), Some(WinnerClass::GuaranteedBandwidth));
        // In0's sense wire (lane 6, pos 0) = wire 48 must be discharged.
        assert!(!out.bitlines().is_charged(6, 0));
        // In1's sense wire 49 likewise.
        assert!(!out.bitlines().is_charged(6, 1));
        // The winner's wire (lane 4, pos 2 = wire 34) is still charged.
        assert!(out.bitlines().is_charged(4, 2));
    }

    #[test]
    fn no_requests_no_winner() {
        let fabric = InhibitFabric::new(CircuitConfig::new(4, 4, true));
        let lrg = Lrg::new(4);
        let out = fabric.arbitrate(&[PortRequest::Idle; 4], &lrg, &lrg);
        assert_eq!(out.winner(), None);
        assert_eq!(out.class(), None);
    }

    #[test]
    fn single_requester_wins_any_lane() {
        let fabric = InhibitFabric::new(CircuitConfig::new(4, 4, false));
        let lrg = Lrg::new(4);
        for msb in 0..4 {
            let mut ports = vec![PortRequest::Idle; 4];
            ports[3] = gb(msb);
            let out = fabric.arbitrate(&ports, &lrg, &lrg);
            assert_eq!(out.winner(), Some(3), "msb {msb}");
        }
    }

    #[test]
    fn gl_preempts_all_gb_requests() {
        let fabric = InhibitFabric::new(CircuitConfig::new(4, 4, true));
        let lrg = Lrg::new(4);
        // Input 0 has the best possible GB position (lane 0, top LRG), yet
        // the GL request from input 3 must win.
        let ports = [gb(0), gb(1), PortRequest::Idle, PortRequest::Gl];
        let out = fabric.arbitrate(&ports, &lrg, &lrg);
        assert_eq!(out.winner(), Some(3));
        assert_eq!(out.class(), Some(WinnerClass::GuaranteedLatency));
    }

    #[test]
    fn competing_gl_requests_resolve_by_gl_lrg() {
        let fabric = InhibitFabric::new(CircuitConfig::new(4, 4, true));
        let gb_lrg = Lrg::new(4);
        let mut gl_lrg = Lrg::new(4);
        gl_lrg.grant(1); // GL order: 0, 2, 3, 1
        let ports = [
            PortRequest::Idle,
            PortRequest::Gl,
            PortRequest::Gl,
            PortRequest::Idle,
        ];
        let out = fabric.arbitrate(&ports, &gb_lrg, &gl_lrg);
        assert_eq!(out.winner(), Some(2));
    }

    #[test]
    fn gb_and_gl_lrg_states_are_independent() {
        let fabric = InhibitFabric::new(CircuitConfig::new(4, 4, true));
        let mut gb_lrg = Lrg::new(4);
        gb_lrg.grant(0); // GB order: 1, 2, 3, 0
        let gl_lrg = Lrg::new(4); // GL order: 0, 1, 2, 3
                                  // Equal-lane GB tie between 0 and 1 resolves by GB LRG: 1 wins.
        let out = fabric.arbitrate(
            &[gb(2), gb(2), PortRequest::Idle, PortRequest::Idle],
            &gb_lrg,
            &gl_lrg,
        );
        assert_eq!(out.winner(), Some(1));
        // GL tie between 0 and 1 resolves by GL LRG: 0 wins.
        let out = fabric.arbitrate(
            &[
                PortRequest::Gl,
                PortRequest::Gl,
                PortRequest::Idle,
                PortRequest::Idle,
            ],
            &gb_lrg,
            &gl_lrg,
        );
        assert_eq!(out.winner(), Some(0));
    }

    #[test]
    #[should_panic(expected = "no GL lane")]
    fn gl_request_requires_gl_lane() {
        let fabric = InhibitFabric::new(CircuitConfig::new(4, 4, false));
        let lrg = Lrg::new(4);
        let _ = fabric.arbitrate(
            &[
                PortRequest::Gl,
                PortRequest::Idle,
                PortRequest::Idle,
                PortRequest::Idle,
            ],
            &lrg,
            &lrg,
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn msb_value_must_fit_lanes() {
        let fabric = InhibitFabric::new(CircuitConfig::new(4, 4, false));
        let lrg = Lrg::new(4);
        let _ = fabric.arbitrate(
            &[
                gb(4),
                PortRequest::Idle,
                PortRequest::Idle,
                PortRequest::Idle,
            ],
            &lrg,
            &lrg,
        );
    }

    #[test]
    fn stuck_at_zero_silences_the_rightful_winner() {
        let mut fabric = InhibitFabric::new(CircuitConfig::new(8, 8, false));
        let lrg = Lrg::new(8);
        let mut ports = vec![PortRequest::Idle; 8];
        ports[0] = gb(6);
        ports[2] = gb(4);
        // Healthy: In2 wins (Fig. 1 example subset).
        let out = fabric.arbitrate(&ports, &lrg, &lrg);
        assert_eq!(out.winner(), Some(2));
        // Stick In2's sense wire (lane 4, pos 2) at 0: it can never
        // sense a win, so nobody wins even though requests are pending —
        // the starvation signature the detection layer looks for.
        fabric.fault_stick_wire(4, 2, false);
        let out = fabric.arbitrate(&ports, &lrg, &lrg);
        assert_eq!(out.winner(), None);
        assert!(out.winners().is_empty());
        // Healing restores the grant.
        fabric.heal_wire(4, 2);
        assert!(!fabric.is_faulted());
        let out = fabric.arbitrate(&ports, &lrg, &lrg);
        assert_eq!(out.winner(), Some(2));
    }

    #[test]
    fn stuck_at_one_produces_an_observable_multi_grant() {
        let mut fabric = InhibitFabric::new(CircuitConfig::new(8, 8, false));
        let lrg = Lrg::new(8);
        let mut ports = vec![PortRequest::Idle; 8];
        ports[0] = gb(6);
        ports[2] = gb(4);
        // Stick In0's sense wire (lane 6, pos 0) at 1: In0 now senses a
        // win alongside the rightful winner In2 — reported, not a panic.
        fabric.fault_stick_wire(6, 0, true);
        let out = fabric.arbitrate(&ports, &lrg, &lrg);
        assert!(out.is_multi_grant(), "winners = {:?}", out.winners());
        assert_eq!(out.winners(), &[0, 2]);
        assert_eq!(out.winner(), Some(0));
    }

    #[test]
    fn restick_overwrites_and_heal_all_clears() {
        let mut fabric = InhibitFabric::new(CircuitConfig::new(4, 4, false));
        fabric.fault_stick_wire(1, 1, false);
        fabric.fault_stick_wire(1, 1, true);
        assert_eq!(fabric.stuck_wires().len(), 1);
        assert!(fabric.stuck_wires()[0].charged);
        fabric.fault_stick_wire(2, 0, false);
        assert_eq!(fabric.stuck_wires().len(), 2);
        fabric.heal_all();
        assert!(!fabric.is_faulted());
    }

    #[test]
    #[should_panic(expected = "lane out of range")]
    fn stuck_wire_must_fit_geometry() {
        let mut fabric = InhibitFabric::new(CircuitConfig::new(4, 4, false));
        fabric.fault_stick_wire(4, 0, true);
    }

    #[test]
    fn exactly_one_winner_under_full_gb_load() {
        let fabric = InhibitFabric::new(CircuitConfig::new(8, 8, false));
        let mut lrg = Lrg::new(8);
        for round in 0..32u64 {
            let ports: Vec<PortRequest> = (0..8).map(|i| gb((i as u64 + round) % 8)).collect();
            let out = fabric.arbitrate(&ports, &lrg, &lrg);
            let w = out.winner().expect("full load must produce a winner");
            lrg.grant(w);
        }
    }
}
