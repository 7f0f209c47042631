//! The per-lane discharge-decision circuits (Fig. 1(b) and Fig. 3).

use ssq_arbiter::Lrg;

/// What an input drives onto one lane's bitlines during arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a dropped lane decision means the input drives nothing"]
pub enum LaneDecision {
    /// Discharge every wire in the lane: this input is strictly higher
    /// priority than anything sensing there.
    DischargeAll,
    /// Discharge per the input's LRG row: the tie lane, where equal
    /// thermometer codes are resolved by least-recently-granted priority.
    LrgRow,
    /// Drive nothing: this input is strictly lower priority than the lane.
    None,
}

/// The Fig. 1(b) circuit: from an input's thermometer code, decide what
/// it drives onto lane `lane`.
///
/// With thermometer bit `T[j] = 1 iff j <= msb_value` (the unary register
/// that "shifts up by 1 each time the most significant bits of auxVC
/// change"), the two adjacent bits `T[lane]` and `T[lane + 1]` select:
///
/// * `T[lane] = 0` (my value is **below** this lane) → discharge the whole
///   lane — a smaller `auxVC` defeats every input sensing a higher lane;
/// * `T[lane] = 1 ∧ T[lane+1] = 0` (my value **is** this lane) → drive my
///   LRG row bits — ties resolve by least recently granted;
/// * `T[lane+1] = 1` (my value is **above** this lane) → drive nothing.
///
/// For the topmost lane `T[lanes]` reads as 0 (there is no higher lane).
///
/// # Examples
///
/// ```
/// use ssq_circuit::{discharge_decision, LaneDecision};
///
/// // Fig. 1: In2 has MSB value 4 of 8 lanes.
/// assert_eq!(discharge_decision(4, 6), LaneDecision::DischargeAll); // beats lane 6
/// assert_eq!(discharge_decision(4, 4), LaneDecision::LrgRow);       // ties lane 4
/// assert_eq!(discharge_decision(4, 2), LaneDecision::None);         // loses to lane 2
/// ```
pub fn discharge_decision(msb_value: u64, lane: u64) -> LaneDecision {
    // T[lane]: 1 iff lane <= msb_value; T[lane + 1] reads 0 past the top.
    let t_lane = lane <= msb_value;
    let t_next = lane < msb_value;
    match (t_lane, t_next) {
        (false, _) => LaneDecision::DischargeAll,
        (true, false) => LaneDecision::LrgRow,
        (true, true) => LaneDecision::None,
    }
}

/// The Fig. 3 override for the Guaranteed Latency class: "In the presence
/// of a GL request, all bitlines in GB class lanes will be discharged."
///
/// Returns the decision a GL-requesting input drives onto a *GB* lane.
/// Within the dedicated GL lane itself, GL requesters drive their GL-LRG
/// rows (handled by the fabric, not this function).
///
/// # Examples
///
/// ```
/// use ssq_circuit::{gl_discharge_override, LaneDecision};
///
/// assert_eq!(gl_discharge_override(), LaneDecision::DischargeAll);
/// ```
pub fn gl_discharge_override() -> LaneDecision {
    LaneDecision::DischargeAll
}

/// Applies a [`LaneDecision`] from input `from` onto `lane` of the
/// bitline array, consulting the LRG state for the tie lane.
///
/// A pull-down transistor exists for every wire except the input's own
/// sense wire in the tie lane (an input never inhibits itself).
pub(crate) fn drive_lane(
    bitlines: &mut crate::Bitlines,
    lane: usize,
    from: usize,
    decision: LaneDecision,
    lrg: &Lrg,
) {
    match decision {
        LaneDecision::None => {}
        LaneDecision::DischargeAll => {
            for pos in 0..bitlines.radix() {
                bitlines.discharge(lane, pos);
            }
        }
        LaneDecision::LrgRow => {
            for pos in 0..bitlines.radix() {
                if pos != from && lrg.beats(from, pos) {
                    bitlines.discharge(lane, pos);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_table_is_exhaustive_for_eight_lanes() {
        for msb in 0..8u64 {
            for lane in 0..8u64 {
                let d = discharge_decision(msb, lane);
                let expected = if lane > msb {
                    LaneDecision::DischargeAll
                } else if lane == msb {
                    LaneDecision::LrgRow
                } else {
                    LaneDecision::None
                };
                assert_eq!(d, expected, "msb={msb} lane={lane}");
            }
        }
    }

    #[test]
    fn top_lane_ties_for_max_value() {
        // An input at the maximum thermometer value must drive LRG in the
        // top lane (T[lanes] reads 0 beyond the register).
        assert_eq!(discharge_decision(7, 7), LaneDecision::LrgRow);
    }

    #[test]
    fn zero_value_discharges_everything_above() {
        assert_eq!(discharge_decision(0, 0), LaneDecision::LrgRow);
        for lane in 1..8 {
            assert_eq!(discharge_decision(0, lane), LaneDecision::DischargeAll);
        }
    }

    #[test]
    fn drive_lane_respects_lrg_row() {
        let mut b = crate::Bitlines::new(4, 2);
        let mut lrg = Lrg::new(4);
        lrg.grant(0); // order 1,2,3,0: input 1 beats 2,3,0
        drive_lane(&mut b, 1, 1, LaneDecision::LrgRow, &lrg);
        assert!(!b.is_charged(1, 0));
        assert!(b.is_charged(1, 1), "input must not discharge its own wire");
        assert!(!b.is_charged(1, 2));
        assert!(!b.is_charged(1, 3));
    }

    #[test]
    fn drive_lane_discharge_all_covers_lane() {
        let mut b = crate::Bitlines::new(4, 2);
        let lrg = Lrg::new(4);
        drive_lane(&mut b, 0, 2, LaneDecision::DischargeAll, &lrg);
        for pos in 0..4 {
            assert!(!b.is_charged(0, pos));
        }
        assert_eq!(b.charged_count(), 4);
    }

    #[test]
    fn drive_lane_none_is_inert() {
        let mut b = crate::Bitlines::new(4, 1);
        let lrg = Lrg::new(4);
        drive_lane(&mut b, 0, 0, LaneDecision::None, &lrg);
        assert_eq!(b.charged_count(), 4);
    }
}
