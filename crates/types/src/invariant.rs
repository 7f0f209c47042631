//! The machine-checkable invariant catalog (V1–V6) of the arbitration
//! pipeline, as pure predicates over primitive values.
//!
//! Two consumers compile these exact predicates:
//!
//! * `ssq-verify` evaluates them over every reachable state of a small
//!   switch (the bounded exhaustive model checker), and
//! * `ssq-core`'s `sanitizer` cargo feature compiles them into
//!   assertion checks at the grant/inhibit hot-path sites.
//!
//! Keeping the predicates here — in the dependency-free vocabulary
//! crate — guarantees the offline checker and the runtime sanitizer can
//! never drift apart. Each predicate documents which `SSQV00x`
//! diagnostic it backs (see DESIGN.md §7 for the full table):
//!
//! | code    | invariant                                                |
//! |---------|----------------------------------------------------------|
//! | SSQV001 | V1 — exactly one grant per output bus per cycle          |
//! | SSQV002 | V2 — thermometer codes are monotone/well-formed          |
//! | SSQV003 | V3 — `auxVC` never exceeds its configured width          |
//! | SSQV004 | V4 — LRG never starves a continuous requester > radix    |
//! | SSQV005 | V5 — observed GL wait never exceeds the Eq. 1 bound      |
//! | SSQV006 | V6 — behavioural arbiter ≡ bitline circuit model         |
//!
//! [`Invariant`] names one row of that table; its [`Invariant::code`] is
//! the label a trace's `detected` event and a counterexample carry.

use std::fmt;

/// One invariant of the V1–V6 catalog.
///
/// Codes are append-only; the same strings prefix the sanitizer's
/// assertion messages in `ssq-core`, so a post-mortem flight dump and a
/// model-checker counterexample are grep-able by one identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    /// V1: an output bus carries exactly one grant per cycle.
    SingleGrant,
    /// V2: thermometer codes stay monotone and well-formed.
    Thermometer,
    /// V3: `auxVC` never exceeds its configured width.
    AuxWidth,
    /// V4: LRG never starves a continuously-requesting BE input.
    LrgStarvation,
    /// V5: observed GL waiting time respects the Eq. 1 bound.
    GlBound,
    /// V6: behavioural arbiter and bitline circuit model agree.
    GrantAgreement,
}

impl Invariant {
    /// The whole catalog, V1 first.
    pub const ALL: [Invariant; 6] = [
        Invariant::SingleGrant,
        Invariant::Thermometer,
        Invariant::AuxWidth,
        Invariant::LrgStarvation,
        Invariant::GlBound,
        Invariant::GrantAgreement,
    ];

    /// The stable diagnostic code (`SSQV001`..`SSQV006`), disjoint from
    /// the analyzer's `SSQ0xx` codes.
    #[must_use]
    pub const fn code(self) -> &'static str {
        match self {
            Invariant::SingleGrant => "SSQV001",
            Invariant::Thermometer => "SSQV002",
            Invariant::AuxWidth => "SSQV003",
            Invariant::LrgStarvation => "SSQV004",
            Invariant::GlBound => "SSQV005",
            Invariant::GrantAgreement => "SSQV006",
        }
    }

    /// The short catalog name (`V1`..`V6`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Invariant::SingleGrant => "V1",
            Invariant::Thermometer => "V2",
            Invariant::AuxWidth => "V3",
            Invariant::LrgStarvation => "V4",
            Invariant::GlBound => "V5",
            Invariant::GrantAgreement => "V6",
        }
    }
}

/// Displays as the code.
impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// V1 (SSQV001): an output bus carries exactly one grant per cycle.
///
/// `charged_senses` counts how many requesting inputs sensed a
/// still-charged wire after the inhibit phase; with at least one
/// requester present it must be exactly one.
#[must_use]
pub const fn single_grant(charged_senses: usize, any_requester: bool) -> bool {
    if any_requester {
        charged_senses == 1
    } else {
        charged_senses == 0
    }
}

/// V2 (SSQV002): a thermometer code is well formed — a non-empty block
/// of contiguous low-order ones (`0b1`, `0b11`, `0b111`, …), so the
/// sense lane it encodes is unambiguous and monotone in the counter's
/// significant bits.
///
/// # Examples
///
/// ```
/// use ssq_types::invariant::thermometer_well_formed;
///
/// assert!(thermometer_well_formed(0b1));
/// assert!(thermometer_well_formed(0b111));
/// assert!(!thermometer_well_formed(0));      // no lane selected
/// assert!(!thermometer_well_formed(0b101));  // hole in the code
/// assert!(!thermometer_well_formed(0b110));  // does not start at bit 0
/// ```
#[must_use]
pub const fn thermometer_well_formed(code: u64) -> bool {
    code != 0 && code & code.wrapping_add(1) == 0
}

/// V3 (SSQV003): an `auxVC` counter stays within its configured width.
#[must_use]
pub const fn aux_within_cap(aux: u64, saturation_cap: u64) -> bool {
    aux <= saturation_cap
}

/// V4 (SSQV004): least-recently-granted arbitration cannot starve a
/// continuously-requesting input. With `radix` competitors, every loss
/// demotes the winner below the loser, so `radix` consecutive losses
/// while continuously requesting are impossible.
#[must_use]
pub const fn lrg_no_starvation(consecutive_losses: u64, radix: usize) -> bool {
    consecutive_losses < radix as u64
}

/// V5 (SSQV005): an observed GL waiting time respects the Eq. 1 bound
/// (compute the bound with [`crate::bounds::gl_latency_bound`]).
#[must_use]
pub const fn gl_wait_within_bound(waited: u64, eq1_bound: u64) -> bool {
    waited <= eq1_bound
}

/// V6 (SSQV006): the behavioural arbiter and the bitline circuit model
/// agree — same winner (and both or neither produced one).
#[must_use]
pub fn grants_agree(behavioural: Option<usize>, circuit: Option<usize>) -> bool {
    behavioural == circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_names_follow_the_catalog_order() {
        for (n, inv) in (1..).zip(Invariant::ALL) {
            assert_eq!(inv.code(), format!("SSQV00{n}"));
            assert_eq!(inv.name(), format!("V{n}"));
        }
    }

    #[test]
    fn single_grant_requires_exactly_one_charged_sense() {
        assert!(single_grant(1, true));
        assert!(!single_grant(0, true));
        assert!(!single_grant(2, true));
        assert!(single_grant(0, false));
        assert!(!single_grant(1, false));
    }

    #[test]
    fn well_formed_codes_are_contiguous_low_ones() {
        for lanes in 1..=63u32 {
            let code = (1u64 << lanes) - 1;
            assert!(thermometer_well_formed(code), "{code:#b}");
        }
        assert!(thermometer_well_formed(u64::MAX));
        for bad in [0u64, 0b10, 0b101, 0b1011, 0b1000] {
            assert!(!thermometer_well_formed(bad), "{bad:#b}");
        }
    }

    #[test]
    fn aux_cap_is_inclusive() {
        assert!(aux_within_cap(15, 15));
        assert!(!aux_within_cap(16, 15));
    }

    #[test]
    fn starvation_threshold_is_the_radix() {
        assert!(lrg_no_starvation(0, 4));
        assert!(lrg_no_starvation(3, 4));
        assert!(!lrg_no_starvation(4, 4));
    }

    #[test]
    fn gl_bound_is_inclusive() {
        assert!(gl_wait_within_bound(9, 9));
        assert!(!gl_wait_within_bound(10, 9));
    }

    #[test]
    fn agreement_covers_the_no_winner_case() {
        assert!(grants_agree(None, None));
        assert!(grants_agree(Some(2), Some(2)));
        assert!(!grants_agree(Some(2), Some(1)));
        assert!(!grants_agree(Some(0), None));
    }
}
