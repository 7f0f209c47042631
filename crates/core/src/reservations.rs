//! Bandwidth allocation to traffic classes (paper §3.3).

use std::fmt;

use ssq_trace::ReadmitAction;
use ssq_types::{InputId, OutputId, Rate, TrafficClass};

use crate::config::ConfigError;

/// One GB flow's reservation: a fraction of the output channel's
/// bandwidth and the nominal packet length the flow uses (needed to
/// derive its `Vtick`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbReservation {
    rate: Rate,
    packet_flits: u64,
}

impl GbReservation {
    /// The reserved fraction of the output channel's bandwidth.
    #[must_use]
    pub const fn rate(self) -> Rate {
        self.rate
    }

    /// The flow's nominal packet length in flits.
    #[must_use]
    pub const fn packet_flits(self) -> u64 {
        self.packet_flits
    }
}

/// One re-admission decision, ready to be emitted as a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[must_use]
pub struct ReadmitDecision {
    /// The flow's input (input 0 stands in for the shared GL class).
    pub input: InputId,
    /// The flow's output.
    pub output: OutputId,
    /// The class the reservation held *before* the decision.
    pub class: TrafficClass,
    /// What happened to it.
    pub action: ReadmitAction,
}

/// Per-output bandwidth allocations: "each individual input may request a
/// fraction of the output channel's bandwidth; therefore, there can be as
/// many GB flows per output as there are inputs. For the GL class, the
/// output reserves a small fraction of bandwidth for any GL packet
/// injected from any input … the sum of bandwidth allocated to all GB
/// flows and the GL class should be less than or equal to the total
/// bandwidth capacity of the output channel." (§3.3)
///
/// # Examples
///
/// ```
/// use ssq_core::Reservations;
/// use ssq_types::{InputId, OutputId, Rate};
///
/// let mut res = Reservations::new(4);
/// res.reserve_gb(InputId::new(0), OutputId::new(1), Rate::new(0.5)?, 8)?;
/// res.reserve_gl(OutputId::new(1), Rate::new(0.1)?)?;
/// assert!((res.allocated(OutputId::new(1)) - 0.6).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Reservations {
    radix: usize,
    gb: Vec<Option<GbReservation>>,
    gl: Vec<Rate>,
}

impl Reservations {
    /// Creates an empty allocation table for a `radix × radix` switch.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero.
    #[must_use]
    pub fn new(radix: usize) -> Self {
        assert!(radix > 0, "radix must be positive");
        Reservations {
            radix,
            gb: vec![None; radix * radix],
            gl: vec![Rate::ZERO; radix],
        }
    }

    /// The switch radix this table covers.
    #[must_use]
    pub const fn radix(&self) -> usize {
        self.radix
    }

    /// Reserves `rate` of `output`'s bandwidth for the GB flow from
    /// `input`, sending `packet_flits`-flit packets.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Oversubscribed`] if the output's total
    /// allocation (GB flows + GL) would exceed its capacity, and
    /// [`ConfigError::ZeroRate`] for an empty reservation (remove it by
    /// not reserving instead).
    pub fn reserve_gb(
        &mut self,
        input: InputId,
        output: OutputId,
        rate: Rate,
        packet_flits: u64,
    ) -> Result<(), ConfigError> {
        assert!(input.index() < self.radix && output.index() < self.radix);
        assert!(packet_flits > 0, "packets need at least one flit");
        if rate.is_zero() {
            return Err(ConfigError::ZeroRate { input, output });
        }
        let idx = input.index() * self.radix + output.index();
        let previous = self.gb[idx];
        self.gb[idx] = Some(GbReservation { rate, packet_flits });
        if self.allocated(output) > 1.0 + 1e-9 {
            self.gb[idx] = previous;
            return Err(ConfigError::Oversubscribed {
                output,
                allocated: self.allocated(output) + rate.value(),
            });
        }
        Ok(())
    }

    /// Records a GB reservation *without* the admission guard — for
    /// tables read from external sources (traces, sweep specs) where
    /// admission is deferred to the static analyzer:
    /// `SwitchConfig::analyze` reports an over-subscribed output as an
    /// `SSQ001` error instead of failing at insertion time, so the whole
    /// table can be diagnosed in one pass.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range or `packet_flits` is zero.
    pub fn reserve_gb_unchecked(
        &mut self,
        input: InputId,
        output: OutputId,
        rate: Rate,
        packet_flits: u64,
    ) {
        assert!(input.index() < self.radix && output.index() < self.radix);
        assert!(packet_flits > 0, "packets need at least one flit");
        let idx = input.index() * self.radix + output.index();
        self.gb[idx] = Some(GbReservation { rate, packet_flits });
    }

    /// Reserves `rate` of `output`'s bandwidth for the GL class (shared
    /// by all inputs).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Oversubscribed`] if the output would exceed
    /// its capacity.
    pub fn reserve_gl(&mut self, output: OutputId, rate: Rate) -> Result<(), ConfigError> {
        assert!(output.index() < self.radix);
        let previous = self.gl[output.index()];
        self.gl[output.index()] = rate;
        if self.allocated(output) > 1.0 + 1e-9 {
            self.gl[output.index()] = previous;
            return Err(ConfigError::Oversubscribed {
                output,
                allocated: self.allocated(output),
            });
        }
        Ok(())
    }

    /// The GB reservation of flow `(input, output)`, if any.
    #[must_use]
    pub fn gb(&self, input: InputId, output: OutputId) -> Option<GbReservation> {
        assert!(input.index() < self.radix && output.index() < self.radix);
        self.gb[input.index() * self.radix + output.index()]
    }

    /// The GL class allocation at `output` (zero when `output` exceeds
    /// the radix — an unknown output has nothing allocated).
    #[must_use]
    pub fn gl(&self, output: OutputId) -> Rate {
        self.gl.get(output.index()).copied().unwrap_or(Rate::ZERO)
    }

    /// Total fraction of `output`'s bandwidth currently allocated
    /// (GB flows + GL class).
    #[must_use]
    pub fn allocated(&self, output: OutputId) -> f64 {
        let gb_sum: f64 = (0..self.radix)
            .filter_map(|i| self.gb[i * self.radix + output.index()])
            .map(|r| r.rate().value())
            .sum();
        gb_sum + self.gl[output.index()].value()
    }

    /// Whether any GL bandwidth is reserved anywhere — determines whether
    /// the switch needs a GL lane.
    #[must_use]
    pub fn any_gl(&self) -> bool {
        self.gl.iter().any(|r| !r.is_zero())
    }

    /// Re-runs admission for one output against a post-fault capacity,
    /// mutating the table to fit and returning one decision per affected
    /// reservation — the re-admission layer of the degradation ladder
    /// (DESIGN.md §8).
    ///
    /// Deterministic protocol:
    ///
    /// 1. If `gl_lane_lost` and the output carries a GL allocation, the
    ///    GL class is *demoted*: its reserved rate is re-booked as a GB
    ///    reservation from every input that does not already hold one
    ///    cheaper — modelled here by clearing the GL rate (the bound is
    ///    forfeited; the caller emits the `GuaranteeRevoked` event) and
    ///    recording a [`ReadmitAction::Demote`].
    /// 2. While the output's total allocation exceeds `capacity`, the GB
    ///    flow with the **largest** rate is evicted (largest first so the
    ///    fewest flows lose service); rate ties break toward the higher
    ///    input index, so low-numbered inputs — conventionally the
    ///    latency-critical ones — survive longest.
    /// 3. Every reservation still standing gets a
    ///    [`ReadmitAction::Keep`], so the trace records a decision for
    ///    every flow the fault touched, not only the casualties.
    ///
    /// The same SSQ001 admission predicate used at config time
    /// (`allocated <= capacity`) holds on return.
    pub fn readmit(
        &mut self,
        output: OutputId,
        capacity: f64,
        gl_lane_lost: bool,
    ) -> Vec<ReadmitDecision> {
        assert!(output.index() < self.radix);
        assert!(capacity >= 0.0, "capacity cannot be negative");
        let mut decisions = Vec::new();
        if gl_lane_lost && !self.gl[output.index()].is_zero() {
            self.gl[output.index()] = Rate::ZERO;
            decisions.push(ReadmitDecision {
                // GL is a shared per-output class; input 0 stands for it.
                input: InputId::new(0),
                output,
                class: TrafficClass::GuaranteedLatency,
                action: ReadmitAction::Demote,
            });
        }
        while self.allocated(output) > capacity + 1e-9 {
            let victim = (0..self.radix)
                .filter_map(|i| {
                    self.gb[i * self.radix + output.index()].map(|r| (i, r.rate().value()))
                })
                // max_by prefers later elements on ties, so the higher
                // input index loses the tie-break.
                .max_by(|a, b| a.1.total_cmp(&b.1));
            let Some((input, _)) = victim else {
                // Only the GL class remains and still does not fit.
                if !self.gl[output.index()].is_zero() {
                    self.gl[output.index()] = Rate::ZERO;
                    decisions.push(ReadmitDecision {
                        input: InputId::new(0),
                        output,
                        class: TrafficClass::GuaranteedLatency,
                        action: ReadmitAction::Evict,
                    });
                }
                break;
            };
            self.gb[input * self.radix + output.index()] = None;
            decisions.push(ReadmitDecision {
                input: InputId::new(input),
                output,
                class: TrafficClass::GuaranteedBandwidth,
                action: ReadmitAction::Evict,
            });
        }
        for i in 0..self.radix {
            if self.gb[i * self.radix + output.index()].is_some() {
                decisions.push(ReadmitDecision {
                    input: InputId::new(i),
                    output,
                    class: TrafficClass::GuaranteedBandwidth,
                    action: ReadmitAction::Keep,
                });
            }
        }
        if !self.gl[output.index()].is_zero() {
            decisions.push(ReadmitDecision {
                input: InputId::new(0),
                output,
                class: TrafficClass::GuaranteedLatency,
                action: ReadmitAction::Keep,
            });
        }
        decisions
    }

    /// Iterates over all GB reservations as `(input, output, reservation)`.
    pub fn iter_gb(&self) -> impl Iterator<Item = (InputId, OutputId, GbReservation)> + '_ {
        self.gb.iter().enumerate().filter_map(move |(idx, r)| {
            r.map(|res| {
                (
                    InputId::new(idx / self.radix),
                    OutputId::new(idx % self.radix),
                    res,
                )
            })
        })
    }
}

impl fmt::Display for Reservations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flows = self.iter_gb().count();
        write!(
            f,
            "{} GB reservations on a {}x{} switch",
            flows, self.radix, self.radix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> InputId {
        InputId::new(i)
    }
    fn out(o: usize) -> OutputId {
        OutputId::new(o)
    }
    fn rate(r: f64) -> Rate {
        Rate::new(r).unwrap()
    }

    #[test]
    fn figure4b_reservation_vector_fits() {
        let mut res = Reservations::new(8);
        let rates = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];
        for (i, &r) in rates.iter().enumerate() {
            res.reserve_gb(id(i), out(0), rate(r), 8).unwrap();
        }
        assert!((res.allocated(out(0)) - 1.0).abs() < 1e-9);
        assert_eq!(res.iter_gb().count(), 8);
    }

    #[test]
    fn oversubscription_is_rejected_and_rolled_back() {
        let mut res = Reservations::new(2);
        res.reserve_gb(id(0), out(0), rate(0.7), 8).unwrap();
        let err = res.reserve_gb(id(1), out(0), rate(0.5), 8).unwrap_err();
        assert!(matches!(err, ConfigError::Oversubscribed { .. }));
        // The failed reservation must not stick.
        assert!(res.gb(id(1), out(0)).is_none());
        assert!((res.allocated(out(0)) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn gl_counts_toward_the_output_budget() {
        let mut res = Reservations::new(2);
        res.reserve_gb(id(0), out(1), rate(0.95), 4).unwrap();
        assert!(res.reserve_gl(out(1), rate(0.1)).is_err());
        assert!(res.reserve_gl(out(1), rate(0.05)).is_ok());
        assert!(res.any_gl());
    }

    #[test]
    fn outputs_have_independent_budgets() {
        let mut res = Reservations::new(2);
        res.reserve_gb(id(0), out(0), rate(1.0), 8).unwrap();
        res.reserve_gb(id(0), out(1), rate(1.0), 8).unwrap();
        assert!((res.allocated(out(0)) - 1.0).abs() < 1e-9);
        assert!((res.allocated(out(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn re_reserving_replaces_not_accumulates() {
        let mut res = Reservations::new(2);
        res.reserve_gb(id(0), out(0), rate(0.6), 8).unwrap();
        res.reserve_gb(id(0), out(0), rate(0.8), 4).unwrap();
        let r = res.gb(id(0), out(0)).unwrap();
        assert_eq!(r.rate(), rate(0.8));
        assert_eq!(r.packet_flits(), 4);
        assert!((res.allocated(out(0)) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_reservation_rejected() {
        let mut res = Reservations::new(2);
        assert!(matches!(
            res.reserve_gb(id(0), out(0), Rate::ZERO, 8),
            Err(ConfigError::ZeroRate { .. })
        ));
    }

    #[test]
    fn empty_table_reports_no_gl() {
        let res = Reservations::new(4);
        assert!(!res.any_gl());
        assert_eq!(res.allocated(out(3)), 0.0);
    }

    #[test]
    fn readmit_evicts_largest_rates_first_until_fit() {
        let mut res = Reservations::new(4);
        res.reserve_gb(id(0), out(0), rate(0.1), 8).unwrap();
        res.reserve_gb(id(1), out(0), rate(0.4), 8).unwrap();
        res.reserve_gb(id(2), out(0), rate(0.3), 8).unwrap();
        // Capacity halves: 0.8 allocated must fit into 0.5. Evict the
        // 0.4 flow (input 1); 0.1 + 0.3 = 0.4 then fits.
        let decisions = res.readmit(out(0), 0.5, false);
        assert!(res.allocated(out(0)) <= 0.5 + 1e-9);
        assert!(res.gb(id(1), out(0)).is_none());
        let evicted: Vec<usize> = decisions
            .iter()
            .filter(|d| d.action == ReadmitAction::Evict)
            .map(|d| d.input.index())
            .collect();
        assert_eq!(evicted, vec![1]);
        let kept: Vec<usize> = decisions
            .iter()
            .filter(|d| d.action == ReadmitAction::Keep)
            .map(|d| d.input.index())
            .collect();
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn readmit_rate_ties_break_toward_higher_input() {
        let mut res = Reservations::new(4);
        res.reserve_gb(id(0), out(0), rate(0.4), 8).unwrap();
        res.reserve_gb(id(3), out(0), rate(0.4), 8).unwrap();
        let decisions = res.readmit(out(0), 0.4, false);
        // Input 3 loses the tie; input 0 survives.
        assert!(res.gb(id(0), out(0)).is_some());
        assert!(res.gb(id(3), out(0)).is_none());
        assert_eq!(
            decisions
                .iter()
                .filter(|d| d.action == ReadmitAction::Evict)
                .count(),
            1
        );
    }

    #[test]
    fn readmit_demotes_gl_when_its_lane_is_lost() {
        let mut res = Reservations::new(2);
        res.reserve_gb(id(0), out(1), rate(0.5), 8).unwrap();
        res.reserve_gl(out(1), rate(0.1)).unwrap();
        let decisions = res.readmit(out(1), 1.0, true);
        assert!(res.gl(out(1)).is_zero());
        assert_eq!(decisions[0].action, ReadmitAction::Demote);
        assert_eq!(decisions[0].class, TrafficClass::GuaranteedLatency);
        // The GB flow fits untouched.
        assert!(res.gb(id(0), out(1)).is_some());
    }

    #[test]
    fn readmit_is_deterministic() {
        let build = || {
            let mut res = Reservations::new(8);
            for i in 0..8 {
                res.reserve_gb(id(i), out(0), rate(0.1), 8).unwrap();
            }
            res.reserve_gl(out(0), rate(0.2)).unwrap();
            res
        };
        let mut a = build();
        let mut b = build();
        assert_eq!(a.readmit(out(0), 0.35, true), b.readmit(out(0), 0.35, true));
        assert_eq!(a, b);
    }

    #[test]
    fn readmit_zero_capacity_clears_the_output() {
        let mut res = Reservations::new(2);
        res.reserve_gb(id(0), out(0), rate(0.3), 8).unwrap();
        res.reserve_gl(out(0), rate(0.1)).unwrap();
        let decisions = res.readmit(out(0), 0.0, false);
        assert_eq!(res.allocated(out(0)), 0.0);
        assert!(decisions.iter().all(|d| d.action == ReadmitAction::Evict));
    }
}
