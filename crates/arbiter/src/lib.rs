//! Switch arbitration policies for a single-stage high-radix switch.
//!
//! This crate implements both the paper's core mechanism and the
//! background/baseline schedulers its §2.2 surveys:
//!
//! | Policy | Type | Paper role |
//! |--------|------|-----------|
//! | [`Lrg`] | least recently granted (matrix arbiter) | Swizzle Switch default / BE class / SSVC tie-break |
//! | [`FourLevel`] | fixed priority across 4 levels, LRG within | prior Swizzle Switch QoS (Satpathy et al., DAC'12, ref \[14]) |
//! | [`Gsf`] | globally-synchronized frames (local adaptation) | frame-based baseline (Lee et al., ISCA'08, ref \[8]) |
//! | [`Wrr`] | weighted round robin | static-guarantee baseline (underutilizes leftover bandwidth) |
//! | [`Dwrr`] | deficit weighted round robin | static-guarantee baseline |
//! | [`Wfq`] | self-clocked fair queueing (WFQ family) | O(N) finish-time baseline |
//! | [`VirtualClock`] | exact Virtual Clock (Zhang, SIGCOMM'90) | the algorithm SSVC adapts; "Original Virtual Clock" curve of Fig. 5 |
//! | [`SsvcArbiter`] | coarse thermometer-coded Virtual Clock + LRG tie-break | **the paper's contribution** (§3.1) |
//!
//! All policies implement the [`Arbiter`] trait: given the set of inputs
//! requesting one output channel this cycle, pick a winner and update
//! internal state. Arbitration is work-conserving — a winner is returned
//! whenever at least one input requests.
//!
//! # Examples
//!
//! ```
//! use ssq_arbiter::{Arbiter, Lrg, Request};
//! use ssq_types::Cycle;
//!
//! let mut lrg = Lrg::new(4);
//! let reqs = [Request::new(1, 8), Request::new(3, 8)];
//! let first = lrg.arbitrate(Cycle::ZERO, &reqs).expect("work conserving");
//! let second = lrg.arbitrate(Cycle::ZERO, &reqs).expect("work conserving");
//! // After winning, an input becomes least preferred: the other wins next.
//! assert_ne!(first, second);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::cast_possible_truncation
    )
)]

mod dwrr;
mod four_level;
mod gsf;
mod lrg;
mod request;
mod ssvc;
mod virtual_clock;
mod wfq;
mod wrr;

pub use dwrr::Dwrr;
pub use four_level::FourLevel;
pub use gsf::Gsf;
pub use lrg::Lrg;
pub use request::Request;
pub use ssvc::{CounterPolicy, SsvcArbiter, SsvcConfig};
pub use virtual_clock::{vtick_for_rate, VirtualClock};
pub use wfq::Wfq;
pub use wrr::Wrr;

use ssq_types::Cycle;

/// A single-resource arbiter: chooses which of the requesting inputs is
/// granted one output channel for the next packet.
///
/// Implementations are *work conserving*: they return `Some` winner
/// whenever `requests` is non-empty (the Virtual Clock family explicitly
/// redistributes idle slots rather than wasting them, unlike strict TDM —
/// paper §2.2).
///
/// The `now` argument carries the real-time clock for policies that
/// consult it (Virtual Clock's anti-banking `max(auxVC, real time)`
/// step); purely state-based policies ignore it.
pub trait Arbiter {
    /// Number of inputs this arbiter was sized for.
    fn num_inputs(&self) -> usize;

    /// Picks a winner among `requests` and updates arbitration state.
    ///
    /// Returns `None` only when `requests` is empty. Duplicate input
    /// indices in `requests` are not allowed.
    ///
    /// # Panics
    ///
    /// Implementations may panic if a request's input index is out of
    /// range — that is a harness bug, not a runtime condition.
    fn arbitrate(&mut self, now: Cycle, requests: &[Request]) -> Option<usize>;

    /// Predicts the winner [`Arbiter::arbitrate`] would pick for the same
    /// `requests` at the same `now`, **without mutating state**.
    ///
    /// This is the decision half of the switch kernel's decide/commit
    /// split: every output is decided against state the decide phase only
    /// reads (on several threads under `ssq_sim::ParRunner`), and the
    /// serial commit replays the winning choice through `arbitrate` (or
    /// a policy's dedicated commit entry point). The contract is exact agreement:
    /// for any state S, `S.decide(now, reqs) == S.arbitrate(now, reqs)`
    /// where the right-hand side runs on a clone of S.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Arbiter::arbitrate`].
    fn decide(&self, now: Cycle, requests: &[Request]) -> Option<usize>;

    /// Advances per-cycle internal clocks, if the policy has any.
    ///
    /// The default implementation does nothing. [`SsvcArbiter`] uses this
    /// to run the real-time subcounter of its *subtract real clock*
    /// counter-management policy.
    fn tick(&mut self) {}

    /// Notes a packet joining `input`'s queue at `now`, for the policies
    /// that stamp packets on arrival. The default does nothing;
    /// [`VirtualClock`] runs its arrival steps here.
    fn note_arrival(&mut self, _input: usize, _now: Cycle) {}
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Every policy must be usable as a trait object so the switch can be
    /// configured with a policy at runtime.
    #[test]
    fn arbiters_are_object_safe() {
        let arbiters: Vec<Box<dyn Arbiter>> = vec![
            Box::new(Lrg::new(4)),
            Box::new(Gsf::new(&[1, 2, 3, 4], 16)),
            Box::new(Wrr::new(&[1, 2, 3, 4])),
            Box::new(Dwrr::new(&[8, 8, 8, 8])),
            Box::new(Wfq::new(&[1.0, 2.0, 3.0, 4.0])),
            Box::new(VirtualClock::new(&[10.0, 20.0, 30.0, 40.0])),
        ];
        for mut a in arbiters {
            assert_eq!(a.num_inputs(), 4);
            assert_eq!(a.arbitrate(Cycle::ZERO, &[]), None);
            let w = a.arbitrate(Cycle::ZERO, &[Request::new(2, 1)]);
            assert_eq!(w, Some(2));
        }
    }

    /// Work conservation: any non-empty request set yields a winner drawn
    /// from the request set, for every policy.
    #[test]
    fn arbiters_are_work_conserving() {
        let mut arbiters: Vec<Box<dyn Arbiter>> = vec![
            Box::new(Lrg::new(8)),
            Box::new(Gsf::new(&[4; 8], 64)),
            Box::new(Wrr::new(&[1; 8])),
            Box::new(Dwrr::new(&[4; 8])),
            Box::new(Wfq::new(&[1.0; 8])),
            Box::new(VirtualClock::new(&[8.0; 8])),
        ];
        let reqs: Vec<Request> = [0usize, 3, 5, 7]
            .iter()
            .map(|&i| Request::new(i, 4))
            .collect();
        for a in &mut arbiters {
            for step in 0..32 {
                let w = a
                    .arbitrate(Cycle::new(step), &reqs)
                    .expect("non-empty requests must produce a winner");
                assert!(
                    reqs.iter().any(|r| r.input() == w),
                    "winner not a requester"
                );
            }
        }
    }

    /// The decide/commit contract: across evolving state, `decide` must
    /// predict exactly what the next `arbitrate` picks, and must not
    /// perturb the sequence (interleaving extra `decide` calls changes
    /// nothing).
    #[test]
    fn decide_predicts_arbitrate_for_every_policy() {
        let mut arbiters: Vec<Box<dyn Arbiter>> = vec![
            Box::new(Lrg::new(8)),
            Box::new(FourLevel::new(8)),
            Box::new(Gsf::new(&[4; 8], 64)),
            Box::new(Wrr::new(&[1, 2, 3, 4, 1, 2, 3, 4])),
            Box::new(Dwrr::new(&[4; 8])),
            Box::new(Wfq::new(&[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0])),
            Box::new(VirtualClock::new(&[
                8.0, 16.0, 24.0, 8.0, 16.0, 24.0, 8.0, 16.0,
            ])),
            Box::new(SsvcArbiter::new(
                SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock),
                &[20, 40, 80, 20, 40, 80, 20, 40],
            )),
        ];
        let mut rng = ssq_types::rng::Xoshiro256StarStar::seed_from_u64(0xD1C1DE);
        for a in &mut arbiters {
            for step in 0..200u64 {
                let now = Cycle::new(step);
                a.tick();
                let mut reqs = Vec::new();
                for i in 0..8 {
                    if rng.chance(0.4) {
                        reqs.push(
                            Request::new(i, 1 + rng.below(8)).with_level((rng.below(4)) as u8),
                        );
                    }
                }
                let predicted = a.decide(now, &reqs);
                let re_predicted = a.decide(now, &reqs);
                assert_eq!(predicted, re_predicted, "decide must be pure");
                let actual = a.arbitrate(now, &reqs);
                assert_eq!(predicted, actual, "decide diverged at step {step}");
            }
        }
    }
}
