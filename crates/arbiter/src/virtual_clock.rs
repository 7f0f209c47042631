//! The original Virtual Clock algorithm (Zhang, SIGCOMM'90).

use std::collections::VecDeque;

use ssq_types::Cycle;

use crate::{Arbiter, Request};

/// Exact Virtual Clock arbitration — the "Original Virtual Clock" curve
/// of Fig. 5 and the algorithm SSVC adapts (paper §2.2).
///
/// Each flow *i* owns a virtual clock `auxVC_i` and an increment
/// `Vtick_i`, the average inter-packet arrival time (in cycles) at the
/// flow's reserved rate. Upon each packet arrival (paper's algorithm
/// snippet):
///
/// 1. `auxVC ← max(auxVC, real_time)` — an idle flow may not bank
///    priority and later starve others with a burst;
/// 2. `auxVC ← auxVC + Vtick_i`;
/// 3. stamp the packet with `auxVC`.
///
/// Packets are transmitted in increasing stamp order. Emulating TDM this
/// way redistributes idle slots to flows with excess demand instead of
/// wasting them.
///
/// Call [`VirtualClock::on_arrival`] when a packet enters its input
/// queue; [`Arbiter::arbitrate`] then serves the smallest head-of-line
/// stamp. If a request arrives for an input with no queued stamp (e.g.
/// when driven through the generic [`Arbiter`] interface only), the
/// packet is stamped on the fly at arbitration time — transmission-time
/// stamping, the approximation the SSVC hardware makes.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, Request, VirtualClock};
/// use ssq_types::Cycle;
///
/// // Flow 0 reserves 4x the bandwidth of flow 1 (Vtick 10 vs 40).
/// let mut vc = VirtualClock::new(&[10.0, 40.0]);
/// let both = [Request::new(0, 8), Request::new(1, 8)];
/// let mut wins = [0u32; 2];
/// for _ in 0..100 {
///     wins[vc.arbitrate(Cycle::ZERO, &both).unwrap() as usize] += 1;
/// }
/// assert_eq!(wins, [80, 20]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualClock {
    vticks: Vec<f64>,
    aux_vc: Vec<f64>,
    /// Stamps of queued packets, in arrival order, per input.
    stamps: Vec<VecDeque<f64>>,
}

/// The `Vtick` of a flow: average inter-packet time in cycles for
/// `len_flits`-flit packets at a reserved fraction `rate` of the channel
/// bandwidth (in flits/cycle).
///
/// # Panics
///
/// Panics if `rate` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// // A flow with 40% of the channel sending 8-flit packets receives one
/// // packet slot every 20 cycles.
/// assert_eq!(ssq_arbiter::vtick_for_rate(0.4, 8), 20.0);
/// ```
#[must_use]
pub fn vtick_for_rate(rate: f64, len_flits: u64) -> f64 {
    assert!(
        rate > 0.0 && rate <= 1.0 && rate.is_finite(),
        "reserved rate {rate} outside (0, 1]"
    );
    len_flits as f64 / rate
}

impl VirtualClock {
    /// Creates a Virtual Clock arbiter with one `Vtick` per input, in
    /// cycles per packet.
    ///
    /// # Panics
    ///
    /// Panics if `vticks` is empty or any tick is not strictly positive
    /// and finite.
    #[must_use]
    pub fn new(vticks: &[f64]) -> Self {
        assert!(!vticks.is_empty(), "need at least one input");
        assert!(
            vticks.iter().all(|v| v.is_finite() && *v > 0.0),
            "Vticks must be positive and finite"
        );
        VirtualClock {
            vticks: vticks.to_vec(),
            aux_vc: vec![0.0; vticks.len()],
            stamps: vec![VecDeque::new(); vticks.len()],
        }
    }

    /// Runs the paper's three arrival steps for a packet entering
    /// `input`'s queue at `now`, and returns the stamp.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    pub fn on_arrival(&mut self, input: usize, now: Cycle) -> f64 {
        assert!(input < self.vticks.len(), "input {input} out of range");
        let real_time = now.value() as f64;
        self.aux_vc[input] = self.aux_vc[input].max(real_time) + self.vticks[input];
        let stamp = self.aux_vc[input];
        self.stamps[input].push_back(stamp);
        stamp
    }

    /// Current `auxVC` value of `input`, for inspection.
    #[must_use]
    pub fn aux_vc(&self, input: usize) -> f64 {
        self.aux_vc[input]
    }

    /// Number of stamped-but-unserved packets queued at `input`.
    #[must_use]
    pub fn queued(&self, input: usize) -> usize {
        self.stamps[input].len()
    }
}

impl Arbiter for VirtualClock {
    fn num_inputs(&self) -> usize {
        self.vticks.len()
    }

    fn arbitrate(&mut self, now: Cycle, requests: &[Request]) -> Option<usize> {
        if requests.is_empty() {
            return None;
        }
        // Ensure each requesting input has a head stamp, generating one on
        // the fly for un-stamped arrivals (transmission-time stamping).
        for r in requests {
            let i = r.input();
            assert!(i < self.vticks.len(), "input {i} out of range");
            if self.stamps[i].is_empty() {
                let _ = self.on_arrival(i, now);
            }
        }
        let winner = requests
            .iter()
            .map(|r| r.input())
            .filter_map(|i| self.stamps[i].front().map(|&s| (i, s)))
            .min_by(|&(a, sa), &(b, sb)| sa.total_cmp(&sb).then(a.cmp(&b)))
            .map(|(i, _)| i)?;
        self.stamps[winner].pop_front();
        Some(winner)
    }

    fn decide(&self, now: Cycle, requests: &[Request]) -> Option<usize> {
        // Arrival stamping mutates state even for losers, so prediction
        // replays the full arbitration against a scratch clone.
        self.clone().arbitrate(now, requests)
    }

    fn note_arrival(&mut self, input: usize, now: Cycle) {
        let _ = self.on_arrival(input, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtick_matches_definition() {
        assert_eq!(vtick_for_rate(0.05, 8), 160.0);
        assert_eq!(vtick_for_rate(1.0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn vtick_rejects_zero_rate() {
        let _ = vtick_for_rate(0.0, 8);
    }

    #[test]
    fn bandwidth_follows_reserved_rates() {
        // Rates 40/20/10/10/5/5/5/5 % with 8-flit packets — the Fig. 4b
        // reservation vector.
        let rates = [0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05];
        let vticks: Vec<f64> = rates.iter().map(|&r| vtick_for_rate(r, 8)).collect();
        let mut vc = VirtualClock::new(&vticks);
        let all: Vec<Request> = (0..8).map(|i| Request::new(i, 8)).collect();
        let mut wins = [0u32; 8];
        for _ in 0..4000 {
            wins[vc.arbitrate(Cycle::ZERO, &all).unwrap()] += 1;
        }
        for (i, &rate) in rates.iter().enumerate() {
            let share = wins[i] as f64 / 4000.0;
            assert!(
                (share - rate).abs() < 0.02,
                "flow {i}: share {share:.3} vs reserved {rate}"
            );
        }
    }

    #[test]
    fn anti_banking_prevents_burst_starvation() {
        let mut vc = VirtualClock::new(&[10.0, 10.0]);
        // Flow 1 transmits steadily for a long time; flow 0 is idle.
        for step in 0..100u64 {
            let _ = vc.arbitrate(Cycle::new(step * 10), &[Request::new(1, 1)]);
        }
        // Flow 0 wakes with a burst at t=1000. Step 1 clamps its clock to
        // real time, so it cannot win more than alternately.
        let both = [Request::new(0, 1), Request::new(1, 1)];
        let mut consecutive_zero = 0;
        let mut max_consecutive = 0;
        for step in 0..20u64 {
            let w = vc.arbitrate(Cycle::new(1000 + step), &both).unwrap();
            if w == 0 {
                consecutive_zero += 1;
                max_consecutive = max_consecutive.max(consecutive_zero);
            } else {
                consecutive_zero = 0;
            }
        }
        assert!(
            max_consecutive <= 2,
            "woken flow won {max_consecutive} in a row"
        );
    }

    #[test]
    fn arrival_stamps_are_monotonic_per_flow() {
        let mut vc = VirtualClock::new(&[7.0]);
        let s1 = vc.on_arrival(0, Cycle::new(0));
        let s2 = vc.on_arrival(0, Cycle::new(1));
        let s3 = vc.on_arrival(0, Cycle::new(100));
        assert!(s1 < s2 && s2 < s3);
        assert_eq!(vc.queued(0), 3);
    }

    #[test]
    fn stamped_packets_served_in_stamp_order() {
        let mut vc = VirtualClock::new(&[100.0, 1.0]);
        // Input 0 stamps first but with a huge Vtick; input 1's stamp is
        // smaller, so it must be served first.
        let _ = vc.on_arrival(0, Cycle::ZERO);
        let _ = vc.on_arrival(1, Cycle::ZERO);
        let both = [Request::new(0, 1), Request::new(1, 1)];
        assert_eq!(vc.arbitrate(Cycle::ZERO, &both), Some(1));
    }

    #[test]
    fn steady_flow_tracks_real_time() {
        // Paper: "If the flow sends packets according to its average rate,
        // its VirtualClock should approximately equal the real time clock."
        let mut vc = VirtualClock::new(&[10.0]);
        for k in 1..=50u64 {
            let _ = vc.on_arrival(0, Cycle::new(k * 10));
            let _ = vc.arbitrate(Cycle::new(k * 10), &[Request::new(0, 1)]);
        }
        let drift = (vc.aux_vc(0) - 510.0).abs();
        assert!(drift < 11.0, "auxVC drifted {drift} from real time");
    }

    #[test]
    fn empty_requests_return_none() {
        let mut vc = VirtualClock::new(&[1.0]);
        assert_eq!(vc.arbitrate(Cycle::ZERO, &[]), None);
    }
}
