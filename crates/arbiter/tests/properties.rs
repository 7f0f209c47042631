//! Randomized property tests over the arbitration policies, driven by
//! the in-tree PRNG so they run without external crates.

use ssq_arbiter::{
    Arbiter, CounterPolicy, Dwrr, FourLevel, Gsf, Lrg, Request, SsvcArbiter, SsvcConfig,
    VirtualClock, Wfq, Wrr,
};
use ssq_types::rng::Xoshiro256StarStar;
use ssq_types::Cycle;

/// A request pattern: non-empty subset of inputs with packet lengths.
fn request_pattern(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<Request> {
    loop {
        let mut reqs = Vec::new();
        for i in 0..n {
            if rng.chance(0.5) {
                reqs.push(Request::new(i, rng.range(1, 16)));
            }
        }
        if !reqs.is_empty() {
            return reqs;
        }
    }
}

fn all_arbiters(n: usize) -> Vec<Box<dyn Arbiter>> {
    vec![
        Box::new(Lrg::new(n)),
        Box::new(FourLevel::new(n)),
        Box::new(Gsf::new(&vec![8; n], 128)),
        Box::new(Wrr::new(&vec![2; n])),
        Box::new(Dwrr::new(&vec![8; n])),
        Box::new(Wfq::new(&vec![1.0; n])),
        Box::new(VirtualClock::new(&vec![n as f64; n])),
        Box::new(SsvcArbiter::new(
            SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock),
            &vec![9; n],
        )),
        Box::new(SsvcArbiter::new(
            SsvcConfig::new(12, 3, CounterPolicy::Halve),
            &vec![9; n],
        )),
        Box::new(SsvcArbiter::new(
            SsvcConfig::new(12, 3, CounterPolicy::Reset),
            &vec![9; n],
        )),
    ]
}

/// Every policy always grants exactly one requesting input, for any
/// sequence of request patterns.
#[test]
fn winners_are_always_requesters() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xa5b01);
    for _ in 0..16 {
        let rounds = 1 + rng.index(49);
        let patterns: Vec<Vec<Request>> =
            (0..rounds).map(|_| request_pattern(&mut rng, 8)).collect();
        for mut arb in all_arbiters(8) {
            for (step, reqs) in patterns.iter().enumerate() {
                arb.tick();
                let w = arb
                    .arbitrate(Cycle::new(step as u64), reqs)
                    .expect("work conserving");
                assert!(reqs.iter().any(|r| r.input() == w));
            }
        }
    }
}

/// LRG's pairwise matrix stays a strict total order under any grant
/// sequence.
#[test]
fn lrg_stays_a_total_order() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xa5b02);
    for _ in 0..128 {
        let mut lrg = Lrg::new(6);
        let grants = rng.index(100);
        for _ in 0..grants {
            lrg.grant(rng.index(6));
        }
        let order = lrg.priority_order();
        // The order must be a permutation consistent with every pairwise bit.
        for (pos_a, &a) in order.iter().enumerate() {
            for &b in &order[pos_a + 1..] {
                assert!(lrg.beats(a, b));
                assert!(!lrg.beats(b, a));
            }
        }
    }
}

/// Under continuous full load, no LRG input ever waits more than n−1
/// grants between wins (bounded starvation).
#[test]
fn lrg_waiting_time_is_bounded() {
    for n in 2usize..10 {
        let mut lrg = Lrg::new(n);
        let all: Vec<Request> = (0..n).map(|i| Request::new(i, 1)).collect();
        let mut last_win = vec![0usize; n];
        for step in 1..=(n * 10) {
            let w = lrg.arbitrate(Cycle::ZERO, &all).expect("work conserving");
            assert!(step - last_win[w] <= n, "input {w} waited too long");
            last_win[w] = step;
        }
    }
}

/// SSVC counters never exceed the saturation cap under any workload,
/// for every counter-management policy.
#[test]
fn ssvc_counters_stay_bounded() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xa5b03);
    for round in 0..24 {
        let policy = [
            CounterPolicy::SubtractRealClock,
            CounterPolicy::Halve,
            CounterPolicy::Reset,
        ][round % 3];
        let sig_bits = 1 + (round as u32 / 3) % 4;
        let cfg = SsvcConfig::new(10, sig_bits, policy);
        let mut ssvc = SsvcArbiter::new(cfg, &[3, 17, 200, 999, 5, 64, 1, 40]);
        let rounds = 1 + rng.index(199);
        for step in 0..rounds {
            let reqs = request_pattern(&mut rng, 8);
            ssvc.tick();
            let _ = ssvc.arbitrate(Cycle::new(step as u64), &reqs);
            for i in 0..8 {
                assert!(ssvc.aux_vc(i) <= cfg.saturation_cap());
                assert!(ssvc.msb_value(i) < cfg.num_lanes() as u64);
            }
        }
    }
}

/// SSVC's decision always favours a strictly smaller significant-bit
/// value: no input with a higher thermometer code than another requester
/// can win.
#[test]
fn ssvc_never_grants_dominated_input() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xa5b04);
    for _ in 0..256 {
        let cfg = SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock);
        let mut ssvc = SsvcArbiter::new(cfg, &[1; 8]);
        for i in 0..8 {
            ssvc.set_aux_vc(i, rng.below(4096));
        }
        let candidates: Vec<usize> = (0..8).filter(|_| rng.chance(0.5)).collect();
        if candidates.is_empty() {
            continue;
        }
        let w = ssvc.peek(&candidates).expect("non-empty candidates");
        let min_msb = candidates
            .iter()
            .map(|&c| ssvc.msb_value(c))
            .min()
            .expect("non-empty candidates");
        assert_eq!(ssvc.msb_value(w), min_msb);
    }
}

/// Virtual Clock stamps are monotonically increasing within a flow,
/// regardless of arrival times.
#[test]
fn virtual_clock_stamps_monotonic() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xa5b05);
    for _ in 0..64 {
        let len = 1 + rng.index(99);
        let mut arrivals: Vec<u64> = (0..len).map(|_| rng.below(10_000)).collect();
        arrivals.sort_unstable();
        let mut vc = VirtualClock::new(&[7.5]);
        let mut prev = f64::NEG_INFINITY;
        for t in arrivals {
            let stamp = vc.on_arrival(0, Cycle::new(t));
            assert!(stamp > prev);
            prev = stamp;
        }
    }
}

/// WRR long-run shares converge to the weight proportions under
/// saturation.
#[test]
fn wrr_shares_match_weights() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xa5b06);
    for _ in 0..64 {
        let n = 2 + rng.index(4);
        let weights: Vec<u64> = (0..n).map(|_| rng.range(1, 7)).collect();
        let mut wrr = Wrr::new(&weights);
        let all: Vec<Request> = (0..n).map(|i| Request::new(i, 1)).collect();
        let total_weight: u64 = weights.iter().sum();
        let rounds = 50;
        let mut wins = vec![0u64; n];
        for _ in 0..rounds * total_weight {
            wins[wrr.arbitrate(Cycle::ZERO, &all).expect("work conserving")] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(wins[i], rounds * w, "input {} of weights {:?}", i, &weights);
        }
    }
}

/// DWRR flit shares converge to quantum proportions under saturation
/// with uniform packet sizes.
#[test]
fn dwrr_shares_match_quanta() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xa5b07);
    for _ in 0..64 {
        let n = 2 + rng.index(3);
        let quanta: Vec<u64> = (0..n).map(|_| rng.range(4, 31)).collect();
        let mut dwrr = Dwrr::new(&quanta);
        let all: Vec<Request> = (0..n).map(|i| Request::new(i, 4)).collect();
        let mut flits = vec![0u64; n];
        for _ in 0..2000 {
            let w = dwrr.arbitrate(Cycle::ZERO, &all).expect("work conserving");
            flits[w] += 4;
        }
        let total_q: u64 = quanta.iter().sum();
        let total_f: u64 = flits.iter().sum();
        for (i, &q) in quanta.iter().enumerate() {
            let expect = q as f64 / total_q as f64;
            let got = flits[i] as f64 / total_f as f64;
            assert!(
                (got - expect).abs() < 0.05,
                "input {} got {:.3} expected {:.3} (quanta {:?})",
                i,
                got,
                expect,
                &quanta
            );
        }
    }
}
