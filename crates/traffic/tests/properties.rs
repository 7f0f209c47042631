//! Randomized property tests over traffic sources and destination
//! patterns, driven by the in-tree PRNG so they run without external
//! crates.

use ssq_traffic::{
    Bernoulli, BimodalBernoulli, BitComplement, DestinationPattern, HotspotDest, OnOffBursty,
    Periodic, Saturating, Shuffle, Trace, TrafficSource, Transpose, UniformDest,
};
use ssq_types::rng::Xoshiro256StarStar;
use ssq_types::{Cycle, InputId};

fn measure(src: &mut dyn TrafficSource, cycles: u64) -> f64 {
    let flits: u64 = (0..cycles).filter_map(|c| src.poll(Cycle::new(c))).sum();
    flits as f64 / cycles as f64
}

fn uniform_f64(rng: &mut Xoshiro256StarStar, lo: f64, hi: f64) -> f64 {
    lo + rng.f64() * (hi - lo)
}

/// Every source with a declared offered load hits it within sampling
/// noise over a long window.
#[test]
fn offered_load_is_accurate() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7a01);
    for _ in 0..32 {
        let rate = uniform_f64(&mut rng, 0.05, 0.95);
        let len = rng.range(1, 15);
        let seed = rng.next_u64();
        let mut src = Bernoulli::new(rate, len, seed);
        let measured = measure(&mut src, 100_000);
        let declared = src.offered_load().expect("bernoulli declares a load");
        assert!(
            (measured - declared).abs() < 0.03,
            "bernoulli measured {measured} declared {declared}"
        );
    }
}

/// Periodic sources are exact: flits = floor stepping of the period.
#[test]
fn periodic_is_exact() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7a02);
    for _ in 0..32 {
        let interval = rng.range(1, 499);
        let phase = rng.below(1000);
        let len = rng.range(1, 7);
        let mut src = Periodic::new(interval, phase, len);
        let cycles = interval * 100;
        let flits: u64 = (0..cycles).filter_map(|c| src.poll(Cycle::new(c))).sum();
        assert_eq!(flits, 100 * len);
    }
}

/// Bursty sources respect their duty-cycle average.
#[test]
fn bursty_average_matches_duty() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7a03);
    for _ in 0..32 {
        let rate_on = uniform_f64(&mut rng, 0.2, 1.0);
        let p = uniform_f64(&mut rng, 0.005, 0.05);
        let seed = rng.next_u64();
        // Symmetric transitions => 50% duty cycle.
        let mut src = OnOffBursty::new(rate_on, 1, p, p, seed);
        let measured = measure(&mut src, 200_000);
        let expect = rate_on / 2.0;
        assert!(
            (measured - expect).abs() < 0.08,
            "bursty measured {measured} expected {expect}"
        );
    }
}

/// A saturating source delivers exactly one packet per poll.
#[test]
fn saturating_never_misses() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7a04);
    for _ in 0..32 {
        let len = rng.range(1, 31);
        let cycles = rng.range(1, 999);
        let mut src = Saturating::new(len);
        let flits: u64 = (0..cycles).filter_map(|c| src.poll(Cycle::new(c))).sum();
        assert_eq!(flits, cycles * len);
    }
}

/// Trace replay emits exactly its schedule, regardless of polling
/// pattern alignment.
#[test]
fn trace_replay_is_faithful() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7a05);
    for _ in 0..32 {
        let gaps: Vec<u64> = (0..1 + rng.index(39)).map(|_| rng.range(1, 49)).collect();
        let mut cycle = 0;
        let events: Vec<(u64, u64)> = gaps
            .iter()
            .map(|&g| {
                cycle += g;
                (cycle, 1 + cycle % 4)
            })
            .collect();
        let expected: u64 = events.iter().map(|&(_, l)| l).sum();
        let mut src = Trace::new(events.clone());
        let horizon = cycle + 10;
        let flits: u64 = (0..=horizon).filter_map(|c| src.poll(Cycle::new(c))).sum();
        assert_eq!(flits, expected);
        assert_eq!(src.remaining(), 0);
    }
}

/// One of every in-tree source, shaped by `seed`. The trace's events
/// straddle the bases `poll_block_equals_dense_polling` draws from, so
/// some blocks start on a stale event and some end on an exhausted one.
fn every_source(seed: u64) -> Vec<(&'static str, Box<dyn TrafficSource>)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut at = rng.below(40);
    let events = (0..12)
        .map(|_| {
            at += rng.range(1, 90);
            (at, rng.range(1, 8))
        })
        .collect();
    vec![
        (
            "bernoulli",
            Box::new(Bernoulli::new(rng.f64(), rng.range(1, 8), seed)),
        ),
        (
            "bimodal",
            Box::new(BimodalBernoulli::new(rng.f64(), 1, 8, rng.f64(), seed)),
        ),
        (
            "periodic",
            Box::new(Periodic::new(rng.range(1, 150), rng.below(150), 2)),
        ),
        (
            // Two draws per ON poll, one per OFF poll.
            "on/off",
            Box::new(OnOffBursty::new(rng.f64(), 4, 0.1, 0.1, seed)),
        ),
        ("saturating", Box::new(Saturating::new(3))),
        ("trace", Box::new(Trace::new(events))),
    ]
}

/// The arrival schedule's licence: `poll_block` is exactly its many
/// dense polls — the same arrival word, the same lengths, and a source
/// left in the same state — for every source, from bases that are not
/// multiples of 64, over whole and partial blocks back to back.
#[test]
fn poll_block_equals_dense_polling() {
    for seed in 0..8 {
        for base in [0, 1, 37, 63, 64, 1000 + seed] {
            let blocked = every_source(seed);
            let dense = every_source(seed);
            for ((name, mut blocked), (_, mut dense)) in blocked.into_iter().zip(dense) {
                let tag = format!("{name}, seed {seed}, base {base}");
                let mut at = base;
                for cycles in [64, 64, 17, 1, 64] {
                    let mut lens = vec![99]; // appended to, not cleared
                    let word = blocked.poll_block(Cycle::new(at), cycles, &mut lens);
                    let polls: Vec<Option<u64>> = (0..u64::from(cycles))
                        .map(|c| dense.poll(Cycle::new(at + c)))
                        .collect();
                    let expect = polls
                        .iter()
                        .enumerate()
                        .fold(0, |w, (c, p)| w | u64::from(p.is_some()) << c);
                    assert_eq!(word, expect, "{tag}: arrival word from cycle {at}");
                    let arrived: Vec<u64> = polls.into_iter().flatten().collect();
                    assert_eq!(lens[1..], arrived, "{tag}: lengths from cycle {at}");
                    at += u64::from(cycles);
                }
                // Subsequent behaviour: both are now polled densely.
                for c in at..at + 200 {
                    let now = Cycle::new(c);
                    assert_eq!(blocked.next_arrival(now), dense.next_arrival(now), "{tag}");
                    assert_eq!(blocked.poll(now), dense.poll(now), "{tag}: poll at {c}");
                }
            }
        }
    }
}

/// Permutation patterns are true permutations at any power-of-two /
/// square radix, and repeated queries are stable.
#[test]
fn permutations_are_bijective() {
    for pow in 1u32..6 {
        let radix = 1usize << pow;
        let mut patterns: Vec<Box<dyn DestinationPattern>> = vec![
            Box::new(BitComplement::new(radix)),
            Box::new(Shuffle::new(radix)),
        ];
        if ((radix as f64).sqrt() as usize).pow(2) == radix {
            patterns.push(Box::new(Transpose::new(radix)));
        }
        for p in &mut patterns {
            let mut seen = vec![false; radix];
            for i in 0..radix {
                let d = p.dest(InputId::new(i));
                assert!(!seen[d.index()], "output {} hit twice", d.index());
                seen[d.index()] = true;
                assert_eq!(p.dest(InputId::new(i)), d, "pattern not stable");
            }
        }
    }
}

/// Uniform and hotspot destinations always stay in range and follow
/// their distribution.
#[test]
fn random_patterns_stay_in_range() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x7a06);
    for _ in 0..32 {
        let radix = 2 + rng.index(62);
        let hot_fraction = rng.f64();
        let seed = rng.next_u64();
        let mut uniform = UniformDest::new(radix, seed);
        let hot = ssq_types::OutputId::new(radix - 1);
        let mut hotspot = HotspotDest::new(radix, hot, hot_fraction, seed);
        let mut hot_hits = 0u32;
        let trials = 2_000;
        for i in 0..trials {
            let du = uniform.dest(InputId::new(i % radix));
            assert!(du.index() < radix);
            let dh = hotspot.dest(InputId::new(i % radix));
            assert!(dh.index() < radix);
            if dh == hot {
                hot_hits += 1;
            }
        }
        let frac = f64::from(hot_hits) / trials as f64;
        assert!(
            (frac - hot_fraction).abs() < 0.05,
            "hot fraction {frac} vs {hot_fraction}"
        );
    }
}
