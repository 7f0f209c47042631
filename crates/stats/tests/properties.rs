//! Randomized property tests over the statistics toolkit, driven by the
//! in-tree PRNG so they run without external crates.

use ssq_stats::{jain_fairness_index, Histogram, RunningStats, Series, Table};
use ssq_types::rng::Xoshiro256StarStar;

const CASES: u64 = 128;

fn uniform(rng: &mut Xoshiro256StarStar, lo: f64, hi: f64) -> f64 {
    lo + rng.f64() * (hi - lo)
}

fn sample_vec(
    rng: &mut Xoshiro256StarStar,
    lo: f64,
    hi: f64,
    min_len: usize,
    max_len: usize,
) -> Vec<f64> {
    let len = min_len + rng.index(max_len - min_len);
    (0..len).map(|_| uniform(rng, lo, hi)).collect()
}

/// Welford statistics agree with the two-pass formulas.
#[test]
fn running_stats_match_two_pass() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x57a701);
    for _ in 0..CASES {
        let samples = sample_vec(&mut rng, -1e6, 1e6, 1, 500);
        let stats: RunningStats = samples.iter().copied().collect();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((stats.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((stats.population_variance() - var).abs() < 1e-4 * (1.0 + var));
        assert_eq!(stats.count(), samples.len() as u64);
    }
}

/// Merging any split of a sample set reproduces the sequential result.
#[test]
fn merge_any_split() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x57a702);
    for _ in 0..CASES {
        let samples = sample_vec(&mut rng, -1e3, 1e3, 2, 200);
        let split = rng.index(samples.len() + 1);
        let full: RunningStats = samples.iter().copied().collect();
        let mut left: RunningStats = samples[..split].iter().copied().collect();
        let right: RunningStats = samples[split..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), full.count());
        assert!((left.mean() - full.mean()).abs() < 1e-9 * (1.0 + full.mean().abs()));
        assert!(
            (left.population_variance() - full.population_variance()).abs()
                < 1e-6 * (1.0 + full.population_variance())
        );
    }
}

/// Histogram mean/extremes are exact regardless of binning, and
/// percentiles are monotone in p.
#[test]
fn histogram_invariants() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x57a703);
    for _ in 0..CASES {
        let len = 1 + rng.index(299);
        let samples: Vec<u64> = (0..len).map(|_| rng.below(10_000)).collect();
        let bin_width = rng.range(1, 63);
        let bins = 1 + rng.index(127);
        let mut h = Histogram::new(bin_width, bins);
        for &s in &samples {
            h.record(s);
        }
        let exact_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((h.mean() - exact_mean).abs() < 1e-9);
        assert_eq!(h.max(), samples.iter().copied().max());
        assert_eq!(h.min(), samples.iter().copied().min());
        let mut prev = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p).expect("non-empty histogram");
            assert!(v >= prev, "percentile not monotone at {p}");
            prev = v;
        }
        // The top percentile resolves to at least the true max's bin.
        let true_max = *samples.iter().max().expect("non-empty samples");
        assert!(h.percentile(100.0).expect("non-empty histogram") >= true_max);
    }
}

/// Jain's index is bounded in [1/n, 1] and scale invariant.
#[test]
fn jain_bounds_and_scale() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x57a704);
    for _ in 0..CASES {
        let allocs = sample_vec(&mut rng, 0.001, 1e3, 1, 50);
        let scale = uniform(&mut rng, 0.01, 100.0);
        let j = jain_fairness_index(&allocs);
        let n = allocs.len() as f64;
        assert!(j >= 1.0 / n - 1e-9 && j <= 1.0 + 1e-9, "j = {j}");
        let scaled: Vec<f64> = allocs.iter().map(|a| a * scale).collect();
        assert!((jain_fairness_index(&scaled) - j).abs() < 1e-9);
    }
}

/// CSV rendering round-trips cell counts and never emits ragged rows.
#[test]
fn table_csv_is_rectangular() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x57a705);
    // Awkward cell alphabet: quotes, commas, newlines, spaces.
    const ALPHABET: &[char] = &['a', 'b', 'z', '0', '9', ',', '"', '\n', ' '];
    for _ in 0..CASES {
        let rows = rng.index(20);
        let cells: Vec<Vec<String>> = (0..rows)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let len = rng.index(13);
                        (0..len)
                            .map(|_| ALPHABET[rng.index(ALPHABET.len())])
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut t = Table::with_columns(&["a", "b", "c"]);
        for row in &cells {
            t.row(row.clone());
        }
        let csv = t.to_csv();
        // A proper CSV parser would be overkill; count unquoted commas.
        let mut parsed_rows = 0;
        let mut field_counts = Vec::new();
        let mut in_quotes = false;
        let mut fields = 1;
        for ch in csv.chars() {
            match ch {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                '\n' if !in_quotes => {
                    field_counts.push(fields);
                    fields = 1;
                    parsed_rows += 1;
                }
                _ => {}
            }
        }
        assert_eq!(parsed_rows, cells.len() + 1);
        assert!(
            field_counts.iter().all(|&f| f == 3),
            "ragged CSV: {field_counts:?}"
        );
    }
}

/// Figure tables keep every series' points addressable by x.
#[test]
fn series_points_survive_figure_collation() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x57a706);
    for _ in 0..CASES {
        let len = 1 + rng.index(49);
        let points: Vec<(u32, f64)> = (0..len)
            .map(|_| (rng.below(1000) as u32, uniform(&mut rng, -1e3, 1e3)))
            .collect();
        let mut dedup: std::collections::BTreeMap<u32, f64> = Default::default();
        for &(x, y) in &points {
            dedup.insert(x, y);
        }
        let mut s = Series::new("s");
        for (&x, &y) in &dedup {
            s.push(f64::from(x), y);
        }
        let mut fig = ssq_stats::Figure::new("f", "x", "y");
        fig.add(s);
        let table = fig.to_table();
        assert_eq!(table.len(), dedup.len());
    }
}
