//! Fixed-bin histograms for latency distributions.

use std::fmt;

/// A histogram over non-negative integer samples (e.g. latencies in
/// cycles) with uniform bins and an overflow bucket.
///
/// The exact sum and maximum are tracked separately so [`Histogram::mean`]
/// and [`Histogram::max`] are exact even when samples overflow the binned
/// range; only percentiles are bin-resolution approximations.
///
/// # Examples
///
/// ```
/// use ssq_stats::Histogram;
///
/// let mut h = Histogram::new(10, 16); // 16 bins of width 10 => 0..160
/// for x in [3, 7, 12, 155, 400] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), Some(400));
/// assert_eq!(h.overflow(), 1); // 400 exceeds the binned range
/// ```
///
/// The bin vector grows on demand, up to `num_bins`: it holds the bins
/// up to the highest one a sample has landed in, and every bin past it
/// reads as zero. A switch keeps one histogram per flow and class, and
/// one per output; most never see a sample, and a flow whose latencies
/// stay low holds a few dozen bins, not the full range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    num_bins: usize,
    /// Bins `0..=h`, where `h` is the highest bin any sample landed in
    /// (so the last entry is never zero); empty before the first.
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Histogram {
    /// Creates a histogram with `num_bins` bins of `bin_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` or `num_bins` is zero.
    #[must_use]
    pub const fn new(bin_width: u64, num_bins: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(num_bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            num_bins,
            bins: Vec::new(),
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(u128::from(value));
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        match usize::try_from(value / self.bin_width) {
            Ok(bin) if bin < self.num_bins => {
                self.grow_to(bin + 1);
                self.bins[bin] = self.bins[bin].saturating_add(1);
            }
            _ => self.overflow = self.overflow.saturating_add(1),
        }
    }

    /// Makes bins `0..len` addressable (`len <= num_bins`). Capacity
    /// doubles, capped at `num_bins`, so a run of rising samples costs
    /// a logarithmic number of reallocations and never more than the
    /// eager layout's memory.
    fn grow_to(&mut self, len: usize) {
        if len <= self.bins.len() {
            return;
        }
        if len > self.bins.capacity() {
            let target = len
                .max(self.bins.capacity().saturating_mul(2))
                .min(self.num_bins);
            self.bins.reserve_exact(target - self.bins.len());
        }
        self.bins.resize(len, 0);
    }

    /// Bins the histogram has room for now: its bin vector's capacity,
    /// at most `num_bins` (the footprint a caller can count; a missing
    /// bin reads as zero).
    #[must_use]
    pub fn allocated_bins(&self) -> usize {
        self.bins.capacity()
    }

    /// Number of samples recorded.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean; zero when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum sample; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Exact minimum sample; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Samples that fell beyond the binned range.
    #[must_use]
    pub const fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate `p`-th percentile (`0.0..=100.0`), resolved to the upper
    /// edge of the bin containing it. Overflowed samples (and so any rank
    /// past the highest allocated bin) resolve to the exact maximum.
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a rank in 1..=count: p is asserted within [0, 100]"
    )]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        if self.count == 0 {
            return None;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some((i as u64 + 1) * self.bin_width - 1);
            }
        }
        Some(self.max)
    }

    /// Iterates over `(bin_lower_edge, count)` pairs for non-empty bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(move |(i, &n)| (i as u64 * self.bin_width, n))
    }

    /// Merges another histogram with identical bin layout.
    ///
    /// # Panics
    ///
    /// Panics if the bin widths or counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin width mismatch");
        assert_eq!(self.num_bins, other.num_bins, "bin count mismatch");
        if self.bins.is_empty() {
            self.bins.clone_from(&other.bins);
        } else {
            self.grow_to(other.bins.len());
            for (a, b) in self.bins.iter_mut().zip(&other.bins) {
                *a += b;
            }
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "histogram: n={} mean={:.2} max={:?}",
            self.count,
            self.mean(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(5, 4);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    fn mean_is_exact_despite_binning() {
        let mut h = Histogram::new(100, 2);
        h.record(1);
        h.record(2);
        h.record(1000); // overflows the bins
        assert!((h.mean() - (1.0 + 2.0 + 1000.0) / 3.0).abs() < 1e-12);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.min(), Some(1));
    }

    #[test]
    fn percentile_of_uniform_samples() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100 {
            h.record(v);
        }
        // Bin width 1: percentiles resolve exactly.
        assert_eq!(h.percentile(1.0), Some(0));
        assert_eq!(h.percentile(50.0), Some(49));
        assert_eq!(h.percentile(100.0), Some(99));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new(1, 8);
        h.record(5);
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(5), "p{p}");
        }
        assert_eq!((h.mean(), h.max()), (5.0, Some(5)));
    }

    #[test]
    fn p99_of_two_samples_is_the_top_bin() {
        // Cumulative-count percentiles: with samples {7, 9} p99 lands in
        // the top bin, not the bottom.
        let mut h = Histogram::new(1, 64);
        h.record(7);
        h.record(9);
        assert_eq!(h.percentile(99.0), Some(9));
        assert_eq!(h.mean(), 8.0);
    }

    #[test]
    fn saturated_bucket_percentiles_resolve_to_exact_max() {
        // Samples past the binned range land in the overflow bucket;
        // percentiles that fall there report the exact observed maximum,
        // not a bin edge.
        let mut h = Histogram::new(1, 4);
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1_000); // beyond the 4-bin range
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(h.percentile(p), Some(1), "p{p}");
        }
        assert_eq!(h.percentile(100.0), Some(1_000));
        assert_eq!(h.max(), Some(1_000));
    }

    #[test]
    fn percentile_resolves_overflow_to_max() {
        let mut h = Histogram::new(1, 2);
        h.record(0);
        h.record(500);
        assert_eq!(h.percentile(100.0), Some(500));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_out_of_range() {
        let h = Histogram::new(1, 1);
        let _ = h.percentile(101.0);
    }

    #[test]
    fn iter_skips_empty_bins() {
        let mut h = Histogram::new(10, 10);
        h.record(5);
        h.record(95);
        let bins: Vec<_> = h.iter().collect();
        assert_eq!(bins, vec![(0, 1), (90, 1)]);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new(10, 4);
        let mut b = Histogram::new(10, 4);
        a.record(5);
        b.record(15);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.max(), Some(500));
        assert_eq!(a.min(), Some(5));
    }

    #[test]
    fn never_recorded_histogram_reads_like_an_all_zero_one() {
        let h = Histogram::new(4, 1024);
        assert_eq!(h.count(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.iter().count(), 0);
        assert_eq!(h.percentile(99.0), None);
        assert_eq!(h, Histogram::new(4, 1024));
        assert_ne!(h, Histogram::new(4, 512), "layout is part of equality");
    }

    #[test]
    fn first_sample_lands_in_the_right_bin() {
        let mut h = Histogram::new(10, 4);
        h.record(39);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(30, 1)]);
        assert_eq!(h.percentile(50.0), Some(39));
        let mut over = Histogram::new(10, 4);
        over.record(40);
        assert_eq!(over.overflow(), 1);
        assert_eq!(over.iter().count(), 0);
        assert_eq!(over.percentile(50.0), Some(40));
    }

    #[test]
    fn merge_into_and_from_empty_histograms() {
        let mut filled = Histogram::new(10, 4);
        filled.record(5);
        filled.record(25);
        filled.record(99);

        // Into a never-recorded histogram: a copy of the other side.
        let mut a = Histogram::new(10, 4);
        a.merge(&filled);
        assert_eq!(a, filled);
        // ...and recording afterwards keeps both sets of samples.
        a.record(7);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, 2), (20, 1)]);

        // From a never-recorded histogram: nothing changes.
        let mut b = filled.clone();
        b.merge(&Histogram::new(10, 4));
        assert_eq!(b, filled);

        // Empty into empty stays empty (and unallocated).
        let mut c = Histogram::new(10, 4);
        c.merge(&Histogram::new(10, 4));
        assert_eq!(c, Histogram::new(10, 4));
        assert_eq!(c.min(), None);
    }

    /// The layout the on-demand bins replace: every bin allocated up
    /// front. The reference for `on_demand_bins_read_like_the_eager_layout`.
    struct Eager {
        width: u64,
        bins: Vec<u64>,
        overflow: u64,
        count: u64,
        max: u64,
    }

    impl Eager {
        fn new(width: u64, num_bins: usize) -> Self {
            Eager {
                width,
                bins: vec![0; num_bins],
                overflow: 0,
                count: 0,
                max: 0,
            }
        }

        fn record(&mut self, v: u64) {
            self.count += 1;
            self.max = self.max.max(v);
            match self.bins.get_mut((v / self.width) as usize) {
                Some(b) => *b += 1,
                None => self.overflow += 1,
            }
        }

        fn merge(&mut self, other: &Eager) {
            for (a, b) in self.bins.iter_mut().zip(&other.bins) {
                *a += b;
            }
            self.overflow += other.overflow;
            self.count += other.count;
            self.max = self.max.max(other.max);
        }

        fn percentile(&self, p: f64) -> Option<u64> {
            if self.count == 0 {
                return None;
            }
            let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, &n) in self.bins.iter().enumerate() {
                seen += n;
                if seen >= target {
                    return Some((i as u64 + 1) * self.width - 1);
                }
            }
            Some(self.max)
        }

        fn iter(&self) -> Vec<(u64, u64)> {
            let nonzero = self.bins.iter().enumerate().filter(|(_, &n)| n > 0);
            nonzero.map(|(i, &n)| (i as u64 * self.width, n)).collect()
        }
    }

    fn assert_reads_alike(h: &Histogram, e: &Eager, what: &str) {
        assert_eq!(h.count(), e.count, "{what}: count");
        assert_eq!(h.overflow(), e.overflow, "{what}: overflow");
        assert_eq!(h.iter().collect::<Vec<_>>(), e.iter(), "{what}: iter");
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), e.percentile(p), "{what}: p{p}");
        }
        assert!(h.allocated_bins() <= e.bins.len(), "{what}: over-allocated");
    }

    #[test]
    fn on_demand_bins_read_like_the_eager_layout() {
        use ssq_types::rng::Xoshiro256StarStar;

        for seed in 0..40u64 {
            let mut rng = Xoshiro256StarStar::seed_from_u64(0xb1_75 + seed);
            let width = 1 + rng.below(8);
            let num_bins = 1 + rng.below(300) as usize;
            // Samples reach past the binned range so overflow is exercised.
            let top = width * num_bins as u64 * 5 / 4 + 1;
            let (mut ha, mut hb) = (
                Histogram::new(width, num_bins),
                Histogram::new(width, num_bins),
            );
            let (mut ea, mut eb) = (Eager::new(width, num_bins), Eager::new(width, num_bins));
            for step in 0..rng.below(400) {
                // Skewed low, as latencies are, with a rare far tail.
                let v = if rng.below(10) == 0 {
                    rng.below(top)
                } else {
                    rng.below(top / 8 + 1)
                };
                if step % 3 == 0 {
                    hb.record(v);
                    eb.record(v);
                } else {
                    ha.record(v);
                    ea.record(v);
                }
                assert_reads_alike(&ha, &ea, &format!("seed {seed} step {step}"));
            }
            assert_reads_alike(&hb, &eb, &format!("seed {seed} b"));
            // Merge both ways: the longer bin vector into the shorter and
            // the shorter into the longer.
            let mut hba = hb.clone();
            hba.merge(&ha);
            ha.merge(&hb);
            ea.merge(&eb);
            assert_reads_alike(&ha, &ea, &format!("seed {seed} a+b"));
            assert_reads_alike(&hba, &ea, &format!("seed {seed} b+a"));
            assert_eq!(ha, hba, "seed {seed}: merge order shows in equality");
        }
    }

    #[test]
    fn low_samples_hold_few_bins() {
        // A flow whose latencies stay under 100 cycles, in 4-cycle bins of
        // a 1 024-bin layout: 25 bins in use, rounded up to a power of two.
        let mut h = Histogram::new(4, 1024);
        for v in (0..100).rev() {
            h.record(v);
        }
        assert_eq!(h.allocated_bins(), 25);
        let mut rising = Histogram::new(4, 1024);
        for v in 0..100 {
            rising.record(v);
        }
        assert!(rising.allocated_bins() <= 32, "{}", rising.allocated_bins());
        // Never more than the layout, however far the samples reach.
        rising.record(4 * 1023);
        rising.record(1 << 40);
        assert_eq!(rising.allocated_bins(), 1024);
        assert_eq!(rising.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_bin_count_mismatch_even_when_empty() {
        let mut a = Histogram::new(10, 4);
        a.merge(&Histogram::new(10, 8));
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn merge_rejects_layout_mismatch() {
        let mut a = Histogram::new(10, 4);
        let b = Histogram::new(5, 4);
        a.merge(&b);
    }
}
