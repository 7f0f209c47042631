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
/// The bin vector is allocated by the first [`Histogram::record`] (or a
/// [`Histogram::merge`] that brings samples in): a switch keeps one
/// histogram per flow and class, and most of them never see a sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bin_width: u64,
    num_bins: usize,
    /// Empty until the first sample arrives, then `num_bins` long.
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
    pub fn new(bin_width: u64, num_bins: usize) -> Self {
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
        if self.bins.is_empty() {
            self.bins = vec![0; self.num_bins];
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(u128::from(value));
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        let bin = usize::try_from(value / self.bin_width).ok();
        match bin.and_then(|bin| self.bins.get_mut(bin)) {
            Some(b) => *b = b.saturating_add(1),
            None => self.overflow = self.overflow.saturating_add(1),
        }
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
    /// edge of the bin containing it. Overflowed samples resolve to the
    /// exact maximum.
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
