//! Order statistics for repeated timings.

/// Median and quartiles of a set of repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The repetitions, in the order they were taken.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: a metric with no repetition is a bug in
    /// the benchmark, not a measurement.
    pub fn of(samples: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(samples);
        Summary {
            median,
            q1,
            q3,
            samples: samples.to_vec(),
        }
    }

    /// A value that was counted, not timed: no spread.
    pub fn exact(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The same repetitions seen through `f` (seconds per run into runs
    /// per second, say). `f` may reverse the order; quartiles are
    /// recomputed.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        let mapped: Vec<f64> = self.samples.iter().map(|&x| f(x)).collect();
        Summary::of(&mapped)
    }
}

/// `[q1, median, q3]` exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive"
/// method) computes them — the rule the acceptance check applies to ten
/// runs, reused here for the repetitions inside one run. A single
/// sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "no samples");
    let mut data = samples.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let len = data.len();
    if len == 1 {
        return [data[0]; 3];
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The median alone.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(
            quartiles(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]),
            [2.0, 4.0, 6.0]
        );
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[40.0, 10.0, 30.0, 20.0]), [12.5, 25.0, 37.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // Ten values, the acceptance check's case:
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.5]), [3.5, 3.5, 3.5]);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::exact(9.0).spread(), 0.0);
        let inv = s.map(|x| 1.0 / x);
        assert_eq!(inv.median, 0.25);
        assert_eq!(inv.samples.len(), 7);
    }
}
