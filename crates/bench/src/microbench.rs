//! A minimal micro-benchmark harness.
//!
//! The workspace builds with zero external crates, so instead of
//! criterion the `benches/` targets (compiled with `harness = false`)
//! use this module: wall-clock timing around a closure, with automatic
//! iteration-count calibration and a median-of-samples report.
//!
//! Run with `cargo bench -p ssq-bench`. Results print as
//! `group/name … ns/iter` lines; absolute numbers are machine-dependent,
//! the point is comparing policies and radices side by side.

use std::time::{Duration, Instant};

/// How long to spend measuring each benchmark, per sample.
const SAMPLE_BUDGET: Duration = Duration::from_millis(20);
/// Samples per benchmark; the median is reported.
const SAMPLES: usize = 7;

/// Times `f` and prints a `group/name … ns/iter` line.
///
/// The closure runs enough iterations to fill a 20 ms sample
/// (calibrated from a short warm-up), for seven samples, and the median
/// per-iteration time is reported.
#[expect(
    clippy::print_stdout,
    reason = "reporting to stdout is this harness's contract with its bins and benches"
)]
pub fn bench<F: FnMut()>(group: &str, name: &str, mut f: F) {
    // Warm up and calibrate: find how many iterations fill the budget.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= SAMPLE_BUDGET / 4 || iters >= 1 << 30 {
            let per_iter = elapsed.as_nanos().max(1) / u128::from(iters);
            let target = SAMPLE_BUDGET.as_nanos() / per_iter.max(1);
            iters = u64::try_from(target.clamp(1, 1 << 30)).unwrap_or(1 << 30);
            break;
        }
        iters *= 4;
    }

    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    println!("{group}/{name:<24} {median:>12.1} ns/iter ({iters} iters/sample)");
}

/// Prints a benchmark group heading.
#[expect(
    clippy::print_stdout,
    reason = "reporting to stdout is this harness's contract with its bins and benches"
)]
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut count = 0u64;
        bench("test", "noop", || count += 1);
        assert!(count > 0);
    }
}
