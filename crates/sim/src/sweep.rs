//! Thread-parallel parameter sweeps.

/// Runs `f` once per parameter point, spreading points across up to
/// `std::thread::available_parallelism()` scoped threads, and returns the
/// results **in input order** — the result is a pure function of
/// `params` and `f`, never of the machine's core count.
///
/// Each experiment must be self-contained (build its own model from the
/// parameter and a seed); the sweep only parallelizes across points, so
/// each individual simulation stays deterministic.
///
/// # Examples
///
/// ```
/// use ssq_sim::sweep;
///
/// let rates: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
/// let saturations = sweep(&rates, |&r| (r * 100.0) as u64);
/// assert_eq!(saturations, vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
/// ```
pub fn sweep<P, R, F>(params: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    sweep_with_threads(params, threads, f)
}

/// [`sweep`] with an explicit thread count (clamped to at least one).
/// The deterministic-results regression test runs the same sweep at
/// several counts and asserts identical output.
pub fn sweep_with_threads<P, R, F>(params: &[P], threads: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    if params.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(params.len());
    if threads <= 1 {
        return params.iter().map(&f).collect();
    }

    // Workers claim point indices from a shared atomic counter and carry
    // their `(index, result)` pairs home through the join handle, so no
    // locks guard the result storage.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..params.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= params.len() {
                            return mine;
                        }
                        mine.push((i, f(&params[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mine) => {
                    for (i, r) in mine {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let params: Vec<usize> = (0..100).collect();
        let out = sweep(&params, |&p| p * 2);
        assert_eq!(out, params.iter().map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep_is_empty() {
        let out: Vec<u32> = sweep::<u32, u32, _>(&[], |&p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn single_point() {
        assert_eq!(sweep(&[7], |&p: &i32| p + 1), vec![8]);
    }

    #[test]
    fn results_can_be_heavyweight() {
        let out = sweep(&[1usize, 2, 3], |&n| vec![0u8; n * 1000]);
        assert_eq!(out[2].len(), 3000);
    }

    #[test]
    fn work_is_actually_shared() {
        // Smoke test under contention: many cheap tasks.
        let params: Vec<u64> = (0..5000).collect();
        let out = sweep(&params, |&p| p % 7);
        assert_eq!(out.len(), 5000);
        assert_eq!(out[4999], 4999 % 7);
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        // The determinism regression for sweeps: the same experiment at
        // 1, 2, and 8 threads must produce byte-identical result
        // vectors, in parameter order, regardless of which worker
        // claimed which point.
        let params: Vec<u64> = (0..257).collect();
        let experiment = |&p: &u64| {
            // A little state evolution so results are order-sensitive
            // if anything leaks across points.
            let mut x = p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..100 {
                x ^= x >> 13;
                x = x.wrapping_mul(31).wrapping_add(p);
            }
            x
        };
        let reference = sweep_with_threads(&params, 1, experiment);
        for threads in [2, 3, 8] {
            let out = sweep_with_threads(&params, threads, experiment);
            assert_eq!(out, reference, "thread count {threads} changed results");
        }
    }

    #[test]
    fn oversized_thread_request_is_clamped() {
        let out = sweep_with_threads(&[1u64, 2, 3], 64, |&p| p * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }
}
