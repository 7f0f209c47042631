//! Least-recently-granted (LRG) matrix arbitration.

use std::fmt;

use ssq_types::Cycle;

use crate::{Arbiter, Request};

/// Least-recently-granted arbiter, as used by the baseline Swizzle Switch
/// (Satpathy et al., ISSCC'12 — "self-updating least recently granted
/// priority") and reused inside SSVC as the tie-breaker for equal
/// thermometer codes.
///
/// The state is the classic *matrix arbiter*: one bit per ordered input
/// pair, `beats(i, j)` meaning input `i` currently outranks input `j`.
/// Granting a winner clears its row and sets its column, making it the
/// least-preferred input — exactly the "least recently granted" update.
/// In the silicon implementation each crosspoint stores its 63-bit row of
/// this matrix (Table 1's "LRG (63 bits)" entry for a radix-64 switch).
///
/// The matrix always encodes a strict total order (a transitive
/// tournament), so arbitration can never deadlock or pick two winners.
///
/// The matrix is stored as packed `u64` row words (the crosspoint-row
/// layout of the silicon: each crosspoint holds its row of pairwise
/// bits as bitline charges, not as separate flags). Granting a winner
/// is one row clear plus one column-bit set per row, and the word-wide
/// [`Lrg::peek_mask`] resolves a whole candidate word with shift/AND
/// containment tests — the software form of the one-cycle bitline
/// arbitration the `bitpar` engine exploits.
///
/// # Examples
///
/// ```
/// use ssq_arbiter::{Arbiter, Lrg, Request};
/// use ssq_types::Cycle;
///
/// let mut lrg = Lrg::new(3);
/// let all: Vec<Request> = (0..3).map(|i| Request::new(i, 1)).collect();
/// // Fresh state prefers lower indices; winners rotate to the back.
/// assert_eq!(lrg.arbitrate(Cycle::ZERO, &all), Some(0));
/// assert_eq!(lrg.arbitrate(Cycle::ZERO, &all), Some(1));
/// assert_eq!(lrg.arbitrate(Cycle::ZERO, &all), Some(2));
/// assert_eq!(lrg.arbitrate(Cycle::ZERO, &all), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lrg {
    n: usize,
    /// `u64` words per row (1 for every radix ≤ 64; strided beyond).
    stride: usize,
    /// Packed row-major pairwise bits; bit `j % 64` of
    /// `rows[i * stride + j / 64]` = input `i` outranks `j`.
    rows: Vec<u64>,
}

impl Lrg {
    /// Creates an LRG arbiter over `n` inputs with the initial priority
    /// order `0 > 1 > … > n−1`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one input");
        let stride = n.div_ceil(64);
        let mut rows = vec![0u64; n * stride];
        for i in 0..n {
            for j in (i + 1)..n {
                rows[i * stride + j / 64] |= 1u64 << (j % 64);
            }
        }
        Lrg { n, stride, rows }
    }

    /// Whether input `i` currently outranks input `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `i == j`.
    #[must_use]
    pub fn beats(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.n && j < self.n && i != j,
            "invalid pair ({i}, {j})"
        );
        self.rows[i * self.stride + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// Selects the highest-priority member of `candidates` *without*
    /// updating state. Returns `None` for an empty candidate set.
    ///
    /// Exposed separately because SSVC consults LRG priority to break
    /// thermometer-code ties, and the bit-level circuit model needs to
    /// read the same pairwise bits the behavioural model uses.
    #[must_use]
    pub fn peek(&self, candidates: &[usize]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for &c in candidates {
            assert!(c < self.n, "input {c} out of range for radix {}", self.n);
            best = Some(match best {
                None => c,
                Some(b) if self.beats(c, b) => c,
                Some(b) => b,
            });
        }
        best
    }

    /// Word-wide [`Lrg::peek`]: selects the highest-priority member of a
    /// candidate *word* (bit `i` ⇔ input `i` requests) without updating
    /// state. The winner is the unique candidate whose row word contains
    /// every rival — one AND-plus-compare per candidate, no pairwise
    /// probing — which exists because the matrix encodes a strict total
    /// order. Agrees with [`Lrg::peek`] on every candidate set (the
    /// conformance tests hold the two to each other).
    ///
    /// # Panics
    ///
    /// Panics if the arbiter has more than 64 inputs (one-word radix
    /// premise) or a candidate bit is out of range.
    #[must_use]
    pub fn peek_mask(&self, candidates: u64) -> Option<usize> {
        assert!(
            self.stride == 1,
            "peek_mask needs a one-word matrix (n = {} > 64)",
            self.n
        );
        if candidates == 0 {
            return None;
        }
        assert!(
            // `stride == 1` (asserted above) means n <= 64, and the n == 64
            // case short-circuits before the shift.
            self.n == 64 || candidates >> self.n == 0,
            "candidate bits above radix {}",
            self.n
        );
        let mut rest = candidates;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            let rivals = candidates & !(1u64 << i);
            if self.rows[i] & rivals == rivals {
                return Some(i);
            }
            rest &= rest - 1;
        }
        // A strict total order always has a maximum.
        unreachable!("no row contained all rivals: matrix not a total order")
    }

    /// Records that `winner` was granted: it now loses to every other
    /// input (becomes most recently granted). In matrix terms this is
    /// the move-to-back rotation: clear the winner's row, set its column
    /// bit in every other row.
    ///
    /// # Panics
    ///
    /// Panics if `winner` is out of range.
    pub fn grant(&mut self, winner: usize) {
        assert!(winner < self.n, "input {winner} out of range");
        let stride = self.stride;
        for w in &mut self.rows[winner * stride..(winner + 1) * stride] {
            *w = 0;
        }
        let word = winner / 64;
        let bit = 1u64 << (winner % 64);
        for other in 0..self.n {
            if other != winner {
                self.rows[other * stride + word] |= bit;
            }
        }
    }

    /// The current total priority order, highest first. Costs O(n²); meant
    /// for tests and debugging.
    #[must_use]
    pub fn priority_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        // `beats` is a strict total order, so sorting by pairwise wins is
        // well defined.
        order.sort_by(|&a, &b| {
            if a == b {
                std::cmp::Ordering::Equal
            } else if self.beats(a, b) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
        order
    }
}

impl Arbiter for Lrg {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn arbitrate(&mut self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        let candidates: Vec<usize> = requests.iter().map(|r| r.input()).collect();
        let winner = self.peek(&candidates)?;
        self.grant(winner);
        Some(winner)
    }

    fn decide(&self, _now: Cycle, requests: &[Request]) -> Option<usize> {
        let candidates: Vec<usize> = requests.iter().map(|r| r.input()).collect();
        self.peek(&candidates)
    }
}

impl fmt::Display for Lrg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LRG({} inputs, order {:?})",
            self.n,
            self.priority_order()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(inputs: &[usize]) -> Vec<Request> {
        inputs.iter().map(|&i| Request::new(i, 1)).collect()
    }

    #[test]
    fn initial_order_prefers_low_indices() {
        let lrg = Lrg::new(4);
        assert_eq!(lrg.priority_order(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn winner_becomes_least_preferred() {
        let mut lrg = Lrg::new(4);
        lrg.grant(0);
        assert_eq!(lrg.priority_order(), vec![1, 2, 3, 0]);
        lrg.grant(2);
        assert_eq!(lrg.priority_order(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn round_robin_emerges_under_full_load() {
        let mut lrg = Lrg::new(3);
        let all = reqs(&[0, 1, 2]);
        let winners: Vec<_> = (0..6)
            .map(|_| lrg.arbitrate(Cycle::ZERO, &all).unwrap())
            .collect();
        assert_eq!(winners, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn non_requesting_inputs_are_skipped() {
        let mut lrg = Lrg::new(4);
        lrg.grant(1); // order 0,2,3,1
        assert_eq!(lrg.arbitrate(Cycle::ZERO, &reqs(&[1, 3])), Some(3));
    }

    #[test]
    fn peek_does_not_mutate() {
        let lrg = Lrg::new(4);
        assert_eq!(lrg.peek(&[2, 3]), Some(2));
        assert_eq!(lrg.peek(&[2, 3]), Some(2));
        assert_eq!(lrg.peek(&[]), None);
    }

    #[test]
    fn matrix_is_antisymmetric() {
        let mut lrg = Lrg::new(8);
        for w in [3, 1, 4, 1, 5] {
            lrg.grant(w);
        }
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    assert_ne!(lrg.beats(i, j), lrg.beats(j, i));
                }
            }
        }
    }

    #[test]
    fn matrix_stays_transitive_under_grants() {
        let mut lrg = Lrg::new(6);
        for w in [0, 5, 2, 2, 4, 1, 3, 0] {
            lrg.grant(w);
        }
        for a in 0..6 {
            for b in 0..6 {
                for c in 0..6 {
                    if a != b && b != c && a != c && lrg.beats(a, b) && lrg.beats(b, c) {
                        assert!(lrg.beats(a, c), "intransitive after grants");
                    }
                }
            }
        }
    }

    #[test]
    fn starvation_freedom_under_continuous_load() {
        // With all inputs always requesting, each input wins exactly once
        // per n grants.
        let mut lrg = Lrg::new(5);
        let all = reqs(&[0, 1, 2, 3, 4]);
        let mut wins = [0u32; 5];
        for _ in 0..100 {
            wins[lrg.arbitrate(Cycle::ZERO, &all).unwrap()] += 1;
        }
        assert!(wins.iter().all(|&w| w == 20), "wins {wins:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn grant_rejects_bad_index() {
        Lrg::new(2).grant(2);
    }

    #[test]
    fn peek_mask_matches_peek_across_grant_histories() {
        use ssq_types::rng::Xoshiro256StarStar;

        for n in [1usize, 2, 3, 7, 31, 32, 63, 64] {
            let mut rng = Xoshiro256StarStar::seed_from_u64(0x9e37 + n as u64);
            let mut lrg = Lrg::new(n);
            for round in 0..200 {
                let word = if n == 64 {
                    rng.next_u64()
                } else {
                    rng.next_u64() & ((1u64 << n) - 1)
                };
                let list: Vec<usize> = (0..n).filter(|&i| word & (1 << i) != 0).collect();
                let by_list = lrg.peek(&list);
                let by_mask = lrg.peek_mask(word);
                assert_eq!(
                    by_list, by_mask,
                    "n={n} round={round} word={word:#x}: peek {by_list:?} != peek_mask {by_mask:?}"
                );
                if let Some(w) = by_mask {
                    lrg.grant(w);
                } else {
                    lrg.grant(rng.index(n));
                }
            }
        }
    }

    #[test]
    fn peek_mask_empty_is_none() {
        assert_eq!(Lrg::new(8).peek_mask(0), None);
    }

    #[test]
    #[should_panic(expected = "candidate bits above radix")]
    fn peek_mask_rejects_out_of_range_bits() {
        let _ = Lrg::new(4).peek_mask(0b1_0000);
    }

    #[test]
    fn matrix_supports_radix_above_word_width() {
        // The strided representation still works past 64 inputs even
        // though `peek_mask` (one-word premise) does not apply there.
        let mut lrg = Lrg::new(130);
        lrg.grant(0);
        lrg.grant(129);
        assert!(lrg.beats(1, 0));
        assert!(lrg.beats(0, 129));
        assert_eq!(lrg.peek(&[0, 64, 129]), Some(64));
    }

    #[test]
    fn single_input_arbiter_works() {
        let mut lrg = Lrg::new(1);
        assert_eq!(lrg.arbitrate(Cycle::ZERO, &reqs(&[0])), Some(0));
    }
}
