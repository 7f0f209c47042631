//! Destination patterns: which output each packet targets.

use ssq_types::rng::Xoshiro256StarStar;
use ssq_types::{InputId, OutputId};

/// Chooses the destination output for each packet created at an input.
pub trait DestinationPattern {
    /// Picks the destination of the next packet from `input`.
    fn dest(&mut self, input: InputId) -> OutputId;
}

/// Every packet goes to one fixed output — the 8-inputs-to-1-output setup
/// of Figs. 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedDest {
    output: OutputId,
}

impl FixedDest {
    /// Creates a pattern targeting `output`.
    #[must_use]
    pub const fn new(output: OutputId) -> Self {
        FixedDest { output }
    }
}

impl DestinationPattern for FixedDest {
    fn dest(&mut self, _input: InputId) -> OutputId {
        self.output
    }
}

/// Uniform random destinations over `radix` outputs.
#[derive(Debug, Clone)]
pub struct UniformDest {
    radix: usize,
    rng: Xoshiro256StarStar,
}

impl UniformDest {
    /// Creates a uniform pattern over `radix` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is zero.
    #[must_use]
    pub fn new(radix: usize, seed: u64) -> Self {
        assert!(radix > 0, "radix must be positive");
        UniformDest {
            radix,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }
}

impl DestinationPattern for UniformDest {
    fn dest(&mut self, _input: InputId) -> OutputId {
        OutputId::new(self.rng.index(self.radix))
    }
}

/// Hotspot traffic: with probability `hot_fraction` the packet goes to
/// the hot output (a memory controller, in the paper's motivation),
/// otherwise uniformly elsewhere.
#[derive(Debug, Clone)]
pub struct HotspotDest {
    radix: usize,
    hot: OutputId,
    hot_fraction: f64,
    rng: Xoshiro256StarStar,
}

impl HotspotDest {
    /// Creates a hotspot pattern.
    ///
    /// # Panics
    ///
    /// Panics if `radix < 2`, the hot output is out of range, or
    /// `hot_fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn new(radix: usize, hot: OutputId, hot_fraction: f64, seed: u64) -> Self {
        assert!(radix >= 2, "hotspot needs at least two outputs");
        assert!(hot.index() < radix, "hot output out of range");
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot fraction {hot_fraction} outside [0, 1]"
        );
        HotspotDest {
            radix,
            hot,
            hot_fraction,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }
}

impl DestinationPattern for HotspotDest {
    fn dest(&mut self, _input: InputId) -> OutputId {
        if self.rng.f64() < self.hot_fraction {
            return self.hot;
        }
        // Uniform over the other outputs.
        let pick = self.rng.index(self.radix - 1);
        let idx = if pick >= self.hot.index() {
            pick.saturating_add(1)
        } else {
            pick
        };
        OutputId::new(idx)
    }
}

/// Bit-complement permutation: input `i` sends to output `¬i` within the
/// radix (requires a power-of-two radix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitComplement {
    radix: usize,
}

impl BitComplement {
    /// Creates the pattern for a power-of-two `radix`.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is not a power of two.
    #[must_use]
    pub fn new(radix: usize) -> Self {
        assert!(
            radix.is_power_of_two(),
            "radix {radix} must be a power of two"
        );
        BitComplement { radix }
    }
}

impl DestinationPattern for BitComplement {
    fn dest(&mut self, input: InputId) -> OutputId {
        OutputId::new(!input.index() & (self.radix - 1))
    }
}

/// Transpose permutation: for a radix `k²` switch viewed as a `k × k`
/// grid of ports, `(r, c)` sends to `(c, r)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transpose {
    side: usize,
}

impl Transpose {
    /// Creates the pattern for a `radix = side²` switch.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is not a perfect square.
    #[must_use]
    pub fn new(radix: usize) -> Self {
        let side = (radix as f64).sqrt() as usize;
        assert_eq!(side * side, radix, "radix {radix} is not a perfect square");
        Transpose { side }
    }
}

impl DestinationPattern for Transpose {
    fn dest(&mut self, input: InputId) -> OutputId {
        let (r, c) = (input.index() / self.side, input.index() % self.side);
        OutputId::new(c * self.side + r)
    }
}

/// Perfect-shuffle permutation: rotate the port index left by one bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shuffle {
    bits: u32,
}

impl Shuffle {
    /// Creates the pattern for a power-of-two `radix`.
    ///
    /// # Panics
    ///
    /// Panics if `radix` is not a power of two or is 1.
    #[must_use]
    pub fn new(radix: usize) -> Self {
        assert!(
            radix.is_power_of_two() && radix > 1,
            "radix {radix} must be a power of two > 1"
        );
        let bits = radix.trailing_zeros();
        assert!(
            (1..=63).contains(&bits),
            "shuffle rotate width out of range"
        );
        Shuffle { bits }
    }
}

impl DestinationPattern for Shuffle {
    fn dest(&mut self, input: InputId) -> OutputId {
        let i = input.index();
        let mask = (1usize << self.bits) - 1;
        OutputId::new(((i << 1) | (i >> (self.bits - 1))) & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_hits_target() {
        let mut p = FixedDest::new(OutputId::new(5));
        for i in 0..8 {
            assert_eq!(p.dest(InputId::new(i)), OutputId::new(5));
        }
    }

    #[test]
    fn uniform_covers_all_outputs() {
        let mut p = UniformDest::new(8, 11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[p.dest(InputId::new(0)).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hotspot_fraction_is_respected() {
        let mut p = HotspotDest::new(16, OutputId::new(3), 0.5, 5);
        let hits = (0..10_000)
            .filter(|_| p.dest(InputId::new(1)) == OutputId::new(3))
            .count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "hot fraction {frac}");
    }

    #[test]
    fn hotspot_cold_traffic_avoids_nothing() {
        // With fraction 0 the hot output must still be reachable? No — it
        // must never be chosen, and all others must be.
        let mut p = HotspotDest::new(4, OutputId::new(0), 0.0, 9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[p.dest(InputId::new(2)).index()] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let mut p = BitComplement::new(16);
        for i in 0..16 {
            let d = p.dest(InputId::new(i));
            let back = p.dest(InputId::new(d.index()));
            assert_eq!(back.index(), i);
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let mut p = Transpose::new(16);
        for i in 0..16 {
            let d = p.dest(InputId::new(i));
            assert_eq!(p.dest(InputId::new(d.index())).index(), i);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut p = Shuffle::new(8);
        let mut seen = [false; 8];
        for i in 0..8 {
            let d = p.dest(InputId::new(i)).index();
            assert!(!seen[d], "output {d} hit twice");
            seen[d] = true;
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bit_complement_rejects_odd_radix() {
        let _ = BitComplement::new(6);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn transpose_rejects_non_square() {
        let _ = Transpose::new(8);
    }
}
