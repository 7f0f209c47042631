//! Word-wide port sets: the bit-parallel request/blocked/eligible
//! representation the cycle kernel decides on.
//!
//! The paper's premise — a high-radix switch tops out at radix 64 —
//! means every per-output set of ports (requesters, blocked inputs,
//! live links) fits in one machine word, exactly the form the hardware
//! bitline lanes take. A [`PortSet`] is that word with a typed rim:
//! membership is one shift+AND, population is one `count_ones`, and
//! iteration walks set bits in ascending port order with
//! `trailing_zeros` — the same order the scalar reference `gather`
//! visits ports, which is what keeps mask-built request lists and
//! event orders byte-identical to the gathered ones.

#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::arithmetic_side_effects)
)]

use std::fmt;

/// A set of port indices (`0..64`) packed into one `u64`.
///
/// # Examples
///
/// ```
/// use ssq_core::bitmask::PortSet;
///
/// let mut s = PortSet::EMPTY;
/// s.insert(3);
/// s.insert(17);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 17]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortSet(u64);

impl PortSet {
    /// The empty set.
    pub const EMPTY: PortSet = PortSet(0);

    /// Wraps a raw bit word (bit `i` ⇔ port `i` is in the set).
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        PortSet(bits)
    }

    /// The raw bit word.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Adds port `i`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `i >= 64` (the radix ≤ 64 premise).
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < 64, "port {i} outside the radix <= 64 word");
        self.0 |= 1u64 << i;
    }

    /// Whether port `i` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(self, i: usize) -> bool {
        debug_assert!(i < 64, "port {i} outside the radix <= 64 word");
        self.0 & (1u64 << i) != 0
    }

    /// Number of ports in the set.
    #[inline]
    #[must_use]
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    #[inline]
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the member ports in ascending order.
    #[inline]
    #[must_use]
    pub const fn iter(self) -> SetBits {
        SetBits(self.0)
    }
}

impl fmt::Display for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl IntoIterator for PortSet {
    type Item = usize;
    type IntoIter = SetBits;

    fn into_iter(self) -> SetBits {
        self.iter()
    }
}

/// Ascending-order iterator over the set bits of a [`PortSet`].
#[derive(Debug, Clone)]
pub struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        // Clear the lowest set bit (Kernighan's trick): `self.0 != 0`
        // was just checked, so the subtraction never wraps.
        self.0 &= self.0.wrapping_sub(1);
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetBits {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_nothing() {
        assert!(PortSet::EMPTY.is_empty());
        assert_eq!(PortSet::EMPTY.len(), 0);
        assert_eq!(PortSet::EMPTY.iter().count(), 0);
        assert!(!PortSet::EMPTY.contains(0));
    }

    #[test]
    fn insert_contains_roundtrip() {
        let mut s = PortSet::EMPTY;
        for i in [0usize, 1, 31, 32, 63] {
            s.insert(i);
        }
        for i in 0..64 {
            assert_eq!(s.contains(i), [0usize, 1, 31, 32, 63].contains(&i));
        }
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn iteration_is_ascending() {
        let s = PortSet::from_bits(0b1010_0110);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 5, 7]);
        let full = PortSet::from_bits(u64::MAX);
        assert_eq!(full.iter().collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn exact_size_hint() {
        let s = PortSet::from_bits(0b1011);
        let it = s.iter();
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn display_lists_members() {
        let mut s = PortSet::EMPTY;
        s.insert(2);
        s.insert(9);
        assert_eq!(s.to_string(), "{2,9}");
        assert_eq!(PortSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = PortSet::EMPTY;
        s.insert(7);
        s.insert(7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bits(), 1 << 7);
    }
}
