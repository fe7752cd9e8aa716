//! Compact sets of process identifiers.
//!
//! The sets `D(i,r)` and `S(i,r)` of the paper are subsets of the process
//! universe. [`IdSet`] packs membership into a single `u128`, which makes the
//! set algebra the predicates need (union, intersection, difference,
//! containment) branch-free and allocation-free. An ablation bench
//! (`bench_ablation_idset`) compares this against a hash-set representation.

use crate::id::{ProcessId, SystemSize, MAX_PROCESSES};
use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Sub, SubAssign};

/// A set of [`ProcessId`]s backed by a 128-bit bitmap.
///
/// # Examples
///
/// ```
/// use rrfd_core::{IdSet, ProcessId, SystemSize};
///
/// let n = SystemSize::new(5).unwrap();
/// let mut d = IdSet::empty();
/// d.insert(ProcessId::new(1));
/// d.insert(ProcessId::new(3));
/// assert_eq!(d.len(), 2);
/// assert!(d.contains(ProcessId::new(3)));
///
/// let alive = d.complement(n);
/// assert_eq!(alive.len(), 3);
/// assert!(alive.contains(ProcessId::new(0)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct IdSet(u128);

impl IdSet {
    /// The empty set.
    #[must_use]
    pub const fn empty() -> Self {
        IdSet(0)
    }

    /// The full universe `S = {p_0, …, p_{n−1}}`.
    #[must_use]
    pub fn universe(n: SystemSize) -> Self {
        if n.get() == MAX_PROCESSES {
            IdSet(u128::MAX)
        } else {
            IdSet((1u128 << n.get()) - 1)
        }
    }

    /// A singleton set `{id}`.
    #[must_use]
    pub fn singleton(id: ProcessId) -> Self {
        IdSet(1u128 << id.index())
    }

    /// Builds a set from raw bits. Callers must ensure bits beyond the system
    /// size are zero when the set will be compared against a universe.
    #[must_use]
    pub const fn from_bits(bits: u128) -> Self {
        IdSet(bits)
    }

    /// The raw bitmap.
    #[must_use]
    pub const fn bits(self) -> u128 {
        self.0
    }

    /// Returns `true` if `id` is a member.
    #[must_use]
    pub fn contains(self, id: ProcessId) -> bool {
        self.0 & (1u128 << id.index()) != 0
    }

    /// Inserts `id`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let bit = 1u128 << id.index();
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: ProcessId) -> bool {
        let bit = 1u128 << id.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Number of members.
    #[must_use]
    pub fn len(self) -> usize {
        // Without a hardware popcount each word costs a dozen operations,
        // and the high word is empty below 65 processes.
        let (low, high) = (self.0 as u64, (self.0 >> 64) as u64);
        let high = if high == 0 { 0 } else { high.count_ones() };
        (low.count_ones() + high) as usize
    }

    /// Returns `true` when the set has no members.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union `self ∪ other`.
    #[must_use]
    pub fn union(self, other: IdSet) -> IdSet {
        IdSet(self.0 | other.0)
    }

    /// Set intersection `self ∩ other`.
    #[must_use]
    pub fn intersection(self, other: IdSet) -> IdSet {
        IdSet(self.0 & other.0)
    }

    /// Set difference `self ∖ other`.
    #[must_use]
    pub fn difference(self, other: IdSet) -> IdSet {
        IdSet(self.0 & !other.0)
    }

    /// Complement within the universe of size `n`.
    #[must_use]
    pub fn complement(self, n: SystemSize) -> IdSet {
        IdSet(!self.0 & IdSet::universe(n).0)
    }

    /// Returns `true` when `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: IdSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Returns `true` when `self ⊇ other`.
    #[must_use]
    pub fn is_superset(self, other: IdSet) -> bool {
        other.is_subset(self)
    }

    /// Returns `true` when the sets share no member.
    #[must_use]
    pub fn is_disjoint(self, other: IdSet) -> bool {
        self.0 & other.0 == 0
    }

    /// The smallest member, if any. This is the selection rule of the
    /// paper's one-round k-set agreement algorithm (Theorem 3.1).
    #[must_use]
    pub fn min(self) -> Option<ProcessId> {
        if self.0 == 0 {
            None
        } else {
            Some(ProcessId::new(self.0.trailing_zeros() as usize))
        }
    }

    /// The largest member, if any.
    #[must_use]
    pub fn max(self) -> Option<ProcessId> {
        if self.0 == 0 {
            None
        } else {
            Some(ProcessId::new(127 - self.0.leading_zeros() as usize))
        }
    }

    /// Iterates over members in increasing identifier order.
    pub fn iter(self) -> Iter {
        Iter(self.0)
    }
}

/// Iterator over the members of an [`IdSet`], in increasing order.
#[derive(Clone, Debug)]
pub struct Iter(u128);

impl Iterator for Iter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        if self.0 == 0 {
            None
        } else {
            let idx = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(ProcessId::new(idx))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl IntoIterator for IdSet {
    type Item = ProcessId;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

impl FromIterator<ProcessId> for IdSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = IdSet::empty();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

impl Extend<ProcessId> for IdSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl BitOr for IdSet {
    type Output = IdSet;
    fn bitor(self, rhs: IdSet) -> IdSet {
        self.union(rhs)
    }
}

impl BitOrAssign for IdSet {
    fn bitor_assign(&mut self, rhs: IdSet) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for IdSet {
    type Output = IdSet;
    fn bitand(self, rhs: IdSet) -> IdSet {
        self.intersection(rhs)
    }
}

impl BitAndAssign for IdSet {
    fn bitand_assign(&mut self, rhs: IdSet) {
        self.0 &= rhs.0;
    }
}

impl Sub for IdSet {
    type Output = IdSet;
    fn sub(self, rhs: IdSet) -> IdSet {
        self.difference(rhs)
    }
}

impl SubAssign for IdSet {
    fn sub_assign(&mut self, rhs: IdSet) {
        self.0 &= !rhs.0;
    }
}

impl fmt::Debug for IdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for id in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{id}")?;
            first = false;
        }
        f.write_str("}")
    }
}

impl fmt::Display for IdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> IdSet {
        ids.iter().map(|&i| ProcessId::new(i)).collect()
    }

    #[test]
    fn empty_and_universe() {
        let n = SystemSize::new(6).unwrap();
        assert!(IdSet::empty().is_empty());
        assert_eq!(IdSet::universe(n).len(), 6);
        let full = SystemSize::new(MAX_PROCESSES).unwrap();
        assert_eq!(IdSet::universe(full).len(), MAX_PROCESSES);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = IdSet::empty();
        assert!(s.insert(ProcessId::new(2)));
        assert!(!s.insert(ProcessId::new(2)));
        assert!(s.contains(ProcessId::new(2)));
        assert!(s.remove(ProcessId::new(2)));
        assert!(!s.remove(ProcessId::new(2)));
        assert!(s.is_empty());
    }

    #[test]
    fn algebra_laws_on_samples() {
        let a = set(&[0, 1, 4]);
        let b = set(&[1, 2]);
        assert_eq!(a.union(b), set(&[0, 1, 2, 4]));
        assert_eq!(a.intersection(b), set(&[1]));
        assert_eq!(a.difference(b), set(&[0, 4]));
        assert_eq!(a | b, a.union(b));
        assert_eq!(a & b, a.intersection(b));
        assert_eq!(a - b, a.difference(b));
    }

    #[test]
    fn complement_stays_in_universe() {
        let n = SystemSize::new(4).unwrap();
        let a = set(&[0, 2]);
        let c = a.complement(n);
        assert_eq!(c, set(&[1, 3]));
        assert_eq!(a.union(c), IdSet::universe(n));
        assert!(a.is_disjoint(c));
    }

    #[test]
    fn subset_relations() {
        let small = set(&[1]);
        let big = set(&[0, 1, 2]);
        assert!(small.is_subset(big));
        assert!(big.is_superset(small));
        assert!(!big.is_subset(small));
        assert!(IdSet::empty().is_subset(small));
    }

    #[test]
    fn min_max_selection() {
        let s = set(&[5, 9, 63]);
        assert_eq!(s.min(), Some(ProcessId::new(5)));
        assert_eq!(s.max(), Some(ProcessId::new(63)));
        assert_eq!(IdSet::empty().min(), None);
        assert_eq!(IdSet::empty().max(), None);
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let s = set(&[7, 0, 3]);
        let out: Vec<usize> = s.iter().map(ProcessId::index).collect();
        assert_eq!(out, vec![0, 3, 7]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn debug_render() {
        let s = set(&[0, 2]);
        assert_eq!(format!("{s:?}"), "{p0,p2}");
        assert_eq!(format!("{:?}", IdSet::empty()), "{}");
    }

    #[test]
    fn from_and_into_iterator_roundtrip() {
        let ids = [3usize, 1, 4, 1, 5];
        let s: IdSet = ids.iter().map(|&i| ProcessId::new(i)).collect();
        let back: Vec<usize> = s.into_iter().map(ProcessId::index).collect();
        assert_eq!(back, vec![1, 3, 4, 5]);
    }
}
