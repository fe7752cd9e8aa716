//! Fault patterns: the families of sets `D(i,r)` that an RRFD produces.
//!
//! A [`RoundFaults`] records `D(i,r)` for every process `i` at one round `r`;
//! a [`FaultPattern`] is the full history `D(i,r), i ∈ S, r = 1, 2, …`.
//! Predicates (see [`crate::predicate`]) are evaluated over these structures,
//! and the round engine records them so any run can be audited after the
//! fact.

use crate::id::{ProcessId, Round, SystemSize};
use crate::idset::IdSet;
use std::fmt;

/// The suspicion sets of one round: `faults[i] = D(i, r)`.
///
/// # Examples
///
/// ```
/// use rrfd_core::{IdSet, ProcessId, RoundFaults, SystemSize};
///
/// let n = SystemSize::new(3).unwrap();
/// let mut rf = RoundFaults::none(n);
/// rf.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
/// assert_eq!(rf.union().len(), 1);
/// assert!(rf.intersection().is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RoundFaults {
    n: SystemSize,
    faults: Vec<IdSet>,
}

impl RoundFaults {
    /// A round in which no process suspects anyone (`D(i,r) = ∅` for all i).
    #[must_use]
    pub fn none(n: SystemSize) -> Self {
        RoundFaults {
            n,
            faults: vec![IdSet::empty(); n.get()],
        }
    }

    /// Builds a round from explicit per-process suspicion sets.
    ///
    /// # Panics
    ///
    /// Panics if `faults.len() != n` or any set contains an identifier
    /// outside the universe.
    #[must_use]
    pub fn from_sets(n: SystemSize, faults: Vec<IdSet>) -> Self {
        assert_eq!(faults.len(), n.get(), "one D(i,r) per process required");
        let universe = IdSet::universe(n);
        for (i, d) in faults.iter().enumerate() {
            assert!(
                d.is_subset(universe),
                "D({i},r) = {d:?} escapes the process universe"
            );
        }
        RoundFaults { n, faults }
    }

    /// The system size this round belongs to.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// `D(i, r)` for process `i`.
    #[must_use]
    pub fn of(&self, i: ProcessId) -> IdSet {
        self.faults[i.index()]
    }

    /// Replaces `D(i, r)`.
    ///
    /// # Panics
    ///
    /// Panics if `d` contains identifiers outside the universe.
    pub fn set(&mut self, i: ProcessId, d: IdSet) {
        assert!(
            d.is_subset(IdSet::universe(self.n)),
            "D({i},r) = {d:?} escapes the process universe"
        );
        self.faults[i.index()] = d;
    }

    /// The union `∪_i D(i, r)`: everyone suspected by *someone* this round.
    #[must_use]
    pub fn union(&self) -> IdSet {
        self.faults
            .iter()
            .copied()
            .fold(IdSet::empty(), IdSet::union)
    }

    /// The intersection `∩_i D(i, r)`: everyone suspected by *all* this round.
    #[must_use]
    pub fn intersection(&self) -> IdSet {
        self.faults
            .iter()
            .copied()
            .fold(IdSet::universe(self.n), IdSet::intersection)
    }

    /// The paper's "uncertainty" of a round: `∪_i D(i,r) ∖ ∩_i D(i,r)`, the
    /// processes suspected by some but not by all. Theorem 3.1's predicate
    /// bounds `|uncertainty| < k`.
    #[must_use]
    pub fn uncertainty(&self) -> IdSet {
        self.union().difference(self.intersection())
    }

    /// Iterates over `(ProcessId, D(i,r))` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, IdSet)> + '_ {
        self.faults
            .iter()
            .enumerate()
            .map(|(i, &d)| (ProcessId::new(i), d))
    }

    /// The per-process sets as a slice indexed by process.
    #[must_use]
    pub fn as_slice(&self) -> &[IdSet] {
        &self.faults
    }
}

impl fmt::Debug for RoundFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A complete fault history: `pattern.round(r) = RoundFaults` for `r ≥ 1`.
///
/// Grows as rounds are appended by the engine; predicates with memory (the
/// crash predicate of §2 item 2, the detector-S predicate of item 6) inspect
/// the whole history.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, Round, RoundFaults, SystemSize};
///
/// let n = SystemSize::new(3).unwrap();
/// let mut pattern = FaultPattern::new(n);
/// pattern.push(RoundFaults::none(n));
/// assert_eq!(pattern.rounds(), 1);
/// assert!(pattern.round(Round::FIRST).unwrap().union().is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FaultPattern {
    n: SystemSize,
    rounds: Vec<RoundFaults>,
}

impl FaultPattern {
    /// An empty history for a system of `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        FaultPattern {
            n,
            rounds: Vec::new(),
        }
    }

    /// The system size.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` when no round has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Appends the next round's suspicion sets.
    ///
    /// # Panics
    ///
    /// Panics if the round was built for a different system size.
    pub fn push(&mut self, round: RoundFaults) {
        assert_eq!(
            round.system_size(),
            self.n,
            "round built for a different system size"
        );
        self.rounds.push(round);
    }

    /// Forgets every recorded round, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.rounds.clear();
    }

    /// The suspicion sets of round `r`, if recorded.
    #[must_use]
    pub fn round(&self, r: Round) -> Option<&RoundFaults> {
        self.rounds.get(r.index())
    }

    /// The most recently recorded round.
    #[must_use]
    pub fn last(&self) -> Option<&RoundFaults> {
        self.rounds.last()
    }

    /// `D(i, r)` directly, if recorded.
    #[must_use]
    pub fn of(&self, i: ProcessId, r: Round) -> Option<IdSet> {
        self.round(r).map(|rf| rf.of(i))
    }

    /// The cumulative union `∪_{0<r≤R} ∪_i D(i, r)` over all recorded rounds:
    /// every process ever suspected by anyone. The send-omission predicate
    /// (eq. 1) bounds its size by `f`; the detector-S predicate (item 6)
    /// requires it to omit at least one process.
    #[must_use]
    pub fn cumulative_union(&self) -> IdSet {
        self.rounds
            .iter()
            .map(RoundFaults::union)
            .fold(IdSet::empty(), IdSet::union)
    }

    /// Iterates over `(Round, &RoundFaults)` in round order.
    pub fn iter(&self) -> impl Iterator<Item = (Round, &RoundFaults)> + '_ {
        self.rounds
            .iter()
            .enumerate()
            .map(|(idx, rf)| (Round::new(idx as u32 + 1), rf))
    }
}

impl fmt::Debug for FaultPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    fn n4() -> SystemSize {
        SystemSize::new(4).unwrap()
    }

    #[test]
    fn patterns_are_hashable() {
        use std::collections::HashSet;

        let n = n4();
        let mut a = FaultPattern::new(n);
        a.push(RoundFaults::none(n));
        let mut b = FaultPattern::new(n);
        b.push(RoundFaults::from_sets(
            n,
            vec![ids(&[3]), ids(&[3]), ids(&[3]), ids(&[3])],
        ));
        let mut set = HashSet::new();
        assert!(set.insert(a.clone()));
        assert!(set.insert(b));
        assert!(!set.insert(a), "re-inserting an equal pattern must dedup");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn none_has_empty_sets() {
        let rf = RoundFaults::none(n4());
        for (_, d) in rf.iter() {
            assert!(d.is_empty());
        }
        assert!(rf.union().is_empty());
        assert!(rf.intersection().is_empty());
        assert!(rf.uncertainty().is_empty());
    }

    #[test]
    fn union_intersection_uncertainty() {
        let n = n4();
        let rf = RoundFaults::from_sets(n, vec![ids(&[3]), ids(&[2, 3]), ids(&[3]), ids(&[3])]);
        assert_eq!(rf.union(), ids(&[2, 3]));
        assert_eq!(rf.intersection(), ids(&[3]));
        assert_eq!(rf.uncertainty(), ids(&[2]));
    }

    #[test]
    #[should_panic(expected = "one D(i,r) per process")]
    fn from_sets_checks_arity() {
        let _ = RoundFaults::from_sets(n4(), vec![IdSet::empty(); 3]);
    }

    #[test]
    #[should_panic(expected = "escapes the process universe")]
    fn from_sets_checks_universe() {
        let _ = RoundFaults::from_sets(
            n4(),
            vec![ids(&[5]), IdSet::empty(), IdSet::empty(), IdSet::empty()],
        );
    }

    #[test]
    #[should_panic(expected = "escapes the process universe")]
    fn set_checks_universe() {
        let mut rf = RoundFaults::none(n4());
        rf.set(ProcessId::new(0), ids(&[7]));
    }

    #[test]
    fn pattern_records_rounds_in_order() {
        let n = n4();
        let mut p = FaultPattern::new(n);
        assert!(p.is_empty());
        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(0), ids(&[1]));
        p.push(r1.clone());
        let mut r2 = RoundFaults::none(n);
        r2.set(ProcessId::new(2), ids(&[0, 1]));
        p.push(r2.clone());

        assert_eq!(p.rounds(), 2);
        assert_eq!(p.round(Round::new(1)), Some(&r1));
        assert_eq!(p.round(Round::new(2)), Some(&r2));
        assert_eq!(p.round(Round::new(3)), None);
        assert_eq!(p.last(), Some(&r2));
        assert_eq!(p.of(ProcessId::new(2), Round::new(2)), Some(ids(&[0, 1])));
        assert_eq!(p.cumulative_union(), ids(&[0, 1]));
    }

    #[test]
    fn cumulative_union_grows_monotonically() {
        let n = n4();
        let mut p = FaultPattern::new(n);
        let mut seen = IdSet::empty();
        for r in 0..4 {
            let mut rf = RoundFaults::none(n);
            rf.set(ProcessId::new(r % 4), ids(&[(r + 1) % 4]));
            p.push(rf);
            let cu = p.cumulative_union();
            assert!(seen.is_subset(cu));
            seen = cu;
        }
    }

    #[test]
    fn iter_yields_one_based_rounds() {
        let n = n4();
        let mut p = FaultPattern::new(n);
        p.push(RoundFaults::none(n));
        p.push(RoundFaults::none(n));
        let rounds: Vec<u32> = p.iter().map(|(r, _)| r.get()).collect();
        assert_eq!(rounds, vec![1, 2]);
    }
}
