//! §2 item 3's *System B*: the witness that eq. 3 is **not** the weakest
//! RRFD for asynchronous message passing.
//!
//! For `f < t` and `2t < n`, System B lets up to `t` processes be "slow"
//! and miss up to `t` peers each, while everyone else misses at most `f`:
//!
//! ```text
//! ∃ Q ⊆ S, |Q| ≤ t:  (∀ p_i ∈ S∖Q: |D(i,r)| ≤ f)  ∧  (∀ p_i ∈ Q: |D(i,r)| ≤ t)
//! ```
//!
//! Two rounds of B implement one round of A (= eq. 3 with bound `f`), so A
//! is a *strict* submodel of B even though both are equivalent to the same
//! asynchronous system. The two-rounds-of-B construction is implemented in
//! `rrfd-protocols::equivalence` and measured by experiment E2.

use rrfd_core::{PredicateProgram, ProgOp, RrfdPredicate, SystemSize};

/// The System B predicate `PB(f, t)`.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};
/// use rrfd_models::predicates::SystemB;
///
/// let n = SystemSize::new(5).unwrap();
/// let p = SystemB::new(n, 1, 2);
/// // p0 is slow and misses two peers; everyone else misses at most one.
/// let rf = RoundFaults::from_sets(n, vec![
///     IdSet::singleton(ProcessId::new(1)).union(IdSet::singleton(ProcessId::new(2))),
///     IdSet::empty(),
///     IdSet::singleton(ProcessId::new(0)),
///     IdSet::empty(),
///     IdSet::empty(),
/// ]);
/// assert!(p.admits(&FaultPattern::new(n), &rf));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemB {
    n: SystemSize,
    f: usize,
    t: usize,
}

impl SystemB {
    /// Builds `PB` for `n` processes with fast bound `f` and slow bound `t`.
    ///
    /// # Panics
    ///
    /// Panics unless `f < t` and `2t < n`, the side conditions under which
    /// the paper proves two rounds of B implement a round of A.
    #[must_use]
    pub fn new(n: SystemSize, f: usize, t: usize) -> Self {
        assert!(f < t, "System B requires f < t");
        assert!(2 * t < n.get(), "System B requires 2t < n");
        SystemB { n, f, t }
    }

    /// The fast-process bound `f`.
    #[must_use]
    pub fn f(self) -> usize {
        self.f
    }

    /// The slow-process bound `t` (also the cap on how many may be slow).
    #[must_use]
    pub fn t(self) -> usize {
        self.t
    }
}

impl RrfdPredicate for SystemB {
    fn name(&self) -> String {
        format!("PB(f={}, t={})", self.f, self.t)
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::of(
            self.n,
            ProgOp::SlowBound {
                fast: self.f,
                slow: self.t,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::AsyncResilient;
    use rrfd_core::{FaultPattern, RoundFaults};
    use rrfd_core::{IdSet, ProcessId};

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    fn n7() -> SystemSize {
        SystemSize::new(7).unwrap()
    }

    #[test]
    fn fast_processes_keep_the_small_bound() {
        let n = n7();
        let p = SystemB::new(n, 1, 3);
        let mut rf = RoundFaults::none(n);
        // Three slow processes at the t-bound…
        rf.set(ProcessId::new(0), ids(&[1, 2, 3]));
        rf.set(ProcessId::new(1), ids(&[2, 3, 4]));
        rf.set(ProcessId::new(2), ids(&[3, 4, 5]));
        assert!(p.admits(&FaultPattern::new(n), &rf));
        // …a fourth is one too many.
        rf.set(ProcessId::new(3), ids(&[4, 5]));
        assert!(!p.admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn nobody_may_exceed_t() {
        let n = n7();
        let p = SystemB::new(n, 1, 2);
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(6), ids(&[0, 1, 2]));
        assert!(!p.admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn a_is_a_strict_submodel_of_b() {
        let n = n7();
        let a = AsyncResilient::new(n, 1);
        let b = SystemB::new(n, 1, 2);
        let history = FaultPattern::new(n);

        // Every A-round is a B-round (Q = ∅ works).
        let mut a_round = RoundFaults::none(n);
        a_round.set(ProcessId::new(4), ids(&[5]));
        assert!(a.admits(&history, &a_round));
        assert!(b.admits(&history, &a_round));

        // Some B-round is not an A-round: strictness.
        let mut b_only = RoundFaults::none(n);
        b_only.set(ProcessId::new(0), ids(&[1, 2]));
        assert!(b.admits(&history, &b_only));
        assert!(!a.admits(&history, &b_only));
    }

    #[test]
    #[should_panic(expected = "f < t")]
    fn f_must_be_below_t() {
        let _ = SystemB::new(n7(), 2, 2);
    }

    #[test]
    #[should_panic(expected = "2t < n")]
    fn t_must_be_below_half_n() {
        let _ = SystemB::new(n7(), 1, 4);
    }
}
