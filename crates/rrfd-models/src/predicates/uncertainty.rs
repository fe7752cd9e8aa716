//! §3 and §5: the **k-uncertainty** detector of Theorem 3.1 and the
//! **identical-views** detector of equation 5.
//!
//! Theorem 3.1's detector bounds per-round disagreement between the local
//! fault detectors:
//!
//! ```text
//! (∀ r > 0)( |∪_{p_i∈S} D(i,r)  ∖  ∩_{p_i∈S} D(i,r)| < k )
//! ```
//!
//! With it, k-set agreement is solvable in a single round. For `k = 1` the
//! local detectors may never disagree, which is equation 5's
//!
//! ```text
//! (∀ r > 0)(∀ p_i, p_j ∈ S)( D(i,r) = D(j,r) )
//! ```
//!
//! — the predicate the semi-synchronous system of §5 implements with two
//! steps per round, yielding 2-step consensus.

use rrfd_core::{PredicateProgram, ProgOp, RrfdPredicate, SystemSize};

/// The Theorem 3.1 predicate `Pk`: per-round uncertainty below `k`.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};
/// use rrfd_models::predicates::KUncertainty;
///
/// let n = SystemSize::new(4).unwrap();
/// let p = KUncertainty::new(n, 2);
/// // All agree p3 is out; they disagree only about p2: uncertainty 1 < 2.
/// let rf = RoundFaults::from_sets(n, vec![
///     IdSet::singleton(ProcessId::new(3)),
///     IdSet::singleton(ProcessId::new(3)).union(IdSet::singleton(ProcessId::new(2))),
///     IdSet::singleton(ProcessId::new(3)),
///     IdSet::singleton(ProcessId::new(3)),
/// ]);
/// assert!(p.admits(&FaultPattern::new(n), &rf));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KUncertainty {
    n: SystemSize,
    k: usize,
}

impl KUncertainty {
    /// Builds `Pk` for `n` processes and agreement parameter `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k < n` (k-set agreement is defined for `n > k`).
    #[must_use]
    pub fn new(n: SystemSize, k: usize) -> Self {
        assert!(k >= 1, "k-uncertainty requires k ≥ 1");
        assert!(k < n.get(), "k-set agreement needs n > k");
        KUncertainty { n, k }
    }

    /// The agreement parameter `k`.
    #[must_use]
    pub fn k(self) -> usize {
        self.k
    }
}

impl RrfdPredicate for KUncertainty {
    fn name(&self) -> String {
        format!("Pk(uncertainty < {})", self.k)
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        // `new` guarantees `k ≥ 1`, so the strict bound `< k` is `≤ k − 1`.
        Some(PredicateProgram::of(
            self.n,
            ProgOp::UncertaintyAtMost(self.k - 1),
        ))
    }
}

/// Equation 5: all processes receive identical suspicion sets every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdenticalViews {
    n: SystemSize,
}

impl IdenticalViews {
    /// Builds `Peq` for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        IdenticalViews { n }
    }
}

impl RrfdPredicate for IdenticalViews {
    fn name(&self) -> String {
        "Peq(D(i,r) = D(j,r))".to_owned()
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::of(self.n, ProgOp::IdenticalViews))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::{FaultPattern, RoundFaults};
    use rrfd_core::{IdSet, ProcessId};

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    fn n4() -> SystemSize {
        SystemSize::new(4).unwrap()
    }

    #[test]
    fn uncertainty_budget_is_strict() {
        let n = n4();
        // k = 1: zero disagreement allowed.
        let p1 = KUncertainty::new(n, 1);
        let agree = RoundFaults::from_sets(n, vec![ids(&[3]); 4]);
        assert!(p1.admits(&FaultPattern::new(n), &agree));
        let disagree =
            RoundFaults::from_sets(n, vec![ids(&[3]), ids(&[3]), ids(&[3]), IdSet::empty()]);
        assert!(!p1.admits(&FaultPattern::new(n), &disagree));
        // k = 2 tolerates one contested process.
        assert!(KUncertainty::new(n, 2).admits(&FaultPattern::new(n), &disagree));
    }

    #[test]
    fn uncertainty_counts_processes_not_pairs() {
        let n = n4();
        let p = KUncertainty::new(n, 2);
        // Two contested processes (p2 by some, p3 by some): uncertainty 2.
        let rf = RoundFaults::from_sets(
            n,
            vec![ids(&[2]), ids(&[3]), IdSet::empty(), IdSet::empty()],
        );
        assert!(!p.admits(&FaultPattern::new(n), &rf));
        assert!(KUncertainty::new(n, 3).admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn no_memory_between_rounds() {
        let n = n4();
        let p = KUncertainty::new(n, 1);
        let mut history = FaultPattern::new(n);
        history.push(RoundFaults::from_sets(n, vec![ids(&[0]); 4]));
        // A completely different unanimous verdict next round is fine.
        let rf = RoundFaults::from_sets(n, vec![ids(&[1, 2]); 4]);
        assert!(p.admits(&history, &rf));
    }

    #[test]
    fn identical_views_is_exactly_equality() {
        let n = n4();
        let p = IdenticalViews::new(n);
        assert!(p.admits(&FaultPattern::new(n), &RoundFaults::none(n)));
        let same = RoundFaults::from_sets(n, vec![ids(&[1, 2]); 4]);
        assert!(p.admits(&FaultPattern::new(n), &same));
        let mut off = same.clone();
        off.set(ProcessId::new(3), ids(&[1]));
        assert!(!p.admits(&FaultPattern::new(n), &off));
    }

    #[test]
    fn identical_views_implies_one_uncertainty() {
        // Peq ⇒ Pk with k = 1: equal sets have empty uncertainty.
        let n = n4();
        let peq = IdenticalViews::new(n);
        let p1 = KUncertainty::new(n, 1);
        for sets in [vec![IdSet::empty(); 4], vec![ids(&[0, 3]); 4]] {
            let rf = RoundFaults::from_sets(n, sets);
            assert!(peq.admits(&FaultPattern::new(n), &rf));
            assert!(p1.admits(&FaultPattern::new(n), &rf));
        }
    }

    #[test]
    #[should_panic(expected = "n > k")]
    fn k_must_be_below_n() {
        let _ = KUncertainty::new(n4(), 4);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn k_zero_is_rejected() {
        let _ = KUncertainty::new(n4(), 0);
    }
}
