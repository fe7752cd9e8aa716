//! Equation 4 and its antisymmetric alternative: the **asynchronous SWMR
//! shared-memory** model (§2 item 4).
//!
//! The paper settles on eq. 3 plus
//!
//! ```text
//! ∀ r > 0:  |∪_{p_j∈S} D(j,r)| < n
//! ```
//!
//! — "in any round there is at least one process that is declared faulty to
//! no process" — which avoids the network-partition problem message passing
//! has when `2f ≥ n`. The paper also discusses an alternative clause,
//!
//! ```text
//! ∀ p_i, p_j:  p_j ∈ D(i,r) ⇒ p_i ∉ D(j,r)
//! ```
//!
//! (whoever misses you was seen by you — the first writer is read by all),
//! noting it does **not** imply eq. 4: misses can form a ring
//! `p_1 → p_2 → … → p_n → p_1`. Both clauses are provided here, and the
//! cycle-length experiment of §2 item 4 is reproduced in
//! `rrfd-protocols::equivalence`.

use rrfd_core::{And, PredicateProgram, ProgOp, RrfdPredicate, SystemSize};

use super::AsyncResilient;

/// Equation 4 alone: some process is suspected by nobody each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SomeoneTrustedByAll {
    n: SystemSize,
}

impl SomeoneTrustedByAll {
    /// Builds the clause for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        SomeoneTrustedByAll { n }
    }
}

impl RrfdPredicate for SomeoneTrustedByAll {
    fn name(&self) -> String {
        "eq4(|∪D| < n)".to_owned()
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::of(
            self.n,
            ProgOp::UnionAtMost(self.n.get() - 1),
        ))
    }
}

/// The antisymmetry clause: `p_j ∈ D(i,r) ⇒ p_i ∉ D(j,r)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntiSymmetric {
    n: SystemSize,
}

impl AntiSymmetric {
    /// Builds the clause for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        AntiSymmetric { n }
    }
}

impl RrfdPredicate for AntiSymmetric {
    fn name(&self) -> String {
        "antisym(j∈D(i) ⇒ i∉D(j))".to_owned()
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::of(self.n, ProgOp::AntiSymmetric))
    }
}

/// The paper's SWMR model `P4 = P3 ∧ eq4`.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};
/// use rrfd_models::predicates::Swmr;
///
/// let n = SystemSize::new(3).unwrap();
/// let p = Swmr::new(n, 2);
/// // Everyone missing someone — but p0 is missed by nobody.
/// let rf = RoundFaults::from_sets(n, vec![
///     IdSet::singleton(ProcessId::new(1)),
///     IdSet::singleton(ProcessId::new(2)),
///     IdSet::singleton(ProcessId::new(1)),
/// ]);
/// assert!(p.admits(&FaultPattern::new(n), &rf));
/// ```
#[derive(Debug, Clone)]
pub struct Swmr {
    inner: And<AsyncResilient, SomeoneTrustedByAll>,
    f: usize,
}

impl Swmr {
    /// Builds `P4` for `n` processes with at most `f` crash faults.
    ///
    /// # Panics
    ///
    /// Panics unless `f < n`.
    #[must_use]
    pub fn new(n: SystemSize, f: usize) -> Self {
        Swmr {
            inner: And::new(AsyncResilient::new(n, f), SomeoneTrustedByAll::new(n)),
            f,
        }
    }

    /// The resilience bound `f`.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }
}

impl RrfdPredicate for Swmr {
    fn name(&self) -> String {
        format!("P4(SWMR, f={})", self.f)
    }

    fn system_size(&self) -> SystemSize {
        self.inner.system_size()
    }

    fn compile(&self) -> Option<PredicateProgram> {
        self.inner.compile()
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
    fn eq4_rejects_total_suspicion() {
        let n = n4();
        let p = SomeoneTrustedByAll::new(n);
        // Collectively every process is suspected by someone.
        let rf = RoundFaults::from_sets(n, vec![ids(&[1]), ids(&[2]), ids(&[3]), ids(&[0])]);
        assert!(!p.admits(&FaultPattern::new(n), &rf));
        // Leave p3 untouched.
        let rf2 = RoundFaults::from_sets(n, vec![ids(&[1]), ids(&[2]), ids(&[0]), ids(&[0])]);
        assert!(p.admits(&FaultPattern::new(n), &rf2));
    }

    #[test]
    fn antisymmetry_rejects_mutual_misses() {
        let n = n4();
        let p = AntiSymmetric::new(n);
        let mutual = RoundFaults::from_sets(
            n,
            vec![ids(&[1]), ids(&[0]), IdSet::empty(), IdSet::empty()],
        );
        assert!(!p.admits(&FaultPattern::new(n), &mutual));
    }

    #[test]
    fn antisymmetry_admits_the_ring() {
        // The paper's counterexample: p1 misses p2 misses p3 … misses p1.
        // Legal under antisymmetry (n ≥ 3), yet |∪D| = n, so eq4 rejects it.
        let n = n4();
        let ring = RoundFaults::from_sets(n, (0..4).map(|i| ids(&[(i + 1) % 4])).collect());
        assert!(AntiSymmetric::new(n).admits(&FaultPattern::new(n), &ring));
        assert!(!SomeoneTrustedByAll::new(n).admits(&FaultPattern::new(n), &ring));
    }

    #[test]
    fn swmr_needs_both_clauses() {
        let n = n4();
        let p = Swmr::new(n, 1);
        // eq4 holds but P3 fails: p0 misses two peers.
        let rf = RoundFaults::from_sets(
            n,
            vec![ids(&[1, 2]), IdSet::empty(), IdSet::empty(), IdSet::empty()],
        );
        assert!(!p.admits(&FaultPattern::new(n), &rf));
        // Both hold.
        let rf2 = RoundFaults::from_sets(
            n,
            vec![ids(&[1]), IdSet::empty(), IdSet::empty(), IdSet::empty()],
        );
        assert!(p.admits(&FaultPattern::new(n), &rf2));
    }

    #[test]
    fn self_suspicion_violates_antisymmetry() {
        // j = i gives p_i ∈ D(i,r) ⇒ p_i ∉ D(i,r): self-suspicion is
        // inconsistent under the antisymmetric reading.
        let n = n4();
        let p = AntiSymmetric::new(n);
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(0), ids(&[0]));
        assert!(!p.admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn names_are_informative() {
        assert!(Swmr::new(n4(), 2).name().contains("SWMR"));
        assert!(AntiSymmetric::new(n4()).name().contains("antisym"));
    }
}
