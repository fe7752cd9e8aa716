//! §2 item 5: the **asynchronous atomic-snapshot** shared-memory model.
//!
//! On top of eq. 3 the snapshot model requires self-trust and that the
//! suspicion sets of any round form a containment chain:
//!
//! ```text
//! ∀ p_i, r:          p_i ∉ D(i,r)
//! ∀ p_i, p_j, r:     D(i,r) ⊆ D(j,r)  ∨  D(j,r) ⊆ D(i,r)
//! ```
//!
//! Intuitively, a snapshot taken later misses no write an earlier snapshot
//! saw, so "what I missed" is totally ordered across processes. The paper
//! notes that this model implementing f-resilient atomic-snapshot memory is
//! a simple corollary of Borowsky-Gafni [4].

use rrfd_core::{PredicateProgram, ProgOp, RrfdPredicate, SystemSize};

use super::AsyncResilient;

/// The atomic-snapshot predicate `P5` with failure bound `f`.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};
/// use rrfd_models::predicates::Snapshot;
///
/// let n = SystemSize::new(4).unwrap();
/// let p = Snapshot::new(n, 2);
/// // Chain: ∅ ⊆ {p3} ⊆ {p2,p3}.
/// let rf = RoundFaults::from_sets(n, vec![
///     IdSet::singleton(ProcessId::new(3)),
///     IdSet::empty(),
///     IdSet::singleton(ProcessId::new(3)),
///     IdSet::empty(),
/// ]);
/// assert!(p.admits(&FaultPattern::new(n), &rf));
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    base: AsyncResilient,
    f: usize,
}

impl Snapshot {
    /// Builds `P5` for `n` processes with at most `f` crash faults.
    ///
    /// # Panics
    ///
    /// Panics unless `f < n`.
    #[must_use]
    pub fn new(n: SystemSize, f: usize) -> Self {
        Snapshot {
            base: AsyncResilient::new(n, f),
            f,
        }
    }

    /// The failure bound `f`.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }
}

impl RrfdPredicate for Snapshot {
    fn name(&self) -> String {
        format!("P5(snapshot, f={})", self.f)
    }

    fn system_size(&self) -> SystemSize {
        self.base.system_size()
    }

    fn compile(&self) -> Option<PredicateProgram> {
        // Sorted-adjacent containment is equivalent to pairwise
        // comparability, which is what the chain op profiles.
        Some(PredicateProgram::all(
            self.system_size(),
            vec![
                ProgOp::PerProcAtMost(self.f),
                ProgOp::SelfTrustNever,
                ProgOp::ContainmentChain,
            ],
        ))
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
    fn incomparable_sets_are_rejected() {
        let n = n4();
        let p = Snapshot::new(n, 2);
        let rf = RoundFaults::from_sets(
            n,
            vec![ids(&[1]), ids(&[2]), IdSet::empty(), IdSet::empty()],
        );
        assert!(!p.admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn chains_are_admitted() {
        let n = n4();
        let p = Snapshot::new(n, 2);
        let rf =
            RoundFaults::from_sets(n, vec![ids(&[2, 3]), ids(&[3]), IdSet::empty(), ids(&[2])]);
        // {2,3} ⊇ {3}, {2} vs {3}: incomparable — rejected.
        assert!(!p.admits(&FaultPattern::new(n), &rf));

        // Fixing the chain (and self-trust: p3 must not carry {3}).
        let rf2 =
            RoundFaults::from_sets(n, vec![ids(&[2, 3]), ids(&[3]), ids(&[3]), IdSet::empty()]);
        assert!(p.admits(&FaultPattern::new(n), &rf2));
    }

    #[test]
    fn self_trust_is_enforced() {
        let n = n4();
        let p = Snapshot::new(n, 2);
        let rf = RoundFaults::from_sets(
            n,
            vec![IdSet::empty(), ids(&[1]), IdSet::empty(), IdSet::empty()],
        );
        // p1 suspects itself: chain holds but self-trust fails.
        assert!(!p.admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn resilience_bound_is_inherited() {
        let n = n4();
        let p = Snapshot::new(n, 1);
        let rf = RoundFaults::from_sets(
            n,
            vec![ids(&[2, 3]), IdSet::empty(), IdSet::empty(), IdSet::empty()],
        );
        assert!(!p.admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn snapshot_rounds_satisfy_eq4() {
        // P5 ⇒ eq4 whenever f < n: the union of a chain is its largest set,
        // of size ≤ f < n. This is why the snapshot model dodges partitions.
        use crate::predicates::SomeoneTrustedByAll;
        let n = n4();
        let snap = Snapshot::new(n, 2);
        let eq4 = SomeoneTrustedByAll::new(n);
        let rf = RoundFaults::from_sets(
            n,
            vec![ids(&[2, 3]), ids(&[3]), IdSet::empty(), IdSet::empty()],
        );
        assert!(snap.admits(&FaultPattern::new(n), &rf));
        assert!(eq4.admits(&FaultPattern::new(n), &rf));
    }
}
