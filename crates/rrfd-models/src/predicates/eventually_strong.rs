//! The **eventually strong** detector ◊S as an RRFD — the §7 future-work
//! direction ("show that in a precise sense RRFD generalizes the earlier
//! notion of fault-detector and rederive the associated results").
//!
//! Chandra-Toueg's ◊S guarantees that *eventually* some correct process is
//! never suspected. For executable finite runs, "eventually" is a
//! stabilization round `R` baked into the predicate:
//!
//! ```text
//! ∀ r, i:  |D(i,r)| ≤ f                      (eq. 3 — asynchrony)
//! ∃ p_j:  ∀ r > R, ∀ i:  p_j ∉ D(i,r)        (eventual accuracy)
//! ```
//!
//! Before round `R` the adversary is unconstrained beyond eq. 3 — in
//! particular *everyone* may be suspected, which is exactly why consensus
//! under ◊S needs the machinery of
//! [`DiamondSConsensus`](../../rrfd_protocols/diamond_s_consensus) (locking
//! via quorums, `2f < n`) rather than item 6's simple rotation.

use rrfd_core::{FaultPattern, IdSet, PredicateProgram, ProgOp, Round, RrfdPredicate, SystemSize};

use super::AsyncResilient;

/// The ◊S predicate with resilience `f` and stabilization round `R`.
#[derive(Debug, Clone, Copy)]
pub struct EventuallyStrong {
    base: AsyncResilient,
    stabilization: Round,
}

impl EventuallyStrong {
    /// Builds ◊S for `n` processes, at most `f` misses per round, with
    /// accuracy holding strictly after `stabilization`.
    ///
    /// # Panics
    ///
    /// Panics unless `2f < n` — the resilience consensus under ◊S
    /// requires, enforced here so the model is honest about its use.
    #[must_use]
    pub fn new(n: SystemSize, f: usize, stabilization: Round) -> Self {
        assert!(2 * f < n.get(), "◊S consensus requires 2f < n");
        EventuallyStrong {
            base: AsyncResilient::new(n, f),
            stabilization,
        }
    }

    /// The stabilization round `R`.
    #[must_use]
    pub fn stabilization(&self) -> Round {
        self.stabilization
    }

    /// The per-round miss bound `f`.
    #[must_use]
    pub fn f(&self) -> usize {
        self.base.f()
    }

    /// The set of processes unsuspected in every recorded round strictly
    /// after `R` (the candidate immortals).
    #[must_use]
    pub fn immortal_candidates(&self, history: &FaultPattern) -> IdSet {
        let n = self.system_size();
        let mut candidates = IdSet::universe(n);
        for (r, rf) in history.iter() {
            if r > self.stabilization {
                candidates -= rf.union();
            }
        }
        candidates
    }
}

impl RrfdPredicate for EventuallyStrong {
    fn name(&self) -> String {
        format!("◊S(f={}, stabilize>{})", self.base.f(), self.stabilization)
    }

    fn system_size(&self) -> SystemSize {
        self.base.system_size()
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::all(
            self.system_size(),
            vec![
                ProgOp::PerProcAtMost(self.base.f()),
                ProgOp::ImmortalSurvives {
                    stabilization: self.stabilization,
                },
            ],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::ProcessId;
    use rrfd_core::RoundFaults;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    #[test]
    fn before_stabilization_everyone_may_be_suspected() {
        let size = n(5);
        let p = EventuallyStrong::new(size, 2, Round::new(3));
        let h = FaultPattern::new(size);
        // Round 1: collectively every process is suspected — legal.
        let rf = RoundFaults::from_sets(
            size,
            vec![ids(&[1, 2]), ids(&[3, 4]), ids(&[0]), ids(&[0]), ids(&[0])],
        );
        assert!(p.admits(&h, &rf));
    }

    #[test]
    fn after_stabilization_an_immortal_must_survive() {
        let size = n(5);
        let p = EventuallyStrong::new(size, 2, Round::new(1));
        let mut h = FaultPattern::new(size);
        h.push(RoundFaults::none(size)); // round 1 (≤ R)

        // Round 2 (> R): suspecting {0,1} keeps {2,3,4} as candidates.
        let rf = RoundFaults::from_sets(size, vec![ids(&[0, 1]); 5]);
        assert!(p.admits(&h, &rf));
        h.push(rf);
        assert_eq!(p.immortal_candidates(&h), ids(&[2, 3, 4]));

        // Round 3: suspecting {2,3} narrows candidates to {4}.
        let rf = RoundFaults::from_sets(size, vec![ids(&[2, 3]); 5]);
        assert!(p.admits(&h, &rf));
        h.push(rf);
        assert_eq!(p.immortal_candidates(&h), ids(&[4]));

        // Round 4: suspecting p4 would kill the last candidate — rejected.
        let rf = RoundFaults::from_sets(size, vec![ids(&[4]); 5]);
        assert!(!p.admits(&h, &rf));
    }

    #[test]
    fn per_round_bound_still_applies() {
        let size = n(5);
        let p = EventuallyStrong::new(size, 1, Round::new(10));
        let h = FaultPattern::new(size);
        let mut rf = RoundFaults::none(size);
        rf.set(ProcessId::new(0), ids(&[1, 2]));
        assert!(!p.admits(&h, &rf));
    }

    #[test]
    #[should_panic(expected = "2f < n")]
    fn majority_resilience_is_enforced() {
        let _ = EventuallyStrong::new(n(4), 2, Round::new(1));
    }
}
