//! Equation 3 of the paper: the **asynchronous message-passing** model with
//! at most `f` crash failures (§2 item 3).
//!
//! ```text
//! (∀ r > 0)(∀ p_i ∈ S)( |D(i,r)| ≤ f )
//! ```
//!
//! Every round, every process may miss at most `f` peers — the footprint of
//! "wait for n − f round-`r` messages". Unlike the synchronous predicates,
//! nothing is remembered across rounds: a process missed in one round may be
//! heard from in the next, and different processes may miss different peers.

use rrfd_core::{PredicateProgram, ProgOp, RrfdPredicate, SystemSize};

/// The asynchronous `f`-resilient predicate `P3`.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};
/// use rrfd_models::predicates::AsyncResilient;
///
/// let n = SystemSize::new(4).unwrap();
/// let p = AsyncResilient::new(n, 1);
/// let history = FaultPattern::new(n);
///
/// // Each process missing one (different!) peer per round is fine.
/// let rf = RoundFaults::from_sets(n, vec![
///     IdSet::singleton(ProcessId::new(1)),
///     IdSet::singleton(ProcessId::new(2)),
///     IdSet::singleton(ProcessId::new(3)),
///     IdSet::singleton(ProcessId::new(0)),
/// ]);
/// assert!(p.admits(&history, &rf));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncResilient {
    n: SystemSize,
    f: usize,
}

impl AsyncResilient {
    /// Builds the predicate for `n` processes with resilience `f`.
    ///
    /// # Panics
    ///
    /// Panics unless `f < n` (a process cannot be allowed to miss everyone,
    /// itself included, or rounds would never complete).
    #[must_use]
    pub fn new(n: SystemSize, f: usize) -> Self {
        assert!(f < n.get(), "resilience requires f < n");
        AsyncResilient { n, f }
    }

    /// The resilience bound `f`.
    #[must_use]
    pub fn f(self) -> usize {
        self.f
    }
}

impl RrfdPredicate for AsyncResilient {
    fn name(&self) -> String {
        format!("P3(async, f={})", self.f)
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::of(self.n, ProgOp::PerProcAtMost(self.f)))
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
    fn per_round_bound_is_enforced() {
        let p = AsyncResilient::new(n4(), 1);
        let mut rf = RoundFaults::none(n4());
        rf.set(ProcessId::new(0), ids(&[1, 2]));
        assert!(!p.admits(&FaultPattern::new(n4()), &rf));
        rf.set(ProcessId::new(0), ids(&[1]));
        assert!(p.admits(&FaultPattern::new(n4()), &rf));
    }

    #[test]
    fn no_memory_across_rounds() {
        // Cumulative misses may exceed f — only per-round size matters.
        let n = n4();
        let p = AsyncResilient::new(n, 1);
        let mut history = FaultPattern::new(n);
        for victim in 0..3 {
            let mut rf = RoundFaults::none(n);
            rf.set(ProcessId::new(3), ids(&[victim]));
            assert!(p.admits(&history, &rf));
            history.push(rf);
        }
        assert_eq!(history.cumulative_union().len(), 3);
    }

    #[test]
    fn self_suspicion_is_allowed() {
        // "We do not preclude p_i ∈ D(i,r)".
        let p = AsyncResilient::new(n4(), 1);
        let mut rf = RoundFaults::none(n4());
        rf.set(ProcessId::new(2), ids(&[2]));
        assert!(p.admits(&FaultPattern::new(n4()), &rf));
    }

    #[test]
    fn zero_resilience_means_no_misses() {
        let p = AsyncResilient::new(n4(), 0);
        assert!(p.admits(&FaultPattern::new(n4()), &RoundFaults::none(n4())));
        let mut rf = RoundFaults::none(n4());
        rf.set(ProcessId::new(0), ids(&[1]));
        assert!(!p.admits(&FaultPattern::new(n4()), &rf));
    }

    #[test]
    #[should_panic(expected = "f < n")]
    fn requires_f_below_n() {
        let _ = AsyncResilient::new(n4(), 4);
    }
}
