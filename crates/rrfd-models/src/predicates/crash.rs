//! Equations 1 + 2 of the paper: the synchronous **crash** model (§2 item 2).
//!
//! On top of the send-omission footprint bound (eq. 1), crashes are
//! *permanent and eventually universal*:
//!
//! ```text
//! (∀ r > 0)(∀ p_k ∈ S)( ∪_{p_i∈S} D(i,r)  ⊆  D(k, r+1) )
//! ```
//!
//! whoever was suspected by anyone in round `r` is suspected by everyone
//! from round `r+1` on. "It is thus explicit in the model definition that
//! the crash-fault model is a submodel of the send-omission-fault model."
//!
//! ### Reconciling eq. 1 and eq. 2
//!
//! Read literally, the two equations conflict: once `p_i` is suspected by
//! anyone, eq. 2 forces `p_i ∈ D(i, r+1)`, while eq. 1 forbids
//! self-suspicion. The intended reading (and the one the §1 prose supports:
//! "we do not preclude `p_i ∈ D(i,r)` … such a process may know the message
//! it sent through its local state") is that self-suspicion is forbidden
//! only for processes that have not crashed. [`Crash`] therefore requires
//! `p_i ∉ D(i,r)` only when `p_i` is outside the previous rounds' cumulative
//! union. This substitution is recorded in `DESIGN.md`.

use rrfd_core::{PredicateProgram, ProgOp, RrfdPredicate, SystemSize};

/// The synchronous crash predicate `P2` with failure bound `f`.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};
/// use rrfd_models::predicates::Crash;
///
/// let n = SystemSize::new(3).unwrap();
/// let p = Crash::new(n, 1);
/// let mut history = FaultPattern::new(n);
///
/// // Round 1: p0 alone notices p2's crash.
/// let mut r1 = RoundFaults::none(n);
/// r1.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
/// assert!(p.admits(&history, &r1));
/// history.push(r1);
///
/// // Round 2 must have *everyone* (p2 included) suspect p2.
/// assert!(!p.admits(&history, &RoundFaults::none(n)));
/// let all_suspect = RoundFaults::from_sets(
///     n,
///     vec![IdSet::singleton(ProcessId::new(2)); 3],
/// );
/// assert!(p.admits(&history, &all_suspect));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    n: SystemSize,
    f: usize,
}

impl Crash {
    /// Builds the predicate for `n` processes of which at most `f` may
    /// crash.
    ///
    /// # Panics
    ///
    /// Panics unless `f < n`.
    #[must_use]
    pub fn new(n: SystemSize, f: usize) -> Self {
        assert!(f < n.get(), "crash model requires f < n");
        Crash { n, f }
    }

    /// The failure bound `f`.
    #[must_use]
    pub fn f(self) -> usize {
        self.f
    }
}

impl RrfdPredicate for Crash {
    fn name(&self) -> String {
        format!("P2(crash, f={})", self.f)
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        // eq. 1 footprint + self-trust, then eq. 2 as the sticky-union op
        // (`prev_union \ {k} ⊆ D(k)` for all `k` is exactly
        // `prev_union ⊆ ⋂ₖ (D(k) ∪ {k})`).
        Some(PredicateProgram::all(
            self.n,
            vec![
                ProgOp::FootprintAtMost(self.f),
                ProgOp::SelfTrustFresh,
                ProgOp::PrevUnionSticky,
            ],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::SendOmission;
    use rrfd_core::ProcessId;
    use rrfd_core::{FaultPattern, IdSet, RoundFaults};

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    fn n4() -> SystemSize {
        SystemSize::new(4).unwrap()
    }

    #[test]
    fn crashes_become_universal_next_round() {
        let n = n4();
        let p = Crash::new(n, 2);
        let mut history = FaultPattern::new(n);
        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(1), ids(&[3]));
        assert!(p.admits(&history, &r1));
        history.push(r1);

        // p0 not suspecting p3 in round 2 violates eq. 2.
        let mut partial = RoundFaults::none(n);
        partial.set(ProcessId::new(1), ids(&[3]));
        assert!(!p.admits(&history, &partial));

        let universal = RoundFaults::from_sets(n, vec![ids(&[3]); 4]);
        assert!(p.admits(&history, &universal));
    }

    #[test]
    fn crashed_process_may_suspect_itself() {
        let n = n4();
        let p = Crash::new(n, 1);
        let mut history = FaultPattern::new(n);
        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(0), ids(&[3]));
        history.push(r1);

        // Round 2: everyone (including p3 itself) suspects p3 — required,
        // and legal despite eq. 1's self-trust clause.
        let universal = RoundFaults::from_sets(n, vec![ids(&[3]); 4]);
        assert!(p.admits(&history, &universal));
    }

    #[test]
    fn uncrashed_self_suspicion_is_rejected() {
        let n = n4();
        let p = Crash::new(n, 2);
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(2), ids(&[2]));
        assert!(!p.admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn footprint_bound_still_applies() {
        let n = n4();
        let p = Crash::new(n, 1);
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(0), ids(&[1, 2]));
        assert!(!p.admits(&FaultPattern::new(n), &rf));
    }

    #[test]
    fn crash_patterns_are_send_omission_patterns() {
        // The paper: crash is explicitly a submodel of send-omission.
        // Any crash-legal pattern whose crashed processes never self-suspect
        // before crashing is send-omission legal; here we check the
        // predicate implication directly on a staircase pattern.
        let n = n4();
        let crash = Crash::new(n, 2);
        let omission = SendOmission::new(n, 2);
        let mut history = FaultPattern::new(n);

        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(0), ids(&[2]));
        assert!(crash.admits(&history, &r1) && omission.admits(&history, &r1));
        history.push(r1);

        let r2 = RoundFaults::from_sets(n, vec![ids(&[2]); 4]);
        assert!(crash.admits(&history, &r2));
        // r2 has p2 ∈ D(2,2); under the reconciled self-trust clause (see
        // module docs) the omission predicate admits it too, preserving the
        // paper's submodel claim.
        assert!(omission.admits(&history, &r2));
    }

    #[test]
    #[should_panic(expected = "f < n")]
    fn requires_f_below_n() {
        let _ = Crash::new(n4(), 7);
    }
}
