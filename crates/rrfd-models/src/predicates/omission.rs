//! Equation 1 of the paper: the synchronous **send-omission** model
//! (§2 item 1).
//!
//! ```text
//! ∀ p_i, r:  p_i ∉ D(i,r)   ∧   |∪_{r>0} ∪_{p_i∈S} D(i,r)| ≤ f
//! ```
//!
//! A process never suspects itself, and across the whole run at most `f`
//! distinct processes are ever suspected by anyone — exactly the footprint
//! of `f` send-omission-faulty processes in a synchronous round.
//!
//! As with [`Crash`](super::Crash) (see its module docs), the self-trust
//! clause is read as applying to processes that are not already faulty:
//! `p_i ∈ D(i,r)` is allowed when `p_i` was suspected in an *earlier* round
//! ("such a process may know the message it sent through its local state",
//! §1). This keeps the paper's explicit claim that the crash model is a
//! submodel of the send-omission model true at the predicate level.

use rrfd_core::{PredicateProgram, ProgOp, RrfdPredicate, SystemSize};

/// The send-omission predicate `P1` with failure bound `f`.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};
/// use rrfd_models::predicates::SendOmission;
///
/// let n = SystemSize::new(3).unwrap();
/// let p = SendOmission::new(n, 1);
/// let history = FaultPattern::new(n);
///
/// let mut ok = RoundFaults::none(n);
/// ok.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
/// assert!(p.admits(&history, &ok));
///
/// let mut too_many = ok.clone();
/// too_many.set(ProcessId::new(1), IdSet::singleton(ProcessId::new(0)));
/// assert!(!p.admits(&history, &too_many)); // two suspects exceed f = 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOmission {
    n: SystemSize,
    f: usize,
}

impl SendOmission {
    /// Builds the predicate for `n` processes of which at most `f` may be
    /// send-omission faulty.
    ///
    /// # Panics
    ///
    /// Panics unless `f < n` — the paper requires "at most `f < n`
    /// processes".
    #[must_use]
    pub fn new(n: SystemSize, f: usize) -> Self {
        assert!(f < n.get(), "send-omission requires f < n");
        SendOmission { n, f }
    }

    /// The failure bound `f`.
    #[must_use]
    pub fn f(self) -> usize {
        self.f
    }
}

impl RrfdPredicate for SendOmission {
    fn name(&self) -> String {
        format!("P1(send-omission, f={})", self.f)
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::all(
            self.n,
            vec![ProgOp::SelfTrustFresh, ProgOp::FootprintAtMost(self.f)],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::ProcessId;
    use rrfd_core::{FaultPattern, IdSet, RoundFaults};

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    fn n4() -> SystemSize {
        SystemSize::new(4).unwrap()
    }

    #[test]
    fn fault_free_round_is_always_admitted() {
        let p = SendOmission::new(n4(), 0);
        assert!(p.admits(&FaultPattern::new(n4()), &RoundFaults::none(n4())));
    }

    #[test]
    fn fresh_self_suspicion_is_rejected() {
        let p = SendOmission::new(n4(), 2);
        let mut rf = RoundFaults::none(n4());
        rf.set(ProcessId::new(1), ids(&[1]));
        assert!(!p.admits(&FaultPattern::new(n4()), &rf));
    }

    #[test]
    fn self_suspicion_of_known_faulty_is_allowed() {
        // p1 was already suspected, so it may now learn of its own fault.
        let n = n4();
        let p = SendOmission::new(n, 1);
        let mut history = FaultPattern::new(n);
        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(0), ids(&[1]));
        history.push(r1);
        let mut r2 = RoundFaults::none(n);
        r2.set(ProcessId::new(1), ids(&[1]));
        assert!(p.admits(&history, &r2));
    }

    #[test]
    fn footprint_accumulates_across_rounds() {
        let n = n4();
        let p = SendOmission::new(n, 2);
        let mut history = FaultPattern::new(n);
        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(0), ids(&[2]));
        r1.set(ProcessId::new(1), ids(&[3]));
        assert!(p.admits(&history, &r1)); // {p2,p3}: exactly f = 2
        history.push(r1);

        // A *new* suspect in a later round blows the budget…
        let mut r2 = RoundFaults::none(n);
        r2.set(ProcessId::new(0), ids(&[1]));
        assert!(!p.admits(&history, &r2));

        // …but re-suspecting old suspects is free.
        let mut r2b = RoundFaults::none(n);
        r2b.set(ProcessId::new(0), ids(&[2, 3]));
        r2b.set(ProcessId::new(2), ids(&[3]));
        assert!(p.admits(&history, &r2b));
    }

    #[test]
    fn unreliability_is_allowed_within_budget() {
        // The RRFD may suspect p2 to some and deliver to others, and flip
        // its mind between rounds — predicate 1 only bounds the footprint.
        let n = n4();
        let p = SendOmission::new(n, 1);
        let mut history = FaultPattern::new(n);
        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(0), ids(&[2]));
        assert!(p.admits(&history, &r1));
        history.push(r1);
        // p2 is "back" for everyone in round 2.
        assert!(p.admits(&history, &RoundFaults::none(n)));
    }

    #[test]
    #[should_panic(expected = "f < n")]
    fn requires_f_below_n() {
        let _ = SendOmission::new(n4(), 4);
    }

    #[test]
    fn name_mentions_bound() {
        assert_eq!(SendOmission::new(n4(), 2).name(), "P1(send-omission, f=2)");
    }
}
