//! §2 item 6: the asynchronous system augmented with the eventually-strong
//! failure detector **S** of Chandra-Toueg, as an RRFD.
//!
//! The natural predicate is "some process is never suspected by anyone":
//!
//! ```text
//! (∃ p_j)( p_j ∉ ∪_{r>0} ∪_{p_i∈S} D(i,r) )
//! ```
//!
//! which, as the paper observes, is equivalent to
//!
//! ```text
//! |∪_{r>0} ∪_{p_i∈S} D(i,r)| < n
//! ```
//!
//! — and that is exactly the send-omission predicate's footprint clause
//! with `f = n − 1`. "Thus we have reduced the existence of a wait-free
//! algorithm for S to the existence of an algorithm for consensus in item 1,
//! just by predicate manipulation." The equivalence is unit-tested below and
//! exercised in the E12 experiment.

use rrfd_core::{PredicateProgram, ProgOp, RrfdPredicate, SystemSize};

/// The detector-S predicate `P6`: fewer than `n` processes are ever
/// suspected, over the whole run.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};
/// use rrfd_models::predicates::DetectorS;
///
/// let n = SystemSize::new(3).unwrap();
/// let p = DetectorS::new(n);
/// let mut rf = RoundFaults::none(n);
/// rf.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(1)));
/// rf.set(ProcessId::new(1), IdSet::singleton(ProcessId::new(0)));
/// // p2 remains immortal: admitted.
/// assert!(p.admits(&FaultPattern::new(n), &rf));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorS {
    n: SystemSize,
}

impl DetectorS {
    /// Builds `P6` for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        DetectorS { n }
    }
}

impl RrfdPredicate for DetectorS {
    fn name(&self) -> String {
        "P6(detector-S)".to_owned()
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::of(
            self.n,
            ProgOp::FootprintAtMost(self.n.get() - 1),
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

    fn n3() -> SystemSize {
        SystemSize::new(3).unwrap()
    }

    #[test]
    fn someone_must_stay_immortal() {
        let n = n3();
        let p = DetectorS::new(n);
        let mut history = FaultPattern::new(n);
        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(0), ids(&[1]));
        r1.set(ProcessId::new(1), ids(&[2]));
        // Footprint {1,2}: p0 immortal.
        assert!(p.admits(&history, &r1));
        history.push(r1);

        // Suspecting p0 in a later round kills the last immortal.
        let mut r2 = RoundFaults::none(n);
        r2.set(ProcessId::new(2), ids(&[0]));
        assert!(!p.admits(&history, &r2));
    }

    #[test]
    fn suspicions_of_old_suspects_are_free() {
        let n = n3();
        let p = DetectorS::new(n);
        let mut history = FaultPattern::new(n);
        let mut r1 = RoundFaults::none(n);
        r1.set(ProcessId::new(0), ids(&[1, 2]));
        assert!(p.admits(&history, &r1));
        history.push(r1);
        let mut r2 = RoundFaults::none(n);
        r2.set(ProcessId::new(1), ids(&[1, 2]));
        assert!(p.admits(&history, &r2));
    }

    #[test]
    fn equivalence_with_send_omission_footprint() {
        // P6 ⇔ P1's footprint clause at f = n−1 (P1 additionally demands
        // self-trust; the *footprint* parts coincide). We check both
        // directions on random-ish hand-built patterns.
        use crate::predicates::SendOmission;
        let n = n3();
        let s = DetectorS::new(n);
        let omission = SendOmission::new(n, 2);

        // A self-trusting pattern admitted by one is admitted by the other.
        let history = FaultPattern::new(n);
        for sets in [
            vec![IdSet::empty(), IdSet::empty(), IdSet::empty()],
            vec![ids(&[1]), ids(&[0]), IdSet::empty()],
            vec![ids(&[1, 2]), ids(&[0]), ids(&[0, 1])],
        ] {
            let rf = RoundFaults::from_sets(n, sets);
            let self_trusting = rf.iter().all(|(i, d)| !d.contains(i));
            if self_trusting {
                assert_eq!(s.admits(&history, &rf), omission.admits(&history, &rf));
            }
        }
    }
}
