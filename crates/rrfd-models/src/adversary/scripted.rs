//! Deterministic detectors: the fault-free detector and the ring miss
//! pattern of §2 item 4. A fixed script of rounds is a
//! [`super::ReplayDetector::from_rounds`].

use rrfd_core::{FaultDetector, FaultPattern, IdSet, ProcessId, Round, RoundFaults, SystemSize};

/// The benign detector: nobody is ever suspected. Legal in every model of
/// the paper, and the baseline for failure-free measurements.
#[derive(Debug, Clone, Copy)]
pub struct NoFailures {
    n: SystemSize,
}

impl NoFailures {
    /// Creates the fault-free detector.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        NoFailures { n }
    }
}

impl FaultDetector for NoFailures {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn next_round(&mut self, _round: Round, _history: &FaultPattern) -> RoundFaults {
        RoundFaults::none(self.n)
    }
}

/// The ring pattern from §2 item 4: every round, `p_i` misses exactly
/// `p_{(i+1) mod n}`.
///
/// Legal under the antisymmetric clause (for `n ≥ 3`) but violating eq. 4 —
/// the witness that antisymmetry alone does not imply "someone is trusted by
/// all". The knowledge-spread experiment E11 runs gossip under this
/// detector to measure how long a process takes to become known to all.
#[derive(Debug, Clone, Copy)]
pub struct RingMiss {
    n: SystemSize,
}

impl RingMiss {
    /// Creates the ring detector.
    ///
    /// # Panics
    ///
    /// Panics for `n < 2` (a one-process ring would make a process miss
    /// itself only, which is a different pattern).
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        assert!(n.get() >= 2, "ring pattern needs at least two processes");
        RingMiss { n }
    }
}

impl FaultDetector for RingMiss {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn next_round(&mut self, _round: Round, _history: &FaultPattern) -> RoundFaults {
        let n = self.n.get();
        let sets = (0..n)
            .map(|i| IdSet::singleton(ProcessId::new((i + 1) % n)))
            .collect();
        RoundFaults::from_sets(self.n, sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ReplayDetector;
    use crate::predicates::AntiSymmetric;
    use crate::predicates::SomeoneTrustedByAll;
    use rrfd_core::RrfdPredicate;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn script_replays_then_goes_quiet() {
        // A fixed script is a replay of its rounds.
        let size = n(3);
        let mut r1 = RoundFaults::none(size);
        r1.set(ProcessId::new(1), IdSet::singleton(ProcessId::new(0)));
        let mut det = ReplayDetector::from_rounds(size, vec![r1.clone()]);
        let h = FaultPattern::new(size);
        assert_eq!(det.next_round(Round::new(1), &h), r1);
        assert_eq!(det.next_round(Round::new(5), &h), RoundFaults::none(size));
    }

    #[test]
    fn no_failures_never_suspects() {
        let size = n(4);
        let mut det = NoFailures::new(size);
        let h = FaultPattern::new(size);
        for r in 1..=3 {
            assert!(det.next_round(Round::new(r), &h).union().is_empty());
        }
    }

    #[test]
    fn ring_is_antisymmetric_but_not_eq4() {
        let size = n(5);
        let mut det = RingMiss::new(size);
        let h = FaultPattern::new(size);
        let round = det.next_round(Round::new(1), &h);
        assert!(AntiSymmetric::new(size).admits(&h, &round));
        assert!(!SomeoneTrustedByAll::new(size).admits(&h, &round));
    }

    #[test]
    fn two_process_ring_is_mutual_miss() {
        // With n = 2 the "ring" degenerates into a mutual miss, which is
        // *not* antisymmetric — matching the paper's n ≥ 3 caveat.
        let size = n(2);
        let mut det = RingMiss::new(size);
        let h = FaultPattern::new(size);
        let round = det.next_round(Round::new(1), &h);
        assert!(!AntiSymmetric::new(size).admits(&h, &round));
    }

    #[test]
    #[should_panic(expected = "wrong system size")]
    fn script_size_mismatch_is_caught() {
        let _ = ReplayDetector::from_rounds(n(3), vec![RoundFaults::none(n(4))]);
    }
}
