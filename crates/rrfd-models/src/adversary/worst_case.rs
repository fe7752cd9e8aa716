//! Targeted worst-case adversaries beyond the chain silencer: detectors
//! built to reach the *boundary* of what their model allows.

use rrfd_core::{FaultDetector, FaultPattern, IdSet, ProcessId, Round, RoundFaults, SystemSize};

/// The Theorem 3.1 tightness adversary: spreads one-round k-set decisions
/// over exactly `k` distinct values.
///
/// Round 1 assigns `D(i,1) = {p_0, …, p_{(i mod k)−1}}`: the uncertainty
/// set is `{p_0, …, p_{k−2}}` (size `k − 1 < k`, legal for `Pk`), and the
/// lowest-unsuspected rule lands process `i` on `p_{i mod k}` — `k`
/// distinct origins, the predicate's worst case. Later rounds are quiet.
#[derive(Debug, Clone, Copy)]
pub struct SpreadKUncertainty {
    n: SystemSize,
    k: usize,
}

impl SpreadKUncertainty {
    /// Creates the adversary for agreement parameter `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k < n`.
    #[must_use]
    pub fn new(n: SystemSize, k: usize) -> Self {
        assert!(k >= 1 && k < n.get(), "need 1 ≤ k < n");
        SpreadKUncertainty { n, k }
    }
}

impl FaultDetector for SpreadKUncertainty {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn next_round(&mut self, round: Round, _history: &FaultPattern) -> RoundFaults {
        if round.get() > 1 {
            return RoundFaults::none(self.n);
        }
        let sets = (0..self.n.get())
            .map(|i| (0..(i % self.k)).map(ProcessId::new).collect())
            .collect();
        RoundFaults::from_sets(self.n, sets)
    }
}

/// Crashes exactly `f_actual` processes, one per round (fully silenced
/// from their crash round on), then goes quiet — the schedule that pins
/// early-stopping consensus to its `f′`-dependent round count.
#[derive(Debug, Clone, Copy)]
pub struct StaggeredCrash {
    n: SystemSize,
    f_actual: usize,
}

impl StaggeredCrash {
    /// Creates the adversary crashing `p_0, …, p_{f_actual−1}` in rounds
    /// `1, …, f_actual`.
    ///
    /// # Panics
    ///
    /// Panics unless `f_actual < n`.
    #[must_use]
    pub fn new(n: SystemSize, f_actual: usize) -> Self {
        assert!(f_actual < n.get(), "at least one process must survive");
        StaggeredCrash { n, f_actual }
    }
}

impl FaultDetector for StaggeredCrash {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn next_round(&mut self, round: Round, _history: &FaultPattern) -> RoundFaults {
        let r = round.get() as usize;
        let crashed_before: IdSet = (0..(r - 1).min(self.f_actual))
            .map(ProcessId::new)
            .collect();
        let sets = self
            .n
            .processes()
            .map(|i| {
                let mut d = crashed_before;
                if r <= self.f_actual {
                    let head = ProcessId::new(r - 1);
                    if i != head {
                        d.insert(head);
                    }
                }
                d
            })
            .collect();
        RoundFaults::from_sets(self.n, sets)
    }
}

/// The partition adversary for the plain asynchronous model (eq. 3 with
/// `2f ≥ n`): splits the system into two halves that never hear each
/// other — the "network-partition problem" §2 item 4's eq. 4 is designed
/// to rule out.
///
/// Legal under [`AsyncResilient`](crate::predicates::AsyncResilient) with
/// `f ≥ ⌈n/2⌉`, and *illegal* under eq. 4 (every process is suspected by
/// someone) — which is the point.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    n: SystemSize,
}

impl Partition {
    /// Creates the half/half partition adversary.
    ///
    /// # Panics
    ///
    /// Panics for `n < 2`.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        assert!(n.get() >= 2, "a partition needs two sides");
        Partition { n }
    }

    /// The lower half `{p_0, …, p_{⌈n/2⌉−1}}`.
    #[must_use]
    pub fn lower(&self) -> IdSet {
        (0..self.n.get().div_ceil(2)).map(ProcessId::new).collect()
    }

    /// The upper half.
    #[must_use]
    pub fn upper(&self) -> IdSet {
        self.lower().complement(self.n)
    }
}

impl FaultDetector for Partition {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn next_round(&mut self, _round: Round, _history: &FaultPattern) -> RoundFaults {
        let lower = self.lower();
        let upper = self.upper();
        let sets = self
            .n
            .processes()
            .map(|i| if lower.contains(i) { upper } else { lower })
            .collect();
        RoundFaults::from_sets(self.n, sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::{AsyncResilient, Crash, KUncertainty, SomeoneTrustedByAll};
    use rrfd_core::{validate_round, ProgramBatch, RrfdPredicate};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn spread_is_pk_legal_and_maximally_uncertain() {
        for &(nv, k) in &[(4usize, 2usize), (8, 4), (10, 5)] {
            let size = n(nv);
            let mut adv = SpreadKUncertainty::new(size, k);
            let h = FaultPattern::new(size);
            let round = adv.next_round(Round::new(1), &h);
            let model = KUncertainty::new(size, k);
            validate_round(&model, &mut ProgramBatch::of(&model), &round).unwrap();
            assert_eq!(round.uncertainty().len(), k - 1, "boundary not reached");
        }
    }

    #[test]
    fn staggered_crash_is_crash_legal() {
        let size = n(8);
        let mut adv = StaggeredCrash::new(size, 3);
        let model = Crash::new(size, 3);
        let mut h = FaultPattern::new(size);
        let mut batch = ProgramBatch::of(&model);
        for r in 1..=6 {
            let round = adv.next_round(Round::new(r), &h);
            validate_round(&model, &mut batch, &round).unwrap_or_else(|e| panic!("round {r}: {e}"));
            h.push(round);
        }
        assert_eq!(h.cumulative_union().len(), 3);
    }

    #[test]
    fn partition_is_async_legal_but_not_eq4() {
        let size = n(6);
        let mut adv = Partition::new(size);
        let h = FaultPattern::new(size);
        let round = adv.next_round(Round::new(1), &h);
        // Legal under eq. 3 once f reaches half the system…
        assert!(AsyncResilient::new(size, 3).admits(&h, &round));
        assert!(!AsyncResilient::new(size, 2).admits(&h, &round));
        // …but eq. 4 rejects it: everyone is suspected by the other side.
        assert!(!SomeoneTrustedByAll::new(size).admits(&h, &round));
    }

    #[test]
    fn partition_halves_cover_the_universe() {
        for nv in [2usize, 5, 9] {
            let size = n(nv);
            let adv = Partition::new(size);
            assert_eq!(adv.lower() | adv.upper(), IdSet::universe(size));
            assert!(adv.lower().is_disjoint(adv.upper()));
        }
    }

    #[test]
    fn partition_breaks_one_round_agreement_shapewise() {
        // Each side decides its own minimum: two sides, two values — the
        // concrete consensus failure eq. 4 exists to exclude.
        use rrfd_core::{AnyPattern, Control, Delivery, Engine, RoundProtocol};

        struct MinHeard(u64);
        impl RoundProtocol for MinHeard {
            type Msg = u64;
            type Output = u64;
            fn emit(&mut self, _r: Round) -> u64 {
                self.0
            }
            fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
                Control::Decide(*d.values().min().unwrap())
            }
        }

        let size = n(6);
        let protos: Vec<_> = (0..6).map(|i| MinHeard(100 + i)).collect();
        let mut adv = Partition::new(size);
        let report = Engine::new(size)
            .run(protos, &mut adv, &AnyPattern::new(size))
            .unwrap();
        let outs: Vec<u64> = report.outputs().into_iter().flatten().collect();
        assert_eq!(outs, vec![100, 100, 100, 103, 103, 103]);
    }
}
