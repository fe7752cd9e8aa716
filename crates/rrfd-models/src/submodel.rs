//! Submodel relations between RRFD systems.
//!
//! "Let `P_A` be the predicate defining an RRFD system A, and `P_B` define
//! B over the same number of processes; we say that A is a *submodel* of B
//! iff `P_A ⇒ P_B`. Obviously, if A is a submodel of B then A implements B.
//! The contrary does not hold."
//!
//! Logical implication between arbitrary predicates is not decidable by a
//! library, but it is *refutable* by sampling: generate many legal A-runs
//! and check each round against B. [`refines_on_samples`] does exactly
//! that, and is the tool the test-suite uses to machine-check every
//! submodel claim the paper makes (crash ⊆ omission, snapshot ⊆ SWMR ⊆
//! async, Peq ⊆ P1-uncertainty, A ⊆ B of §2 item 3, …).

use crate::adversary::SampleModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrfd_core::{FaultPattern, ProgramBatch, RoundFaults, RrfdPredicate};

/// Outcome of a sampled refinement check.
#[derive(Debug, Clone)]
pub enum Refinement {
    /// Every sampled A-round was admitted by B.
    NotRefuted {
        /// How many rounds were checked in total.
        rounds_checked: usize,
    },
    /// A legal A-round that B rejects — a counterexample to `P_A ⇒ P_B`.
    Refuted {
        /// History under which the counterexample arose (legal for both up
        /// to this point).
        history: FaultPattern,
        /// The offending round: legal for A, rejected by B.
        round: RoundFaults,
    },
}

impl Refinement {
    /// `true` when no counterexample was found.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, Refinement::NotRefuted { .. })
    }
}

/// Samples `runs` runs of `rounds` rounds each from `a` and checks every
/// round against `b`. Finding no counterexample does not *prove* `P_A ⇒
/// P_B`, but the samplers are built to roam their predicates' full
/// behaviour, so surviving thousands of rounds is strong evidence — and a
/// single counterexample is conclusive refutation.
pub fn refines_on_samples<A, B>(a: &A, b: &B, runs: usize, rounds: u32, seed: u64) -> Refinement
where
    A: SampleModel,
    B: RrfdPredicate,
{
    assert_eq!(
        a.system_size(),
        b.system_size(),
        "submodel comparison needs a common system size"
    );
    let mut checked = 0usize;
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(run as u64));
        let mut history = FaultPattern::new(a.system_size());
        let (mut own, mut target) = (ProgramBatch::of(a), ProgramBatch::of(b));
        for _ in 0..rounds {
            let round = a.sample_round(&mut rng, &history);
            let legal = own.admit(&round);
            debug_assert!(legal, "sampler broke its own model");
            if !target.admit(&round) {
                return Refinement::Refuted { history, round };
            }
            checked += 1;
            history.push(round);
        }
    }
    Refinement::NotRefuted {
        rounds_checked: checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::{
        AsyncResilient, Crash, DetectorS, IdenticalViews, KUncertainty, SendOmission, Snapshot,
        SomeoneTrustedByAll, Swmr, SystemB,
    };
    use rrfd_core::SystemSize;

    const RUNS: usize = 40;
    const ROUNDS: u32 = 8;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn crash_refines_send_omission() {
        let size = n(7);
        let r = refines_on_samples(
            &Crash::new(size, 3),
            &SendOmission::new(size, 3),
            RUNS,
            ROUNDS,
            11,
        );
        assert!(r.holds(), "paper: crash is a submodel of send-omission");
    }

    #[test]
    fn send_omission_does_not_refine_crash() {
        let size = n(7);
        let r = refines_on_samples(
            &SendOmission::new(size, 3),
            &Crash::new(size, 3),
            RUNS,
            ROUNDS,
            12,
        );
        assert!(!r.holds(), "omission faults may heal; crashes may not");
    }

    #[test]
    fn snapshot_refines_swmr_and_async() {
        let size = n(7);
        let snap = Snapshot::new(size, 3);
        assert!(refines_on_samples(&snap, &Swmr::new(size, 3), RUNS, ROUNDS, 13).holds());
        assert!(refines_on_samples(&snap, &AsyncResilient::new(size, 3), RUNS, ROUNDS, 14).holds());
    }

    #[test]
    fn swmr_refines_async_but_not_conversely() {
        let size = n(7);
        assert!(refines_on_samples(
            &Swmr::new(size, 3),
            &AsyncResilient::new(size, 3),
            RUNS,
            ROUNDS,
            15
        )
        .holds());
        // With f ≥ large enough misses, async can suspect everyone somewhere.
        assert!(!refines_on_samples(
            &AsyncResilient::new(size, 6),
            &SomeoneTrustedByAll::new(size),
            RUNS,
            ROUNDS,
            16
        )
        .holds());
    }

    #[test]
    fn async_refines_system_b_strictly() {
        let size = n(7);
        let a = AsyncResilient::new(size, 1);
        let b = SystemB::new(size, 1, 3);
        assert!(refines_on_samples(&a, &b, RUNS, ROUNDS, 17).holds());
        assert!(
            !refines_on_samples(&b, &a, RUNS, ROUNDS, 18).holds(),
            "System B is strictly weaker than A"
        );
    }

    #[test]
    fn identical_views_refines_k1_uncertainty() {
        let size = n(7);
        let r = refines_on_samples(
            &IdenticalViews::new(size),
            &KUncertainty::new(size, 1),
            RUNS,
            ROUNDS,
            19,
        );
        assert!(r.holds(), "Peq is the k = 1 uncertainty detector");
    }

    #[test]
    fn k_uncertainty_is_monotone_in_k() {
        let size = n(7);
        assert!(refines_on_samples(
            &KUncertainty::new(size, 2),
            &KUncertainty::new(size, 4),
            RUNS,
            ROUNDS,
            20
        )
        .holds());
        assert!(!refines_on_samples(
            &KUncertainty::new(size, 4),
            &KUncertainty::new(size, 2),
            RUNS,
            ROUNDS,
            21
        )
        .holds());
    }

    #[test]
    fn detector_s_matches_omission_with_f_n_minus_1() {
        // §2 item 6's predicate manipulation: P6 ⇔ footprint(n−1). Our P1
        // additionally carries (reconciled) self-trust, so only the
        // omission → S direction is an implication; the sampled S → P1
        // direction also holds because the S sampler's suspicion sets are
        // unconstrained *except* for the immortal — catch both.
        let size = n(5);
        assert!(refines_on_samples(
            &SendOmission::new(size, 4),
            &DetectorS::new(size),
            RUNS,
            ROUNDS,
            22
        )
        .holds());
    }

    #[test]
    fn snapshot_does_not_refine_identical_views() {
        let size = n(7);
        assert!(!refines_on_samples(
            &Snapshot::new(size, 3),
            &IdenticalViews::new(size),
            RUNS,
            ROUNDS,
            23
        )
        .holds());
    }

    #[test]
    fn detector_s_and_diamond_s_are_incomparable() {
        use crate::predicates::EventuallyStrong;
        use rrfd_core::Round;
        let size = n(5);
        // P6 does not refine ◊S: P6 has no per-round miss bound (eq. 3),
        // so its sampler produces rounds with |D(i,r)| > f.
        assert!(!refines_on_samples(
            &DetectorS::new(size),
            &EventuallyStrong::new(size, 2, Round::new(1)),
            RUNS,
            ROUNDS,
            32
        )
        .holds());
        // Nor does ◊S refine P6: before stabilization *everyone* may be
        // suspected, making the run-wide footprint hit n.
        assert!(!refines_on_samples(
            &EventuallyStrong::new(size, 2, Round::new(6)),
            &DetectorS::new(size),
            RUNS,
            ROUNDS,
            33
        )
        .holds());
    }

    #[test]
    #[should_panic(expected = "common system size")]
    fn size_mismatch_is_rejected() {
        let _ = refines_on_samples(&Crash::new(n(4), 1), &Crash::new(n(5), 1), 1, 1, 0);
    }
}
