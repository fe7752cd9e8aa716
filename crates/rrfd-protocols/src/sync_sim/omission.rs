//! Theorem 4.1: an asynchronous RRFD atomic-snapshot system with at most
//! `k` failures implements the first `⌊f/k⌋` rounds of an RRFD
//! message-passing system with at most `f` **send-omission** failures.
//!
//! The simulation is round-for-round (each snapshot round *is* a
//! message-passing round); the content of the theorem is pure predicate
//! arithmetic: the snapshot predicate bounds each round's union by `k`, so
//! over `⌊f/k⌋` rounds the cumulative union is at most `k·⌊f/k⌋ ≤ f` —
//! exactly the send-omission footprint. [`run_as_omission`] executes a
//! protocol under any snapshot-model detector and certifies the produced
//! pattern against the omission predicate, which by the theorem can never
//! fail.

use rrfd_core::{Engine, EngineError, FaultDetector, RoundProtocol, RrfdPredicate, RunReport};
use rrfd_models::predicates::{SendOmission, Snapshot};

/// Outcome of a Theorem 4.1 run.
#[derive(Debug, Clone)]
pub struct OmissionSimReport<O> {
    /// The underlying engine run (under the snapshot model).
    pub run: RunReport<O>,
    /// `true` iff the produced pattern is admitted by
    /// `SendOmission(n, f)` — Theorem 4.1 says this always holds when the
    /// run is at most `⌊f/k⌋` rounds.
    pub omission_certified: bool,
    /// The number of rounds the certificate covers, `⌊f/k⌋`.
    pub certified_rounds: u32,
}

/// Runs `protocols` on `engine` for at most `⌊f/k⌋` rounds under
/// `detector` (validated against the snapshot model with `k` failures) and
/// checks the produced pattern against the send-omission model with `f`
/// failures. The system size is the engine's, and its round limit is
/// replaced by `⌊f/k⌋`; anything else set on it, such as an `Obs` handle,
/// applies to the run.
///
/// # Errors
///
/// Propagates [`EngineError`]; in particular the protocols must decide
/// within `⌊f/k⌋` rounds (that is the extent of the simulation).
///
/// # Panics
///
/// Panics unless `f ≥ k ≥ 1`.
pub fn run_as_omission<P, D>(
    engine: Engine,
    f: usize,
    k: usize,
    protocols: Vec<P>,
    detector: &mut D,
) -> Result<OmissionSimReport<P::Output>, EngineError>
where
    P: RoundProtocol,
    D: FaultDetector + ?Sized,
{
    assert!(k >= 1, "k must be at least 1");
    assert!(f >= k, "Theorem 4.1 requires f ≥ k > 0");
    let budget = (f / k) as u32;
    let n = engine.system_size();
    let snapshot_model = Snapshot::new(n, k);
    let run = engine
        .max_rounds(budget)
        .run(protocols, detector, &snapshot_model)?;
    let omission_model = SendOmission::new(n, f);
    let omission_certified = omission_model.admits_pattern(&run.pattern);
    Ok(OmissionSimReport {
        run,
        omission_certified,
        certified_rounds: budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kset::FloodMin;
    use rrfd_core::SystemSize;
    use rrfd_models::adversary::RandomAdversary;
    use rrfd_models::predicates::Snapshot;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn snapshot_runs_are_always_omission_certified() {
        for &(nv, f, k) in &[(6usize, 4usize, 2usize), (8, 6, 2), (10, 9, 3), (5, 4, 4)] {
            let size = n(nv);
            let budget = (f / k) as u32;
            for seed in 0..20u64 {
                let protos: Vec<_> = (0..nv as u64).map(|v| FloodMin::new(v, budget)).collect();
                let mut adv = RandomAdversary::new(Snapshot::new(size, k), seed);
                let report = run_as_omission(Engine::new(size), f, k, protos, &mut adv)
                    .unwrap_or_else(|e| panic!("n={nv} f={f} k={k} seed={seed}: {e}"));
                assert!(
                    report.omission_certified,
                    "n={nv} f={f} k={k} seed={seed}: Theorem 4.1 violated"
                );
                assert!(report.run.rounds_executed <= report.certified_rounds);
            }
        }
    }

    #[test]
    fn cumulative_union_is_bounded_by_f() {
        let size = n(8);
        let (f, k) = (6usize, 2usize);
        for seed in 0..10u64 {
            let protos: Vec<_> = (0..8u64).map(|v| FloodMin::new(v, 3)).collect();
            let mut adv = RandomAdversary::new(Snapshot::new(size, k), seed);
            let report = run_as_omission(Engine::new(size), f, k, protos, &mut adv).unwrap();
            assert!(report.run.pattern.cumulative_union().len() <= f);
        }
    }

    #[test]
    fn protocols_slower_than_the_budget_fail_loudly() {
        let size = n(6);
        // Budget is ⌊4/2⌋ = 2 rounds, but the protocol wants 5.
        let protos: Vec<_> = (0..6u64).map(|v| FloodMin::new(v, 5)).collect();
        let mut adv = RandomAdversary::new(Snapshot::new(size, 2), 0);
        let err = run_as_omission(Engine::new(size), 4, 2, protos, &mut adv).unwrap_err();
        assert!(matches!(err, EngineError::RoundLimitExceeded { .. }));
    }

    #[test]
    #[should_panic(expected = "f ≥ k")]
    fn f_below_k_is_rejected() {
        let protos: Vec<FloodMin> = vec![];
        let mut adv = RandomAdversary::new(Snapshot::new(n(4), 2), 0);
        let _ = run_as_omission(Engine::new(n(4)), 1, 2, protos, &mut adv);
    }
}
