//! Theorem 3.1: k-set agreement in **one round** under the k-uncertainty
//! detector.
//!
//! "Using this detector, k-set consensus can be solved in one round. A
//! process `p_i` emits its value and chooses the value of the process in
//! `S − D(i,1)` with the lowest process identifier."
//!
//! The agreement argument: if `v_1, v_2` are chosen values from `p_1 < p_2`,
//! then `p_1` is in the union of the suspicion sets (whoever chose `p_2`
//! suspected `p_1`) but not in the intersection (whoever chose `p_1` did
//! not), so all-but-the-greatest chosen origins sit inside the uncertainty
//! set, whose size is below `k`.

use rrfd_core::task::Value;
use rrfd_core::{
    Control, Delivery, Engine, EngineError, FaultDetector, Round, RoundProtocol, SystemSize,
};
use rrfd_models::predicates::KUncertainty;

/// The Theorem 3.1 process: emit the input, decide the lowest-id
/// unsuspected value after round 1.
#[derive(Debug, Clone)]
pub struct OneRoundKSet {
    input: Value,
}

impl OneRoundKSet {
    /// Creates a process proposing `input`.
    #[must_use]
    pub fn new(input: Value) -> Self {
        OneRoundKSet { input }
    }
}

impl RoundProtocol for OneRoundKSet {
    type Msg = Value;
    type Output = Value;

    fn emit(&mut self, _round: Round) -> Value {
        self.input
    }

    fn deliver(&mut self, d: Delivery<'_, Value>) -> Control<Value> {
        let winner = d
            .heard_from()
            .min()
            .expect("well-formedness guarantees D(i,r) ≠ S, so someone was heard");
        let value = *d.get(winner).expect("winner was heard");
        Control::Decide(value)
    }
}

/// Runs the one-round algorithm end to end: `n` processes with `inputs`,
/// driven by `detector`, validated against the `KUncertainty(n, k)`
/// predicate.
///
/// Returns the decisions by process.
///
/// # Errors
///
/// Propagates [`EngineError`] — in particular a
/// [`rrfd_core::PatternViolation`] if `detector` steps outside the
/// k-uncertainty model.
///
/// # Panics
///
/// Panics if `inputs.len() != n`.
pub fn one_round_kset<D>(
    n: SystemSize,
    k: usize,
    inputs: &[Value],
    detector: &mut D,
) -> Result<Vec<Value>, EngineError>
where
    D: FaultDetector + ?Sized,
{
    assert_eq!(inputs.len(), n.get(), "one input per process");
    let model = KUncertainty::new(n, k);
    let protocols: Vec<OneRoundKSet> = inputs.iter().map(|&v| OneRoundKSet::new(v)).collect();
    let report = Engine::new(n).run(protocols, detector, &model)?;
    debug_assert_eq!(report.rounds_executed, 1, "Theorem 3.1 is one-round");
    Ok(report
        .outputs()
        .into_iter()
        .map(|o| o.expect("every process decides in round 1"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::task::KSetAgreement;
    use rrfd_core::{IdSet, ProcessId, RoundFaults};
    use rrfd_models::adversary::{NoFailures, RandomAdversary, ReplayDetector};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn inputs(count: usize) -> Vec<Value> {
        (0..count as u64).map(|i| 100 + i).collect()
    }

    #[test]
    fn fault_free_round_reaches_consensus() {
        let size = n(5);
        let ins = inputs(5);
        let decisions = one_round_kset(size, 1, &ins, &mut NoFailures::new(size)).unwrap();
        // Everyone hears everyone; all choose p0's value.
        assert!(decisions.iter().all(|&d| d == 100));
    }

    #[test]
    fn worst_case_uncertainty_still_within_k() {
        // Hand-build the k = 2 worst case: p0 contested (suspected by some).
        let size = n(4);
        let ins = inputs(4);
        let contested = IdSet::singleton(ProcessId::new(0));
        let sets = vec![IdSet::empty(), contested, IdSet::empty(), contested];
        let script = ReplayDetector::from_rounds(size, vec![RoundFaults::from_sets(size, sets)]);
        let mut det = script;
        let decisions = one_round_kset(size, 2, &ins, &mut det).unwrap();
        // p0 and p2 decide v0; p1 and p3 decide v1: exactly 2 values.
        assert_eq!(decisions, vec![100, 101, 100, 101]);
        KSetAgreement::new(2)
            .check(
                &ins,
                &decisions.iter().map(|&d| Some(d)).collect::<Vec<_>>(),
            )
            .unwrap();
    }

    #[test]
    fn random_adversaries_never_break_the_task() {
        for &(nv, k) in &[(4usize, 1usize), (6, 2), (8, 3), (10, 5), (12, 1)] {
            let size = n(nv);
            let ins = inputs(nv);
            let task = KSetAgreement::new(k);
            for seed in 0..25u64 {
                let mut adv = RandomAdversary::new(KUncertainty::new(size, k), seed);
                let decisions = one_round_kset(size, k, &ins, &mut adv)
                    .unwrap_or_else(|e| panic!("n={nv} k={k} seed={seed}: {e}"));
                let outs: Vec<Option<Value>> = decisions.iter().map(|&d| Some(d)).collect();
                task.check_terminating(&ins, &outs)
                    .unwrap_or_else(|v| panic!("n={nv} k={k} seed={seed}: {v}"));
            }
        }
    }

    #[test]
    fn adversary_outside_the_model_is_rejected() {
        // Drive with uncertainty 2 but claim k = 1: the engine must catch it.
        let size = n(4);
        let ins = inputs(4);
        let sets = vec![
            IdSet::singleton(ProcessId::new(0)),
            IdSet::empty(),
            IdSet::empty(),
            IdSet::empty(),
        ];
        let mut det = ReplayDetector::from_rounds(size, vec![RoundFaults::from_sets(size, sets)]);
        let err = one_round_kset(size, 1, &ins, &mut det).unwrap_err();
        assert!(matches!(err, EngineError::Violation(_)));
    }

    #[test]
    fn exhaustive_proof_for_small_systems() {
        // Enumerate EVERY Pk-legal round for n ≤ 4 and check the task on
        // each — Theorem 3.1 proved by enumeration at these sizes.
        use rrfd_models::enumerate::all_first_rounds;
        for nv in [2usize, 3, 4] {
            for k in 1..nv {
                let size = n(nv);
                let ins = inputs(nv);
                let task = KSetAgreement::new(k);
                let mut rounds_checked = 0usize;
                for round in all_first_rounds(KUncertainty::new(size, k)) {
                    rounds_checked += 1;
                    let mut det = ReplayDetector::from_rounds(size, vec![round.clone()]);
                    let decisions = one_round_kset(size, k, &ins, &mut det)
                        .unwrap_or_else(|e| panic!("n={nv} k={k}: {e} on {round:?}"));
                    let outs: Vec<Option<Value>> = decisions.iter().map(|&d| Some(d)).collect();
                    task.check_terminating(&ins, &outs)
                        .unwrap_or_else(|v| panic!("n={nv} k={k}: {v} on round {round:?}"));
                }
                assert!(rounds_checked > 0, "n={nv} k={k}: nothing enumerated");
            }
        }
    }

    #[test]
    fn k_values_are_actually_reachable() {
        // Tightness: the adversary can force exactly k distinct decisions.
        // D(i,1) = {p0, …, p_{(i mod k) − 1}} has uncertainty k − 1 < k and
        // spreads decisions over the k smallest ids.
        for &(nv, k) in &[(4usize, 2usize), (6, 3), (8, 4), (10, 5)] {
            let size = n(nv);
            let ins = inputs(nv);
            let sets: Vec<IdSet> = (0..nv)
                .map(|i| (0..(i % k)).map(ProcessId::new).collect())
                .collect();
            let round = RoundFaults::from_sets(size, sets);
            let mut det = ReplayDetector::from_rounds(size, vec![round]);
            let decisions = one_round_kset(size, k, &ins, &mut det).unwrap();
            let distinct: std::collections::BTreeSet<Value> = decisions.iter().copied().collect();
            assert_eq!(distinct.len(), k, "n={nv} k={k}: {decisions:?}");
        }
    }

    #[test]
    fn plain_async_model_defeats_one_round_consensus() {
        // The necessity direction: under eq. 3 alone (no uncertainty
        // bound), exhaustive search finds legal rounds on which the
        // one-round rule breaks consensus — Pk is what carries Theorem
        // 3.1, not the round structure.
        use rrfd_core::{AnyPattern, Engine};
        use rrfd_models::enumerate::all_first_rounds;
        use rrfd_models::predicates::AsyncResilient;

        let size = n(3);
        let ins = inputs(3);
        let task = KSetAgreement::consensus();
        let mut violations = 0usize;
        for round in all_first_rounds(AsyncResilient::new(size, 1)) {
            let protos: Vec<OneRoundKSet> = ins.iter().map(|&v| OneRoundKSet::new(v)).collect();
            let mut det = ReplayDetector::from_rounds(size, vec![round]);
            let report = Engine::new(size)
                .run(protos, &mut det, &AnyPattern::new(size))
                .unwrap();
            let outs = report.outputs();
            if task.check(&ins, &outs).is_err() {
                violations += 1;
            }
        }
        assert!(
            violations > 0,
            "eq. 3 admitted no consensus-breaking round — it should"
        );
    }

    #[test]
    fn duplicate_inputs_are_handled() {
        let size = n(3);
        let ins = vec![7, 7, 7];
        let mut adv = RandomAdversary::new(KUncertainty::new(size, 2), 3);
        let decisions = one_round_kset(size, 2, &ins, &mut adv).unwrap();
        assert!(decisions.iter().all(|&d| d == 7));
    }
}
