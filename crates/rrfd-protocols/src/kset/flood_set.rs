//! Flood-min: the classical `⌊f/k⌋ + 1`-round k-set agreement algorithm for
//! synchronous systems with at most `f` crash (or send-omission) faults —
//! the upper bound matching Corollaries 4.2/4.4.
//!
//! Every process floods the smallest value it has seen; after `R` rounds it
//! decides that minimum. With at most `f` faults and `R = ⌊f/k⌋ + 1` rounds
//! there is at least one *clean* round in which fewer than `k` fresh
//! failures occur, which caps the number of distinct minima survivors can
//! hold at `k`. Run with budget `⌊f/k⌋` against the
//! [`rrfd_models::adversary::SilencingCrash`] adversary, the same protocol
//! is forced into `k + 1` distinct decisions — experiment E9's violation
//! arm.

use rrfd_core::task::Value;
use rrfd_core::{Control, Delivery, Round, RoundProtocol};

/// The flood-min process: relays its current minimum each round, decides it
/// after `budget` rounds.
#[derive(Debug, Clone)]
pub struct FloodMin {
    current_min: Value,
    budget: u32,
}

impl FloodMin {
    /// Creates a process proposing `input` and deciding after `budget`
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    #[must_use]
    pub fn new(input: Value, budget: u32) -> Self {
        assert!(budget >= 1, "flood-min needs at least one round");
        FloodMin {
            current_min: input,
            budget,
        }
    }

    /// The round budget `⌊f/k⌋ + 1` that makes the protocol correct for a
    /// synchronous system with `f` faults and agreement parameter `k`.
    #[must_use]
    pub fn correct_budget(f: usize, k: usize) -> u32 {
        (f / k) as u32 + 1
    }

    /// The smallest value seen so far.
    #[must_use]
    pub fn current_min(&self) -> Value {
        self.current_min
    }
}

impl RoundProtocol for FloodMin {
    type Msg = Value;
    type Output = Value;

    fn emit(&mut self, _round: Round) -> Value {
        self.current_min
    }

    fn deliver(&mut self, d: Delivery<'_, Value>) -> Control<Value> {
        for v in d.values() {
            self.current_min = self.current_min.min(*v);
        }
        if d.round.get() >= self.budget {
            Control::Decide(self.current_min)
        } else {
            Control::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::task::KSetAgreement;
    use rrfd_core::{Engine, ProcessId, SystemSize};
    use rrfd_models::adversary::{RandomAdversary, SilencingCrash};
    use rrfd_models::predicates::Crash;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn run_floodmin(
        size: SystemSize,
        budget: u32,
        detector: &mut dyn rrfd_core::FaultDetector,
        model: &dyn rrfd_core::RrfdPredicate,
    ) -> (Vec<Value>, rrfd_core::FaultPattern) {
        let inputs: Vec<Value> = (0..size.get() as u64).collect();
        let protos: Vec<_> = inputs.iter().map(|&v| FloodMin::new(v, budget)).collect();
        let report = Engine::new(size).run(protos, detector, model).unwrap();
        let outs = report
            .outputs()
            .into_iter()
            .map(|o| o.expect("flood-min always decides at its budget"))
            .collect();
        (outs, report.pattern)
    }

    #[test]
    fn correct_budget_succeeds_under_random_crashes() {
        for &(nv, f, k) in &[(6usize, 2usize, 1usize), (8, 4, 2), (10, 6, 3)] {
            let size = n(nv);
            let budget = FloodMin::correct_budget(f, k);
            let task = KSetAgreement::new(k);
            for seed in 0..20u64 {
                let model = Crash::new(size, f);
                let mut adv = RandomAdversary::new(model, seed);
                let (outs, pattern) = run_floodmin(size, budget, &mut adv, &model);
                // Only processes never suspected (i.e. never crashed) are
                // held to the task: the paper's Corollary 4.4 lets crashed
                // simulated processes adopt later.
                let crashed = pattern.cumulative_union();
                let inputs: Vec<Value> = (0..nv as u64).collect();
                let outs: Vec<Option<Value>> = outs
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (!crashed.contains(ProcessId::new(i))).then_some(v))
                    .collect();
                task.check(&inputs, &outs)
                    .unwrap_or_else(|v| panic!("n={nv} f={f} k={k} seed={seed}: {v}"));
            }
        }
    }

    #[test]
    fn silencer_at_short_budget_forces_k_plus_one_values() {
        for &(nv, f, k) in &[(6usize, 3usize, 1usize), (10, 4, 2), (13, 6, 3)] {
            let size = n(nv);
            let short = FloodMin::correct_budget(f, k) - 1; // = ⌊f/k⌋
            let mut adv = SilencingCrash::new(size, f, k);
            let model = Crash::new(size, f);
            let (outs, pattern) = run_floodmin(size, short, &mut adv, &model);
            let crashed = pattern.cumulative_union();
            let live_values: std::collections::BTreeSet<Value> = outs
                .iter()
                .enumerate()
                .filter(|(i, _)| !crashed.contains(ProcessId::new(*i)))
                .map(|(_, &v)| v)
                .collect();
            assert!(
                live_values.len() > k,
                "n={nv} f={f} k={k}: adversary only forced {} values",
                live_values.len()
            );
        }
    }

    #[test]
    fn silencer_at_correct_budget_is_defeated() {
        // One extra round lets the chain values flood out: the same
        // adversary can no longer break the task.
        for &(nv, f, k) in &[(6usize, 3usize, 1usize), (10, 4, 2)] {
            let size = n(nv);
            let budget = FloodMin::correct_budget(f, k);
            let mut adv = SilencingCrash::new(size, f, k);
            let model = Crash::new(size, f);
            let (outs, pattern) = run_floodmin(size, budget, &mut adv, &model);
            let crashed = pattern.cumulative_union();
            let live_values: std::collections::BTreeSet<Value> = outs
                .iter()
                .enumerate()
                .filter(|(i, _)| !crashed.contains(ProcessId::new(*i)))
                .map(|(_, &v)| v)
                .collect();
            assert!(
                live_values.len() <= k,
                "n={nv} f={f} k={k}: {} values at the correct budget",
                live_values.len()
            );
        }
    }

    #[test]
    fn exhaustive_crash_proof_for_small_systems() {
        // Corollary 4.4's upper bound proved by enumeration: for n = 3,
        // f = k = 1, run flood-min at budget ⌊f/k⌋ + 1 = 2 against EVERY
        // legal 2-round crash pattern and check consensus among
        // never-suspected processes.
        use rrfd_core::task::Value;
        use rrfd_models::adversary::ReplayDetector;
        use rrfd_models::enumerate::all_patterns;

        let size = n(3);
        let model = Crash::new(size, 1);
        let budget = FloodMin::correct_budget(1, 1); // 2 rounds
        let task = KSetAgreement::consensus();
        let inputs: Vec<Value> = vec![5, 6, 7];
        let patterns = all_patterns(&model, 2, 100_000);
        assert!(patterns.len() > 10, "only {} patterns", patterns.len());
        for pattern in &patterns {
            let script: Vec<_> = pattern.iter().map(|(_, rf)| rf.clone()).collect();
            let mut det = ReplayDetector::from_rounds(size, script);
            let protos: Vec<_> = inputs.iter().map(|&v| FloodMin::new(v, budget)).collect();
            let report = Engine::new(size).run(protos, &mut det, &model).unwrap();
            let crashed = report.pattern.cumulative_union();
            let outs: Vec<Option<Value>> = report
                .outputs()
                .into_iter()
                .enumerate()
                .map(|(i, v)| v.filter(|_| !crashed.contains(ProcessId::new(i))))
                .collect();
            task.check(&inputs, &outs)
                .unwrap_or_else(|v| panic!("{v} on pattern {pattern:?}"));
        }
    }

    #[test]
    fn fault_free_flooding_reaches_global_min_in_one_round() {
        use rrfd_core::AnyPattern;
        use rrfd_models::adversary::NoFailures;
        let size = n(5);
        let protos: Vec<_> = (0..5).map(|v| FloodMin::new(v + 10, 1)).collect();
        let report = Engine::new(size)
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap();
        for out in report.outputs() {
            assert_eq!(out.unwrap(), 10);
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_budget_is_rejected() {
        let _ = FloodMin::new(0, 0);
    }
}
