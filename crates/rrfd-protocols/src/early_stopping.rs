//! Early-stopping consensus for the synchronous crash RRFD model — an
//! extension in the spirit the paper advocates ("we propose them as a
//! setting to develop real algorithms", §7).
//!
//! Flood-min with the classic *stability* rule: a process tracks the set
//! `F_i` of processes it has ever suspected; at the end of round `r ≥ 2`,
//! if round `r` introduced **no new suspicion** (`D(i,r) ⊆ F_i`), the
//! previous round already delivered every value still in circulation to
//! `p_i` *and* `p_i`'s re-broadcast of its minimum reached everyone alive,
//! so its minimum is final. The fallback decision at round `f + 1`
//! preserves the worst-case bound, so the protocol decides in
//! `min(f' + 2, f + 1)` rounds where `f'` is the number of failures that
//! actually occur. (Deciding already at a clean round `r = f' + 1` is the
//! classic trap: the decider may crash next round and take the minimum
//! with it — the test-suite's exhaustive enumeration exposes exactly that
//! execution if the rule is weakened.)
//!
//! Correctness in the crash model (eq. 1 + eq. 2) is checked by sampled
//! sweeps *and* by exhaustive enumeration of every legal pattern at small
//! sizes.

use rrfd_core::task::Value;
use rrfd_core::{Control, Delivery, IdSet, Round, RoundProtocol};

/// The early-stopping flood-min consensus process for an `f`-crash
/// synchronous system.
#[derive(Debug, Clone)]
pub struct EarlyStoppingConsensus {
    current_min: Value,
    f: usize,
    suspected_ever: IdSet,
    /// `F_i` as of the end of the previous round (for the stability rule).
    suspected_before: IdSet,
    decided: bool,
}

impl EarlyStoppingConsensus {
    /// Creates a process proposing `input`, tolerating `f` crashes.
    #[must_use]
    pub fn new(input: Value, f: usize) -> Self {
        EarlyStoppingConsensus {
            current_min: input,
            f,
            suspected_ever: IdSet::empty(),
            suspected_before: IdSet::empty(),
            decided: false,
        }
    }
}

impl RoundProtocol for EarlyStoppingConsensus {
    type Msg = Value;
    type Output = Value;

    fn emit(&mut self, _round: Round) -> Value {
        self.current_min
    }

    fn deliver(&mut self, d: Delivery<'_, Value>) -> Control<Value> {
        for v in d.values() {
            self.current_min = self.current_min.min(*v);
        }
        self.suspected_ever |= d.suspected;

        if self.decided {
            return Control::Continue;
        }
        let r = d.round.get() as usize;
        let fresh_suspicions = !d.suspected.is_subset(self.suspected_before);
        self.suspected_before = self.suspected_ever;
        // Stability rule: a round with no new suspicion (r ≥ 2) finalises
        // the minimum. Fallback: round f + 1 is always safe.
        if (r >= 2 && !fresh_suspicions) || r > self.f {
            self.decided = true;
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
    use rrfd_models::adversary::{NoFailures, RandomAdversary, SilencingCrash};
    use rrfd_models::enumerate::all_patterns;
    use rrfd_models::predicates::Crash;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn check_run(
        size: SystemSize,
        f: usize,
        detector: &mut dyn rrfd_core::FaultDetector,
        label: &str,
    ) -> u32 {
        let inputs: Vec<Value> = (0..size.get() as u64).map(|i| 80 + i).collect();
        let protos: Vec<_> = inputs
            .iter()
            .map(|&v| EarlyStoppingConsensus::new(v, f))
            .collect();
        let model = Crash::new(size, f);
        let report = Engine::new(size)
            .max_rounds(f as u32 + 1)
            .run(protos, detector, &model)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let crashed = report.pattern.cumulative_union();
        let outs: Vec<Option<Value>> = report
            .outputs()
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.filter(|_| !crashed.contains(ProcessId::new(i))))
            .collect();
        KSetAgreement::consensus()
            .check(&inputs, &outs)
            .unwrap_or_else(|v| panic!("{label}: {v}"));
        report.rounds_executed
    }

    #[test]
    fn fault_free_runs_decide_in_two_rounds() {
        // f' = 0 failures ⇒ decide at round min(0 + 2, f + 1) = 2 (or 1
        // when f = 0).
        for f in [0usize, 2, 4] {
            let size = n(6);
            let rounds = check_run(size, f, &mut NoFailures::new(size), "fault-free");
            assert_eq!(rounds, (f.min(1) as u32) + 1, "f={f}");
        }
    }

    #[test]
    fn random_crash_runs_agree_and_stop_early() {
        for &(nv, f) in &[(5usize, 2usize), (7, 3), (9, 4)] {
            let size = n(nv);
            for seed in 0..25u64 {
                let mut adv = RandomAdversary::new(Crash::new(size, f), seed);
                let rounds = check_run(size, f, &mut adv, "random");
                assert!(rounds <= f as u32 + 1, "n={nv} f={f} seed={seed}");
            }
        }
    }

    #[test]
    fn silencer_forces_the_worst_case() {
        // One fresh crash per round keeps |F| ≥ r alive until the end.
        let size = n(6);
        let f = 3;
        let mut adv = SilencingCrash::new(size, f, 1);
        let rounds = check_run(size, f, &mut adv, "silencer");
        assert_eq!(rounds, f as u32 + 1, "the silencer must force f + 1 rounds");
    }

    #[test]
    fn exhaustive_proof_for_small_systems() {
        // Every legal crash pattern for (n = 3, f = 1) over 2 rounds and
        // (n = 3, f = 2) over 3 rounds: agreement among never-suspected
        // processes, by enumeration.
        use rrfd_models::adversary::ReplayDetector;
        for (f, rounds) in [(1usize, 2u32), (2, 3)] {
            let size = n(3);
            let model = Crash::new(size, f);
            let patterns = all_patterns(&model, rounds, 3_000_000);
            assert!(patterns.len() > 10);
            for pattern in &patterns {
                let script: Vec<_> = pattern.iter().map(|(_, rf)| rf.clone()).collect();
                let mut det = ReplayDetector::from_rounds(size, script);
                let r = check_run(size, f, &mut det, "exhaustive");
                assert!(r <= rounds);
            }
        }
    }

    #[test]
    fn early_decisions_are_not_overturned() {
        // A process that decides early keeps flooding; later rounds cannot
        // change its (already returned) decision, and latecomers still
        // match it. Covered structurally by the engine (first decision is
        // final); here we assert the protocol never *tries* to re-decide.
        let size = n(4);
        let _ = size;
        let mut p = EarlyStoppingConsensus::new(9, 3);
        let msgs: Vec<Option<Value>> = vec![Some(9), Some(5), Some(7), Some(8)];
        // Round 1 never decides under the stability rule (f > 0).
        let verdict = p.deliver(Delivery::new(
            Round::new(1),
            ProcessId::new(0),
            &msgs,
            IdSet::empty(),
        ));
        assert!(matches!(verdict, Control::Continue));
        // Round 2 is stable (no new suspicions): decide the minimum.
        let verdict = p.deliver(Delivery::new(
            Round::new(2),
            ProcessId::new(0),
            &msgs,
            IdSet::empty(),
        ));
        assert!(matches!(verdict, Control::Decide(5)));
        // Third delivery: already decided, must continue silently.
        let verdict = p.deliver(Delivery::new(
            Round::new(3),
            ProcessId::new(0),
            &msgs,
            IdSet::empty(),
        ));
        assert!(matches!(verdict, Control::Continue));
        assert_eq!(p.emit(Round::new(4)), 5, "keeps flooding its decision");
    }
}
