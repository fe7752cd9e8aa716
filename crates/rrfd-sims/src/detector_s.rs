//! §2 item 6: the asynchronous system augmented with the strong failure
//! detector **S** of Chandra-Toueg.
//!
//! In system N, all but one (a priori unknown) process may crash; the
//! detector eventually suspects every real crash and never suspects at
//! least one correct process. "Processes use the failure detector S to
//! advance from one round to the next — `D(i,r)` is the value that allows
//! `p_i` to complete round `r`."
//!
//! [`SAugmentedSystem`] packages a ground-truth crash schedule and a seeded
//! unreliable-suspicion source as an [`rrfd_core::FaultDetector`]: at each
//! round it hands every process a suspicion set that (a) contains every
//! process crashed so far — a crashed process sends no more messages, so
//! waiting on it would block forever, and (b) never contains the designated
//! immortal. Everything else fluctuates arbitrarily, matching S's
//! unreliability. The produced patterns satisfy the `P6` predicate by
//! construction, which is the E12 extraction check.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrfd_core::{FaultDetector, FaultPattern, IdSet, ProcessId, Round, RoundFaults, SystemSize};

/// A crash schedule plus an S-style unreliable suspicion source.
#[derive(Debug, Clone)]
pub struct SAugmentedSystem {
    n: SystemSize,
    immortal: ProcessId,
    /// `crash_round[i] = Some(r)`: `p_i` crashes at the start of round `r`.
    crash_round: Vec<Option<Round>>,
    rng: StdRng,
    /// Probability that a live, non-immortal process is wrongly suspected
    /// by a given process in a given round.
    false_suspicion_prob: f64,
}

impl SAugmentedSystem {
    /// Creates the system: `immortal` never crashes and is never suspected;
    /// every other process listed in `crash_round` crashes at its round.
    ///
    /// # Panics
    ///
    /// Panics if the immortal is scheduled to crash, or the schedule length
    /// mismatches `n`.
    #[must_use]
    pub fn new(
        n: SystemSize,
        immortal: ProcessId,
        crash_round: Vec<Option<Round>>,
        seed: u64,
    ) -> Self {
        assert_eq!(crash_round.len(), n.get(), "one schedule slot per process");
        assert!(
            crash_round[immortal.index()].is_none(),
            "the immortal process cannot crash"
        );
        SAugmentedSystem {
            n,
            immortal,
            crash_round,
            rng: StdRng::seed_from_u64(seed),
            false_suspicion_prob: 0.2,
        }
    }

    /// Creates a system where everyone except the immortal crashes at a
    /// random round in `1..=horizon` with probability 1/2 — the "all but
    /// one may fail" regime of item 6.
    #[must_use]
    pub fn random(n: SystemSize, horizon: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let immortal = ProcessId::new(rng.gen_range(0..n.get()));
        let crash_round = n
            .processes()
            .map(|p| {
                (p != immortal && rng.gen_bool(0.5)).then(|| Round::new(rng.gen_range(1..=horizon)))
            })
            .collect();
        SAugmentedSystem {
            n,
            immortal,
            crash_round,
            rng,
            false_suspicion_prob: 0.2,
        }
    }

    /// The never-suspected correct process.
    #[must_use]
    pub fn immortal(&self) -> ProcessId {
        self.immortal
    }

    /// Processes crashed at or before `round`.
    #[must_use]
    pub fn crashed_by(&self, round: Round) -> IdSet {
        self.n
            .processes()
            .filter(|&p| matches!(self.crash_round[p.index()], Some(c) if c <= round))
            .collect()
    }
}

impl FaultDetector for SAugmentedSystem {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn next_round(&mut self, round: Round, _history: &FaultPattern) -> RoundFaults {
        let crashed = self.crashed_by(round);
        let falsely_suspectable: IdSet =
            (IdSet::universe(self.n) - crashed) - IdSet::singleton(self.immortal);
        let sets = self
            .n
            .processes()
            .map(|_| {
                let mut d = crashed;
                for q in falsely_suspectable.iter() {
                    if self.rng.gen_bool(self.false_suspicion_prob) {
                        d.insert(q);
                    }
                }
                d
            })
            .collect();
        RoundFaults::from_sets(self.n, sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::{validate_round, ProgramBatch};
    use rrfd_models::predicates::DetectorS;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn produced_patterns_satisfy_p6() {
        let size = n(6);
        for seed in 0..10u64 {
            let mut sys = SAugmentedSystem::random(size, 5, seed);
            let model = DetectorS::new(size);
            let mut history = FaultPattern::new(size);
            let mut batch = ProgramBatch::of(&model);
            for r in 1..=8 {
                let round = sys.next_round(Round::new(r), &history);
                assert!(
                    validate_round(&model, &mut batch, &round).is_ok(),
                    "seed {seed} round {r} violated P6"
                );
                history.push(round);
            }
            assert!(!history.cumulative_union().contains(sys.immortal()));
        }
    }

    #[test]
    fn crashes_are_suspected_by_everyone_once_crashed() {
        let size = n(4);
        let schedule = vec![None, Some(Round::new(2)), None, None];
        let mut sys = SAugmentedSystem::new(size, ProcessId::new(0), schedule, 1);
        let mut history = FaultPattern::new(size);
        for r in 1..=4 {
            let round = sys.next_round(Round::new(r), &history);
            if r >= 2 {
                for i in size.processes() {
                    assert!(
                        round.of(i).contains(ProcessId::new(1)),
                        "round {r}: {i} does not suspect the crashed p1"
                    );
                }
            }
            history.push(round);
        }
    }

    #[test]
    fn immortal_cannot_be_scheduled_to_crash() {
        let size = n(3);
        let schedule = vec![Some(Round::new(1)), None, None];
        let result = std::panic::catch_unwind(|| {
            SAugmentedSystem::new(size, ProcessId::new(0), schedule, 0)
        });
        assert!(result.is_err());
    }

    #[test]
    fn false_suspicions_do_happen_and_heal() {
        // Over several rounds, some live process should be suspected in one
        // round and trusted again in another — S's unreliability.
        let size = n(5);
        let mut sys = SAugmentedSystem::new(size, ProcessId::new(0), vec![None; 5], 7);
        let mut history = FaultPattern::new(size);
        let mut suspected_then_trusted = false;
        let mut prev: Option<RoundFaults> = None;
        for r in 1..=20 {
            let round = sys.next_round(Round::new(r), &history);
            if let Some(prev) = &prev {
                for i in size.processes() {
                    let before = prev.of(i);
                    let now = round.of(i);
                    if !(before - now).is_empty() {
                        suspected_then_trusted = true;
                    }
                }
            }
            prev = Some(round.clone());
            history.push(round);
        }
        assert!(suspected_then_trusted, "suspicions never healed");
    }
}
