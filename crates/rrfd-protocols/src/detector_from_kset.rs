//! Theorem 3.3: a system with a k-set-consensus object and SWMR shared
//! memory supports the k-uncertainty detector of Theorem 3.1.
//!
//! Per round `r`, process `p_i`:
//!
//! 1. appends its round value to its cell of the round's value bank;
//! 2. proposes its own identifier to the round's k-set-consensus object
//!    and receives a winner identifier `w`;
//! 3. writes `w` to its cell of the round's announce bank, then reads all
//!    announce cells; with `W` the set of winner identifiers read,
//!    `D(i,r) := S ∖ W`.
//!
//! Two suspicion sets of the same round can differ only on the (at most
//! `k`) identifiers chosen by the object, and every reader sees the winner
//! that was written *first* to the announce bank, so the per-round
//! uncertainty `|∪D ∖ ∩D|` is at most `k − 1 < k` — the Theorem 3.1
//! predicate. Experiment E5 machine-checks this on every run.

use rrfd_core::{IdSet, ProcessId, SystemSize};
use rrfd_sims::shared_mem::{Action, MemProcess, MemSimError, Observation, SharedMemSim};
use rrfd_sims::step::StepScheduler;

/// The Theorem 3.3 detector-construction process: runs `rounds` rounds and
/// decides its per-round suspicion log.
#[derive(Debug, Clone)]
pub struct DetectorFromKSet {
    me: ProcessId,
    n: SystemSize,
    rounds: u32,
    round: u32,
    phase: DfkPhase,
    log: Vec<IdSet>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DfkPhase {
    WriteValue,
    Propose,
    WriteWinner,
    ReadAnnounce { next: usize, winners: IdSet },
}

impl DetectorFromKSet {
    /// Creates the process, to run `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn new(n: SystemSize, me: ProcessId, rounds: u32) -> Self {
        assert!(rounds >= 1, "at least one round required");
        DetectorFromKSet {
            me,
            n,
            rounds,
            round: 0,
            phase: DfkPhase::WriteValue,
            log: Vec::new(),
        }
    }

    /// Memory banks needed: a value bank and an announce bank per round.
    #[must_use]
    pub fn banks_needed(rounds: u32) -> usize {
        2 * rounds as usize
    }

    /// K-set objects needed: one per round.
    #[must_use]
    pub fn objects_needed(rounds: u32) -> usize {
        rounds as usize
    }

    fn value_bank(&self) -> usize {
        2 * self.round as usize
    }

    fn announce_bank(&self) -> usize {
        2 * self.round as usize + 1
    }
}

impl MemProcess<u64> for DetectorFromKSet {
    type Output = Vec<IdSet>;

    fn step(&mut self, obs: Observation<u64>) -> Action<u64, Vec<IdSet>> {
        match (self.phase, obs) {
            (DfkPhase::WriteValue, Observation::Start | Observation::Written) => {
                // Emit: append the round value (here: a tag of me/round).
                self.phase = DfkPhase::Propose;
                Action::Write {
                    bank: self.value_bank(),
                    value: (u64::from(self.round) << 8) | self.me.index() as u64,
                }
            }
            (DfkPhase::Propose, Observation::Written) => {
                self.phase = DfkPhase::WriteWinner;
                Action::Propose {
                    object: self.round as usize,
                    value: self.me.index() as u64,
                }
            }
            (DfkPhase::WriteWinner, Observation::Chosen(w)) => {
                self.phase = DfkPhase::ReadAnnounce {
                    next: 0,
                    winners: IdSet::empty(),
                };
                Action::Write {
                    bank: self.announce_bank(),
                    value: w,
                }
            }
            (DfkPhase::ReadAnnounce { next: 0, winners }, Observation::Written) => {
                self.phase = DfkPhase::ReadAnnounce { next: 0, winners };
                Action::Read {
                    bank: self.announce_bank(),
                    owner: ProcessId::new(0),
                }
            }
            (DfkPhase::ReadAnnounce { next, mut winners }, Observation::Value(cell)) => {
                if let Some(w) = cell {
                    winners.insert(ProcessId::new(w as usize));
                }
                let next = next + 1;
                if next < self.n.get() {
                    self.phase = DfkPhase::ReadAnnounce { next, winners };
                    return Action::Read {
                        bank: self.announce_bank(),
                        owner: ProcessId::new(next),
                    };
                }
                // Round complete: D(i,r) = S ∖ W.
                self.log.push(winners.complement(self.n));
                self.round += 1;
                if self.round >= self.rounds {
                    return Action::Decide(self.log.clone());
                }
                self.phase = DfkPhase::Propose;
                Action::Write {
                    bank: self.value_bank(),
                    value: (u64::from(self.round) << 8) | self.me.index() as u64,
                }
            }
            (phase, obs) => unreachable!("observation {obs:?} in phase {phase:?}"),
        }
    }
}

/// Runs the construction for `rounds` rounds on a system with a
/// `k`-set-consensus object per round, assembling the produced
/// [`rrfd_core::FaultPattern`]. Crashed processes' unrecorded rounds are
/// padded with the deciders' intersection (which changes neither the union
/// nor the intersection of the round, hence not the uncertainty).
///
/// # Errors
///
/// Propagates [`MemSimError`].
pub fn build_detector_pattern<S>(
    n: SystemSize,
    k: usize,
    rounds: u32,
    oracle_seed: u64,
    scheduler: &mut S,
) -> Result<rrfd_core::FaultPattern, MemSimError>
where
    S: StepScheduler + ?Sized,
{
    use rrfd_core::{FaultPattern, RoundFaults};

    let procs: Vec<_> = n
        .processes()
        .map(|p| DetectorFromKSet::new(n, p, rounds))
        .collect();
    let report = SharedMemSim::new(n, DetectorFromKSet::banks_needed(rounds))
        .with_kset_objects(DetectorFromKSet::objects_needed(rounds), k, oracle_seed)
        .run(procs, scheduler)?;

    let logs: Vec<Option<&Vec<IdSet>>> = report.outputs.iter().map(Option::as_ref).collect();
    let mut pattern = FaultPattern::new(n);
    for r in 0..rounds as usize {
        let common = logs
            .iter()
            .flatten()
            .filter_map(|log| log.get(r))
            .copied()
            .fold(IdSet::universe(n), IdSet::intersection);
        let sets = n
            .processes()
            .map(|p| match logs[p.index()].and_then(|log| log.get(r)) {
                Some(&d) => d,
                None => common,
            })
            .collect();
        pattern.push(RoundFaults::from_sets(n, sets));
    }
    Ok(pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::RrfdPredicate;
    use rrfd_models::predicates::KUncertainty;
    use rrfd_sims::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn constructed_pattern_satisfies_pk_fair() {
        for &(nv, k) in &[(4usize, 1usize), (6, 2), (8, 3)] {
            let size = n(nv);
            let pattern = build_detector_pattern(size, k, 4, 7, &mut FairScheduler::new()).unwrap();
            let model = KUncertainty::new(size, k);
            assert!(
                model.admits_pattern(&pattern),
                "n={nv} k={k}: {pattern:?} breaks Pk"
            );
        }
    }

    #[test]
    fn constructed_pattern_satisfies_pk_random() {
        for &(nv, k) in &[(5usize, 2usize), (7, 3)] {
            let size = n(nv);
            let model = KUncertainty::new(size, k);
            for seed in 0..15u64 {
                let mut sched = RandomScheduler::new(seed, 0);
                let pattern =
                    build_detector_pattern(size, k, 3, seed * 31 + 1, &mut sched).unwrap();
                assert!(
                    model.admits_pattern(&pattern),
                    "n={nv} k={k} seed={seed}: uncertainty exceeded"
                );
            }
        }
    }

    #[test]
    fn suspicion_sets_differ_only_on_winners() {
        // The structural claim inside Theorem 3.3's proof.
        let size = n(6);
        let k = 2;
        for seed in 0..10u64 {
            let mut sched = RandomScheduler::new(seed, 0);
            let pattern = build_detector_pattern(size, k, 3, seed + 100, &mut sched).unwrap();
            for (_, rf) in pattern.iter() {
                // The uncertainty is at most k − 1.
                assert!(rf.uncertainty().len() < k);
            }
        }
    }

    #[test]
    fn crashes_are_tolerated() {
        let size = n(6);
        let k = 3;
        let model = KUncertainty::new(size, k);
        for seed in 0..10u64 {
            let mut sched = RandomScheduler::new(seed, 2).crash_prob(0.01);
            let pattern = build_detector_pattern(size, k, 3, seed, &mut sched).unwrap();
            assert!(model.admits_pattern(&pattern), "seed {seed}");
        }
    }
}
