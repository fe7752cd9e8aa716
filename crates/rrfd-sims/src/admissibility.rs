//! Compiled-plane admissibility checks for simulator runs.
//!
//! The DPOR explorer ([`crate::dpor`]) accepts a `check` closure per
//! completed run. When the property under test is "the extracted fault
//! pattern stays inside model `P`", [`AdmissibilityChecker`] answers it for
//! a whole family at once: compiled once ([`RrfdPredicate::compile`]), each
//! run's pattern streams through one [`ProgramBatch`] — one profile per
//! round, one packed verdict mask, `O(1)` history absorption. The checker
//! is `Sync` and checks through `&self`, which is what the work-stealing
//! DPOR pool requires of its `check` closures.

use std::sync::atomic::{AtomicU64, Ordering};

use rrfd_core::{FaultPattern, ProgramBatch, Round, RrfdPredicate, SystemSize};
use rrfd_models::zoo::{compile_family, zoo, SharedPredicate};
use rrfd_obs::{names, Labels, Obs};

/// One admissibility violation: the first predicate of the family that
/// rejected the pattern, and the round it rejected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissibilityViolation {
    /// `name()` of the rejecting predicate.
    pub predicate: String,
    /// Index of the rejecting predicate within the family.
    pub index: usize,
    /// The 1-based round the predicate rejected.
    pub round: Round,
}

impl std::fmt::Display for AdmissibilityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pattern left `{}` (family index {}) at round {}",
            self.predicate,
            self.index,
            self.round.get()
        )
    }
}

/// A reusable, thread-shareable admissibility check over a predicate
/// family, evaluated on the compiled plane.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultPattern, SystemSize};
/// use rrfd_models::predicates::Crash;
/// use rrfd_sims::admissibility::AdmissibilityChecker;
///
/// let n = SystemSize::new(3).unwrap();
/// let checker = AdmissibilityChecker::new(vec![Box::new(Crash::new(n, 1))]);
/// assert!(checker.check(&FaultPattern::new(n)).is_ok());
/// ```
pub struct AdmissibilityChecker {
    predicates: Vec<SharedPredicate>,
    /// Pristine batch (no absorbed rounds), cloned per checked pattern.
    template: ProgramBatch,
    evals: AtomicU64,
}

impl std::fmt::Debug for AdmissibilityChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissibilityChecker")
            .field("family", &self.predicates.len())
            .field("evals", &self.compiled_evals())
            .finish()
    }
}

impl AdmissibilityChecker {
    /// Builds a checker over an arbitrary family, compiling every member.
    ///
    /// # Panics
    ///
    /// Panics when the family is empty, exceeds 128 members, spans
    /// different system sizes (the batch packs verdicts into a `u128`), or
    /// has a member that does not compile (see [`compile_family`]).
    #[must_use]
    pub fn new(predicates: Vec<SharedPredicate>) -> Self {
        let first = predicates
            .first()
            .expect("an admissibility check needs at least one predicate");
        let n = first.system_size();
        let template = ProgramBatch::new(n, compile_family(&predicates));
        AdmissibilityChecker {
            predicates,
            template,
            evals: AtomicU64::new(0),
        }
    }

    /// The standard zoo family at size `n`, resilience `f`.
    ///
    /// # Panics
    ///
    /// Panics when `f` is not a legal resilience for `n`.
    #[must_use]
    pub fn zoo(n: SystemSize, f: usize) -> Self {
        AdmissibilityChecker::new(zoo(n, f))
    }

    /// The system size the family is defined over.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.template.system_size()
    }

    /// Total compiled program evaluations across every check so far.
    #[must_use]
    pub fn compiled_evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Streams `pattern` through the family once, returning the first
    /// rejection (earliest round; ties break toward the lower family
    /// index). Verdicts are exactly those of
    /// [`RrfdPredicate::admits_pattern`] on every member.
    ///
    /// # Errors
    ///
    /// The first predicate/round at which the pattern leaves the model.
    pub fn check(&self, pattern: &FaultPattern) -> Result<(), AdmissibilityViolation> {
        assert_eq!(
            pattern.system_size(),
            self.system_size(),
            "pattern and family must share a system universe"
        );
        let mut batch = self.template.clone();
        // The family is non-empty and at most 128 strong.
        let family = u128::MAX >> (128 - batch.len());
        for (round, faults) in pattern.iter() {
            let profile = batch.profile(faults);
            let rejected = family & !batch.eval_round(&profile, family);
            if rejected != 0 {
                self.evals.fetch_add(batch.evals(), Ordering::Relaxed);
                let index = rejected.trailing_zeros() as usize;
                return Err(AdmissibilityViolation {
                    predicate: self.predicates[index].name(),
                    index,
                    round,
                });
            }
            batch.absorb_profile(&profile);
        }
        self.evals.fetch_add(batch.evals(), Ordering::Relaxed);
        Ok(())
    }

    /// [`Self::check`] with the violation rendered as the `String` the
    /// exploration drivers' `check` closures return.
    ///
    /// # Errors
    ///
    /// As [`Self::check`], stringified.
    pub fn check_msg(&self, pattern: &FaultPattern) -> Result<(), String> {
        self.check(pattern).map_err(|v| v.to_string())
    }

    /// Publishes the compiled-evaluation total to
    /// [`names::PRED_COMPILED_EVALS`].
    pub fn record(&self, obs: &Obs) {
        obs.add(
            names::PRED_COMPILED_EVALS,
            Labels::GLOBAL,
            self.compiled_evals(),
        );
    }
}

/// The RRFD view of a semi-synchronous run that crashed `crashed`:
/// every process misses the crashed processes' messages in every one of
/// the `rounds` rounds (exempting each process from suspecting itself,
/// per the paper's self-trust clause).
/// [`crate::semi_sync::SemiSyncReport`] records *which* processes
/// crashed but not when, so this is the coarsest pattern consistent with
/// the report — the right input for crash-counting models like `Crash`.
#[must_use]
pub fn crash_pattern(n: SystemSize, crashed: rrfd_core::IdSet, rounds: u32) -> FaultPattern {
    let mut pattern = FaultPattern::new(n);
    for _ in 0..rounds {
        let sets = n
            .processes()
            .map(|i| crashed.difference(rrfd_core::IdSet::singleton(i)))
            .collect();
        pattern.push(rrfd_core::RoundFaults::from_sets(n, sets));
    }
    pattern
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpor::{explore_semi_sync_dpor, DporConfig};
    use crate::semi_sync::{SemiSyncProcess, SemiSyncSim};
    use rrfd_core::{Control, IdSet, ProcessId, RoundFaults};
    use rrfd_models::enumerate::all_rounds;
    use std::sync::Arc;

    fn n3() -> SystemSize {
        SystemSize::new(3).expect("3 is a valid system size")
    }

    #[test]
    fn checker_matches_the_dyn_path_on_every_small_pattern() {
        let n = n3();
        let checker = AdmissibilityChecker::zoo(n, 1);
        let family = zoo(n, 1);
        let rounds: Vec<RoundFaults> = all_rounds(n).collect();
        let mut checked = 0usize;
        for first in &rounds {
            // Depth-1 pattern plus a strided sample of depth-2 extensions:
            // every first round is covered exactly, extensions keep the
            // test fast while still exercising the history registers.
            let mut depth_one = FaultPattern::new(n);
            depth_one.push(first.clone());
            let mut patterns = vec![depth_one.clone()];
            for second in rounds.iter().step_by(13) {
                let mut p = depth_one.clone();
                p.push(second.clone());
                patterns.push(p);
            }
            for pattern in patterns {
                let verdict = checker.check(&pattern);
                let dyn_reject = family.iter().position(|p| !p.admits_pattern(&pattern));
                match (verdict, dyn_reject) {
                    (Ok(()), None) => {}
                    (Err(violation), Some(_)) => {
                        // The rejecting *predicate* may differ (the
                        // checker reports the earliest round first), but
                        // the verdict must agree with the rejecting
                        // predicate's own view.
                        assert!(!family[violation.index].admits_pattern(&pattern));
                    }
                    (got, want) => panic!("compiled {got:?} vs dyn {want:?} diverged"),
                }
                checked += 1;
            }
        }
        assert!(checked > 1_000, "the enumeration actually ran ({checked})");
        assert!(checker.compiled_evals() > 0, "the compiled plane was used");
    }

    #[test]
    fn violations_name_the_earliest_rejecting_round() {
        let n = n3();
        let crash = rrfd_models::predicates::Crash::new(n, 1);
        let checker = AdmissibilityChecker::new(vec![Box::new(crash)]);
        // Two processes fail: leaves Crash(f=1) immediately.
        let mut pattern = FaultPattern::new(n);
        pattern.push(RoundFaults::none(n));
        let two: IdSet = [ProcessId::new(0), ProcessId::new(1)].into_iter().collect();
        let sets = vec![two; 3];
        pattern.push(RoundFaults::from_sets(n, sets));
        let violation = checker.check(&pattern).expect_err("f=1 excludes 2 crashes");
        assert_eq!(violation.round, Round::new(2));
        assert_eq!(violation.index, 0);
        assert!(checker.check_msg(&pattern).unwrap_err().contains("round 2"));
    }

    /// Takes one step and decides; crash timing is the only nondeterminism.
    #[derive(Debug, Clone)]
    struct OneStep;

    impl SemiSyncProcess for OneStep {
        type Msg = ();
        type Output = u32;
        fn step(&mut self, _received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<u32>) {
            (None, Control::Decide(7))
        }
    }

    #[test]
    fn dpor_runs_stay_admissible_under_the_crash_model() {
        let n = n3();
        let sim = SemiSyncSim::new(n);
        let checker =
            AdmissibilityChecker::new(vec![Box::new(rrfd_models::predicates::Crash::new(n, 1))]);
        let stats = explore_semi_sync_dpor(
            &sim,
            1,
            || vec![OneStep, OneStep, OneStep],
            |report| checker.check_msg(&crash_pattern(n, report.crashed, 1)),
            &DporConfig::new(2),
        )
        .expect("every ≤1-crash run fits Crash(f=1)");
        assert!(stats.schedules > 0);
        checker.record(&Obs::logical());
    }
}
