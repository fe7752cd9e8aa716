//! The live RRFD predicate-conformance monitor.
//!
//! A run is only as good as the predicate its environment actually
//! delivered. The monitor watches a run's per-round suspicion sets
//! `D(i,r)` — equivalently its heard-of sets, since
//! `HO(i,r) = S ∖ D(i,r)` — and decides, incrementally, which of the
//! zoo's predicates the run still conforms to. Because every zoo
//! predicate is prefix-closed, a violated predicate stays violated:
//! each round costs one compiled-program evaluation per still-live
//! predicate, and the monitor's verdict after round `r` equals the
//! offline answer "does the predicate admit the pattern prefix of length
//! `r`?" (the
//! differential suite at the workspace root checks exactly this
//! agreement on every substrate).
//!
//! A violation is not just a flag: [`ConformanceMonitor::certificate`]
//! converts it into a replayable [`RunTrace`] whose final round is the
//! violating one, so "this run left the crash model at round 7" ships
//! with the evidence that reproduces it.

use crate::zoo::{compile_family, zoo, SharedPredicate, ZOO_STRENGTH_RANK};
use rrfd_core::{
    FaultPattern, ProgramBatch, Round, RoundFaults, RoundHook, RoundProfile, RrfdPredicate,
    RunTrace, SystemSize,
};
use rrfd_obs::{names, Labels, MetricId, Obs, RunObs};
use std::sync::{Arc, Mutex, PoisonError};

const ROUNDS: MetricId = MetricId::of(names::CONF_ROUNDS);
const CHECKS: MetricId = MetricId::of(names::CONF_CHECKS);
const COMPILED_EVALS: MetricId = MetricId::of(names::PRED_COMPILED_EVALS);
const SATISFIED: MetricId = MetricId::of(names::CONF_SATISFIED);
const FIRST_VIOLATION: MetricId = MetricId::of(names::CONF_FIRST_VIOLATION);
const STRONGEST: MetricId = MetricId::of(names::CONF_STRONGEST);

/// The status of one monitored predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateStatus {
    /// The predicate's diagnostic name.
    pub name: String,
    /// Strength rank (lower = stronger; see
    /// [`ZOO_STRENGTH_RANK`]). For non-zoo families this is the
    /// predicate's position.
    pub rank: usize,
    /// The first round the predicate rejected, or `None` while it still
    /// admits every observed round.
    pub first_violation: Option<Round>,
}

impl PredicateStatus {
    /// `true` while the predicate admits every observed round.
    #[must_use]
    pub fn satisfied(&self) -> bool {
        self.first_violation.is_none()
    }
}

/// A frozen conformance verdict: every predicate's status after some
/// number of observed rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceVerdict {
    /// Rounds observed when the verdict was taken.
    pub rounds_observed: u32,
    /// One status per monitored predicate, in family order.
    pub statuses: Vec<PredicateStatus>,
}

impl ConformanceVerdict {
    /// The strongest (lowest-rank) predicate still satisfied, if any.
    #[must_use]
    pub fn strongest_satisfied(&self) -> Option<&PredicateStatus> {
        self.statuses
            .iter()
            .filter(|s| s.satisfied())
            .min_by_key(|s| s.rank)
    }

    /// How many predicates have been violated so far.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.statuses.iter().filter(|s| !s.satisfied()).count()
    }
}

/// The predicate family a monitor checks, with its strength ranks; shared
/// by every clone of the monitor.
struct Family {
    predicates: Vec<SharedPredicate>,
    ranks: Vec<usize>,
}

/// An online checker evaluating a predicate family against a live run,
/// one round of suspicions at a time.
///
/// Cloning is cheap: the family and its compiled programs are shared,
/// and only the per-run state (history, violations, history registers)
/// is copied. Reusing one is cheaper still: [`ConformanceMonitor::reset`]
/// forgets the observed run but keeps every allocation, which is how the
/// batch pool gives each lane one monitor for all its instances.
#[derive(Clone)]
pub struct ConformanceMonitor {
    family: Arc<Family>,
    history: FaultPattern,
    /// Per predicate: the round it first rejected (that round's faults
    /// stay in the history, which the certificate replays).
    violations: Vec<Option<Round>>,
    /// The compiled predicate plane: one program per predicate, batch-
    /// evaluated per round.
    batch: ProgramBatch,
}

impl std::fmt::Debug for ConformanceMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let violations = self.violations.iter().filter(|v| v.is_some()).count();
        f.debug_struct("ConformanceMonitor")
            .field("predicates", &self.family.predicates.len())
            .field("rounds_observed", &self.rounds_observed())
            .field("violations", &violations)
            .finish()
    }
}

impl ConformanceMonitor {
    /// A monitor over the full 13-predicate [`zoo`] at size `n`,
    /// resilience `f`, ranked by [`ZOO_STRENGTH_RANK`].
    ///
    /// # Panics
    ///
    /// Panics when `f` is not a legal resilience for `n` (the zoo
    /// constructors check).
    #[must_use]
    pub fn zoo(n: SystemSize, f: usize) -> Self {
        ConformanceMonitor::with_ranks(zoo(n, f), ZOO_STRENGTH_RANK.to_vec())
    }

    /// A monitor over an arbitrary predicate family, ranked by position
    /// (first = strongest).
    ///
    /// # Panics
    ///
    /// Panics when the family is empty, has more than 128 members (the
    /// width of the batch's verdict word), spans different system sizes,
    /// or has a member that does not compile (see [`compile_family`]).
    #[must_use]
    pub fn new(predicates: Vec<SharedPredicate>) -> Self {
        let ranks = (0..predicates.len()).collect();
        ConformanceMonitor::with_ranks(predicates, ranks)
    }

    fn with_ranks(predicates: Vec<SharedPredicate>, ranks: Vec<usize>) -> Self {
        assert!(
            !predicates.is_empty(),
            "conformance monitoring needs at least one predicate"
        );
        let n = predicates[0].system_size();
        assert!(
            predicates.iter().all(|p| p.system_size() == n),
            "monitored predicates must share a system size"
        );
        assert_eq!(ranks.len(), predicates.len());
        let violations = vec![None; predicates.len()];
        let batch = ProgramBatch::new(n, compile_family(&predicates));
        ConformanceMonitor {
            family: Arc::new(Family { predicates, ranks }),
            history: FaultPattern::new(n),
            violations,
            batch,
        }
    }

    /// Forgets the observed run — history, violations, history registers
    /// and evaluation count — keeping the family and every allocation:
    /// afterwards the monitor behaves exactly like a fresh one over the
    /// same family.
    pub fn reset(&mut self) {
        self.history.clear();
        self.violations.fill(None);
        self.batch.reset();
    }

    /// The system size being monitored.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.history.system_size()
    }

    /// Rounds observed so far.
    #[must_use]
    pub fn rounds_observed(&self) -> u32 {
        self.history.rounds() as u32
    }

    /// Feeds one round of suspicions. Every still-live predicate is
    /// asked whether the round may extend the history; prefix-closedness
    /// makes re-checking violated predicates pointless, so they are
    /// skipped. The round joins the history either way — the monitor
    /// tracks the run that happened, not the run some model wanted.
    ///
    /// The live predicates are judged in one batch pass of their compiled
    /// programs over a shared [`RoundProfile`] (DESIGN.md §17).
    pub fn observe(&mut self, round: &RoundFaults) {
        let round_no = Round::new(self.history.rounds() as u32 + 1);
        let mut live: u128 = 0;
        for (idx, violation) in self.violations.iter().enumerate() {
            if violation.is_none() {
                live |= 1u128 << idx;
            }
        }
        let profile = RoundProfile::of(round);
        let mut rejected = live & !self.batch.eval_round(&profile, live);
        self.batch.absorb_profile(&profile);
        while rejected != 0 {
            let idx = rejected.trailing_zeros() as usize;
            rejected &= rejected - 1;
            self.violations[idx] = Some(round_no);
        }
        self.history.push(round.clone());
    }

    /// The [`RoundHook`] that feeds `monitor` every round of a run. A
    /// poisoned monitor is fed all the same: a panic mid-`observe` only
    /// affects the run it panicked in.
    #[must_use]
    pub fn hook(monitor: &Arc<Mutex<Self>>) -> RoundHook {
        let monitor = Arc::clone(monitor);
        RoundHook::new(move |faults| {
            let mut monitor = monitor.lock().unwrap_or_else(PoisonError::into_inner);
            monitor.observe(faults);
        })
    }

    /// Total compiled-plane program evaluations performed so far (the
    /// `rrfd_predicate_compiled_evals_total` counter's source).
    #[must_use]
    pub fn compiled_evals(&self) -> u64 {
        self.batch.evals()
    }

    /// The current verdict.
    #[must_use]
    pub fn verdict(&self) -> ConformanceVerdict {
        ConformanceVerdict {
            rounds_observed: self.rounds_observed(),
            statuses: self
                .family
                .predicates
                .iter()
                .enumerate()
                .map(|(idx, p)| PredicateStatus {
                    name: p.name(),
                    rank: self.family.ranks[idx],
                    first_violation: self.first_violation(idx),
                })
                .collect(),
        }
    }

    /// Strength rank per predicate, in family order (lower = stronger).
    #[must_use]
    pub fn ranks(&self) -> &[usize] {
        &self.family.ranks
    }

    /// The first round predicate `idx` rejected; `None` while it holds
    /// (or when `idx` is out of range).
    #[must_use]
    pub fn first_violation(&self, idx: usize) -> Option<Round> {
        *self.violations.get(idx)?
    }

    /// The family index of the strongest (lowest-rank) predicate still
    /// satisfied — the predicate [`ConformanceVerdict::strongest_satisfied`]
    /// reports — found without building a verdict.
    #[must_use]
    pub fn strongest_satisfied(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (idx, violation) in self.violations.iter().enumerate() {
            let rank = self.family.ranks[idx];
            if violation.is_none() && best.is_none_or(|b| rank < self.family.ranks[b]) {
                best = Some(idx);
            }
        }
        best
    }

    /// A replayable certificate for predicate `idx`'s violation
    /// ([`RunTrace::predicate_rejection`] over the observed history), or
    /// `None` while it is still satisfied.
    #[must_use]
    pub fn certificate(&self, idx: usize) -> Option<RunTrace> {
        let round = self.first_violation(idx)?;
        Some(RunTrace::predicate_rejection(
            &self.history,
            round,
            self.family.predicates[idx].name(),
        ))
    }

    /// Publishes the monitor's state as `rrfd_conformance_*` metrics.
    /// The predicate is identified by its family index carried in the
    /// `process` label — a documented, bounded reuse of the label schema
    /// (the zoo has 13 members; the label was sized for process counts).
    /// The samples are buffered and reach the recorder in one flush when
    /// the buffered handle drops.
    pub fn record(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        let mut buffered = RunObs::with_capacity(obs.clone(), 4 + 2 * self.violations.len(), 0);
        buffered.add(ROUNDS, Labels::GLOBAL, u64::from(self.rounds_observed()));
        let checks: u64 = self
            .violations
            .iter()
            .map(|v| match v {
                // A violated predicate was checked once per round up to
                // and including its violating round…
                Some(r) => u64::from(r.get()),
                // …a live one, every round.
                None => u64::from(self.rounds_observed()),
            })
            .sum();
        buffered.add(CHECKS, Labels::GLOBAL, checks);
        buffered.add(COMPILED_EVALS, Labels::GLOBAL, self.compiled_evals());
        for (idx, violation) in self.violations.iter().enumerate() {
            let labels = Labels::process(idx);
            match violation {
                Some(round) => {
                    buffered.gauge(SATISFIED, labels, 0);
                    buffered.gauge(FIRST_VIOLATION, labels, i64::from(round.get()));
                }
                None => buffered.gauge(SATISFIED, labels, 1),
            }
        }
        let strongest = self
            .strongest_satisfied()
            .map_or(-1, |idx| self.family.ranks[idx] as i64);
        buffered.gauge(STRONGEST, Labels::GLOBAL, strongest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ReplayDetector;
    use rrfd_core::{IdSet, ProcessId, RrfdPredicate};

    fn n3() -> SystemSize {
        SystemSize::new(3).expect("3 is a valid size")
    }

    fn suspect(by: usize, who: usize) -> RoundFaults {
        let mut rf = RoundFaults::none(n3());
        rf.set(ProcessId::new(by), IdSet::singleton(ProcessId::new(who)));
        rf
    }

    #[test]
    fn quiet_rounds_satisfy_the_whole_zoo() {
        let mut mon = ConformanceMonitor::zoo(n3(), 1);
        for _ in 0..4 {
            mon.observe(&RoundFaults::none(n3()));
        }
        let verdict = mon.verdict();
        assert_eq!(verdict.rounds_observed, 4);
        assert_eq!(verdict.violations(), 0);
        let strongest = verdict.strongest_satisfied().expect("everything holds");
        assert_eq!(strongest.rank, 0, "the crash model is the strongest");
    }

    #[test]
    fn online_verdict_matches_offline_prefix_checking() {
        // A pattern that leaves the crash model: p0 suspects p2, then
        // stops suspecting it (crash suspicions are permanent).
        let rounds = vec![suspect(0, 2), RoundFaults::none(n3()), suspect(1, 0)];
        let mut mon = ConformanceMonitor::zoo(n3(), 1);
        for rf in &rounds {
            mon.observe(rf);
        }
        let verdict = mon.verdict();

        // Offline: replay each predicate over pattern prefixes.
        let family = zoo(n3(), 1);
        for (idx, predicate) in family.iter().enumerate() {
            let mut prefix = FaultPattern::new(n3());
            let mut offline_first: Option<Round> = None;
            for (r, rf) in rounds.iter().enumerate() {
                if offline_first.is_none() && !predicate.admits(&prefix, rf) {
                    offline_first = Some(Round::new(r as u32 + 1));
                }
                prefix.push(rf.clone());
            }
            assert_eq!(
                verdict.statuses[idx].first_violation,
                offline_first,
                "{}",
                predicate.name()
            );
        }
        // And the run did leave at least one model.
        assert!(verdict.violations() > 0);
    }

    #[test]
    fn certificates_replay_to_the_recorded_rejection() {
        let mut mon = ConformanceMonitor::zoo(n3(), 1);
        mon.observe(&suspect(0, 2));
        mon.observe(&RoundFaults::none(n3()));
        mon.observe(&suspect(0, 2)); // resurrection-then-resuspicion
        let verdict = mon.verdict();
        let family = zoo(n3(), 1);
        for (idx, status) in verdict.statuses.iter().enumerate() {
            let Some(round) = status.first_violation else {
                assert!(mon.certificate(idx).is_none());
                continue;
            };
            let trace = mon.certificate(idx).expect("violated ⇒ certificate");
            // The trace's pattern is exactly the history prefix through
            // the violating round, and the predicate rejects it there.
            let pattern = trace.pattern();
            assert_eq!(pattern.rounds() as u32, round.get());
            assert!(!family[idx].admits_pattern(&pattern));
            // The recorded moves replay deterministically.
            let replay = ReplayDetector::from_trace(&trace);
            let _ = replay; // construction validates the trace shape
            let text = trace.to_string();
            let reparsed: RunTrace = text.parse().expect("traces round-trip");
            assert_eq!(reparsed, trace);
        }
    }

    #[test]
    fn metrics_carry_strongest_rank_and_violation_rounds() {
        let mut mon = ConformanceMonitor::zoo(n3(), 1);
        mon.observe(&suspect(0, 2));
        mon.observe(&RoundFaults::none(n3()));
        let obs = Obs::logical();
        mon.record(&obs);
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total(names::CONF_ROUNDS), 2);
        assert!(snap.counter_total(names::CONF_CHECKS) > 0);
        // Crash (zoo index 0) is violated at round 2 (the suspicion of
        // p2 was dropped), so its satisfied gauge is 0 with the round
        // recorded; the strongest-rank gauge reflects whatever survives.
        let verdict = mon.verdict();
        for (idx, status) in verdict.statuses.iter().enumerate() {
            let labels = Labels::process(idx);
            match status.first_violation {
                Some(round) => {
                    assert_eq!(
                        snap.get(names::CONF_SATISFIED, labels),
                        Some(&rrfd_obs::MetricValue::Gauge(0))
                    );
                    assert_eq!(
                        snap.get(names::CONF_FIRST_VIOLATION, labels),
                        Some(&rrfd_obs::MetricValue::Gauge(i64::from(round.get())))
                    );
                }
                None => {
                    assert_eq!(
                        snap.get(names::CONF_SATISFIED, labels),
                        Some(&rrfd_obs::MetricValue::Gauge(1))
                    );
                }
            }
        }
        let expected = verdict.strongest_satisfied().map_or(-1, |s| s.rank as i64);
        assert_eq!(
            snap.get(names::CONF_STRONGEST, Labels::GLOBAL),
            Some(&rrfd_obs::MetricValue::Gauge(expected))
        );
    }

    #[test]
    fn strongest_satisfied_matches_the_verdict() {
        let rounds = [suspect(0, 2), RoundFaults::none(n3()), suspect(1, 0)];
        let mut mon = ConformanceMonitor::zoo(n3(), 1);
        for rf in &rounds {
            mon.observe(rf);
            let verdict = mon.verdict();
            let expected = verdict.strongest_satisfied().map(|s| s.rank);
            let strongest = mon.strongest_satisfied();
            assert_eq!(strongest.map(|idx| mon.ranks()[idx]), expected);
            if let Some(idx) = strongest {
                assert_eq!(verdict.statuses[idx].name, zoo(n3(), 1)[idx].name());
            }
        }
    }

    #[test]
    fn clones_of_a_fresh_monitor_are_independent_runs() {
        let template = ConformanceMonitor::zoo(n3(), 1);
        let mut a = template.clone();
        let mut b = template.clone();
        a.observe(&suspect(0, 2));
        a.observe(&RoundFaults::none(n3()));
        b.observe(&RoundFaults::none(n3()));
        let mut fresh = ConformanceMonitor::zoo(n3(), 1);
        fresh.observe(&suspect(0, 2));
        fresh.observe(&RoundFaults::none(n3()));
        assert_eq!(a.verdict(), fresh.verdict());
        assert_eq!(a.compiled_evals(), fresh.compiled_evals());
        assert_eq!(b.verdict().violations(), 0);
        assert_eq!(template.rounds_observed(), 0);
        assert_eq!(template.compiled_evals(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 128 programs")]
    fn families_past_the_verdict_word_are_rejected() {
        let family: Vec<SharedPredicate> = (0..129)
            .map(|_| Box::new(crate::predicates::AsyncResilient::new(n3(), 1)) as SharedPredicate)
            .collect();
        let _ = ConformanceMonitor::new(family);
    }

    #[test]
    fn noop_recording_is_free_and_silent() {
        let mut mon = ConformanceMonitor::zoo(n3(), 1);
        mon.observe(&RoundFaults::none(n3()));
        let obs = Obs::noop();
        mon.record(&obs);
        assert!(obs.snapshot().entries().is_empty());
    }
}
