//! The paper-facing specification of the predicate zoo: one hand-written
//! `admits` body per model, read straight off the paper's equations.
//!
//! A model's one executable meaning is its compiled program
//! (`RrfdPredicate::compile`); the trait provides `admits` on top of it.
//! The bodies here are kept as an independent second meaning to check the
//! programs against. They re-walk the history prefix every round
//! (`cumulative_union` and friends), which is why they live under `tests/`
//! as oracles only. [`Spec`] wraps a model, judges rounds and patterns by
//! the model's body, and forwards `compile`, so
//! `tests/predicate_compile_equivalence.rs` can compare the two.

use rrfd::core::{
    FaultPattern, IdSet, PredicateProgram, Round, RoundFaults, RrfdPredicate, SystemSize,
};
use rrfd::models::predicates::{
    AntiSymmetric, AsyncResilient, Crash, DetectorS, EventuallyStrong, IdenticalViews,
    KUncertainty, SendOmission, Snapshot, SomeoneTrustedByAll, Swmr, SystemB,
};
use rrfd::models::zoo::SharedPredicate;

/// A model judged by its hand-written specification body.
pub struct Spec<P> {
    model: P,
    body: fn(&P, &FaultPattern, &RoundFaults) -> bool,
}

impl<P: RrfdPredicate> RrfdPredicate for Spec<P> {
    fn name(&self) -> String {
        self.model.name()
    }

    fn system_size(&self) -> SystemSize {
        self.model.system_size()
    }

    fn compile(&self) -> Option<PredicateProgram> {
        self.model.compile()
    }

    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        (self.body)(&self.model, history, round)
    }

    /// The prefix walk over the body: never touches the program.
    fn admits_pattern(&self, pattern: &FaultPattern) -> bool {
        let mut prefix = FaultPattern::new(pattern.system_size());
        for (_, round) in pattern.iter() {
            if !self.admits(&prefix, round) {
                return false;
            }
            prefix.push(round.clone());
        }
        true
    }
}

fn spec<P: RrfdPredicate + Send + Sync + 'static>(
    model: P,
    body: fn(&P, &FaultPattern, &RoundFaults) -> bool,
) -> SharedPredicate {
    Box::new(Spec { model, body })
}

/// The spec wrappers of `rrfd::models::zoo::zoo(n, f)`, member for member
/// and built with the same parameters.
pub fn spec_zoo(n: SystemSize, f: usize) -> Vec<SharedPredicate> {
    let t = n.get().div_ceil(2) - 1;
    vec![
        spec(Crash::new(n, f), crash),
        spec(SendOmission::new(n, f), send_omission),
        spec(Snapshot::new(n, f), snapshot),
        spec(Swmr::new(n, f), swmr),
        spec(AsyncResilient::new(n, f), |p, _, round| {
            async_resilient(p.f(), round)
        }),
        spec(SystemB::new(n, f.min(t.saturating_sub(1)), t), system_b),
        spec(DetectorS::new(n), detector_s),
        spec(
            EventuallyStrong::new(n, f, Round::new(2)),
            eventually_strong,
        ),
        spec(IdenticalViews::new(n), |_, _, round| identical_views(round)),
        spec(KUncertainty::new(n, 1), k_uncertainty),
        spec(KUncertainty::new(n, 2), k_uncertainty),
        spec(SomeoneTrustedByAll::new(n), |p, _, round| {
            someone_trusted_by_all(p.system_size(), round)
        }),
        spec(AntiSymmetric::new(n), |_, _, round| anti_symmetric(round)),
    ]
}

/// Eq. 1 + 2, the crash model. Self-suspicion is forbidden only for
/// processes outside the previous rounds' cumulative union (the
/// reconciliation recorded in `DESIGN.md`).
fn crash(p: &Crash, history: &FaultPattern, round: &RoundFaults) -> bool {
    let crashed_before = history.cumulative_union();

    // eq. 1, footprint bound.
    let footprint: IdSet = crashed_before.union(round.union());
    if footprint.len() > p.f() {
        return false;
    }

    // eq. 1, self-trust — for processes not already crashed.
    if round
        .iter()
        .any(|(i, d)| d.contains(i) && !crashed_before.contains(i))
    {
        return false;
    }

    // eq. 2: last round's union is suspected by everyone now. A process
    // is exempted from suspecting *itself* — whether a crashed process's
    // (unobservable) detector names the process itself is immaterial, and
    // demanding it would clash with the self-trust clause.
    let Some(prev) = history.last() else {
        return true;
    };
    let prev_union = prev.union();
    round
        .iter()
        .all(|(k, d)| (prev_union - IdSet::singleton(k)).is_subset(d))
}

/// Eq. 1, send omission: a footprint of at most `f`, and no process
/// suspects itself before anyone else has.
fn send_omission(p: &SendOmission, history: &FaultPattern, round: &RoundFaults) -> bool {
    let suspected_before = history.cumulative_union();
    let self_trusting = round
        .iter()
        .all(|(i, d)| !d.contains(i) || suspected_before.contains(i));
    let footprint: IdSet = suspected_before.union(round.union());
    self_trusting && footprint.len() <= p.f()
}

/// Eq. 3, asynchronous resilience: every `|D(i,r)| ≤ f`.
fn async_resilient(f: usize, round: &RoundFaults) -> bool {
    round.iter().all(|(_, d)| d.len() <= f)
}

/// §2 item 5, the snapshot model: eq. 3, strict self-trust, and views
/// ordered by containment.
fn snapshot(p: &Snapshot, _history: &FaultPattern, round: &RoundFaults) -> bool {
    if !async_resilient(p.f(), round) {
        return false;
    }
    // Self-trust.
    if round.iter().any(|(i, d)| d.contains(i)) {
        return false;
    }
    // Containment chain: sorting by size and checking adjacent pairs
    // suffices, since ⊆ on a chain is consistent with cardinality.
    let mut sets: Vec<_> = round.iter().map(|(_, d)| d).collect();
    sets.sort_by_key(|d| d.len());
    sets.windows(2).all(|w| w[0].is_subset(w[1]))
}

/// Eq. 4: someone is trusted by all, `|⋃ᵢ D(i,r)| < n`.
fn someone_trusted_by_all(n: SystemSize, round: &RoundFaults) -> bool {
    round.union().len() < n.get()
}

/// No mutual suspicion: `j ∈ D(i,r) ⇒ i ∉ D(j,r)`.
fn anti_symmetric(round: &RoundFaults) -> bool {
    round
        .iter()
        .all(|(i, d)| d.iter().all(|j| !round.of(j).contains(i)))
}

/// §2 item 4, SWMR shared memory: eq. 3 ∧ eq. 4.
fn swmr(p: &Swmr, _history: &FaultPattern, round: &RoundFaults) -> bool {
    async_resilient(p.f(), round) && someone_trusted_by_all(p.system_size(), round)
}

/// §2 item 3, System B. The minimal witness `Q` is exactly the processes
/// exceeding the fast bound; the round is legal iff there are at most `t`
/// of them and none exceeds the slow bound.
fn system_b(p: &SystemB, _history: &FaultPattern, round: &RoundFaults) -> bool {
    let mut slow = 0usize;
    for (_, d) in round.iter() {
        if d.len() > p.f() {
            if d.len() > p.t() {
                return false;
            }
            slow += 1;
        }
    }
    slow <= p.t()
}

/// §2 item 6, detector S: someone is never suspected, over the whole run.
fn detector_s(p: &DetectorS, history: &FaultPattern, round: &RoundFaults) -> bool {
    let footprint = history.cumulative_union().union(round.union());
    footprint.len() < p.system_size().get()
}

/// ◊S: eq. 3 every round, and after the stabilization round some
/// candidate immortal survives.
fn eventually_strong(p: &EventuallyStrong, history: &FaultPattern, round: &RoundFaults) -> bool {
    if !async_resilient(p.f(), round) {
        return false;
    }
    let this_round = Round::new(history.rounds() as u32 + 1);
    if this_round <= p.stabilization() {
        return true;
    }
    !p.immortal_candidates(history)
        .difference(round.union())
        .is_empty()
}

/// Eq. 5, identical views.
fn identical_views(round: &RoundFaults) -> bool {
    let mut sets = round.iter().map(|(_, d)| d);
    match sets.next() {
        None => true,
        Some(first) => sets.all(|d| d == first),
    }
}

/// Theorem 3.1's `k`-uncertainty: `|⋃ᵢ D(i,r) ∖ ⋂ᵢ D(i,r)| < k`.
fn k_uncertainty(p: &KUncertainty, _history: &FaultPattern, round: &RoundFaults) -> bool {
    round.uncertainty().len() < p.k()
}
