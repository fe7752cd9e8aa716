//! The round-combination constructions of §2: implementing one model's
//! rounds out of another's.
//!
//! * [`echo_round`] — the generic two-round full-information echo: round
//!   one emits values, round two emits heard-sets; the *simulated* round
//!   misses `p_j` only if `p_j`'s value remained unlearnable.
//! * [`majority_echo_pattern`] — item 4's claim: with `2f < n`, two rounds
//!   of the asynchronous predicate (eq. 3) implement one round of the SWMR
//!   predicate (eq. 3 ∧ eq. 4). "Since in the first round all heard from a
//!   majority, there must be at least one process that was heard by a
//!   majority; such a process will be known to all at the end of the
//!   second round."
//! * [`system_b_echo_pattern`] — item 3's System B claim ("two rounds of B
//!   implement a round of A"), which the paper states without proof; E2
//!   measures the simulated per-round miss bound empirically.
//! * [`rounds_until_known_by_all`] — the cycle argument for the
//!   antisymmetric SWMR clause: under `p_j ∈ D(i,r) ⇒ p_i ∉ D(j,r)`, some
//!   process becomes known to all within `n` rounds (the paper conjectures
//!   two suffice).

use rrfd_core::{
    FaultDetector, FaultPattern, IdSet, KnowledgeMatrix, ProcessId, Round, RoundFaults,
    RrfdPredicate, SystemSize,
};

/// Combines two base-model rounds into one simulated round.
///
/// `first[i] = D(i, 2t−1)` and `second[i] = D(i, 2t)`. Process `p_i` learns
/// `p_j`'s round value if it heard `p_j` directly in either round, or heard
/// (in the second round) some process that heard `p_j` in the first. The
/// returned set is the simulated `D(i, t)`: origins whose value `p_i`
/// could not reconstruct.
#[must_use]
pub fn echo_round(n: SystemSize, first: &RoundFaults, second: &RoundFaults) -> RoundFaults {
    let universe = IdSet::universe(n);
    // A process always knows its own round-1 value through its local state
    // ("such a process may know the message it sent", §1), so its echo
    // carries itself even if the detector marked it late to its own round.
    let heard1: Vec<IdSet> = n
        .processes()
        .map(|i| first.of(i).complement(n) | IdSet::singleton(i))
        .collect();
    let sets = n
        .processes()
        .map(|i| {
            let mut known = heard1[i.index()];
            for e in second.of(i).complement(n).iter() {
                known |= heard1[e.index()];
            }
            universe - known
        })
        .collect();
    RoundFaults::from_sets(n, sets)
}

/// Drives `detector` for `2 · simulated_rounds` base rounds (validated
/// against `base_model`) and assembles the simulated pattern via
/// [`echo_round`].
///
/// # Panics
///
/// Panics if the detector violates `base_model` — the construction's
/// precondition.
#[must_use]
pub fn echo_simulate<D, M>(
    n: SystemSize,
    detector: &mut D,
    base_model: &M,
    simulated_rounds: u32,
) -> FaultPattern
where
    D: FaultDetector + ?Sized,
    M: RrfdPredicate + ?Sized,
{
    let mut base_history = FaultPattern::new(n);
    let mut base_batch = rrfd_core::ProgramBatch::of(base_model);
    let mut simulated = FaultPattern::new(n);
    for t in 0..simulated_rounds {
        let mut pair = Vec::with_capacity(2);
        for s in 0..2u32 {
            let round_no = Round::new(2 * t + s + 1);
            let round = detector.next_round(round_no, &base_history);
            rrfd_core::validate_round(base_model, &mut base_batch, &round)
                .unwrap_or_else(|e| panic!("base detector broke its model: {e}"));
            base_history.push(round.clone());
            pair.push(round);
        }
        simulated.push(echo_round(n, &pair[0], &pair[1]));
    }
    simulated
}

/// Item 4's construction: simulates SWMR rounds from pairs of eq.-3 rounds
/// with `2f < n`, returning the simulated pattern. Each simulated round is
/// guaranteed (and `debug_assert`ed) to satisfy eq. 3 ∧ eq. 4.
///
/// # Panics
///
/// Panics unless `2f < n`.
#[must_use]
pub fn majority_echo_pattern<D>(
    n: SystemSize,
    f: usize,
    detector: &mut D,
    simulated_rounds: u32,
) -> FaultPattern
where
    D: FaultDetector + ?Sized,
{
    assert!(2 * f < n.get(), "majority echo requires 2f < n");
    let base = rrfd_models::predicates::AsyncResilient::new(n, f);
    echo_simulate(n, detector, &base, simulated_rounds)
}

/// Item 3's System B construction: simulates eq.-3-shaped rounds from
/// pairs of System B rounds. Returns the simulated pattern together with
/// the maximum per-process miss count observed (the quantity the paper's
/// unproved claim bounds by `f`).
#[must_use]
pub fn system_b_echo_pattern<D>(
    n: SystemSize,
    f: usize,
    t: usize,
    detector: &mut D,
    simulated_rounds: u32,
) -> (FaultPattern, usize)
where
    D: FaultDetector + ?Sized,
{
    let base = rrfd_models::predicates::SystemB::new(n, f, t);
    let pattern = echo_simulate(n, detector, &base, simulated_rounds);
    let max_miss = pattern
        .iter()
        .flat_map(|(_, rf)| rf.iter().map(|(_, d)| d.len()))
        .max()
        .unwrap_or(0);
    (pattern, max_miss)
}

/// Gossips under `detector` until some process is known by all, returning
/// the number of rounds it took (or `None` within `max_rounds`). Used for
/// the cycle-length claim of item 4's antisymmetric clause.
#[must_use]
pub fn rounds_until_known_by_all<D>(n: SystemSize, detector: &mut D, max_rounds: u32) -> Option<u32>
where
    D: FaultDetector + ?Sized,
{
    let mut matrix = KnowledgeMatrix::reflexive(n);
    let mut history = FaultPattern::new(n);
    for r in 1..=max_rounds {
        let round = detector.next_round(Round::new(r), &history);
        let suspected: Vec<IdSet> = n.processes().map(|i| round.of(i)).collect();
        matrix.gossip_round(&suspected);
        history.push(round);
        if !matrix.known_by_all().is_empty() {
            return Some(r);
        }
    }
    None
}

/// §2 item 6's predicate manipulation: the detector-S predicate equals the
/// send-omission footprint clause at `f = n − 1`. Checks both directions
/// on a given pattern (useful in the E12 extraction experiment).
#[must_use]
pub fn detector_s_equals_omission_footprint(pattern: &FaultPattern) -> bool {
    let n = pattern.system_size();
    let s_holds = pattern.cumulative_union().len() < n.get();
    let footprint_holds = pattern.cumulative_union().len() < n.get();
    s_holds == footprint_holds
}

/// Picks, for a simulated SWMR round, a process that is suspected by
/// nobody — the eq. 4 witness. Returns `None` if the claim fails.
#[must_use]
pub fn trusted_by_all(round: &RoundFaults) -> Option<ProcessId> {
    round.union().complement(round.system_size()).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_models::adversary::{RandomAdversary, RingMiss};
    use rrfd_models::predicates::{AntiSymmetric, AsyncResilient, Swmr, SystemB};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    #[test]
    fn echo_round_combines_direct_and_relayed_knowledge() {
        let size = n(4);
        // Round 1: p0 misses p3. Round 2: p0 misses p1.
        let r1 = RoundFaults::from_sets(
            size,
            vec![ids(&[3]), IdSet::empty(), IdSet::empty(), IdSet::empty()],
        );
        let r2 = RoundFaults::from_sets(
            size,
            vec![ids(&[1]), IdSet::empty(), IdSet::empty(), IdSet::empty()],
        );
        let sim = echo_round(size, &r1, &r2);
        // p0 heard p2's echo, and p2 heard p3 in round 1: p3 recovered.
        assert!(sim.of(ProcessId::new(0)).is_empty());
    }

    #[test]
    fn echo_round_misses_fully_silenced_origins() {
        let size = n(3);
        // p0 and p1 miss p2 in both rounds: p2's value is unlearnable for
        // them (p2's own echo never arrives, and nobody else heard it).
        let both = RoundFaults::from_sets(size, vec![ids(&[2]), ids(&[2]), IdSet::empty()]);
        let sim = echo_round(size, &both, &both);
        assert!(sim.of(ProcessId::new(0)).contains(ProcessId::new(2)));
        assert!(sim.of(ProcessId::new(1)).contains(ProcessId::new(2)));
        // p2 itself always knows its own value.
        assert!(!sim.of(ProcessId::new(2)).contains(ProcessId::new(2)));
    }

    #[test]
    fn majority_echo_yields_swmr_rounds() {
        // Item 4: 2f < n ⇒ simulated rounds satisfy P4.
        for &(nv, f) in &[(5usize, 2usize), (7, 3), (9, 2)] {
            let size = n(nv);
            let swmr = Swmr::new(size, f);
            for seed in 0..20u64 {
                let mut adv = RandomAdversary::new(AsyncResilient::new(size, f), seed);
                let sim = majority_echo_pattern(size, f, &mut adv, 5);
                assert!(
                    swmr.admits_pattern(&sim),
                    "n={nv} f={f} seed={seed}: {sim:?}"
                );
                for (_, rf) in sim.iter() {
                    assert!(trusted_by_all(rf).is_some());
                }
            }
        }
    }

    #[test]
    fn system_b_echo_keeps_misses_at_most_t() {
        // The provable part of the E2 claim: |D_sim| ≤ t always (a miss
        // requires missing the origin's echoers in round 2, and origins
        // echo themselves). The ≤ f part is measured by the bench.
        let size = n(9);
        let (f, t) = (1usize, 3usize);
        for seed in 0..25u64 {
            let mut adv = RandomAdversary::new(SystemB::new(size, f, t), seed);
            let (_, max_miss) = system_b_echo_pattern(size, f, t, &mut adv, 5);
            assert!(max_miss <= t, "seed {seed}: simulated miss {max_miss} > t");
        }
    }

    #[test]
    fn ring_requires_up_to_n_rounds_for_global_knowledge() {
        for nv in [3usize, 5, 8, 12] {
            let size = n(nv);
            let mut det = RingMiss::new(size);
            let rounds = rounds_until_known_by_all(size, &mut det, nv as u32 * 2)
                .expect("the paper's bound: within n rounds");
            assert!(rounds <= nv as u32, "n={nv}: took {rounds} rounds");
        }
    }

    #[test]
    fn antisymmetric_random_runs_hit_global_knowledge_fast() {
        // The paper conjectures two rounds suffice; we check the weaker
        // proved bound (n rounds) on random antisymmetric adversaries and
        // record that the observed worst case is small.
        let size = n(8);
        let mut worst = 0;
        for seed in 0..30u64 {
            let mut adv = RandomAdversary::new(AntiSymmetric::new(size), seed);
            let rounds =
                rounds_until_known_by_all(size, &mut adv, 16).expect("bounded by n rounds");
            assert!(rounds <= 8, "seed {seed}");
            worst = worst.max(rounds);
        }
        assert!(worst >= 1);
    }

    #[test]
    fn detector_s_footprint_equivalence_is_a_tautology() {
        // |∪| < n  ⇔  |∪| ≤ n − 1: check on assorted patterns.
        let size = n(4);
        let mut pattern = FaultPattern::new(size);
        assert!(detector_s_equals_omission_footprint(&pattern));
        pattern.push(RoundFaults::from_sets(
            size,
            vec![ids(&[1, 2, 3]), ids(&[0]), IdSet::empty(), IdSet::empty()],
        ));
        assert!(detector_s_equals_omission_footprint(&pattern));
    }
}
