//! Exhaustive enumeration of fault-detector rounds for small systems.
//!
//! A round of an RRFD over `n` processes is a choice of one subset per
//! process — `(2ⁿ)ⁿ` possibilities. For `n ≤ 5` that is at most ~33.5
//! million, small enough to enumerate completely (if slowly at the top
//! end); filtering by a model predicate then yields *every* move the
//! adversary could legally make, which turns sampled protocol tests into
//! proofs-by-enumeration (e.g. Theorem 3.1 for small `n`, in
//! `rrfd-protocols`) and powers the implication lattice in `rrfd-analyze`.

use rrfd_core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};

/// The largest system size [`all_rounds`] enumerates: the space is
/// `2^(n²)`, and enumeration beyond `n = 5` is a mistake.
pub const MAX_ENUMERATION_SIZE: usize = 5;

/// Iterates over **every** well-formed round (each `D(i,r) ⊊ S`) of a
/// system of `n` processes.
///
/// # Panics
///
/// Panics for `n >` [`MAX_ENUMERATION_SIZE`].
pub fn all_rounds(n: SystemSize) -> impl Iterator<Item = RoundFaults> {
    assert!(
        n.get() <= MAX_ENUMERATION_SIZE,
        "exhaustive enumeration is for n ≤ 5"
    );
    let procs = n.get();
    let subsets = 1u64 << procs; // 2^n bitmaps per process
    let total = subsets.pow(procs as u32);
    (0..total).filter_map(move |code| {
        let mut code = code;
        let mut sets = Vec::with_capacity(procs);
        for _ in 0..procs {
            let bits = code % subsets;
            code /= subsets;
            let d: IdSet = (0..procs)
                .filter(|j| bits & (1 << j) != 0)
                .map(ProcessId::new)
                .collect();
            // Well-formedness: D(i,r) ≠ S.
            if d == IdSet::universe(n) {
                return None;
            }
            sets.push(d);
        }
        Some(RoundFaults::from_sets(n, sets))
    })
}

/// Iterates over every legal *first* round of `model`: all well-formed
/// rounds admitted against the empty history.
pub fn all_first_rounds<P>(model: P) -> impl Iterator<Item = RoundFaults>
where
    P: RrfdPredicate,
{
    let n = model.system_size();
    let empty = FaultPattern::new(n);
    all_rounds(n).filter(move |round| model.admits(&empty, round))
}

/// Enumerates **every** legal pattern of exactly `rounds` rounds of
/// `model` (each round legal against the prefix before it).
///
/// The space is the product of per-round legal moves — use only with small
/// systems and short horizons, and bound the blow-up with `max_patterns`.
///
/// # Panics
///
/// Panics if more than `max_patterns` patterns exist.
#[must_use]
pub fn all_patterns<P>(model: &P, rounds: u32, max_patterns: usize) -> Vec<FaultPattern>
where
    P: RrfdPredicate,
{
    let n = model.system_size();
    let mut complete = Vec::new();
    let mut stack = vec![FaultPattern::new(n)];
    while let Some(prefix) = stack.pop() {
        if prefix.rounds() as u32 == rounds {
            complete.push(prefix);
            assert!(
                complete.len() <= max_patterns,
                "pattern enumeration exceeded {max_patterns}"
            );
            continue;
        }
        for round in all_rounds(n) {
            if model.admits(&prefix, &round) {
                let mut next = prefix.clone();
                next.push(round);
                stack.push(next);
            }
        }
    }
    complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::{AsyncResilient, IdenticalViews, KUncertainty};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn counts_match_the_combinatorics() {
        // n = 2: each process picks one of 2² − 1 = 3 allowed subsets.
        assert_eq!(all_rounds(n(2)).count(), 9);
        // n = 3: (2³ − 1)³ = 343.
        assert_eq!(all_rounds(n(3)).count(), 343);
    }

    #[test]
    fn rounds_are_distinct_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for round in all_rounds(n(3)) {
            let key: Vec<u128> = round.iter().map(|(_, d)| d.bits()).collect();
            assert!(seen.insert(key), "duplicate round enumerated");
            for (_, d) in round.iter() {
                assert_ne!(d, IdSet::universe(n(3)));
            }
        }
    }

    #[test]
    fn filtered_counts_are_consistent() {
        // Identical views over n = 3: one shared subset of 7 choices.
        assert_eq!(all_first_rounds(IdenticalViews::new(n(3))).count(), 7);
        // k = 1 uncertainty over n = 2 equals identical views over n = 2.
        let k1: Vec<_> = all_first_rounds(KUncertainty::new(n(2), 1)).collect();
        let eq: Vec<_> = all_first_rounds(IdenticalViews::new(n(2))).collect();
        assert_eq!(k1, eq);
    }

    #[test]
    fn async_resilience_counts() {
        // n = 3, f = 1: each D(i) has ≤ 1 member → 4 choices per process.
        assert_eq!(
            all_first_rounds(AsyncResilient::new(n(3), 1)).count(),
            4 * 4 * 4
        );
    }

    #[test]
    fn pattern_enumeration_respects_history() {
        use crate::predicates::Crash;
        // Crash n = 3, f = 1 over 2 rounds: every pattern must keep a
        // single victim and make its crash universal by round 2.
        let model = Crash::new(n(3), 1);
        let patterns = all_patterns(&model, 2, 10_000);
        assert!(!patterns.is_empty());
        for p in &patterns {
            assert!(model.admits_pattern(p));
            assert!(p.cumulative_union().len() <= 1);
        }
        // The all-quiet pattern is among them.
        assert!(patterns.iter().any(|p| p.cumulative_union().is_empty()));
    }

    #[test]
    fn four_process_rounds_enumerate_fully() {
        // (2⁴ − 1)⁴ = 50 625 well-formed rounds; n = 5 would be
        // (2⁵ − 1)⁵ ≈ 28.6M, still enumerable but too slow for a unit test.
        assert_eq!(all_rounds(n(4)).count(), 50_625);
    }

    #[test]
    #[should_panic(expected = "n ≤ 5")]
    fn large_systems_are_rejected() {
        let _ = all_rounds(SystemSize::new(6).unwrap()).count();
    }
}
