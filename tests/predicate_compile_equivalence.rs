//! Differential proof that the compiled predicate plane is *exact*: for
//! every zoo predicate, the [`PredicateProgram`] returned by
//! [`RrfdPredicate::compile`] must produce the same verdict as the dyn
//! `admits` path on every input — well formed or not — and the lattice
//! computed on the compiled plane must equal the per-pair dyn search (the
//! oracle [`dyn_lattice`], one public `implies` call per ordered pair) in
//! matrix and every witness — also when some predicates decline to
//! compile. `admits_pattern` is pinned to stay linear on both paths.

use proptest::prelude::*;
use rrfd::core::{
    FaultPattern, HistoryCtx, IdSet, ProcessId, RoundFaults, RoundProfile, RrfdPredicate,
    SystemSize,
};
use rrfd::models::enumerate::all_rounds;
use rrfd::models::predicates::{AsyncResilient, Crash, SendOmission};
use rrfd::models::zoo::{zoo, SharedPredicate, ZOO_SIZE};
use rrfd_analyze::lattice::{certificate, implies, Lattice};
use std::cell::Cell;

fn n3() -> SystemSize {
    SystemSize::new(3).expect("3 is a valid system size")
}

/// Dyn and compiled verdicts for `(history, round)`, for every zoo
/// predicate that compiles (all 13 must).
fn assert_verdicts_agree(history: &FaultPattern, round: &RoundFaults) {
    let profile = RoundProfile::of(round);
    for predicate in zoo(n3(), 1) {
        let program = predicate
            .compile()
            .unwrap_or_else(|| panic!("{} must compile", predicate.name()));
        let mut ctx = HistoryCtx::for_programs(n3(), std::iter::once(&program));
        for (_, prior) in history.iter() {
            ctx.absorb(prior);
        }
        assert_eq!(
            predicate.admits(history, round),
            program.eval(&ctx, &profile),
            "{} diverged on history {:?} + round {:?}",
            predicate.name(),
            history,
            round,
        );
    }
}

#[test]
fn all_thirteen_zoo_predicates_compile() {
    let family = zoo(n3(), 1);
    assert_eq!(family.len(), ZOO_SIZE);
    for predicate in &family {
        assert!(
            predicate.compile().is_some(),
            "{} declined to compile",
            predicate.name()
        );
    }
}

#[test]
fn compiled_verdicts_match_dyn_on_every_first_round() {
    // Exhaustive at depth 1: every well-formed round from the empty
    // history, all 343 of them at n = 3.
    let empty = FaultPattern::new(n3());
    let mut seen = 0usize;
    for round in all_rounds(n3()) {
        assert_verdicts_agree(&empty, &round);
        seen += 1;
    }
    assert_eq!(seen, 343);
}

#[test]
fn compiled_verdicts_match_dyn_on_two_round_histories() {
    // Depth 2, strided: every first round exactly, every 7th second
    // round — wide enough to hit the history registers (cumulative and
    // previous union, sticky cores, stabilization clocks) from every
    // first-round state.
    let rounds: Vec<RoundFaults> = all_rounds(n3()).collect();
    for first in &rounds {
        let mut history = FaultPattern::new(n3());
        history.push(first.clone());
        for second in rounds.iter().step_by(7) {
            assert_verdicts_agree(&history, second);
        }
    }
}

#[test]
fn compiled_admits_pattern_matches_the_dyn_walk() {
    // `admits_pattern` (which routes through `compile`) against the
    // hand-rolled prefix walk that never compiles, over structured
    // patterns: repeated identical rounds, escalating suspicions, and a
    // recovery (suspicions that vanish — illegal for sticky models).
    let n = n3();
    let p2 = IdSet::singleton(ProcessId::new(2));
    let everyone_sees: Vec<IdSet> = n
        .processes()
        .map(|i| p2.difference(IdSet::singleton(i)))
        .collect();
    let quiet = RoundFaults::none(n);
    let crashing = RoundFaults::from_sets(n, everyone_sees);
    let partial = {
        let mut r = RoundFaults::none(n);
        r.set(ProcessId::new(0), p2);
        r
    };
    let shapes: Vec<Vec<&RoundFaults>> = vec![
        vec![&quiet; 4],
        vec![&partial, &crashing, &crashing],
        vec![&partial, &crashing, &quiet], // recovery: sticky models reject
        vec![&crashing, &partial],
        vec![&quiet, &partial, &crashing, &crashing, &crashing],
    ];
    for shape in shapes {
        let mut pattern = FaultPattern::new(n);
        for round in shape {
            pattern.push(round.clone());
        }
        for predicate in zoo(n, 1) {
            let mut prefix = FaultPattern::new(n);
            let mut dyn_verdict = true;
            for (_, round) in pattern.iter() {
                if !predicate.admits(&prefix, round) {
                    dyn_verdict = false;
                    break;
                }
                prefix.push(round.clone());
            }
            assert_eq!(
                predicate.admits_pattern(&pattern),
                dyn_verdict,
                "{} diverged on {:?}",
                predicate.name(),
                pattern,
            );
        }
    }
}

#[test]
fn compiled_lattice_renders_byte_identically_to_legacy() {
    let family = zoo(n3(), 1);
    assert_matches_dyn_search(&family, 2);
}

/// Forwards dyn `admits` but declines to compile, so every evaluator
/// keeps the predicate on the dyn path.
struct DynOnly(SharedPredicate);

impl RrfdPredicate for DynOnly {
    fn name(&self) -> String {
        self.0.name()
    }
    fn system_size(&self) -> SystemSize {
        self.0.system_size()
    }
    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        self.0.admits(history, round)
    }
}

/// A dyn-only predicate that rejects one exact round: `round` itself, or
/// with `after` set, any round that follows it.
struct Tripwire {
    round: RoundFaults,
    after: bool,
}

impl RrfdPredicate for Tripwire {
    fn name(&self) -> String {
        format!("tripwire({:?}, after: {})", self.round, self.after)
    }
    fn system_size(&self) -> SystemSize {
        self.round.system_size()
    }
    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        if self.after {
            history.last() != Some(&self.round)
        } else {
            round != &self.round
        }
    }
}

/// The per-pair dyn search: `implies` on every ordered pair, each pair
/// searched on its own with dyn `admits` in the inner loop. Entry
/// `[i][j]` is `None` when `i ⇒ j` within `depth` rounds, else the
/// certificate text of the first witness the search meets.
fn dyn_lattice(family: &[SharedPredicate], depth: u32) -> Vec<Vec<Option<String>>> {
    (0..family.len())
        .map(|i| {
            (0..family.len())
                .map(|j| {
                    if i == j {
                        return None;
                    }
                    implies(family[i].as_ref(), family[j].as_ref(), depth)
                        .err()
                        .map(|cex| certificate(&cex).to_string())
                })
                .collect()
        })
        .collect()
}

/// The compiled lattice of `family` equals the [`dyn_lattice`] oracle in
/// every matrix cell and every witness certificate.
fn assert_matches_dyn_search(family: &[SharedPredicate], depth: u32) -> Lattice {
    let compiled = Lattice::compute_compiled(family, depth);
    for (i, row) in dyn_lattice(family, depth).into_iter().enumerate() {
        for (j, expected) in row.into_iter().enumerate() {
            assert_eq!(compiled.implies_at(i, j), expected.is_none(), "({i},{j})");
            let witness = compiled
                .counterexample(i, j)
                .map(|c| certificate(c).to_string());
            assert_eq!(witness, expected, "({i},{j}) witness");
        }
    }
    compiled
}

#[test]
fn mixed_family_with_a_dyn_fallback_matches_the_legacy_search() {
    // The eventually-strong model stays dyn: pairs with it as an endpoint
    // take their witness from the dyn `implies`.
    let family: Vec<SharedPredicate> = zoo(n3(), 1)
        .into_iter()
        .map(|p| {
            if p.name().starts_with('◊') {
                Box::new(DynOnly(p)) as SharedPredicate
            } else {
                p
            }
        })
        .collect();
    assert_eq!(
        family.iter().filter(|p| p.compile().is_none()).count(),
        1,
        "exactly one zoo member is wrapped"
    );
    assert_matches_dyn_search(&family, 3);
}

#[test]
fn dyn_fallbacks_see_every_round_and_every_prefix() {
    // `p1 → p0` and `p2 → p0` agree on everything the compiled programs
    // read, so they share a round class and a child union; each tripwire
    // is refuted only through its own round. A walk that evaluated one
    // round per class (direct tripwires), or merged children by union
    // (`after` tripwires), while a dyn fallback is legal would miss a
    // refutation.
    let n = n3();
    let only = |suspect: usize| {
        let mut round = RoundFaults::none(n);
        round.set(ProcessId::new(suspect), IdSet::singleton(ProcessId::new(0)));
        round
    };
    for after in [false, true] {
        let mut family: Vec<SharedPredicate> = vec![Box::new(AsyncResilient::new(n, 1))];
        for suspect in [1, 2] {
            family.push(Box::new(Tripwire {
                round: only(suspect),
                after,
            }));
        }
        let compiled = assert_matches_dyn_search(&family, 2);
        for (j, tripwire) in family.iter().enumerate().skip(1) {
            assert!(
                !compiled.implies_at(0, j),
                "{} must be refuted",
                tripwire.name()
            );
        }
    }
}

/// Counts `admits` calls made through the dyn path.
struct CountingPredicate<P> {
    inner: P,
    calls: Cell<u64>,
}

impl<P: RrfdPredicate> RrfdPredicate for CountingPredicate<P> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn system_size(&self) -> SystemSize {
        self.inner.system_size()
    }
    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        self.calls.set(self.calls.get() + 1);
        self.inner.admits(history, round)
    }
    // No `compile` override: stays on the dyn path, so `admits_pattern`
    // exercises the default prefix-incremental fallback.
}

#[test]
fn dyn_admits_pattern_is_linear_in_rounds() {
    // The regression this pins: the default `admits_pattern` once
    // re-sliced the pattern per round (O(r²) clones); it must call
    // `admits` exactly once per round of an admitted pattern, and stop
    // at the first rejection.
    let n = n3();
    let counting = CountingPredicate {
        inner: SendOmission::new(n, 2),
        calls: Cell::new(0),
    };

    let suspicious = {
        let mut r = RoundFaults::none(n);
        r.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
        r
    };
    let mut admitted = FaultPattern::new(n);
    for _ in 0..16 {
        admitted.push(suspicious.clone());
    }
    assert!(counting.admits_pattern(&admitted));
    assert_eq!(
        counting.calls.get(),
        16,
        "one admits call per round, no quadratic re-walk"
    );

    // Early rejection stops the walk immediately.
    let counting = CountingPredicate {
        inner: Crash::new(n, 0), // f = 0: any suspicion rejects
        calls: Cell::new(0),
    };
    let mut rejected = FaultPattern::new(n);
    rejected.push(RoundFaults::none(n));
    rejected.push(suspicious.clone());
    rejected.push(suspicious.clone());
    rejected.push(suspicious);
    assert!(!counting.admits_pattern(&rejected));
    assert_eq!(
        counting.calls.get(),
        2,
        "the walk must stop at the first rejecting round"
    );
}

#[test]
fn compiled_admits_pattern_bypasses_dyn_admits_entirely() {
    /// Forwards `compile` too: the program path must leave the dyn
    /// counter untouched.
    struct CompiledCounting<P> {
        inner: P,
        calls: Cell<u64>,
    }
    impl<P: RrfdPredicate> RrfdPredicate for CompiledCounting<P> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn system_size(&self) -> SystemSize {
            self.inner.system_size()
        }
        fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
            self.calls.set(self.calls.get() + 1);
            self.inner.admits(history, round)
        }
        fn compile(&self) -> Option<rrfd::core::PredicateProgram> {
            self.inner.compile()
        }
    }

    let n = n3();
    let counting = CompiledCounting {
        inner: SendOmission::new(n, 2),
        calls: Cell::new(0),
    };
    let mut pattern = FaultPattern::new(n);
    for _ in 0..12 {
        pattern.push(RoundFaults::none(n));
    }
    assert!(counting.admits_pattern(&pattern));
    assert_eq!(
        counting.calls.get(),
        0,
        "compiled predicates answer admits_pattern without dyn admits"
    );
}

fn pid_set(n: usize) -> impl Strategy<Value = IdSet> {
    prop::collection::btree_set(0..n, 0..=n)
        .prop_map(|s| s.into_iter().map(ProcessId::new).collect())
}

/// One well-formed round (`D(i, r) ≠ S` for every `i`).
fn round_faults(n: usize) -> impl Strategy<Value = RoundFaults> {
    prop::collection::vec(pid_set(n), n).prop_map(move |mut sets| {
        let size = SystemSize::new(n).expect("valid size");
        let universe = IdSet::universe(size);
        for (i, d) in sets.iter_mut().enumerate() {
            if *d == universe {
                d.remove(ProcessId::new(i));
            }
        }
        RoundFaults::from_sets(size, sets)
    })
}

proptest! {
    /// Random histories of up to 5 rounds: the compiled program agrees
    /// with dyn `admits` at every prefix step, for every zoo predicate.
    #[test]
    fn compiled_plane_is_exact_on_random_patterns(
        rounds in prop::collection::vec(round_faults(3), 1..6)
    ) {
        let n = n3();
        for predicate in zoo(n, 1) {
            let program = predicate.compile().expect("zoo compiles");
            let mut ctx = HistoryCtx::for_programs(n, std::iter::once(&program));
            let mut history = FaultPattern::new(n);
            for round in &rounds {
                let profile = RoundProfile::of(round);
                prop_assert_eq!(
                    predicate.admits(&history, round),
                    program.eval(&ctx, &profile)
                );
                ctx.absorb(round);
                history.push(round.clone());
            }
            // Whole-pattern verdicts agree too.
            prop_assert_eq!(
                predicate.admits_pattern(&history),
                program.admits_pattern(&history)
            );
        }
    }
}
