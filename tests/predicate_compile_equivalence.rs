//! Differential proof that every zoo model's compiled program — its one
//! executable meaning — agrees with the paper-facing specification kept
//! in `oracles/spec_predicates.rs`, on every input, well formed or not:
//!
//! * round by round, exhaustively over every 3-round pattern at `n = 3`
//!   whose first two rounds the spec admits, and on random patterns;
//! * whole patterns (`admits_pattern` on the program against the spec's
//!   prefix walk);
//! * in the lattice: the compiled lattice and the public `implies` equal
//!   the per-pair search over the spec wrappers (the oracle
//!   [`dyn_lattice`], one `admits`-driven search per ordered pair, kept in
//!   `oracles/pairwise_implies.rs`) in matrix and every witness;
//! * in admission: [`Engine`] and [`ThreadedEngine`] stop a scripted run at
//!   the first round the spec rejects, with the same [`PatternViolation`].

#[path = "oracles/pairwise_implies.rs"]
mod pairwise;
#[path = "oracles/spec_predicates.rs"]
mod spec;

use proptest::prelude::*;
use rrfd::core::{
    ill_formed_process, Control, Delivery, Engine, EngineError, FaultPattern, HistoryCtx, IdSet,
    PatternViolation, ProcessId, ProgOp, ProgramBatch, Round, RoundFaults, RoundProfile,
    RoundProtocol, RrfdPredicate, SystemSize,
};
use rrfd::models::adversary::ReplayDetector;
use rrfd::models::enumerate::all_rounds;
use rrfd::models::zoo::{zoo, SharedPredicate, ZOO_SIZE};
use rrfd::runtime::{ThreadedEngine, ThreadedError};
use rrfd_analyze::lattice::{certificate, implies, Lattice};
use spec::spec_zoo;

fn n3() -> SystemSize {
    SystemSize::new(3).expect("3 is a valid system size")
}

/// Spec and compiled verdicts for `(history, round)`, for every zoo
/// member.
fn assert_verdicts_agree(history: &FaultPattern, round: &RoundFaults) {
    let profile = RoundProfile::of(round);
    for (predicate, spec) in zoo(n3(), 1).iter().zip(spec_zoo(n3(), 1)) {
        let program = predicate
            .compile()
            .unwrap_or_else(|| panic!("{} must compile", predicate.name()));
        let mut ctx = HistoryCtx::for_programs(n3(), std::iter::once(&program));
        for (_, prior) in history.iter() {
            ctx.absorb(prior);
        }
        assert_eq!(
            spec.admits(history, round),
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
    let specs = spec_zoo(n3(), 1);
    assert_eq!(specs.len(), ZOO_SIZE);
    for (predicate, spec) in family.iter().zip(&specs) {
        assert_eq!(
            predicate.name(),
            spec.name(),
            "the spec zoo mirrors the zoo"
        );
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
    // Depth 2, strided, over histories the specs need not admit: every
    // first round exactly, every 7th second round.
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
fn compiled_verdicts_match_the_spec_on_every_three_round_pattern() {
    // Exhaustive at depth 3: for every zoo member, every prefix of up to
    // two rounds that the spec admits, extended by every candidate round,
    // ill-formed ones included. The program carries its registers forward
    // in a batch, as the engine does.
    let n = n3();
    let universe = IdSet::universe(n);
    let mut candidates: Vec<RoundFaults> = all_rounds(n).collect();
    candidates.push(RoundFaults::from_sets(
        n,
        vec![universe, IdSet::empty(), IdSet::empty()],
    ));
    let mut checked = 0usize;
    for (predicate, spec) in zoo(n, 1).iter().zip(spec_zoo(n, 1)) {
        let mut stack = vec![(FaultPattern::new(n), ProgramBatch::of(predicate))];
        while let Some((prefix, mut batch)) = stack.pop() {
            for round in &candidates {
                let profile = batch.profile(round);
                let admitted = spec.admits(&prefix, round);
                assert_eq!(
                    admitted,
                    batch.admits(&profile),
                    "{} diverged on history {prefix:?} + round {round:?}",
                    predicate.name(),
                );
                checked += 1;
                if admitted && prefix.rounds() < 2 {
                    let mut next = prefix.clone();
                    next.push(round.clone());
                    let mut registers = batch.clone();
                    registers.absorb_profile(&profile);
                    stack.push((next, registers));
                }
            }
        }
    }
    assert!(
        checked > 13 * 344,
        "every member reached depth 3: {checked}"
    );
}

#[test]
fn compiled_admits_pattern_matches_the_dyn_walk() {
    // The program's `admits_pattern` against the spec's prefix walk, over
    // structured patterns: repeated identical rounds, escalating
    // suspicions, and a recovery (suspicions that vanish — illegal for
    // sticky models).
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
        for (predicate, spec) in zoo(n, 1).iter().zip(spec_zoo(n, 1)) {
            assert_eq!(
                predicate.admits_pattern(&pattern),
                spec.admits_pattern(&pattern),
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
    assert_matches_dyn_search(&family, &spec_zoo(n3(), 1), 2);
}

/// The per-pair search over the spec wrappers: the oracle's `implies` on
/// every ordered pair, each pair searched on its own with the
/// hand-written bodies in the inner loop. Entry `[i][j]` is `None` when `i ⇒ j` within `depth`
/// rounds, else the certificate text of the first witness the search
/// meets.
fn dyn_lattice(specs: &[SharedPredicate], depth: u32) -> Vec<Vec<Option<String>>> {
    (0..specs.len())
        .map(|i| {
            (0..specs.len())
                .map(|j| {
                    if i == j {
                        return None;
                    }
                    pairwise::implies(specs[i].as_ref(), specs[j].as_ref(), depth)
                        .err()
                        .map(|cex| certificate(&cex).to_string())
                })
                .collect()
        })
        .collect()
}

/// The compiled lattice of `family`, and the public [`implies`] on each
/// ordered pair of it, equal the [`dyn_lattice`] oracle over its specs in
/// every matrix cell and every witness certificate.
fn assert_matches_dyn_search(family: &[SharedPredicate], specs: &[SharedPredicate], depth: u32) {
    let compiled = Lattice::compute_compiled(family, depth);
    for (i, row) in dyn_lattice(specs, depth).into_iter().enumerate() {
        for (j, expected) in row.into_iter().enumerate() {
            assert_eq!(compiled.implies_at(i, j), expected.is_none(), "({i},{j})");
            let witness = compiled
                .counterexample(i, j)
                .map(|c| certificate(c).to_string());
            assert_eq!(witness, expected, "({i},{j}) witness");
            if i != j {
                let public = implies(family[i].as_ref(), family[j].as_ref(), depth)
                    .err()
                    .map(|cex| certificate(&cex).to_string());
                assert_eq!(public, expected, "({i},{j}) public implies");
            }
        }
    }
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

/// One raw scripted round: a repeat-the-previous-round flag, and per
/// process a shape selector plus bits for the suspicion set.
type RawRound = (u8, Vec<(u8, u32)>);

fn raw_script() -> impl Strategy<Value = Vec<RawRound>> {
    prop::collection::vec(
        (0u8..4, prop::collection::vec((0u8..10, any::<u32>()), 5)),
        1..7,
    )
}

/// Builds an `n`-process script from raw rounds. Suspicion sets are mostly
/// empty or single, so runs often outlive their first round; one in
/// thirty is the whole universe (ill-formed), and a quarter of the rounds
/// repeat the previous one.
fn script(n: SystemSize, raw: &[RawRound]) -> Vec<RoundFaults> {
    let size = n.get();
    let mask = (1u128 << size) - 1;
    let mut rounds: Vec<RoundFaults> = Vec::new();
    for (repeat, sets) in raw {
        if let (0, Some(previous)) = (repeat, rounds.last()) {
            rounds.push(previous.clone());
            continue;
        }
        let sets = sets[..size]
            .iter()
            .map(|&(shape, bits)| match shape {
                0..=3 => IdSet::empty(),
                4..=6 => IdSet::singleton(ProcessId::new(bits as usize % size)),
                7 | 8 => IdSet::from_bits(u128::from(bits) & mask),
                _ if bits % 3 == 0 => IdSet::universe(n),
                _ => IdSet::empty(),
            })
            .collect();
        rounds.push(RoundFaults::from_sets(n, sets));
    }
    rounds
}

/// What admission must report for `script` under `spec`: the first
/// ill-formed round, else the first round the spec rejects after the
/// rounds before it, else nothing.
fn expected_violation(
    spec: &dyn RrfdPredicate,
    script: &[RoundFaults],
) -> Option<PatternViolation> {
    let mut prefix = FaultPattern::new(spec.system_size());
    for round in script {
        let round_no = Round::new(prefix.rounds() as u32 + 1);
        if let Some(process) = ill_formed_process(round) {
            return Some(PatternViolation::IllFormed {
                process,
                round: round_no,
            });
        }
        if !spec.admits(&prefix, round) {
            return Some(PatternViolation::PredicateRejected {
                predicate: spec.name(),
                round: round_no,
            });
        }
        prefix.push(round.clone());
    }
    None
}

/// A process that never decides: every run ends in a violation or at the
/// round limit.
struct Idle;

impl RoundProtocol for Idle {
    type Msg = ();
    type Output = ();

    fn emit(&mut self, _round: Round) {}

    fn deliver(&mut self, _delivery: Delivery<'_, ()>) -> Control<()> {
        Control::Continue
    }
}

/// Runs `script` under `model` on both engines and checks each stops
/// where, and how, the spec says.
fn assert_admission_matches_spec(
    model: &dyn RrfdPredicate,
    spec: &dyn RrfdPredicate,
    script: &[RoundFaults],
) {
    let n = model.system_size();
    let rounds = script.len() as u32;
    let expected = expected_violation(spec, script);
    let idle = || (0..n.get()).map(|_| Idle).collect::<Vec<_>>();

    let engine = Engine::new(n).max_rounds(rounds).run(
        idle(),
        &mut ReplayDetector::from_rounds(n, script.to_vec()),
        model,
    );
    match (&engine, &expected) {
        (Err(EngineError::Violation(got)), Some(want)) => assert_eq!(got, want),
        (Err(EngineError::RoundLimitExceeded { .. }), None) => {}
        (got, want) => panic!("{}: engine {got:?}, spec {want:?}", model.name()),
    }

    let threaded = ThreadedEngine::new(n).max_rounds(rounds).run(
        idle(),
        &mut ReplayDetector::from_rounds(n, script.to_vec()),
        model,
    );
    match (&threaded, &expected) {
        (Err(ThreadedError::Engine(EngineError::Violation(got))), Some(want)) => {
            assert_eq!(got, want);
        }
        (Err(ThreadedError::Engine(EngineError::RoundLimitExceeded { .. })), None) => {}
        (got, want) => panic!("{}: threaded {got:?}, spec {want:?}", model.name()),
    }
}

#[test]
fn ill_formed_rounds_are_reported_before_any_program_runs() {
    for size in 3..=5 {
        let n = SystemSize::new(size).expect("valid size");
        // p1 suspects everyone: ill-formed, and rejected by most models
        // too — well-formedness must still be what is reported.
        let mut round = RoundFaults::none(n);
        round.set(ProcessId::new(1), IdSet::universe(n));
        let script = [RoundFaults::none(n), round];
        for (model, spec) in zoo(n, 1).iter().zip(spec_zoo(n, 1)) {
            assert_eq!(
                expected_violation(spec.as_ref(), &script),
                Some(PatternViolation::IllFormed {
                    process: ProcessId::new(1),
                    round: Round::new(2),
                })
            );
            assert_admission_matches_spec(model.as_ref(), spec.as_ref(), &script);
        }
    }
}

proptest! {
    /// Random histories of up to 5 rounds: the compiled program agrees
    /// with the spec at every prefix step, for every zoo predicate.
    #[test]
    fn compiled_plane_is_exact_on_random_patterns(
        rounds in prop::collection::vec(round_faults(3), 1..6)
    ) {
        let n = n3();
        for (predicate, spec) in zoo(n, 1).iter().zip(spec_zoo(n, 1)) {
            let program = predicate.compile().expect("zoo compiles");
            let mut ctx = HistoryCtx::for_programs(n, std::iter::once(&program));
            let mut history = FaultPattern::new(n);
            for round in &rounds {
                let profile = RoundProfile::of(round);
                prop_assert_eq!(
                    spec.admits(&history, round),
                    program.eval(&ctx, &profile)
                );
                ctx.absorb(round);
                history.push(round.clone());
            }
            // Whole-pattern verdicts agree too.
            prop_assert_eq!(
                spec.admits_pattern(&history),
                predicate.admits_pattern(&history)
            );
        }
    }
}

proptest! {
    /// Admission parity: at n ∈ {3, 4, 5}, every zoo member run by the
    /// round engine and by the threaded runtime under a scripted detector
    /// stops at the first round its spec rejects (or the first ill-formed
    /// one), reporting the same violation, and runs to the round limit
    /// when the spec admits the whole script.
    #[test]
    fn engines_admit_exactly_what_the_spec_admits(raw in raw_script()) {
        for size in 3..=5 {
            let n = SystemSize::new(size).expect("valid size");
            let script = script(n, &raw);
            for (model, spec) in zoo(n, 1).iter().zip(spec_zoo(n, 1)) {
                assert_admission_matches_spec(model.as_ref(), spec.as_ref(), &script);
            }
        }
    }
}

/// The pairwise reading of the snapshot view ordering: every two
/// suspicion sets are comparable under containment.
fn pairwise_chain(round: &RoundFaults) -> bool {
    let sets = round.as_slice();
    sets.iter()
        .all(|a| sets.iter().all(|b| a.is_subset(*b) || b.is_subset(*a)))
}

fn compiled_chain(round: &RoundFaults) -> bool {
    let n = round.system_size();
    ProgOp::ContainmentChain.eval(&HistoryCtx::for_programs(n, []), &RoundProfile::of(round))
}

/// The profile's size-sorted chain check equals the pairwise rule on every
/// round at n = 3 and on sampled n = 64 rounds: nested chains dealt to
/// the processes in random order, half of them with one bit flipped.
#[test]
fn containment_chain_matches_the_pairwise_rule() {
    use rand::{Rng, SeedableRng};
    for round in all_rounds(n3()) {
        assert_eq!(compiled_chain(&round), pairwise_chain(&round), "{round:?}");
    }
    let n = SystemSize::new(64).expect("valid size");
    let mut rng = rand::rngs::StdRng::seed_from_u64(64);
    let (mut chains, mut broken) = (0, 0);
    for _ in 0..2_000 {
        let mut sets: Vec<IdSet> = (0..64)
            .map(|_| (0..rng.gen_range(0..64)).map(ProcessId::new).collect())
            .collect();
        if rng.gen_bool(0.5) {
            let i: usize = rng.gen_range(0..64);
            let p = ProcessId::new(rng.gen_range(0..64));
            if !sets[i].remove(p) {
                sets[i].insert(p);
            }
        }
        let round = RoundFaults::from_sets(n, sets);
        let expected = pairwise_chain(&round);
        assert_eq!(compiled_chain(&round), expected, "{round:?}");
        if expected {
            chains += 1;
        } else {
            broken += 1;
        }
    }
    assert!(
        chains > 100 && broken > 100,
        "{chains} chains, {broken} broken"
    );
}
