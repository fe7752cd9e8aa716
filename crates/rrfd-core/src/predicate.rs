//! Predicates over fault patterns — the heart of the RRFD framework.
//!
//! The paper identifies a model with a predicate `P` over the family of sets
//! `D(i,r)`. A [`RrfdPredicate`] judges whether appending one more round to a
//! history keeps the pattern legal; every predicate in the paper is a
//! prefix-closed safety condition on finite runs, so this per-round view is
//! fully general for executable systems.
//!
//! A predicate's one executable meaning is its compiled
//! [`PredicateProgram`]: [`RrfdPredicate::compile`] is required, and
//! [`RrfdPredicate::admits`] and [`RrfdPredicate::admits_pattern`] are
//! provided on top of it. Runs are checked through a one-program
//! [`ProgramBatch`] that carries the history forward one round at a time
//! ([`validate_round`]).
//!
//! Concrete predicates live in the `rrfd-models` crate; this module defines
//! the trait, the universal well-formedness rule (`D(i,r) ≠ S` — "not all
//! processes can be late"), and combinators for building compound predicates
//! such as the crash model (eq. 1 **and** eq. 2).

use crate::id::{ProcessId, Round, SystemSize};
use crate::idset::IdSet;
use crate::pattern::{FaultPattern, RoundFaults};
use crate::program::{PredicateProgram, ProgramBatch};
use std::fmt;

/// A predicate over fault patterns, defining one RRFD system.
///
/// Implementations must be *prefix-closed*: if every round of a pattern is
/// admitted after the rounds before it, the pattern is legal. The engine
/// re-checks each adversary output against the model predicate, so a buggy
/// adversary is caught at the round it misbehaves.
pub trait RrfdPredicate {
    /// Human-readable name used in diagnostics, e.g. `"P1(send-omission,f=2)"`.
    fn name(&self) -> String;

    /// The system size this predicate is defined over.
    fn system_size(&self) -> SystemSize;

    /// Compiles the predicate to the word-level IR of the compiled plane —
    /// its one executable meaning, exact on every input, well formed or
    /// not. Every predicate compiles; the `Option` stays for source
    /// compatibility, and every consumer ([`ProgramBatch::of`], the batch
    /// evaluators) panics at construction, naming the predicate, on `None`.
    fn compile(&self) -> Option<PredicateProgram>;

    /// Returns `true` when `round` may legally extend `history`.
    ///
    /// `history` contains the rounds *before* this one; the candidate round
    /// is not yet part of it. Provided on the compiled program: the call
    /// compiles, folds `history` into a fresh
    /// [`crate::program::HistoryCtx`] and evaluates the round, so it costs
    /// `O(history)`. It is for one-off questions; a hot path carries a
    /// [`ProgramBatch`] forward instead and pays `O(1)` per round.
    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        let mut batch = ProgramBatch::of(self);
        for (_, prior) in history.iter() {
            batch.absorb(prior);
        }
        batch.admits(&batch.profile(round))
    }

    /// Checks an entire pattern round by round, through one
    /// [`ProgramBatch`] in `O(rounds)` total work.
    fn admits_pattern(&self, pattern: &FaultPattern) -> bool {
        let mut batch = ProgramBatch::of(self);
        pattern.iter().all(|(_, round)| batch.admit(round))
    }
}

impl<P: RrfdPredicate + ?Sized> RrfdPredicate for &P {
    fn name(&self) -> String {
        (**self).name()
    }
    fn system_size(&self) -> SystemSize {
        (**self).system_size()
    }
    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        (**self).admits(history, round)
    }
    fn compile(&self) -> Option<PredicateProgram> {
        (**self).compile()
    }
    fn admits_pattern(&self, pattern: &FaultPattern) -> bool {
        (**self).admits_pattern(pattern)
    }
}

impl<P: RrfdPredicate + ?Sized> RrfdPredicate for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn system_size(&self) -> SystemSize {
        (**self).system_size()
    }
    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        (**self).admits(history, round)
    }
    fn compile(&self) -> Option<PredicateProgram> {
        (**self).compile()
    }
    fn admits_pattern(&self, pattern: &FaultPattern) -> bool {
        (**self).admits_pattern(pattern)
    }
}

/// The universal well-formedness rule of the framework: for every process,
/// `D(i,r) ≠ S`. "If one interprets `D(i,r)` as a set of late processes, not
/// all processes can be late."
///
/// Returns the first offending process, or `None` if the round is well
/// formed.
#[must_use]
pub fn ill_formed_process(round: &RoundFaults) -> Option<ProcessId> {
    let universe = IdSet::universe(round.system_size());
    round.iter().find(|&(_, d)| d == universe).map(|(i, _)| i)
}

/// The trivially-true predicate: any well-formed pattern is admitted.
///
/// Useful as the "weakest possible" bound in submodel experiments and as the
/// model argument when a caller only wants the engine's well-formedness
/// checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnyPattern {
    n: SystemSize,
}

impl AnyPattern {
    /// Creates the trivial predicate for a system of `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        AnyPattern { n }
    }
}

impl RrfdPredicate for AnyPattern {
    fn name(&self) -> String {
        "Any".to_owned()
    }

    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn compile(&self) -> Option<PredicateProgram> {
        Some(PredicateProgram::always(self.n))
    }
}

/// Conjunction of two predicates: `A ∧ B`.
///
/// The paper's crash model is exactly `And(P1, P2)`; the snapshot model is
/// `And(P3, containment)`. The combinator keeps each clause independently
/// reusable.
///
/// # Examples
///
/// ```
/// use rrfd_core::{And, AnyPattern, RrfdPredicate, SystemSize};
/// let n = SystemSize::new(3).unwrap();
/// let p = And::new(AnyPattern::new(n), AnyPattern::new(n));
/// assert_eq!(p.system_size(), n);
/// ```
#[derive(Debug, Clone)]
pub struct And<A, B> {
    a: A,
    b: B,
}

impl<A: RrfdPredicate, B: RrfdPredicate> And<A, B> {
    /// Combines two predicates over the same system.
    ///
    /// # Panics
    ///
    /// Panics if the predicates disagree on the system size.
    #[must_use]
    pub fn new(a: A, b: B) -> Self {
        assert_eq!(
            a.system_size(),
            b.system_size(),
            "conjoined predicates must share a system size"
        );
        And { a, b }
    }

    /// The left clause.
    #[must_use]
    pub fn left(&self) -> &A {
        &self.a
    }

    /// The right clause.
    #[must_use]
    pub fn right(&self) -> &B {
        &self.b
    }
}

impl<A: RrfdPredicate, B: RrfdPredicate> RrfdPredicate for And<A, B> {
    fn name(&self) -> String {
        format!("({} ∧ {})", self.a.name(), self.b.name())
    }

    fn system_size(&self) -> SystemSize {
        self.a.system_size()
    }

    fn compile(&self) -> Option<PredicateProgram> {
        let a = self.a.compile()?;
        let b = self.b.compile()?;
        Some(a.and(&b))
    }
}

/// Disjunction of two predicates: `A ∨ B`.
///
/// The join of the model lattice: a system that may behave like either A
/// or B (the adversary picks, round by round). Useful when asking for the
/// *weakest* RRFD equivalent to a system (§2's question 2): candidate
/// weakest models are joins of known ones.
///
/// Note that `Or` is evaluated round-wise; a pattern may interleave
/// A-rounds and B-rounds.
#[derive(Debug, Clone)]
pub struct Or<A, B> {
    a: A,
    b: B,
}

impl<A: RrfdPredicate, B: RrfdPredicate> Or<A, B> {
    /// Combines two predicates over the same system.
    ///
    /// # Panics
    ///
    /// Panics if the predicates disagree on the system size.
    #[must_use]
    pub fn new(a: A, b: B) -> Self {
        assert_eq!(
            a.system_size(),
            b.system_size(),
            "disjoined predicates must share a system size"
        );
        Or { a, b }
    }
}

impl<A: RrfdPredicate, B: RrfdPredicate> RrfdPredicate for Or<A, B> {
    fn name(&self) -> String {
        format!("({} ∨ {})", self.a.name(), self.b.name())
    }

    fn system_size(&self) -> SystemSize {
        self.a.system_size()
    }

    fn compile(&self) -> Option<PredicateProgram> {
        let a = self.a.compile()?;
        let b = self.b.compile()?;
        Some(a.or(&b))
    }
}

/// Violation raised when a fault pattern breaks a predicate or the universal
/// well-formedness rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternViolation {
    /// Some `D(i,r)` equals the full universe.
    IllFormed {
        /// The offending process.
        process: ProcessId,
        /// The round at which it happened.
        round: Round,
    },
    /// The model predicate rejected the round.
    PredicateRejected {
        /// Name of the predicate that rejected.
        predicate: String,
        /// The round at which it happened.
        round: Round,
    },
}

impl fmt::Display for PatternViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternViolation::IllFormed { process, round } => write!(
                f,
                "ill-formed round {round}: D({process},{round}) equals the whole universe"
            ),
            PatternViolation::PredicateRejected { predicate, round } => {
                write!(f, "predicate {predicate} rejected round {round}")
            }
        }
    }
}

impl std::error::Error for PatternViolation {}

/// Validates one candidate round against `model`, whose compiled
/// [`ProgramBatch`] (see [`ProgramBatch::of`]) carries the run's history:
/// well-formedness first, then the model's program. An admitted round is
/// absorbed into `batch`, so successive calls check a run one round at a
/// time, in `O(1)` per round whatever the prefix length. `model` supplies
/// only the name a rejection reports.
///
/// # Errors
///
/// Returns [`PatternViolation::IllFormed`] when some `D(i,r)` covers the
/// whole universe, and [`PatternViolation::PredicateRejected`] when the
/// model predicate refuses the extension. Either way `batch` is unchanged.
pub fn validate_round<P: RrfdPredicate + ?Sized>(
    model: &P,
    batch: &mut ProgramBatch,
    round: &RoundFaults,
) -> Result<(), PatternViolation> {
    let round_no = Round::new(batch.rounds() + 1);
    if let Some(process) = ill_formed_process(round) {
        return Err(PatternViolation::IllFormed {
            process,
            round: round_no,
        });
    }
    if !batch.admit(round) {
        return Err(PatternViolation::PredicateRejected {
            predicate: model.name(),
            round: round_no,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgOp;

    fn n3() -> SystemSize {
        SystemSize::new(3).unwrap()
    }

    /// A predicate admitting only empty suspicion sets — used to exercise
    /// rejection paths.
    #[derive(Debug)]
    struct NoFaults(SystemSize);

    impl RrfdPredicate for NoFaults {
        fn name(&self) -> String {
            "NoFaults".into()
        }
        fn system_size(&self) -> SystemSize {
            self.0
        }
        fn compile(&self) -> Option<PredicateProgram> {
            Some(PredicateProgram::of(self.0, ProgOp::UnionAtMost(0)))
        }
    }

    #[test]
    fn ill_formed_detects_full_universe() {
        let n = n3();
        let mut rf = RoundFaults::none(n);
        assert_eq!(ill_formed_process(&rf), None);
        rf.set(ProcessId::new(1), IdSet::universe(n));
        assert_eq!(ill_formed_process(&rf), Some(ProcessId::new(1)));
    }

    #[test]
    fn any_pattern_admits_everything_well_formed() {
        let n = n3();
        let p = AnyPattern::new(n);
        let h = FaultPattern::new(n);
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(1)));
        assert!(p.admits(&h, &rf));
        let mut batch = ProgramBatch::of(&p);
        assert!(validate_round(&p, &mut batch, &rf).is_ok());
        assert_eq!(batch.rounds(), 1, "an admitted round is absorbed");
    }

    #[test]
    fn validate_flags_ill_formed_before_predicate() {
        let n = n3();
        let p = NoFaults(n);
        let mut batch = ProgramBatch::of(&p);
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(2), IdSet::universe(n));
        match validate_round(&p, &mut batch, &rf) {
            Err(PatternViolation::IllFormed { process, round }) => {
                assert_eq!(process, ProcessId::new(2));
                assert_eq!(round, Round::new(1));
            }
            other => panic!("expected IllFormed, got {other:?}"),
        }
    }

    #[test]
    fn validate_flags_predicate_rejection_with_round_number() {
        let n = n3();
        let p = NoFaults(n);
        let mut batch = ProgramBatch::of(&p);
        assert!(validate_round(&p, &mut batch, &RoundFaults::none(n)).is_ok());
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(1)));
        match validate_round(&p, &mut batch, &rf) {
            Err(PatternViolation::PredicateRejected { predicate, round }) => {
                assert_eq!(predicate, "NoFaults");
                assert_eq!(round, Round::new(2));
            }
            other => panic!("expected PredicateRejected, got {other:?}"),
        }
        assert_eq!(batch.rounds(), 1, "a rejected round is not absorbed");
    }

    #[test]
    fn and_combines_clauses() {
        let n = n3();
        let p = And::new(AnyPattern::new(n), NoFaults(n));
        let h = FaultPattern::new(n);
        assert!(p.admits(&h, &RoundFaults::none(n)));
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(1)));
        assert!(!p.admits(&h, &rf));
        assert!(p.name().contains("Any"));
        assert!(p.name().contains("NoFaults"));
    }

    #[test]
    fn or_is_the_lattice_join() {
        let n = n3();
        let p = Or::new(NoFaults(n), AnyPattern::new(n));
        let h = FaultPattern::new(n);
        let mut rf = RoundFaults::none(n);
        rf.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(1)));
        // AnyPattern carries the join.
        assert!(p.admits(&h, &rf));
        assert!(p.name().contains('∨'));

        // Both sides reject ⇒ the join rejects.
        let q = Or::new(NoFaults(n), NoFaults(n));
        assert!(!q.admits(&h, &rf));
        assert!(q.admits(&h, &RoundFaults::none(n)));
    }

    #[test]
    fn and_refines_both_or_arms() {
        // A ∧ B ⇒ A ∨ B on every round: spot-check the lattice shape.
        let n = n3();
        let conj = And::new(AnyPattern::new(n), NoFaults(n));
        let disj = Or::new(AnyPattern::new(n), NoFaults(n));
        let h = FaultPattern::new(n);
        for sets in [
            vec![IdSet::empty(); 3],
            vec![
                IdSet::singleton(ProcessId::new(1)),
                IdSet::empty(),
                IdSet::empty(),
            ],
        ] {
            let rf = RoundFaults::from_sets(n, sets);
            if conj.admits(&h, &rf) {
                assert!(disj.admits(&h, &rf));
            }
        }
    }

    #[test]
    fn admits_pattern_checks_prefixes() {
        let n = n3();
        let p = NoFaults(n);
        let mut pat = FaultPattern::new(n);
        pat.push(RoundFaults::none(n));
        assert!(p.admits_pattern(&pat));
        let mut bad = RoundFaults::none(n);
        bad.set(ProcessId::new(1), IdSet::singleton(ProcessId::new(0)));
        pat.push(bad);
        assert!(!p.admits_pattern(&pat));
    }

    #[test]
    fn trait_objects_and_boxes_delegate() {
        let n = n3();
        let boxed: Box<dyn RrfdPredicate> = Box::new(AnyPattern::new(n));
        assert_eq!(boxed.system_size(), n);
        assert!(boxed.admits(&FaultPattern::new(n), &RoundFaults::none(n)));
        let by_ref: &dyn RrfdPredicate = &AnyPattern::new(n);
        assert_eq!(by_ref.name(), "Any");
    }
}
