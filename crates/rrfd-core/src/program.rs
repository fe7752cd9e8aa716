//! The compiled predicate plane: the one executable meaning of a model.
//!
//! Every predicate in the paper's zoo judges a candidate round through a
//! handful of word-level facts about the suspicion sets `D(i,r)` — unions,
//! intersections, cardinality bounds, self-suspicion masks — plus a few
//! summary registers folded over the history prefix (the cumulative union,
//! the previous round's union, the surviving "immortal" candidates of ◊S).
//! A [`PredicateProgram`] captures a predicate as a disjunction of
//! conjunctions of such [`ProgOp`] facts, so that:
//!
//! * one [`RoundProfile`] per candidate round serves every program, and a
//!   batch profiles only the fields its programs' ops read;
//! * a [`HistoryCtx`] carries the prefix as `O(1)` incremental registers;
//! * a [`ProgramBatch`] evaluates a family of programs against one
//!   `RoundFaults` in a single pass, as a packed verdict mask. The engine
//!   and the threaded runtime admit each round through a one-program batch
//!   of their model ([`ProgramBatch::of`]), in `O(1)` per round.
//!
//! [`RrfdPredicate::compile`] is required and [`RrfdPredicate::admits`] is
//! provided on the program, so a model has one executable meaning. The
//! paper-facing hand-written bodies are test oracles, and
//! `tests/predicate_compile_equivalence.rs` checks every zoo program
//! against them.
//!
//! [`RrfdPredicate::compile`]: crate::predicate::RrfdPredicate::compile
//! [`RrfdPredicate::admits`]: crate::predicate::RrfdPredicate::admits

use crate::id::{Round, SystemSize, MAX_PROCESSES};
use crate::idset::IdSet;
use crate::pattern::RoundFaults;
use crate::predicate::RrfdPredicate;
use std::sync::Arc;

/// Bits naming the optional [`RoundProfile`] fields; the union is always
/// computed. A profile built for a needs mask holds meaningless values in
/// the fields outside it.
mod need {
    pub const INTERSECTION: u8 = 1;
    /// The self-suspects and the sticky core, one pass for both.
    pub const SELF_MASKS: u8 = 1 << 1;
    /// The longest set and the length histogram.
    pub const LENGTHS: u8 = 1 << 2;
    pub const IDENTICAL: u8 = 1 << 3;
    pub const CHAIN: u8 = 1 << 4;
    pub const ANTISYM: u8 = 1 << 5;
    pub const ALL: u8 = (1 << 6) - 1;
}

/// One primitive, word-level fact about a candidate round (possibly relative
/// to the history registers of a [`HistoryCtx`]).
///
/// Ops that only read the [`RoundProfile`] are *static*: their verdict on a
/// round is independent of the history prefix, which lets the lattice walk
/// precompute them once per candidate round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgOp {
    /// Every process that suspects itself this round was already suspected
    /// in some earlier round: `{i : i ∈ D(i,r)} ⊆ cum`. (The "self-trust"
    /// clause of the crash and send-omission models.)
    SelfTrustFresh,
    /// No process ever suspects itself: `∀i. i ∉ D(i,r)`. (The snapshot
    /// model's strict self-trust.)
    SelfTrustNever,
    /// The cumulative fault footprint stays bounded:
    /// `|cum ∪ ⋃ᵢ D(i,r)| ≤ k`.
    FootprintAtMost(usize),
    /// Per-process suspicion bound: `∀i. |D(i,r)| ≤ k`. (Equation 3 of the
    /// paper — the asynchronous resilience predicate.)
    PerProcAtMost(usize),
    /// The System-B histogram bound: every set longer than `fast` is at most
    /// `slow` long, and at most `slow` sets are longer than `fast`.
    SlowBound {
        /// Sets of at most this length are "fast" and unconstrained.
        fast: usize,
        /// Bound on both the length and the count of the slow sets.
        slow: usize,
    },
    /// The round's union stays bounded: `|⋃ᵢ D(i,r)| ≤ k`. (Equation 4 —
    /// someone is trusted by all — when `k = n − 1`.)
    UnionAtMost(usize),
    /// The round's uncertainty stays bounded:
    /// `|⋃ᵢ D(i,r) ∖ ⋂ᵢ D(i,r)| ≤ k`. (Theorem 3.1's `k`-uncertainty.)
    UncertaintyAtMost(usize),
    /// All processes see the same suspicion set this round.
    IdenticalViews,
    /// The suspicion sets form a containment chain when sorted by size
    /// (the snapshot model's view-ordering).
    ContainmentChain,
    /// No mutual suspicion: `j ∈ D(i,r) ⇒ i ∉ D(j,r)`.
    AntiSymmetric,
    /// The previous round's union sticks: `∀k. ⋃ᵢ D(i,r−1) ∖ {k} ⊆ D(k,r)`.
    /// (Equation 2 — crashed processes stay suspected by everyone else.)
    PrevUnionSticky,
    /// After the stabilization round, some immortal candidate survives:
    /// the ◊S accuracy clause of the eventually-strong model.
    ImmortalSurvives {
        /// Rounds up to and including this one are unconstrained.
        stabilization: Round,
    },
}

impl ProgOp {
    /// `true` when the op reads only the [`RoundProfile`] — its verdict on a
    /// round does not depend on the history prefix.
    #[must_use]
    pub fn is_static(self) -> bool {
        !matches!(
            self,
            ProgOp::SelfTrustFresh
                | ProgOp::FootprintAtMost(_)
                | ProgOp::PrevUnionSticky
                | ProgOp::ImmortalSurvives { .. }
        )
    }

    /// The [`RoundProfile`] fields [`ProgOp::eval`] reads, beyond the
    /// union.
    fn needs(self) -> u8 {
        match self {
            ProgOp::SelfTrustFresh | ProgOp::SelfTrustNever | ProgOp::PrevUnionSticky => {
                need::SELF_MASKS
            }
            ProgOp::FootprintAtMost(_)
            | ProgOp::UnionAtMost(_)
            | ProgOp::ImmortalSurvives { .. } => 0,
            ProgOp::PerProcAtMost(_) | ProgOp::SlowBound { .. } => need::LENGTHS,
            ProgOp::UncertaintyAtMost(_) => need::INTERSECTION,
            ProgOp::IdenticalViews => need::IDENTICAL,
            ProgOp::ContainmentChain => need::CHAIN,
            ProgOp::AntiSymmetric => need::ANTISYM,
        }
    }

    /// Evaluates the op against a history context and a round profile.
    #[must_use]
    pub fn eval(self, ctx: &HistoryCtx, profile: &RoundProfile) -> bool {
        match self {
            ProgOp::SelfTrustFresh => profile.self_suspects.is_subset(ctx.cum),
            ProgOp::SelfTrustNever => profile.self_suspects.is_empty(),
            ProgOp::FootprintAtMost(k) => ctx.cum.union(profile.union).len() <= k,
            ProgOp::PerProcAtMost(k) => profile.max_len <= k,
            ProgOp::SlowBound { fast, slow } => {
                profile.max_len <= fast.max(slow) && profile.count_longer(fast) <= slow
            }
            ProgOp::UnionAtMost(k) => profile.union.len() <= k,
            ProgOp::UncertaintyAtMost(k) => {
                profile.union.difference(profile.intersection).len() <= k
            }
            ProgOp::IdenticalViews => profile.identical,
            ProgOp::ContainmentChain => profile.chain_ok,
            ProgOp::AntiSymmetric => profile.antisym_ok,
            ProgOp::PrevUnionSticky => ctx.prev_union.is_subset(profile.sticky_core),
            ProgOp::ImmortalSurvives { stabilization } => {
                ctx.rounds < stabilization.get()
                    || !ctx
                        .immortal(stabilization)
                        .difference(profile.union)
                        .is_empty()
            }
        }
    }

    /// The profile fields read by the non-static arms of [`ProgOp::eval`]
    /// (and by [`HistoryCtx::absorb_profile`]): the round's union, its
    /// self-suspects and its sticky core. Two rounds with equal keys and
    /// equal static-op verdicts get equal verdicts from every op in every
    /// context, which is what lets the lattice walk evaluate one round per
    /// class. An op that reads another field must add it here.
    #[must_use]
    pub fn history_key(profile: &RoundProfile) -> [IdSet; 3] {
        [profile.union, profile.self_suspects, profile.sticky_core]
    }
}

/// Prefix-independent, word-level summary of one candidate `RoundFaults`,
/// computed once and shared by every program evaluated against the round.
#[derive(Debug, Clone)]
pub struct RoundProfile {
    union: IdSet,
    intersection: IdSet,
    self_suspects: IdSet,
    sticky_core: IdSet,
    max_len: usize,
    len_hist: [u8; MAX_PROCESSES + 1],
    identical: bool,
    chain_ok: bool,
    antisym_ok: bool,
}

impl RoundProfile {
    /// Profiles one round in full: a linear fold over the suspicion sets
    /// per field plus pairwise containment and antisymmetry checks (the
    /// sets are `u128` words, so every comparison is a couple of machine
    /// operations). Both pairwise checks stop at their first
    /// counterexample, and identical views are a chain without any check.
    #[must_use]
    pub fn of(round: &RoundFaults) -> Self {
        Self::with_needs(round, need::ALL)
    }

    /// Profiles the union plus the fields named by the `need` bits in
    /// `needs`, leaving the others at placeholder values.
    fn with_needs(round: &RoundFaults, needs: u8) -> Self {
        let universe = IdSet::universe(round.system_size());
        let sets = round.as_slice();
        let wants = |field: u8| needs & field != 0;
        let mut profile = RoundProfile {
            union: sets.iter().fold(IdSet::empty(), |u, &d| u.union(d)),
            intersection: universe,
            self_suspects: IdSet::empty(),
            sticky_core: universe,
            max_len: 0,
            len_hist: [0; MAX_PROCESSES + 1],
            identical: true,
            chain_ok: true,
            antisym_ok: true,
        };
        if wants(need::INTERSECTION) {
            profile.intersection = sets.iter().fold(universe, |x, &d| x.intersection(d));
        }
        if wants(need::SELF_MASKS) {
            for (i, d) in round.iter() {
                let me = IdSet::singleton(i);
                profile.sticky_core = profile.sticky_core.intersection(d.union(me));
                if !d.intersection(me).is_empty() {
                    profile.self_suspects = profile.self_suspects.union(me);
                }
            }
        }
        if wants(need::LENGTHS) {
            for d in sets {
                let len = d.len();
                profile.max_len = profile.max_len.max(len);
                profile.len_hist[len] += 1;
            }
        }
        if wants(need::IDENTICAL | need::CHAIN) {
            profile.identical = sets.iter().all(|&d| d == sets[0]);
        }
        if wants(need::CHAIN) && !profile.identical {
            profile.chain_ok = sets.iter().enumerate().all(|(a, da)| {
                sets[a + 1..]
                    .iter()
                    .all(|db| da.is_subset(*db) || db.is_subset(*da))
            });
        }
        if wants(need::ANTISYM) {
            profile.antisym_ok = round
                .iter()
                .all(|(i, d)| d.iter().all(|j| !round.of(j).contains(i)));
        }
        profile
    }

    /// The union `⋃ᵢ D(i,r)` of the profiled round.
    #[must_use]
    pub fn union(&self) -> IdSet {
        self.union
    }

    /// How many suspicion sets are strictly longer than `k`.
    #[must_use]
    pub fn count_longer(&self, k: usize) -> usize {
        // No set is longer than `max_len`, so the histogram's tail past it
        // is all zeros and need not be summed.
        if k >= self.max_len {
            return 0;
        }
        self.len_hist[k + 1..=self.max_len]
            .iter()
            .map(|&c| c as usize)
            .sum()
    }
}

/// The incremental history registers shared by every program of a family:
/// the round count, the cumulative suspicion union, the previous round's
/// union, and one immortal-candidate register per ◊S stabilization round.
///
/// Absorbing a round is `O(1)` in the history length.
#[derive(Debug, Clone)]
pub struct HistoryCtx {
    n: SystemSize,
    rounds: u32,
    cum: IdSet,
    prev_union: IdSet,
    immortal: Vec<(Round, IdSet)>,
}

impl HistoryCtx {
    /// An empty-history context for the given programs. The programs'
    /// ◊S stabilization rounds are registered up front so their immortal
    /// registers can be maintained incrementally.
    #[must_use]
    pub fn for_programs<'a, I>(n: SystemSize, programs: I) -> Self
    where
        I: IntoIterator<Item = &'a PredicateProgram>,
    {
        let mut immortal: Vec<(Round, IdSet)> = Vec::new();
        for program in programs {
            for stab in program.stabilizations() {
                if !immortal.iter().any(|(s, _)| *s == stab) {
                    immortal.push((stab, IdSet::universe(n)));
                }
            }
        }
        HistoryCtx {
            n,
            rounds: 0,
            cum: IdSet::empty(),
            prev_union: IdSet::empty(),
            immortal,
        }
    }

    /// Forgets every absorbed round, keeping the registered
    /// stabilizations and every allocation: the context then equals a
    /// fresh [`HistoryCtx::for_programs`] over the same programs.
    pub fn reset(&mut self) {
        self.rounds = 0;
        self.cum = IdSet::empty();
        self.prev_union = IdSet::empty();
        let universe = IdSet::universe(self.n);
        for (_, register) in &mut self.immortal {
            *register = universe;
        }
    }

    /// Rounds absorbed so far.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Everything a compiled program of the registering family can observe
    /// about the absorbed prefix: the round count saturated at `S`, the
    /// cumulative union `⋃_{r' ≤ r} ⋃ᵢ D(i,r')`, the previous round's union
    /// `⋃ᵢ D(i,r−1)` (empty before any round) and the immortal registers
    /// in registration order, where `S` is the largest registered
    /// stabilization round (0 when none is registered).
    ///
    /// Two contexts with equal keys get equal verdicts from every
    /// [`ProgOp`] whose stabilization (if any) is registered, on every
    /// round, and absorbing the same round into both yields equal keys
    /// again. Round counts `≥ S` need not be told apart: the only arms
    /// that read the count compare it against a registered stabilization
    /// (`rounds < s` in [`ProgOp::eval`], `rounds + 1 > s` when
    /// absorbing), and both answers are fixed once `rounds ≥ S ≥ s`.
    #[must_use]
    pub fn register_key(&self) -> (u32, IdSet, IdSet, Vec<IdSet>) {
        let saturation = self.immortal.iter().map(|(s, _)| s.get()).max();
        (
            self.rounds.min(saturation.unwrap_or(0)),
            self.cum,
            self.prev_union,
            self.immortal
                .iter()
                .map(|&(_, register)| register)
                .collect(),
        )
    }

    /// Folds one round into the registers (`O(1)` amortized).
    pub fn absorb(&mut self, round: &RoundFaults) {
        self.absorb_union(round.union());
    }

    /// Folds one profiled round into the registers.
    pub fn absorb_profile(&mut self, profile: &RoundProfile) {
        self.absorb_union(profile.union);
    }

    fn absorb_union(&mut self, union: IdSet) {
        self.rounds += 1;
        self.cum = self.cum.union(union);
        self.prev_union = union;
        let absorbed = self.rounds;
        for (stab, register) in &mut self.immortal {
            if absorbed > stab.get() {
                *register = register.difference(union);
            }
        }
    }

    /// The ◊S immortal candidates for `stabilization`: every process not
    /// suspected after that round, `S ∖ ⋃_{r > stabilization} ⋃ᵢ D(i,r)`,
    /// read from its `O(1)` register.
    ///
    /// # Panics
    ///
    /// Panics unless `stabilization` was registered by
    /// [`HistoryCtx::for_programs`]: the context keeps no per-round
    /// history to fold an unregistered one from.
    #[must_use]
    pub fn immortal(&self, stabilization: Round) -> IdSet {
        let register = self.immortal.iter().find(|(s, _)| *s == stabilization);
        assert!(
            register.is_some(),
            "stabilization round {stabilization:?} was not registered by HistoryCtx::for_programs"
        );
        register.map_or(IdSet::empty(), |&(_, register)| register)
    }
}

/// A predicate compiled to the word-level IR: a disjunction of conjunctions
/// of [`ProgOp`] facts, exact with respect to the source predicate's dyn
/// `admits` on every input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateProgram {
    n: SystemSize,
    clauses: Vec<Vec<ProgOp>>,
}

impl PredicateProgram {
    /// The program that admits every round (one empty conjunction).
    #[must_use]
    pub fn always(n: SystemSize) -> Self {
        PredicateProgram {
            n,
            clauses: vec![Vec::new()],
        }
    }

    /// A single-op program.
    #[must_use]
    pub fn of(n: SystemSize, op: ProgOp) -> Self {
        PredicateProgram {
            n,
            clauses: vec![vec![op]],
        }
    }

    /// A single-conjunction program: every op must hold.
    #[must_use]
    pub fn all(n: SystemSize, ops: Vec<ProgOp>) -> Self {
        PredicateProgram {
            n,
            clauses: vec![ops],
        }
    }

    /// The system size the program is defined over.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// The DNF clauses (each inner slice is a conjunction).
    #[must_use]
    pub fn clauses(&self) -> &[Vec<ProgOp>] {
        &self.clauses
    }

    /// Conjunction: the cross-product of the two clause lists.
    #[must_use]
    pub fn and(&self, other: &PredicateProgram) -> Self {
        assert_eq!(
            self.n, other.n,
            "conjoined programs must share a system size"
        );
        let mut clauses = Vec::with_capacity(self.clauses.len() * other.clauses.len());
        for left in &self.clauses {
            for right in &other.clauses {
                let mut clause = left.clone();
                clause.extend(right.iter().copied());
                clauses.push(clause);
            }
        }
        PredicateProgram { n: self.n, clauses }
    }

    /// Disjunction: clause-list concatenation.
    #[must_use]
    pub fn or(&self, other: &PredicateProgram) -> Self {
        assert_eq!(
            self.n, other.n,
            "disjoined programs must share a system size"
        );
        let mut clauses = self.clauses.clone();
        clauses.extend(other.clauses.iter().cloned());
        PredicateProgram { n: self.n, clauses }
    }

    /// `true` when every op is static — the program's verdict on a round is
    /// independent of the history prefix.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.clauses
            .iter()
            .all(|clause| clause.iter().all(|op| op.is_static()))
    }

    /// Every ◊S stabilization round mentioned by the program.
    pub fn stabilizations(&self) -> impl Iterator<Item = Round> + '_ {
        self.clauses.iter().flatten().filter_map(|op| match op {
            ProgOp::ImmortalSurvives { stabilization } => Some(*stabilization),
            _ => None,
        })
    }

    /// Evaluates the program against one profiled round: some clause must
    /// hold in full.
    #[must_use]
    pub fn eval(&self, ctx: &HistoryCtx, profile: &RoundProfile) -> bool {
        self.clauses
            .iter()
            .any(|clause| clause.iter().all(|op| op.eval(ctx, profile)))
    }
}

/// A family of compiled programs evaluated together: one [`RoundProfile`]
/// per observed round, one packed `u128` verdict mask per evaluation.
///
/// Programs mirror an external predicate family index-for-index. They are
/// shared: cloning a batch (say, a fresh one used as a per-run template)
/// copies only its history registers.
#[derive(Debug, Clone)]
pub struct ProgramBatch {
    n: SystemSize,
    programs: Arc<[PredicateProgram]>,
    needs: u8,
    ctx: HistoryCtx,
    evals: u64,
}

impl ProgramBatch {
    /// Builds a batch over a family's compiled programs.
    ///
    /// # Panics
    ///
    /// Panics on more than 128 programs (the verdict word's width) or on a
    /// program over another system size.
    #[must_use]
    pub fn new(n: SystemSize, programs: Vec<PredicateProgram>) -> Self {
        assert!(
            programs.len() <= 128,
            "a ProgramBatch packs verdicts into a u128: at most 128 programs"
        );
        assert!(
            programs.iter().all(|p| p.system_size() == n),
            "batched programs must share a system size"
        );
        ProgramBatch {
            n,
            needs: programs
                .iter()
                .flat_map(|p| p.clauses.iter().flatten())
                .fold(0, |needs, op| needs | op.needs()),
            ctx: HistoryCtx::for_programs(n, &programs),
            programs: programs.into(),
            evals: 0,
        }
    }

    /// The one-program batch of `model`, with an empty history.
    ///
    /// # Panics
    ///
    /// Panics naming the model when its [`RrfdPredicate::compile`]
    /// returns `None`.
    #[must_use]
    pub fn of<P: RrfdPredicate + ?Sized>(model: &P) -> Self {
        let program = model.compile();
        assert!(
            program.is_some(),
            "{} does not compile onto the predicate plane",
            model.name()
        );
        ProgramBatch::new(model.system_size(), program.into_iter().collect())
    }

    /// The system size the batch is defined over.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// Number of programs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// `true` when the batch has no programs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Rounds absorbed into the shared history context so far.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.ctx.rounds()
    }

    /// Total compiled program evaluations performed (for the
    /// `rrfd_predicate_compiled_evals_total` counter).
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Evaluates every program whose bit is set in `live` against one
    /// profiled round, without absorbing it. Bit `i` of the result is the
    /// verdict of program `i`; bits outside `live` (and at or past
    /// [`ProgramBatch::len`]) are zero.
    pub fn eval_round(&mut self, profile: &RoundProfile, live: u128) -> u128 {
        let mut verdicts = 0u128;
        let mut todo = live;
        while todo != 0 {
            let idx = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let Some(program) = self.programs.get(idx) else {
                break;
            };
            self.evals += 1;
            if program.eval(&self.ctx, profile) {
                verdicts |= 1u128 << idx;
            }
        }
        verdicts
    }

    /// Profiles `round` for this batch: the union, plus only the fields
    /// its programs' ops read. The zoo's batch reads every field; a
    /// single crash or uncertainty model reads one or two.
    #[must_use]
    pub fn profile(&self, round: &RoundFaults) -> RoundProfile {
        RoundProfile::with_needs(round, self.needs)
    }

    /// `true` when every program admits the profiled round after the
    /// absorbed history. The round is not absorbed.
    pub fn admits(&mut self, profile: &RoundProfile) -> bool {
        self.programs.iter().all(|program| {
            self.evals += 1;
            program.eval(&self.ctx, profile)
        })
    }

    /// Profiles `round` and, when every program admits it, absorbs it.
    /// Returns whether it was admitted; a rejected round leaves the
    /// history untouched.
    pub fn admit(&mut self, round: &RoundFaults) -> bool {
        let profile = self.profile(round);
        let admitted = self.admits(&profile);
        if admitted {
            self.ctx.absorb_profile(&profile);
        }
        admitted
    }

    /// Folds one observed round into the shared history context.
    pub fn absorb(&mut self, round: &RoundFaults) {
        self.ctx.absorb(round);
    }

    /// Folds one profiled round into the shared history context.
    pub fn absorb_profile(&mut self, profile: &RoundProfile) {
        self.ctx.absorb_profile(profile);
    }

    /// Empties the history context and zeroes the evaluation count,
    /// keeping the programs and every allocation.
    pub fn reset(&mut self) {
        self.ctx.reset();
        self.evals = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ProcessId;

    fn n3() -> SystemSize {
        SystemSize::new(3).expect("3 is a valid system size")
    }

    fn rf(n: SystemSize, sets: &[&[usize]]) -> RoundFaults {
        let sets: Vec<IdSet> = sets
            .iter()
            .map(|ids| ids.iter().map(|&i| ProcessId::new(i)).collect())
            .collect();
        RoundFaults::from_sets(n, sets)
    }

    #[test]
    fn profile_summarizes_a_round() {
        let n = n3();
        let round = rf(n, &[&[1], &[1, 2], &[]]);
        let p = RoundProfile::of(&round);
        assert_eq!(p.union().len(), 2);
        assert_eq!(p.count_longer(0), 2);
        assert_eq!(p.count_longer(1), 1);
        assert_eq!(p.count_longer(2), 0);
        assert!(p.chain_ok);
        assert!(!p.identical);
        assert!(p.self_suspects.contains(ProcessId::new(1)));
    }

    #[test]
    fn history_ctx_tracks_registers_incrementally() {
        let n = n3();
        let program = PredicateProgram::of(
            n,
            ProgOp::ImmortalSurvives {
                stabilization: Round::new(1),
            },
        );
        let mut ctx = HistoryCtx::for_programs(n, [&program]);
        assert_eq!(ctx.immortal(Round::new(1)), IdSet::universe(n));
        ctx.absorb(&rf(n, &[&[2], &[], &[]]));
        // Round 1 is within the stabilization window: no erosion yet.
        assert_eq!(ctx.immortal(Round::new(1)), IdSet::universe(n));
        ctx.absorb(&rf(n, &[&[0], &[0], &[]]));
        // Round 2 erodes process 0.
        let registered = ctx.immortal(Round::new(1));
        assert!(!registered.contains(ProcessId::new(0)));
        assert_eq!(registered.len(), 2);
        assert_eq!(ctx.register_key().1.len(), 2);
    }

    #[test]
    #[should_panic(expected = "was not registered by HistoryCtx::for_programs")]
    fn immortal_rejects_an_unregistered_stabilization() {
        let n = n3();
        let program = PredicateProgram::of(
            n,
            ProgOp::ImmortalSurvives {
                stabilization: Round::new(1),
            },
        );
        let ctx = HistoryCtx::for_programs(n, [&program]);
        let _ = ctx.immortal(Round::new(2));
    }

    #[test]
    fn dnf_combinators_cross_and_concat() {
        let n = n3();
        let a = PredicateProgram::of(n, ProgOp::PerProcAtMost(1));
        let b = PredicateProgram::of(n, ProgOp::SelfTrustNever);
        let both = a.and(&b);
        assert_eq!(both.clauses().len(), 1);
        assert_eq!(both.clauses()[0].len(), 2);
        let either = a.or(&b);
        assert_eq!(either.clauses().len(), 2);
        assert!(both.is_static());

        let ctx = HistoryCtx::for_programs(n, [&both]);
        let ok = RoundProfile::of(&rf(n, &[&[1], &[], &[]]));
        let too_big = RoundProfile::of(&rf(n, &[&[1, 2], &[], &[]]));
        let selfish = RoundProfile::of(&rf(n, &[&[0], &[], &[]]));
        assert!(both.eval(&ctx, &ok));
        assert!(!both.eval(&ctx, &too_big));
        assert!(!both.eval(&ctx, &selfish));
        assert!(either.eval(&ctx, &too_big)); // self-trust clause still holds
        assert!(either.eval(&ctx, &selfish)); // cardinality clause still holds
    }

    /// Every op at every parameter that matters at `n = 3`. The match is
    /// exhaustive on purpose: a new variant fails to compile until it is
    /// listed here.
    fn every_op() -> Vec<ProgOp> {
        let mut ops = vec![
            ProgOp::SelfTrustFresh,
            ProgOp::SelfTrustNever,
            ProgOp::IdenticalViews,
            ProgOp::ContainmentChain,
            ProgOp::AntiSymmetric,
            ProgOp::PrevUnionSticky,
        ];
        for k in 0..=3 {
            ops.extend([
                ProgOp::FootprintAtMost(k),
                ProgOp::PerProcAtMost(k),
                ProgOp::UnionAtMost(k),
                ProgOp::UncertaintyAtMost(k),
            ]);
            for slow in 0..=3 {
                ops.push(ProgOp::SlowBound { fast: k, slow });
            }
        }
        for stabilization in 1..=3 {
            ops.push(ProgOp::ImmortalSurvives {
                stabilization: Round::new(stabilization),
            });
        }
        for op in &ops {
            match op {
                ProgOp::SelfTrustFresh
                | ProgOp::SelfTrustNever
                | ProgOp::FootprintAtMost(_)
                | ProgOp::PerProcAtMost(_)
                | ProgOp::SlowBound { .. }
                | ProgOp::UnionAtMost(_)
                | ProgOp::UncertaintyAtMost(_)
                | ProgOp::IdenticalViews
                | ProgOp::ContainmentChain
                | ProgOp::AntiSymmetric
                | ProgOp::PrevUnionSticky
                | ProgOp::ImmortalSurvives { .. } => {}
            }
        }
        ops
    }

    #[test]
    fn rounds_sharing_a_history_key_get_equal_verdicts_from_every_op() {
        let n = n3();
        let subsets: Vec<IdSet> = (0..8u128).map(IdSet::from_bits).collect();
        let proper: Vec<IdSet> = subsets[..7].to_vec();
        let mut rounds = Vec::new();
        for &a in &proper {
            for &b in &proper {
                for &c in &proper {
                    rounds.push(RoundFaults::from_sets(n, vec![a, b, c]));
                }
            }
        }
        assert_eq!(rounds.len(), 343);
        let ops = every_op();
        // Every register file a prefix can reach: any cumulative and
        // previous union, any immortal register (shared by the three
        // stabilization rounds), and round counts on both sides of each
        // stabilization.
        let mut contexts = Vec::new();
        for absorbed in 0..=4 {
            for &cum in &subsets {
                for &prev_union in &subsets {
                    for &register in &subsets {
                        contexts.push(HistoryCtx {
                            n,
                            rounds: absorbed,
                            cum,
                            prev_union,
                            immortal: (1..=3).map(|s| (Round::new(s), register)).collect(),
                        });
                    }
                }
            }
        }
        let base = HistoryCtx::for_programs(n, []);
        let mut reps: std::collections::HashMap<(Vec<bool>, [IdSet; 3]), usize> =
            std::collections::HashMap::new();
        let mut checked = 0;
        for (idx, round) in rounds.iter().enumerate() {
            let profile = RoundProfile::of(round);
            let statics: Vec<bool> = ops
                .iter()
                .filter(|op| op.is_static())
                .map(|op| op.eval(&base, &profile))
                .collect();
            let key = (statics, ProgOp::history_key(&profile));
            let rep = *reps.entry(key).or_insert(idx);
            if rep == idx {
                continue;
            }
            let rep_profile = RoundProfile::of(&rounds[rep]);
            for ctx in &contexts {
                for op in &ops {
                    assert_eq!(
                        op.eval(ctx, &profile),
                        op.eval(ctx, &rep_profile),
                        "{op:?} splits {round:?} from {:?} under {ctx:?}",
                        rounds[rep]
                    );
                }
            }
            checked += 1;
        }
        assert!(reps.len() < rounds.len(), "some rounds must share a class");
        assert_eq!(reps.len() + checked, rounds.len());
    }

    #[test]
    fn contexts_sharing_a_register_key_get_equal_verdicts_and_successors() {
        let n = n3();
        let subsets: Vec<IdSet> = (0..8u128).map(IdSet::from_bits).collect();
        let mut profiles = Vec::new();
        for &a in &subsets[..7] {
            for &b in &subsets[..7] {
                for &c in &subsets[..7] {
                    profiles.push(RoundProfile::of(&RoundFaults::from_sets(n, vec![a, b, c])));
                }
            }
        }
        assert_eq!(profiles.len(), 343);
        let ops = every_op();
        let stabilizations: Vec<PredicateProgram> = (1..=3)
            .map(|s| {
                PredicateProgram::of(
                    n,
                    ProgOp::ImmortalSurvives {
                        stabilization: Round::new(s),
                    },
                )
            })
            .collect();
        let saturation = 3;
        // Every context reached by absorbing a sequence of round unions,
        // up to two rounds past the saturation point, each distinct
        // register file and round count kept once.
        let mut frontier = vec![HistoryCtx::for_programs(n, &stabilizations)];
        let mut contexts = Vec::new();
        let mut raw = std::collections::HashSet::new();
        for len in 0..=saturation + 2 {
            for ctx in &frontier {
                if raw.insert((ctx.rounds, ctx.cum, ctx.prev_union, ctx.immortal.clone())) {
                    contexts.push(ctx.clone());
                }
            }
            if len < saturation + 2 {
                frontier = frontier
                    .iter()
                    .flat_map(|ctx| {
                        subsets.iter().map(move |&union| {
                            let mut next = ctx.clone();
                            next.absorb_union(union);
                            next
                        })
                    })
                    .collect();
            }
        }
        let mut groups = std::collections::HashMap::new();
        let mut merged_rounds = 0;
        for ctx in &contexts {
            let verdicts: Vec<bool> = ops
                .iter()
                .flat_map(|op| profiles.iter().map(move |p| op.eval(ctx, p)))
                .collect();
            let successors: Vec<_> = subsets
                .iter()
                .map(|&union| {
                    let mut next = ctx.clone();
                    next.absorb_union(union);
                    next.register_key()
                })
                .collect();
            match groups.entry(ctx.register_key()) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert((ctx.rounds, verdicts, successors));
                }
                std::collections::hash_map::Entry::Occupied(slot) => {
                    let (rounds, first_verdicts, first_successors) = slot.get();
                    assert!(
                        *first_verdicts == verdicts,
                        "an op splits {ctx:?} from a context with its key"
                    );
                    assert_eq!(*first_successors, successors, "successors of {ctx:?}");
                    if *rounds != ctx.rounds {
                        merged_rounds += 1;
                    }
                }
            }
        }
        assert!(
            groups.len() < contexts.len(),
            "some contexts must share a key"
        );
        assert!(
            merged_rounds > 0,
            "saturation must merge distinct round counts"
        );
    }

    #[test]
    fn a_profile_built_for_an_ops_needs_gives_the_full_profiles_verdict() {
        let n = n3();
        let subsets: Vec<IdSet> = (0..8u128).map(IdSet::from_bits).collect();
        let mut rounds = Vec::new();
        for &a in &subsets[..7] {
            for &b in &subsets[..7] {
                for &c in &subsets[..7] {
                    rounds.push(RoundFaults::from_sets(n, vec![a, b, c]));
                }
            }
        }
        assert_eq!(rounds.len(), 343);
        let stabilizations: Vec<PredicateProgram> = (1..=3)
            .map(|s| {
                PredicateProgram::of(
                    n,
                    ProgOp::ImmortalSurvives {
                        stabilization: Round::new(s),
                    },
                )
            })
            .collect();
        // Every register file reachable in at most 3 rounds, once each.
        // Absorbing a round reads only its union, and every subset is the
        // union of some round.
        let mut contexts = vec![HistoryCtx::for_programs(n, &stabilizations)];
        let mut seen = std::collections::HashSet::new();
        let mut next = 0;
        while next < contexts.len() {
            let ctx = contexts[next].clone();
            next += 1;
            if ctx.rounds == 3 {
                continue;
            }
            for &union in &subsets {
                let mut successor = ctx.clone();
                successor.absorb_union(union);
                let key = (
                    successor.rounds,
                    successor.cum,
                    successor.prev_union,
                    successor.immortal.clone(),
                );
                if seen.insert(key) {
                    contexts.push(successor);
                }
            }
        }
        let full: Vec<RoundProfile> = rounds.iter().map(RoundProfile::of).collect();
        for op in every_op() {
            let needs = op.needs();
            for (round, full) in rounds.iter().zip(&full) {
                let partial = RoundProfile::with_needs(round, needs);
                for ctx in &contexts {
                    assert_eq!(
                        op.eval(ctx, &partial),
                        op.eval(ctx, full),
                        "{op:?} on {round:?} under {ctx:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_batch_profiles_only_what_its_programs_read() {
        let n = n3();
        let crash = PredicateProgram::all(
            n,
            vec![
                ProgOp::FootprintAtMost(1),
                ProgOp::SelfTrustFresh,
                ProgOp::PrevUnionSticky,
            ],
        );
        let batch = ProgramBatch::new(n, vec![crash]);
        assert_eq!(batch.needs, need::SELF_MASKS);
        let zoo = ProgramBatch::new(
            n,
            every_op()
                .into_iter()
                .map(|op| PredicateProgram::of(n, op))
                .collect(),
        );
        assert_eq!(zoo.needs, need::ALL);
        assert_eq!(
            ProgramBatch::new(n, vec![PredicateProgram::always(n)]).needs,
            0
        );
    }

    #[test]
    fn batch_packs_verdicts_and_counts_evals() {
        let n = n3();
        let tight = PredicateProgram::of(n, ProgOp::PerProcAtMost(0));
        let loose = PredicateProgram::of(n, ProgOp::PerProcAtMost(2));
        let mut batch = ProgramBatch::new(n, vec![tight, loose]);
        let profile = RoundProfile::of(&rf(n, &[&[1], &[], &[]]));
        // Live bits past the last program are ignored.
        let verdicts = batch.eval_round(&profile, !0);
        assert_eq!(verdicts, 0b10);
        assert_eq!(batch.evals(), 2);
        // Masking out a live bit skips its evaluation entirely.
        let verdicts = batch.eval_round(&profile, 0b001);
        assert_eq!(verdicts, 0);
        assert_eq!(batch.evals(), 3);
        batch.absorb_profile(&profile);
        assert_eq!(batch.rounds(), 1);
    }
}
