//! The compiled predicate plane: a small, exact IR for round predicates.
//!
//! Every predicate in the paper's zoo judges a candidate round through a
//! handful of word-level facts about the suspicion sets `D(i,r)` — unions,
//! intersections, cardinality bounds, self-suspicion masks — plus a few
//! summary registers folded over the history prefix (the cumulative union,
//! the previous round's union, the surviving "immortal" candidates of ◊S).
//! A [`PredicateProgram`] captures a predicate as a disjunction of
//! conjunctions of such [`ProgOp`] facts, so that:
//!
//! * one [`RoundProfile`] (computed once per candidate round) serves every
//!   program — the per-program residue is a few `u128` word operations;
//! * a [`HistoryCtx`] replaces the `O(r)` history re-walk that the dyn
//!   `admits` path performs per round (`cumulative_union` and friends) with
//!   `O(1)` incremental register updates, making whole-pattern checks `O(r)`
//!   instead of `O(r²)`;
//! * a [`ProgramBatch`] evaluates *all* compiled predicates of a family
//!   against one `RoundFaults` in a single pass, returning the verdicts as a
//!   packed bitmask.
//!
//! Compilation is **exact or absent**: [`RrfdPredicate::compile`] returns a
//! program whose verdicts equal the dyn `admits` verdicts on every input
//! (well-formed or not), or `None` to stay on the dyn path. The differential
//! suite in `tests/predicate_compile_equivalence.rs` enforces the contract
//! for the whole zoo.
//!
//! [`RrfdPredicate::compile`]: crate::predicate::RrfdPredicate::compile

use crate::id::{Round, SystemSize, MAX_PROCESSES};
use crate::idset::IdSet;
use crate::pattern::{FaultPattern, RoundFaults};
use std::sync::Arc;

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
    len_hist: [u16; MAX_PROCESSES + 1],
    identical: bool,
    chain_ok: bool,
    antisym_ok: bool,
}

impl RoundProfile {
    /// Profiles one round: one linear scan over the suspicion sets plus a
    /// pairwise containment check (the sets are `u128` words, so every
    /// comparison is a couple of machine operations). Both pairwise checks
    /// stop at their first counterexample, and identical views are a chain
    /// without any check.
    #[must_use]
    pub fn of(round: &RoundFaults) -> Self {
        let n = round.system_size();
        let mut union = IdSet::empty();
        let mut intersection = IdSet::universe(n);
        let mut self_suspects = IdSet::empty();
        let mut sticky_core = IdSet::universe(n);
        let mut max_len = 0usize;
        let mut len_hist = [0u16; MAX_PROCESSES + 1];
        let mut identical = true;
        let mut antisym_ok = true;
        let first = round.of(crate::id::ProcessId::new(0));
        for (i, d) in round.iter() {
            union = union.union(d);
            intersection = intersection.intersection(d);
            sticky_core = sticky_core.intersection(d.union(IdSet::singleton(i)));
            if d.contains(i) {
                self_suspects.insert(i);
            }
            let len = d.len();
            max_len = max_len.max(len);
            len_hist[len] += 1;
            identical &= d == first;
            antisym_ok = antisym_ok && d.iter().all(|j| !round.of(j).contains(i));
        }
        let sets = round.as_slice();
        let chain_ok = identical
            || sets.iter().enumerate().all(|(a, da)| {
                sets.iter()
                    .skip(a + 1)
                    .all(|db| da.is_subset(*db) || db.is_subset(*da))
            });
        RoundProfile {
            union,
            intersection,
            self_suspects,
            sticky_core,
            max_len,
            len_hist,
            identical,
            chain_ok,
            antisym_ok,
        }
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
/// Absorbing a round is `O(1)` in the history length, which is what turns
/// whole-pattern checks from `O(r²)` (dyn `admits` re-walking the prefix
/// every round) into `O(r)`.
#[derive(Debug, Clone)]
pub struct HistoryCtx {
    n: SystemSize,
    rounds: u32,
    cum: IdSet,
    prev_union: IdSet,
    unions: Vec<IdSet>,
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
            unions: Vec::new(),
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
        self.unions.clear();
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
    /// Unregistered stabilizations fold the recorded per-round unions
    /// instead and are not covered.
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
        self.unions.push(union);
        let absorbed = self.rounds;
        for (stab, register) in &mut self.immortal {
            if absorbed > stab.get() {
                *register = register.difference(union);
            }
        }
    }

    /// The ◊S immortal candidates for `stabilization`: every process not
    /// suspected after that round, `S ∖ ⋃_{r > stabilization} ⋃ᵢ D(i,r)`.
    /// Registered stabilizations are `O(1)`; an unregistered one falls back
    /// to an exact fold over the recorded per-round unions.
    #[must_use]
    pub fn immortal(&self, stabilization: Round) -> IdSet {
        if let Some((_, register)) = self.immortal.iter().find(|(s, _)| *s == stabilization) {
            return *register;
        }
        let mut survivors = IdSet::universe(self.n);
        for (idx, union) in self.unions.iter().enumerate() {
            if idx as u32 + 1 > stabilization.get() {
                survivors = survivors.difference(*union);
            }
        }
        survivors
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

    /// Checks an entire pattern in `O(rounds)` total work by absorbing each
    /// round into an incremental [`HistoryCtx`].
    #[must_use]
    pub fn admits_pattern(&self, pattern: &FaultPattern) -> bool {
        let mut ctx = HistoryCtx::for_programs(self.n, [self]);
        for (_, round) in pattern.iter() {
            let profile = RoundProfile::of(round);
            if !self.eval(&ctx, &profile) {
                return false;
            }
            ctx.absorb_profile(&profile);
        }
        true
    }
}

/// A family of compiled programs evaluated together: one [`RoundProfile`]
/// per observed round, one packed `u128` verdict mask per evaluation.
///
/// Slots mirror an external predicate family index-for-index; a `None` slot
/// marks a predicate that declined to compile and stays on the dyn path.
/// The programs are shared: cloning a batch (say, a fresh one used as a
/// per-run template) copies only its history registers.
#[derive(Debug, Clone)]
pub struct ProgramBatch {
    n: SystemSize,
    slots: Arc<[Option<PredicateProgram>]>,
    compiled: u128,
    ctx: HistoryCtx,
    evals: u64,
}

impl ProgramBatch {
    /// Builds a batch over a family's compiled slots (at most 128).
    #[must_use]
    pub fn new(n: SystemSize, slots: Vec<Option<PredicateProgram>>) -> Self {
        assert!(
            slots.len() <= 128,
            "a ProgramBatch packs verdicts into a u128: at most 128 slots"
        );
        let mut compiled = 0u128;
        for (idx, slot) in slots.iter().enumerate() {
            if let Some(program) = slot {
                assert_eq!(
                    program.system_size(),
                    n,
                    "batched programs must share a system size"
                );
                compiled |= 1u128 << idx;
            }
        }
        let ctx = HistoryCtx::for_programs(n, slots.iter().flatten());
        ProgramBatch {
            n,
            slots: slots.into(),
            compiled,
            ctx,
            evals: 0,
        }
    }

    /// The system size the batch is defined over.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// Number of slots (compiled or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the batch has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bitmask of slots that carry a compiled program.
    #[must_use]
    pub fn compiled_mask(&self) -> u128 {
        self.compiled
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

    /// Evaluates every compiled slot in `live` against one profiled round,
    /// without absorbing it. Bit `i` of the result is the verdict of slot
    /// `i`; bits outside `live ∩ compiled_mask()` are zero.
    pub fn eval_round(&mut self, profile: &RoundProfile, live: u128) -> u128 {
        let mut verdicts = 0u128;
        let mut todo = live & self.compiled;
        while todo != 0 {
            let idx = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            if let Some(program) = &self.slots[idx] {
                self.evals += 1;
                if program.eval(&self.ctx, profile) {
                    verdicts |= 1u128 << idx;
                }
            }
        }
        verdicts
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
        // Round 2 erodes process 0; the unregistered fallback agrees.
        let registered = ctx.immortal(Round::new(1));
        assert!(!registered.contains(ProcessId::new(0)));
        assert_eq!(registered.len(), 2);
        assert_eq!(ctx.immortal(Round::new(2)), IdSet::universe(n));
        assert_eq!(ctx.register_key().1.len(), 2);
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
                            unions: Vec::new(),
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
        // up to two rounds past the saturation point. Contexts whose
        // registers and round count coincide are kept once: they differ
        // only in the recorded unions, which registered stabilizations
        // never read.
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
    fn batch_packs_verdicts_and_counts_evals() {
        let n = n3();
        let tight = PredicateProgram::of(n, ProgOp::PerProcAtMost(0));
        let loose = PredicateProgram::of(n, ProgOp::PerProcAtMost(2));
        let mut batch = ProgramBatch::new(n, vec![Some(tight), None, Some(loose)]);
        assert_eq!(batch.compiled_mask(), 0b101);
        let profile = RoundProfile::of(&rf(n, &[&[1], &[], &[]]));
        let verdicts = batch.eval_round(&profile, !0);
        assert_eq!(verdicts, 0b100);
        assert_eq!(batch.evals(), 2);
        // Masking out a live bit skips its evaluation entirely.
        let verdicts = batch.eval_round(&profile, 0b001);
        assert_eq!(verdicts, 0);
        assert_eq!(batch.evals(), 3);
        batch.absorb_profile(&profile);
        assert_eq!(batch.rounds(), 1);
    }
}
