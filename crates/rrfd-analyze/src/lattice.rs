//! The predicate-implication lattice, machine-checked.
//!
//! Section 2 of the paper orders its example models by the submodel
//! relation: model `A` is a submodel of `B` exactly when `P_A ⇒ P_B`, i.e.
//! every fault pattern `A` permits is also permitted by `B`. The paper
//! states these orderings ("the crash model is a submodel of the omission
//! model", "P_eq refines k-uncertainty", …) as prose; this module *decides*
//! them by bounded-exhaustive enumeration and renders the resulting Hasse
//! diagram, so the lattice printed in `EXPERIMENTS.md` is a checked
//! artifact rather than a transcription.
//!
//! The decision procedure is sound for refutations and bounded for
//! confirmations: a counterexample pattern is a genuine witness that
//! `A ⇏ B` (and converts into a replayable [`RunTrace`] certificate via
//! [`certificate`]), while "implies" means "implies on every pattern of at
//! most `max_rounds` rounds over this system size". All the zoo's
//! predicates are prefix-closed and round-local with short memory, so the
//! bound is a real check, not a heuristic.

use rrfd_core::{
    FaultPattern, HistoryCtx, IdSet, PredicateProgram, ProgOp, Round, RoundFaults, RoundProfile,
    RrfdPredicate, RunTrace, SystemSize,
};
use rrfd_models::enumerate::all_rounds;
use rrfd_models::zoo::compile_family;
/// The zoo family and its boxed element type now live in `rrfd-models`
/// (the conformance monitor evaluates them against live runs); they are
/// re-exported here so lattice callers keep their import paths.
pub use rrfd_models::zoo::{zoo, SharedPredicate};
use std::fmt::Write as _;

/// The name of the `EXPERIMENTS.md` block that `rrfd-analyze lattice
/// --check/--update` owns (see [`crate::blocks`]).
pub const BLOCK: &str = "lattice";

/// A witness that `A ⇏ B`: an `A`-legal pattern whose final round `B`
/// rejects (every proper prefix is legal for both).
#[derive(Debug, Clone)]
pub struct LatticeCounterexample {
    /// The witnessing pattern; legal for `A`, rejected by `B` at its final
    /// round.
    pub pattern: FaultPattern,
    /// The round (the pattern's last) at which `B` rejects.
    pub rejected_round: Round,
    /// `B`'s name, for the certificate outcome.
    pub rejecting_predicate: String,
}

/// Decides `P_A ⇒ P_B` over all fault patterns of at most `max_rounds`
/// rounds, by depth-first enumeration of `A`-legal patterns on the two
/// compiled programs: the search [`Lattice::compute_compiled`] runs for
/// its witnesses, over one [`HistoryCtx`] for both programs.
///
/// # Errors
///
/// Returns the first [`LatticeCounterexample`] found — an `A`-legal
/// pattern that `B` rejects.
///
/// # Panics
///
/// Panics when the predicates disagree on system size, when either does
/// not compile onto the predicate plane, or when the size exceeds the
/// exhaustive-enumeration bound of `rrfd-models`.
pub fn implies(
    a: &dyn RrfdPredicate,
    b: &dyn RrfdPredicate,
    max_rounds: u32,
) -> Result<(), LatticeCounterexample> {
    let n = a.system_size();
    assert_eq!(
        n,
        b.system_size(),
        "implication needs a common process universe"
    );
    let mut programs = Vec::with_capacity(2);
    for predicate in [a, b] {
        let program = predicate.compile();
        assert!(
            program.is_some(),
            "{} does not compile onto the predicate plane",
            predicate.name()
        );
        programs.extend(program);
    }
    let rounds: Vec<RoundFaults> = all_rounds(n).collect();
    let profiles: Vec<RoundProfile> = rounds.iter().map(RoundProfile::of).collect();
    let base_ctx = HistoryCtx::for_programs(n, &programs);
    WitnessSearch {
        n,
        rounds: &rounds,
        profiles: &profiles,
        base_ctx: &base_ctx,
        max_rounds,
    }
    .implies(&programs[0], &programs[1], &b.name())
}

/// Converts a counterexample into a replayable [`RunTrace`] certificate,
/// [`RunTrace::predicate_rejection`] of the witnessing pattern at `B`'s
/// rejecting round. Re-driving the trace with
/// `rrfd_models::adversary::ReplayDetector` against model `B` reproduces
/// the violation at the recorded round; against model `A` the same moves
/// are accepted.
#[must_use]
pub fn certificate(cex: &LatticeCounterexample) -> RunTrace {
    RunTrace::predicate_rejection(
        &cex.pattern,
        cex.rejected_round,
        cex.rejecting_predicate.clone(),
    )
}

/// The computed lattice: the full implication matrix over a predicate
/// family, plus the parameters it was computed with.
pub struct Lattice {
    names: Vec<String>,
    /// `matrix[i][j]` is `true` when predicate `i` implies predicate `j`
    /// (within the bound).
    matrix: Vec<Vec<bool>>,
    n: SystemSize,
    max_rounds: u32,
    /// Counterexamples for every refuted pair, keyed by `(i, j)` and
    /// sorted by key.
    counterexamples: Vec<((usize, usize), LatticeCounterexample)>,
}

impl Lattice {
    /// Computes the implication matrix over `predicates` with patterns of
    /// at most `max_rounds` rounds, on the compiled predicate plane: one
    /// shared prefix trie instead of `len²` independent pair searches.
    ///
    /// A per-pair search ([`implies`]) re-enumerates the `A ∧ B`-legal
    /// prefixes for every pair. Here each shared prefix is visited
    /// **once** for all pairs: a `u128` legality mask tracks which
    /// predicates still admit the prefix, compiled programs
    /// ([`RrfdPredicate::compile`]) are evaluated against one
    /// [`RoundProfile`] per class of observably equivalent candidate rounds (see [`ProgOp::history_key`]; static
    /// programs are precomputed into per-class verdict masks before the
    /// walk starts, dynamic ones once per reachable register file, see
    /// [`HistoryCtx::register_key`]), and a subtree is abandoned as soon
    /// as it can no longer refute any still-open pair.
    ///
    /// The result — matrix and every counterexample — is identical to
    /// deciding each pair with [`implies`]: a pair is refuted here iff a
    /// jointly-legal prefix extends to a round `A` admits and `B`
    /// rejects, which is [`implies`]'s termination condition, and each
    /// refuted pair's witness is then found by [`implies`]'s own search,
    /// run on the family's programs and profiles.
    ///
    /// # Panics
    ///
    /// Panics when the family is empty, spans different system sizes, has
    /// more than 128 members (legality is packed into a `u128`), or has a
    /// member that does not compile (see [`compile_family`]).
    #[must_use]
    pub fn compute_compiled(predicates: &[SharedPredicate], max_rounds: u32) -> Self {
        let first = predicates
            .first()
            .unwrap_or_else(|| panic!("lattice needs at least one predicate"));
        let n = first.system_size();
        let len = predicates.len();
        assert!(
            len <= 128,
            "the shared-trie walk packs prefix legality into a u128"
        );
        for p in predicates {
            assert_eq!(
                p.system_size(),
                n,
                "implication needs a common process universe"
            );
        }
        let names: Vec<String> = predicates.iter().map(|p| p.name()).collect();

        let rounds: Vec<RoundFaults> = all_rounds(n).collect();
        let profiles: Vec<RoundProfile> = rounds.iter().map(RoundProfile::of).collect();
        let programs = compile_family(predicates);
        // The family is non-empty and at most 128 strong.
        let all_mask = u128::MAX >> (128 - len);
        let mut static_mask = 0u128;
        for (i, program) in programs.iter().enumerate() {
            if program.is_static() {
                static_mask |= 1u128 << i;
            }
        }
        let dynamic_mask = all_mask & !static_mask;
        let base_ctx = HistoryCtx::for_programs(n, &programs);
        let (classes, union_reps) = round_classes(&profiles, &programs, static_mask, &base_ctx);

        let mut pending: Vec<u128> = (0..len).map(|i| all_mask & !(1u128 << i)).collect();

        // Static × static pairs are prefix-independent: `i ⇒ j` is refuted
        // iff some single round is admitted by `i` and rejected by `j`,
        // which the precomputed per-class masks answer directly — those
        // pairs never enter the walk at all.
        let mut refuted: Vec<(usize, usize)> = Vec::new();
        let mut static_true: Vec<u128> = vec![0u128; len];
        if max_rounds >= 1 {
            for class in &classes {
                let rej = static_mask & !class.static_adm;
                let mut admitters = static_mask & class.static_adm;
                while admitters != 0 {
                    let i = admitters.trailing_zeros() as usize;
                    admitters &= admitters - 1;
                    let mut hits = pending[i] & rej;
                    if hits == 0 {
                        continue;
                    }
                    pending[i] &= !hits;
                    while hits != 0 {
                        let j = hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        refuted.push((i, j));
                    }
                }
            }
            for (i, row) in pending.iter_mut().enumerate() {
                if static_mask & (1u128 << i) == 0 {
                    continue;
                }
                static_true[i] = *row & static_mask;
                *row &= !static_mask;
            }
        }

        let mut walker = TrieWalker {
            profiles: &profiles,
            programs: &programs,
            classes: &classes,
            union_reps: &union_reps,
            dynamic_mask,
            max_rounds,
            pending,
            refuted,
            files: Vec::new(),
            ids: std::collections::HashMap::new(),
            seen: std::collections::HashSet::new(),
        };
        let root = walker.intern(base_ctx.clone());
        walker.walk(root, all_mask);
        let TrieWalker {
            pending, refuted, ..
        } = walker;

        let mut matrix = vec![vec![false; len]; len];
        for (i, row) in matrix.iter_mut().enumerate() {
            row[i] = true;
        }
        // Pairs still pending after an exhaustive walk were never refuted
        // within the bound: they imply, exactly as in the per-pair search.
        for (i, row) in pending.iter().enumerate() {
            let mut row = *row | static_true[i];
            while row != 0 {
                let j = row.trailing_zeros() as usize;
                row &= row - 1;
                matrix[i][j] = true;
            }
        }
        // Canonical witnesses: each refuted pair's counterexample is the
        // first one `implies` meets, so the recorded witnesses are
        // independent of walk order and state merging.
        let witnesses = WitnessSearch {
            n,
            rounds: &rounds,
            profiles: &profiles,
            base_ctx: &base_ctx,
            max_rounds,
        };
        let mut counterexamples: Vec<_> = refuted
            .into_iter()
            .map(|(i, j)| {
                let cex = witnesses
                    .implies(&programs[i], &programs[j], &names[j])
                    .expect_err("the shared-trie walk refuted this pair, so a witness exists");
                ((i, j), cex)
            })
            .collect();
        counterexamples.sort_by_key(|&((i, j), _)| (i, j));
        Lattice {
            names,
            matrix,
            n,
            max_rounds,
            counterexamples,
        }
    }

    /// The predicate names, in matrix order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether predicate `i` implies predicate `j` (within the bound).
    #[must_use]
    pub fn implies_at(&self, i: usize, j: usize) -> bool {
        self.matrix[i][j]
    }

    /// The counterexample refuting `i ⇒ j`, when one was found.
    #[must_use]
    pub fn counterexample(&self, i: usize, j: usize) -> Option<&LatticeCounterexample> {
        self.counterexamples
            .binary_search_by_key(&(i, j), |&(pair, _)| pair)
            .ok()
            .map(|k| &self.counterexamples[k].1)
    }

    /// Groups the predicates into equivalence classes (mutual implication),
    /// each class listing its member indices in matrix order.
    #[must_use]
    pub fn equivalence_classes(&self) -> Vec<Vec<usize>> {
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.names.len() {
            if let Some(class) = classes
                .iter_mut()
                .find(|c| self.matrix[c[0]][i] && self.matrix[i][c[0]])
            {
                class.push(i);
            } else {
                classes.push(vec![i]);
            }
        }
        classes
    }

    /// The Hasse cover edges between equivalence classes: `(lower, upper)`
    /// pairs of class representatives where `lower ⇒ upper` strictly and no
    /// third class sits between them.
    #[must_use]
    pub fn cover_edges(&self) -> Vec<(usize, usize)> {
        let classes = self.equivalence_classes();
        let reps: Vec<usize> = classes.iter().map(|c| c[0]).collect();
        let strict = |a: usize, b: usize| self.matrix[a][b] && !self.matrix[b][a];
        let mut edges = Vec::new();
        for &lo in &reps {
            for &hi in &reps {
                if !strict(lo, hi) {
                    continue;
                }
                let covered = reps
                    .iter()
                    .any(|&mid| mid != lo && mid != hi && strict(lo, mid) && strict(mid, hi));
                if !covered {
                    edges.push((lo, hi));
                }
            }
        }
        edges
    }

    /// Renders the lattice as the markdown block recorded in
    /// `EXPERIMENTS.md`: the implication matrix, the equivalence classes,
    /// and the Hasse cover edges. Deterministic, so `--check` can diff it.
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Machine-checked over every fault pattern with ≤ {} rounds, n = {} \
             (bounded-exhaustive enumeration; ✓ row ⇒ column).",
            self.max_rounds,
            self.n.get()
        );
        let _ = writeln!(out);
        // Matrix header: predicates numbered in zoo order.
        let _ = writeln!(out, "| # | predicate | {} |", {
            let cols: Vec<String> = (1..=self.names.len()).map(|i| i.to_string()).collect();
            cols.join(" | ")
        });
        let dashes: Vec<&str> = (0..self.names.len() + 2).map(|_| "---").collect();
        let _ = writeln!(out, "|{}|", dashes.join("|"));
        for (i, name) in self.names.iter().enumerate() {
            let cells: Vec<&str> = (0..self.names.len())
                .map(|j| {
                    if i == j {
                        "·"
                    } else if self.matrix[i][j] {
                        "✓"
                    } else {
                        "×"
                    }
                })
                .collect();
            let _ = writeln!(out, "| {} | `{}` | {} |", i + 1, name, cells.join(" | "));
        }
        let _ = writeln!(out);
        let classes = self.equivalence_classes();
        let _ = writeln!(out, "Equivalence classes (mutual implication):");
        let _ = writeln!(out);
        for class in &classes {
            let members: Vec<String> = class
                .iter()
                .map(|&i| format!("`{}`", self.names[i]))
                .collect();
            let _ = writeln!(out, "- {}", members.join(" = "));
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Hasse cover edges (strictest below, `A → B` meaning `P_A ⇒ P_B` strictly, \
             nothing in between):"
        );
        let _ = writeln!(out);
        for (lo, hi) in self.cover_edges() {
            let _ = writeln!(out, "- `{}` → `{}`", self.names[lo], self.names[hi]);
        }
        out
    }

    /// Renders the lattice as one JSON object (`rrfd-lattice v1`) for
    /// scripted consumers: parameters, predicate names, the implication
    /// matrix, equivalence classes, and Hasse cover edges — the same
    /// content as [`Lattice::render_markdown`], machine-readable.
    #[must_use]
    pub fn render_json(&self) -> String {
        use crate::jsonout::str_array;
        use rrfd_obs::json;
        let mut out = String::from(
            "{\n  \"tool\": \"rrfd-analyze lattice\",\n  \"format\": \"rrfd-lattice v1\",\n",
        );
        let _ = writeln!(out, "  \"n\": {},", self.n.get());
        let _ = writeln!(out, "  \"max_rounds\": {},", self.max_rounds);
        let _ = writeln!(out, "  \"predicates\": {},", str_array(&self.names));
        let rows: Vec<String> = self
            .matrix
            .iter()
            .map(|row| {
                let cells: Vec<&str> = row
                    .iter()
                    .map(|&b| if b { "true" } else { "false" })
                    .collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        let _ = writeln!(out, "  \"implies\": [{}],", rows.join(", "));
        let classes: Vec<String> = self
            .equivalence_classes()
            .iter()
            .map(|class| {
                let members: Vec<String> = class
                    .iter()
                    .map(|&i| format!("\"{}\"", json::escape(&self.names[i])))
                    .collect();
                format!("[{}]", members.join(", "))
            })
            .collect();
        let _ = writeln!(out, "  \"equivalence_classes\": [{}],", classes.join(", "));
        let edges: Vec<String> = self
            .cover_edges()
            .iter()
            .map(|&(lo, hi)| {
                format!(
                    "[\"{}\", \"{}\"]",
                    json::escape(&self.names[lo]),
                    json::escape(&self.names[hi])
                )
            })
            .collect();
        let _ = writeln!(out, "  \"cover_edges\": [{}]", edges.join(", "));
        out.push_str("}\n");
        out
    }
}

/// One class of observably equivalent candidate rounds: the rounds agree
/// on every static program's verdict, on every static op the dynamic
/// programs contain, and on [`ProgOp::history_key`], so every compiled
/// program judges them alike in every context and absorbing any of them
/// yields the same registers.
struct RoundClass {
    /// Index of the class's first round, the one the walk evaluates.
    rep: usize,
    /// Verdict mask of the static programs on this class.
    static_adm: u128,
    /// Dense id of the class's round union, in order of first class.
    union: usize,
}

/// Quotients the candidate rounds into [`RoundClass`]es, in order of
/// first member. Also returns, per union id, the first round with that
/// union.
fn round_classes(
    profiles: &[RoundProfile],
    programs: &[PredicateProgram],
    static_mask: u128,
    base_ctx: &HistoryCtx,
) -> (Vec<RoundClass>, Vec<usize>) {
    let mut inner_ops: Vec<ProgOp> = Vec::new();
    for program in programs.iter().filter(|p| !p.is_static()) {
        for &op in program.clauses().iter().flatten() {
            if op.is_static() && !inner_ops.contains(&op) {
                inner_ops.push(op);
            }
        }
    }
    let mut classes = Vec::new();
    let mut union_reps: Vec<usize> = Vec::new();
    let mut keys = std::collections::HashSet::new();
    for (rep, profile) in profiles.iter().enumerate() {
        let mut static_adm = 0u128;
        let mut todo = static_mask;
        while todo != 0 {
            let i = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            if programs[i].eval(base_ctx, profile) {
                static_adm |= 1u128 << i;
            }
        }
        let inner: Vec<bool> = inner_ops
            .iter()
            .map(|op| op.eval(base_ctx, profile))
            .collect();
        if !keys.insert((static_adm, inner, ProgOp::history_key(profile))) {
            continue;
        }
        let union = match union_reps
            .iter()
            .position(|&r| profiles[r].union() == profile.union())
        {
            Some(union) => union,
            None => {
                union_reps.push(rep);
                union_reps.len() - 1
            }
        };
        classes.push(RoundClass {
            rep,
            static_adm,
            union,
        });
    }
    (classes, union_reps)
}

/// One register file the walk has reached (see
/// [`HistoryCtx::register_key`]), interned under a dense id: what a trie
/// node needs of its prefix, computed once per file instead of once per
/// node.
struct RegisterFile {
    /// A context holding these registers: the first prefix to reach them.
    ctx: HistoryCtx,
    /// The distinct `(verdict mask, union id)` pairs over all classes, in
    /// order of first class: a round's refutations and its child are
    /// functions of its move.
    moves: Vec<(u128, usize)>,
    /// `succ[u]`: the id reached by absorbing union `u`, once needed.
    succ: Vec<Option<u32>>,
}

/// The level-synchronous shared-trie walk behind
/// [`Lattice::compute_compiled`]: one breadth-first traversal of the
/// jointly-legal prefix trie decides every still-open implication pair at
/// once. A state is a legality mask and the id of a register file; it is
/// expanded once, at the least depth it is reached, by applying each of
/// the file's moves. Witnesses are *not* collected here — refuted pairs
/// are re-derived canonically by [`WitnessSearch`] afterwards.
struct TrieWalker<'a> {
    profiles: &'a [RoundProfile],
    programs: &'a [PredicateProgram],
    classes: &'a [RoundClass],
    /// Per union id, a round with that union.
    union_reps: &'a [usize],
    /// Compiled programs that do read the history registers.
    dynamic_mask: u128,
    max_rounds: u32,
    /// `pending[i]` bit `j`: pair `(i, j)` still needs a verdict.
    pending: Vec<u128>,
    /// Pairs refuted so far, in discovery order.
    refuted: Vec<(usize, usize)>,
    /// The interned register files, indexed by id.
    files: Vec<RegisterFile>,
    /// Register key to id.
    ids: std::collections::HashMap<(u32, IdSet, IdSet, Vec<IdSet>), u32>,
    /// `(legal, id)` of every state already queued, at any depth.
    seen: std::collections::HashSet<(u128, u32)>,
}

impl TrieWalker<'_> {
    /// The legal predicates `j` of still-open pairs `(i, j)` whose members
    /// are both legal: a round refutes something only if it rejects one.
    fn open_targets(&self, legal: u128) -> u128 {
        let mut targets = 0u128;
        let mut li = legal;
        while li != 0 {
            let i = li.trailing_zeros() as usize;
            li &= li - 1;
            targets |= self.pending[i];
        }
        targets & legal
    }

    /// The id of `ctx`'s register file, interning it (and evaluating its
    /// move list) on first sight.
    fn intern(&mut self, ctx: HistoryCtx) -> u32 {
        let key = ctx.register_key();
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let mut moves = Vec::new();
        for class in self.classes {
            let profile = &self.profiles[class.rep];
            let mut adm = class.static_adm;
            let mut todo = self.dynamic_mask;
            while todo != 0 {
                let i = todo.trailing_zeros() as usize;
                todo &= todo - 1;
                if self.programs[i].eval(&ctx, profile) {
                    adm |= 1u128 << i;
                }
            }
            let mv = (adm, class.union);
            if !moves.contains(&mv) {
                moves.push(mv);
            }
        }
        let id = self.files.len() as u32;
        self.files.push(RegisterFile {
            ctx,
            moves,
            succ: vec![None; self.union_reps.len()],
        });
        self.ids.insert(key, id);
        id
    }

    /// The id reached from register file `id` by absorbing union `union`,
    /// filled in on first use.
    fn successor(&mut self, id: u32, union: usize) -> u32 {
        if let Some(next) = self.files[id as usize].succ[union] {
            return next;
        }
        let mut ctx = self.files[id as usize].ctx.clone();
        ctx.absorb_profile(&self.profiles[self.union_reps[union]]);
        let next = self.intern(ctx);
        self.files[id as usize].succ[union] = Some(next);
        next
    }

    /// Refutes every open pair `(i, j)` of legal predicates where `i`
    /// admits the round judged by `adm` and `j` rejects it. `targets` is
    /// [`TrieWalker::open_targets`] of `legal`, or a superset of it (as it
    /// stays while pairs are refuted).
    fn refute(&mut self, legal: u128, targets: u128, adm: u128) {
        let rejected = targets & !adm;
        if rejected == 0 {
            return;
        }
        let mut admitters = legal & adm;
        while admitters != 0 {
            let i = admitters.trailing_zeros() as usize;
            admitters &= admitters - 1;
            let mut hits = self.pending[i] & rejected;
            if hits == 0 {
                continue;
            }
            self.pending[i] &= !hits;
            while hits != 0 {
                let j = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                self.refuted.push((i, j));
            }
        }
    }

    /// Walks the trie level by level from `(root, legal)`: judges every
    /// legal predicate on each move of a state's register file (recording
    /// refutations of open pairs) and queues its unseen children that can
    /// still decide something, up to `max_rounds` levels. A state is
    /// expanded once, at its least depth, which loses nothing: pending
    /// pairs only shrink, and a shallower copy reaches every state a
    /// deeper one could, with rounds to spare.
    fn walk(&mut self, root: u32, legal: u128) {
        self.seen.insert((legal, root));
        let mut frontier = vec![(root, legal)];
        let mut next = Vec::new();
        // Children as (union id, legality). Absorbing a round reads only
        // its union, so a child is determined by (union, legality).
        let mut children: Vec<(usize, u128)> = Vec::new();
        for depth in 0..self.max_rounds {
            let expand = depth + 1 < self.max_rounds;
            for &(id, legal) in &frontier {
                let targets = self.open_targets(legal);
                if targets == 0 {
                    continue;
                }
                children.clear();
                for m in 0..self.files[id as usize].moves.len() {
                    let (adm, union) = self.files[id as usize].moves[m];
                    self.refute(legal, targets, adm);
                    let child = legal & adm;
                    if expand && !children.contains(&(union, child)) {
                        children.push((union, child));
                    }
                }
                for &(union, child) in &children {
                    if self.open_targets(child) == 0 {
                        continue;
                    }
                    let succ = self.successor(id, union);
                    if self.seen.insert((child, succ)) {
                        next.push((succ, child));
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
    }
}

/// The per-pair search behind [`implies`] and the witnesses of
/// [`Lattice::compute_compiled`]: a depth-first walk of the `a`-legal
/// prefixes, candidate rounds in [`all_rounds`] order, every round judged
/// by compiled programs against one [`HistoryCtx`] refolded per prefix.
/// The profiles and the context are borrowed, so the lattice shares its
/// precomputed ones with every refuted pair.
struct WitnessSearch<'a> {
    n: SystemSize,
    rounds: &'a [RoundFaults],
    profiles: &'a [RoundProfile],
    /// Empty-history registers for every program of the family.
    base_ctx: &'a HistoryCtx,
    max_rounds: u32,
}

impl WitnessSearch<'_> {
    /// Decides `a ⇒ b`: `Err` holds the first `a`-legal pattern `b`
    /// rejects at its final round; `b_name` names the rejecting
    /// predicate.
    fn implies(
        &self,
        a: &PredicateProgram,
        b: &PredicateProgram,
        b_name: &str,
    ) -> Result<(), LatticeCounterexample> {
        // Prefixes are nodes of a parent-linked arena (node 0 is the empty
        // prefix); the stack holds `(node, depth)`. Prefixes that reach
        // the depth bound are never pushed: nothing extends them.
        let mut nodes: Vec<(usize, usize)> = vec![(usize::MAX, usize::MAX)];
        let mut stack = vec![(0usize, 0u32)];
        let mut path: Vec<usize> = Vec::new();
        while let Some((node, depth)) = stack.pop() {
            if depth >= self.max_rounds {
                continue;
            }
            path.clear();
            let mut at = node;
            while at != 0 {
                path.push(nodes[at].1);
                at = nodes[at].0;
            }
            path.reverse();
            let mut ctx = self.base_ctx.clone();
            for &r in &path {
                ctx.absorb_profile(&self.profiles[r]);
            }
            for (r, profile) in self.profiles.iter().enumerate() {
                if !a.eval(&ctx, profile) {
                    continue;
                }
                if !b.eval(&ctx, profile) {
                    let mut pattern = FaultPattern::new(self.n);
                    for &p in path.iter().chain([&r]) {
                        pattern.push(self.rounds[p].clone());
                    }
                    let rejected_round = Round::new(pattern.rounds() as u32);
                    return Err(LatticeCounterexample {
                        pattern,
                        rejected_round,
                        rejecting_predicate: b_name.to_owned(),
                    });
                }
                if depth + 1 < self.max_rounds {
                    nodes.push((node, r));
                    stack.push((nodes.len() - 1, depth + 1));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::{Control, Delivery, Engine, EngineError, PatternViolation, RoundProtocol};
    use rrfd_models::adversary::ReplayDetector;
    use rrfd_models::predicates::{
        AsyncResilient, Crash, DetectorS, IdenticalViews, KUncertainty, SendOmission, Snapshot,
        Swmr, SystemB,
    };

    fn n3() -> SystemSize {
        SystemSize::new(3).unwrap()
    }

    /// A protocol that never decides: enough to re-drive a recorded
    /// adversary through the engine.
    struct Idle;
    impl RoundProtocol for Idle {
        type Msg = ();
        type Output = ();
        fn emit(&mut self, _r: Round) {}
        fn deliver(&mut self, _d: Delivery<'_, ()>) -> Control<()> {
            Control::Continue
        }
    }

    #[test]
    fn paper_implications_hold_on_bounded_patterns() {
        let n = n3();
        // The submodel claims of Section 2, each decided exhaustively.
        let cases: Vec<(Box<dyn RrfdPredicate>, Box<dyn RrfdPredicate>)> = vec![
            (
                Box::new(Crash::new(n, 1)),
                Box::new(SendOmission::new(n, 1)),
            ),
            (Box::new(Snapshot::new(n, 1)), Box::new(Swmr::new(n, 1))),
            (
                Box::new(Swmr::new(n, 1)),
                Box::new(AsyncResilient::new(n, 1)),
            ),
            // A(f) ⊆ B(f, t): at n = 3 the side condition 2t < n forces
            // the f = 0, t = 1 instance of the paper's claim.
            (
                Box::new(AsyncResilient::new(n, 0)),
                Box::new(SystemB::new(n, 0, 1)),
            ),
            (
                Box::new(IdenticalViews::new(n)),
                Box::new(KUncertainty::new(n, 1)),
            ),
            (
                Box::new(KUncertainty::new(n, 1)),
                Box::new(KUncertainty::new(n, 2)),
            ),
            (
                Box::new(SendOmission::new(n, 1)),
                Box::new(DetectorS::new(n)),
            ),
        ];
        for (a, b) in &cases {
            assert!(
                implies(a.as_ref(), b.as_ref(), 2).is_ok(),
                "{} should imply {}",
                a.name(),
                b.name()
            );
        }
    }

    #[test]
    fn false_implication_yields_a_replayable_certificate() {
        let n = n3();
        // Deliberately false: the asynchronous 1-resilient model permits
        // transient suspicion patterns the crash model forbids.
        let a = AsyncResilient::new(n, 1);
        let b = Crash::new(n, 1);
        let cex = implies(&a, &b, 2).expect_err("async ⇏ crash");
        assert!(a.admits_pattern(&cex.pattern), "witness must be A-legal");
        assert!(!b.admits_pattern(&cex.pattern), "witness must refute B");

        // The certificate replays: the same adversary moves, re-driven
        // against B through the engine, reproduce the recorded violation.
        let trace = certificate(&cex);
        let text = trace.to_string();
        let reparsed: RunTrace = text.parse().unwrap();
        assert_eq!(reparsed, trace);

        let mut replay = ReplayDetector::from_trace(&trace);
        let err = Engine::new(n)
            .run(vec![Idle, Idle, Idle], &mut replay, &b)
            .unwrap_err();
        match err {
            EngineError::Violation(PatternViolation::PredicateRejected { predicate, round }) => {
                assert_eq!(predicate, b.name());
                assert_eq!(round, cex.rejected_round);
            }
            other => panic!("expected B to reject the replay, got {other}"),
        }

        // Against A the very same moves are accepted (the run just hits
        // its round budget, since Idle never decides).
        let mut replay = ReplayDetector::from_trace(&trace);
        let err = Engine::new(n)
            .max_rounds(cex.pattern.rounds() as u32)
            .run(vec![Idle, Idle, Idle], &mut replay, &a)
            .unwrap_err();
        assert!(
            matches!(err, EngineError::RoundLimitExceeded { .. }),
            "A must accept the witness"
        );
    }

    #[test]
    fn implication_is_reflexive_and_antisymmetry_shows_in_classes() {
        let n = n3();
        let family: Vec<SharedPredicate> = vec![
            Box::new(Crash::new(n, 1)),
            Box::new(SendOmission::new(n, 1)),
            Box::new(KUncertainty::new(n, 1)),
            Box::new(IdenticalViews::new(n)),
        ];
        let lattice = Lattice::compute_compiled(&family, 1);
        for i in 0..family.len() {
            assert!(lattice.implies_at(i, i));
        }
        // k=1 uncertainty and identical views coincide... only for n=2;
        // at n=3 they are distinct predicates but IdenticalViews ⇒ KU(1).
        assert!(lattice.implies_at(3, 2));
        // Every refuted cell has a recorded counterexample.
        for i in 0..family.len() {
            for j in 0..family.len() {
                if !lattice.implies_at(i, j) {
                    assert!(lattice.counterexample(i, j).is_some(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn render_is_deterministic_and_carries_the_matrix() {
        let n = n3();
        let family: Vec<SharedPredicate> = vec![
            Box::new(Crash::new(n, 1)),
            Box::new(SendOmission::new(n, 1)),
        ];
        let lattice = Lattice::compute_compiled(&family, 1);
        let one = lattice.render_markdown();
        let two = Lattice::compute_compiled(&family, 1).render_markdown();
        assert_eq!(one, two);
        assert!(one.contains("✓"), "{one}");
        assert!(one.contains("Hasse cover edges"), "{one}");
    }

    #[test]
    fn compiled_walk_matches_the_legacy_matrix_and_rendering() {
        // The per-pair search is `implies` on every ordered pair; the
        // shared-trie walk must reproduce its verdicts and witnesses at
        // every depth.
        let n = n3();
        let family = zoo(n, 1);
        for depth in 1..=3 {
            let compiled = Lattice::compute_compiled(&family, depth);
            for i in 0..family.len() {
                for j in 0..family.len() {
                    let per_pair = if i == j {
                        Ok(())
                    } else {
                        implies(family[i].as_ref(), family[j].as_ref(), depth)
                    };
                    let at = format!("depth {depth}, ({i},{j})");
                    assert_eq!(compiled.implies_at(i, j), per_pair.is_ok(), "{at}");
                    let Err(expected) = per_pair else {
                        continue;
                    };
                    let cex = compiled
                        .counterexample(i, j)
                        .expect("every refuted pair carries a witness");
                    assert_eq!(cex.pattern, expected.pattern, "{at}");
                    assert!(
                        family[i].admits_pattern(&cex.pattern),
                        "{at}: witness must be legal for the antecedent"
                    );
                    assert!(
                        !family[j].admits_pattern(&cex.pattern),
                        "{at}: witness must refute the consequent"
                    );
                    assert_eq!(cex.rejected_round.get() as usize, cex.pattern.rounds());
                }
            }
        }
    }

    #[test]
    fn zoo_matrix_saturates_before_depth_eight() {
        // The walk's last queued level on zoo(3, 1) is depth 5, so a
        // deeper bound refutes nothing new. Only the matrices are
        // compared: the header names the bound, and witnesses are the
        // per-pair search's, which may change with it.
        let family = zoo(n3(), 1);
        let shallow = Lattice::compute_compiled(&family, 8);
        let deep = Lattice::compute_compiled(&family, 12);
        assert_eq!(shallow.matrix, deep.matrix);
    }

    #[test]
    fn compiled_witnesses_certify_like_legacy_ones() {
        let n = n3();
        let family: Vec<SharedPredicate> = vec![
            Box::new(AsyncResilient::new(n, 1)),
            Box::new(Crash::new(n, 1)),
        ];
        let lattice = Lattice::compute_compiled(&family, 2);
        assert!(!lattice.implies_at(0, 1), "async ⇏ crash");
        let cex = lattice.counterexample(0, 1).expect("witness recorded");
        let trace = certificate(cex);
        let reparsed: RunTrace = trace.to_string().parse().unwrap();
        assert_eq!(reparsed, trace);
    }
}
