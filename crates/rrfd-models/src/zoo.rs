//! The standard predicate zoo — every model family of the paper's §2,
//! instantiated as one boxed, thread-shareable family.
//!
//! This lives here (not in `rrfd-analyze`, which re-exports it for its
//! lattice computation) because live substrates need it too: the
//! conformance monitor (see [`crate::conformance`]) evaluates the whole
//! zoo against a running system, round by round.

use crate::predicates::{
    AntiSymmetric, AsyncResilient, Crash, DetectorS, EventuallyStrong, IdenticalViews,
    KUncertainty, SendOmission, Snapshot, SomeoneTrustedByAll, Swmr, SystemB,
};
use rrfd_core::{PredicateProgram, Round, RrfdPredicate, SystemSize};

/// A predicate boxed for use from worker threads: the element type of the
/// [`zoo`] family.
pub type SharedPredicate = Box<dyn RrfdPredicate + Send + Sync>;

/// The number of predicates [`zoo`] returns.
pub const ZOO_SIZE: usize = 13;

/// Strength rank of each zoo predicate, indexed by zoo position; lower =
/// stronger. The order is the implication out-degree in the committed
/// n = 3, f = 1 lattice (`EXPERIMENTS.md`, machine-checked to depth 4):
/// a predicate that implies more of the zoo constrains the adversary
/// more, so "strongest still satisfied" means "lowest rank not yet
/// violated". Ties (equal out-degree) break by zoo position, keeping the
/// rank a total order. (Depth 4 refutes `SWMR ⇒ ◊S`, which the depth-3
/// matrix could not: SWMR drops below the other out-degree-3 models.)
pub const ZOO_STRENGTH_RANK: [usize; ZOO_SIZE] = [
    0,  // Crash — implies 7 others
    1,  // SendOmission — 6
    2,  // Snapshot — 6 (tie, later zoo position)
    6,  // SWMR — 2
    10, // AsyncResilient — 0 (weakest tier)
    3,  // System B — 5
    7,  // DetectorS — 1
    8,  // EventuallyStrong — 1 (tie)
    4,  // IdenticalViews — 3
    5,  // KUncertainty(1) — 3 (tie)
    9,  // KUncertainty(2) — 1 (tie)
    11, // SomeoneTrustedByAll (eq4) — 0 (tie)
    12, // AntiSymmetric — 0 (tie)
];

/// The standard predicate zoo the lattice is computed over: every model
/// family from the paper's Section 2 discussion, instantiated at system
/// size `n` with resilience `f` where the family takes one.
///
/// System B carries its own side conditions (`f_B < t`, `2t < n`), so it
/// is instantiated at the largest legal `t = ⌈n/2⌉ − 1` with
/// `f_B = min(f, t − 1)` — at the default `n = 3` that is `PB(0, 1)`.
///
/// # Panics
///
/// Panics unless `n ≥ 3` (System B needs `f_B < t` with `2t < n`) and
/// `2f < n` (◊S needs a correct majority); the individual constructors
/// check.
#[must_use]
pub fn zoo(n: SystemSize, f: usize) -> Vec<SharedPredicate> {
    let t = n.get().div_ceil(2) - 1; // largest t with 2t < n
    vec![
        Box::new(Crash::new(n, f)),
        Box::new(SendOmission::new(n, f)),
        Box::new(Snapshot::new(n, f)),
        Box::new(Swmr::new(n, f)),
        Box::new(AsyncResilient::new(n, f)),
        Box::new(SystemB::new(n, f.min(t.saturating_sub(1)), t)),
        Box::new(DetectorS::new(n)),
        Box::new(EventuallyStrong::new(n, f, Round::new(2))),
        Box::new(IdenticalViews::new(n)),
        Box::new(KUncertainty::new(n, 1)),
        Box::new(KUncertainty::new(n, 2)),
        Box::new(SomeoneTrustedByAll::new(n)),
        Box::new(AntiSymmetric::new(n)),
    ]
}

/// Compiles a predicate family onto the compiled plane, member for member:
/// `programs[i]` is `family[i]`'s program. The batch evaluators (the
/// conformance monitor, the admissibility checker, the lattice walk) judge
/// rounds only through these programs.
///
/// # Panics
///
/// Panics naming the first member whose [`RrfdPredicate::compile`]
/// returns `None`. Every zoo predicate compiles.
#[must_use]
pub fn compile_family(family: &[SharedPredicate]) -> Vec<PredicateProgram> {
    family
        .iter()
        .flat_map(|predicate| {
            let program = predicate.compile();
            assert!(
                program.is_some(),
                "{} does not compile onto the predicate plane",
                predicate.name()
            );
            program
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_the_documented_size_and_distinct_names() {
        let family = zoo(SystemSize::new(3).expect("3 is a valid size"), 1);
        assert_eq!(family.len(), ZOO_SIZE);
        let mut names: Vec<String> = family.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), ZOO_SIZE, "zoo names must be distinct");
    }

    #[test]
    fn every_zoo_predicate_compiles() {
        let n = SystemSize::new(3).expect("3 is a valid size");
        let family = zoo(n, 1);
        let programs = compile_family(&family);
        assert_eq!(programs.len(), ZOO_SIZE);
        assert!(programs.iter().all(|p| p.system_size() == n));
    }

    /// A local predicate that declines to compile.
    struct Uncompiled(SystemSize);

    impl RrfdPredicate for Uncompiled {
        fn system_size(&self) -> SystemSize {
            self.0
        }

        fn compile(&self) -> Option<PredicateProgram> {
            None
        }

        fn name(&self) -> String {
            "Uncompiled".to_owned()
        }
    }

    #[test]
    #[should_panic(expected = "Uncompiled does not compile onto the predicate plane")]
    fn compile_family_names_a_member_that_does_not_compile() {
        let n = SystemSize::new(3).expect("3 is a valid size");
        let mut family = zoo(n, 1);
        family.insert(1, Box::new(Uncompiled(n)));
        let _ = compile_family(&family);
    }

    #[test]
    fn strength_rank_is_a_permutation() {
        let mut ranks = ZOO_STRENGTH_RANK;
        ranks.sort_unstable();
        let expected: Vec<usize> = (0..ZOO_SIZE).collect();
        assert_eq!(ranks.to_vec(), expected);
    }
}
