//! Property-based tests (proptest) over the core data structures,
//! predicates, and protocols.

use proptest::prelude::*;
use rrfd::core::task::{AdoptCommitSpec, Grade, KSetAgreement, Value};
use rrfd::core::{FaultPattern, IdSet, ProcessId, RoundFaults, RrfdPredicate, SystemSize};

fn pid_set(n: usize) -> impl Strategy<Value = IdSet> {
    prop::collection::btree_set(0..n, 0..=n)
        .prop_map(|s| s.into_iter().map(ProcessId::new).collect())
}

/// A strategy for one round's worth of suspicion sets over `n` processes,
/// with every `D(i,r) ≠ S` (well-formed).
fn round_faults(n: usize) -> impl Strategy<Value = RoundFaults> {
    prop::collection::vec(pid_set(n), n).prop_map(move |mut sets| {
        let size = SystemSize::new(n).unwrap();
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
    // ---------- IdSet algebra ----------

    #[test]
    fn idset_union_is_commutative_and_associative(
        a in pid_set(16), b in pid_set(16), c in pid_set(16)
    ) {
        prop_assert_eq!(a | b, b | a);
        prop_assert_eq!((a | b) | c, a | (b | c));
    }

    #[test]
    fn idset_de_morgan(a in pid_set(16), b in pid_set(16)) {
        let n = SystemSize::new(16).unwrap();
        prop_assert_eq!(
            (a | b).complement(n),
            a.complement(n) & b.complement(n)
        );
        prop_assert_eq!(
            (a & b).complement(n),
            a.complement(n) | b.complement(n)
        );
    }

    #[test]
    fn idset_difference_laws(a in pid_set(16), b in pid_set(16)) {
        prop_assert!((a - b).is_disjoint(b));
        prop_assert_eq!((a - b) | (a & b), a);
        prop_assert_eq!(a - b, {
            let n = SystemSize::new(16).unwrap();
            a & b.complement(n)
        });
    }

    #[test]
    fn idset_len_inclusion_exclusion(a in pid_set(16), b in pid_set(16)) {
        prop_assert_eq!(
            (a | b).len() + (a & b).len(),
            a.len() + b.len()
        );
    }

    #[test]
    fn idset_iteration_is_sorted_and_faithful(a in pid_set(32)) {
        let xs: Vec<usize> = a.iter().map(ProcessId::index).collect();
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&xs, &sorted);
        prop_assert_eq!(xs.len(), a.len());
        let back: IdSet = xs.into_iter().map(ProcessId::new).collect();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn idset_min_max_bracket_members(a in pid_set(32)) {
        if let (Some(lo), Some(hi)) = (a.min(), a.max()) {
            prop_assert!(a.contains(lo));
            prop_assert!(a.contains(hi));
            for p in a.iter() {
                prop_assert!(lo <= p && p <= hi);
            }
        } else {
            prop_assert!(a.is_empty());
        }
    }

    // ---------- RoundFaults / FaultPattern ----------

    #[test]
    fn uncertainty_is_union_minus_intersection(rf in round_faults(8)) {
        prop_assert_eq!(rf.uncertainty(), rf.union() - rf.intersection());
        prop_assert!(rf.intersection().is_subset(rf.union()));
    }

    #[test]
    fn cumulative_union_is_monotone(rounds in prop::collection::vec(round_faults(6), 1..6)) {
        let n = SystemSize::new(6).unwrap();
        let mut pattern = FaultPattern::new(n);
        let mut prev = IdSet::empty();
        for rf in rounds {
            pattern.push(rf);
            let cu = pattern.cumulative_union();
            prop_assert!(prev.is_subset(cu));
            prev = cu;
        }
    }

    // ---------- Predicate structure ----------

    #[test]
    fn k_uncertainty_is_monotone_in_k(rf in round_faults(8), k in 1usize..7) {
        use rrfd::models::predicates::KUncertainty;
        let n = SystemSize::new(8).unwrap();
        let h = FaultPattern::new(n);
        let tight = KUncertainty::new(n, k);
        let loose = KUncertainty::new(n, k + 1);
        if tight.admits(&h, &rf) {
            prop_assert!(loose.admits(&h, &rf));
        }
    }

    #[test]
    fn async_resilience_is_monotone_in_f(rf in round_faults(8), f in 0usize..6) {
        use rrfd::models::predicates::AsyncResilient;
        let n = SystemSize::new(8).unwrap();
        let h = FaultPattern::new(n);
        let tight = AsyncResilient::new(n, f);
        let loose = AsyncResilient::new(n, f + 1);
        if tight.admits(&h, &rf) {
            prop_assert!(loose.admits(&h, &rf));
        }
    }

    #[test]
    fn identical_views_implies_every_k_uncertainty(shared in pid_set(8), k in 1usize..7) {
        use rrfd::models::predicates::{IdenticalViews, KUncertainty};
        let n = SystemSize::new(8).unwrap();
        let mut shared = shared;
        if shared == IdSet::universe(n) {
            shared.remove(ProcessId::new(0));
        }
        let rf = RoundFaults::from_sets(n, vec![shared; 8]);
        let h = FaultPattern::new(n);
        prop_assert!(IdenticalViews::new(n).admits(&h, &rf));
        prop_assert!(KUncertainty::new(n, k).admits(&h, &rf));
    }

    #[test]
    fn snapshot_rounds_satisfy_swmr(seed in any::<u64>()) {
        use rrfd::models::adversary::{RandomAdversary, SampleModel};
        use rrfd::models::predicates::{Snapshot, Swmr};
        let n = SystemSize::new(7).unwrap();
        let model = Snapshot::new(n, 3);
        let _ = RandomAdversary::new(model.clone(), seed);
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let h = FaultPattern::new(n);
        let rf = model.sample_round(&mut rng, &h);
        prop_assert!(Swmr::new(n, 3).admits(&h, &rf));
    }

    // ---------- Task specifications ----------

    #[test]
    fn kset_check_accepts_subsets_of_k_values(
        k in 1usize..5,
        choices in prop::collection::vec(0usize..4, 1..8)
    ) {
        // Decisions drawn from the first min(k, 4) inputs always pass.
        let inputs: Vec<Value> = (0..4).collect();
        let task = KSetAgreement::new(k);
        let bound = k.min(4);
        let outs: Vec<Option<Value>> = choices
            .iter()
            .map(|&c| Some(inputs[c % bound]))
            .collect();
        prop_assert!(task.check(&inputs, &outs).is_ok());
    }

    #[test]
    fn kset_check_rejects_nonvalues(v in 100u64..200) {
        let inputs = [1u64, 2, 3];
        let task = KSetAgreement::new(3);
        prop_assert!(task.check(&inputs, &[Some(v)]).is_err());
    }

    // ---------- Adopt-commit under arbitrary inputs ----------

    #[test]
    fn adopt_commit_spec_holds_for_arbitrary_inputs(
        inputs in prop::collection::vec(0u64..5, 5),
        seed in any::<u64>()
    ) {
        use rrfd::protocols::adopt_commit::run_adopt_commit;
        use rrfd::sims::step::RandomScheduler;
        let n = SystemSize::new(5).unwrap();
        let mut sched = RandomScheduler::new(seed, 0);
        let outs = run_adopt_commit(n, &inputs, &mut sched).unwrap();
        prop_assert!(AdoptCommitSpec.check(&inputs, &outs).is_ok());
    }

    #[test]
    fn adopt_commit_commit_only_when_truly_unanimous_view(
        inputs in prop::collection::vec(0u64..3, 4),
        seed in any::<u64>()
    ) {
        use rrfd::protocols::adopt_commit::run_adopt_commit;
        use rrfd::sims::step::RandomScheduler;
        let n = SystemSize::new(4).unwrap();
        let mut sched = RandomScheduler::new(seed, 0);
        let outs = run_adopt_commit(n, &inputs, &mut sched).unwrap();
        // If two different inputs both got committed the spec is broken;
        // also: any commit of v means v is an input.
        let committed: Vec<Value> = outs
            .iter()
            .flatten()
            .filter(|(g, _)| *g == Grade::Commit)
            .map(|&(_, v)| v)
            .collect();
        for w in committed.windows(2) {
            prop_assert_eq!(w[0], w[1]);
        }
        for v in committed {
            prop_assert!(inputs.contains(&v));
        }
    }

    // ---------- One-round k-set agreement ----------

    #[test]
    fn one_round_kset_under_random_legal_detectors(
        seed in any::<u64>(),
        k in 1usize..4
    ) {
        use rrfd::models::adversary::RandomAdversary;
        use rrfd::models::predicates::KUncertainty;
        use rrfd::protocols::kset::one_round_kset;
        let n = SystemSize::new(6).unwrap();
        let inputs: Vec<Value> = (0..6).map(|i| 50 + i).collect();
        let mut adv = RandomAdversary::new(KUncertainty::new(n, k), seed);
        let decisions = one_round_kset(n, k, &inputs, &mut adv).unwrap();
        let outs: Vec<Option<Value>> = decisions.iter().map(|&d| Some(d)).collect();
        prop_assert!(KSetAgreement::new(k).check_terminating(&inputs, &outs).is_ok());
    }

    // ---------- Knowledge gossip ----------

    #[test]
    fn gossip_knowledge_is_monotone(
        rounds in prop::collection::vec(prop::collection::vec(pid_set(6), 6), 1..5)
    ) {
        use rrfd::core::KnowledgeMatrix;
        let n = SystemSize::new(6).unwrap();
        let mut matrix = KnowledgeMatrix::reflexive(n);
        let mut before: Vec<IdSet> = n.processes().map(|p| matrix.knows(p)).collect();
        for susp in rounds {
            matrix.gossip_round(&susp);
            for p in n.processes() {
                prop_assert!(before[p.index()].is_subset(matrix.knows(p)));
                before[p.index()] = matrix.knows(p);
            }
        }
    }
}
