//! Property-based tests over the protocol layer: consensus protocols,
//! register emulation, immediate snapshots, and the predicate lattice
//! combinators.

use proptest::prelude::*;
use rrfd::core::task::{KSetAgreement, Value};
use rrfd::core::{
    And, Engine, FaultPattern, IdSet, Or, ProcessId, RoundFaults, RrfdPredicate, SystemSize,
};
use rrfd::models::adversary::{RandomAdversary, StaggeredCrash};
use rrfd::models::predicates::{AsyncResilient, Crash, KUncertainty, Snapshot};

fn pid_set(n: usize) -> impl Strategy<Value = IdSet> {
    prop::collection::btree_set(0..n, 0..n)
        .prop_map(|s| s.into_iter().map(ProcessId::new).collect())
}

fn round_faults(n: usize) -> impl Strategy<Value = RoundFaults> {
    prop::collection::vec(pid_set(n), n)
        .prop_map(move |sets| RoundFaults::from_sets(SystemSize::new(n).unwrap(), sets))
}

proptest! {
    // ---------- Lattice combinators ----------

    #[test]
    fn and_implies_or_pointwise(rf in round_faults(6), f in 0usize..5, k in 1usize..5) {
        let n = SystemSize::new(6).unwrap();
        let a = AsyncResilient::new(n, f);
        let b = KUncertainty::new(n, k);
        let h = FaultPattern::new(n);
        let conj = And::new(a, b);
        let disj = Or::new(a, b);
        if conj.admits(&h, &rf) {
            prop_assert!(a.admits(&h, &rf) && b.admits(&h, &rf));
            prop_assert!(disj.admits(&h, &rf));
        }
        if !disj.admits(&h, &rf) {
            prop_assert!(!a.admits(&h, &rf) && !b.admits(&h, &rf));
            prop_assert!(!conj.admits(&h, &rf));
        }
    }

    #[test]
    fn and_or_are_commutative_on_rounds(rf in round_faults(5), f in 0usize..4, k in 1usize..4) {
        let n = SystemSize::new(5).unwrap();
        let a = AsyncResilient::new(n, f);
        let b = KUncertainty::new(n, k);
        let h = FaultPattern::new(n);
        prop_assert_eq!(
            And::new(a, b).admits(&h, &rf),
            And::new(b, a).admits(&h, &rf)
        );
        prop_assert_eq!(
            Or::new(a, b).admits(&h, &rf),
            Or::new(b, a).admits(&h, &rf)
        );
    }

    // ---------- Early-stopping consensus ----------

    #[test]
    fn early_stopping_agrees_with_floodmin_under_random_crashes(
        seed in any::<u64>(),
        f in 1usize..4
    ) {
        use rrfd::protocols::early_stopping::EarlyStoppingConsensus;
        use rrfd::protocols::kset::FloodMin;

        let n = SystemSize::new(6).unwrap();
        let inputs: Vec<Value> = (0..6).map(|i| 500 + i).collect();
        let model = Crash::new(n, f);

        // Same seeded adversary for both protocols.
        let run_early = {
            let protos: Vec<_> = inputs
                .iter()
                .map(|&v| EarlyStoppingConsensus::new(v, f))
                .collect();
            let mut adv = RandomAdversary::new(model, seed);
            Engine::new(n).run(protos, &mut adv, &model).unwrap()
        };
        let run_flood = {
            let protos: Vec<_> = inputs
                .iter()
                .map(|&v| FloodMin::new(v, f as u32 + 1))
                .collect();
            let mut adv = RandomAdversary::new(model, seed);
            Engine::new(n)
                .run(protos, &mut adv, &model)
                .unwrap()
        };

        // The early-stopper never takes longer than the fixed-round
        // flood, and both satisfy consensus among never-suspected
        // processes. (Values may differ between the two runs only if the
        // adversary history diverged — it cannot, same seed — or if a
        // crashed process's value is lost; among the never-suspected the
        // decisions must agree within each run.)
        prop_assert!(run_early.rounds_executed <= run_flood.rounds_executed);
        for report in [&run_early, &run_flood] {
            let crashed = report.pattern.cumulative_union();
            let outs: Vec<Option<Value>> = report
                .outputs()
                .into_iter()
                .enumerate()
                .map(|(i, v)| v.filter(|_| !crashed.contains(ProcessId::new(i))))
                .collect();
            prop_assert!(KSetAgreement::consensus().check(&inputs, &outs).is_ok());
        }
    }

    #[test]
    fn early_stopping_round_count_tracks_actual_failures(f_actual in 0usize..5) {
        use rrfd::protocols::early_stopping::EarlyStoppingConsensus;
        let f = 5usize;
        let n = SystemSize::new(8).unwrap();
        let inputs: Vec<Value> = (0..8).collect();
        let protos: Vec<_> = inputs
            .iter()
            .map(|&v| EarlyStoppingConsensus::new(v, f))
            .collect();
        let model = Crash::new(n, f);
        let mut adv = StaggeredCrash::new(n, f_actual);
        let report = Engine::new(n).run(protos, &mut adv, &model).unwrap();
        prop_assert!(report.rounds_executed as usize <= (f_actual + 2).min(f + 1));
    }

    // ---------- One-round k-set agreement vs snapshot detector ----------

    #[test]
    fn snapshot_rounds_solve_f_plus_1_set_agreement(seed in any::<u64>(), f in 1usize..5) {
        // P5(f) ⇒ Pk(f+1): a snapshot-model round solves (f+1)-set
        // agreement in one round — the Corollary 3.2 bridge.
        use rrfd::protocols::kset::one_round_kset;
        let n = SystemSize::new(7).unwrap();
        let inputs: Vec<Value> = (0..7).map(|i| 900 + i).collect();
        let snap = Snapshot::new(n, f);
        let mut adv = RandomAdversary::new(snap, seed);
        // Run under the k-uncertainty model with k = f + 1: the snapshot
        // adversary's rounds must be legal for it.
        let decisions = one_round_kset(n, f + 1, &inputs, &mut adv).unwrap();
        let outs: Vec<Option<Value>> = decisions.iter().map(|&d| Some(d)).collect();
        prop_assert!(KSetAgreement::new(f + 1)
            .check_terminating(&inputs, &outs)
            .is_ok());
    }

    // ---------- ABD with generated scripts ----------

    #[test]
    fn abd_atomicity_for_generated_scripts(
        seed in any::<u64>(),
        ops in prop::collection::vec(
            prop::collection::vec((0usize..5, 0u64..50), 0..4),
            5
        )
    ) {
        use rrfd::protocols::abd::{check_clients, AbdClient, Op};
        use rrfd::sims::async_net::AsyncNetSim;
        use rrfd::sims::step::RandomScheduler;

        let n = SystemSize::new(5).unwrap();
        let mut scripts: Vec<Vec<Op>> = ops
            .into_iter()
            .map(|script| {
                script
                    .into_iter()
                    .map(|(target, v)| {
                        if v % 2 == 0 {
                            Op::Write(v)
                        } else {
                            Op::Read(ProcessId::new(target))
                        }
                    })
                    .collect()
            })
            .collect();
        // An all-empty workload never puts a message on the wire, so
        // finished clients can never announce their (empty) histories and
        // the network reports quiescence. Guarantee one operation.
        scripts[0].insert(0, Op::Write(1));
        let procs: Vec<_> = n
            .processes()
            .map(|p| AbdClient::new(p, n, 2, scripts[p.index()].clone()))
            .collect();
        let mut sched = RandomScheduler::new(seed, 0);
        let report = AsyncNetSim::new(n).run(procs, &mut sched).unwrap();
        prop_assert!(check_clients(&report.processes).is_ok());
    }

    // ---------- Immediate snapshots ----------

    #[test]
    fn immediate_snapshot_properties_proptest(seed in any::<u64>(), nv in 2usize..8) {
        use rrfd::protocols::immediate_snapshot::{ImmediateSnapshot, IsDriver};
        use rrfd::sims::shared_mem::SharedMemSim;
        use rrfd::sims::step::RandomScheduler;

        let n = SystemSize::new(nv).unwrap();
        let procs: Vec<_> = n
            .processes()
            .map(|p| IsDriver::new(ImmediateSnapshot::new(n, p, 0)))
            .collect();
        let mut sched = RandomScheduler::new(seed, 0);
        let report = SharedMemSim::new(n, ImmediateSnapshot::BANKS)
            .with_snapshots()
            .run(procs, &mut sched)
            .unwrap();
        let views: Vec<IdSet> = report.outputs.into_iter().map(Option::unwrap).collect();
        for (i, vi) in views.iter().enumerate() {
            prop_assert!(vi.contains(ProcessId::new(i)));
            for (j, vj) in views.iter().enumerate() {
                prop_assert!(vi.is_subset(*vj) || vj.is_subset(*vi));
                if vi.contains(ProcessId::new(j)) {
                    prop_assert!(vj.is_subset(*vi));
                }
            }
        }
    }
}
