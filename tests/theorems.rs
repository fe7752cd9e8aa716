//! Integration sweeps over the paper's headline results, crossing every
//! crate: models drive protocols over the core engine, the simulators, and
//! the threaded runtime.

use rrfd::core::task::{KSetAgreement, Value};
use rrfd::core::{Engine, ProcessId, RrfdPredicate, SystemSize};
use rrfd::models::adversary::{RandomAdversary, SilencingCrash};
use rrfd::models::predicates::{Crash, KUncertainty, Snapshot};
use rrfd::protocols::kset::{one_round_kset, FloodMin, SnapshotKSet};
use rrfd::protocols::sync_sim::{run_as_omission, run_crash_simulation};
use std::collections::BTreeSet;

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).unwrap()
}

fn inputs(count: usize) -> Vec<Value> {
    (0..count as u64).map(|i| 10_000 + i).collect()
}

#[test]
fn theorem_3_1_sweep() {
    // One-round k-set agreement across a grid of (n, k) and seeds.
    for nv in [3usize, 5, 8, 13, 21] {
        for k in [1usize, 2, 3, 5] {
            if k >= nv {
                continue;
            }
            let size = n(nv);
            let ins = inputs(nv);
            let task = KSetAgreement::new(k);
            for seed in 0..10u64 {
                let mut adv = RandomAdversary::new(KUncertainty::new(size, k), seed);
                let decisions = one_round_kset(size, k, &ins, &mut adv)
                    .unwrap_or_else(|e| panic!("n={nv} k={k} seed={seed}: {e}"));
                task.check_terminating(
                    &ins,
                    &decisions.iter().map(|&d| Some(d)).collect::<Vec<_>>(),
                )
                .unwrap_or_else(|v| panic!("n={nv} k={k} seed={seed}: {v}"));
            }
        }
    }
}

#[test]
fn corollary_3_2_sweep() {
    // k-set agreement on snapshot memory with k − 1 crashes.
    use rrfd::sims::shared_mem::SharedMemSim;
    use rrfd::sims::step::RandomScheduler;
    for &(nv, k) in &[(4usize, 2usize), (6, 3), (9, 4), (12, 5)] {
        let size = n(nv);
        let ins = inputs(nv);
        let task = KSetAgreement::new(k);
        for seed in 0..8u64 {
            let procs: Vec<_> = ins.iter().map(|&v| SnapshotKSet::new(size, k, v)).collect();
            let mut sched = RandomScheduler::new(seed, k - 1).crash_prob(0.04);
            let report = SharedMemSim::new(size, 1)
                .with_snapshots()
                .run(procs, &mut sched)
                .unwrap();
            assert!(report.all_correct_decided(), "n={nv} k={k} seed={seed}");
            task.check(&ins, &report.outputs)
                .unwrap_or_else(|v| panic!("n={nv} k={k} seed={seed}: {v}"));
        }
    }
}

#[test]
fn theorem_4_1_sweep() {
    // Snapshot runs with k failures are send-omission runs with f = k·⌊f/k⌋.
    for &(nv, f, k) in &[(6usize, 3usize, 1usize), (8, 5, 2), (12, 8, 4), (16, 10, 5)] {
        let size = n(nv);
        let budget = (f / k) as u32;
        for seed in 0..8u64 {
            let protos: Vec<_> = inputs(nv)
                .into_iter()
                .map(|v| FloodMin::new(v, budget))
                .collect();
            let mut adv = RandomAdversary::new(Snapshot::new(size, k), seed);
            let report = run_as_omission(size, f, k, protos, &mut adv).unwrap();
            assert!(report.omission_certified, "n={nv} f={f} k={k} seed={seed}");
        }
    }
}

#[test]
fn theorem_4_3_sweep() {
    use rrfd::sims::step::RandomScheduler;
    for &(nv, f, k) in &[(5usize, 2usize, 1usize), (6, 4, 2), (9, 6, 3)] {
        let size = n(nv);
        let budget = (f / k) as u32;
        for seed in 0..8u64 {
            let protos: Vec<_> = inputs(nv)
                .into_iter()
                .map(|v| FloodMin::new(v, budget))
                .collect();
            let mut sched = RandomScheduler::new(seed, k).crash_prob(0.02);
            let report = run_crash_simulation(size, k, f, budget, protos, &mut sched).unwrap();
            assert!(
                report.crash_certified,
                "n={nv} f={f} k={k} seed={seed}: {:?}",
                report.pattern
            );
        }
    }
}

#[test]
fn corollary_4_4_lower_bound_both_arms() {
    for &(nv, f, k) in &[(6usize, 3usize, 1usize), (10, 4, 2), (13, 6, 3), (26, 8, 4)] {
        let size = n(nv);
        let model = Crash::new(size, f);
        let run = |budget: u32| {
            let ins: Vec<Value> = (0..nv as u64).collect();
            let protos: Vec<_> = ins.iter().map(|&v| FloodMin::new(v, budget)).collect();
            let mut adv = SilencingCrash::new(size, f, k);
            let report = Engine::new(size).run(protos, &mut adv, &model).unwrap();
            let crashed = report.pattern.cumulative_union();
            report
                .outputs()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !crashed.contains(ProcessId::new(*i)))
                .map(|(_, v)| v.unwrap())
                .collect::<BTreeSet<Value>>()
                .len()
        };
        let floor = (f / k) as u32;
        assert!(run(floor) > k, "n={nv} f={f} k={k}: short budget survived");
        assert!(run(floor + 1) <= k, "n={nv} f={f} k={k}: bound not tight");
    }
}

#[test]
fn theorem_5_1_sweep() {
    use rrfd::protocols::semi_sync_consensus::TwoStepConsensus;
    use rrfd::sims::semi_sync::SemiSyncSim;
    use rrfd::sims::step::RandomScheduler;
    for nv in [2usize, 4, 7, 11, 16] {
        let size = n(nv);
        let ins = inputs(nv);
        let task = KSetAgreement::consensus();
        for seed in 0..10u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| TwoStepConsensus::new(size, p, ins[p.index()]))
                .collect();
            let mut sched = RandomScheduler::new(seed, nv - 1).crash_prob(0.06);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
            assert!(report.all_correct_decided(), "n={nv} seed={seed}");
            let outs: Vec<Option<Value>> = report
                .outputs
                .iter()
                .map(|o| o.as_ref().map(|&(v, _)| v))
                .collect();
            task.check(&ins, &outs)
                .unwrap_or_else(|v| panic!("n={nv} seed={seed}: {v}"));
            for out in report.outputs.iter().flatten() {
                assert_eq!(out.1, 2, "n={nv} seed={seed}: more than 2 steps");
            }
        }
    }
}

#[test]
fn theorem_3_3_sweep() {
    use rrfd::protocols::detector_from_kset::build_detector_pattern;
    use rrfd::sims::step::RandomScheduler;
    for &(nv, k) in &[(4usize, 1usize), (6, 2), (9, 3), (12, 4)] {
        let size = n(nv);
        let model = KUncertainty::new(size, k);
        for seed in 0..8u64 {
            let mut sched = RandomScheduler::new(seed, 0);
            let pattern = build_detector_pattern(size, k, 4, seed ^ 0xF00D, &mut sched).unwrap();
            assert!(
                model.admits_pattern(&pattern),
                "n={nv} k={k} seed={seed}: constructed detector exceeded uncertainty"
            );
        }
    }
}

#[test]
fn engine_and_threads_agree_on_theorem_3_1() {
    use rrfd::runtime::ThreadedEngine;
    let size = n(6);
    let k = 2;
    let ins = inputs(6);
    let model = KUncertainty::new(size, k);
    let task = KSetAgreement::new(k);
    for seed in 0..6u64 {
        // Same adversary seed on both substrates ⇒ same fault pattern ⇒
        // same decisions.
        let mut adv_a = RandomAdversary::new(model, seed);
        let engine_out = one_round_kset(size, k, &ins, &mut adv_a).unwrap();

        let protos: Vec<_> = ins
            .iter()
            .map(|&v| rrfd::protocols::kset::OneRoundKSet::new(v))
            .collect();
        let mut adv_b = RandomAdversary::new(model, seed);
        let threaded = ThreadedEngine::new(size)
            .run(protos, &mut adv_b, &model)
            .unwrap();
        let threaded_out: Vec<Value> = threaded.outputs().into_iter().map(Option::unwrap).collect();

        assert_eq!(engine_out, threaded_out, "seed {seed}");
        task.check_terminating(
            &ins,
            &threaded_out.iter().map(|&v| Some(v)).collect::<Vec<_>>(),
        )
        .unwrap();
    }
}

#[test]
fn majority_echo_and_cycle_experiments() {
    use rrfd::models::predicates::{AsyncResilient, Swmr};
    use rrfd::protocols::equivalence::{majority_echo_pattern, rounds_until_known_by_all};

    // E11a: 2 rounds of eq.3 (2f < n) make SWMR rounds.
    for &(nv, f) in &[(5usize, 2usize), (9, 4), (13, 6)] {
        let size = n(nv);
        let swmr = Swmr::new(size, f);
        for seed in 0..8u64 {
            let mut adv = RandomAdversary::new(AsyncResilient::new(size, f), seed);
            let sim = majority_echo_pattern(size, f, &mut adv, 4);
            assert!(swmr.admits_pattern(&sim), "n={nv} f={f} seed={seed}");
        }
    }

    // E11b: the ring reaches global knowledge within n rounds.
    use rrfd::models::adversary::RingMiss;
    for nv in [3usize, 6, 11, 20] {
        let size = n(nv);
        let mut det = RingMiss::new(size);
        let rounds =
            rounds_until_known_by_all(size, &mut det, 2 * nv as u32).expect("paper's bound");
        assert!(rounds <= nv as u32, "n={nv}: {rounds} rounds");
    }
}
