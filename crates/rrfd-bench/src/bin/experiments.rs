//! The experiment runner: executes every experiment E1–E13 from DESIGN.md
//! and prints the rows recorded in EXPERIMENTS.md.
//!
//! Run with: `cargo run -p rrfd-bench --bin experiments --release`

use rrfd_bench::RunFor;
use rrfd_core::task::{Grade, KSetAgreement, Value};
use rrfd_core::{
    Engine, FaultDetector, FaultPattern, IdSet, ProcessId, Round, RrfdPredicate, SystemSize,
};
use rrfd_models::adversary::{RandomAdversary, RingMiss, SilencingCrash};
use rrfd_models::predicates::{
    AntiSymmetric, AsyncResilient, Crash, DetectorS, IdenticalViews, KUncertainty, SendOmission,
    Snapshot, Swmr, SystemB,
};
use rrfd_models::submodel::refines_on_samples;
use rrfd_protocols::adopt_commit::run_adopt_commit;
use rrfd_protocols::detector_from_kset::build_detector_pattern;
use rrfd_protocols::equivalence::{
    majority_echo_pattern, rounds_until_known_by_all, system_b_echo_pattern,
};
use rrfd_protocols::kset::{one_round_kset, FloodMin, OneRoundKSet, SnapshotKSet};
use rrfd_protocols::semi_sync_consensus::{RepeatedRounds, TwoStepConsensus};
use rrfd_protocols::sync_sim::{run_as_omission, run_crash_simulation};
use rrfd_runtime::ThreadedEngine;
use rrfd_sims::detector_s::SAugmentedSystem;
use rrfd_sims::semi_sync::SemiSyncSim;
use rrfd_sims::shared_mem::SharedMemSim;
use rrfd_sims::step::RandomScheduler;
use rrfd_sims::sync_net::{RandomCrash, RandomOmission, SyncNetSim};
use std::collections::BTreeSet;

const SEEDS: u64 = 50;

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).expect("valid size")
}

fn inputs(count: usize) -> Vec<Value> {
    (0..count as u64).map(|i| 1000 + i).collect()
}

fn e1() {
    println!("## E1 — classical systems map onto their RRFD predicates");
    println!();
    println!("| system | runs | extracted rounds | predicate-certified |");
    println!("|--------|------|------------------|---------------------|");

    // Synchronous send-omission.
    let size = n(8);
    let faulty: IdSet = [1usize, 4, 6].iter().map(|&i| ProcessId::new(i)).collect();
    let mut certified = 0usize;
    let mut rounds = 0usize;
    for seed in 0..SEEDS {
        let injector = RandomOmission::new(size, faulty, 0.4, seed);
        let protos: Vec<_> = (0..8).map(|_| RunFor(6)).collect();
        let report = SyncNetSim::new(size).run(protos, injector).unwrap();
        rounds += report.pattern.rounds();
        if SendOmission::new(size, 3).admits_pattern(&report.pattern) {
            certified += 1;
        }
    }
    println!("| sync send-omission (n=8,f=3) | {SEEDS} | {rounds} | {certified}/{SEEDS} |");

    // Synchronous crash.
    let mut certified = 0usize;
    let mut rounds = 0usize;
    for seed in 0..SEEDS {
        let injector = RandomCrash::new(size, faulty, 4, seed);
        let protos: Vec<_> = (0..8).map(|_| RunFor(6)).collect();
        let report = SyncNetSim::new(size).run(protos, injector).unwrap();
        rounds += report.pattern.rounds();
        if Crash::new(size, 3).admits_pattern(&report.pattern) {
            certified += 1;
        }
    }
    println!("| sync crash (n=8,f=3) | {SEEDS} | {rounds} | {certified}/{SEEDS} |");

    // Async round overlay.
    use rrfd_sims::async_net::{AsyncNetSim, RandomNetScheduler};
    use rrfd_sims::async_rounds::RoundedAsync;
    let mut certified = 0usize;
    let mut rounds = 0usize;
    for seed in 0..SEEDS {
        let procs: Vec<_> = size
            .processes()
            .map(|p| RoundedAsync::new(p, size, 2, RunFor(4)))
            .collect();
        let mut sched = RandomNetScheduler::new(seed, 2).crash_prob(0.004);
        let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
        let ok = report
            .processes
            .iter()
            .all(|p| p.fault_log().iter().all(|d| d.len() <= 2));
        rounds += report
            .processes
            .iter()
            .map(|p| p.fault_log().len())
            .max()
            .unwrap_or(0);
        if ok {
            certified += 1;
        }
    }
    println!("| async message passing (n=8,f=2) | {SEEDS} | {rounds} | {certified}/{SEEDS} |");

    // Detector-S system.
    let mut certified = 0usize;
    for seed in 0..SEEDS {
        let mut sys = SAugmentedSystem::random(size, 5, seed);
        let model = DetectorS::new(size);
        let mut history = FaultPattern::new(size);
        for r in 1..=8 {
            let round = sys.next_round(Round::new(r), &history);
            history.push(round);
        }
        if model.admits_pattern(&history) {
            certified += 1;
        }
    }
    println!(
        "| detector-S system (n=8) | {SEEDS} | {} | {certified}/{SEEDS} |",
        SEEDS * 8
    );

    // Semi-synchronous 2-step rounds.
    let mut certified = 0usize;
    for seed in 0..SEEDS {
        let procs: Vec<_> = size
            .processes()
            .map(|p| TwoStepConsensus::new(size, p, p.index() as u64))
            .collect();
        let mut sched = RandomScheduler::new(seed, 7).crash_prob(0.05);
        let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
        let views: Vec<IdSet> = report
            .processes
            .iter()
            .filter_map(TwoStepConsensus::suspected)
            .collect();
        if views.windows(2).all(|w| w[0] == w[1]) {
            certified += 1;
        }
    }
    println!("| semi-sync 2-step rounds (n=8) | {SEEDS} | {SEEDS} | {certified}/{SEEDS} |");
    println!();
}

fn e2() {
    println!("## E2 — System B: two rounds of B implement a round of A");
    println!();
    println!("| n | f | t | simulated rounds | max observed per-round miss | ≤ t always | ≤ f observed |");
    println!("|---|---|---|------------------|-----------------------------|------------|--------------|");
    for &(nv, f, t) in &[
        (7usize, 1usize, 3usize),
        (11, 2, 5),
        (15, 3, 7),
        (21, 4, 10),
    ] {
        let size = n(nv);
        let mut worst = 0usize;
        let rounds = 6u32;
        for seed in 0..SEEDS {
            let mut adv = RandomAdversary::new(SystemB::new(size, f, t), seed);
            let (_, max_miss) = system_b_echo_pattern(size, f, t, &mut adv, rounds);
            worst = worst.max(max_miss);
        }
        println!(
            "| {nv} | {f} | {t} | {} | {worst} | {} | {} |",
            SEEDS * u64::from(rounds),
            worst <= t,
            worst <= f
        );
    }
    // An adaptive adversary that *concentrates* misses: round one has every
    // fast process miss the same f victims (and slow processes miss t),
    // then round two greedily buries, for a slow target, the victims whose
    // round-one hearer sets fit in the t-budget. This is the hardest
    // attack shape against the echo; the observed maximum equals f,
    // supporting the paper's (unproved) "two rounds of B make a round of
    // A" claim.
    println!();
    println!("adaptive concentrated adversary (target p0 slow in both rounds):");
    println!();
    println!("| n | f | t | max simulated misses for the target | = f |");
    println!("|---|---|---|--------------------------------------|------|");
    for &(nv, f, t) in &[(5usize, 1usize, 2usize), (7, 1, 3), (9, 2, 4), (13, 3, 6)] {
        let size = n(nv);
        let universe = IdSet::universe(size);
        // Round 1: victims are the highest-id f processes; everyone misses
        // them; slow processes (the t lowest ids, incl. p0) miss t of them
        // (or pad arbitrarily).
        let victims: IdSet = ((nv - f)..nv).map(ProcessId::new).collect();
        let extra: IdSet = ((nv - t)..nv).map(ProcessId::new).collect();
        let r1 = rrfd_core::RoundFaults::from_sets(
            size,
            size.processes()
                .map(|p| {
                    if p.index() < t {
                        extra - IdSet::singleton(p)
                    } else {
                        victims - IdSet::singleton(p)
                    }
                })
                .collect(),
        );
        // Hearer sets (with self-knowledge).
        let hearers: Vec<IdSet> = size
            .processes()
            .map(|j| {
                size.processes()
                    .filter(|&i| i == j || !r1.of(i).contains(j))
                    .collect()
            })
            .collect();
        // Greedy cover for p0: pick origins whose hearers fit the budget.
        let mut order: Vec<usize> = (0..nv).collect();
        order.sort_by_key(|&j| hearers[j].len());
        let mut d0 = IdSet::empty();
        for j in order {
            if j == 0 {
                continue;
            }
            let candidate = d0 | hearers[j];
            if candidate.len() <= t && candidate != universe {
                d0 = candidate;
            }
        }
        let mut r2 = rrfd_core::RoundFaults::none(size);
        r2.set(ProcessId::new(0), d0);
        let model = SystemB::new(size, f, t);
        assert!(model.admits(&FaultPattern::new(size), &r1));
        {
            let mut h = FaultPattern::new(size);
            h.push(r1.clone());
            assert!(model.admits(&h, &r2));
        }
        let sim = rrfd_protocols::equivalence::echo_round(size, &r1, &r2);
        let missed = sim.of(ProcessId::new(0)).len();
        println!("| {nv} | {f} | {t} | {missed} | {} |", missed == f);
    }

    // Submodel directions.
    let size = n(7);
    let a = AsyncResilient::new(size, 1);
    let b = SystemB::new(size, 1, 3);
    println!();
    println!(
        "A ⇒ B sampled: {}, B ⇒ A sampled: {} (A is a strict submodel of B)",
        refines_on_samples(&a, &b, 100, 8, 2).holds(),
        refines_on_samples(&b, &a, 100, 8, 3).holds()
    );
    println!();
}

fn e3() {
    println!("## E3 — Theorem 3.1: one-round k-set agreement");
    println!();
    println!("| n | k | runs | rounds to decide | max distinct decisions | task violations |");
    println!("|---|---|------|------------------|------------------------|-----------------|");
    for &(nv, k) in &[(4usize, 1usize), (8, 2), (8, 4), (16, 3), (32, 5), (64, 8)] {
        let size = n(nv);
        let ins = inputs(nv);
        let task = KSetAgreement::new(k);
        let mut max_distinct = 0usize;
        let mut violations = 0usize;
        for seed in 0..SEEDS {
            let mut adv = RandomAdversary::new(KUncertainty::new(size, k), seed);
            let decisions = one_round_kset(size, k, &ins, &mut adv).unwrap();
            let distinct: BTreeSet<Value> = decisions.iter().copied().collect();
            max_distinct = max_distinct.max(distinct.len());
            let outs: Vec<Option<Value>> = decisions.iter().map(|&d| Some(d)).collect();
            if task.check_terminating(&ins, &outs).is_err() {
                violations += 1;
            }
        }
        println!("| {nv} | {k} | {SEEDS} | 1 | {max_distinct} | {violations} |");
    }
    println!();
}

fn e4() {
    println!("## E4 — Corollary 3.2: k-set agreement with k−1 crashes (snapshot memory)");
    println!();
    println!("| n | k | crashes allowed | runs | max distinct decisions | violations |");
    println!("|---|---|-----------------|------|------------------------|------------|");
    for &(nv, k) in &[(5usize, 2usize), (8, 3), (12, 4), (16, 6)] {
        let size = n(nv);
        let ins = inputs(nv);
        let task = KSetAgreement::new(k);
        let mut max_distinct = 0usize;
        let mut violations = 0usize;
        for seed in 0..SEEDS {
            let procs: Vec<_> = ins.iter().map(|&v| SnapshotKSet::new(size, k, v)).collect();
            let mut sched = RandomScheduler::new(seed, k - 1).crash_prob(0.04);
            let report = SharedMemSim::new(size, 1)
                .with_snapshots()
                .run(procs, &mut sched)
                .unwrap();
            let distinct: BTreeSet<Value> = report.outputs.iter().flatten().copied().collect();
            max_distinct = max_distinct.max(distinct.len());
            if task.check(&ins, &report.outputs).is_err() {
                violations += 1;
            }
        }
        println!(
            "| {nv} | {k} | {} | {SEEDS} | {max_distinct} | {violations} |",
            k - 1
        );
    }
    println!();
}

fn e5() {
    println!("## E5 — Theorem 3.3: k-uncertainty detector from a k-set-consensus object");
    println!();
    println!("| n | k | rounds | runs | max per-round uncertainty | Pk certified |");
    println!("|---|---|--------|------|---------------------------|--------------|");
    for &(nv, k) in &[(4usize, 1usize), (8, 2), (12, 3), (16, 4)] {
        let size = n(nv);
        let model = KUncertainty::new(size, k);
        let mut worst = 0usize;
        let mut certified = 0u64;
        for seed in 0..SEEDS {
            let mut sched = RandomScheduler::new(seed, 0);
            let pattern = build_detector_pattern(size, k, 4, seed ^ 0xBEEF, &mut sched).unwrap();
            for (_, rf) in pattern.iter() {
                worst = worst.max(rf.uncertainty().len());
            }
            if model.admits_pattern(&pattern) {
                certified += 1;
            }
        }
        println!("| {nv} | {k} | 4 | {SEEDS} | {worst} (< k = {k}) | {certified}/{SEEDS} |");
    }
    println!();
}

fn e6() {
    println!("## E6 — Theorem 4.1: snapshot rounds are omission rounds (⌊f/k⌋ budget)");
    println!();
    println!("| n | f | k | ⌊f/k⌋ rounds | runs | max footprint | certified |");
    println!("|---|---|---|---------------|------|---------------|-----------|");
    for &(nv, f, k) in &[(6usize, 3usize, 1usize), (8, 5, 2), (12, 8, 4), (16, 10, 5)] {
        let size = n(nv);
        let budget = (f / k) as u32;
        let mut certified = 0u64;
        let mut worst_footprint = 0usize;
        for seed in 0..SEEDS {
            let protos: Vec<_> = inputs(nv)
                .into_iter()
                .map(|v| FloodMin::new(v, budget))
                .collect();
            let mut adv = RandomAdversary::new(Snapshot::new(size, k), seed);
            let report = run_as_omission(size, f, k, protos, &mut adv).unwrap();
            worst_footprint = worst_footprint.max(report.run.pattern.cumulative_union().len());
            if report.omission_certified {
                certified += 1;
            }
        }
        println!(
            "| {nv} | {f} | {k} | {budget} | {SEEDS} | {worst_footprint} (≤ f = {f}) | {certified}/{SEEDS} |"
        );
    }
    println!();
}

fn e7() {
    println!("## E7 — §4.2 adopt-commit");
    println!();
    println!("| n | inputs | runs | all-commit runs | mixed runs | spec violations |");
    println!("|---|--------|------|-----------------|------------|-----------------|");
    for &nv in &[4usize, 8, 16] {
        let size = n(nv);
        for (label, ins) in [
            ("unanimous", vec![7u64; nv]),
            ("contended", (0..nv as u64).collect::<Vec<_>>()),
        ] {
            let mut all_commit = 0u64;
            let mut mixed = 0u64;
            let mut violations = 0u64;
            for seed in 0..SEEDS {
                let mut sched = RandomScheduler::new(seed, 0);
                let outs = run_adopt_commit(size, &ins, &mut sched).unwrap();
                let grades: BTreeSet<Grade> = outs.iter().flatten().map(|&(g, _)| g).collect();
                if grades == BTreeSet::from([Grade::Commit]) {
                    all_commit += 1;
                } else if grades.len() > 1 {
                    mixed += 1;
                }
                if rrfd_core::task::AdoptCommitSpec.check(&ins, &outs).is_err() {
                    violations += 1;
                }
            }
            println!("| {nv} | {label} | {SEEDS} | {all_commit} | {mixed} | {violations} |");
        }
    }
    println!();
}

fn e8() {
    println!("## E8 — Theorem 4.3: crash rounds on async snapshot memory");
    println!();
    println!("| n | f | k | sim rounds | runs | max footprint | crash-certified |");
    println!("|---|---|---|------------|------|---------------|-----------------|");
    for &(nv, f, k) in &[(5usize, 2usize, 1usize), (6, 4, 2), (9, 6, 3), (12, 6, 2)] {
        let size = n(nv);
        let budget = (f / k) as u32;
        let mut certified = 0u64;
        let mut worst = 0usize;
        for seed in 0..SEEDS {
            let protos: Vec<_> = inputs(nv)
                .into_iter()
                .map(|v| FloodMin::new(v, budget))
                .collect();
            let mut sched = RandomScheduler::new(seed, k).crash_prob(0.02);
            let report = run_crash_simulation(size, k, f, budget, protos, &mut sched).unwrap();
            worst = worst.max(report.pattern.cumulative_union().len());
            if report.crash_certified {
                certified += 1;
            }
        }
        println!(
            "| {nv} | {f} | {k} | {budget} | {SEEDS} | {worst} (≤ f = {f}) | {certified}/{SEEDS} |"
        );
    }
    println!();
}

fn e9() {
    println!("## E9 — Corollaries 4.2/4.4: the ⌊f/k⌋+1 lower bound, both arms");
    println!();
    println!("| n | f | k | distinct values @ ⌊f/k⌋ | @ ⌊f/k⌋+1 | bound tight |");
    println!("|---|---|---|--------------------------|-----------|-------------|");
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
        let short = run(floor);
        let tight = run(floor + 1);
        println!(
            "| {nv} | {f} | {k} | {short} (> k = {k}) | {tight} (≤ k) | {} |",
            short > k && tight <= k
        );
    }
    println!();
}

fn e10() {
    println!("## E10 — §5: 2-step consensus vs the 2n-step baseline");
    println!();
    println!("| n | 2-step: max steps to decide | baseline: max steps | consensus violations |");
    println!("|---|------------------------------|---------------------|----------------------|");
    for &nv in &[3usize, 5, 8, 12, 16, 24] {
        let size = n(nv);
        let ins = inputs(nv);
        let task = KSetAgreement::consensus();
        let mut fast_steps = 0u64;
        let mut slow_steps = 0u64;
        let mut violations = 0u64;
        for seed in 0..SEEDS {
            let procs: Vec<_> = size
                .processes()
                .map(|p| TwoStepConsensus::new(size, p, ins[p.index()]))
                .collect();
            let mut sched = RandomScheduler::new(seed, nv - 1).crash_prob(0.04);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
            fast_steps = fast_steps.max(report.max_steps_to_decide().unwrap_or(0));
            let outs: Vec<Option<Value>> = report
                .outputs
                .iter()
                .map(|o| o.as_ref().map(|&(v, _)| v))
                .collect();
            if task.check(&ins, &outs).is_err() {
                violations += 1;
            }

            let procs: Vec<_> = size
                .processes()
                .map(|p| RepeatedRounds::new(size, p, ins[p.index()], nv as u32))
                .collect();
            let mut sched = RandomScheduler::new(seed + 10_000, nv - 1).crash_prob(0.04);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
            slow_steps = slow_steps.max(report.max_steps_to_decide().unwrap_or(0));
            let outs: Vec<Option<Value>> = report
                .outputs
                .iter()
                .map(|o| o.as_ref().map(|&(v, _)| v))
                .collect();
            if task.check(&ins, &outs).is_err() {
                violations += 1;
            }
        }
        println!("| {nv} | {fast_steps} | {slow_steps} | {violations} |");
    }
    println!();
}

fn e11() {
    println!("## E11 — item 4: SWMR from message passing; the antisymmetric clause");
    println!();
    println!("| n | f | majority-echo runs | SWMR-certified |");
    println!("|---|---|--------------------|----------------|");
    for &(nv, f) in &[(5usize, 2usize), (9, 4), (17, 8), (33, 16)] {
        let size = n(nv);
        let swmr = Swmr::new(size, f);
        let mut certified = 0u64;
        for seed in 0..SEEDS {
            let mut adv = RandomAdversary::new(AsyncResilient::new(size, f), seed);
            let sim = majority_echo_pattern(size, f, &mut adv, 4);
            if swmr.admits_pattern(&sim) {
                certified += 1;
            }
        }
        println!("| {nv} | {f} | {SEEDS} | {certified}/{SEEDS} |");
    }
    println!();
    println!("rounds until some process is known by all (paper: ≤ n; conjecture: 2):");
    println!();
    println!("| n | ring adversary | worst over random antisymmetric runs |");
    println!("|---|----------------|----------------------------------------|");
    for &nv in &[3usize, 6, 10, 16, 24] {
        let size = n(nv);
        let ring = rounds_until_known_by_all(size, &mut RingMiss::new(size), 2 * nv as u32)
            .expect("≤ n rounds");
        let mut worst = 0u32;
        for seed in 0..SEEDS {
            let mut adv = RandomAdversary::new(AntiSymmetric::new(size), seed);
            let r = rounds_until_known_by_all(size, &mut adv, 2 * nv as u32).expect("≤ n rounds");
            worst = worst.max(r);
        }
        println!("| {nv} | {ring} | {worst} |");
    }
    println!();
}

fn e12() {
    println!("## E12 — item 6: detector-S ⇔ send-omission with f = n − 1");
    println!();
    let size = n(6);
    let wide = SendOmission::new(size, 5);
    let s = DetectorS::new(size);
    let fwd = refines_on_samples(&wide, &s, 200, 8, 11).holds();
    let bwd = refines_on_samples(&s, &wide, 200, 8, 12).holds();
    println!("P1(f = n−1) ⇒ P6 on samples: {fwd}");
    println!("P6 ⇒ P1(f = n−1) on samples: {bwd}");
    println!("(the backward direction holds up to the reconciled self-trust clause;");
    println!(" the footprint components are identical by predicate manipulation)");
    println!();
}

fn e13() {
    println!("## E13 — the threaded runtime agrees with the in-process engine");
    println!();
    println!("| n | k | runs | identical decisions | task violations |");
    println!("|---|---|------|---------------------|-----------------|");
    for &(nv, k) in &[(2usize, 1usize), (4, 2), (8, 3), (16, 5)] {
        let size = n(nv);
        let ins = inputs(nv);
        let model = KUncertainty::new(size, k);
        let task = KSetAgreement::new(k);
        let mut identical = 0u64;
        let mut violations = 0u64;
        let runs = 10u64;
        for seed in 0..runs {
            let mut adv_a = RandomAdversary::new(model, seed);
            let engine_out = one_round_kset(size, k, &ins, &mut adv_a).unwrap();
            let protos: Vec<_> = ins.iter().map(|&v| OneRoundKSet::new(v)).collect();
            let mut adv_b = RandomAdversary::new(model, seed);
            let threaded = ThreadedEngine::new(size)
                .run(protos, &mut adv_b, &model)
                .unwrap();
            let threaded_out: Vec<Value> =
                threaded.outputs().into_iter().map(Option::unwrap).collect();
            if engine_out == threaded_out {
                identical += 1;
            }
            let outs: Vec<Option<Value>> = threaded_out.iter().map(|&v| Some(v)).collect();
            if task.check_terminating(&ins, &outs).is_err() {
                violations += 1;
            }
        }
        println!("| {nv} | {k} | {runs} | {identical}/{runs} | {violations} |");
    }
    println!();
}

fn e14() {
    println!("## E14 — immediate snapshots: the iterated model of [4]");
    println!();
    use rrfd_protocols::immediate_snapshot::{views_to_round, IteratedIS};
    println!("| n | iterated rounds | runs | IS properties | P5-certified patterns |");
    println!("|---|-----------------|------|----------------|------------------------|");
    for &(nv, rounds) in &[(3usize, 3u32), (5, 4), (8, 3), (12, 2)] {
        let size = n(nv);
        let model = Snapshot::new(size, nv - 1);
        let mut props_ok = 0u64;
        let mut certified = 0u64;
        for seed in 0..SEEDS {
            let procs: Vec<_> = size
                .processes()
                .map(|p| IteratedIS::new(size, p, rounds))
                .collect();
            let mut sched = RandomScheduler::new(seed, 0);
            let report = SharedMemSim::new(size, IteratedIS::banks_needed(rounds))
                .with_snapshots()
                .run(procs, &mut sched)
                .unwrap();
            let all: Vec<Vec<IdSet>> = report.outputs.into_iter().map(Option::unwrap).collect();
            let mut ok = true;
            let mut pattern = FaultPattern::new(size);
            for r in 0..rounds as usize {
                let views: Vec<IdSet> = all.iter().map(|v| v[r]).collect();
                for (i, vi) in views.iter().enumerate() {
                    ok &= vi.contains(ProcessId::new(i));
                    for (j, vj) in views.iter().enumerate() {
                        ok &= vi.is_subset(*vj) || vj.is_subset(*vi);
                        if vi.contains(ProcessId::new(j)) {
                            ok &= vj.is_subset(*vi);
                        }
                    }
                }
                pattern.push(views_to_round(size, &views));
            }
            if ok {
                props_ok += 1;
            }
            if model.admits_pattern(&pattern) {
                certified += 1;
            }
        }
        println!("| {nv} | {rounds} | {SEEDS} | {props_ok}/{SEEDS} | {certified}/{SEEDS} |");
    }
    println!();
}

fn e15() {
    println!("## E15 — ABD register emulation: shared memory from message passing");
    println!();
    use rrfd_protocols::abd::{check_clients, AbdClient, Op};
    use rrfd_sims::async_net::{AsyncNetSim, RandomNetScheduler};
    println!("| n | f | runs | avg deliveries | atomicity-certified |");
    println!("|---|---|------|----------------|---------------------|");
    for &(nv, f) in &[(3usize, 1usize), (5, 2), (9, 4)] {
        let size = n(nv);
        let p0 = ProcessId::new(0);
        let scripts: Vec<Vec<Op>> = size
            .processes()
            .map(|p| {
                if p == p0 {
                    vec![Op::Write(1), Op::Write(2), Op::Write(3)]
                } else {
                    vec![Op::Read(p0), Op::Read(p0)]
                }
            })
            .collect();
        let mut certified = 0u64;
        let mut deliveries = 0u64;
        for seed in 0..SEEDS {
            let procs: Vec<_> = size
                .processes()
                .map(|p| AbdClient::new(p, size, f, scripts[p.index()].clone()))
                .collect();
            let mut sched = RandomNetScheduler::new(seed, f).crash_prob(0.002);
            let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
            deliveries += report.deliveries;
            if check_clients(&report.processes).is_ok() {
                certified += 1;
            }
        }
        println!(
            "| {nv} | {f} | {SEEDS} | {} | {certified}/{SEEDS} |",
            deliveries / SEEDS
        );
    }
    println!();
}

fn e16() {
    println!("## E16 — consensus under detector-S (§2 item 6's payoff)");
    println!();
    use rrfd_protocols::s_consensus::SRotatingConsensus;
    println!("| n | runs | rounds to decide | consensus violations |");
    println!("|---|------|------------------|----------------------|");
    for &nv in &[3usize, 6, 10, 16] {
        let size = n(nv);
        let ins = inputs(nv);
        let task = KSetAgreement::consensus();
        let mut violations = 0u64;
        let mut max_rounds = 0u32;
        for seed in 0..SEEDS {
            let protos: Vec<_> = ins
                .iter()
                .map(|&v| SRotatingConsensus::new(size, v))
                .collect();
            let model = DetectorS::new(size);
            let mut adv = RandomAdversary::new(model, seed);
            let report = Engine::new(size).run(protos, &mut adv, &model).unwrap();
            max_rounds = max_rounds.max(report.rounds_executed);
            if task.check_terminating(&ins, &report.outputs()).is_err() {
                violations += 1;
            }
        }
        println!("| {nv} | {SEEDS} | {max_rounds} (= n) | {violations} |");
    }
    println!();
}

fn e17() {
    println!("## E17 — extension: early-stopping consensus (min(f′+2, f+1) rounds)");
    println!();
    use rrfd_models::adversary::StaggeredCrash;
    use rrfd_protocols::early_stopping::EarlyStoppingConsensus;

    let f = 5usize;
    let size = n(10);
    println!("n = 10, tolerance f = {f}; one actual crash per round until f′ is reached");
    println!();
    println!(
        "| actual failures f′ | rounds to decide | worst-case bound min(f′+2, f+1) | consensus |"
    );
    println!(
        "|--------------------|------------------|----------------------------------|-----------|"
    );
    for f_actual in 0..=f {
        let inputs: Vec<Value> = (0..10u64).collect();
        let protos: Vec<_> = inputs
            .iter()
            .map(|&v| EarlyStoppingConsensus::new(v, f))
            .collect();
        let model = Crash::new(size, f);
        let mut adv = StaggeredCrash::new(size, f_actual);
        let report = Engine::new(size).run(protos, &mut adv, &model).unwrap();
        let bound = (f_actual + 2).min(f + 1) as u32;
        let crashed = report.pattern.cumulative_union();
        let outs: Vec<Option<Value>> = report
            .outputs()
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.filter(|_| !crashed.contains(ProcessId::new(i))))
            .collect();
        let ok = KSetAgreement::consensus().check(&inputs, &outs).is_ok();
        assert!(report.rounds_executed <= bound);
        println!(
            "| {f_actual} | {} | {bound} | {ok} |",
            report.rounds_executed
        );
    }
    println!();
}

fn e18() {
    println!("## E18 — ◊S as an RRFD: consensus with quorum locking (§7 future work)");
    println!();
    use rrfd_models::predicates::EventuallyStrong;
    use rrfd_protocols::diamond_s_consensus::DiamondSConsensus;
    println!("| n | f | stabilization round | runs | max rounds to decide | violations |");
    println!("|---|---|---------------------|------|----------------------|------------|");
    for &(nv, f, stab) in &[(3usize, 1usize, 3u32), (5, 2, 6), (7, 3, 12), (9, 4, 24)] {
        let size = n(nv);
        let ins = inputs(nv);
        let task = KSetAgreement::consensus();
        let mut violations = 0u64;
        let mut max_rounds = 0u32;
        for seed in 0..SEEDS {
            let protos: Vec<_> = size
                .processes()
                .map(|p| DiamondSConsensus::new(size, p, f, ins[p.index()]))
                .collect();
            let model = EventuallyStrong::new(size, f, Round::new(stab));
            let mut adv = RandomAdversary::new(model, seed);
            let report = Engine::new(size)
                .max_rounds(3 * (stab + 3 * nv as u32 + 3))
                .run(protos, &mut adv, &model)
                .unwrap();
            max_rounds = max_rounds.max(report.rounds_executed);
            if task.check_terminating(&ins, &report.outputs()).is_err() {
                violations += 1;
            }
        }
        println!("| {nv} | {f} | {stab} | {SEEDS} | {max_rounds} | {violations} |");
    }
    println!();
}

fn explore_effort() {
    println!("## Exhaustive schedule exploration (search effort)");
    println!();
    println!(
        "The DPOR explorer returns its search-effort totals (`ExploreStats`): \
         trace classes checked (one representative run per Mazurkiewicz class), \
         decision points visited over every run it made (replayed prefixes re-counted), \
         the deepest run, and the race-reversal revisits it scheduled. The totals also \
         land on the `rrfd_explore_*` metrics via `ExploreStats::record`. \
         `tests/dpor_equivalence.rs` checks both instances against a walk over every \
         interleaving: 3432 schedules for adopt-commit, 226 for immediate snapshot."
    );
    println!();
    println!("| instance | trace classes | decision points | max depth | revisits | violations |");
    println!("|----------|---------------|-----------------|-----------|----------|------------|");

    use rrfd_core::task::AdoptCommitSpec;
    use rrfd_protocols::adopt_commit::AdoptCommitProcess;
    use rrfd_protocols::immediate_snapshot::{ImmediateSnapshot, IsDriver};
    use rrfd_sims::dpor::{explore_shared_mem_dpor, DporConfig};

    let config = DporConfig::new(1);
    let row = |instance: &str, stats: rrfd_sims::explore::ExploreStats| {
        println!(
            "| {instance} | {} | {} | {} | {} | 0 |",
            stats.schedules, stats.decision_points, stats.max_depth, stats.revisits
        );
    };

    // Adopt-commit, n = 2, mixed inputs.
    let size = n(2);
    let inputs = [4u64, 9];
    let sim = SharedMemSim::new(size, 2);
    let stats = explore_shared_mem_dpor(
        &sim,
        || {
            vec![
                AdoptCommitProcess::new(size, ProcessId::new(0), inputs[0], 0),
                AdoptCommitProcess::new(size, ProcessId::new(1), inputs[1], 0),
            ]
        },
        |report| {
            AdoptCommitSpec
                .check(&inputs, &report.outputs)
                .map_err(|v| format!("{v}"))
        },
        &config,
    )
    .expect("adopt-commit holds on every schedule");
    row("adopt-commit (n=2, inputs 4/9)", stats);

    // Immediate snapshot, n = 2: every interleaving, self-inclusion held.
    let sim = SharedMemSim::new(size, ImmediateSnapshot::BANKS).with_snapshots();
    let stats = explore_shared_mem_dpor(
        &sim,
        || {
            vec![
                IsDriver::new(ImmediateSnapshot::new(size, ProcessId::new(0), 0)),
                IsDriver::new(ImmediateSnapshot::new(size, ProcessId::new(1), 1)),
            ]
        },
        |report| {
            for (i, view) in report.outputs.iter().enumerate() {
                let view = view.as_ref().ok_or_else(|| format!("p{i} undecided"))?;
                if !view.contains(ProcessId::new(i)) {
                    return Err(format!("p{i} view misses itself"));
                }
            }
            Ok(())
        },
        &config,
    )
    .expect("immediate snapshot holds on every schedule");
    row("immediate snapshot (n=2)", stats);
    println!();
}

fn submodel_table() {
    println!("## Submodel lattice (sampled refinement checks)");
    println!();
    let size = n(7);
    let f = 3;
    let checks: Vec<(String, String, bool)> = vec![
        (
            Crash::new(size, f).name(),
            SendOmission::new(size, f).name(),
            refines_on_samples(&Crash::new(size, f), &SendOmission::new(size, f), 100, 8, 1)
                .holds(),
        ),
        (
            Snapshot::new(size, f).name(),
            Swmr::new(size, f).name(),
            refines_on_samples(&Snapshot::new(size, f), &Swmr::new(size, f), 100, 8, 2).holds(),
        ),
        (
            Swmr::new(size, f).name(),
            AsyncResilient::new(size, f).name(),
            refines_on_samples(
                &Swmr::new(size, f),
                &AsyncResilient::new(size, f),
                100,
                8,
                3,
            )
            .holds(),
        ),
        (
            IdenticalViews::new(size).name(),
            KUncertainty::new(size, 1).name(),
            refines_on_samples(
                &IdenticalViews::new(size),
                &KUncertainty::new(size, 1),
                100,
                8,
                4,
            )
            .holds(),
        ),
        (
            KUncertainty::new(size, 2).name(),
            KUncertainty::new(size, 4).name(),
            refines_on_samples(
                &KUncertainty::new(size, 2),
                &KUncertainty::new(size, 4),
                100,
                8,
                5,
            )
            .holds(),
        ),
    ];
    println!("| A | B | A ⇒ B |");
    println!("|---|---|--------|");
    for (a, b, v) in checks {
        println!("| {a} | {b} | {v} |");
    }
    println!();
}

fn main() {
    println!("# RRFD experiment report");
    println!();
    println!(
        "Generated by `cargo run -p rrfd-bench --bin experiments --release`; {SEEDS} seeds per cell unless noted."
    );
    println!();
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e10();
    e11();
    e12();
    e13();
    e14();
    e15();
    e16();
    e17();
    e18();
    explore_effort();
    submodel_table();
    println!(
        "All claims certified mechanically; any `false`/violation above is a reproduction failure."
    );
}
