//! Experiment E1: every classical simulator's executions, read off as
//! `D(i,r)` families exactly as §2 prescribes, satisfy the corresponding
//! RRFD predicate.
//!
//! These are the paper's "System N implements A" directions, checked
//! mechanically across seeds and system sizes.

use rrfd::core::{
    Control, Delivery, FaultPattern, IdSet, ProcessId, Round, RoundProtocol, RrfdPredicate,
    SystemSize,
};
use rrfd::models::predicates::{AsyncResilient, Crash, DetectorS, IdenticalViews, SendOmission};
use rrfd::sims::async_net::AsyncNetSim;
use rrfd::sims::async_rounds::RoundedAsync;
use rrfd::sims::detector_s::SAugmentedSystem;
use rrfd::sims::semi_sync::SemiSyncSim;
use rrfd::sims::step::RandomScheduler;
use rrfd::sims::sync_net::{RandomCrash, RandomOmission, SyncNetSim};

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).unwrap()
}

fn ids(xs: &[usize]) -> IdSet {
    xs.iter().map(|&i| ProcessId::new(i)).collect()
}

/// A protocol that just runs for a fixed number of rounds.
struct RunFor(u32);

impl RoundProtocol for RunFor {
    type Msg = ();
    type Output = ();
    fn emit(&mut self, _r: Round) {}
    fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<()> {
        if d.round.get() >= self.0 {
            Control::Decide(())
        } else {
            Control::Continue
        }
    }
}

#[test]
fn e1_sync_omission_executions_satisfy_eq1() {
    for &(nv, faulty, prob) in &[
        (5usize, &[1usize][..], 0.5),
        (8, &[0, 3, 6][..], 0.3),
        (12, &[2, 5, 7, 9][..], 0.7),
    ] {
        let size = n(nv);
        let model = SendOmission::new(size, faulty.len());
        for seed in 0..12u64 {
            let injector = RandomOmission::new(size, ids(faulty), prob, seed);
            let protos: Vec<_> = (0..nv).map(|_| RunFor(6)).collect();
            let report = SyncNetSim::new(size).run(protos, injector).unwrap();
            assert!(
                model.admits_pattern(&report.pattern),
                "n={nv} seed={seed}: omission extraction broke eq. 1"
            );
        }
    }
}

#[test]
fn e1_sync_crash_executions_satisfy_eq1_and_eq2() {
    for &(nv, fcount) in &[(5usize, 2usize), (8, 3), (10, 4)] {
        let size = n(nv);
        let model = Crash::new(size, fcount);
        for seed in 0..12u64 {
            let faulty: IdSet = (0..fcount).map(ProcessId::new).collect();
            let injector = RandomCrash::new(size, faulty, 4, seed);
            let protos: Vec<_> = (0..nv).map(|_| RunFor(6)).collect();
            let report = SyncNetSim::new(size).run(protos, injector).unwrap();
            assert!(
                model.admits_pattern(&report.pattern),
                "n={nv} f={fcount} seed={seed}: crash extraction broke eq. 1+2: {:?}",
                report.pattern
            );
        }
    }
}

#[test]
fn e1_async_round_overlay_satisfies_eq3() {
    // Item 3: discard-late/buffer-early with n−f quorums yields |D| ≤ f.
    for &(nv, f) in &[(5usize, 1usize), (6, 2), (9, 3)] {
        let size = n(nv);
        for seed in 0..10u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| RoundedAsync::new(p, size, f, RunFor(4)))
                .collect();
            let mut sched = RandomScheduler::new(seed, f).crash_prob(0.004);
            let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
            for proc_ in &report.processes {
                for d in proc_.fault_log() {
                    assert!(
                        d.len() <= f,
                        "n={nv} f={f} seed={seed}: |D| = {} > f",
                        d.len()
                    );
                }
            }
        }
    }
}

#[test]
fn e1_detector_s_system_satisfies_p6() {
    for &nv in &[4usize, 7, 10] {
        let size = n(nv);
        let model = DetectorS::new(size);
        for seed in 0..12u64 {
            let mut system = SAugmentedSystem::random(size, 5, seed);
            let mut history = FaultPattern::new(size);
            for r in 1..=8 {
                let round =
                    rrfd::core::FaultDetector::next_round(&mut system, Round::new(r), &history);
                assert!(
                    model.admits(&history, &round),
                    "n={nv} seed={seed} round={r}: P6 violated"
                );
                history.push(round);
            }
        }
    }
}

#[test]
fn e1_semi_sync_two_step_rounds_satisfy_eq5() {
    use rrfd::protocols::semi_sync_consensus::TwoStepConsensus;
    for &nv in &[3usize, 6, 10] {
        let size = n(nv);
        let model = IdenticalViews::new(size);
        for seed in 0..15u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| TwoStepConsensus::new(size, p, p.index() as u64))
                .collect();
            let mut sched = RandomScheduler::new(seed, nv - 1).crash_prob(0.05);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();

            // Assemble the single extracted round across deciders and pad
            // crashed processes with the deciders' (identical) view.
            let views: Vec<IdSet> = report
                .processes
                .iter()
                .filter_map(TwoStepConsensus::suspected)
                .collect();
            if views.is_empty() {
                continue; // everyone crashed: no round to check
            }
            let shared = views[0];
            let round = rrfd::core::RoundFaults::from_sets(size, vec![shared; size.get()]);
            let mut history = FaultPattern::new(size);
            assert!(model.admits(&history, &round), "n={nv} seed={seed}");
            history.push(round);
            // And all real views must agree with the padded one.
            for (i, v) in views.iter().enumerate() {
                assert_eq!(*v, shared, "n={nv} seed={seed}: view {i} differs");
            }
        }
    }
}

#[test]
fn e1_reverse_direction_rrfd_drives_protocols() {
    // The "A implements N" direction: RRFD adversaries drive protocols to
    // the same observable outcomes the simulators produce; spot-check with
    // the async model on both substrates.
    use rrfd::models::adversary::RandomAdversary;

    let size = n(6);
    let f = 2;

    // Count rounds to completion on the RRFD engine.
    let model = AsyncResilient::new(size, f);
    let mut adv = RandomAdversary::new(model, 9);
    let protos: Vec<_> = (0..6).map(|_| RunFor(4)).collect();
    let report = rrfd::core::Engine::new(size)
        .run(protos, &mut adv, &model)
        .unwrap();
    assert_eq!(report.rounds_executed, 4);
    assert!(report.all_decided());
}
