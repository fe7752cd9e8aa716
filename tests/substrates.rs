//! Integration sweeps over the supporting substrates: immediate snapshots
//! (the iterated model of [4]), the ABD register emulation ([22]), and
//! detector-S consensus — the machinery the paper's §2 relies on.

use rrfd::core::task::{KSetAgreement, Value};
use rrfd::core::{Engine, IdSet, ProcessId, RrfdPredicate, SystemSize};
use rrfd::models::adversary::RandomAdversary;
use rrfd::models::predicates::{DetectorS, Snapshot};
use rrfd::protocols::abd::{check_clients, AbdClient, Op};
use rrfd::protocols::immediate_snapshot::{
    views_to_round, ImmediateSnapshot, IsDriver, IteratedIS,
};
use rrfd::protocols::s_consensus::SRotatingConsensus;
use rrfd::sims::async_net::AsyncNetSim;
use rrfd::sims::shared_mem::SharedMemSim;
use rrfd::sims::step::RandomScheduler;

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).unwrap()
}

#[test]
fn immediate_snapshot_properties_sweep() {
    for nv in [2usize, 3, 5, 8, 12] {
        let size = n(nv);
        for seed in 0..15u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| IsDriver::new(ImmediateSnapshot::new(size, p, 0)))
                .collect();
            let mut sched = RandomScheduler::new(seed, 0);
            let report = SharedMemSim::new(size, ImmediateSnapshot::BANKS)
                .with_snapshots()
                .run(procs, &mut sched)
                .unwrap();
            let views: Vec<IdSet> = report.outputs.into_iter().map(Option::unwrap).collect();
            // Self-inclusion + containment + immediacy.
            for (i, vi) in views.iter().enumerate() {
                assert!(vi.contains(ProcessId::new(i)), "n={nv} seed={seed}");
                for (j, vj) in views.iter().enumerate() {
                    assert!(
                        vi.is_subset(*vj) || vj.is_subset(*vi),
                        "n={nv} seed={seed}: incomparable views"
                    );
                    if vi.contains(ProcessId::new(j)) {
                        assert!(vj.is_subset(*vi), "n={nv} seed={seed}: immediacy");
                    }
                }
            }
            // And the complemented views are a snapshot-predicate round.
            let round = views_to_round(size, &views);
            let model = Snapshot::new(size, nv - 1);
            assert!(
                model.admits(&rrfd::core::FaultPattern::new(size), &round),
                "n={nv} seed={seed}"
            );
        }
    }
}

#[test]
fn iterated_is_full_pattern_sweep() {
    for &(nv, rounds) in &[(3usize, 3u32), (5, 4), (8, 3)] {
        let size = n(nv);
        let model = Snapshot::new(size, nv - 1);
        for seed in 0..10u64 {
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
            let mut pattern = rrfd::core::FaultPattern::new(size);
            for r in 0..rounds as usize {
                let views: Vec<IdSet> = all.iter().map(|v| v[r]).collect();
                pattern.push(views_to_round(size, &views));
            }
            assert!(
                model.admits_pattern(&pattern),
                "n={nv} rounds={rounds} seed={seed}"
            );
        }
    }
}

#[test]
fn abd_atomicity_sweep() {
    let size = n(5);
    let f = 2;
    let p0 = ProcessId::new(0);
    let p3 = ProcessId::new(3);
    let scripts: Vec<Vec<Op>> = vec![
        vec![Op::Write(1), Op::Write(2), Op::Write(3)],
        vec![Op::Read(p0); 3],
        vec![Op::Read(p0), Op::Read(p3)],
        vec![Op::Write(50), Op::Read(p0), Op::Write(51)],
        vec![Op::Read(p3), Op::Read(p3)],
    ];
    for seed in 0..40u64 {
        let procs: Vec<_> = size
            .processes()
            .map(|p| AbdClient::new(p, size, f, scripts[p.index()].clone()))
            .collect();
        let mut sched = RandomScheduler::new(seed, f).crash_prob(0.002);
        let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
        check_clients(&report.processes).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
    }
}

#[test]
fn s_consensus_sweep() {
    for nv in [3usize, 6, 10] {
        let size = n(nv);
        let inputs: Vec<Value> = (0..nv as u64).map(|i| 40 + i).collect();
        let task = KSetAgreement::consensus();
        for seed in 0..15u64 {
            let protos: Vec<_> = inputs
                .iter()
                .map(|&v| SRotatingConsensus::new(size, v))
                .collect();
            let model = DetectorS::new(size);
            let mut adv = RandomAdversary::new(model, seed);
            let report = Engine::new(size).run(protos, &mut adv, &model).unwrap();
            let outs = report.outputs();
            task.check_terminating(&inputs, &outs)
                .unwrap_or_else(|v| panic!("n={nv} seed={seed}: {v}"));
            assert!(report.rounds_executed <= nv as u32);
        }
    }
}
