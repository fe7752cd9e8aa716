//! Differential soundness/completeness battery for the DPOR explorer
//! against the tree-walk oracle (`oracles/tree_walk.rs`), which visits
//! every interleaving: on random small protocols and random predicates,
//! the two must agree on (i) whether a counterexample exists, (ii) the
//! set of violating final-output vectors (one representative per
//! Mazurkiewicz class must still cover every reachable outcome), and
//! (iii) every DPOR counterexample must replay — through
//! `ScheduleReplay`, from the serialized certificate — to the same
//! violation. The same agreement on final-output vectors is checked on
//! the paper's protocol instances (adopt-commit, immediate snapshot, the
//! §5 two-step consensus). A determinism regression then pins the whole
//! `ExploreStats` projection and the chosen counterexample as a function
//! of the configuration, independent of the worker count that
//! `DporConfig::new` ignores.

#[path = "oracles/tree_walk.rs"]
mod tree_walk;

use proptest::prelude::*;
use rrfd::core::{Control, IdSet, ProcessId, SystemSize};
use rrfd::sims::dpor::{explore_semi_sync_dpor, explore_shared_mem_dpor, DporConfig, DporError};
use rrfd::sims::explore::ExploreStats;
use rrfd::sims::semi_sync::{SemiSyncProcess, SemiSyncReport, SemiSyncSim};
use rrfd::sims::shared_mem::{Action, MemProcess, MemRunReport, Observation, SharedMemSim};
use rrfd::sims::trace::ScheduleReplay;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;
use tree_walk::explore_schedules_checked;
use tree_walk::semi_sync::explore_semi_sync_checked;

/// One instruction of the scripted protocol. The DPOR explorer keys
/// trace classes on event sequences, so the interpreter needs no state
/// digest at all.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Write this value to the process's own cell of bank 0.
    Write(u64),
    /// Snapshot bank 0 and add the number of filled cells to the
    /// accumulator.
    Snap,
}

/// A tiny interpreter over shared memory: execute the program one op per
/// step (folding snapshot results into an accumulator), then decide the
/// accumulator.
#[derive(Debug, Clone)]
struct Scripted {
    ops: Vec<Op>,
    pc: usize,
    acc: u64,
}

impl MemProcess<u64> for Scripted {
    type Output = u64;
    fn step(&mut self, obs: Observation<u64>) -> Action<u64, u64> {
        if let Observation::SnapshotView(view) = &obs {
            self.acc += view.iter().flatten().count() as u64;
        }
        match self.ops.get(self.pc) {
            Some(&op) => {
                self.pc += 1;
                match op {
                    Op::Write(v) => Action::Write { bank: 0, value: v },
                    Op::Snap => Action::Snapshot { bank: 0 },
                }
            }
            None => Action::Decide(self.acc),
        }
    }
}

fn program() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..3).prop_map(|t| match t {
            0 => Op::Snap,
            v => Op::Write(u64::from(v)),
        }),
        1..=2,
    )
}

/// The random predicate: "no process decides a value ≥ threshold".
/// Low thresholds produce counterexamples, high ones do not, so both
/// branches of the differential get exercised.
fn violates(report: &MemRunReport<Scripted, u64>, threshold: u64) -> bool {
    report.outputs.iter().flatten().any(|&v| v >= threshold)
}

proptest! {
    /// The headline differential: DPOR finds a counterexample **iff**
    /// exhaustive enumeration does, covers the same violating outcomes,
    /// and its certificates replay.
    #[test]
    fn dpor_matches_exhaustive_on_scripted_protocols(
        ops in program(),
        n in 2usize..=3,
        threshold in 0u64..8,
    ) {
        let size = SystemSize::new(n).unwrap();
        let sim = SharedMemSim::new(size, 1).with_snapshots();
        let make = || {
            (0..n)
                .map(|_| Scripted { ops: ops.clone(), pc: 0, acc: 0 })
                .collect::<Vec<_>>()
        };
        let check = |report: &MemRunReport<Scripted, u64>| {
            if violates(report, threshold) {
                Err(format!("an output reached {threshold}"))
            } else {
                Ok(())
            }
        };

        let seq = explore_schedules_checked(&sim, make, check, 100_000);

        // (ii) the violating final-output vectors, collected with a
        // never-failing check so both explorers cover everything. Final
        // outputs are invariant within a Mazurkiewicz class, so one
        // representative per class must still reach every vector the
        // full tree reaches.
        let seq_set = RefCell::new(BTreeSet::new());
        let collect_seq = |report: &MemRunReport<Scripted, u64>| {
            if violates(report, threshold) {
                seq_set.borrow_mut().insert(report.outputs.clone());
            }
            Ok(())
        };
        explore_schedules_checked(&sim, make, collect_seq, 100_000).unwrap();
        let seq_set = seq_set.into_inner();

        let config = DporConfig::new(1);
        let dpor_set = RefCell::new(BTreeSet::new());
        let collect_dpor = |report: &MemRunReport<Scripted, u64>| {
            if violates(report, threshold) {
                dpor_set.borrow_mut().insert(report.outputs.clone());
            }
            Ok(())
        };
        explore_shared_mem_dpor(&sim, make, collect_dpor, &config).unwrap();
        let dpor_set = dpor_set.into_inner();
        prop_assert!(
            dpor_set == seq_set,
            "violating outcome vectors disagree: {:?} vs {:?}",
            dpor_set,
            seq_set
        );

        // (i) counterexample existence agrees; (iii) the DPOR
        // certificate survives a serialize → parse → replay
        // round-trip and reproduces the violation.
        let dpor = explore_shared_mem_dpor(&sim, make, check, &config);
        match (&seq, &dpor) {
            (Ok(_), Ok(_)) => {}
            (Err(_), Err(DporError::Counterexample(cex))) => {
                let reparsed = cex.schedule.to_string().parse().unwrap();
                let mut replay = ScheduleReplay::from_trace(&reparsed);
                let report = sim.run(make(), &mut replay).unwrap();
                prop_assert!(
                    violates(&report, threshold),
                    "replayed DPOR certificate must reproduce the violation"
                );
            }
            (s, d) => prop_assert!(
                false,
                "existence disagreement: seq {:?} vs dpor {:?}",
                s.is_ok(), d.is_ok()
            ),
        }
    }
}

/// A broadcast-once, decide-after-`rounds`-steps semi-synchronous
/// process, deciding on how many distinct processes it heard from (same
/// shape as the legacy suite's adversary target: the crash budget is the
/// data nondeterminism race reversals alone cannot reach).
#[derive(Debug, Clone)]
struct Hearer {
    rounds: u64,
    steps: u64,
    heard: IdSet,
    sent: bool,
}

impl SemiSyncProcess for Hearer {
    type Msg = ();
    type Output = usize;
    fn step(&mut self, received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<usize>) {
        self.steps += 1;
        for &(from, _) in received {
            self.heard.insert(from);
        }
        let msg = (!self.sent).then(|| self.sent = true);
        if self.steps >= self.rounds {
            (msg, Control::Decide(self.heard.len()))
        } else {
            (msg, Control::Continue)
        }
    }
}

fn semi_violates(report: &SemiSyncReport<Hearer>, quorum: usize) -> bool {
    report.outputs.iter().flatten().any(|(h, _)| *h < quorum)
}

proptest! {
    /// The crash-budget adversary differential: with `crashes` crash
    /// alternatives in play, DPOR existence must still match exhaustive
    /// enumeration and certificates (which may embed `Crash` events)
    /// must replay.
    #[test]
    fn semi_sync_dpor_matches_exhaustive(
        rounds in 2u64..=3,
        crashes in 0usize..=1,
        quorum in 1usize..=2,
    ) {
        let size = SystemSize::new(2).unwrap();
        let sim = SemiSyncSim::new(size);
        let make = || {
            (0..2)
                .map(|_| Hearer {
                    rounds,
                    steps: 0,
                    heard: IdSet::empty(),
                    sent: false,
                })
                .collect::<Vec<_>>()
        };
        let check = |report: &SemiSyncReport<Hearer>| {
            if semi_violates(report, quorum) {
                Err(format!("someone heard fewer than {quorum}"))
            } else {
                Ok(())
            }
        };

        let seq = explore_semi_sync_checked(&sim, crashes, make, check, 200_000);
        let dpor = explore_semi_sync_dpor(&sim, crashes, make, check, &DporConfig::new(1));
        match (&seq, &dpor) {
            (Ok(_), Ok(_)) => {}
            (Err(_), Err(DporError::Counterexample(cex))) => {
                let mut replay = ScheduleReplay::from_trace(&cex.schedule);
                let report = sim.run(make(), &mut replay).unwrap();
                prop_assert!(
                    semi_violates(&report, quorum),
                    "replayed semi-sync DPOR certificate must reproduce the violation"
                );
            }
            (s, d) => prop_assert!(
                false,
                "semi-sync existence disagreement (crashes {}): seq {:?} vs dpor {:?}",
                crashes, s.is_ok(), d.is_ok()
            ),
        }
    }
}

/// Everything but `steals`, which is always 0 — the projection the
/// determinism contract covers.
fn projection(stats: &ExploreStats) -> impl std::fmt::Debug + PartialEq {
    (
        stats.schedules,
        stats.decision_points,
        stats.max_depth,
        stats.graphs_explored,
        stats.revisits,
        stats.sleep_set_blocked,
        stats.memo_entries,
        stats.memo_bytes,
    )
}

/// Same seed + configuration in, identical stats projection and the
/// identical counterexample out. `DporConfig::new` ignores its worker
/// count, so a one-worker and an eight-worker configuration must agree.
#[test]
fn dpor_results_are_worker_count_independent() {
    let size = SystemSize::new(3).unwrap();
    let sim = SharedMemSim::new(size, 1).with_snapshots();
    let make = || {
        (0..3)
            .map(|_| Scripted {
                ops: vec![Op::Write(1), Op::Snap],
                pc: 0,
                acc: 0,
            })
            .collect::<Vec<_>>()
    };
    // Fails on classes where someone's snapshot saw all three writes.
    let check = |report: &MemRunReport<Scripted, u64>| {
        if violates(report, 3) {
            Err("saw a full snapshot".to_owned())
        } else {
            Ok(())
        }
    };

    let run = |workers| {
        let err =
            explore_shared_mem_dpor(&sim, make, check, &DporConfig::new(workers)).unwrap_err();
        let DporError::Counterexample(cex) = err else {
            panic!("expected a counterexample");
        };
        cex
    };
    let (first, second) = (run(1), run(8));
    assert_eq!(
        format!("{:?}", projection(&second.stats)),
        format!("{:?}", projection(&first.stats)),
        "stats projection must not change between runs"
    );
    assert_eq!(second.message, first.message);
    assert_eq!(second.schedule.to_string(), first.schedule.to_string());
    assert_eq!(first.stats.steals, 0);
}

/// The never-failing sweep is worker-count-independent too (no
/// counterexample to anchor on — the full class count must agree).
#[test]
fn dpor_sweep_stats_are_worker_count_independent() {
    let size = SystemSize::new(3).unwrap();
    let sim = SharedMemSim::new(size, 1).with_snapshots();
    let make = || {
        (0..3)
            .map(|_| Scripted {
                ops: vec![Op::Snap],
                pc: 0,
                acc: 0,
            })
            .collect::<Vec<_>>()
    };
    let sweep = |workers| {
        explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(workers)).unwrap()
    };
    let (first, second) = (sweep(1), sweep(8));
    assert_eq!(
        format!("{:?}", projection(&second)),
        format!("{:?}", projection(&first)),
        "sweep stats must not change between runs"
    );
}

fn size(n: usize) -> SystemSize {
    SystemSize::new(n).unwrap()
}

/// Writes its own bank; never reads. All schedules commute: one class.
#[derive(Debug, Clone)]
struct LoneWriter {
    me: ProcessId,
}

impl MemProcess<u64> for LoneWriter {
    type Output = u64;
    fn step(&mut self, obs: Observation<u64>) -> Action<u64, u64> {
        match obs {
            Observation::Start => Action::Write {
                bank: self.me.index(),
                value: 1,
            },
            Observation::Written => Action::Decide(7),
            other => unreachable!("{other:?}"),
        }
    }
}

fn writers(n: usize) -> Vec<LoneWriter> {
    (0..n)
        .map(|i| LoneWriter {
            me: ProcessId::new(i),
        })
        .collect()
}

/// Writes `me + 1` to bank 0, reads the other's cell, decides on it:
/// read/write races make schedule order observable.
#[derive(Debug, Clone)]
struct WriteRead {
    me: ProcessId,
}

impl MemProcess<u64> for WriteRead {
    type Output = Option<u64>;
    fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
        match obs {
            Observation::Start => Action::Write {
                bank: 0,
                value: self.me.index() as u64 + 1,
            },
            Observation::Written => Action::Read {
                bank: 0,
                owner: ProcessId::new(1 - self.me.index()),
            },
            Observation::Value(v) => Action::Decide(v),
            other => unreachable!("{other:?}"),
        }
    }
}

fn make_pair() -> Vec<WriteRead> {
    vec![
        WriteRead {
            me: ProcessId::new(0),
        },
        WriteRead {
            me: ProcessId::new(1),
        },
    ]
}

#[test]
fn independent_writers_collapse_to_one_class() {
    let n = 4;
    let sim = SharedMemSim::new(size(n), n);
    let exhaustive = explore_schedules_checked(&sim, || writers(n), |_| Ok(()), 1_000_000).unwrap();
    let dpor =
        explore_shared_mem_dpor(&sim, || writers(n), |_| Ok(()), &DporConfig::new(1)).unwrap();
    assert!(exhaustive.schedules > 1000, "8 events over 4 processes");
    assert_eq!(dpor.schedules, 1, "fully commuting: a single trace class");
    assert_eq!(dpor.graphs_explored, 1);
    assert_eq!(dpor.revisits, 0);
}

#[test]
fn racy_pair_explores_every_outcome() {
    // Collect the decision-vector outcomes both explorers can see.
    let sim = SharedMemSim::new(size(2), 1);
    let outcomes = RefCell::new(BTreeSet::new());
    let collect = |report: &MemRunReport<WriteRead, u64>| {
        outcomes
            .borrow_mut()
            .insert(format!("{:?}", report.outputs));
        Ok(())
    };
    explore_shared_mem_dpor(&sim, make_pair, collect, &DporConfig::new(1)).unwrap();
    let dpor_outcomes = outcomes.take();

    explore_schedules_checked(&sim, make_pair, collect, 1_000_000).unwrap();
    let exhaustive_outcomes = outcomes.take();
    assert_eq!(dpor_outcomes, exhaustive_outcomes);
    assert!(dpor_outcomes.len() > 1, "races must be visible");
}

/// What one explorer saw of a protocol instance: the distinct final
/// outcomes it reached, and its search-effort totals.
type Seen = (BTreeSet<String>, ExploreStats);

/// A protocol instance explored by the tree-walk oracle and by DPOR:
/// `(oracle, dpor)`.
type Explored = (Seen, Seen);

/// Explores a shared-memory instance with both explorers, collecting the
/// final output vector of every run each one checks.
fn explore_shared_mem_both<V, P, G>(sim: &SharedMemSim, make: G) -> Explored
where
    V: Clone,
    P: MemProcess<V> + Clone,
    P::Output: Clone + std::fmt::Debug,
    G: Fn() -> Vec<P>,
{
    let oracle_seen = RefCell::new(BTreeSet::new());
    let oracle = explore_schedules_checked(
        sim,
        &make,
        |report: &MemRunReport<P, V>| {
            oracle_seen
                .borrow_mut()
                .insert(format!("{:?}", report.outputs));
            Ok(())
        },
        100_000,
    )
    .unwrap();
    let dpor_seen = RefCell::new(BTreeSet::new());
    let dpor = explore_shared_mem_dpor(
        sim,
        &make,
        |report: &MemRunReport<P, V>| {
            dpor_seen
                .borrow_mut()
                .insert(format!("{:?}", report.outputs));
            Ok(())
        },
        &DporConfig::new(1),
    )
    .unwrap();
    (
        (oracle_seen.into_inner(), oracle),
        (dpor_seen.into_inner(), dpor),
    )
}

fn adopt_commit_pair(inputs: [u64; 2]) -> Explored {
    use rrfd::protocols::adopt_commit::AdoptCommitProcess;
    let n = size(2);
    explore_shared_mem_both(&SharedMemSim::new(n, 2), || {
        vec![
            AdoptCommitProcess::new(n, ProcessId::new(0), inputs[0], 0),
            AdoptCommitProcess::new(n, ProcessId::new(1), inputs[1], 0),
        ]
    })
}

fn immediate_snapshot_pair() -> Explored {
    use rrfd::protocols::immediate_snapshot::{ImmediateSnapshot, IsDriver};
    let n = size(2);
    let sim = SharedMemSim::new(n, ImmediateSnapshot::BANKS).with_snapshots();
    explore_shared_mem_both(&sim, || {
        vec![
            IsDriver::new(ImmediateSnapshot::new(n, ProcessId::new(0), 0)),
            IsDriver::new(ImmediateSnapshot::new(n, ProcessId::new(1), 1)),
        ]
    })
}

/// The §5 two-step consensus on `n` processes with up to `crashes`
/// crashes. An outcome is the output vector plus every decider's view
/// (equation 5 is a claim about the views, not only the outputs).
fn two_step_consensus(n: usize, crashes: usize) -> Explored {
    use rrfd::protocols::semi_sync_consensus::TwoStepConsensus;
    let sz = size(n);
    let sim = SemiSyncSim::new(sz);
    let make = || {
        sz.processes()
            .map(|p| TwoStepConsensus::new(sz, p, 500 + p.index() as u64))
            .collect::<Vec<_>>()
    };
    let outcome = |report: &SemiSyncReport<TwoStepConsensus>| {
        let views: Vec<IdSet> = report
            .processes
            .iter()
            .filter_map(TwoStepConsensus::suspected)
            .collect();
        format!("{:?} {views:?}", report.outputs)
    };
    let oracle_seen = RefCell::new(BTreeSet::new());
    let oracle = explore_semi_sync_checked(
        &sim,
        crashes,
        make,
        |report| {
            oracle_seen.borrow_mut().insert(outcome(report));
            Ok(())
        },
        100_000,
    )
    .unwrap();
    let dpor_seen = RefCell::new(BTreeSet::new());
    let dpor = explore_semi_sync_dpor(
        &sim,
        crashes,
        make,
        |report| {
            dpor_seen.borrow_mut().insert(outcome(report));
            Ok(())
        },
        &DporConfig::new(1),
    )
    .unwrap();
    (
        (oracle_seen.into_inner(), oracle),
        (dpor_seen.into_inner(), dpor),
    )
}

/// A protocol instance of the coverage table.
#[derive(Debug, Clone, Copy)]
enum Instance {
    /// Adopt-commit, n = 2, with these inputs.
    AdoptCommit([u64; 2]),
    /// Immediate snapshot, n = 2.
    ImmediateSnapshot,
    /// The §5 two-step consensus on `n` processes, up to `crashes` crashes.
    TwoStep { n: usize, crashes: usize },
}

impl Instance {
    fn explore(self) -> Explored {
        match self {
            Instance::AdoptCommit(inputs) => adopt_commit_pair(inputs),
            Instance::ImmediateSnapshot => immediate_snapshot_pair(),
            Instance::TwoStep { n, crashes } => two_step_consensus(n, crashes),
        }
    }
}

/// The interleaving coverage behind the protocol crates' proofs by
/// enumeration: their unit tests check each specification on DPOR's
/// class representatives only, so here the tree walk visits every
/// schedule of the same instances and must reach exactly the outcomes
/// DPOR reaches. The tree walk's schedule count and DPOR's class count
/// are pinned per instance.
#[test]
fn protocol_instances_reach_the_same_outcomes_under_both_explorers() {
    let cases = [
        (Instance::AdoptCommit([4, 4]), 3432, 9),
        (Instance::AdoptCommit([4, 9]), 3432, 9),
        (Instance::ImmediateSnapshot, 226, 7),
        (Instance::TwoStep { n: 2, crashes: 1 }, 16, 7),
        (Instance::TwoStep { n: 3, crashes: 1 }, 342, 24),
        (Instance::TwoStep { n: 3, crashes: 2 }, 522, 54),
    ];
    for (instance, schedules, classes) in cases {
        let ((oracle_seen, oracle), (dpor_seen, dpor)) = instance.explore();
        assert_eq!(
            oracle.schedules, schedules,
            "{instance:?}: oracle schedules"
        );
        assert_eq!(dpor.schedules, classes, "{instance:?}: DPOR trace classes");
        assert_eq!(oracle_seen, dpor_seen, "{instance:?}: outcome sets");
    }
}
