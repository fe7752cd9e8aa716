//! Dynamic partial-order reduction (DPOR): the schedule explorer.
//!
//! Most scheduler *interleavings* of a small instance differ only in the
//! order of commuting steps and reach the same outcome, so enumerating
//! them all is wasted work. This module explores **execution graphs**
//! instead: a completed run is a set of events partially ordered by
//! happens-before (program order plus conflict order, kept as one
//! predecessor bit row per event). Runs
//! with the same graph form one *Mazurkiewicz trace class* and are outcome-
//! equivalent, so the explorer visits **one representative per class**:
//!
//! 1. A work item is an event-sequence *revisit prefix*. Processing it
//!    replays the prefix and extends it deterministically (always the
//!    first enabled option) to a maximal run, on the search's one
//!    scratch: one state rewound to the root, one graph and one set of
//!    buffers reused across every item.
//! 2. The run's class identity is its **canonical linearization**
//!    (greedy smallest-pid topological sort of happens-before). The
//!    search keeps one dedup structure, the *revisit tree*: a trie over
//!    event sequences. Walking the canonical
//!    linearization through it and marking the end node is the class
//!    check; already-marked classes are dropped — the sleep-set role,
//!    counted in [`ExploreStats::sleep_set_blocked`].
//! 3. A fresh class is checked, then expanded: every *reversible race*
//!    (adjacent-in-happens-before conflict between different processes)
//!    yields a revisit prefix that schedules the second event without
//!    the first, and — on substrates with data nondeterminism — every
//!    enabled crash the deterministic extension skipped yields a
//!    *choice* prefix. Crash enabledness is folded along the canonical
//!    linearization from the events' footprints (a `Crash` spends the
//!    budget and leaves the live set, a decision leaves the live set),
//!    so the class is not replayed a second time to find them. Children
//!    are derived from the canonical form, so they are a pure function
//!    of the class. The crashes offered at canonical depth `d` depend
//!    only on the prefix `canon[..d]`, one revisit-tree node: the first
//!    class whose canonical path passes through a node proposes that
//!    node's crash alternatives and flags it, and later classes skip
//!    them there, counting each as blocked, exactly as deduplicating it
//!    would have.
//! 4. Each child is located in the revisit tree relative to the class's
//!    canonical path (a depth plus a short tail), and is queued only if
//!    its end node was not queued before. Only fresh children are
//!    copied onto the one LIFO stack of work items, which keeps every
//!    prefix back to back in a single event buffer; the search drains
//!    it depth first in a plain loop on the calling thread. The graph
//!    records each run's reversible races while it is built, and the
//!    graph, the linearization and the stack reuse their buffers from
//!    item to item, so an item allocates nothing once they have grown.
//!
//! Because the explored set is the closure of a pure `children`
//! function, every reported number is independent of the order items
//! are processed in, and so is the counterexample — the failing class
//! with the smallest canonical key. Certificates are replayable
//! [`crate::trace::ScheduleTrace`]s.
//!
//! DPOR never digests *states*, only event sequences — so it soundly
//! explores protocols with opaque oracle state. The counterexample key
//! is the canonical linearization's trace lines, length-prefixed, as one
//! byte string.
//!
//! Layout: [`graph`] records runs and linearizes them; the private
//! `revisit` module holds the search, which runs directly on a step
//! simulator's execution with a crash budget beside it. The two entry
//! points below start an execution and search it, with a budget of 0 on
//! shared memory and the caller's on semi-synchrony. A search that
//! outgrows [`DporConfig::max_schedules`] or the simulator's step limit
//! returns [`DporError::Budget`], not a panic.

pub mod graph;
mod revisit;

pub use graph::{Access, ExecEvent, ExecutionGraph};
pub use revisit::DporError;

use crate::explore::ExploreStats;
use crate::semi_sync::{SemiSyncExecution, SemiSyncProcess, SemiSyncReport, SemiSyncSim};
use crate::shared_mem::{MemExecution, MemProcess, MemRunReport, SharedMemSim};
use crate::step::StepExecution;
use revisit::Search;
use rrfd_obs::Obs;

/// Configuration of a DPOR exploration.
#[derive(Debug, Clone)]
pub struct DporConfig {
    max_schedules: usize,
    obs: Obs,
}

impl DporConfig {
    /// A configuration with a 1 000 000-class guard.
    ///
    /// `_workers`, once the thread count, is ignored: the search is one
    /// loop on the calling thread. The parameter stays only
    /// because the `roundbench` benchmark still calls
    /// `DporConfig::new(nproc)`; ROADMAP's *Roundbench edits* drops it.
    #[must_use]
    pub fn new(_workers: usize) -> Self {
        DporConfig {
            max_schedules: 1_000_000,
            obs: Obs::noop(),
        }
    }

    /// Overrides the trace-class guard: the search stops with
    /// [`DporError::Budget`] once it has explored more than `max`
    /// classes.
    #[must_use]
    pub fn max_schedules(mut self, max: usize) -> Self {
        self.max_schedules = max;
        self
    }

    /// Attaches an instrumentation handle; the folded [`ExploreStats`]
    /// of every search are recorded under the `rrfd_explore_*` metric
    /// names. The default no-op handle records nothing.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// A step execution that packages its current state as a report without
/// being consumed: it clones only what the report holds (outputs, the
/// crashed set, the step total, the processes), not the rest of the
/// execution. The explorer reports every fresh class this way.
pub(crate) trait ReportInPlace: StepExecution {
    /// The report [`StepExecution::into_report`] would return now.
    fn report(&self) -> Self::Report;
}

/// Explores one representative per Mazurkiewicz trace class of `sim`'s
/// crash-free schedules (every interleaving of runnable-process steps,
/// partitioned by commutation), invoking `check` on each representative
/// run.
///
/// A violated predicate is found by this search **iff** some interleaving
/// violates it — all members of a class produce the same run report —
/// and the returned certificate replays to the same violation. Requires
/// no state digests: class identity is an event sequence, so
/// oracle-bearing protocols explore soundly.
///
/// # Errors
///
/// [`DporError::Counterexample`] carries the failing class with the
/// smallest canonical key (a deterministic choice, independent of
/// traversal order) as a replayable certificate;
/// [`DporError::Budget`] reports a search past
/// [`DporConfig::max_schedules`] explored trace classes, or a run past
/// the simulator's step limit; [`DporError::Misconfigured`] reports a
/// process vector that does not match the system size, or any other
/// simulator error a protocol causes mid-run, with the simulator's
/// message.
pub fn explore_shared_mem_dpor<V, P, G, F>(
    sim: &SharedMemSim,
    make: G,
    check: F,
    config: &DporConfig,
) -> Result<ExploreStats, DporError>
where
    V: Clone,
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    G: Fn() -> Vec<P>,
    F: Fn(&MemRunReport<P, V>) -> Result<(), String>,
{
    let exec = MemExecution::start(sim, make())
        .map_err(|err| DporError::Misconfigured(err.to_string()))?;
    // A budget of 0: scheduling order is the only nondeterminism, and
    // race reversals cover it.
    Search::run(&exec, 0, &check, config)?.finish()
}

/// Explores one representative per trace class of the semi-synchronous
/// schedules with up to `max_crashes` adversarially timed crashes (at
/// every step, any live process may step or, budget permitting and with
/// another process live, crash). Crash placements are data nondeterminism, handled by explicit choice
/// branches rather than race reversals; commuting step orders still
/// collapse into one class each.
///
/// # Errors
///
/// As [`explore_shared_mem_dpor`].
pub fn explore_semi_sync_dpor<P, G, F>(
    sim: &SemiSyncSim,
    max_crashes: usize,
    make: G,
    check: F,
    config: &DporConfig,
) -> Result<ExploreStats, DporError>
where
    P: SemiSyncProcess + Clone,
    G: Fn() -> Vec<P>,
    F: Fn(&SemiSyncReport<P>) -> Result<(), String>,
{
    let exec = SemiSyncExecution::start(sim, make())
        .map_err(|err| DporError::Misconfigured(err.to_string()))?;
    Search::run(&exec, max_crashes, &check, config)?.finish()
}

#[cfg(test)]
mod tests {
    use super::revisit::{apply_traced, crash_alternatives};
    use super::*;
    use crate::shared_mem::{Action, Observation};
    use crate::step::StepEvent;
    use crate::trace::ScheduleReplay;
    use rrfd_core::{Control, ProcessId, SystemSize};
    use std::sync::Arc;

    fn size(n: usize) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    /// The events enabled at `state` with `crash_budget` crashes left: the
    /// execution's steps, in id order, then (with another process live) a
    /// crash of each live process.
    fn options<X: StepExecution>(state: &X, crash_budget: usize, out: &mut Vec<StepEvent>) {
        state.enabled(out);
        let live = state.live();
        if crash_budget > 0 && live.len() > 1 {
            out.extend(live.iter().map(StepEvent::Crash));
        }
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
    fn counterexample_replays_to_the_same_violation() {
        let sim = SharedMemSim::new(size(2), 1);
        // "p0 never reads p1's write" fails in schedules where p1's
        // write lands before p0's read.
        let check = |report: &MemRunReport<WriteRead, u64>| match &report.outputs[0] {
            Some(Some(2)) => Err("p0 observed p1's write".to_owned()),
            _ => Ok(()),
        };
        let err = explore_shared_mem_dpor(&sim, make_pair, check, &DporConfig::new(1)).unwrap_err();
        let DporError::Counterexample(cex) = err else {
            panic!("expected a counterexample");
        };
        let mut replay = ScheduleReplay::from_trace(&cex.schedule);
        let report = sim.run(make_pair(), &mut replay).unwrap();
        assert_eq!(report.outputs[0], Some(Some(2)));
        assert!(cex.stats.graphs_explored > 0);
    }

    #[test]
    fn stats_are_worker_count_independent() {
        let sim = SharedMemSim::new(size(3), 1);
        let make = || {
            (0..3)
                .map(|i| WriteReadRing {
                    me: ProcessId::new(i),
                })
                .collect::<Vec<_>>()
        };
        let project = |s: ExploreStats| {
            (
                s.schedules,
                s.decision_points,
                s.max_depth,
                s.graphs_explored,
                s.revisits,
                s.sleep_set_blocked,
                s.memo_entries,
                s.memo_bytes,
            )
        };
        // `DporConfig::new` ignores its worker count: both searches run
        // the same loop on this thread.
        let one = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(1)).unwrap();
        let eight = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(8)).unwrap();
        assert_eq!(project(one), project(eight));
        assert_eq!((one.steals, eight.steals), (0, 0), "nothing is stolen");
    }

    /// Writes to a bank the system does not have.
    #[derive(Debug, Clone)]
    struct OutOfRange;

    impl MemProcess<u64> for OutOfRange {
        type Output = ();
        fn step(&mut self, _obs: Observation<u64>) -> Action<u64, ()> {
            Action::Write { bank: 1, value: 0 }
        }
    }

    #[test]
    fn simulator_errors_are_typed_not_panics() {
        let sim = SharedMemSim::new(size(2), 1);
        let make = || vec![OutOfRange, OutOfRange];
        let err = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(1)).unwrap_err();
        let DporError::Misconfigured(why) = err else {
            panic!("expected a misconfiguration, got {err}");
        };
        assert!(why.contains("bank 1, which does not exist"), "{why}");
    }

    /// Three-process ring: write own value, read left neighbour.
    #[derive(Debug, Clone)]
    struct WriteReadRing {
        me: ProcessId,
    }

    impl MemProcess<u64> for WriteReadRing {
        type Output = Option<u64>;
        fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
            match obs {
                Observation::Start => Action::Write {
                    bank: 0,
                    value: self.me.index() as u64,
                },
                Observation::Written => Action::Read {
                    bank: 0,
                    owner: ProcessId::new((self.me.index() + 2) % 3),
                },
                Observation::Value(v) => Action::Decide(v),
                other => unreachable!("{other:?}"),
            }
        }
    }

    /// Semi-sync process that decides how many distinct senders it heard.
    #[derive(Debug, Clone)]
    struct Hearer {
        sent: bool,
        heard: std::collections::BTreeSet<usize>,
    }

    impl SemiSyncProcess for Hearer {
        type Msg = ();
        type Output = usize;
        fn step(&mut self, received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<usize>) {
            for (from, _) in received {
                self.heard.insert(from.index());
            }
            if self.sent {
                (None, Control::Decide(self.heard.len()))
            } else {
                self.sent = true;
                (Some(()), Control::Continue)
            }
        }
    }

    fn hearers(n: usize) -> Vec<Hearer> {
        (0..n)
            .map(|_| Hearer {
                sent: false,
                heard: std::collections::BTreeSet::new(),
            })
            .collect()
    }

    #[test]
    fn semi_sync_reaches_crash_dependent_violations() {
        // With one crash allowed, some process can decide having heard
        // fewer than n-1 others; crash-free runs cannot show this for a
        // fully scheduled 2-process exchange where both broadcast before
        // either decides... the point: the violation needs a crash, so
        // only the alternative branches can reach it.
        let sim = SemiSyncSim::new(size(2));
        let check = |report: &SemiSyncReport<Hearer>| {
            if !report.crashed.is_empty() {
                Err("a crash was scheduled".to_owned())
            } else {
                Ok(())
            }
        };
        let err =
            explore_semi_sync_dpor(&sim, 1, || hearers(2), check, &DporConfig::new(1)).unwrap_err();
        let DporError::Counterexample(cex) = err else {
            panic!("expected a crash-bearing counterexample");
        };
        assert!(
            cex.schedule
                .events()
                .iter()
                .any(|e| matches!(e, StepEvent::Crash(_))),
            "certificate must contain the crash: {:?}",
            cex.schedule.events()
        );

        // And with a zero budget the same search is clean.
        let clean = explore_semi_sync_dpor(&sim, 0, || hearers(2), check, &DporConfig::new(1));
        assert!(clean.is_ok());
    }

    /// Takes one step and decides; crash timing is the only nondeterminism.
    #[derive(Debug, Clone)]
    struct OneStep;

    impl SemiSyncProcess for OneStep {
        type Msg = ();
        type Output = u32;
        fn step(&mut self, _received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<u32>) {
            (None, Control::Decide(7))
        }
    }

    #[test]
    fn dpor_runs_stay_admissible_under_the_crash_model() {
        use rrfd_core::{FaultPattern, IdSet, RoundFaults, RrfdPredicate};
        use rrfd_models::predicates::Crash;
        let n = size(3);
        let model = Crash::new(n, 1);
        // The one-round RRFD view of a run that crashed `crashed`: every
        // process misses the crashed processes' messages, except its own.
        // The report says which processes crashed, not when, so this is
        // the coarsest consistent pattern.
        let crash_pattern = |crashed: IdSet| {
            let sets = n
                .processes()
                .map(|i| crashed.difference(IdSet::singleton(i)))
                .collect();
            let mut pattern = FaultPattern::new(n);
            pattern.push(RoundFaults::from_sets(n, sets));
            pattern
        };
        let crashing = std::cell::Cell::new(0);
        let stats = explore_semi_sync_dpor(
            &SemiSyncSim::new(n),
            1,
            || vec![OneStep, OneStep, OneStep],
            |report| {
                crashing.set(crashing.get() + usize::from(!report.crashed.is_empty()));
                if model.admits_pattern(&crash_pattern(report.crashed)) {
                    Ok(())
                } else {
                    Err(format!("crashing {} left Crash(f=1)", report.crashed))
                }
            },
            &DporConfig::new(1),
        )
        .expect("every ≤1-crash run fits Crash(f=1)");
        assert!(stats.schedules > 0);
        assert!(crashing.get() > 0, "some explored run crashed a process");
    }

    /// The oracle for the footprint fold: crash alternatives found by
    /// replaying `canon` from `root` and asking each reached state.
    fn replayed_alternatives(
        root: &SemiSyncExecution<Hearer>,
        mut budget: usize,
        canon: &[StepEvent],
    ) -> Vec<(usize, StepEvent)> {
        let mut state = root.clone();
        let mut found = Vec::new();
        for (depth, &event) in canon.iter().enumerate() {
            let live = state.live();
            if budget > 0 && live.len() > 1 {
                found.extend(live.iter().map(|p| (depth, StepEvent::Crash(p))));
            }
            apply_traced(&mut state, &mut budget, event).unwrap();
        }
        found
    }

    #[test]
    fn folded_crash_alternatives_match_replay() {
        use rand::{Rng, SeedableRng};
        let mut crashing_runs = 0;
        for n in 2..=4 {
            let sim = SemiSyncSim::new(size(n));
            for budget in 0..=2 {
                let root = SemiSyncExecution::start(&sim, hearers(n)).unwrap();
                for seed in 0..32u64 {
                    // A random maximal run over every enabled option,
                    // crashes included.
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let (mut state, mut left) = (root.clone(), budget);
                    let mut graph = ExecutionGraph::new(n);
                    let mut enabled = Vec::new();
                    loop {
                        options(&state, left, &mut enabled);
                        if enabled.is_empty() {
                            break;
                        }
                        let event = enabled[rng.gen_range(0..enabled.len())];
                        let access = apply_traced(&mut state, &mut left, event).unwrap();
                        graph.push(event, access);
                    }
                    let events = graph.events();
                    crashing_runs += usize::from(events.iter().any(|e| e.access == Access::Crash));

                    let canon = graph.canonical_order();
                    let mut folded = Vec::new();
                    let canon_events = canon.iter().map(|&k| &events[k]);
                    crash_alternatives(root.live(), budget, canon_events, |depth, alt| {
                        folded.push((depth, alt));
                    });
                    let canon: Vec<StepEvent> = canon.iter().map(|&k| events[k].event).collect();
                    assert_eq!(
                        folded,
                        replayed_alternatives(&root, budget, &canon),
                        "n={n} budget={budget} seed={seed}: {canon:?}"
                    );
                }
            }
        }
        assert!(crashing_runs > 100, "only {crashing_runs} runs crashed");
    }
}
