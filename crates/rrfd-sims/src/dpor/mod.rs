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
//!    first enabled option) to a maximal run, on the processing worker's
//!    scratch: one state rewound to the root, one graph and one set of
//!    buffers reused across every item the worker claims.
//! 2. The run's class identity is its **canonical linearization**
//!    (greedy smallest-pid topological sort of happens-before). The
//!    search keeps one dedup structure, the *revisit tree*: a trie over
//!    event sequences shared by all workers. Walking the canonical
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
//!    of the class.
//! 4. Each child is located in the revisit tree relative to the class's
//!    canonical path (a depth plus a short tail), and is queued only if
//!    its end node was not queued before. Only fresh children are built
//!    into prefixes; they become new work items, distributed over a
//!    vendored work-stealing deque pool ([`StealPool`]). The tree's lock
//!    covers trie walks only — nothing is formatted or hashed under it.
//!
//! Because the explored set is the closure of a pure `children`
//! function, every reported number except [`ExploreStats::steals`] and
//! the configured worker count is identical across worker counts, and
//! the counterexample — the failing class with the smallest canonical
//! key — is too. Certificates are replayable
//! [`crate::trace::ScheduleTrace`]s.
//!
//! DPOR never digests *states*, only event sequences — so it soundly
//! explores protocols with opaque oracle state.

pub mod graph;
pub mod pool;
mod revisit;

pub use graph::{Access, ExecEvent, ExecutionGraph};
pub use pool::{PoolStats, StealPool};
pub use revisit::DporError;

use crate::explore::ExploreStats;
use crate::semi_sync::{
    SemiEffect, SemiSyncEvent, SemiSyncExecution, SemiSyncProcess, SemiSyncReport, SemiSyncSim,
};
use crate::shared_mem::{
    MemEffect, MemEvent, MemExecution, MemProcess, MemRunReport, SharedMemSim,
};
use revisit::{drive_dpor, DporTarget};
use rrfd_core::ProcessId;
use rrfd_obs::Obs;

/// Configuration of a DPOR exploration.
#[derive(Debug, Clone)]
pub struct DporConfig {
    workers: usize,
    max_schedules: usize,
    obs: Obs,
}

impl DporConfig {
    /// A configuration with `workers` threads (clamped to at least one)
    /// and a 1 000 000-class guard.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        DporConfig {
            workers: workers.max(1),
            max_schedules: 1_000_000,
            obs: Obs::noop(),
        }
    }

    /// Overrides the trace-class guard: the search panics once it has
    /// explored more than `max` classes.
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

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }
}

struct MemDporTarget<P: MemProcess<V>, V> {
    n: usize,
    exec: MemExecution<P, V>,
}

impl<P, V> Clone for MemDporTarget<P, V>
where
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    V: Clone,
{
    fn clone(&self) -> Self {
        MemDporTarget {
            n: self.n,
            exec: self.exec.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.exec.clone_from(&source.exec);
    }
}

impl<P, V> DporTarget for MemDporTarget<P, V>
where
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    V: Clone,
{
    type Event = MemEvent;
    type Report = MemRunReport<P, V>;

    // Crash-free: the only nondeterminism is scheduling order, fully
    // covered by reversals, so the target offers no alternatives.

    fn n(&self) -> usize {
        self.n
    }

    fn options(&self, out: &mut Vec<MemEvent>) {
        out.clear();
        out.extend(self.exec.runnable().iter().map(MemEvent::Step));
    }

    fn apply_traced(&mut self, event: MemEvent) -> Access {
        let effect = self.exec.apply_traced(event);
        let effect = effect.unwrap_or_else(|err| {
            panic!("exploration requires clean, terminating protocols: {err:?}")
        });
        let pid = Self::event_pid(&event);
        match effect {
            MemEffect::Wrote { bank } => Access::Write {
                bank,
                owner: pid.index(),
            },
            MemEffect::ReadCell { bank, owner } => Access::Read {
                bank,
                owner: owner.index(),
            },
            MemEffect::Snapshotted { bank } => Access::Snapshot { bank },
            MemEffect::Proposed { object } => Access::Oracle { object },
            MemEffect::Decided => Access::Local,
            MemEffect::Crashed => Access::Crash,
            MemEffect::Ignored => unreachable!("DPOR only applies enabled events"),
        }
    }

    fn report(&self) -> MemRunReport<P, V> {
        self.exec.clone().into_report()
    }

    fn event_pid(event: &MemEvent) -> ProcessId {
        match *event {
            MemEvent::Step(p) | MemEvent::Crash(p) => p,
        }
    }
}

struct SemiDporTarget<P: SemiSyncProcess> {
    n: usize,
    crash_budget: usize,
    exec: SemiSyncExecution<P>,
}

impl<P: SemiSyncProcess + Clone> Clone for SemiDporTarget<P> {
    fn clone(&self) -> Self {
        SemiDporTarget {
            n: self.n,
            crash_budget: self.crash_budget,
            exec: self.exec.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.crash_budget = source.crash_budget;
        self.exec.clone_from(&source.exec);
    }
}

impl<P> DporTarget for SemiDporTarget<P>
where
    P: SemiSyncProcess + Clone,
{
    type Event = SemiSyncEvent;
    type Report = SemiSyncReport<P>;

    fn n(&self) -> usize {
        self.n
    }

    /// Step each live process in id order, then (budget and liveness
    /// permitting) crash each.
    fn options(&self, out: &mut Vec<SemiSyncEvent>) {
        let live = self.exec.live();
        out.clear();
        out.extend(live.iter().map(SemiSyncEvent::Step));
        if self.crash_budget > 0 && live.len() > 1 {
            out.extend(live.iter().map(SemiSyncEvent::Crash));
        }
    }

    /// Crashes are data nondeterminism: a maximal crash-free run has no
    /// crash event for a reversal to reposition, so each enabled crash is
    /// branched on explicitly. Enabledness needs only the budget and the
    /// live set, and footprints say exactly how each event moves them: a
    /// `Crash` spends the budget and leaves `live`, a `Decide` or
    /// `BroadcastDecide` leaves `live`, and nothing else touches either.
    fn alternatives<'a>(
        &self,
        canon: impl Iterator<Item = &'a ExecEvent<SemiSyncEvent>>,
        mut push: impl FnMut(usize, SemiSyncEvent),
    ) {
        let mut live = self.exec.live();
        let mut budget = self.crash_budget;
        for (depth, event) in canon.enumerate() {
            // Budget and live set only shrink: once crashes are disabled
            // they stay disabled.
            if budget == 0 || live.len() < 2 {
                break;
            }
            for p in live {
                push(depth, SemiSyncEvent::Crash(p));
            }
            match event.access {
                Access::Crash => {
                    budget -= 1;
                    live.remove(event.pid);
                }
                Access::Decide | Access::BroadcastDecide => {
                    live.remove(event.pid);
                }
                _ => {}
            }
        }
    }

    fn apply_traced(&mut self, event: SemiSyncEvent) -> Access {
        if let SemiSyncEvent::Crash(_) = event {
            self.crash_budget -= 1;
        }
        let effect = self.exec.apply_traced(event);
        let effect = effect.unwrap_or_else(|err| {
            panic!("exploration requires clean, terminating protocols: {err:?}")
        });
        match effect {
            SemiEffect::Crashed => Access::Crash,
            SemiEffect::Stepped {
                broadcasted: false,
                decided: false,
            } => Access::Local,
            SemiEffect::Stepped {
                broadcasted: true,
                decided: false,
            } => Access::Broadcast,
            SemiEffect::Stepped {
                broadcasted: false,
                decided: true,
            } => Access::Decide,
            SemiEffect::Stepped {
                broadcasted: true,
                decided: true,
            } => Access::BroadcastDecide,
            SemiEffect::Ignored => unreachable!("DPOR only applies enabled events"),
        }
    }

    fn report(&self) -> SemiSyncReport<P> {
        self.exec.clone().into_report()
    }

    fn event_pid(event: &SemiSyncEvent) -> ProcessId {
        match *event {
            SemiSyncEvent::Step(p) | SemiSyncEvent::Crash(p) => p,
        }
    }
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
/// smallest canonical key (a deterministic choice, independent of worker
/// count) as a replayable certificate;
/// [`DporError::Misconfigured`] reports a process vector that does not
/// match the system size.
///
/// # Panics
///
/// Panics past [`DporConfig::max_schedules`] explored trace classes, or
/// when a protocol errors mid-run (explorations require clean,
/// terminating protocols).
pub fn explore_shared_mem_dpor<V, P, G, F>(
    sim: &SharedMemSim,
    make: G,
    check: F,
    config: &DporConfig,
) -> Result<ExploreStats, DporError<MemEvent>>
where
    V: Clone + Send + Sync,
    P: MemProcess<V> + Clone + Send + Sync,
    P::Output: Clone + Send + Sync,
    G: Fn() -> Vec<P>,
    F: Fn(&MemRunReport<P, V>) -> Result<(), String> + Sync,
{
    let exec = MemExecution::start(sim, make())
        .map_err(|err| DporError::Misconfigured(err.to_string()))?;
    let root = MemDporTarget {
        n: sim.system_size().get(),
        exec,
    };
    drive_dpor(&root, &check, config)
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
///
/// # Panics
///
/// As [`explore_shared_mem_dpor`].
pub fn explore_semi_sync_dpor<P, G, F>(
    sim: &SemiSyncSim,
    max_crashes: usize,
    make: G,
    check: F,
    config: &DporConfig,
) -> Result<ExploreStats, DporError<SemiSyncEvent>>
where
    P: SemiSyncProcess + Clone + Send + Sync,
    P::Msg: Send + Sync,
    P::Output: Send + Sync,
    G: Fn() -> Vec<P>,
    F: Fn(&SemiSyncReport<P>) -> Result<(), String> + Sync,
{
    let exec = SemiSyncExecution::start(sim, make())
        .map_err(|err| DporError::Misconfigured(err.to_string()))?;
    let root = SemiDporTarget {
        n: exec.live().len(),
        crash_budget: max_crashes,
        exec,
    };
    drive_dpor(&root, &check, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_mem::{Action, Observation};
    use crate::trace::ScheduleReplay;
    use rrfd_core::{Control, SystemSize};
    use std::sync::Arc;

    fn size(n: usize) -> SystemSize {
        SystemSize::new(n).unwrap()
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
        let err = explore_shared_mem_dpor(&sim, make_pair, check, &DporConfig::new(2)).unwrap_err();
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
        let one = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(1)).unwrap();
        let eight = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(8)).unwrap();
        assert_eq!(project(one), project(eight));
        assert_eq!(one.steals, 0, "a single worker cannot steal");
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
            explore_semi_sync_dpor(&sim, 1, || hearers(2), check, &DporConfig::new(2)).unwrap_err();
        let DporError::Counterexample(cex) = err else {
            panic!("expected a crash-bearing counterexample");
        };
        assert!(
            cex.schedule
                .events()
                .iter()
                .any(|e| matches!(e, SemiSyncEvent::Crash(_))),
            "certificate must contain the crash: {:?}",
            cex.schedule.events()
        );

        // And with a zero budget the same search is clean.
        let clean = explore_semi_sync_dpor(&sim, 0, || hearers(2), check, &DporConfig::new(2));
        assert!(clean.is_ok());
    }

    /// The oracle for the footprint fold: crash alternatives found by
    /// replaying `canon` from `root` and asking each reached state.
    fn replayed_alternatives(
        root: &SemiDporTarget<Hearer>,
        canon: &[SemiSyncEvent],
    ) -> Vec<(usize, SemiSyncEvent)> {
        let mut state = root.clone();
        let mut found = Vec::new();
        for (depth, &event) in canon.iter().enumerate() {
            let live = state.exec.live();
            if state.crash_budget > 0 && live.len() > 1 {
                found.extend(live.iter().map(|p| (depth, SemiSyncEvent::Crash(p))));
            }
            state.apply_traced(event);
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
                let root = SemiDporTarget {
                    n,
                    crash_budget: budget,
                    exec: SemiSyncExecution::start(&sim, hearers(n)).unwrap(),
                };
                for seed in 0..32u64 {
                    // A random maximal run over every enabled option,
                    // crashes included.
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut state = root.clone();
                    let mut graph = ExecutionGraph::new(n);
                    let mut options = Vec::new();
                    loop {
                        state.options(&mut options);
                        if options.is_empty() {
                            break;
                        }
                        let event = options[rng.gen_range(0..options.len())];
                        let access = state.apply_traced(event);
                        graph.push(event, SemiDporTarget::<Hearer>::event_pid(&event), access);
                    }
                    let events = graph.events();
                    crashing_runs += usize::from(events.iter().any(|e| e.access == Access::Crash));

                    let canon = graph.canonical_order();
                    let mut folded = Vec::new();
                    root.alternatives(canon.iter().map(|&k| &events[k]), |depth, alt| {
                        folded.push((depth, alt));
                    });
                    let canon: Vec<SemiSyncEvent> =
                        canon.iter().map(|&k| events[k].event).collect();
                    assert_eq!(
                        folded,
                        replayed_alternatives(&root, &canon),
                        "n={n} budget={budget} seed={seed}: {canon:?}"
                    );
                }
            }
        }
        assert!(crashing_runs > 100, "only {crashing_runs} runs crashed");
    }
}
