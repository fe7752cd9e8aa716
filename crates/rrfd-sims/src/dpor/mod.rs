//! Dynamic partial-order reduction (DPOR): exploration v2.
//!
//! The sequential explorers ([`crate::explore`]) enumerate scheduler
//! *interleavings*; most of them differ only in the order of commuting
//! steps and reach the same outcome. This module rebuilds exploration
//! around **execution graphs**: a completed run is a set of events
//! partially ordered by happens-before (program order plus conflict
//! order, kept as one predecessor bit row per event). Runs
//! with the same graph form one *Mazurkiewicz trace class* and are outcome-
//! equivalent, so the explorer visits **one representative per class**:
//!
//! 1. A work item is an event-sequence *revisit prefix*. Processing it
//!    replays the prefix and extends it deterministically (always the
//!    first enabled option) to a maximal run.
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
//!    *choice* prefix. Children are derived from the canonical form, so
//!    they are a pure function of the class.
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
//! key — is too. Certificates remain replayable
//! [`crate::trace::ScheduleTrace`]s, interchangeable with the sequential
//! explorers' output.
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

/// Environment variable overriding the default worker count
/// ([`DporConfig::from_env`]).
pub const WORKERS_ENV: &str = "RRFD_EXPLORE_WORKERS";

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

    /// Worker count from the [`WORKERS_ENV`] environment variable,
    /// falling back to the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
        DporConfig::new(workers)
    }

    /// Overrides the trace-class guard (the analogue of the sequential
    /// explorers' `max_runs`, counting classes instead of interleavings).
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

impl Default for DporConfig {
    fn default() -> Self {
        DporConfig::from_env()
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
}

impl<P, V> DporTarget for MemDporTarget<P, V>
where
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    V: Clone,
{
    type Event = MemEvent;
    type Report = MemRunReport<P, V>;

    // Crash-free, mirroring `explore_schedules_checked`: the only
    // nondeterminism is scheduling order, fully covered by reversals.
    const HAS_ALTERNATIVES: bool = false;

    fn n(&self) -> usize {
        self.n
    }

    fn options(&self) -> Vec<MemEvent> {
        self.exec.runnable().iter().map(MemEvent::Step).collect()
    }

    fn alternatives(&self) -> Vec<MemEvent> {
        Vec::new()
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
}

impl<P> DporTarget for SemiDporTarget<P>
where
    P: SemiSyncProcess + Clone,
{
    type Event = SemiSyncEvent;
    type Report = SemiSyncReport<P>;

    // Crashes are data nondeterminism: a maximal crash-free run has no
    // crash event for a reversal to reposition, so each enabled crash is
    // branched on explicitly.
    const HAS_ALTERNATIVES: bool = true;

    fn n(&self) -> usize {
        self.n
    }

    /// Mirrors the sequential walker's option order: step each live
    /// process in id order, then (budget and liveness permitting) crash
    /// each.
    fn options(&self) -> Vec<SemiSyncEvent> {
        let live = self.exec.live();
        let mut opts: Vec<SemiSyncEvent> = live.iter().map(SemiSyncEvent::Step).collect();
        if self.crash_budget > 0 && live.len() > 1 {
            opts.extend(live.iter().map(SemiSyncEvent::Crash));
        }
        opts
    }

    fn alternatives(&self) -> Vec<SemiSyncEvent> {
        let live = self.exec.live();
        if self.crash_budget > 0 && live.len() > 1 {
            live.iter().map(SemiSyncEvent::Crash).collect()
        } else {
            Vec::new()
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
/// crash-free schedules (the same space as
/// [`crate::explore::explore_schedules_checked`], partitioned by
/// commutation), invoking `check` on each representative run.
///
/// A violated predicate is found by this search **iff** the exhaustive
/// walk finds one — all members of a class produce the same run report —
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
/// schedules with up to `max_crashes` adversarially timed crashes — the
/// same space as
/// [`crate::explore::semi_sync::explore_semi_sync_checked`]. Crash
/// placements are data nondeterminism, handled by explicit choice
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
    use crate::explore::explore_schedules_checked;
    use crate::shared_mem::{Action, Observation};
    use crate::trace::ScheduleReplay;
    use rrfd_core::{Control, SystemSize};
    use std::sync::Arc;

    fn size(n: usize) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    /// Writes its own bank; never reads. All schedules commute: one
    /// class.
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
        let exhaustive =
            explore_schedules_checked(&sim, || writers(n), |_| Ok(()), 1_000_000).unwrap();
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
        let outcomes = std::sync::Mutex::new(std::collections::BTreeSet::new());
        let collect = |report: &MemRunReport<WriteRead, u64>| {
            outcomes
                .lock()
                .unwrap()
                .insert(format!("{:?}", report.outputs));
            Ok(())
        };
        explore_shared_mem_dpor(&sim, make_pair, collect, &DporConfig::new(2)).unwrap();
        let dpor_outcomes = std::mem::take(&mut *outcomes.lock().unwrap());

        explore_schedules_checked(
            &sim,
            make_pair,
            |report| {
                outcomes
                    .lock()
                    .unwrap()
                    .insert(format!("{:?}", report.outputs));
                Ok(())
            },
            1_000_000,
        )
        .unwrap();
        let exhaustive_outcomes = std::mem::take(&mut *outcomes.lock().unwrap());
        assert_eq!(dpor_outcomes, exhaustive_outcomes);
        assert!(dpor_outcomes.len() > 1, "races must be visible");
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
}
