//! Exhaustive schedule exploration for the shared-memory simulator.
//!
//! For small systems the *entire* tree of interleavings is enumerable:
//! [`explore_schedules`] performs a depth-first walk over every scheduler
//! decision sequence (which runnable process steps next, crash-free),
//! running the protocol to completion on each path and handing every
//! outcome to a checker. This turns sampled "holds under 50 seeds" tests
//! into genuine proofs-by-enumeration for two- and three-process
//! instances — the adopt-commit and immediate-snapshot test-suites use it.
//!
//! Every decision sequence visited is also recorded as a
//! [`ScheduleTrace`]; when a check fails, the walker hands back a
//! [`Counterexample`] whose serialized schedule can be re-driven verbatim
//! through [`crate::trace::ScheduleReplay`] — no need to re-enumerate the
//! tree to get back to the failing run.

use crate::shared_mem::{MemEvent, MemProcess, MemRunReport, MemScheduler, SharedMemSim};
use crate::trace::{Recording, SchedEvent, ScheduleTrace};
use rrfd_core::IdSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A scheduler that replays a fixed choice prefix (indices into the sorted
/// runnable set) and picks the first runnable process beyond it, recording
/// the branching factor at every decision.
struct ReplayScheduler<'a> {
    prefix: &'a [usize],
    cursor: usize,
    branching: Vec<usize>,
}

impl MemScheduler for ReplayScheduler<'_> {
    fn next_event(&mut self, runnable: IdSet, _step: u64) -> MemEvent {
        let ids: Vec<_> = runnable.iter().collect();
        self.branching.push(ids.len());
        let choice = self.prefix.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        MemEvent::Step(ids[choice.min(ids.len() - 1)])
    }
}

/// Search-effort totals from an exhaustive exploration. Previously the
/// success path reported only a schedule count and discarded the per-run
/// decision bookkeeping the walker had already paid for; surfacing it
/// makes "how hard was this proof-by-enumeration" a measured quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Complete schedules enumerated.
    pub schedules: usize,
    /// Decision points visited, summed over every schedule (shared
    /// prefixes are re-visited and re-counted, mirroring the work done).
    pub decision_points: u64,
    /// The deepest decision sequence any schedule reached.
    pub max_depth: usize,
    /// Subtrees skipped because their root state had already been visited
    /// (converged-state memoization; `0` for the sequential explorers).
    pub pruned_by_hash: u64,
    /// Branches skipped by process-id symmetry reduction (`0` unless the
    /// parallel explorer runs with symmetry enabled).
    pub pruned_by_symmetry: u64,
    /// Worker threads the search ran on (`1` for the sequential
    /// explorers).
    pub workers: usize,
    /// Independent subtree jobs the schedule tree was split into (`0` for
    /// the sequential explorers — they never split).
    pub wall_splits: usize,
    /// Distinct states the converged-state memos retained, summed over
    /// jobs (`0` for the sequential explorers and with pruning off). For
    /// the DPOR explorer: the marks in its revisit tree, one per explored
    /// class plus one per queued revisit prefix.
    pub memo_entries: usize,
    /// Encoding bytes the memos retained, summed over jobs. For the DPOR
    /// explorer: the bytes of its revisit tree's nodes and edges.
    pub memo_bytes: usize,
    /// `true` when any job's memo hit its entry or byte cap and degraded
    /// to not inserting (fewer prunes, never a wrong prune).
    pub memo_saturated: bool,
    /// Fresh states the memo caps refused to retain — re-explorations the
    /// degrade path paid for. Kept separate from `pruned_by_hash` so the
    /// cap's cost is visible instead of inflating the prune count.
    pub memo_degraded: u64,
    /// Maximal execution graphs the DPOR explorer ran to completion — one
    /// per Mazurkiewicz trace class reached (`0` for the legacy explorers).
    pub graphs_explored: u64,
    /// Race-reversal revisits the DPOR explorer scheduled.
    pub revisits: u64,
    /// Work items moved between workers by the stealing pool. The only
    /// timing-dependent counter: every other field is identical across
    /// worker counts.
    pub steals: u64,
    /// Revisits suppressed because their execution re-entered an already
    /// visited trace class or re-proposed an already queued prefix — the
    /// sleep-set role in the graph-based explorer.
    pub sleep_set_blocked: u64,
}

impl ExploreStats {
    /// Combines the totals of two disjoint parts of one search. The
    /// operation is associative and commutative (sums and maxima), so
    /// per-worker stats can be folded in any grouping; the parallel
    /// explorer folds them in fixed job order to keep the result
    /// byte-identical across runs.
    #[must_use]
    pub fn merged(self, other: ExploreStats) -> ExploreStats {
        ExploreStats {
            schedules: self.schedules + other.schedules,
            decision_points: self.decision_points + other.decision_points,
            max_depth: self.max_depth.max(other.max_depth),
            pruned_by_hash: self.pruned_by_hash + other.pruned_by_hash,
            pruned_by_symmetry: self.pruned_by_symmetry + other.pruned_by_symmetry,
            workers: self.workers.max(other.workers),
            wall_splits: self.wall_splits + other.wall_splits,
            memo_entries: self.memo_entries + other.memo_entries,
            memo_bytes: self.memo_bytes + other.memo_bytes,
            memo_saturated: self.memo_saturated || other.memo_saturated,
            memo_degraded: self.memo_degraded + other.memo_degraded,
            graphs_explored: self.graphs_explored + other.graphs_explored,
            revisits: self.revisits + other.revisits,
            steals: self.steals + other.steals,
            sleep_set_blocked: self.sleep_set_blocked + other.sleep_set_blocked,
        }
    }

    /// Records the totals under the `rrfd_explore_*` metric names.
    pub fn record(&self, obs: &rrfd_obs::Obs) {
        use rrfd_obs::{names, Labels};
        obs.add(
            names::EXPLORE_SCHEDULES,
            Labels::GLOBAL,
            self.schedules as u64,
        );
        obs.add(
            names::EXPLORE_DECISION_POINTS,
            Labels::GLOBAL,
            self.decision_points,
        );
        obs.gauge(
            names::EXPLORE_MAX_DEPTH,
            Labels::GLOBAL,
            i64::try_from(self.max_depth).unwrap_or(i64::MAX),
        );
        obs.add(
            names::EXPLORE_PRUNED_HASH,
            Labels::GLOBAL,
            self.pruned_by_hash,
        );
        obs.add(
            names::EXPLORE_PRUNED_SYMMETRY,
            Labels::GLOBAL,
            self.pruned_by_symmetry,
        );
        obs.gauge(
            names::EXPLORE_WORKERS,
            Labels::GLOBAL,
            i64::try_from(self.workers).unwrap_or(i64::MAX),
        );
        obs.add(
            names::EXPLORE_SPLITS,
            Labels::GLOBAL,
            self.wall_splits as u64,
        );
        obs.gauge(
            names::EXPLORE_MEMO_ENTRIES,
            Labels::GLOBAL,
            i64::try_from(self.memo_entries).unwrap_or(i64::MAX),
        );
        obs.gauge(
            names::EXPLORE_MEMO_BYTES,
            Labels::GLOBAL,
            i64::try_from(self.memo_bytes).unwrap_or(i64::MAX),
        );
        obs.gauge(
            names::EXPLORE_MEMO_SATURATED,
            Labels::GLOBAL,
            i64::from(self.memo_saturated),
        );
        obs.add(
            names::EXPLORE_MEMO_DEGRADED,
            Labels::GLOBAL,
            self.memo_degraded,
        );
        obs.add(names::EXPLORE_GRAPHS, Labels::GLOBAL, self.graphs_explored);
        obs.add(names::EXPLORE_REVISITS, Labels::GLOBAL, self.revisits);
        obs.add(names::EXPLORE_STEALS, Labels::GLOBAL, self.steals);
        obs.add(
            names::EXPLORE_SLEEP_BLOCKED,
            Labels::GLOBAL,
            self.sleep_set_blocked,
        );
    }
}

/// A failing schedule found during exploration: the walker's raw decision
/// indices, the concrete event sequence they produced (replayable through
/// [`crate::trace::ScheduleReplay`]), and the checker's complaint.
#[derive(Debug, Clone)]
pub struct Counterexample<E> {
    /// Decision indices into each choice point's option list.
    pub choices: Vec<usize>,
    /// The concrete schedule, serializable and replayable.
    pub schedule: ScheduleTrace<E>,
    /// What the checker reported.
    pub message: String,
    /// Search effort up to and *including* the failing schedule. Early
    /// exits previously discarded these totals, under-reporting
    /// `max_depth`; the failing run's partial depth is now folded in.
    pub stats: ExploreStats,
}

impl<E: SchedEvent> fmt::Display for Counterexample<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule check failed: {}", self.message)?;
        writeln!(f, "scheduler choices: {:?}", self.choices)?;
        write!(f, "replayable schedule:\n{}", self.schedule)
    }
}

/// Converts a caught panic payload into a displayable message.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Enumerates every schedule of `sim` over fresh processes from `make`,
/// invoking `check` on each completed run. Returns the search-effort
/// totals ([`ExploreStats`]) of the completed walk, or the first failing
/// schedule as a replayable [`Counterexample`].
///
/// The walk is exhaustive: every sequence of "which runnable process steps
/// next" choices is visited exactly once. Use only on small instances —
/// the tree is exponential in the total step count.
///
/// # Errors
///
/// The first schedule whose `check` returns `Err` stops the walk and is
/// returned as a [`Counterexample`].
///
/// # Panics
///
/// Panics if the exploration exceeds `max_runs` schedules (a guard against
/// accidentally exponential instances), or propagates panics from `check`.
pub fn explore_schedules_checked<V, P, F, G>(
    sim: &SharedMemSim,
    make: G,
    mut check: F,
    max_runs: usize,
) -> Result<ExploreStats, Box<Counterexample<MemEvent>>>
where
    V: Clone,
    P: MemProcess<V>,
    G: Fn() -> Vec<P>,
    F: FnMut(&MemRunReport<P, V>) -> Result<(), String>,
{
    let mut prefix: Vec<usize> = Vec::new();
    let mut stats = ExploreStats {
        workers: 1,
        ..ExploreStats::default()
    };
    let mut runs = 0usize;
    loop {
        let mut scheduler = Recording::new(ReplayScheduler {
            prefix: &prefix,
            cursor: 0,
            branching: Vec::new(),
        });
        let report = sim
            .run(make(), &mut scheduler)
            .expect("exploration requires terminating, crash-free protocols");
        runs += 1;
        assert!(
            runs <= max_runs,
            "schedule exploration exceeded {max_runs} runs"
        );
        let (inner, schedule) = scheduler.into_parts();
        let branching = inner.branching;
        stats.schedules = runs;
        stats.decision_points += branching.len() as u64;
        stats.max_depth = stats.max_depth.max(branching.len());
        let full: Vec<usize> = branching
            .iter()
            .enumerate()
            .map(|(i, _)| prefix.get(i).copied().unwrap_or(0))
            .collect();

        if let Err(message) = check(&report) {
            return Err(Box::new(Counterexample {
                choices: full,
                schedule,
                message,
                stats,
            }));
        }

        // Advance the prefix: find the deepest decision that can still be
        // incremented; truncate everything after it.
        let mut full = full;
        let Some(bump) = (0..full.len()).rev().find(|&i| full[i] + 1 < branching[i]) else {
            return Ok(stats);
        };
        full[bump] += 1;
        full.truncate(bump + 1);
        prefix = full;
    }
}

/// Panicking front-end to [`explore_schedules_checked`]: `check` signals
/// failure by panicking (e.g. `assert!`), and the panic is re-raised with
/// the failing schedule appended, so a test log always carries a
/// replayable trace. Returns the number of schedules explored.
///
/// # Panics
///
/// Panics if the exploration exceeds `max_runs` schedules, or re-raises
/// `check` panics annotated with the [`Counterexample`].
#[deprecated(
    since = "0.2.0",
    note = "panics instead of returning the counterexample; use \
            `explore_schedules_checked`, which yields a replayable \
            `Counterexample` as a typed error"
)]
pub fn explore_schedules<V, P, F, G>(
    sim: &SharedMemSim,
    make: G,
    mut check: F,
    max_runs: usize,
) -> usize
where
    V: Clone,
    P: MemProcess<V>,
    G: Fn() -> Vec<P>,
    F: FnMut(&MemRunReport<P, V>),
{
    match explore_schedules_checked(
        sim,
        make,
        |report| catch_unwind(AssertUnwindSafe(|| check(report))).map_err(payload_message),
        max_runs,
    ) {
        Ok(stats) => stats.schedules,
        Err(cex) => panic!("{cex}"),
    }
}

/// Exhaustive exploration for the semi-synchronous simulator, including
/// crash choices: at every decision point the walker tries stepping each
/// live process and, while `crash_budget` allows, crashing each live
/// process.
pub mod semi_sync {
    use super::{catch_unwind, payload_message, AssertUnwindSafe, Counterexample, ExploreStats};
    use crate::semi_sync::{
        SemiSyncEvent, SemiSyncProcess, SemiSyncReport, SemiSyncScheduler, SemiSyncSim,
    };
    use crate::trace::Recording;
    use rrfd_core::IdSet;

    struct Replay<'a> {
        prefix: &'a [usize],
        cursor: usize,
        branching: Vec<usize>,
        crash_budget: usize,
    }

    impl Replay<'_> {
        /// Options at a decision point: step each live process, then (if
        /// budget remains and more than one process is live) crash each.
        fn options(&self, live: IdSet) -> Vec<SemiSyncEvent> {
            let mut opts: Vec<SemiSyncEvent> = live.iter().map(SemiSyncEvent::Step).collect();
            if self.crash_budget > 0 && live.len() > 1 {
                opts.extend(live.iter().map(SemiSyncEvent::Crash));
            }
            opts
        }
    }

    impl SemiSyncScheduler for Replay<'_> {
        fn next_event(&mut self, live: IdSet, _step: u64) -> SemiSyncEvent {
            let opts = self.options(live);
            self.branching.push(opts.len());
            let choice = self.prefix.get(self.cursor).copied().unwrap_or(0);
            self.cursor += 1;
            let event = opts[choice.min(opts.len() - 1)];
            if let SemiSyncEvent::Crash(_) = event {
                self.crash_budget -= 1;
            }
            event
        }
    }

    /// Enumerates every semi-synchronous schedule (with up to
    /// `max_crashes` crashes at adversarially chosen instants), checking
    /// each completed run. Returns the search-effort totals
    /// ([`ExploreStats`]) of the completed walk, or the first failing
    /// schedule as a replayable [`Counterexample`].
    ///
    /// # Errors
    ///
    /// The first schedule whose `check` returns `Err` stops the walk and
    /// is returned as a [`Counterexample`].
    ///
    /// # Panics
    ///
    /// Panics past `max_runs` schedules.
    pub fn explore_semi_sync_checked<P, F, G>(
        sim: &SemiSyncSim,
        max_crashes: usize,
        make: G,
        mut check: F,
        max_runs: usize,
    ) -> Result<ExploreStats, Box<Counterexample<SemiSyncEvent>>>
    where
        P: SemiSyncProcess,
        G: Fn() -> Vec<P>,
        F: FnMut(&SemiSyncReport<P>) -> Result<(), String>,
    {
        let mut prefix: Vec<usize> = Vec::new();
        let mut stats = ExploreStats {
            workers: 1,
            ..ExploreStats::default()
        };
        let mut runs = 0usize;
        loop {
            let mut scheduler = Recording::new(Replay {
                prefix: &prefix,
                cursor: 0,
                branching: Vec::new(),
                crash_budget: max_crashes,
            });
            let report = sim
                .run(make(), &mut scheduler)
                .expect("exploration requires terminating protocols");
            runs += 1;
            assert!(
                runs <= max_runs,
                "schedule exploration exceeded {max_runs} runs"
            );
            let (inner, schedule) = scheduler.into_parts();
            let branching = inner.branching;
            stats.schedules = runs;
            stats.decision_points += branching.len() as u64;
            stats.max_depth = stats.max_depth.max(branching.len());
            let full: Vec<usize> = branching
                .iter()
                .enumerate()
                .map(|(i, _)| prefix.get(i).copied().unwrap_or(0))
                .collect();

            if let Err(message) = check(&report) {
                return Err(Box::new(Counterexample {
                    choices: full,
                    schedule,
                    message,
                    stats,
                }));
            }

            let mut full = full;
            let Some(bump) = (0..full.len()).rev().find(|&i| full[i] + 1 < branching[i]) else {
                return Ok(stats);
            };
            full[bump] += 1;
            full.truncate(bump + 1);
            prefix = full;
        }
    }

    /// Panicking front-end to [`explore_semi_sync_checked`]: `check`
    /// panics on failure and the panic is re-raised with the failing
    /// schedule appended. Returns the number of schedules explored.
    ///
    /// # Panics
    ///
    /// Panics past `max_runs` schedules, or re-raises `check` panics
    /// annotated with the [`Counterexample`].
    #[deprecated(
        since = "0.2.0",
        note = "panics instead of returning the counterexample; use \
                `explore_semi_sync_checked`, which yields a replayable \
                `Counterexample` as a typed error"
    )]
    pub fn explore_semi_sync<P, F, G>(
        sim: &SemiSyncSim,
        max_crashes: usize,
        make: G,
        mut check: F,
        max_runs: usize,
    ) -> usize
    where
        P: SemiSyncProcess,
        G: Fn() -> Vec<P>,
        F: FnMut(&SemiSyncReport<P>),
    {
        match explore_semi_sync_checked(
            sim,
            max_crashes,
            make,
            |report| catch_unwind(AssertUnwindSafe(|| check(report))).map_err(payload_message),
            max_runs,
        ) {
            Ok(stats) => stats.schedules,
            Err(cex) => panic!("{cex}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_mem::{Action, Observation};
    use rrfd_core::{ProcessId, SystemSize};

    /// Writes once and decides what it read from the other process's cell.
    #[derive(Debug)]
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
    #[allow(deprecated)] // the panicking front-end is what's under test
    fn enumerates_all_interleavings_of_two_three_step_processes() {
        let n = SystemSize::new(2).unwrap();
        let sim = SharedMemSim::new(n, 1);
        let mut outcomes = std::collections::BTreeSet::new();
        let runs = explore_schedules(
            &sim,
            make_pair,
            |report| {
                outcomes.insert((report.outputs[0].unwrap(), report.outputs[1].unwrap()));
            },
            1000,
        );
        // Two processes, three steps each: C(6,3) = 20 interleavings.
        assert_eq!(runs, 20);
        // Classic register analysis: at least one process must see the
        // other's write; both-None is unreachable.
        assert!(!outcomes.contains(&(None, None)));
        assert!(outcomes.contains(&(Some(2), Some(1))));
        // One-sided misses are possible in either direction.
        assert!(outcomes.contains(&(None, Some(1))));
        assert!(outcomes.contains(&(Some(2), None)));
        assert_eq!(outcomes.len(), 3);
    }

    #[test]
    #[allow(deprecated)] // the panicking front-end is what's under test
    fn single_process_has_one_schedule() {
        let n = SystemSize::new(1).unwrap();
        let sim = SharedMemSim::new(n, 1);

        #[derive(Debug)]
        struct Solo;
        impl MemProcess<u64> for Solo {
            type Output = ();
            fn step(&mut self, obs: Observation<u64>) -> Action<u64, ()> {
                match obs {
                    Observation::Start => Action::Write { bank: 0, value: 1 },
                    Observation::Written => Action::Decide(()),
                    other => unreachable!("{other:?}"),
                }
            }
        }

        let runs = explore_schedules(&sim, || vec![Solo], |_| {}, 10);
        assert_eq!(runs, 1);
    }

    #[test]
    #[should_panic(expected = "exceeded 5 runs")]
    #[allow(deprecated)] // the panicking front-end is what's under test
    fn run_guard_fires() {
        let n = SystemSize::new(2).unwrap();
        let sim = SharedMemSim::new(n, 1);
        let _ = explore_schedules(&sim, make_pair, |_| {}, 5);
    }

    #[test]
    fn counterexample_is_replayable() {
        use crate::trace::ScheduleReplay;

        let n = SystemSize::new(2).unwrap();
        let sim = SharedMemSim::new(n, 1);
        // "Nobody misses the other's write" is false; the walker must find
        // a schedule where p0 reads before p1 writes (or vice versa).
        let cex = explore_schedules_checked(
            &sim,
            make_pair,
            |report| {
                if report.outputs.iter().any(|o| o == &Some(None)) {
                    Err("someone missed the other's write".to_owned())
                } else {
                    Ok(())
                }
            },
            1000,
        )
        .unwrap_err();

        // The serialized schedule replays to the same failing outcome.
        let text = cex.schedule.to_string();
        let reparsed: crate::trace::ScheduleTrace<MemEvent> = text.parse().unwrap();
        let mut replay = ScheduleReplay::from_trace(&reparsed);
        let report = sim.run(make_pair(), &mut replay).unwrap();
        assert!(report.outputs.iter().any(|o| o == &Some(None)));

        // And the Display form carries both the message and the schedule.
        let shown = cex.to_string();
        assert!(
            shown.contains("someone missed the other's write"),
            "{shown}"
        );
        assert!(shown.contains("rrfd-sched v1"), "{shown}");
    }

    #[test]
    #[allow(deprecated)] // the panicking front-end is what's under test
    fn failing_check_panics_with_the_schedule_attached() {
        let n = SystemSize::new(2).unwrap();
        let sim = SharedMemSim::new(n, 1);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            explore_schedules(
                &sim,
                make_pair,
                |report| {
                    assert!(
                        !report.outputs.iter().any(|o| o == &Some(None)),
                        "someone missed the other's write"
                    );
                },
                1000,
            )
        }))
        .unwrap_err();
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a formatted message");
        assert!(
            message.contains("someone missed the other's write"),
            "{message}"
        );
        assert!(message.contains("replayable schedule:"), "{message}");
        assert!(message.contains("rrfd-sched v1"), "{message}");
    }

    #[test]
    fn counterexample_folds_the_failing_runs_partial_depth() {
        let n = SystemSize::new(2).unwrap();
        let sim = SharedMemSim::new(n, 1);
        // The very first enumerated schedule (all-first choices: p0 runs
        // to completion, then p1) already violates "nobody misses the
        // other's write" — p0 reads p1's still-unwritten cell. The early
        // exit used to discard the failing run's bookkeeping entirely,
        // leaving `max_depth` (and everything else) at zero.
        let cex = explore_schedules_checked(
            &sim,
            make_pair,
            |report| {
                if report.outputs.iter().any(|o| o == &Some(None)) {
                    Err("someone missed the other's write".to_owned())
                } else {
                    Ok(())
                }
            },
            1000,
        )
        .unwrap_err();
        // One schedule of six decisions (three steps per process; p1's
        // tail decisions are forced but still decision points).
        assert_eq!(cex.stats.schedules, 1);
        assert_eq!(cex.stats.decision_points, 6);
        assert_eq!(cex.stats.max_depth, 6, "partial depth must be folded in");
        assert_eq!(cex.stats.workers, 1);
        assert_eq!(cex.stats.max_depth, cex.choices.len());
    }

    #[test]
    fn semi_sync_counterexample_is_replayable() {
        use crate::semi_sync::{SemiSyncProcess, SemiSyncSim};
        use crate::trace::ScheduleReplay;
        use rrfd_core::Control;

        /// Broadcasts once, decides after two steps on how many distinct
        /// senders it heard.
        #[derive(Debug)]
        struct Listen {
            steps: u64,
            heard: rrfd_core::IdSet,
            sent: bool,
        }
        impl SemiSyncProcess for Listen {
            type Msg = ();
            type Output = usize;
            fn step(
                &mut self,
                received: &[(ProcessId, std::sync::Arc<()>)],
            ) -> (Option<()>, Control<usize>) {
                self.steps += 1;
                for &(from, _) in received {
                    self.heard.insert(from);
                }
                let msg = (!self.sent).then(|| self.sent = true);
                if self.steps >= 2 {
                    (msg, Control::Decide(self.heard.len()))
                } else {
                    (msg, Control::Continue)
                }
            }
        }

        let n = SystemSize::new(2).unwrap();
        let sim = SemiSyncSim::new(n);
        let make = || {
            (0..2)
                .map(|_| Listen {
                    steps: 0,
                    heard: rrfd_core::IdSet::empty(),
                    sent: false,
                })
                .collect::<Vec<_>>()
        };
        // With one allowed crash, "everyone hears both processes" fails.
        let cex = semi_sync::explore_semi_sync_checked(
            &sim,
            1,
            make,
            |report| {
                if report.outputs.iter().flatten().any(|(heard, _)| *heard < 2) {
                    Err("someone heard fewer than two processes".to_owned())
                } else {
                    Ok(())
                }
            },
            10_000,
        )
        .unwrap_err();

        let mut replay = ScheduleReplay::from_trace(&cex.schedule);
        let report = sim.run(make(), &mut replay).unwrap();
        assert!(report.outputs.iter().flatten().any(|(heard, _)| *heard < 2));
    }
}
