//! The tree-walk schedule explorers, kept as a **reference** for the DPOR
//! explorer (`rrfd::sims::dpor`) that replaced them.
//!
//! [`explore_schedules_checked`] performs a depth-first walk over every
//! scheduler decision sequence (which runnable process steps next,
//! crash-free), running the protocol to completion on each path and
//! handing every outcome to a checker; [`semi_sync::explore_semi_sync_checked`]
//! does the same for the semi-synchronous simulator, crash choices
//! included. The walk visits every interleaving, so it is exponential in
//! the total step count, and it is exactly the space DPOR partitions into
//! trace classes: `tests/dpor_equivalence.rs` checks the two agree.
//!
//! It lives under `tests/` as a test oracle only, and is not part of any
//! library. Do not extend it; exploration features belong in
//! `rrfd::sims::dpor`.
//!
//! Every decision sequence visited is recorded as a
//! [`ScheduleTrace`](rrfd::sims::trace::ScheduleTrace);
//! when a check fails, the walker hands back a [`Counterexample`] whose
//! serialized schedule can be re-driven verbatim through
//! [`rrfd::sims::trace::ScheduleReplay`].

use rrfd::sims::explore::{Counterexample, ExploreStats};
use rrfd::sims::shared_mem::{MemProcess, MemRunReport, SharedMemSim};
use rrfd::sims::step::{StepEvent, StepScheduler};
use rrfd::sims::trace::Recording;

/// A scheduler that replays a fixed choice prefix (indices into the
/// decision point's options) and picks the first option beyond it,
/// recording the branching factor at every decision. The options are the
/// enabled events, then — while `crash_budget` lasts and more than one
/// event is enabled — a crash of each enabled event's process.
struct Replay<'a> {
    prefix: &'a [usize],
    cursor: usize,
    branching: Vec<usize>,
    crash_budget: usize,
}

impl StepScheduler for Replay<'_> {
    fn next_event(&mut self, enabled: &[StepEvent], _step: u64) -> StepEvent {
        let mut opts = enabled.to_vec();
        if self.crash_budget > 0 && enabled.len() > 1 {
            opts.extend(enabled.iter().map(|e| StepEvent::Crash(e.pid())));
        }
        self.branching.push(opts.len());
        let choice = self.prefix.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        let event = opts[choice.min(opts.len() - 1)];
        if let StepEvent::Crash(_) = event {
            self.crash_budget -= 1;
        }
        event
    }
}

/// The depth-first walk shared by both explorers: runs every choice
/// sequence of [`Replay`] through `run`, hands each report to `check`,
/// and advances the prefix to the next sequence.
fn walk<R>(
    max_crashes: usize,
    max_runs: usize,
    mut run: impl FnMut(&mut Recording<Replay<'_>>) -> R,
    mut check: impl FnMut(&R) -> Result<(), String>,
) -> Result<ExploreStats, Box<Counterexample>> {
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
        let report = run(&mut scheduler);
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
    check: F,
    max_runs: usize,
) -> Result<ExploreStats, Box<Counterexample>>
where
    V: Clone,
    P: MemProcess<V>,
    G: Fn() -> Vec<P>,
    F: FnMut(&MemRunReport<P, V>) -> Result<(), String>,
{
    let run = |scheduler: &mut Recording<Replay<'_>>| {
        sim.run(make(), scheduler)
            .expect("exploration requires terminating, crash-free protocols")
    };
    walk(0, max_runs, run, check)
}

/// Exhaustive exploration for the semi-synchronous simulator, including
/// crash choices: at every decision point the walker tries stepping each
/// live process and, while `crash_budget` allows, crashing each live
/// process.
pub mod semi_sync {
    use super::{walk, Replay};
    use rrfd::sims::explore::{Counterexample, ExploreStats};
    use rrfd::sims::semi_sync::{SemiSyncProcess, SemiSyncReport, SemiSyncSim};
    use rrfd::sims::trace::Recording;

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
        check: F,
        max_runs: usize,
    ) -> Result<ExploreStats, Box<Counterexample>>
    where
        P: SemiSyncProcess,
        G: Fn() -> Vec<P>,
        F: FnMut(&SemiSyncReport<P>) -> Result<(), String>,
    {
        let run = |scheduler: &mut Recording<Replay<'_>>| {
            sim.run(make(), scheduler)
                .expect("exploration requires terminating protocols")
        };
        walk(max_crashes, max_runs, run, check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd::core::{IdSet, ProcessId, SystemSize};
    use rrfd::sims::shared_mem::{Action, Observation};

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
    fn enumerates_all_interleavings_of_two_three_step_processes() {
        let n = SystemSize::new(2).unwrap();
        let sim = SharedMemSim::new(n, 1);
        let mut outcomes = std::collections::BTreeSet::new();
        let stats = explore_schedules_checked(
            &sim,
            make_pair,
            |report| {
                outcomes.insert((report.outputs[0].unwrap(), report.outputs[1].unwrap()));
                Ok(())
            },
            1000,
        )
        .unwrap();
        // Two processes, three steps each: C(6,3) = 20 interleavings.
        assert_eq!(stats.schedules, 20);
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

        let stats = explore_schedules_checked(&sim, || vec![Solo], |_| Ok(()), 10).unwrap();
        assert_eq!(stats.schedules, 1);
    }

    #[test]
    #[should_panic(expected = "exceeded 5 runs")]
    fn run_guard_fires() {
        let n = SystemSize::new(2).unwrap();
        let sim = SharedMemSim::new(n, 1);
        let _ = explore_schedules_checked(&sim, make_pair, |_| Ok(()), 5);
    }

    #[test]
    fn counterexample_is_replayable() {
        use rrfd::sims::trace::ScheduleReplay;

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
        let reparsed: rrfd::sims::trace::ScheduleTrace = text.parse().unwrap();
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
        use rrfd::core::Control;
        use rrfd::sims::semi_sync::{SemiSyncProcess, SemiSyncSim};
        use rrfd::sims::trace::ScheduleReplay;

        /// Broadcasts once, decides after two steps on how many distinct
        /// senders it heard.
        #[derive(Debug)]
        struct Listen {
            steps: u64,
            heard: IdSet,
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
                    heard: IdSet::empty(),
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
