//! The semi-synchronous model of Dolev, Dwork and Stockmeyer studied in §5.
//!
//! Model properties (paper's list, with the substitution recorded in
//! `DESIGN.md`):
//!
//! * processes are fully asynchronous (no relative speed bound) and may
//!   crash;
//! * a *step* is atomic: receive every message buffered since the last
//!   step, then (optionally) broadcast one message;
//! * communication is broadcast and **synchronous**: a message broadcast at
//!   global step `t` is delivered to every process before that process
//!   takes its next step after `t` — equivalently, a process stepping at
//!   time `t' > t` receives it in that step.
//!
//! The simulator assigns each atomic step a global sequence number; the
//! scheduler chooses who steps next and who crashes. Theorem 5.1 (2-step
//! rounds supporting the identical-views RRFD) is implemented over this
//! simulator in `rrfd-protocols::semi_sync_consensus` and stress-tested
//! against random schedules.

use crate::dpor::{Access, ReportInPlace};
use crate::step::{self, StepEvent, StepExecution, StepScheduler};
use rrfd_core::{Control, IdSet, ProcessId, SystemSize};
use std::fmt;
use std::sync::Arc;

/// A process in the semi-synchronous model: one atomic
/// receive-all/broadcast step at a time.
pub trait SemiSyncProcess {
    /// Broadcast message type.
    type Msg: Clone;
    /// Decision type.
    type Output: Clone;

    /// Performs one atomic step: consumes everything buffered since the
    /// last step, optionally broadcasts, and possibly decides. Decided
    /// processes keep stepping (their later decisions are ignored).
    ///
    /// Messages arrive behind [`Arc`]s: a broadcast appends one shared
    /// payload to the run's broadcast log (one allocation), and the step
    /// borrows the log entries it has not consumed yet — the simulator
    /// never deep-copies a message.
    fn step(
        &mut self,
        received: &[(ProcessId, Arc<Self::Msg>)],
    ) -> (Option<Self::Msg>, Control<Self::Output>);
}

/// Errors from [`SemiSyncSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemiSyncError {
    /// Step budget exhausted before all correct processes decided.
    StepLimitExceeded {
        /// The configured limit.
        max_steps: u64,
    },
    /// The protocol vector does not match the system size.
    WrongProcessCount {
        /// Instances supplied.
        supplied: usize,
        /// System size.
        expected: usize,
    },
}

impl fmt::Display for SemiSyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemiSyncError::StepLimitExceeded { max_steps } => {
                write!(f, "no full decision after {max_steps} atomic steps")
            }
            SemiSyncError::WrongProcessCount { supplied, expected } => {
                write!(
                    f,
                    "{supplied} processes supplied for a system of {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SemiSyncError {}

/// Outcome of a semi-synchronous run. Final process states are returned
/// so callers can extract protocol-internal logs (e.g. the `D(i,r)` views
/// of the §5 consensus algorithm).
#[derive(Debug, Clone)]
pub struct SemiSyncReport<P: SemiSyncProcess> {
    /// `outputs[i]` is `Some((value, steps_taken_by_i_at_decision))` once
    /// `p_i` decided; the per-process step count is the §5 complexity
    /// measure ("an algorithm that runs in 2 steps").
    pub outputs: Vec<Option<(P::Output, u64)>>,
    /// Crashed processes.
    pub crashed: IdSet,
    /// Total atomic steps executed system-wide.
    pub total_steps: u64,
    /// Final process states.
    pub processes: Vec<P>,
}

impl<P: SemiSyncProcess> SemiSyncReport<P> {
    /// `true` when every non-crashed process decided.
    #[must_use]
    pub fn all_correct_decided(&self) -> bool {
        self.outputs
            .iter()
            .enumerate()
            .all(|(i, o)| o.is_some() || self.crashed.contains(ProcessId::new(i)))
    }

    /// The maximum per-process step count among deciders — the headline
    /// number Theorem 5.1 bounds by 2.
    #[must_use]
    pub fn max_steps_to_decide(&self) -> Option<u64> {
        self.outputs
            .iter()
            .filter_map(|o| o.as_ref().map(|&(_, s)| s))
            .max()
    }
}

/// The semi-synchronous simulator.
#[derive(Debug, Clone)]
pub struct SemiSyncSim {
    n: SystemSize,
    max_steps: u64,
}

impl SemiSyncSim {
    /// Creates a simulator for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        SemiSyncSim {
            n,
            max_steps: 1_000_000,
        }
    }

    /// Overrides the step budget.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Runs until every correct process has decided.
    ///
    /// # Errors
    ///
    /// See [`SemiSyncError`].
    pub fn run<P, S>(
        &self,
        processes: Vec<P>,
        scheduler: &mut S,
    ) -> Result<SemiSyncReport<P>, SemiSyncError>
    where
        P: SemiSyncProcess,
        S: StepScheduler + ?Sized,
    {
        step::run(SemiSyncExecution::start(self, processes)?, scheduler)
    }
}

/// The state of one semi-synchronous run, advanced one scheduler event at
/// a time by [`SemiSyncSim::run`] and by the DPOR explorer
/// ([`crate::dpor`]).
#[derive(Debug)]
pub(crate) struct SemiSyncExecution<P: SemiSyncProcess> {
    sim: SemiSyncSim,
    // Every broadcast of the run, in order. Process `p`'s inbox is
    // `log[cursor[p]..]`: a step borrows that slice and moves the cursor
    // to the end, so delivery neither copies nor drains. Payloads are
    // Arcs, so cloning an execution at an exploration decision point
    // bumps reference counts instead of deep-copying a payload.
    log: Vec<(ProcessId, Arc<P::Msg>)>,
    cursor: Vec<usize>,
    outputs: Vec<Option<(P::Output, u64)>>,
    step_counts: Vec<u64>,
    crashed: IdSet,
    // Undecided, non-crashed processes: shrunk by each crash and each
    // first decision.
    live: IdSet,
    total_steps: u64,
    events: u64,
    processes: Vec<P>,
}

impl<P> Clone for SemiSyncExecution<P>
where
    P: SemiSyncProcess + Clone,
{
    fn clone(&self) -> Self {
        SemiSyncExecution {
            sim: self.sim.clone(),
            log: self.log.clone(),
            cursor: self.cursor.clone(),
            outputs: self.outputs.clone(),
            step_counts: self.step_counts.clone(),
            crashed: self.crashed,
            live: self.live,
            total_steps: self.total_steps,
            events: self.events,
            processes: self.processes.clone(),
        }
    }

    /// Resets `self` to `source`, reusing every buffer `self` already
    /// holds: the DPOR explorer rewinds one execution per worker to the
    /// root state before each work item.
    fn clone_from(&mut self, source: &Self) {
        self.sim.clone_from(&source.sim);
        self.log.clone_from(&source.log);
        self.cursor.clone_from(&source.cursor);
        self.outputs.clone_from(&source.outputs);
        self.step_counts.clone_from(&source.step_counts);
        self.crashed = source.crashed;
        self.live = source.live;
        self.total_steps = source.total_steps;
        self.events = source.events;
        self.processes.clone_from(&source.processes);
    }
}

impl<P: SemiSyncProcess> SemiSyncExecution<P> {
    /// Begins a run of `processes` on `sim`, before any event.
    ///
    /// # Errors
    ///
    /// [`SemiSyncError::WrongProcessCount`] when the protocol vector does
    /// not match the system size.
    pub(crate) fn start(sim: &SemiSyncSim, processes: Vec<P>) -> Result<Self, SemiSyncError> {
        let n = sim.n.get();
        if processes.len() != n {
            return Err(SemiSyncError::WrongProcessCount {
                supplied: processes.len(),
                expected: n,
            });
        }
        Ok(SemiSyncExecution {
            sim: sim.clone(),
            log: Vec::new(),
            cursor: vec![0; n],
            outputs: (0..n).map(|_| None).collect(),
            step_counts: vec![0u64; n],
            crashed: IdSet::empty(),
            live: IdSet::universe(sim.n),
            total_steps: 0,
            events: 0,
            processes,
        })
    }
}

impl<P: SemiSyncProcess> StepExecution for SemiSyncExecution<P> {
    type Report = SemiSyncReport<P>;
    type Error = SemiSyncError;
    type Footprint = Access;
    const ENABLED_IS_LIVE: bool = true;

    fn live(&self) -> IdSet {
        self.live
    }

    fn enabled(&self, out: &mut Vec<StepEvent>) {
        out.clear();
        out.extend(self.live.iter().map(StepEvent::Step));
    }

    fn steps(&self) -> u64 {
        self.total_steps
    }

    fn check_limit(&self) -> Result<(), SemiSyncError> {
        let event_limit = self.sim.max_steps.saturating_mul(4).saturating_add(1024);
        if self.total_steps >= self.sim.max_steps || self.events >= event_limit {
            return Err(SemiSyncError::StepLimitExceeded {
                max_steps: self.sim.max_steps,
            });
        }
        Ok(())
    }

    /// A step that broadcasts appends to the log *every* process reads, so
    /// it conflicts with every other process's steps; a silent step
    /// touches only its own cursor and protocol state; a crash flips one
    /// liveness flag (broadcasts stay in the log whoever has crashed, so a
    /// crash commutes with other processes' steps). Crash and decision
    /// footprints are exactly the events that shrink the live set, which
    /// is what lets the explorer fold crash enabledness along a run from
    /// footprints alone.
    fn apply(&mut self, event: StepEvent) -> Result<Option<Access>, SemiSyncError> {
        self.events += 1;
        match event {
            StepEvent::Crash(p) => {
                if !self.live.remove(p) {
                    return Ok(None);
                }
                self.crashed.insert(p);
                Ok(Some(Access::Crash))
            }
            StepEvent::Step(p) => {
                if !self.live.contains(p) {
                    return Ok(None);
                }
                let i = p.index();
                self.total_steps += 1;
                self.step_counts[i] += 1;
                let end = self.log.len();
                let (broadcast, verdict) = self.processes[i].step(&self.log[self.cursor[i]..end]);
                self.cursor[i] = end;
                let broadcasted = broadcast.is_some();
                if let Some(broadcast) = broadcast {
                    // Synchronous communication: visible to every process
                    // (this one included) from its next step on. One
                    // allocation.
                    self.log.push((p, Arc::new(broadcast)));
                }
                let mut decided = false;
                if let Control::Decide(v) = verdict {
                    let count = self.step_counts[i];
                    self.outputs[i] = Some((v, count));
                    self.live.remove(p);
                    decided = true;
                }
                Ok(Some(match (broadcasted, decided) {
                    (false, false) => Access::Local,
                    (true, false) => Access::Broadcast,
                    (false, true) => Access::Decide,
                    (true, true) => Access::BroadcastDecide,
                }))
            }
            StepEvent::Deliver { .. } => Ok(None),
        }
    }

    fn into_report(self) -> SemiSyncReport<P> {
        SemiSyncReport {
            outputs: self.outputs,
            crashed: self.crashed,
            total_steps: self.total_steps,
            processes: self.processes,
        }
    }
}

impl<P: SemiSyncProcess + Clone> ReportInPlace for SemiSyncExecution<P> {
    fn report(&self) -> SemiSyncReport<P> {
        SemiSyncReport {
            outputs: self.outputs.clone(),
            crashed: self.crashed,
            total_steps: self.total_steps,
            processes: self.processes.clone(),
        }
    }
}

/// The one fair step scheduler, [`crate::step::FairScheduler`], under the
/// name the `roundbench` harness imports; new code should use
/// `FairScheduler`.
pub use crate::step::FairScheduler as FairSemiSync;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    /// Broadcasts once; decides on the set of distinct senders seen in its
    /// first `budget` steps.
    #[derive(Debug)]
    struct Listen {
        budget: u64,
        steps: u64,
        heard: IdSet,
        sent: bool,
    }

    impl Listen {
        fn new(budget: u64) -> Self {
            Listen {
                budget,
                steps: 0,
                heard: IdSet::empty(),
                sent: false,
            }
        }
    }

    impl SemiSyncProcess for Listen {
        type Msg = ();
        type Output = usize;
        fn step(&mut self, received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<usize>) {
            self.steps += 1;
            for &(from, _) in received {
                self.heard.insert(from);
            }
            let msg = if self.sent {
                None
            } else {
                self.sent = true;
                Some(())
            };
            if self.steps >= self.budget {
                (msg, Control::Decide(self.heard.len()))
            } else {
                (msg, Control::Continue)
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_by_their_next_step() {
        let size = n(4);
        // Everyone listens for 2 steps: first step broadcasts, second step
        // must have received every first-step broadcast that happened
        // earlier — under round-robin everyone hears everyone.
        let procs: Vec<_> = (0..4).map(|_| Listen::new(2)).collect();
        let report = SemiSyncSim::new(size)
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        assert!(report.all_correct_decided());
        for out in &report.outputs {
            assert_eq!(out.as_ref().unwrap().0, 4);
        }
        assert_eq!(report.max_steps_to_decide(), Some(2));
    }

    #[test]
    fn own_broadcast_is_delivered_to_self() {
        let size = n(1);
        let procs = vec![Listen::new(2)];
        let report = SemiSyncSim::new(size)
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        assert_eq!(report.outputs[0].as_ref().unwrap().0, 1);
    }

    #[test]
    fn random_schedules_with_crashes_terminate() {
        let size = n(5);
        for seed in 0..20u64 {
            let procs: Vec<_> = (0..5).map(|_| Listen::new(3)).collect();
            let mut sched = RandomScheduler::new(seed, 4).crash_prob(0.02);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
            assert!(report.all_correct_decided(), "seed {seed}");
            assert!(report.crashed.len() <= 4);
        }
    }

    #[test]
    fn crashed_process_stops_stepping() {
        let size = n(2);

        struct CrashThenFair {
            crashed: bool,
            inner: FairScheduler,
        }
        impl StepScheduler for CrashThenFair {
            fn next_event(&mut self, enabled: &[StepEvent], step: u64) -> StepEvent {
                if !self.crashed {
                    self.crashed = true;
                    return StepEvent::Crash(ProcessId::new(1));
                }
                self.inner.next_event(enabled, step)
            }
        }

        let procs: Vec<_> = (0..2).map(|_| Listen::new(2)).collect();
        let mut sched = CrashThenFair {
            crashed: false,
            inner: FairScheduler::new(),
        };
        let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
        assert!(report.crashed.contains(ProcessId::new(1)));
        assert!(report.outputs[1].is_none());
        // p0 only ever hears itself.
        assert_eq!(report.outputs[0].as_ref().unwrap().0, 1);
    }

    #[test]
    fn live_field_is_the_undecided_uncrashed_set_after_every_event() {
        let size = n(5);
        let mut crashes = 0;
        for seed in 0..20u64 {
            let procs: Vec<_> = (0..5).map(|_| Listen::new(3)).collect();
            let mut exec = SemiSyncExecution::start(&SemiSyncSim::new(size), procs).unwrap();
            let mut sched = RandomScheduler::new(seed, 4).crash_prob(0.1);
            let expected = |exec: &SemiSyncExecution<Listen>| -> IdSet {
                size.processes()
                    .filter(|&p| !exec.crashed.contains(p) && exec.outputs[p.index()].is_none())
                    .collect()
            };
            let mut enabled = Vec::new();
            while !exec.live().is_empty() {
                exec.enabled(&mut enabled);
                let event = sched.next_event(&enabled, exec.steps());
                exec.apply(event).unwrap();
                assert_eq!(exec.live, expected(&exec), "seed {seed} after {event:?}");
            }
            // Events naming a finished process are ignored and move
            // nothing.
            for p in size.processes() {
                for event in [StepEvent::Step(p), StepEvent::Crash(p)] {
                    assert_eq!(exec.apply(event), Ok(None));
                    assert_eq!(exec.live, expected(&exec));
                }
            }
            crashes += exec.crashed.len();
        }
        assert!(crashes > 0, "the runs must exercise crashes");
    }

    #[test]
    fn step_limit_is_enforced() {
        let size = n(2);
        let procs: Vec<_> = (0..2).map(|_| Listen::new(1_000_000)).collect();
        let err = SemiSyncSim::new(size)
            .max_steps(100)
            .run(procs, &mut FairScheduler::new())
            .unwrap_err();
        assert_eq!(err, SemiSyncError::StepLimitExceeded { max_steps: 100 });
    }
}
