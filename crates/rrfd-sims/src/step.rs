//! The step adversary shared by the shared-memory simulator (§2 items 4
//! and 5) and the semi-synchronous one (§5).
//!
//! Both systems are driven the same way: an adversary picks which live
//! process takes its next atomic step, or which one crashes. Only the
//! meaning of a step differs — one register, snapshot or oracle operation
//! in [`crate::shared_mem`], one receive-all/broadcast in
//! [`crate::semi_sync`]. So the event type ([`StepEvent`]), the scheduler
//! interface ([`StepScheduler`]), the two stock schedulers
//! ([`FairScheduler`], [`RandomScheduler`]) and the run loop are written
//! once, here. The DPOR explorer ([`crate::dpor`]) drives both
//! simulators through the same crate-private execution interface.

use crate::dpor::Access;
use rrfd_core::{IdSet, ProcessId};
use std::fmt;

/// A scheduler decision: who steps next, or who crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// The given process takes its next atomic step.
    Step(ProcessId),
    /// The given process crashes (takes no further steps).
    Crash(ProcessId),
}

impl StepEvent {
    /// The process the event names.
    pub(crate) fn pid(self) -> ProcessId {
        match self {
            StepEvent::Step(p) | StepEvent::Crash(p) => p,
        }
    }
}

/// Chooses step order and crashes. Must be fair to live processes for
/// protocols to terminate.
///
/// The simulators only ask while some process is *live* — undecided and
/// not crashed — and ignore events naming any other process. A decided
/// process's later steps cannot affect anyone (its decision is final), so
/// never scheduling it again is equivalent to it being arbitrarily slow,
/// which plain asynchrony already allows.
pub trait StepScheduler {
    /// Picks the next event given the live processes and the number of
    /// atomic steps executed so far.
    fn next_event(&mut self, live: IdSet, step: u64) -> StepEvent;
}

/// One run of a step simulator, advanced one scheduler event at a time.
/// [`run`] loops over it; the DPOR explorer applies events one by one and
/// builds its independence relation from the footprints.
pub(crate) trait StepExecution {
    /// Completed-run report.
    type Report;
    /// Simulator error.
    type Error: fmt::Debug;

    /// Undecided, non-crashed processes. Empty exactly when the run is
    /// complete.
    fn live(&self) -> IdSet;
    /// Atomic steps executed so far.
    fn steps(&self) -> u64;
    /// The step-limit error once the step budget, or the event budget
    /// that bounds schedulers naming non-live processes, is spent.
    fn check_limit(&self) -> Result<(), Self::Error>;
    /// Applies one scheduler event and returns the shared-state footprint
    /// it left behind: two events of different processes whose footprints
    /// do not conflict commute. An event naming a non-live process is
    /// counted toward the event budget but otherwise ignored (`None`).
    fn apply(&mut self, event: StepEvent) -> Result<Option<Access>, Self::Error>;
    /// Packages the current state as a run report.
    fn into_report(self) -> Self::Report;
}

/// Runs `exec` under `scheduler` until no process is live.
pub(crate) fn run<X, S>(mut exec: X, scheduler: &mut S) -> Result<X::Report, X::Error>
where
    X: StepExecution,
    S: StepScheduler + ?Sized,
{
    loop {
        let live = exec.live();
        if live.is_empty() {
            return Ok(exec.into_report());
        }
        exec.check_limit()?;
        let event = scheduler.next_event(live, exec.steps());
        exec.apply(event)?;
    }
}

/// Round-robin scheduler with no crashes: the "synchronous" baseline run.
#[derive(Debug, Clone, Default)]
pub struct FairScheduler {
    cursor: usize,
}

impl FairScheduler {
    /// Creates a fair scheduler.
    #[must_use]
    pub fn new() -> Self {
        FairScheduler { cursor: 0 }
    }
}

impl StepScheduler for FairScheduler {
    fn next_event(&mut self, live: IdSet, _step: u64) -> StepEvent {
        // Next live process at or after the cursor, cycling. The
        // simulators never ask with an empty live set; if a caller did,
        // the event names a non-live process and is ignored.
        let pick = live
            .iter()
            .find(|p| p.index() >= self.cursor)
            .or_else(|| live.min())
            .unwrap_or(ProcessId::new(0));
        self.cursor = pick.index() + 1;
        StepEvent::Step(pick)
    }
}

/// Seeded random scheduler with a crash budget: at every decision it picks
/// a uniformly random live process and, with probability `crash_prob`
/// while the budget lasts, crashes it instead of stepping it. The last
/// live process is never crashed.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: rand::rngs::StdRng,
    crash_budget: usize,
    crash_prob: f64,
}

impl RandomScheduler {
    /// Creates a scheduler with up to `max_crashes` crashes, deterministic
    /// in `seed`.
    #[must_use]
    pub fn new(seed: u64, max_crashes: usize) -> Self {
        use rand::SeedableRng;
        RandomScheduler {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            crash_budget: max_crashes,
            crash_prob: 0.01,
        }
    }

    /// Overrides the per-decision crash probability (default 1%).
    #[must_use]
    pub fn crash_prob(mut self, p: f64) -> Self {
        self.crash_prob = p;
        self
    }
}

impl StepScheduler for RandomScheduler {
    fn next_event(&mut self, live: IdSet, _step: u64) -> StepEvent {
        use rand::seq::IteratorRandom;
        use rand::Rng;
        // As in `FairScheduler`, an empty live set yields an ignored event.
        let pick = live
            .iter()
            .choose(&mut self.rng)
            .unwrap_or(ProcessId::new(0));
        if self.crash_budget > 0 && live.len() > 1 && self.rng.gen_bool(self.crash_prob) {
            self.crash_budget -= 1;
            StepEvent::Crash(pick)
        } else {
            StepEvent::Step(pick)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semi_sync::{SemiSyncProcess, SemiSyncSim};
    use crate::shared_mem::{Action, MemProcess, Observation, SharedMemSim};
    use rrfd_core::{Control, SystemSize};
    use std::sync::Arc;

    /// Decides on its first step, in either system.
    struct DecideAtOnce;

    impl MemProcess<u64> for DecideAtOnce {
        type Output = ();
        fn step(&mut self, _obs: Observation<u64>) -> Action<u64, ()> {
            Action::Decide(())
        }
    }

    impl SemiSyncProcess for DecideAtOnce {
        type Msg = ();
        type Output = ();
        fn step(&mut self, _received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<()>) {
            (None, Control::Decide(()))
        }
    }

    #[test]
    fn random_scheduler_never_crashes_the_last_live_process() {
        for n in 1..=5 {
            let size = SystemSize::new(n).unwrap();
            let make = || (0..n).map(|_| DecideAtOnce).collect::<Vec<_>>();
            for seed in 0..8u64 {
                // Every decision crashes while the budget lasts and a
                // second process is live.
                let mut sched = RandomScheduler::new(seed, n).crash_prob(1.0);
                let mem = SharedMemSim::new(size, 1).run(make(), &mut sched).unwrap();
                assert_eq!(mem.crashed.len(), n - 1, "n={n} seed={seed}");
                assert!(mem.all_correct_decided());

                let mut sched = RandomScheduler::new(seed, n).crash_prob(1.0);
                let semi = SemiSyncSim::new(size).run(make(), &mut sched).unwrap();
                assert_eq!(semi.crashed.len(), n - 1, "n={n} seed={seed}");
                assert!(semi.all_correct_decided());
            }
        }
    }
}
