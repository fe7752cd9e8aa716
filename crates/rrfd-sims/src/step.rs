//! The step adversary shared by every asynchronous substrate: shared
//! memory (§2 items 4 and 5), semi-synchrony (§5) and asynchronous
//! message passing (§2 item 3).
//!
//! All three are driven the same way: an adversary picks the next event
//! among those the execution enables, or crashes a process. Only the
//! meaning of an event differs — one register, snapshot or oracle
//! operation in [`crate::shared_mem`], one receive-all/broadcast in
//! [`crate::semi_sync`], one channel delivery in [`crate::async_net`]. So
//! the event type ([`StepEvent`]), the scheduler interface
//! ([`StepScheduler`]), the two stock schedulers ([`FairScheduler`],
//! [`RandomScheduler`]) and the run loop are written once, here. The DPOR
//! explorer ([`crate::dpor`]) drives shared memory and semi-synchrony
//! through the same crate-private execution interface; the network
//! reports no footprint, so it has no DPOR target.

use rrfd_core::{IdSet, ProcessId};

/// A scheduler decision: who steps next, which channel delivers next, or
/// who crashes.
///
/// The derived order (steps, then crashes, then deliveries; within a kind
/// by process ids) is the canonical order of an execution's enabled
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StepEvent {
    /// The given process takes its next atomic step (shared memory,
    /// semi-synchrony).
    Step(ProcessId),
    /// The given process crashes (takes no further steps, receives no
    /// further messages).
    Crash(ProcessId),
    /// The head-of-line message on channel `(from, to)` is delivered
    /// (asynchronous network).
    Deliver {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
}

impl StepEvent {
    /// The process the event acts on: the stepping or crashing process,
    /// or a delivery's receiver.
    #[must_use]
    pub fn pid(self) -> ProcessId {
        match self {
            StepEvent::Step(p) | StepEvent::Crash(p) | StepEvent::Deliver { to: p, .. } => p,
        }
    }
}

/// Chooses the next event and crashes. Must be fair to enabled events for
/// protocols to terminate.
///
/// The simulators ask only while some process is *live* — undecided and
/// not crashed — and ignore events that are not enabled. On shared memory
/// and semi-synchrony a decided process takes no further steps: its
/// decision is final, so never scheduling it again is equivalent to it
/// being arbitrarily slow, which plain asynchrony already allows. On the
/// network a decided process keeps receiving, so it can still help others
/// finish.
pub trait StepScheduler {
    /// Picks the next event given the execution's enabled non-crash
    /// events, in canonical order, and the number of steps (deliveries,
    /// on the network) executed so far. Any non-crashed process may be
    /// crashed instead.
    fn next_event(&mut self, enabled: &[StepEvent], step: u64) -> StepEvent;
}

/// One run of a step simulator, advanced one scheduler event at a time.
/// [`run`] loops over it; the DPOR explorer applies events one by one and
/// builds its independence relation from the footprints.
pub(crate) trait StepExecution {
    /// Completed-run report.
    type Report;
    /// Simulator error.
    type Error: std::error::Error;
    /// What an applied event reports about the shared state it touched:
    /// the DPOR footprint [`crate::dpor::Access`] on shared memory and
    /// semi-synchrony, nothing (`()`) on the network.
    type Footprint;
    /// Whether the enabled events are one step per live process, so they
    /// change only when the live set does: true on shared memory and
    /// semi-synchrony, false on the network, where every delivery moves
    /// them.
    const ENABLED_IS_LIVE: bool;

    /// Undecided, non-crashed processes. Empty exactly when the run is
    /// complete.
    fn live(&self) -> IdSet;
    /// Writes the enabled non-crash events into `out` (cleared first), in
    /// canonical order: one step per live process, or one delivery per
    /// non-empty channel into a non-crashed process.
    fn enabled(&self, out: &mut Vec<StepEvent>);
    /// Atomic steps (deliveries, on the network) executed so far.
    fn steps(&self) -> u64;
    /// The error that stops a run with live processes: the step budget
    /// spent, the event budget that bounds schedulers naming disabled
    /// events spent, or, on the network, nothing left to deliver.
    fn check_limit(&self) -> Result<(), Self::Error>;
    /// Applies one scheduler event and returns the footprint it left
    /// behind: two events of different processes whose footprints do not
    /// conflict commute. An event that is not enabled is counted toward
    /// the event budget but otherwise ignored (`None`). It does not check
    /// the budgets itself: every caller calls [`Self::check_limit`] first,
    /// which is also how a step-limit error stays apart from the errors
    /// `apply` reports.
    fn apply(&mut self, event: StepEvent) -> Result<Option<Self::Footprint>, Self::Error>;
    /// Packages the current state as a run report.
    fn into_report(self) -> Self::Report;
}

/// Runs `exec` under `scheduler` until no process is live. The enabled
/// buffer is allocated once per run, and refilled only when the enabled
/// events can have changed: refilling at every step cost a short fair
/// semi-synchronous run about a fifth of its time.
pub(crate) fn run<X, S>(mut exec: X, scheduler: &mut S) -> Result<X::Report, X::Error>
where
    X: StepExecution,
    S: StepScheduler + ?Sized,
{
    let mut enabled = Vec::new();
    let mut filled_for = None;
    loop {
        let live = exec.live();
        if live.is_empty() {
            return Ok(exec.into_report());
        }
        exec.check_limit()?;
        if !X::ENABLED_IS_LIVE || filled_for != Some(live) {
            exec.enabled(&mut enabled);
            filled_for = Some(live);
        }
        let event = scheduler.next_event(&enabled, exec.steps());
        exec.apply(event)?;
    }
}

/// The event a scheduler returns when nothing is enabled. The simulators
/// never ask then; if a caller did, the event is ignored.
pub(crate) fn idle() -> StepEvent {
    StepEvent::Step(ProcessId::new(0))
}

/// Cycles through the enabled events and never crashes: the
/// "synchronous" baseline run.
#[derive(Debug, Clone, Default)]
pub struct FairScheduler {
    last: Option<StepEvent>,
}

impl FairScheduler {
    /// Creates a fair scheduler.
    #[must_use]
    pub fn new() -> Self {
        FairScheduler { last: None }
    }
}

impl StepScheduler for FairScheduler {
    fn next_event(&mut self, enabled: &[StepEvent], _step: u64) -> StepEvent {
        // The first enabled event after the last one picked, cycling.
        let pick = enabled
            .iter()
            .find(|&&e| Some(e) > self.last)
            .or(enabled.first())
            .copied()
            .unwrap_or_else(idle);
        self.last = Some(pick);
        pick
    }
}

/// Seeded random scheduler with a crash budget: at every decision it picks
/// a uniformly random enabled event and, with probability `crash_prob`
/// while the budget lasts and more than one event is enabled, crashes that
/// event's process instead. On shared memory and semi-synchrony the last
/// live process is therefore never crashed.
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
    fn next_event(&mut self, enabled: &[StepEvent], _step: u64) -> StepEvent {
        use rand::seq::IteratorRandom;
        use rand::Rng;
        // A reservoir pick: one draw per enabled event.
        let pick = enabled
            .iter()
            .copied()
            .choose(&mut self.rng)
            .unwrap_or_else(idle);
        if self.crash_budget > 0 && enabled.len() > 1 && self.rng.gen_bool(self.crash_prob) {
            self.crash_budget -= 1;
            StepEvent::Crash(pick.pid())
        } else {
            pick
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

    /// On shared memory and semi-synchrony the enabled events are one step
    /// per live process, in id order; over them both schedulers choose,
    /// draw for draw, as the live-set schedulers they generalise did: a
    /// reservoir pick over the live set, and a cursor past the last pick.
    #[test]
    fn schedulers_choose_as_the_live_set_schedulers_did() {
        use rand::seq::IteratorRandom;
        use rand::{Rng, SeedableRng};
        for seed in 0..64u64 {
            let mut sets = rand::rngs::StdRng::seed_from_u64(!seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut budget, crash_prob) = (3, 0.2);
            let mut cursor = 0;
            let mut random = RandomScheduler::new(seed, budget).crash_prob(crash_prob);
            let mut fair = FairScheduler::new();
            for _ in 0..200 {
                let live: IdSet = (0..6)
                    .filter(|_| sets.gen_bool(0.6))
                    .map(ProcessId::new)
                    .collect();
                let enabled: Vec<StepEvent> = live.iter().map(StepEvent::Step).collect();

                let pick = live.iter().choose(&mut rng).unwrap_or(ProcessId::new(0));
                let expected = if budget > 0 && live.len() > 1 && rng.gen_bool(crash_prob) {
                    budget -= 1;
                    StepEvent::Crash(pick)
                } else {
                    StepEvent::Step(pick)
                };
                assert_eq!(random.next_event(&enabled, 0), expected, "seed {seed}");

                let pick = live
                    .iter()
                    .find(|p| p.index() >= cursor)
                    .or_else(|| live.min())
                    .unwrap_or(ProcessId::new(0));
                cursor = pick.index() + 1;
                assert_eq!(
                    fair.next_event(&enabled, 0),
                    StepEvent::Step(pick),
                    "seed {seed}"
                );
            }
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
