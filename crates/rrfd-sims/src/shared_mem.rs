//! Asynchronous shared-memory simulator: SWMR register banks with an
//! adversarial step scheduler and crash faults (§2 items 4 and 5).
//!
//! The memory is organised in *banks* of single-writer multi-reader cells:
//! bank `b` holds one cell per process, writable only by its owner. A
//! process is a step machine ([`MemProcess`]): each scheduled step performs
//! exactly one primitive operation — a write to one of its own cells, a
//! read of a single cell, or (when the simulated system provides it, item 5)
//! an **atomic snapshot** of a whole bank. The one-op-per-step discipline is
//! what gives the scheduler real adversarial power: interleavings between a
//! write and the reads that follow it are all reachable.
//!
//! Crash faults are injected by the scheduler ([`StepEvent::Crash`]); a
//! crashed process takes no further steps. The simulator itself is
//! deterministic given the scheduler, so any run can be replayed from a
//! seed.

use crate::dpor::{Access, ReportInPlace};
use crate::step::{self, StepEvent, StepExecution, StepScheduler};
use rrfd_core::{IdSet, ProcessId, SystemSize};
use std::fmt;

/// One primitive operation per scheduled step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<V, O> {
    /// Write `value` into this process's cell of bank `bank`.
    Write {
        /// Target bank.
        bank: usize,
        /// Value to store.
        value: V,
    },
    /// Read the cell of `owner` in `bank`; the value arrives in the next
    /// step's [`Observation::Value`].
    Read {
        /// Bank to read from.
        bank: usize,
        /// Whose cell to read.
        owner: ProcessId,
    },
    /// Atomically read a whole bank (item 5's snapshot object). Only legal
    /// when the simulator was built with [`SharedMemSim::with_snapshots`].
    Snapshot {
        /// Bank to snapshot.
        bank: usize,
    },
    /// Propose `value` to one-shot k-set-consensus object `object` (the
    /// oracle of Theorem 3.3). Only legal when the simulator was built
    /// with [`SharedMemSim::with_kset_objects`]. The chosen value arrives
    /// in the next step's [`Observation::Chosen`].
    Propose {
        /// Which oracle object.
        object: usize,
        /// The proposed value.
        value: u64,
    },
    /// Commit to an output and halt.
    Decide(O),
}

/// What a step observes: the result of its previous action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation<V> {
    /// First step of the run; there is no previous action.
    Start,
    /// The previous write completed.
    Written,
    /// The value read by the previous [`Action::Read`] (`None`: unwritten).
    Value(Option<V>),
    /// The bank contents captured by the previous [`Action::Snapshot`],
    /// indexed by owner.
    SnapshotView(Vec<Option<V>>),
    /// The value chosen by the previous [`Action::Propose`]: one of the
    /// values proposed to that object so far; at most `k` distinct values
    /// are ever chosen per object.
    Chosen(u64),
}

/// A process driven by the shared-memory simulator.
pub trait MemProcess<V> {
    /// Decision type.
    type Output;

    /// Consumes the previous action's result and issues the next action.
    fn step(&mut self, obs: Observation<V>) -> Action<V, Self::Output>;
}

/// Errors from [`SharedMemSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemSimError {
    /// A process issued [`Action::Snapshot`] but the simulated system has
    /// no snapshot object.
    SnapshotUnavailable {
        /// The offending process.
        process: ProcessId,
    },
    /// A process issued [`Action::Propose`] but the simulated system has
    /// no (or not that many) k-set-consensus objects.
    OracleUnavailable {
        /// The offending process.
        process: ProcessId,
        /// The object index it addressed.
        object: usize,
    },
    /// A process addressed a bank beyond the configured count.
    BankOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// The bank it addressed.
        bank: usize,
    },
    /// A process read the cell of an owner outside the system.
    OwnerOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// The owner it addressed.
        owner: ProcessId,
    },
    /// The step budget elapsed with runnable processes remaining (the
    /// scheduler starved someone or the protocol does not terminate).
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

impl fmt::Display for MemSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSimError::SnapshotUnavailable { process } => {
                write!(f, "{process} used a snapshot in a register-only system")
            }
            MemSimError::OracleUnavailable { process, object } => {
                write!(f, "{process} proposed to missing k-set object {object}")
            }
            MemSimError::BankOutOfRange { process, bank } => {
                write!(f, "{process} addressed bank {bank}, which does not exist")
            }
            MemSimError::OwnerOutOfRange { process, owner } => {
                write!(f, "{process} read a cell of {owner}, which does not exist")
            }
            MemSimError::StepLimitExceeded { max_steps } => {
                write!(f, "runnable processes remain after {max_steps} steps")
            }
            MemSimError::WrongProcessCount { supplied, expected } => {
                write!(
                    f,
                    "{supplied} processes supplied for a system of {expected}"
                )
            }
        }
    }
}

impl std::error::Error for MemSimError {}

/// Outcome of a shared-memory run. Final process states are returned so
/// callers can extract protocol-internal logs (e.g. the recorded `D(i,r)`
/// sets of the Theorem 4.3 simulation).
#[derive(Debug, Clone)]
pub struct MemRunReport<P: MemProcess<V>, V> {
    /// `outputs[i]` is `Some` if `p_i` decided.
    pub outputs: Vec<Option<P::Output>>,
    /// Processes crashed by the scheduler.
    pub crashed: IdSet,
    /// Total primitive steps executed.
    pub steps: u64,
    /// Final process states.
    pub processes: Vec<P>,
    marker: std::marker::PhantomData<V>,
}

impl<P: MemProcess<V>, V> MemRunReport<P, V> {
    /// `true` when every non-crashed process decided.
    #[must_use]
    pub fn all_correct_decided(&self) -> bool {
        self.outputs
            .iter()
            .enumerate()
            .all(|(i, o)| o.is_some() || self.crashed.contains(ProcessId::new(i)))
    }
}

/// The simulator: `n` processes over `banks` SWMR banks.
///
/// # Examples
///
/// A one-shot "write then read your left neighbour" protocol:
///
/// ```
/// use rrfd_core::{IdSet, ProcessId, SystemSize};
/// use rrfd_sims::shared_mem::{Action, MemProcess, Observation, SharedMemSim};
/// use rrfd_sims::step::FairScheduler;
///
/// struct WriteRead {
///     me: ProcessId,
///     n: usize,
/// }
/// impl MemProcess<u64> for WriteRead {
///     type Output = Option<u64>;
///     fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
///         match obs {
///             Observation::Start => Action::Write { bank: 0, value: self.me.index() as u64 },
///             Observation::Written => Action::Read {
///                 bank: 0,
///                 owner: ProcessId::new((self.me.index() + 1) % self.n),
///             },
///             Observation::Value(v) => Action::Decide(v),
///             other => unreachable!("{other:?}"),
///         }
///     }
/// }
///
/// let n = SystemSize::new(3).unwrap();
/// let procs: Vec<_> = n.processes().map(|p| WriteRead { me: p, n: 3 }).collect();
/// let report = SharedMemSim::new(n, 1)
///     .run(procs, &mut FairScheduler::new())
///     .unwrap();
/// assert!(report.all_correct_decided());
/// ```
#[derive(Debug, Clone)]
pub struct SharedMemSim {
    n: SystemSize,
    banks: usize,
    snapshots: bool,
    kset_objects: usize,
    kset_k: usize,
    kset_seed: u64,
    max_steps: u64,
}

/// Default step budget.
pub const DEFAULT_MAX_STEPS: u64 = 10_000_000;

impl SharedMemSim {
    /// A register-only system (no snapshot object) with `banks` SWMR banks.
    #[must_use]
    pub fn new(n: SystemSize, banks: usize) -> Self {
        SharedMemSim {
            n,
            banks,
            snapshots: false,
            kset_objects: 0,
            kset_k: 0,
            kset_seed: 0,
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Enables the atomic-snapshot object (item 5's system).
    #[must_use]
    pub fn with_snapshots(mut self) -> Self {
        self.snapshots = true;
        self
    }

    /// Equips the system with `count` one-shot k-set-consensus objects
    /// with agreement parameter `k` (the oracle Theorem 3.3 assumes).
    /// Each object returns, wait-free, one of the values proposed to it so
    /// far, choosing (seeded by `seed`) which proposals become decidable,
    /// with at most `k` distinct values ever returned.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` while `count > 0`.
    #[must_use]
    pub fn with_kset_objects(mut self, count: usize, k: usize, seed: u64) -> Self {
        assert!(count == 0 || k >= 1, "k-set objects need k >= 1");
        self.kset_objects = count;
        self.kset_k = k;
        self.kset_seed = seed;
        self
    }

    /// Overrides the step budget.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The system size.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// Runs the processes under `scheduler` until every process has decided
    /// or crashed.
    ///
    /// # Errors
    ///
    /// See [`MemSimError`].
    pub fn run<V, P, S>(
        &self,
        processes: Vec<P>,
        scheduler: &mut S,
    ) -> Result<MemRunReport<P, V>, MemSimError>
    where
        V: Clone,
        P: MemProcess<V>,
        S: StepScheduler + ?Sized,
    {
        step::run(MemExecution::start(self, processes)?, scheduler)
    }
}

/// The state of one shared-memory run, advanced one scheduler event at a
/// time by [`SharedMemSim::run`] and by the DPOR explorer
/// ([`crate::dpor`]).
#[derive(Debug)]
pub(crate) struct MemExecution<P: MemProcess<V>, V> {
    sim: SharedMemSim,
    cells: Vec<Option<V>>,
    oracles: Vec<KSetObject>,
    pending: Vec<Observation<V>>,
    outputs: Vec<Option<P::Output>>,
    crashed: IdSet,
    steps: u64,
    // Scheduler events (including crashes and no-op picks) are bounded
    // separately so a scheduler that keeps naming non-runnable processes
    // cannot spin the simulator forever.
    events: u64,
    processes: Vec<P>,
}

impl<P, V> Clone for MemExecution<P, V>
where
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    V: Clone,
{
    fn clone(&self) -> Self {
        MemExecution {
            sim: self.sim.clone(),
            cells: self.cells.clone(),
            oracles: self.oracles.clone(),
            pending: self.pending.clone(),
            outputs: self.outputs.clone(),
            crashed: self.crashed,
            steps: self.steps,
            events: self.events,
            processes: self.processes.clone(),
        }
    }

    /// Resets `self` to `source`, reusing every buffer `self` already
    /// holds: the DPOR explorer rewinds one execution per worker to the
    /// root state before each work item.
    fn clone_from(&mut self, source: &Self) {
        self.sim.clone_from(&source.sim);
        self.cells.clone_from(&source.cells);
        self.oracles.clone_from(&source.oracles);
        self.pending.clone_from(&source.pending);
        self.outputs.clone_from(&source.outputs);
        self.crashed = source.crashed;
        self.steps = source.steps;
        self.events = source.events;
        self.processes.clone_from(&source.processes);
    }
}

impl<P: MemProcess<V>, V: Clone> MemExecution<P, V> {
    /// Begins a run of `processes` on `sim`, before any event.
    ///
    /// # Errors
    ///
    /// [`MemSimError::WrongProcessCount`] when the protocol vector does
    /// not match the system size.
    pub(crate) fn start(sim: &SharedMemSim, processes: Vec<P>) -> Result<Self, MemSimError> {
        let n = sim.n.get();
        if processes.len() != n {
            return Err(MemSimError::WrongProcessCount {
                supplied: processes.len(),
                expected: n,
            });
        }
        Ok(MemExecution {
            sim: sim.clone(),
            cells: vec![None; sim.banks * n],
            oracles: (0..sim.kset_objects)
                .map(|i| KSetObject::new(sim.kset_k, sim.kset_seed.wrapping_add(i as u64)))
                .collect(),
            pending: vec![Observation::Start; n],
            outputs: (0..n).map(|_| None).collect(),
            crashed: IdSet::empty(),
            steps: 0,
            events: 0,
            processes,
        })
    }
}

impl<P: MemProcess<V>, V: Clone> StepExecution for MemExecution<P, V> {
    type Report = MemRunReport<P, V>;
    type Error = MemSimError;
    type Footprint = Access;
    const ENABLED_IS_LIVE: bool = true;

    fn live(&self) -> IdSet {
        (0..self.sim.n.get())
            .map(ProcessId::new)
            .filter(|&p| self.outputs[p.index()].is_none() && !self.crashed.contains(p))
            .collect()
    }

    fn enabled(&self, out: &mut Vec<StepEvent>) {
        let live = self.live();
        out.clear();
        out.extend(live.iter().map(StepEvent::Step));
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn check_limit(&self) -> Result<(), MemSimError> {
        let event_limit = self.sim.max_steps.saturating_mul(4).saturating_add(1024);
        if self.steps >= self.sim.max_steps || self.events >= event_limit {
            return Err(MemSimError::StepLimitExceeded {
                max_steps: self.sim.max_steps,
            });
        }
        Ok(())
    }

    /// Cells are single-writer (process `p` writes only cell `(bank, p)`),
    /// so the footprint of a write names its own cell; a decision touches
    /// only process-local state.
    fn apply(&mut self, event: StepEvent) -> Result<Option<Access>, MemSimError> {
        self.events += 1;
        let live = self.live();
        match event {
            StepEvent::Crash(p) => {
                if !live.contains(p) {
                    return Ok(None);
                }
                self.crashed.insert(p);
                Ok(Some(Access::Crash))
            }
            StepEvent::Step(p) => {
                if !live.contains(p) {
                    return Ok(None);
                }
                self.steps += 1;
                let n = self.sim.n.get();
                let idx = p.index();
                let obs = std::mem::replace(&mut self.pending[idx], Observation::Start);
                let access = match self.processes[idx].step(obs) {
                    Action::Write { bank, value } => {
                        if bank >= self.sim.banks {
                            return Err(MemSimError::BankOutOfRange { process: p, bank });
                        }
                        self.cells[bank * n + idx] = Some(value);
                        self.pending[idx] = Observation::Written;
                        Access::Write { bank, owner: idx }
                    }
                    Action::Read { bank, owner } => {
                        if bank >= self.sim.banks {
                            return Err(MemSimError::BankOutOfRange { process: p, bank });
                        }
                        if owner.index() >= n {
                            return Err(MemSimError::OwnerOutOfRange { process: p, owner });
                        }
                        self.pending[idx] =
                            Observation::Value(self.cells[bank * n + owner.index()].clone());
                        Access::Read {
                            bank,
                            owner: owner.index(),
                        }
                    }
                    Action::Snapshot { bank } => {
                        if !self.sim.snapshots {
                            return Err(MemSimError::SnapshotUnavailable { process: p });
                        }
                        if bank >= self.sim.banks {
                            return Err(MemSimError::BankOutOfRange { process: p, bank });
                        }
                        let view = self.cells[bank * n..(bank + 1) * n].to_vec();
                        self.pending[idx] = Observation::SnapshotView(view);
                        Access::Snapshot { bank }
                    }
                    Action::Propose { object, value } => {
                        let Some(oracle) = self.oracles.get_mut(object) else {
                            return Err(MemSimError::OracleUnavailable { process: p, object });
                        };
                        self.pending[idx] = Observation::Chosen(oracle.propose(value));
                        Access::Oracle { object }
                    }
                    Action::Decide(out) => {
                        self.outputs[idx] = Some(out);
                        Access::Local
                    }
                };
                Ok(Some(access))
            }
            StepEvent::Deliver { .. } => Ok(None),
        }
    }

    fn into_report(self) -> MemRunReport<P, V> {
        MemRunReport {
            outputs: self.outputs,
            crashed: self.crashed,
            steps: self.steps,
            processes: self.processes,
            marker: std::marker::PhantomData,
        }
    }
}

impl<P, V> ReportInPlace for MemExecution<P, V>
where
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    V: Clone,
{
    fn report(&self) -> MemRunReport<P, V> {
        MemRunReport {
            outputs: self.outputs.clone(),
            crashed: self.crashed,
            steps: self.steps,
            processes: self.processes.clone(),
            marker: std::marker::PhantomData,
        }
    }
}

/// A linearizable one-shot k-set-consensus object: every `propose` returns
/// a value already proposed, and at most `k` distinct values are ever
/// returned. Each propose is atomic (it executes within one simulator
/// step), so the object is trivially wait-free.
#[derive(Debug, Clone)]
struct KSetObject {
    k: usize,
    rng: rand::rngs::StdRng,
    proposals: Vec<u64>,
    chosen: Vec<u64>,
}

impl KSetObject {
    fn new(k: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        KSetObject {
            k,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            proposals: Vec::new(),
            chosen: Vec::new(),
        }
    }

    fn propose(&mut self, value: u64) -> u64 {
        use rand::seq::SliceRandom;
        use rand::Rng;
        self.proposals.push(value);
        // Adversarially (but reproducibly) grow the chosen set up to k.
        if self.chosen.len() < self.k && (self.chosen.is_empty() || self.rng.gen_bool(0.4)) {
            let pick = *self
                .proposals
                .choose(&mut self.rng)
                .expect("just pushed a proposal");
            if !self.chosen.contains(&pick) {
                self.chosen.push(pick);
            }
        }
        *self
            .chosen
            .choose(&mut self.rng)
            .expect("chosen is non-empty after the first propose")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    /// Writes its id, then snapshots until it sees at least `quorum`
    /// values, then decides the set it saw.
    #[derive(Debug)]
    struct SnapUntil {
        quorum: usize,
    }

    impl MemProcess<u64> for SnapUntil {
        type Output = Vec<u64>;
        fn step(&mut self, obs: Observation<u64>) -> Action<u64, Vec<u64>> {
            match obs {
                Observation::Start => Action::Write { bank: 0, value: 7 },
                Observation::Written => Action::Snapshot { bank: 0 },
                Observation::SnapshotView(view) => {
                    let seen: Vec<u64> = view.into_iter().flatten().collect();
                    if seen.len() >= self.quorum {
                        Action::Decide(seen)
                    } else {
                        Action::Snapshot { bank: 0 }
                    }
                }
                other => unreachable!("only writes and snapshots: {other:?}"),
            }
        }
    }

    #[test]
    fn fair_run_decides_with_full_views() {
        let size = n(4);
        let procs: Vec<_> = (0..4).map(|_| SnapUntil { quorum: 4 }).collect();
        let report = SharedMemSim::new(size, 1)
            .with_snapshots()
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        assert!(report.all_correct_decided());
        for out in report.outputs {
            assert_eq!(out.unwrap().len(), 4);
        }
    }

    #[test]
    fn snapshot_in_register_system_is_an_error() {
        let size = n(2);
        let procs: Vec<_> = (0..2).map(|_| SnapUntil { quorum: 1 }).collect();
        let err = SharedMemSim::new(size, 1)
            .run(procs, &mut FairScheduler::new())
            .unwrap_err();
        assert!(matches!(err, MemSimError::SnapshotUnavailable { .. }));
    }

    #[test]
    fn crashed_processes_take_no_steps() {
        let size = n(3);

        struct CrashFirst {
            crashed_once: bool,
            inner: FairScheduler,
        }
        impl StepScheduler for CrashFirst {
            fn next_event(&mut self, enabled: &[StepEvent], s: u64) -> StepEvent {
                if !self.crashed_once {
                    self.crashed_once = true;
                    StepEvent::Crash(ProcessId::new(0))
                } else {
                    self.inner.next_event(enabled, s)
                }
            }
        }

        // Quorum 2: survivable with one crash out of three.
        let procs: Vec<_> = (0..3).map(|_| SnapUntil { quorum: 2 }).collect();
        let report = SharedMemSim::new(size, 1)
            .with_snapshots()
            .run(
                procs,
                &mut CrashFirst {
                    crashed_once: false,
                    inner: FairScheduler::new(),
                },
            )
            .unwrap();
        assert_eq!(report.crashed, IdSet::singleton(ProcessId::new(0)));
        assert!(report.outputs[0].is_none());
        assert!(report.outputs[1].is_some());
        assert!(report.outputs[2].is_some());
        assert!(report.all_correct_decided());
    }

    #[test]
    fn starvation_hits_the_step_limit() {
        let size = n(2);

        /// Only ever steps p0, which waits for p1's value forever.
        struct Starver;
        impl StepScheduler for Starver {
            fn next_event(&mut self, _enabled: &[StepEvent], _s: u64) -> StepEvent {
                StepEvent::Step(ProcessId::new(0))
            }
        }

        let procs: Vec<_> = (0..2).map(|_| SnapUntil { quorum: 2 }).collect();
        let err = SharedMemSim::new(size, 1)
            .with_snapshots()
            .max_steps(500)
            .run(procs, &mut Starver)
            .unwrap_err();
        assert_eq!(err, MemSimError::StepLimitExceeded { max_steps: 500 });
    }

    #[test]
    fn reads_see_only_prior_writes() {
        let size = n(2);

        /// p0 reads p1's cell before p1 writes (fair order: p0 first).
        struct ReadFirst {
            me: ProcessId,
        }
        impl MemProcess<u64> for ReadFirst {
            type Output = Option<u64>;
            fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
                match obs {
                    Observation::Start => {
                        if self.me.index() == 0 {
                            Action::Read {
                                bank: 0,
                                owner: ProcessId::new(1),
                            }
                        } else {
                            Action::Write { bank: 0, value: 42 }
                        }
                    }
                    Observation::Value(v) => Action::Decide(v),
                    Observation::Written => Action::Read {
                        bank: 0,
                        owner: ProcessId::new(1),
                    },
                    other => unreachable!("{other:?}"),
                }
            }
        }

        let procs: Vec<_> = size.processes().map(|p| ReadFirst { me: p }).collect();
        let report = SharedMemSim::new(size, 1)
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        // Fair order p0, p1, p0, p1: p0's read precedes p1's write.
        assert_eq!(report.outputs[0], Some(None));
        // p1 reads its own cell after writing it.
        assert_eq!(report.outputs[1], Some(Some(42)));
    }

    #[test]
    fn random_scheduler_respects_crash_budget() {
        let size = n(5);
        for seed in 0..10u64 {
            let procs: Vec<_> = (0..5).map(|_| SnapUntil { quorum: 3 }).collect();
            let mut sched = RandomScheduler::new(seed, 2).crash_prob(0.05);
            let report = SharedMemSim::new(size, 1)
                .with_snapshots()
                .run(procs, &mut sched)
                .unwrap();
            assert!(report.crashed.len() <= 2, "crash budget exceeded");
            assert!(report.all_correct_decided());
        }
    }

    #[test]
    fn bank_bounds_are_checked() {
        let size = n(1);
        #[derive(Debug)]
        struct BadBank;
        impl MemProcess<u64> for BadBank {
            type Output = ();
            fn step(&mut self, _obs: Observation<u64>) -> Action<u64, ()> {
                Action::Write { bank: 3, value: 0 }
            }
        }
        let err = SharedMemSim::new(size, 2)
            .run(vec![BadBank], &mut FairScheduler::new())
            .unwrap_err();
        assert!(matches!(err, MemSimError::BankOutOfRange { bank: 3, .. }));
    }

    #[test]
    fn owner_bounds_are_checked() {
        // Each process writes 7 into bank 1, then reads owner p2 of `bank`
        // in a 2-process system: p2's bank-0 cell would alias p0's bank-1
        // cell, and on the last bank the read would run past the end.
        #[derive(Debug)]
        struct BadOwner(usize);
        impl MemProcess<u64> for BadOwner {
            type Output = Option<u64>;
            fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
                match obs {
                    Observation::Start => Action::Write { bank: 1, value: 7 },
                    Observation::Value(v) => Action::Decide(v),
                    _ => Action::Read {
                        bank: self.0,
                        owner: ProcessId::new(2),
                    },
                }
            }
        }
        for bank in [0, 1] {
            let err = SharedMemSim::new(n(2), 2)
                .run(
                    vec![BadOwner(bank), BadOwner(bank)],
                    &mut FairScheduler::new(),
                )
                .unwrap_err();
            assert_eq!(
                err,
                MemSimError::OwnerOutOfRange {
                    process: ProcessId::new(0),
                    owner: ProcessId::new(2),
                },
                "bank {bank}"
            );
        }
    }

    #[test]
    fn wrong_process_count_is_reported() {
        let size = n(3);
        let procs: Vec<SnapUntil> = vec![];
        let err = SharedMemSim::new(size, 1)
            .run(procs, &mut FairScheduler::new())
            .unwrap_err();
        assert!(matches!(err, MemSimError::WrongProcessCount { .. }));
    }
}
