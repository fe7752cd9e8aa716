//! Work-distributing, pruned schedule exploration.
//!
//! The sequential explorers in [`crate::explore`] re-run the whole
//! simulation once per schedule, so shared prefixes are paid for over and
//! over. This module replaces that with an explicit-state depth-first
//! search over cloneable execution states ([`crate::shared_mem::MemExecution`],
//! [`crate::semi_sync::SemiSyncExecution`]): every decision point is
//! visited once, the state is cloned per branch, and three orthogonal
//! mechanisms cut the tree down and spread it out:
//!
//! 1. **Prefix splitting** — the tree is expanded to a configurable
//!    prefix depth ([`ParConfig::split_depth`]) and each frontier node
//!    becomes an independent subtree job, executed by `std::thread`
//!    workers that claim jobs from a shared queue.
//! 2. **Converged-state memoization** — each worker keeps a per-job
//!    [`DigestMemo`] of canonical state encodings (the
//!    [`StateDigest`] seam); a child state already seen is pruned. The
//!    memo confirms membership by full byte equality, so weak-hash
//!    collisions can never merge distinct states, and step counters are
//!    part of the encoding, so the state graph is acyclic and visit-time
//!    insertion is sound: every reachable distinct state is still visited
//!    at least once.
//! 3. **Symmetry reduction** (opt-in) — schedules are quotiented by
//!    process-id permutations: a branch is explored only if processes
//!    make their first appearance in increasing id order. This is sound
//!    only for id-symmetric instances, so enabling it runs a refusal
//!    probe first: a reference schedule and its adjacent-transposition
//!    images are executed and their per-process outcome fingerprints
//!    compared under the permutation; any mismatch rejects the search
//!    with [`ParExploreError::SymmetryRejected`]. The probe is a
//!    necessary-condition guard (it reliably refuses id-dependent
//!    protocols such as one writing `me + 1`); full symmetry of the
//!    protocol *and* the checked property remains the caller's assertion.
//!
//! Determinism: per-job memos, no cross-job early abort, and a fixed
//! job-order fold of [`ExploreStats`] make the returned stats and the
//! chosen counterexample byte-identical for a given configuration,
//! regardless of thread timing or worker count (only the `workers` field
//! reflects the configuration itself). Counterexamples carry the same
//! replayable [`ScheduleTrace`] certificates as the sequential walkers.

use crate::digest::{DigestMemo, DigestWriter, StateDigest, StateKey};
use crate::explore::{Counterexample, ExploreStats};
use crate::semi_sync::{
    SemiSyncEvent, SemiSyncExecution, SemiSyncProcess, SemiSyncReport, SemiSyncSim,
};
use crate::shared_mem::{MemEvent, MemExecution, MemProcess, MemRunReport, SharedMemSim};
use crate::trace::{SchedEvent, ScheduleTrace};
use rrfd_core::{IdSet, ProcessId};
use rrfd_obs::Obs;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default worker count
/// ([`ParConfig::from_env`]); defined by the DPOR explorer, whose
/// [`crate::dpor::DporConfig::from_env`] reads it too.
pub use crate::dpor::WORKERS_ENV;

/// Configuration of a parallel exploration.
#[derive(Debug, Clone)]
pub struct ParConfig {
    workers: usize,
    split_depth: usize,
    hash_pruning: bool,
    symmetry: bool,
    max_schedules: usize,
    memo_max_entries: usize,
    memo_max_bytes: usize,
    obs: Obs,
}

impl ParConfig {
    /// A configuration with `workers` threads (clamped to at least one),
    /// split depth 2, hash pruning on, symmetry reduction off, and a
    /// 1 000 000-schedule guard.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        ParConfig {
            workers: workers.max(1),
            split_depth: 2,
            hash_pruning: true,
            symmetry: false,
            max_schedules: 1_000_000,
            memo_max_entries: usize::MAX,
            memo_max_bytes: usize::MAX,
            obs: Obs::noop(),
        }
    }

    /// Worker count from the `RRFD_EXPLORE_WORKERS` environment variable,
    /// falling back to the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
        ParConfig::new(workers)
    }

    /// Overrides the prefix depth at which the schedule tree is split
    /// into jobs. `0` disables splitting (one job, still memoized).
    #[must_use]
    pub fn split_depth(mut self, depth: usize) -> Self {
        self.split_depth = depth;
        self
    }

    /// Enables or disables converged-state memoization.
    #[must_use]
    pub fn hash_pruning(mut self, on: bool) -> Self {
        self.hash_pruning = on;
        self
    }

    /// Enables or disables process-id symmetry reduction. Enabling it
    /// requires a per-process fingerprint function and subjects the
    /// instance to the refusal probe.
    #[must_use]
    pub fn symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Overrides the schedule-count guard (the analogue of the sequential
    /// explorers' `max_runs`).
    #[must_use]
    pub fn max_schedules(mut self, max: usize) -> Self {
        self.max_schedules = max;
        self
    }

    /// Caps each per-job [`DigestMemo`] at `entries` retained states and
    /// `bytes` of retained encodings (both default to unbounded). A full
    /// memo degrades soundly: it stops inserting, so later states are
    /// re-explored instead of pruned — fewer prunes, never a wrong prune.
    /// Saturation is reported through [`ExploreStats::memo_saturated`].
    #[must_use]
    pub fn memo_cap(mut self, entries: usize, bytes: usize) -> Self {
        self.memo_max_entries = entries;
        self.memo_max_bytes = bytes;
        self
    }

    /// Attaches an instrumentation handle. The final, folded
    /// [`ExploreStats`] of every search run with this configuration are
    /// recorded under the `rrfd_explore_*` metric names — including
    /// searches aborted by a counterexample, whose partial effort is
    /// folded into the certificate and recorded the same way. The
    /// default no-op handle records nothing.
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

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig::from_env()
    }
}

/// Why a parallel exploration did not return clean stats.
#[derive(Debug, Clone)]
pub enum ParExploreError<E> {
    /// A schedule failed the check; carries the replayable certificate
    /// and the search effort up to the abort.
    Counterexample(Box<Counterexample<E>>),
    /// Symmetry reduction was requested but the instance failed the
    /// refusal probe (or supplied no usable fingerprint).
    SymmetryRejected(String),
    /// The instance could not even be started (wrong process count).
    Misconfigured(String),
}

impl<E: SchedEvent> fmt::Display for ParExploreError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParExploreError::Counterexample(cex) => write!(f, "{cex}"),
            ParExploreError::SymmetryRejected(why) => {
                write!(f, "symmetry reduction refused: {why}")
            }
            ParExploreError::Misconfigured(why) => write!(f, "misconfigured exploration: {why}"),
        }
    }
}

impl<E: SchedEvent> std::error::Error for ParExploreError<E> {}

/// Placeholder fingerprint for searches that leave symmetry reduction
/// off. It yields no per-process parts, so accidentally enabling
/// symmetry with it is refused rather than silently unsound.
#[must_use]
pub fn no_fingerprint<R>(_report: &R) -> Vec<Vec<u8>> {
    Vec::new()
}

/// The standard symmetry fingerprint for shared-memory runs: each
/// process's output, canonically encoded.
#[must_use]
pub fn mem_output_fingerprint<P, V>(report: &MemRunReport<P, V>) -> Vec<Vec<u8>>
where
    P: MemProcess<V>,
    P::Output: StateDigest,
{
    report.outputs.iter().map(encode_part).collect()
}

/// The standard symmetry fingerprint for semi-synchronous runs: each
/// process's output (without its step count, which schedule permutations
/// legitimately change), canonically encoded.
#[must_use]
pub fn semi_output_fingerprint<P>(report: &SemiSyncReport<P>) -> Vec<Vec<u8>>
where
    P: SemiSyncProcess,
    P::Output: StateDigest,
{
    report
        .outputs
        .iter()
        .map(|o| encode_part(&o.as_ref().map(|(v, _steps)| v)))
        .collect()
}

fn encode_part<T: StateDigest>(value: &T) -> Vec<u8> {
    let mut w = DigestWriter::new();
    value.digest(&mut w);
    w.finish().bytes().to_vec()
}

/// Explores every schedule of `sim` (crash-free, mirroring
/// [`crate::explore::explore_schedules_checked`]) with the parallel,
/// pruned walker. `fingerprint` is only consulted when
/// [`ParConfig::symmetry`] is enabled; pass [`no_fingerprint`] otherwise.
///
/// # Errors
///
/// [`ParExploreError::Counterexample`] for the first failing schedule in
/// deterministic search order, [`ParExploreError::SymmetryRejected`] when
/// the symmetry probe refuses the instance, and
/// [`ParExploreError::Misconfigured`] when the protocol vector does not
/// match the system size.
///
/// # Panics
///
/// Panics past [`ParConfig::max_schedules`] complete schedules, or when a
/// protocol errors mid-run (explorations require clean, terminating,
/// crash-free protocols).
#[deprecated(
    since = "0.3.0",
    note = "prefix-depth splitting enumerates commuting interleavings; \
            use crate::dpor::explore_shared_mem_dpor, which explores one \
            representative per Mazurkiewicz trace class"
)]
pub fn explore_shared_mem_par<V, P, G, F, FP>(
    sim: &SharedMemSim,
    make: G,
    check: F,
    fingerprint: FP,
    config: &ParConfig,
) -> Result<ExploreStats, ParExploreError<MemEvent>>
where
    V: Clone + StateDigest + Send + Sync,
    P: MemProcess<V> + Clone + StateDigest + Send + Sync,
    P::Output: Clone + StateDigest + Send + Sync,
    G: Fn() -> Vec<P>,
    F: Fn(&MemRunReport<P, V>) -> Result<(), String> + Sync,
    FP: Fn(&MemRunReport<P, V>) -> Vec<Vec<u8>>,
{
    let exec = MemExecution::start(sim, make())
        .map_err(|err| ParExploreError::Misconfigured(err.to_string()))?;
    let root = MemTarget {
        n: sim.system_size().get(),
        exec,
    };
    drive(root, &check, &fingerprint, config)
}

/// Explores every semi-synchronous schedule with up to `max_crashes`
/// adversarially timed crashes, mirroring
/// [`crate::explore::semi_sync::explore_semi_sync_checked`], with the
/// parallel, pruned walker.
///
/// # Errors
///
/// As [`explore_shared_mem_par`].
///
/// # Panics
///
/// As [`explore_shared_mem_par`].
#[deprecated(
    since = "0.3.0",
    note = "prefix-depth splitting enumerates commuting interleavings; \
            use crate::dpor::explore_semi_sync_dpor, which explores one \
            representative per Mazurkiewicz trace class"
)]
pub fn explore_semi_sync_par<P, G, F, FP>(
    sim: &SemiSyncSim,
    max_crashes: usize,
    make: G,
    check: F,
    fingerprint: FP,
    config: &ParConfig,
) -> Result<ExploreStats, ParExploreError<SemiSyncEvent>>
where
    P: SemiSyncProcess + Clone + StateDigest + Send + Sync,
    P::Msg: StateDigest + Send + Sync,
    P::Output: StateDigest + Send + Sync,
    G: Fn() -> Vec<P>,
    F: Fn(&SemiSyncReport<P>) -> Result<(), String> + Sync,
    FP: Fn(&SemiSyncReport<P>) -> Vec<Vec<u8>>,
{
    let exec = SemiSyncExecution::start(sim, make())
        .map_err(|err| ParExploreError::Misconfigured(err.to_string()))?;
    let root = SemiTarget {
        n: exec.live().len(),
        crash_budget: max_crashes,
        exec,
    };
    drive(root, &check, &fingerprint, config)
}

/// What the generic driver needs from an execution state: its branching
/// structure, cloning, canonical digests, and event/pid bookkeeping for
/// symmetry reduction.
trait Explorable: Sized {
    type Event: SchedEvent + Send + Sync;
    type Report;

    fn n(&self) -> usize;
    /// Scheduler options at this state; empty exactly at complete runs.
    fn options(&self) -> Vec<Self::Event>;
    /// Applies an option returned by [`Explorable::options`].
    fn apply(&mut self, event: Self::Event);
    /// Packages the (final) state as a run report.
    fn report(&self) -> Self::Report;
    /// Canonical state key, or `None` when the state is not soundly
    /// digestible (opaque oracle state). `appeared` is folded in when
    /// symmetry reduction is on — the set of already-seen processes
    /// changes which branches remain canonical, so it is part of the
    /// search state.
    fn digest(&self, appeared: Option<IdSet>) -> Option<StateKey>;
    fn event_pid(event: &Self::Event) -> ProcessId;
    fn permute_event(event: &Self::Event, perm: &[usize]) -> Self::Event;
}

struct MemTarget<P: MemProcess<V>, V> {
    n: usize,
    exec: MemExecution<P, V>,
}

impl<P, V> Clone for MemTarget<P, V>
where
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    V: Clone,
{
    fn clone(&self) -> Self {
        MemTarget {
            n: self.n,
            exec: self.exec.clone(),
        }
    }
}

impl<P, V> Explorable for MemTarget<P, V>
where
    P: MemProcess<V> + Clone + StateDigest,
    P::Output: Clone + StateDigest,
    V: Clone + StateDigest,
{
    type Event = MemEvent;
    type Report = MemRunReport<P, V>;

    fn n(&self) -> usize {
        self.n
    }

    fn options(&self) -> Vec<MemEvent> {
        self.exec.runnable().iter().map(MemEvent::Step).collect()
    }

    fn apply(&mut self, event: MemEvent) {
        let applied = self.exec.apply(event);
        assert!(
            applied.is_ok(),
            "exploration requires clean, terminating protocols: {applied:?}"
        );
    }

    fn report(&self) -> MemRunReport<P, V> {
        self.exec.clone().into_report()
    }

    fn digest(&self, appeared: Option<IdSet>) -> Option<StateKey> {
        if !self.exec.supports_digest() {
            return None;
        }
        let mut w = DigestWriter::new();
        self.exec.digest_into(&mut w);
        if let Some(seen) = appeared {
            seen.digest(&mut w);
        }
        Some(w.finish())
    }

    fn event_pid(event: &MemEvent) -> ProcessId {
        match *event {
            MemEvent::Step(p) | MemEvent::Crash(p) => p,
        }
    }

    fn permute_event(event: &MemEvent, perm: &[usize]) -> MemEvent {
        let map = |p: ProcessId| ProcessId::new(perm[p.index()]);
        match *event {
            MemEvent::Step(p) => MemEvent::Step(map(p)),
            MemEvent::Crash(p) => MemEvent::Crash(map(p)),
        }
    }
}

struct SemiTarget<P: SemiSyncProcess> {
    n: usize,
    crash_budget: usize,
    exec: SemiSyncExecution<P>,
}

impl<P: SemiSyncProcess + Clone> Clone for SemiTarget<P> {
    fn clone(&self) -> Self {
        SemiTarget {
            n: self.n,
            crash_budget: self.crash_budget,
            exec: self.exec.clone(),
        }
    }
}

impl<P> Explorable for SemiTarget<P>
where
    P: SemiSyncProcess + Clone + StateDigest,
    P::Msg: StateDigest,
    P::Output: StateDigest,
{
    type Event = SemiSyncEvent;
    type Report = SemiSyncReport<P>;

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

    fn apply(&mut self, event: SemiSyncEvent) {
        if let SemiSyncEvent::Crash(_) = event {
            self.crash_budget -= 1;
        }
        let applied = self.exec.apply(event);
        assert!(
            applied.is_ok(),
            "exploration requires clean, terminating protocols: {applied:?}"
        );
    }

    fn report(&self) -> SemiSyncReport<P> {
        self.exec.clone().into_report()
    }

    fn digest(&self, appeared: Option<IdSet>) -> Option<StateKey> {
        let mut w = DigestWriter::new();
        self.exec.digest_into(&mut w);
        // The remaining crash budget shapes the option set, so it is part
        // of the search state even though the simulator does not track it.
        w.write_u64(self.crash_budget as u64);
        if let Some(seen) = appeared {
            seen.digest(&mut w);
        }
        Some(w.finish())
    }

    fn event_pid(event: &SemiSyncEvent) -> ProcessId {
        match *event {
            SemiSyncEvent::Step(p) | SemiSyncEvent::Crash(p) => p,
        }
    }

    fn permute_event(event: &SemiSyncEvent, perm: &[usize]) -> SemiSyncEvent {
        let map = |p: ProcessId| ProcessId::new(perm[p.index()]);
        match *event {
            SemiSyncEvent::Step(p) => SemiSyncEvent::Step(map(p)),
            SemiSyncEvent::Crash(p) => SemiSyncEvent::Crash(map(p)),
        }
    }
}

/// One frontier node of the prefix expansion: an independent subtree job.
struct Job<T: Explorable> {
    state: T,
    path: Vec<T::Event>,
    choices: Vec<usize>,
    appeared: IdSet,
}

/// Per-job (or per-expansion) search result.
struct JobOutcome<E> {
    stats: ExploreStats,
    cex: Option<Counterexample<E>>,
}

impl<E> JobOutcome<E> {
    fn new() -> Self {
        JobOutcome {
            stats: ExploreStats::default(),
            cex: None,
        }
    }
}

/// The generic driver: probe (if symmetric), expand to the split depth,
/// run the subtree jobs on workers, fold in job order.
fn drive<T, F, FP>(
    root: T,
    check: &F,
    fingerprint: &FP,
    config: &ParConfig,
) -> Result<ExploreStats, ParExploreError<T::Event>>
where
    T: Explorable + Clone + Send + Sync,
    F: Fn(&T::Report) -> Result<(), String> + Sync,
    FP: Fn(&T::Report) -> Vec<Vec<u8>>,
{
    if config.symmetry {
        probe_symmetry(&root, fingerprint).map_err(ParExploreError::SymmetryRejected)?;
    }

    let schedules_seen = AtomicUsize::new(0);
    let mut expansion = JobOutcome::new();
    let mut jobs: Vec<Job<T>> = Vec::new();
    let mut path = Vec::new();
    let mut choices = Vec::new();
    let stopped = dfs(
        &root,
        &mut path,
        &mut choices,
        IdSet::empty(),
        &mut DigestMemo::new(),
        false, // no hash pruning across the expansion (memos are per job)
        Some((config.split_depth, &mut jobs)),
        &mut expansion,
        check,
        &schedules_seen,
        config,
    );
    if stopped {
        // A schedule shorter than the split depth already failed; the
        // search never split or spawned.
        let mut stats = expansion.stats;
        stats.workers = 1;
        if let Some(mut cex) = expansion.cex {
            stats.record(&config.obs);
            cex.stats = stats;
            return Err(ParExploreError::Counterexample(Box::new(cex)));
        }
    }

    let worker_count = config.workers.min(jobs.len()).max(1);
    let mut slots: Vec<Option<JobOutcome<T::Event>>> = Vec::new();
    slots.resize_with(jobs.len(), || None);

    if worker_count <= 1 {
        for (i, job) in jobs.iter().enumerate() {
            slots[i] = Some(run_job(job, check, &schedules_seen, config));
        }
    } else {
        let next = AtomicUsize::new(0);
        let jobs_ref = &jobs;
        let counter_ref = &schedules_seen;
        let collected: Vec<Vec<(usize, JobOutcome<T::Event>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..worker_count)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs_ref.len() {
                                break;
                            }
                            local.push((i, run_job(&jobs_ref[i], check, counter_ref, config)));
                        }
                        local
                    })
                })
                .collect();
            // Drain every handle before re-raising: joining all workers
            // first guarantees no straggler thread outlives the scope's
            // unwind when one worker panics (e.g. a panicking check
            // closure), so partially-claimed jobs can never race cleanup.
            let mut locals = Vec::with_capacity(worker_count);
            let mut first_panic = None;
            for h in handles {
                match h.join() {
                    Ok(local) => locals.push(local),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            locals
        });
        for (i, outcome) in collected.into_iter().flatten() {
            slots[i] = Some(outcome);
        }
    }

    // Deterministic fold: fixed job order, regardless of which worker ran
    // what; the first counterexample in job order is the one reported.
    let mut stats = expansion.stats;
    let mut first_cex: Option<Counterexample<T::Event>> = None;
    for outcome in slots.into_iter().flatten() {
        stats = stats.merged(outcome.stats);
        if first_cex.is_none() {
            first_cex = outcome.cex;
        }
    }
    stats.workers = worker_count;
    stats.wall_splits = jobs.len();
    stats.record(&config.obs);
    match first_cex {
        Some(mut cex) => {
            cex.stats = stats;
            Err(ParExploreError::Counterexample(Box::new(cex)))
        }
        None => Ok(stats),
    }
}

fn run_job<T, F>(
    job: &Job<T>,
    check: &F,
    schedules_seen: &AtomicUsize,
    config: &ParConfig,
) -> JobOutcome<T::Event>
where
    T: Explorable + Clone,
    F: Fn(&T::Report) -> Result<(), String>,
{
    let mut out = JobOutcome::new();
    let mut memo = DigestMemo::bounded(config.memo_max_entries, config.memo_max_bytes);
    let mut path = job.path.clone();
    let mut choices = job.choices.clone();
    dfs(
        &job.state,
        &mut path,
        &mut choices,
        job.appeared,
        &mut memo,
        config.hash_pruning,
        None,
        &mut out,
        check,
        schedules_seen,
        config,
    );
    out.stats.memo_entries += memo.len();
    out.stats.memo_bytes += memo.bytes();
    out.stats.memo_saturated |= memo.saturated();
    out.stats.memo_degraded += memo.degraded();
    out
}

/// The depth-first walk. With `split` set this is the expansion pass:
/// nodes at the split depth become jobs instead of being descended into.
/// Returns `true` when a counterexample stopped this (sub)search.
#[allow(clippy::too_many_arguments)]
fn dfs<T, F>(
    state: &T,
    path: &mut Vec<T::Event>,
    choices: &mut Vec<usize>,
    appeared: IdSet,
    memo: &mut DigestMemo,
    prune: bool,
    mut split: Option<(usize, &mut Vec<Job<T>>)>,
    out: &mut JobOutcome<T::Event>,
    check: &F,
    schedules_seen: &AtomicUsize,
    config: &ParConfig,
) -> bool
where
    T: Explorable + Clone,
    F: Fn(&T::Report) -> Result<(), String>,
{
    let opts = state.options();
    if opts.is_empty() {
        let total = schedules_seen.fetch_add(1, Ordering::Relaxed) + 1;
        assert!(
            total <= config.max_schedules,
            "schedule exploration exceeded {} runs",
            config.max_schedules
        );
        out.stats.schedules += 1;
        out.stats.max_depth = out.stats.max_depth.max(path.len());
        if let Err(message) = check(&state.report()) {
            out.cex = Some(Counterexample {
                choices: choices.clone(),
                schedule: ScheduleTrace::from_events(path.clone()),
                message,
                stats: ExploreStats::default(), // overwritten with the fold
            });
            return true;
        }
        return false;
    }

    if let Some((depth, ref mut jobs)) = split {
        if path.len() >= depth {
            jobs.push(Job {
                state: state.clone(),
                path: path.clone(),
                choices: choices.clone(),
                appeared,
            });
            return false;
        }
    }

    out.stats.decision_points += 1;
    for (i, &event) in opts.iter().enumerate() {
        let pid = T::event_pid(&event);
        let mut appeared_next = appeared;
        if !appeared.contains(pid) {
            if config.symmetry {
                // Canonical representatives make first appearances in
                // increasing id order; everything else is a permutation
                // image of a canonical schedule.
                let next_fresh = (0..state.n())
                    .map(ProcessId::new)
                    .find(|q| !appeared.contains(*q));
                if next_fresh != Some(pid) {
                    out.stats.pruned_by_symmetry += 1;
                    continue;
                }
            }
            appeared_next.insert(pid);
        }
        let mut child = state.clone();
        child.apply(event);
        if prune {
            if let Some(key) = child.digest(config.symmetry.then_some(appeared_next)) {
                // Only a confirmed duplicate justifies pruning. A
                // cap-degraded insert is a *fresh* state the memo could not
                // retain: it must be explored, and it counts toward
                // `memo_degraded` (via the memo's own counter in
                // `run_job`), never toward `pruned_by_hash`.
                if memo.insert(key).is_duplicate() {
                    out.stats.pruned_by_hash += 1;
                    continue;
                }
            }
        }
        path.push(event);
        choices.push(i);
        let stop = dfs(
            &child,
            path,
            choices,
            appeared_next,
            memo,
            prune,
            match split {
                Some((depth, ref mut jobs)) => Some((depth, jobs)),
                None => None,
            },
            out,
            check,
            schedules_seen,
            config,
        );
        path.pop();
        choices.pop();
        if stop {
            return true;
        }
    }
    false
}

/// The symmetry refusal probe: run the all-first-options reference
/// schedule, then each adjacent-transposition image of it, and require
/// the per-process fingerprints to commute with the permutation.
fn probe_symmetry<T, FP>(root: &T, fingerprint: &FP) -> Result<(), String>
where
    T: Explorable + Clone,
    FP: Fn(&T::Report) -> Vec<Vec<u8>>,
{
    let n = root.n();
    let mut state = root.clone();
    let mut events = Vec::new();
    loop {
        let opts = state.options();
        let Some(&event) = opts.first() else { break };
        state.apply(event);
        events.push(event);
        assert!(
            events.len() <= 1_000_000,
            "symmetry probe exceeded 1000000 events; protocol does not terminate"
        );
    }
    let base = fingerprint(&state.report());
    if base.len() != n {
        return Err(format!(
            "symmetry reduction needs one fingerprint part per process (got {}, n = {n})",
            base.len()
        ));
    }
    for k in 0..n.saturating_sub(1) {
        let perm: Vec<usize> = (0..n)
            .map(|i| {
                if i == k {
                    k + 1
                } else if i == k + 1 {
                    k
                } else {
                    i
                }
            })
            .collect();
        let mut image = root.clone();
        for event in &events {
            let permuted = T::permute_event(event, &perm);
            if !image.options().contains(&permuted) {
                return Err(format!(
                    "instance is not id-symmetric: the schedule permuted by swapping \
                     p{k} and p{} is not runnable",
                    k + 1
                ));
            }
            image.apply(permuted);
        }
        if !image.options().is_empty() {
            return Err(format!(
                "instance is not id-symmetric: the schedule permuted by swapping \
                 p{k} and p{} does not complete",
                k + 1
            ));
        }
        let parts = fingerprint(&image.report());
        if parts.len() != n {
            return Err(format!(
                "symmetry reduction needs one fingerprint part per process (got {}, n = {n})",
                parts.len()
            ));
        }
        for i in 0..n {
            if parts[perm[i]] != base[i] {
                return Err(format!(
                    "instance is not id-symmetric: swapping p{k} and p{} changes \
                     p{i}'s outcome fingerprint",
                    k + 1
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(deprecated)] // exercises the deprecated entry points on purpose
mod tests {
    use super::*;
    use crate::explore::explore_schedules_checked;
    use crate::shared_mem::{Action, Observation};
    use crate::trace::ScheduleReplay;
    use rrfd_core::SystemSize;

    /// Id-symmetric: writes a constant, reads the next process's cell,
    /// decides what it saw.
    #[derive(Debug, Clone)]
    struct RingRead {
        me: ProcessId,
        n: usize,
    }

    impl MemProcess<u64> for RingRead {
        type Output = Option<u64>;
        fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
            match obs {
                Observation::Start => Action::Write { bank: 0, value: 7 },
                Observation::Written => Action::Read {
                    bank: 0,
                    owner: ProcessId::new((self.me.index() + 1) % self.n),
                },
                Observation::Value(v) => Action::Decide(v),
                other => unreachable!("{other:?}"),
            }
        }
    }

    impl StateDigest for RingRead {
        fn digest(&self, w: &mut DigestWriter) {
            self.me.digest(w);
            self.n.digest(w);
        }
    }

    fn ring(n: usize) -> Vec<RingRead> {
        (0..n)
            .map(|i| RingRead {
                me: ProcessId::new(i),
                n,
            })
            .collect()
    }

    /// Id-dependent: writes `me + 1`, so outcomes do not commute with id
    /// permutations.
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

    impl StateDigest for WriteRead {
        fn digest(&self, w: &mut DigestWriter) {
            self.me.digest(w);
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

    fn size(n: usize) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    #[test]
    fn matches_sequential_schedule_count_without_pruning() {
        let sim = SharedMemSim::new(size(2), 1);
        let seq = explore_schedules_checked(&sim, make_pair, |_| Ok(()), 10_000).unwrap();
        for workers in [1, 2, 8] {
            let config = ParConfig::new(workers).hash_pruning(false);
            let par = explore_shared_mem_par(&sim, make_pair, |_| Ok(()), no_fingerprint, &config)
                .unwrap();
            // C(6,3) = 20 complete interleavings either way.
            assert_eq!(par.schedules, seq.schedules, "workers {workers}");
            assert_eq!(par.schedules, 20);
            assert_eq!(par.max_depth, seq.max_depth);
            assert_eq!(par.pruned_by_hash, 0);
            assert_eq!(par.pruned_by_symmetry, 0);
            assert!(par.wall_splits > 0);
        }
    }

    #[test]
    fn hash_pruning_is_lossless_for_counterexample_existence() {
        let sim = SharedMemSim::new(size(2), 1);
        let check = |report: &MemRunReport<WriteRead, u64>| {
            if report.outputs.iter().any(|o| o == &Some(None)) {
                Err("someone missed the other's write".to_owned())
            } else {
                Ok(())
            }
        };
        let config = ParConfig::new(4);
        let err =
            explore_shared_mem_par(&sim, make_pair, check, no_fingerprint, &config).unwrap_err();
        let ParExploreError::Counterexample(cex) = err else {
            panic!("expected a counterexample");
        };
        // The certificate replays to the same violation.
        let reparsed: ScheduleTrace<MemEvent> = cex.schedule.to_string().parse().unwrap();
        let mut replay = ScheduleReplay::from_trace(&reparsed);
        let report = sim.run(make_pair(), &mut replay).unwrap();
        assert!(report.outputs.iter().any(|o| o == &Some(None)));
        assert!(cex.stats.max_depth > 0, "partial depth must be folded in");
    }

    #[test]
    fn hash_pruning_skips_converged_states() {
        // Three writers to distinct cells commute heavily: pruning must
        // fire and still enumerate fewer nodes than the full tree.
        let sim = SharedMemSim::new(size(3), 1);
        let pruned = explore_shared_mem_par(
            &sim,
            || ring(3),
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(2),
        )
        .unwrap();
        let full = explore_shared_mem_par(
            &sim,
            || ring(3),
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(2).hash_pruning(false),
        )
        .unwrap();
        assert!(pruned.pruned_by_hash > 0);
        assert!(
            pruned.decision_points < full.decision_points,
            "pruned {} vs full {}",
            pruned.decision_points,
            full.decision_points
        );
        assert_eq!(full.schedules, 1680); // 9!/(3!3!3!)
    }

    #[test]
    fn symmetry_refuses_an_id_dependent_protocol() {
        let sim = SharedMemSim::new(size(2), 1);
        let config = ParConfig::new(2).symmetry(true);
        let err =
            explore_shared_mem_par(&sim, make_pair, |_| Ok(()), mem_output_fingerprint, &config)
                .unwrap_err();
        match err {
            ParExploreError::SymmetryRejected(why) => {
                assert!(why.contains("not id-symmetric"), "{why}");
            }
            other => panic!("expected a symmetry refusal, got {other:?}"),
        }
    }

    #[test]
    fn symmetry_requires_a_fingerprint() {
        let sim = SharedMemSim::new(size(2), 1);
        let config = ParConfig::new(2).symmetry(true);
        let err = explore_shared_mem_par(&sim, || ring(2), |_| Ok(()), no_fingerprint, &config)
            .unwrap_err();
        assert!(matches!(err, ParExploreError::SymmetryRejected(_)));
    }

    #[test]
    fn symmetry_quotients_a_symmetric_protocol() {
        let sim = SharedMemSim::new(size(2), 1);
        let quotient = explore_shared_mem_par(
            &sim,
            || ring(2),
            |_| Ok(()),
            mem_output_fingerprint,
            &ParConfig::new(2).symmetry(true).hash_pruning(false),
        )
        .unwrap();
        let full = explore_shared_mem_par(
            &sim,
            || ring(2),
            |_| Ok(()),
            mem_output_fingerprint,
            &ParConfig::new(2).hash_pruning(false),
        )
        .unwrap();
        assert!(quotient.pruned_by_symmetry > 0);
        assert_eq!(full.schedules, 20);
        // Canonical schedules start with p0; the quotient halves the tree.
        assert_eq!(quotient.schedules, 10);
    }

    #[test]
    fn wrong_process_count_is_a_typed_error() {
        let sim = SharedMemSim::new(size(3), 1);
        let err = explore_shared_mem_par(
            &sim,
            || ring(2), // two processes for a system of three
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(1),
        )
        .unwrap_err();
        assert!(matches!(err, ParExploreError::Misconfigured(_)));
    }

    #[test]
    #[should_panic(expected = "exceeded 5 runs")]
    fn schedule_guard_fires() {
        let sim = SharedMemSim::new(size(2), 1);
        let config = ParConfig::new(1).hash_pruning(false).max_schedules(5);
        let _ = explore_shared_mem_par(&sim, make_pair, |_| Ok(()), no_fingerprint, &config);
    }

    #[test]
    fn semi_sync_parallel_agrees_with_sequential() {
        use crate::explore::semi_sync::explore_semi_sync_checked;
        use rrfd_core::Control;

        /// Broadcasts once; decides after two steps on who it heard.
        #[derive(Debug, Clone)]
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
        impl StateDigest for Listen {
            fn digest(&self, w: &mut DigestWriter) {
                self.steps.digest(w);
                self.heard.digest(w);
                self.sent.digest(w);
            }
        }

        let sim = SemiSyncSim::new(size(2));
        let make = || {
            (0..2)
                .map(|_| Listen {
                    steps: 0,
                    heard: IdSet::empty(),
                    sent: false,
                })
                .collect::<Vec<_>>()
        };
        let check = |report: &SemiSyncReport<Listen>| {
            if report.outputs.iter().flatten().any(|(heard, _)| *heard < 2) {
                Err("someone heard fewer than two processes".to_owned())
            } else {
                Ok(())
            }
        };

        // One allowed crash: both walkers must find a violation, and the
        // parallel certificate must replay to it.
        let seq = explore_semi_sync_checked(&sim, 1, make, check, 100_000).unwrap_err();
        let par = explore_semi_sync_par(&sim, 1, make, check, no_fingerprint, &ParConfig::new(4))
            .unwrap_err();
        let ParExploreError::Counterexample(cex) = par else {
            panic!("expected a counterexample");
        };
        let mut replay = ScheduleReplay::from_trace(&cex.schedule);
        let report = sim.run(make(), &mut replay).unwrap();
        assert!(report.outputs.iter().flatten().any(|(heard, _)| *heard < 2));
        assert!(!seq.message.is_empty());

        // Crash-free, the protocol is clean: schedule counts agree with
        // the sequential walker when pruning is off.
        let ok = |_: &SemiSyncReport<Listen>| Ok(());
        let seq_total = explore_semi_sync_checked(&sim, 0, make, ok, 100_000).unwrap();
        let par_total = explore_semi_sync_par(
            &sim,
            0,
            make,
            ok,
            no_fingerprint,
            &ParConfig::new(2).hash_pruning(false),
        )
        .unwrap();
        assert_eq!(par_total.schedules, seq_total.schedules);
    }

    #[test]
    fn memo_cap_degrades_to_fewer_prunes_never_wrong() {
        let sim = SharedMemSim::new(size(3), 1);
        let unbounded = explore_shared_mem_par(
            &sim,
            || ring(3),
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(2),
        )
        .unwrap();
        assert!(unbounded.pruned_by_hash > 0);
        assert!(unbounded.memo_entries > 0);
        assert!(unbounded.memo_bytes > 0);
        assert!(!unbounded.memo_saturated);

        // Entry cap 0: nothing is ever memoized, so nothing is ever
        // pruned — the walk degenerates to the full 9!/(3!3!3!) = 1680
        // schedule tree, proving the degrade is "fewer prunes", not
        // "wrong prunes".
        let starved = explore_shared_mem_par(
            &sim,
            || ring(3),
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(2).memo_cap(0, usize::MAX),
        )
        .unwrap();
        assert!(starved.memo_saturated);
        assert_eq!(starved.pruned_by_hash, 0);
        assert_eq!(starved.memo_entries, 0);
        assert_eq!(starved.memo_bytes, 0);
        assert_eq!(starved.schedules, 1680);

        // A small per-job entry cap saturates mid-search: no more prunes
        // than unbounded, and every schedule the unbounded walk reached
        // is still reached (pruning only ever removes revisits).
        let capped = explore_shared_mem_par(
            &sim,
            || ring(3),
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(2).memo_cap(3, usize::MAX),
        )
        .unwrap();
        assert!(capped.memo_saturated);
        assert!(capped.pruned_by_hash <= unbounded.pruned_by_hash);
        assert!(capped.memo_entries <= unbounded.memo_entries);
        assert!(capped.schedules >= unbounded.schedules);
        assert!(capped.schedules <= 1680);
    }

    #[test]
    fn memo_degraded_is_counted_separately_from_prunes() {
        // Regression for the cap-degrade accounting: a fresh state the
        // memo refuses to retain must land in `memo_degraded`, never in
        // `pruned_by_hash`. With an entry cap of 0 every digest insert
        // degrades, so the two counters separate completely: zero prunes,
        // and exactly one degrade per decision-tree edge that produced a
        // digestible child (the full 1680-schedule ring(3) tree).
        let sim = SharedMemSim::new(size(3), 1);
        let unbounded = explore_shared_mem_par(
            &sim,
            || ring(3),
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(2),
        )
        .unwrap();
        assert!(unbounded.pruned_by_hash > 0);
        assert_eq!(
            unbounded.memo_degraded, 0,
            "an unbounded memo never degrades"
        );

        let starved = explore_shared_mem_par(
            &sim,
            || ring(3),
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(2).memo_cap(0, usize::MAX),
        )
        .unwrap();
        assert_eq!(
            starved.pruned_by_hash, 0,
            "degrades must not count as prunes"
        );
        assert!(starved.memo_degraded > 0);
        // Every explored edge's child insert was refused: the degrade
        // count equals the number of apply() edges the full tree walked,
        // which strictly exceeds the unbounded walk's (pruned) edge count.
        assert!(starved.memo_degraded > unbounded.pruned_by_hash);

        // A mid-search saturation splits inserts three ways; the walk is
        // still exhaustive, so prunes + retained entries + degrades must
        // cover at least the unbounded walk's edges.
        let capped = explore_shared_mem_par(
            &sim,
            || ring(3),
            |_| Ok(()),
            no_fingerprint,
            &ParConfig::new(2).memo_cap(3, usize::MAX),
        )
        .unwrap();
        assert!(capped.memo_degraded > 0);
        assert!(capped.pruned_by_hash <= unbounded.pruned_by_hash);
    }

    #[test]
    fn panicking_check_drains_all_workers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Decrement-on-drop guard: runs on panic unwind too, so
        /// `started == finished` exactly when no check invocation is
        /// still in flight on a straggler thread.
        struct Finished<'a>(&'a AtomicUsize);
        impl Drop for Finished<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let started = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let sim = SharedMemSim::new(size(3), 1);
        let config = ParConfig::new(4).hash_pruning(false);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _ = explore_shared_mem_par(
                &sim,
                || ring(3),
                |_: &MemRunReport<RingRead, u64>| -> Result<(), String> {
                    started.fetch_add(1, Ordering::SeqCst);
                    let _guard = Finished(&finished);
                    panic!("boom");
                },
                no_fingerprint,
                &config,
            );
        }))
        .unwrap_err();
        // The first worker's payload is re-raised verbatim after every
        // handle has been joined.
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
        // Multiple workers panicked concurrently; all of them must have
        // been drained before the unwind reached us.
        let s = started.load(Ordering::SeqCst);
        let f = finished.load(Ordering::SeqCst);
        assert!(s >= 1, "no check ever ran");
        assert_eq!(s, f, "a worker outlived the re-raised panic");
    }

    #[test]
    fn stats_are_recorded_through_the_obs_seam() {
        use rrfd_obs::{names, Labels, MetricValue, Obs};

        let sim = SharedMemSim::new(size(3), 1);
        let obs = Obs::logical();
        let config = ParConfig::new(2).obs(obs.clone());
        let stats =
            explore_shared_mem_par(&sim, || ring(3), |_| Ok(()), no_fingerprint, &config).unwrap();

        let snap = obs.snapshot();
        assert_eq!(
            snap.counter_total(names::EXPLORE_SCHEDULES),
            stats.schedules as u64
        );
        assert_eq!(
            snap.counter_total(names::EXPLORE_DECISION_POINTS),
            stats.decision_points
        );
        assert_eq!(
            snap.counter_total(names::EXPLORE_PRUNED_HASH),
            stats.pruned_by_hash
        );
        assert_eq!(
            snap.counter_total(names::EXPLORE_SPLITS),
            stats.wall_splits as u64
        );
        assert_eq!(
            snap.get(names::EXPLORE_MAX_DEPTH, Labels::GLOBAL),
            Some(&MetricValue::Gauge(stats.max_depth as i64))
        );
        assert_eq!(
            snap.get(names::EXPLORE_WORKERS, Labels::GLOBAL),
            Some(&MetricValue::Gauge(stats.workers as i64))
        );
        assert_eq!(
            snap.get(names::EXPLORE_MEMO_ENTRIES, Labels::GLOBAL),
            Some(&MetricValue::Gauge(stats.memo_entries as i64))
        );
        assert_eq!(
            snap.get(names::EXPLORE_MEMO_SATURATED, Labels::GLOBAL),
            Some(&MetricValue::Gauge(0))
        );

        // A counterexample-aborted search still records its partial effort.
        let obs_err = Obs::logical();
        let check = |report: &MemRunReport<WriteRead, u64>| {
            if report.outputs.iter().any(|o| o == &Some(None)) {
                Err("missed write".to_owned())
            } else {
                Ok(())
            }
        };
        let sim2 = SharedMemSim::new(size(2), 1);
        let err = explore_shared_mem_par(
            &sim2,
            make_pair,
            check,
            no_fingerprint,
            &ParConfig::new(2).obs(obs_err.clone()),
        )
        .unwrap_err();
        let ParExploreError::Counterexample(cex) = err else {
            panic!("expected a counterexample");
        };
        let snap_err = obs_err.snapshot();
        assert_eq!(
            snap_err.counter_total(names::EXPLORE_SCHEDULES),
            cex.stats.schedules as u64
        );
    }

    #[test]
    fn runs_are_deterministic_per_configuration() {
        let sim = SharedMemSim::new(size(3), 1);
        let config = ParConfig::new(4);
        let one =
            explore_shared_mem_par(&sim, || ring(3), |_| Ok(()), no_fingerprint, &config).unwrap();
        let two =
            explore_shared_mem_par(&sim, || ring(3), |_| Ok(()), no_fingerprint, &config).unwrap();
        assert_eq!(format!("{one:?}"), format!("{two:?}"));
    }
}
