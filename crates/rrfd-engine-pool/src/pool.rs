//! The sharded batch pool: many independent engine runs, few threads.
//!
//! [`run_batch`] drives `instances` independent protocol runs — drawn
//! from a weighted [`MixSpec`] of protocol/model
//! classes — across `shards` worker threads. The design has three
//! load-bearing pieces (DESIGN.md §13):
//!
//! 1. **Deterministic sharding.** Instance `i` always lands on shard
//!    `i mod shards` and in the mix class owning residue `i mod Σw`.
//!    No queues, no work stealing: every shard count, and the
//!    one-fresh-engine-per-instance oracle the differential suite keeps
//!    under `tests/`, agree on every instance's inputs, adversary seed,
//!    and class without communicating.
//! 2. **Run to completion.** Runs are communication-closed, so nothing
//!    needs interleaving between them: a shard walks its ids class by
//!    class (in mix order, ascending within a class) and steps each
//!    [`rrfd_core::EngineRun`] to completion before starting the next.
//!    A batch reports only when every instance has retired, so no
//!    instance can observe another's latency; a never-deciding instance
//!    is bounded by its own round limit.
//! 3. **Per-lane reuse.** A lane — one class on one shard — keeps its
//!    state across instances: one [`rrfd_core::Engine`], one spare
//!    emission-table buffer and one compiled model
//!    ([`rrfd_core::FinishedRun`]'s `buffer` and `batch`, handed back
//!    through [`rrfd_core::Engine::start_recycled`]) and, with
//!    conformance on, one [`ConformanceMonitor`] that is
//!    [reset](ConformanceMonitor::reset) before each instance instead of
//!    rebuilt. Steady-state instance turnover allocates no round tables,
//!    no programs and no monitor state.
//!
//! Failure containment: an instance that ends in an
//! [`EngineError`] (the mix's `stall` class ends in one by design) is
//! retired and counted exactly like a deciding instance — the shard
//! moves on. Nothing is unwrapped on the hot path.

use crate::mix::{
    ClassKind, EarlyClass, FloodMinClass, KSetClass, MixSpec, SConsensusClass, StallClass,
};
use rrfd_core::task::Value;
use rrfd_core::{
    Engine, EngineError, EngineRun, EngineStep, FaultDetector, ProgramBatch, RoundProtocol,
    RrfdPredicate, RunReport, RunTrace, SystemSize,
};
use rrfd_models::conformance::ConformanceMonitor;
use rrfd_obs::{names, FlightRecorder, Labels, MetricId, Obs, RunObs, DEFAULT_FLIGHT_ROUNDS};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const INSTANCES: MetricId = MetricId::of(names::POOL_INSTANCES);
const ERRORS: MetricId = MetricId::of(names::POOL_ERRORS);
const ROUNDS: MetricId = MetricId::of(names::POOL_ROUNDS);
const ROUND_LATENCY: MetricId = MetricId::of(names::POOL_ROUND_LATENCY);
const BUFFER_REUSES: MetricId = MetricId::of(names::POOL_BUFFER_REUSES);

/// The zoo resilience parameter pool conformance monitors use: every
/// monitored instance is checked against `zoo(n, 1)` — the weakest
/// non-trivial resilience, so the verdict orders runs by how benign
/// their adversary actually was rather than by what the class's model
/// permits.
const CONF_ZOO_F: usize = 1;

/// One tenant family a batch can run: how to build instance `id`'s
/// protocols, adversary, and model predicate. Implementations must be
/// pure in `id` — every shard count calls [`InstanceClass::build`] and
/// must get identical instances.
pub trait InstanceClass {
    /// The protocol every process in an instance runs. Outputs are the
    /// workspace's canonical [`Value`] so results from different classes
    /// are uniformly comparable.
    type P: RoundProtocol<Output = Value>;
    /// The adversary driving an instance.
    type D: FaultDetector;
    /// The model predicate the adversary is validated against. A lane
    /// compares each instance's model with the last one and compiles it
    /// only when they differ.
    type Q: RrfdPredicate + Clone + PartialEq;

    /// The class's display name (stable across runs; used in reports).
    fn name(&self) -> &'static str;
    /// System size of every instance of this class.
    fn system_size(&self) -> SystemSize;
    /// Engine round limit for this class's instances.
    fn max_rounds(&self) -> u32;
    /// Materializes instance `id`: per-process protocols, a (seeded)
    /// detector, and the model.
    fn build(&self, id: u64) -> (Vec<Self::P>, Self::D, Self::Q);
}

/// What one instance produced, uniform across classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Per-process `(decision, round)` pairs; `None` for a process that
    /// never decided (cannot occur on the `Ok` path — the engine only
    /// reports success once everyone decided — but kept total).
    pub outputs: Vec<Option<(Value, u32)>>,
    /// Rounds the instance executed.
    pub rounds_executed: u32,
}

/// One retired instance, as recorded when
/// [`PoolConfig::keep_results`] is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceResult {
    /// Global instance id.
    pub instance: u64,
    /// The owning class's display name.
    pub class: &'static str,
    /// Shard that executed it.
    pub shard: usize,
    /// Decision summary, or the engine error that retired the instance.
    pub outcome: Result<RunSummary, EngineError>,
    /// The run trace when [`PoolConfig::capture_traces`] is on.
    pub trace: Option<RunTrace>,
    /// The zoo verdict when [`PoolConfig::conformance`] is on.
    pub conformance: Option<InstanceConformance>,
}

/// One monitored instance's zoo verdict, summarized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceConformance {
    /// Name and strength rank of the strongest zoo predicate the
    /// instance's observed fault pattern still satisfies; `None` when
    /// nothing held. Rank 0 is the top of the committed lattice.
    pub strongest: Option<(String, usize)>,
    /// `(predicate, first violation round)` per violated predicate.
    pub violations: Vec<(String, u32)>,
}

impl InstanceConformance {
    /// The summary of a finished monitor, with `names[i]` the name of its
    /// predicate `i`, read without building the monitor's verdict.
    fn from_monitor(monitor: &ConformanceMonitor, names: &[String]) -> Self {
        InstanceConformance {
            strongest: monitor
                .strongest_satisfied()
                .map(|idx| (names[idx].clone(), monitor.ranks()[idx])),
            violations: names
                .iter()
                .enumerate()
                .filter_map(|(idx, name)| {
                    let round = monitor.first_violation(idx)?;
                    Some((name.clone(), round.get()))
                })
                .collect(),
        }
    }
}

/// Folded zoo conformance for one mix class, in a [`BatchReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassConformance {
    /// The class's spec entry, rendered (`kset:n=8:k=2:w=2`).
    pub class: String,
    /// Monitored instances.
    pub instances: u64,
    /// Instances whose entire zoo held for the whole run.
    pub clean: u64,
    /// The weakest strongest-satisfied rank across the class's
    /// instances: the class's worst-case environment. `-1` when some
    /// instance satisfied nothing at all.
    pub worst_rank: i64,
    /// Display name of the predicate behind `worst_rank`, when one
    /// survived.
    pub worst_name: Option<String>,
}

/// Per-class totals in a [`BatchReport`], in mix order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassTotals {
    /// The class's spec entry, rendered (`kset:n=8:k=2:w=2`).
    pub class: String,
    /// Instances that decided.
    pub completed: u64,
    /// Instances retired by an [`EngineError`].
    pub errored: u64,
    /// Rounds executed by this class's instances.
    pub rounds: u64,
}

/// What a batch did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Instances requested.
    pub instances: u64,
    /// Instances that decided.
    pub completed: u64,
    /// Instances retired by an [`EngineError`].
    pub errored: u64,
    /// Total engine rounds executed across all instances.
    pub rounds: u64,
    /// Shards the batch ran on.
    pub shards: usize,
    /// Per-class totals, in mix order.
    pub classes: Vec<ClassTotals>,
    /// Per-instance results, ascending by instance id; empty unless
    /// [`PoolConfig::keep_results`] was set.
    pub results: Vec<InstanceResult>,
    /// Per-class zoo conformance, in mix order (classes that ran no
    /// instances are omitted); empty unless [`PoolConfig::conformance`]
    /// was set.
    pub conformance: Vec<ClassConformance>,
    /// Post-mortem flight captures from shards whose instances errored
    /// mid-batch, in shard order (capped per shard); empty unless
    /// [`PoolConfig::flight`] was set.
    pub flight_dumps: Vec<String>,
}

/// Batch execution knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    shards: usize,
    seed: u64,
    keep_results: bool,
    capture_traces: bool,
    conformance: bool,
    flight: bool,
    obs: Obs,
}

impl PoolConfig {
    /// A configuration with `shards` worker threads (clamped to at
    /// least one), seed 0, no result or trace retention, and no
    /// observability.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        PoolConfig {
            shards: shards.max(1),
            seed: 0,
            keep_results: false,
            capture_traces: false,
            conformance: false,
            flight: false,
            obs: Obs::noop(),
        }
    }

    /// Sets the batch seed: instance inputs and adversary seeds derive
    /// from `(seed, instance id)`, so two runs with one seed are
    /// instance-for-instance identical.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Retains a per-instance [`InstanceResult`] (off by default: a
    /// million-instance batch should not grow a million-entry vector
    /// unless asked).
    #[must_use]
    pub fn keep_results(mut self, keep: bool) -> Self {
        self.keep_results = keep;
        self
    }

    /// Captures a [`RunTrace`] per instance (implies the allocation
    /// cost of tracing; intended for the differential suite, not for
    /// throughput runs). Only observable through kept results.
    #[must_use]
    pub fn capture_traces(mut self, capture: bool) -> Self {
        self.capture_traces = capture;
        self
    }

    /// Attaches a live zoo conformance monitor to every instance: the
    /// engine's round hook feeds each round's suspicions to its lane's
    /// [`ConformanceMonitor`] over `zoo(n, 1)`, reset per instance, and
    /// verdicts are folded per class into [`BatchReport::conformance`]
    /// (plus per-instance into kept results, and as
    /// `rrfd_conformance_*` metrics through the attached handle).
    #[must_use]
    pub fn conformance(mut self, conformance: bool) -> Self {
        self.conformance = conformance;
        self
    }

    /// Arms the per-shard crash flight recorder: each shard keeps a
    /// fixed-size ring of recent start/retirement notes and, when an
    /// instance errors mid-batch, captures a post-mortem dump into
    /// [`BatchReport::flight_dumps`] (capped per shard — a stall-heavy
    /// mix errors by design).
    #[must_use]
    pub fn flight(mut self, flight: bool) -> Self {
        self.flight = flight;
        self
    }

    /// Attaches an observability handle; the pool then records the
    /// `rrfd_pool_*` metrics (instances, errors, rounds, per-step
    /// latency histogram, buffer reuses) through it, and every
    /// instance's engine records its rounds, spans, and latencies
    /// through the same handle (spans stamped with the instance id).
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The configured shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configured batch seed.
    #[must_use]
    pub fn batch_seed(&self) -> u64 {
        self.seed
    }
}

/// What a lane reports when its shard finishes.
struct LaneTotals {
    class_index: usize,
    completed: u64,
    errored: u64,
    rounds: u64,
    results: Vec<InstanceResult>,
    conf: Option<LaneConf>,
}

/// A lane's running zoo-conformance fold.
#[derive(Default)]
struct LaneConf {
    instances: u64,
    clean: u64,
    worst_rank: i64,
    worst_name: Option<String>,
}

/// `true` when rank `b` is weaker than rank `a` in the committed
/// lattice ordering: larger rank is weaker, and `-1` ("nothing
/// satisfied") is weakest of all.
fn weaker(a: i64, b: i64) -> bool {
    match (a, b) {
        (-1, _) => false,
        (_, -1) => true,
        _ => b > a,
    }
}

impl LaneConf {
    fn absorb(&mut self, summary: &InstanceConformance) {
        let rank = summary.strongest.as_ref().map_or(-1, |(_, r)| *r as i64);
        if self.instances == 0 || weaker(self.worst_rank, rank) {
            self.worst_rank = rank;
            self.worst_name = summary.strongest.as_ref().map(|(name, _)| name.clone());
        }
        self.instances += 1;
        if summary.violations.is_empty() {
            self.clean += 1;
        }
    }

    fn merge(&mut self, other: LaneConf) {
        if other.instances == 0 {
            return;
        }
        if self.instances == 0 {
            *self = other;
            return;
        }
        if weaker(self.worst_rank, other.worst_rank) {
            self.worst_rank = other.worst_rank;
            self.worst_name = other.worst_name;
        }
        self.instances += other.instances;
        self.clean += other.clean;
    }
}

/// Per-shard crash flight recorder: a ring of recent start and
/// retirement notes (keyed by the shard's step counter) plus the dumps
/// captured when instances error.
struct ShardFlight {
    recorder: FlightRecorder,
    step: u32,
    dumps: Vec<String>,
    dump_cap: usize,
}

impl ShardFlight {
    fn new() -> Self {
        ShardFlight {
            recorder: FlightRecorder::new(DEFAULT_FLIGHT_ROUNDS),
            step: 1,
            dumps: Vec::new(),
            dump_cap: 8,
        }
    }

    fn note(&mut self, line: String) {
        self.recorder.note(self.step, line);
    }

    fn capture(&mut self, reason: &str) {
        if self.dumps.len() < self.dump_cap {
            self.dumps.push(self.recorder.dump(reason));
        }
    }
}

/// What every lane of one shard shares: the shard's index, its buffered
/// handle for the per-shard counters and step latencies, and its flight
/// recorder.
struct Shard {
    index: usize,
    obs: RunObs,
    flight: Option<ShardFlight>,
}

/// One class's instances on one shard, and the state they reuse.
struct ClassLane<C: InstanceClass> {
    class: C,
    engine: Engine,
    /// The last retired run's emission-table buffer, for the next run.
    spare: Vec<Option<<C::P as RoundProtocol>::Msg>>,
    /// The last compiled model, and the last retired run's batch of it,
    /// for the next run of an equal model.
    model: Option<C::Q>,
    batch: Option<ProgramBatch>,
    keep_results: bool,
    capture_traces: bool,
    /// The lane's zoo monitor, when [`PoolConfig::conformance`] is on,
    /// shared with the current run's round hook and reset before each
    /// instance, plus its predicate names, computed once.
    conformance: Option<(Arc<Mutex<ConformanceMonitor>>, Vec<String>)>,
    totals: LaneTotals,
}

/// Locks a monitor, poisoned or not: a panic mid-`observe` can only
/// affect the run it panicked in, and the lane resets the monitor before
/// the next one.
fn lock(monitor: &Mutex<ConformanceMonitor>) -> MutexGuard<'_, ConformanceMonitor> {
    monitor.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<C: InstanceClass> ClassLane<C> {
    fn new(class: C, class_index: usize, config: &PoolConfig) -> Self {
        let engine = Engine::new(class.system_size())
            .max_rounds(class.max_rounds())
            .obs(config.obs.clone());
        let conformance = config.conformance.then(|| {
            let monitor = ConformanceMonitor::zoo(class.system_size(), CONF_ZOO_F);
            let names = monitor
                .verdict()
                .statuses
                .into_iter()
                .map(|status| status.name)
                .collect();
            (Arc::new(Mutex::new(monitor)), names)
        });
        ClassLane {
            class,
            engine,
            spare: Vec::new(),
            model: None,
            batch: None,
            keep_results: config.keep_results,
            capture_traces: config.capture_traces,
            conformance,
            totals: LaneTotals {
                class_index,
                completed: 0,
                errored: 0,
                rounds: 0,
                results: Vec::new(),
                conf: config.conformance.then(LaneConf::default),
            },
        }
    }

    /// Builds instance `id`, steps it to completion, and retires it.
    fn run(&mut self, id: u64, shard: &mut Shard) {
        let (protocols, detector, model) = self.class.build(id);
        let started = if self.capture_traces {
            // Tracing runs forgo reuse: the trace is the expensive part
            // anyway, and the differential suite is the only consumer.
            self.engine.start_traced(protocols, detector, model)
        } else {
            let buffer = std::mem::take(&mut self.spare);
            if buffer.capacity() > 0 {
                shard
                    .obs
                    .add(BUFFER_REUSES, Labels::process(shard.index), 1);
            }
            let batch = match self.batch.take() {
                Some(batch) if self.model.as_ref() == Some(&model) => batch,
                _ => {
                    self.model = Some(model.clone());
                    ProgramBatch::of(&model)
                }
            };
            self.engine
                .start_recycled(protocols, detector, model, buffer, batch)
        };
        let mut run = match started {
            Ok(run) => run,
            Err(error) => {
                // Unreachable (classes build exactly n protocols), but
                // total: record the instance as errored.
                self.totals.errored += 1;
                shard.obs.add(ERRORS, Labels::process(shard.index), 1);
                if self.keep_results {
                    self.totals.results.push(InstanceResult {
                        instance: id,
                        class: self.class.name(),
                        shard: shard.index,
                        outcome: Err(error),
                        trace: None,
                        conformance: None,
                    });
                }
                return;
            }
        };
        run.set_instance(id);
        if let Some((monitor, _)) = &self.conformance {
            lock(monitor).reset();
            run.set_round_hook(ConformanceMonitor::hook(monitor));
        }
        if let Some(f) = shard.flight.as_mut() {
            f.note(format!("start instance {id} ({})", self.class.name()));
        }
        // Steps run back to back, so one clock read ends a step and
        // starts the next.
        let mut last = shard.obs.now_ns();
        loop {
            let step = run.step();
            if shard.obs.is_enabled() {
                let now = shard.obs.now_ns();
                let elapsed = now.saturating_sub(last);
                shard.obs.observe(ROUND_LATENCY, Labels::GLOBAL, elapsed);
                last = now;
            }
            if let Some(f) = shard.flight.as_mut() {
                f.step = f.step.saturating_add(1);
            }
            if step == EngineStep::Finished {
                break;
            }
        }
        self.retire(id, run, shard);
    }

    fn retire(&mut self, id: u64, run: EngineRun<C::P, C::D, C::Q>, shard: &mut Shard) {
        let index = shard.index;
        // Already finished: run_to_completion only dismantles.
        let finished = run.run_to_completion();
        match &finished.result {
            Ok(report) => {
                self.totals.completed += 1;
                self.totals.rounds += u64::from(report.rounds_executed);
                shard.obs.add(INSTANCES, Labels::process(index), 1);
                shard.obs.add(
                    ROUNDS,
                    Labels::process(index),
                    u64::from(report.rounds_executed),
                );
                if let Some(f) = shard.flight.as_mut() {
                    f.note(format!(
                        "instance {id} ({}) decided after {} rounds",
                        self.class.name(),
                        report.rounds_executed
                    ));
                }
            }
            Err(error) => {
                self.totals.errored += 1;
                shard.obs.add(ERRORS, Labels::process(index), 1);
                if let Some(f) = shard.flight.as_mut() {
                    f.note(format!(
                        "instance {id} ({}) errored: {error}",
                        self.class.name()
                    ));
                    f.capture(&format!(
                        "instance {id} ({}) errored mid-batch on shard {index}: {error}",
                        self.class.name()
                    ));
                }
            }
        }
        let conformance = self.conformance.as_ref().map(|(monitor, names)| {
            let monitor = lock(monitor);
            monitor.record(shard.obs.obs());
            InstanceConformance::from_monitor(&monitor, names)
        });
        if let (Some(conf), Some(summary)) = (self.totals.conf.as_mut(), conformance.as_ref()) {
            conf.absorb(summary);
        }
        self.spare = finished.buffer;
        self.batch = Some(finished.batch);
        if self.keep_results {
            self.totals.results.push(InstanceResult {
                instance: id,
                class: self.class.name(),
                shard: index,
                outcome: summarize(finished.result),
                trace: finished.trace,
                conformance,
            });
        }
    }
}

fn summarize(result: Result<RunReport<Value>, EngineError>) -> Result<RunSummary, EngineError> {
    result.map(|report| RunSummary {
        outputs: report
            .decisions
            .iter()
            .map(|d| d.as_ref().map(|&(v, round)| (v, round.get())))
            .collect(),
        rounds_executed: report.rounds_executed,
    })
}

/// Runs every id of one class on one shard, in order, on one lane.
fn run_lane<C: InstanceClass>(
    class: C,
    class_index: usize,
    ids: &[u64],
    config: &PoolConfig,
    shard: &mut Shard,
) -> LaneTotals {
    let mut lane = ClassLane::new(class, class_index, config);
    for &id in ids {
        lane.run(id, shard);
    }
    lane.totals
}

/// One shard's work: its ids (`id ≡ index mod shards`), class by class
/// in mix order, each instance run to completion before the next.
fn run_shard(
    mix: &MixSpec,
    instances: u64,
    config: &PoolConfig,
    index: usize,
) -> (Vec<LaneTotals>, Vec<String>) {
    let mut per_class: Vec<Vec<u64>> = vec![Vec::new(); mix.classes().len()];
    for id in (index as u64..instances).step_by(config.shards) {
        per_class[mix.class_of(id)].push(id);
    }
    // The shard's own samples (per-shard counters, step latencies) are
    // buffered and flushed when the shard is done; each instance's engine
    // run and conformance record flush their own buffers.
    let mut shard = Shard {
        index,
        obs: RunObs::new(config.obs.clone()),
        flight: config.flight.then(ShardFlight::new),
    };
    let seed = config.seed;
    let mut lanes = Vec::new();
    for (class_index, (spec, ids)) in mix.classes().iter().zip(&per_class).enumerate() {
        if ids.is_empty() {
            continue;
        }
        let (i, ids, s) = (class_index, ids.as_slice(), &mut shard);
        lanes.push(match spec.kind {
            ClassKind::KSet => run_lane(KSetClass::new(*spec, seed), i, ids, config, s),
            ClassKind::FloodMin => run_lane(FloodMinClass::new(*spec, seed), i, ids, config, s),
            ClassKind::SConsensus => run_lane(SConsensusClass::new(*spec, seed), i, ids, config, s),
            ClassKind::Early => run_lane(EarlyClass::new(*spec, seed), i, ids, config, s),
            ClassKind::Stall => run_lane(StallClass::new(*spec), i, ids, config, s),
        });
    }
    shard.obs.flush();
    let dumps = shard.flight.map_or_else(Vec::new, |f| f.dumps);
    (lanes, dumps)
}

/// Runs `instances` instances of `mix` across the configured shards.
///
/// Deterministic for a given `(mix, instances, seed)`: sharding, class
/// assignment, inputs, and adversaries are all pure functions of the
/// instance id, and per-shard results are folded in shard order.
#[must_use]
pub fn run_batch(mix: &MixSpec, instances: u64, config: &PoolConfig) -> BatchReport {
    let shards = config.shards;
    config
        .obs
        .gauge(names::POOL_SHARDS, Labels::GLOBAL, shards as i64);

    let shard_outputs: Vec<(Vec<LaneTotals>, Vec<String>)> = if shards <= 1 {
        vec![run_shard(mix, instances, config, 0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|shard| scope.spawn(move || run_shard(mix, instances, config, shard)))
                .collect();
            // Drain every shard before re-raising a panic (same
            // containment the DPOR steal pool uses): no shard thread
            // may outlive the unwind.
            let mut collected = Vec::with_capacity(shards);
            let mut first_panic = None;
            for handle in handles {
                match handle.join() {
                    Ok(output) => collected.push(output),
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
            collected
        })
    };

    let mut totals = Vec::with_capacity(shard_outputs.len());
    let mut flight_dumps = Vec::new();
    for (shard_totals, dumps) in shard_outputs {
        totals.push(shard_totals);
        flight_dumps.extend(dumps);
    }
    fold_report(mix, instances, shards, totals, flight_dumps)
}

fn fold_report(
    mix: &MixSpec,
    instances: u64,
    shards: usize,
    totals: Vec<Vec<LaneTotals>>,
    flight_dumps: Vec<String>,
) -> BatchReport {
    let mut classes: Vec<ClassTotals> = mix
        .classes()
        .iter()
        .map(|spec| ClassTotals {
            class: spec.to_string(),
            ..ClassTotals::default()
        })
        .collect();
    let mut conf_acc: Vec<Option<LaneConf>> = (0..mix.classes().len()).map(|_| None).collect();
    let mut results = Vec::new();
    let mut completed = 0u64;
    let mut errored = 0u64;
    let mut rounds = 0u64;
    for lane in totals.into_iter().flatten() {
        completed += lane.completed;
        errored += lane.errored;
        rounds += lane.rounds;
        if let Some(class) = classes.get_mut(lane.class_index) {
            class.completed += lane.completed;
            class.errored += lane.errored;
            class.rounds += lane.rounds;
        }
        if let Some(lane_conf) = lane.conf {
            match &mut conf_acc[lane.class_index] {
                Some(acc) => acc.merge(lane_conf),
                slot => *slot = Some(lane_conf),
            }
        }
        results.extend(lane.results);
    }
    results.sort_by_key(|r| r.instance);
    let conformance = conf_acc
        .into_iter()
        .enumerate()
        .filter_map(|(index, conf)| {
            let conf = conf?;
            (conf.instances > 0).then(|| ClassConformance {
                class: mix.classes()[index].to_string(),
                instances: conf.instances,
                clean: conf.clean,
                worst_rank: conf.worst_rank,
                worst_name: conf.worst_name,
            })
        })
        .collect();
    BatchReport {
        instances,
        completed,
        errored,
        rounds,
        shards,
        classes,
        results,
        conformance,
        flight_dumps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> MixSpec {
        MixSpec::default_mix()
    }

    #[test]
    fn batch_accounts_for_every_instance() {
        let report = run_batch(&mix(), 90, &PoolConfig::new(3));
        assert_eq!(report.instances, 90);
        assert_eq!(report.completed + report.errored, 90);
        // The default mix gives `stall` 1 of 9 weight shares; every
        // stall instance errors (round limit), nothing else does.
        assert_eq!(report.errored, 10);
        let per_class: u64 = report.classes.iter().map(|c| c.completed + c.errored).sum();
        assert_eq!(per_class, 90);
        assert!(report.rounds > 0);
    }

    #[test]
    fn batch_is_deterministic_across_shard_counts() {
        let config1 = PoolConfig::new(1).keep_results(true).seed(42);
        let config4 = PoolConfig::new(4).keep_results(true).seed(42);
        let one = run_batch(&mix(), 45, &config1);
        let four = run_batch(&mix(), 45, &config4);
        assert_eq!(one.completed, four.completed);
        assert_eq!(one.errored, four.errored);
        assert_eq!(one.rounds, four.rounds);
        assert_eq!(one.classes, four.classes);
        // Results align instance-for-instance once shard is masked.
        assert_eq!(one.results.len(), four.results.len());
        for (a, b) in one.results.iter().zip(&four.results) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn failing_instances_do_not_poison_their_shard() {
        // A mix that is 1/2 stall: every shard interleaves failures
        // with successes and still retires everything.
        let mix = MixSpec::parse("stall:n=3:rounds=2:w=1,kset:n=4:k=1:w=1").unwrap();
        let report = run_batch(&mix, 40, &PoolConfig::new(2));
        assert_eq!(report.completed, 20);
        assert_eq!(report.errored, 20);
    }

    #[test]
    fn pool_metrics_are_recorded() {
        let obs = Obs::logical();
        let (shards, instances) = (2usize, 72u64);
        let config = PoolConfig::new(shards).obs(obs.clone());
        let report = run_batch(&mix(), instances, &config);
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total(names::POOL_INSTANCES), report.completed);
        assert_eq!(snap.counter_total(names::POOL_ERRORS), report.errored);
        assert_eq!(snap.counter_total(names::POOL_ROUNDS), report.rounds);
        // Each lane (one class on one shard) starts its first instance on
        // a fresh emission buffer and every later one on its spare.
        let mut lanes = std::collections::BTreeSet::new();
        for id in 0..instances {
            lanes.insert((id % shards as u64, mix().class_of(id)));
        }
        assert_eq!(
            snap.counter_total(names::POOL_BUFFER_REUSES),
            instances - lanes.len() as u64
        );
        let latency = snap.get(names::POOL_ROUND_LATENCY, Labels::GLOBAL);
        assert!(latency.is_some(), "per-step latency histogram missing");
    }

    #[test]
    fn conformance_monitoring_surfaces_compiled_evaluations() {
        // The per-instance zoo monitors run on the compiled predicate
        // plane; their batched evaluations must reach the pool's obs
        // handle when the instances retire.
        let obs = Obs::logical();
        let config = PoolConfig::new(2)
            .seed(7)
            .conformance(true)
            .obs(obs.clone());
        let report = run_batch(&mix(), 12, &config);
        assert!(!report.conformance.is_empty());
        let evals = obs
            .snapshot()
            .counter_total(rrfd_obs::names::PRED_COMPILED_EVALS);
        assert!(
            evals > 0,
            "monitored pool runs must evaluate compiled predicates"
        );
    }

    #[test]
    fn erroring_instances_leave_flight_dumps() {
        // Every stall instance errors, so the armed flight recorder
        // must capture at least one dump per shard that saw one.
        let mix = MixSpec::parse("stall:n=3:rounds=2:w=1,kset:n=4:k=1:w=1").unwrap();
        let report = run_batch(&mix, 20, &PoolConfig::new(2).flight(true));
        assert!(report.errored > 0);
        assert!(!report.flight_dumps.is_empty());
        for dump in &report.flight_dumps {
            assert!(dump.starts_with("rrfd-flight v1\n"), "{dump}");
            assert!(dump.contains("errored mid-batch on shard"), "{dump}");
        }
        // Unarmed runs carry none.
        let quiet = run_batch(&mix, 20, &PoolConfig::new(2));
        assert!(quiet.flight_dumps.is_empty());
    }

    #[test]
    fn pool_spans_are_stamped_with_instance_ids() {
        let obs = Obs::logical();
        let config = PoolConfig::new(2).obs(obs.clone());
        let _ = run_batch(&mix(), 9, &config);
        let spans = obs.spans();
        assert!(!spans.is_empty());
        let mut instances: Vec<u64> = spans.iter().map(|s| s.instance).collect();
        instances.sort_unstable();
        instances.dedup();
        assert_eq!(instances, (0..9).collect::<Vec<u64>>());
        // Every instance's tree has exactly one run-span root.
        for id in 0..9u64 {
            let runs = spans
                .iter()
                .filter(|s| s.instance == id && s.kind == rrfd_obs::SpanKind::Run)
                .count();
            assert_eq!(runs, 1, "instance {id}");
        }
    }
}
