//! The sharded batch pool: many independent engine runs, few threads.
//!
//! [`run_batch`] drives `instances` independent protocol runs — drawn
//! from a weighted [`MixSpec`] of protocol/model
//! classes — across `shards` worker threads. The design has three
//! load-bearing pieces (DESIGN.md §13):
//!
//! 1. **Deterministic sharding.** Instance `i` always lands on shard
//!    `i mod shards` and in the mix class owning residue `i mod Σw`.
//!    No queues, no work stealing: the pool and the sequential baseline
//!    ([`run_sequential`]) agree on every instance's inputs, adversary
//!    seed, and class without communicating, which is what makes the
//!    differential suite possible.
//! 2. **Instance multiplexing.** A shard does not run instances to
//!    completion one by one; it holds a window of live
//!    [`rrfd_core::EngineRun`]s in a [`Slab`] and
//!    round-robins them one [`step`](rrfd_core::EngineRun::step) (= one
//!    round) at a time. Long-running instances therefore cannot
//!    head-of-line-block short ones, and a never-deciding instance is
//!    bounded by its own round limit, not the shard's patience.
//! 3. **Slab lifecycle.** Retiring a run returns its shared
//!    emission-table buffer ([`rrfd_core::FinishedRun::buffer`]); the
//!    lane stashes it and hands it to the next admission
//!    ([`rrfd_core::Engine::start_with_buffer`]), so steady-state
//!    instance turnover allocates no new round tables. The slab slot
//!    itself is reused the same way.
//!
//! Failure containment: an instance that ends in an
//! [`EngineError`] (the mix's `stall` class ends in one by design) is
//! retired and counted exactly like a deciding instance — the shard
//! sweeps on. Nothing is unwrapped on the hot path.

use crate::mix::{
    ClassKind, ClassSpec, EarlyClass, FloodMinClass, KSetClass, MixSpec, SConsensusClass,
    StallClass,
};
use crate::slab::Slab;
use rrfd_core::task::Value;
use rrfd_core::{
    Engine, EngineError, EngineRun, EngineStep, FaultDetector, RoundHook, RoundProtocol,
    RrfdPredicate, RunReport, RunTrace, SystemSize,
};
use rrfd_models::conformance::{ConformanceMonitor, ConformanceVerdict};
use rrfd_obs::{names, FlightRecorder, Labels, MetricId, Obs, RunObs, DEFAULT_FLIGHT_ROUNDS};
use std::sync::{Arc, Mutex};

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
/// pure in `id` — the pool and the sequential baseline both call
/// [`InstanceClass::build`] and must get identical instances.
pub trait InstanceClass {
    /// The protocol every process in an instance runs. Outputs are the
    /// workspace's canonical [`Value`] so results from different classes
    /// are uniformly comparable.
    type P: RoundProtocol<Output = Value>;
    /// The adversary driving an instance.
    type D: FaultDetector;
    /// The model predicate the adversary is validated against.
    type Q: RrfdPredicate;

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
    /// Shard that executed it (`0` for the sequential baseline).
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
    /// predicate `i`: equal to [`InstanceConformance::from_verdict`] of
    /// its verdict, without building the verdict.
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

    fn from_verdict(verdict: &ConformanceVerdict) -> Self {
        InstanceConformance {
            strongest: verdict
                .strongest_satisfied()
                .map(|s| (s.name.clone(), s.rank)),
            violations: verdict
                .statuses
                .iter()
                .filter_map(|s| s.first_violation.map(|r| (s.name.clone(), r.get())))
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

/// What a batch (or the sequential baseline) did.
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
    /// Shards the batch ran on (`1` for the sequential baseline).
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
    window: usize,
    seed: u64,
    keep_results: bool,
    capture_traces: bool,
    conformance: bool,
    flight: bool,
    obs: Obs,
}

/// Default per-shard admission window: live instances multiplexed per
/// shard before admission pauses.
pub const DEFAULT_WINDOW: usize = 64;

impl PoolConfig {
    /// A configuration with `shards` worker threads (clamped to at
    /// least one), the default admission window, seed 0, no result or
    /// trace retention, and no observability.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        PoolConfig {
            shards: shards.max(1),
            window: DEFAULT_WINDOW,
            seed: 0,
            keep_results: false,
            capture_traces: false,
            conformance: false,
            flight: false,
            obs: Obs::noop(),
        }
    }

    /// Overrides the per-shard admission window (clamped to ≥ 1): how
    /// many live instances a shard multiplexes before it stops
    /// admitting. Larger windows amortize sweep overhead; smaller ones
    /// bound peak state.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
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
    /// engine's round hook feeds each round's suspicions to a
    /// per-instance [`ConformanceMonitor`] over `zoo(n, 1)`, and
    /// verdicts are folded per class into [`BatchReport::conformance`]
    /// (plus per-instance into kept results, and as
    /// `rrfd_conformance_*` metrics through the attached handle).
    #[must_use]
    pub fn conformance(mut self, conformance: bool) -> Self {
        self.conformance = conformance;
        self
    }

    /// Arms the per-shard crash flight recorder: each shard keeps a
    /// fixed-size ring of recent admission/retirement notes and, when an
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
        let (rank, name) = summary
            .strongest
            .as_ref()
            .map_or((-1, None), |(n, r)| (*r as i64, Some(n.clone())));
        if self.instances == 0 || weaker(self.worst_rank, rank) {
            self.worst_rank = rank;
            self.worst_name = name;
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

/// Per-shard crash flight recorder: a ring of recent admission and
/// retirement notes (keyed by the shard's sweep counter) plus the dumps
/// captured when instances error.
struct ShardFlight {
    recorder: FlightRecorder,
    sweep: u32,
    dumps: Vec<String>,
    dump_cap: usize,
}

impl ShardFlight {
    fn new() -> Self {
        ShardFlight {
            recorder: FlightRecorder::new(DEFAULT_FLIGHT_ROUNDS),
            sweep: 1,
            dumps: Vec::new(),
            dump_cap: 8,
        }
    }

    fn note(&mut self, line: String) {
        self.recorder.note(self.sweep, line);
    }

    fn capture(&mut self, reason: &str) {
        if self.dumps.len() < self.dump_cap {
            self.dumps.push(self.recorder.dump(reason));
        }
    }
}

/// The type-erased face of one (shard, class) lane: the shard loop
/// admits and sweeps through this, monomorphized per class underneath.
trait Lane: Send {
    /// Admits up to `budget` queued instances into the slab; returns
    /// how many were admitted.
    fn admit(
        &mut self,
        budget: usize,
        obs: &mut RunObs,
        shard: usize,
        flight: Option<&mut ShardFlight>,
    ) -> usize;
    /// Steps every live run one round, retiring finished ones.
    fn sweep(&mut self, obs: &mut RunObs, shard: usize, flight: Option<&mut ShardFlight>);
    /// Live (admitted, unfinished) instances.
    fn live(&self) -> usize;
    /// Queued (not yet admitted) instances.
    fn pending(&self) -> usize;
    /// Consumes the lane into its totals.
    fn into_totals(self: Box<Self>) -> LaneTotals;
}

struct ActiveRun<C: InstanceClass> {
    id: u64,
    run: EngineRun<C::P, C::D, C::Q>,
    /// The instance's live zoo monitor, shared with the run's round
    /// hook; `None` unless [`PoolConfig::conformance`] is on.
    monitor: Option<Arc<Mutex<ConformanceMonitor>>>,
}

/// One class's instances on one shard.
struct ClassLane<C: InstanceClass> {
    class: C,
    engine: Engine,
    /// Queued instance ids, reversed so `pop()` admits in ascending
    /// order.
    queue: Vec<u64>,
    slab: Slab<ActiveRun<C>>,
    /// Retired runs' emission-table buffers, awaiting reuse.
    spares: Vec<Vec<Option<<C::P as RoundProtocol>::Msg>>>,
    spare_cap: usize,
    keep_results: bool,
    capture_traces: bool,
    /// The lane's conformance template, when [`PoolConfig::conformance`]
    /// is on: one zoo monitor built per lane and cloned per instance,
    /// plus its predicate names, computed once.
    conformance: Option<(ConformanceMonitor, Vec<String>)>,
    totals: LaneTotals,
}

impl<C: InstanceClass> ClassLane<C> {
    fn new(class: C, class_index: usize, ids: Vec<u64>, config: &PoolConfig) -> Self {
        let mut queue = ids;
        queue.reverse();
        let engine = Engine::new(class.system_size())
            .max_rounds(class.max_rounds())
            .obs(config.obs.clone());
        let conformance = config.conformance.then(|| {
            let template = ConformanceMonitor::zoo(class.system_size(), CONF_ZOO_F);
            let names = template
                .verdict()
                .statuses
                .into_iter()
                .map(|status| status.name)
                .collect();
            (template, names)
        });
        ClassLane {
            class,
            engine,
            queue,
            slab: Slab::with_capacity(config.window.min(64)),
            spares: Vec::new(),
            spare_cap: config.window,
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

    fn retire(
        &mut self,
        id: u64,
        run: EngineRun<C::P, C::D, C::Q>,
        monitor: Option<Arc<Mutex<ConformanceMonitor>>>,
        obs: &mut RunObs,
        shard: usize,
        flight: Option<&mut ShardFlight>,
    ) {
        // Already finished: run_to_completion only dismantles.
        let finished = run.run_to_completion();
        match &finished.result {
            Ok(report) => {
                self.totals.completed += 1;
                self.totals.rounds += u64::from(report.rounds_executed);
                obs.add(INSTANCES, Labels::process(shard), 1);
                obs.add(
                    ROUNDS,
                    Labels::process(shard),
                    u64::from(report.rounds_executed),
                );
                if let Some(f) = flight {
                    f.note(format!(
                        "instance {id} ({}) decided after {} rounds",
                        self.class.name(),
                        report.rounds_executed
                    ));
                }
            }
            Err(error) => {
                self.totals.errored += 1;
                obs.add(ERRORS, Labels::process(shard), 1);
                if let Some(f) = flight {
                    f.note(format!(
                        "instance {id} ({}) errored: {error}",
                        self.class.name()
                    ));
                    f.capture(&format!(
                        "instance {id} ({}) errored mid-batch on shard {shard}: {error}",
                        self.class.name()
                    ));
                }
            }
        }
        let names = self.conformance.as_ref().map(|(_, names)| names.as_slice());
        let conformance = monitor.zip(names).map(|(monitor, names)| {
            let mon = monitor
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            mon.record(obs.obs());
            InstanceConformance::from_monitor(&mon, names)
        });
        if let (Some(conf), Some(summary)) = (self.totals.conf.as_mut(), conformance.as_ref()) {
            conf.absorb(summary);
        }
        if self.spares.len() < self.spare_cap {
            self.spares.push(finished.buffer);
        }
        if self.keep_results {
            self.totals.results.push(InstanceResult {
                instance: id,
                class: self.class.name(),
                shard,
                outcome: summarize(finished.result),
                trace: finished.trace,
                conformance,
            });
        }
    }
}

/// Installs the round hook that feeds `monitor`, instance `id`'s live zoo
/// monitor, and returns the monitor's shared handle.
fn attach_monitor<P, D, Q>(
    run: &mut EngineRun<P, D, Q>,
    monitor: ConformanceMonitor,
) -> Arc<Mutex<ConformanceMonitor>>
where
    P: RoundProtocol,
    D: FaultDetector,
    Q: RrfdPredicate,
{
    let monitor = Arc::new(Mutex::new(monitor));
    let sink = Arc::clone(&monitor);
    run.set_round_hook(RoundHook::new(move |faults| {
        sink.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .observe(faults);
    }));
    monitor
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

impl<C> Lane for ClassLane<C>
where
    C: InstanceClass + Send,
    C::P: Send,
    <C::P as RoundProtocol>::Msg: Send,
    C::D: Send,
    C::Q: Send,
{
    fn admit(
        &mut self,
        budget: usize,
        obs: &mut RunObs,
        shard: usize,
        mut flight: Option<&mut ShardFlight>,
    ) -> usize {
        let mut admitted = 0;
        while admitted < budget {
            let Some(id) = self.queue.pop() else { break };
            let (protocols, detector, model) = self.class.build(id);
            let started = if self.capture_traces {
                // Tracing runs forgo buffer reuse: the trace is the
                // expensive part anyway, and the differential suite is
                // the only consumer.
                self.engine.start_traced(protocols, detector, model)
            } else {
                let buffer = match self.spares.pop() {
                    Some(spare) => {
                        if spare.capacity() > 0 {
                            obs.add(BUFFER_REUSES, Labels::process(shard), 1);
                        }
                        spare
                    }
                    None => Vec::new(),
                };
                self.engine
                    .start_with_buffer(protocols, detector, model, buffer)
            };
            match started {
                Ok(mut run) => {
                    run.set_instance(id);
                    let monitor = self
                        .conformance
                        .as_ref()
                        .map(|(template, _)| attach_monitor(&mut run, template.clone()));
                    if let Some(f) = flight.as_deref_mut() {
                        f.note(format!("admit instance {id} ({})", self.class.name()));
                    }
                    self.slab.insert(ActiveRun { id, run, monitor });
                    admitted += 1;
                }
                Err(error) => {
                    // Unreachable (classes build exactly n protocols),
                    // but total: record the instance as errored.
                    self.totals.errored += 1;
                    obs.add(ERRORS, Labels::process(shard), 1);
                    if self.keep_results {
                        self.totals.results.push(InstanceResult {
                            instance: id,
                            class: self.class.name(),
                            shard,
                            outcome: Err(error),
                            trace: None,
                            conformance: None,
                        });
                    }
                }
            }
        }
        admitted
    }

    fn sweep(&mut self, obs: &mut RunObs, shard: usize, mut flight: Option<&mut ShardFlight>) {
        let timed = obs.is_enabled();
        for key in 0..self.slab.slot_count() {
            let finished = match self.slab.get_mut(key) {
                Some(active) => {
                    let outcome = if timed {
                        let start = obs.now_ns();
                        let outcome = active.run.step();
                        let elapsed = obs.now_ns().saturating_sub(start);
                        obs.observe(ROUND_LATENCY, Labels::GLOBAL, elapsed);
                        outcome
                    } else {
                        active.run.step()
                    };
                    matches!(outcome, EngineStep::Finished)
                }
                None => false,
            };
            if finished {
                if let Some(active) = self.slab.remove(key) {
                    self.retire(
                        active.id,
                        active.run,
                        active.monitor,
                        obs,
                        shard,
                        flight.as_deref_mut(),
                    );
                }
            }
        }
    }

    fn live(&self) -> usize {
        self.slab.live()
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn into_totals(self: Box<Self>) -> LaneTotals {
        self.totals
    }
}

fn lane_for(
    spec: &ClassSpec,
    class_index: usize,
    ids: Vec<u64>,
    config: &PoolConfig,
) -> Box<dyn Lane> {
    match spec.kind {
        ClassKind::KSet => Box::new(ClassLane::new(
            KSetClass::new(*spec, config.seed),
            class_index,
            ids,
            config,
        )),
        ClassKind::FloodMin => Box::new(ClassLane::new(
            FloodMinClass::new(*spec, config.seed),
            class_index,
            ids,
            config,
        )),
        ClassKind::SConsensus => Box::new(ClassLane::new(
            SConsensusClass::new(*spec, config.seed),
            class_index,
            ids,
            config,
        )),
        ClassKind::Early => Box::new(ClassLane::new(
            EarlyClass::new(*spec, config.seed),
            class_index,
            ids,
            config,
        )),
        ClassKind::Stall => Box::new(ClassLane::new(
            StallClass::new(*spec),
            class_index,
            ids,
            config,
        )),
    }
}

/// One shard's main loop: admit into the window, sweep every lane,
/// repeat until every queued instance has been retired.
fn run_shard(
    mut lanes: Vec<Box<dyn Lane>>,
    config: &PoolConfig,
    shard: usize,
) -> (Vec<LaneTotals>, Vec<String>) {
    // The shard's own samples (per-shard counters, step latencies) are
    // buffered and flushed when the shard drains; each instance's engine
    // run and conformance record flush their own buffers.
    let mut obs = RunObs::new(config.obs.clone());
    let mut flight = config.flight.then(ShardFlight::new);
    loop {
        let live: usize = lanes.iter().map(|l| l.live()).sum();
        let mut budget = config.window.saturating_sub(live);
        for lane in &mut lanes {
            if budget == 0 {
                break;
            }
            budget -= lane.admit(budget, &mut obs, shard, flight.as_mut());
        }
        for lane in &mut lanes {
            lane.sweep(&mut obs, shard, flight.as_mut());
        }
        if let Some(f) = flight.as_mut() {
            f.sweep += 1;
        }
        let drained = lanes.iter().all(|l| l.live() == 0 && l.pending() == 0);
        if drained {
            break;
        }
    }
    obs.flush();
    let dumps = flight.map_or_else(Vec::new, |f| f.dumps);
    (lanes.into_iter().map(Lane::into_totals).collect(), dumps)
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

    // Deterministic assignment: shard s owns ids ≡ s (mod shards); each
    // shard splits its ids into per-class queues in mix order.
    let mut shard_lanes: Vec<Vec<Box<dyn Lane>>> = Vec::with_capacity(shards);
    for s in 0..shards {
        let mut per_class: Vec<Vec<u64>> = vec![Vec::new(); mix.classes().len()];
        let mut id = s as u64;
        while id < instances {
            per_class[mix.class_of(id)].push(id);
            id += shards as u64;
        }
        let lanes = mix
            .classes()
            .iter()
            .enumerate()
            .zip(per_class)
            .filter(|(_, ids)| !ids.is_empty())
            .map(|((index, spec), ids)| lane_for(spec, index, ids, config))
            .collect();
        shard_lanes.push(lanes);
    }

    let shard_outputs: Vec<(Vec<LaneTotals>, Vec<String>)> = if shards <= 1 {
        shard_lanes
            .into_iter()
            .map(|lanes| run_shard(lanes, config, 0))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shard_lanes
                .into_iter()
                .enumerate()
                .map(|(shard, lanes)| scope.spawn(move || run_shard(lanes, config, shard)))
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

/// The naive baseline the batch pool is measured against: one fresh
/// [`Engine::run`] (or [`Engine::run_traced`]) per instance, in
/// instance order, single-threaded, no buffer reuse. Decision- and
/// trace-identical to [`run_batch`] over the same `(mix, instances,
/// seed)` — the differential suite pins this.
#[must_use]
pub fn run_sequential(mix: &MixSpec, instances: u64, config: &PoolConfig) -> BatchReport {
    let mut totals: Vec<LaneTotals> = mix
        .classes()
        .iter()
        .enumerate()
        .map(|(class_index, _)| LaneTotals {
            class_index,
            completed: 0,
            errored: 0,
            rounds: 0,
            results: Vec::new(),
            conf: config.conformance.then(LaneConf::default),
        })
        .collect();
    for id in 0..instances {
        let index = mix.class_of(id);
        let Some(spec) = mix.classes().get(index) else {
            continue;
        };
        let result = match spec.kind {
            ClassKind::KSet => run_one(&KSetClass::new(*spec, config.seed), id, config),
            ClassKind::FloodMin => run_one(&FloodMinClass::new(*spec, config.seed), id, config),
            ClassKind::SConsensus => run_one(&SConsensusClass::new(*spec, config.seed), id, config),
            ClassKind::Early => run_one(&EarlyClass::new(*spec, config.seed), id, config),
            ClassKind::Stall => run_one(&StallClass::new(*spec), id, config),
        };
        let lane = &mut totals[index];
        match &result.outcome {
            Ok(summary) => {
                lane.completed += 1;
                lane.rounds += u64::from(summary.rounds_executed);
            }
            Err(_) => lane.errored += 1,
        }
        if let (Some(conf), Some(summary)) = (lane.conf.as_mut(), result.conformance.as_ref()) {
            conf.absorb(summary);
        }
        if config.keep_results {
            lane.results.push(result);
        }
    }
    fold_report(mix, instances, 1, vec![totals], Vec::new())
}

/// Runs a single instance of `class` to completion the naive way.
fn run_one<C: InstanceClass>(class: &C, id: u64, config: &PoolConfig) -> InstanceResult {
    let engine = Engine::new(class.system_size())
        .max_rounds(class.max_rounds())
        .obs(config.obs.clone());
    let (protocols, detector, model) = class.build(id);
    // `start`/`start_traced` rather than `run`/`run_traced`: the
    // resumable handle exposes the instance-id and round-hook seams,
    // and a started run stepped to completion is decision- and
    // trace-identical to a `run` call (the engine's contract).
    let started = if config.capture_traces {
        engine.start_traced(protocols, detector, model)
    } else {
        engine.start(protocols, detector, model)
    };
    let mut run = match started {
        Ok(run) => run,
        Err(error) => {
            return InstanceResult {
                instance: id,
                class: class.name(),
                shard: 0,
                outcome: Err(error),
                trace: None,
                conformance: None,
            }
        }
    };
    run.set_instance(id);
    let monitor = config.conformance.then(|| {
        attach_monitor(
            &mut run,
            ConformanceMonitor::zoo(class.system_size(), CONF_ZOO_F),
        )
    });
    let finished = run.run_to_completion();
    let conformance = monitor.map(|monitor| {
        let mon = monitor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        mon.record(&config.obs);
        InstanceConformance::from_verdict(&mon.verdict())
    });
    InstanceResult {
        instance: id,
        class: class.name(),
        shard: 0,
        outcome: summarize(finished.result),
        trace: finished.trace,
        conformance,
    }
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
        let report = run_batch(&mix, 40, &PoolConfig::new(2).window(4));
        assert_eq!(report.completed, 20);
        assert_eq!(report.errored, 20);
    }

    #[test]
    fn pool_metrics_are_recorded() {
        let obs = Obs::logical();
        // A small window with deep per-class queues forces admission to
        // interleave with retirement, so retired runs' emission buffers
        // actually get recycled.
        let config = PoolConfig::new(2).window(2).obs(obs.clone());
        let report = run_batch(&mix(), 72, &config);
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total(names::POOL_INSTANCES), report.completed);
        assert_eq!(snap.counter_total(names::POOL_ERRORS), report.errored);
        assert_eq!(snap.counter_total(names::POOL_ROUNDS), report.rounds);
        assert!(snap.counter_total(names::POOL_BUFFER_REUSES) > 0);
        let latency = snap.get(names::POOL_ROUND_LATENCY, Labels::GLOBAL);
        assert!(latency.is_some(), "per-step latency histogram missing");
    }

    #[test]
    fn window_of_one_still_drains() {
        let report = run_batch(&mix(), 9, &PoolConfig::new(1).window(1));
        assert_eq!(report.completed + report.errored, 9);
    }

    #[test]
    fn sequential_baseline_matches_batch_totals() {
        let config = PoolConfig::new(3).seed(7);
        let batch = run_batch(&mix(), 36, &config);
        let seq = run_sequential(&mix(), 36, &PoolConfig::new(1).seed(7));
        assert_eq!(batch.completed, seq.completed);
        assert_eq!(batch.errored, seq.errored);
        assert_eq!(batch.rounds, seq.rounds);
        assert_eq!(batch.classes, seq.classes);
    }

    #[test]
    fn conformance_verdicts_fold_and_agree_with_the_baseline() {
        let batch_config = PoolConfig::new(3)
            .seed(11)
            .conformance(true)
            .keep_results(true);
        let seq_config = PoolConfig::new(1)
            .seed(11)
            .conformance(true)
            .keep_results(true);
        let batch = run_batch(&mix(), 36, &batch_config);
        let seq = run_sequential(&mix(), 36, &seq_config);

        assert!(!batch.conformance.is_empty());
        // Deterministic sharding ⇒ the folded verdicts agree exactly.
        assert_eq!(batch.conformance, seq.conformance);
        let monitored: u64 = batch.conformance.iter().map(|c| c.instances).sum();
        assert_eq!(monitored, 36);
        for class in &batch.conformance {
            assert!(class.clean <= class.instances);
            assert!(class.worst_rank >= -1);
        }
        // Per-instance verdicts agree too.
        for (a, b) in batch.results.iter().zip(&seq.results) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.conformance, b.conformance, "instance {}", a.instance);
            assert!(a.conformance.is_some());
        }
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
        let report = run_batch(&mix, 20, &PoolConfig::new(2).window(4).flight(true));
        assert!(report.errored > 0);
        assert!(!report.flight_dumps.is_empty());
        for dump in &report.flight_dumps {
            assert!(dump.starts_with("rrfd-flight v1\n"), "{dump}");
            assert!(dump.contains("errored mid-batch on shard"), "{dump}");
        }
        // Unarmed runs carry none.
        let quiet = run_batch(&mix, 20, &PoolConfig::new(2).window(4));
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
