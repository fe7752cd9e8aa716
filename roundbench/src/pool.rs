//! The pool workloads.
//!
//! * `pool_mix`: a closed loop of one client submitting back-to-back
//!   `run_batch` calls of [`BATCH`] instances of `MixSpec::DEFAULT_SPEC`
//!   on `nproc` shards, results kept, observability and conformance off.
//! * `pool_observed`: the same batches, each with a fresh `Obs::wall()`,
//!   conformance on, and a closing `snapshot()` + `spans()` export that is
//!   part of the batch's time.
//!
//! The pool attaches its own conformance monitor, so the traced run does
//! not go through `run_batch`: [`run_own`] rebuilds each instance through
//! the public `InstanceClass::build`, steps it with `Engine::start`, and
//! installs a `ConformanceMonitor::zoo(n, 1)` through `set_round_hook`,
//! as the pool does.

use crate::ledger::{maybe_timed, timed, Layer, Totals};
use crate::report::{median, Metric, Samples, Section, Setup, Tally};
use crate::wrap::Timed;
use crate::{nproc, Ctx};
use rrfd_core::task::{KSetAgreement, Value};
use rrfd_core::{
    Engine, EngineError, EngineStep, FaultDetector, FaultPattern, IdSet, ProcessId, Round,
    RoundHook, RoundProtocol, RrfdPredicate, RunReport, SystemSize,
};
use rrfd_engine_pool::mix::{
    instance_input, splitmix64, EarlyClass, FloodMinClass, KSetClass, SConsensusClass, StallClass,
};
use rrfd_engine_pool::{
    run_batch, BatchReport, ClassKind, ClassSpec, InstanceClass, InstanceConformance,
    InstanceResult, MixSpec, PoolConfig, RunSummary,
};
use rrfd_models::conformance::{ConformanceMonitor, ConformanceVerdict};
use rrfd_obs::{names, Obs, ShardedRecorder, SpanRecord, WallClock};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Instances per `run_batch` call. At 2,000 a `pool_mix` batch takes about
/// 4 ms, so thread start-up luck decides its fastest batch, which moved by
/// 15–19% between runs; 10,000 instances (about 20 ms) moved by 5–20%.
pub const BATCH: u64 = 10_000;

/// The resilience the pool's conformance monitors check `zoo(n, f)` at.
const CONF_ZOO_F: usize = 1;

/// The seed of batch `index` of a workload run with `seed`.
pub fn batch_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

fn config(shards: usize, seed: u64, obs: Option<Obs>) -> PoolConfig {
    let config = PoolConfig::new(shards).seed(seed).keep_results(true);
    match obs {
        Some(obs) => config.conformance(true).obs(obs),
        None => config,
    }
}

/// One submitted batch: `run_batch`, plus the export when observed. The
/// caller drops `obs`, with every span it holds, after the batch's timing.
fn submit(mix: &MixSpec, shards: usize, seed: u64, obs: Option<&Obs>) -> (BatchReport, Export) {
    let report = run_batch(mix, BATCH, &config(shards, seed, obs.cloned()));
    let export = obs.map(|obs| export(obs, false)).unwrap_or_default();
    (report, export)
}

/// What an observed batch exported.
#[derive(Debug, Default)]
pub struct Export {
    instances: u64,
    errors: u64,
    engine_rounds: u64,
    spans: Vec<SpanRecord>,
}

fn export(obs: &Obs, traced: bool) -> Export {
    maybe_timed(traced, Layer::Export, || {
        let snapshot = obs.snapshot();
        Export {
            instances: snapshot.counter_total(names::POOL_INSTANCES),
            errors: snapshot.counter_total(names::POOL_ERRORS),
            engine_rounds: snapshot.counter_total(names::ENGINE_ROUNDS),
            spans: obs.spans(),
        }
    })
}

// -- verification ------------------------------------------------------------

/// Checks one instance's outcome against its inputs: kset and floodmin
/// must solve k-set agreement, sconsensus and early consensus, and stall
/// must end in `RoundLimitExceeded` at its round budget.
pub fn check_instance(mix: &MixSpec, seed: u64, result: &InstanceResult) -> Result<(), String> {
    let id = result.instance;
    let spec = mix
        .classes()
        .get(mix.class_of(id))
        .ok_or_else(|| format!("instance {id}: no mix class"))?;
    if result.class != spec.kind.name() {
        return Err(format!(
            "instance {id}: ran as {}, expected {}",
            result.class,
            spec.kind.name()
        ));
    }
    let inputs: Vec<Value> = (0..spec.n.get())
        .map(|p| instance_input(seed, id, p))
        .collect();
    match (spec.kind, &result.outcome) {
        (ClassKind::Stall, Err(EngineError::RoundLimitExceeded { max_rounds }))
            if *max_rounds == spec.stall_rounds =>
        {
            Ok(())
        }
        (ClassKind::Stall, other) => Err(format!(
            "instance {id} (stall): expected the round limit, got {other:?}"
        )),
        (_, Err(error)) => Err(format!("instance {id} ({}): {error}", spec.kind.name())),
        (kind, Ok(summary)) => {
            let task = match kind {
                ClassKind::KSet | ClassKind::FloodMin => KSetAgreement::new(spec.k),
                _ => KSetAgreement::consensus(),
            };
            let outputs: Vec<Option<Value>> =
                summary.outputs.iter().map(|o| o.map(|(v, _)| v)).collect();
            // Crash-model agreement binds the correct processes only.
            let crashed = crashed(*spec, seed, id, summary.rounds_executed);
            let correct: Vec<Option<Value>> = outputs
                .iter()
                .enumerate()
                .map(|(i, &v)| v.filter(|_| !crashed.contains(ProcessId::new(i))))
                .collect();
            // Every process decides an input (`n`-set agreement is validity
            // alone); the correct ones agree.
            KSetAgreement::new(spec.n.get())
                .check_terminating(&inputs, &outputs)
                .and_then(|()| task.check(&inputs, &correct))
                .map_err(|v| format!("instance {id} ({}): {v}", spec.kind.name()))
        }
    }
}

/// The processes a crash-model instance's adversary crashed: its detector,
/// rebuilt through `InstanceClass::build`, re-driven for `rounds` rounds.
/// Empty for the classes whose models have no crashes.
fn crashed(spec: ClassSpec, seed: u64, id: u64, rounds: u32) -> IdSet {
    fn replay<C: InstanceClass>(class: &C, id: u64, rounds: u32) -> IdSet {
        let (_, mut detector, _) = class.build(id);
        let mut pattern = FaultPattern::new(class.system_size());
        for r in 1..=rounds {
            let faults = detector.next_round(Round::new(r), &pattern);
            pattern.push(faults);
        }
        pattern.cumulative_union()
    }
    match spec.kind {
        ClassKind::FloodMin => replay(&FloodMinClass::new(spec, seed), id, rounds),
        ClassKind::Early => replay(&EarlyClass::new(spec, seed), id, rounds),
        _ => IdSet::empty(),
    }
}

/// Checks a batch's kept results: one per instance id in ascending order,
/// each correct, each with a conformance verdict when `observed`.
pub fn check_results(
    mix: &MixSpec,
    seed: u64,
    results: &[InstanceResult],
    observed: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    if results.len() as u64 != BATCH {
        failures.push(format!("{} results for {BATCH} instances", results.len()));
    }
    for (expected, result) in results.iter().enumerate() {
        if result.instance != expected as u64 {
            failures.push(format!("result {expected} is instance {}", result.instance));
        } else if let Err(failure) = check_instance(mix, seed, result) {
            failures.push(failure);
        } else if observed && result.conformance.is_none() {
            failures.push(format!("instance {expected}: no conformance verdict"));
        }
    }
    failures
}

/// Checks a `run_batch` report, and its export when observed.
fn check_batch(
    mix: &MixSpec,
    seed: u64,
    report: &BatchReport,
    export: &Export,
    observed: bool,
) -> Vec<String> {
    let mut failures = check_results(mix, seed, &report.results, observed);
    if report.completed + report.errored != BATCH {
        failures.push(format!(
            "batch retired {} of {BATCH} instances",
            report.completed + report.errored
        ));
    }
    if observed
        && (export.instances != report.completed
            || export.errors != report.errored
            || export.spans.is_empty())
    {
        failures.push(format!(
            "export counts {}/{} instances/errors and {} spans for a batch of {}/{}",
            export.instances,
            export.errors,
            export.spans.len(),
            report.completed,
            report.errored
        ));
    }
    failures
}

// -- the benchmark's own engine loop -----------------------------------------

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

fn conformance_summary(verdict: &ConformanceVerdict) -> InstanceConformance {
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

/// How [`run_own`] runs its instances.
#[derive(Debug, Clone)]
pub struct OwnLoop {
    /// The handle every engine records through.
    pub obs: Obs,
    /// Whether each instance gets a round-hook-fed conformance monitor.
    pub conformance: bool,
    /// Whether every call is wrapped in a timing frame.
    pub traced: bool,
}

/// Steps one instance of `class` to completion.
fn drive<C, P, D, Q>(
    own: &OwnLoop,
    class: &C,
    built: (Vec<P>, D, Q),
    id: u64,
) -> (InstanceResult, u64)
where
    C: InstanceClass,
    P: RoundProtocol<Output = Value>,
    D: FaultDetector,
    Q: RrfdPredicate,
{
    let traced = own.traced;
    let n = class.system_size();
    let mut run = maybe_timed(traced, Layer::Lifecycle, || {
        let (protocols, detector, model) = built;
        let mut run = Engine::new(n)
            .max_rounds(class.max_rounds())
            .obs(own.obs.clone())
            .start(protocols, detector, model)
            .expect("mix classes build one protocol per process");
        run.set_instance(id);
        run
    });
    let monitor = own.conformance.then(|| {
        maybe_timed(traced, Layer::Conformance, || {
            attach_monitor(&mut run, n, traced)
        })
    });
    maybe_timed(traced, Layer::Step, || {
        while run.step() == EngineStep::Running {}
    });
    let rounds = u64::from(run.rounds_executed());
    let outcome = maybe_timed(traced, Layer::Lifecycle, || {
        summarize(run.run_to_completion().result)
    });
    let conformance = monitor.map(|monitor| {
        maybe_timed(traced, Layer::Conformance, || {
            let monitor = monitor.lock().expect("monitor lock poisoned");
            monitor.record(&own.obs);
            conformance_summary(&monitor.verdict())
        })
    });
    let result = InstanceResult {
        instance: id,
        class: class.name(),
        shard: 0,
        outcome,
        trace: None,
        conformance,
    };
    (result, rounds)
}

fn attach_monitor<P, D, Q>(
    run: &mut rrfd_core::EngineRun<P, D, Q>,
    n: SystemSize,
    traced: bool,
) -> Arc<Mutex<ConformanceMonitor>>
where
    P: RoundProtocol,
    D: FaultDetector,
    Q: RrfdPredicate,
{
    let monitor = Arc::new(Mutex::new(ConformanceMonitor::zoo(n, CONF_ZOO_F)));
    let sink = Arc::clone(&monitor);
    run.set_round_hook(RoundHook::new(move |faults| {
        maybe_timed(traced, Layer::Conformance, || {
            sink.lock().expect("monitor lock poisoned").observe(faults);
        });
    }));
    monitor
}

fn one<C: InstanceClass>(own: &OwnLoop, class: &C, id: u64) -> (InstanceResult, u64) {
    if own.traced {
        let built = timed(Layer::Build, || {
            let (protocols, detector, model) = class.build(id);
            let protocols: Vec<_> = protocols.into_iter().map(Timed).collect();
            (protocols, Timed(detector), Timed(model))
        });
        drive(own, class, built, id)
    } else {
        drive(own, class, class.build(id), id)
    }
}

/// Runs `BATCH` instances of `mix` under `seed` in id order, each to
/// completion on the calling thread. Returns the results and the rounds
/// executed.
pub fn run_own(mix: &MixSpec, seed: u64, own: &OwnLoop) -> (Vec<InstanceResult>, u64) {
    let mut results = Vec::with_capacity(BATCH as usize);
    let mut rounds = 0;
    for id in 0..BATCH {
        let spec = mix.classes()[mix.class_of(id)];
        let (result, r) = match spec.kind {
            ClassKind::KSet => one(own, &KSetClass::new(spec, seed), id),
            ClassKind::FloodMin => one(own, &FloodMinClass::new(spec, seed), id),
            ClassKind::SConsensus => one(own, &SConsensusClass::new(spec, seed), id),
            ClassKind::Early => one(own, &EarlyClass::new(spec, seed), id),
            ClassKind::Stall => one(own, &StallClass::new(spec), id),
        };
        results.push(result);
        rounds += r;
    }
    (results, rounds)
}

/// Builds every instance of a batch through `InstanceClass::build`, as the
/// pool does before stepping each.
fn build_all(mix: &MixSpec, seed: u64) {
    fn build<C: InstanceClass>(class: &C, id: u64) {
        drop(std::hint::black_box(class.build(id)));
    }
    for id in 0..BATCH {
        let spec = mix.classes()[mix.class_of(id)];
        match spec.kind {
            ClassKind::KSet => build(&KSetClass::new(spec, seed), id),
            ClassKind::FloodMin => build(&FloodMinClass::new(spec, seed), id),
            ClassKind::SConsensus => build(&SConsensusClass::new(spec, seed), id),
            ClassKind::Early => build(&EarlyClass::new(spec, seed), id),
            ClassKind::Stall => build(&StallClass::new(spec), id),
        }
    }
}

/// `true` when two result lists agree on everything but the shard.
fn same_outcomes(a: &[InstanceResult], b: &[InstanceResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.instance == y.instance
                && x.class == y.class
                && x.outcome == y.outcome
                && x.conformance == y.conformance
        })
}

// -- end-to-end --------------------------------------------------------------

/// The untraced closed loop of `pool_mix` (`observed = false`) or
/// `pool_observed`.
///
/// The set-up of a batch is parsing the mix, making its observability
/// handle, and building its instances through `InstanceClass::build`.
pub fn end_to_end(ctx: &Ctx, observed: bool, tally: &mut Tally) -> Vec<Metric> {
    let shards = nproc();
    let parse = || MixSpec::parse(MixSpec::DEFAULT_SPEC).expect("the default mix parses");
    let mix = parse();
    let obs = || observed.then(Obs::wall);
    let setup_of = |seed| {
        move || {
            let mix = parse();
            build_all(&mix, seed);
            (mix, obs())
        }
    };

    // Warm-up batch: verified, not timed.
    let seed = batch_seed(ctx.seed, 0);
    let (report, export) = submit(&mix, shards, seed, obs().as_ref());
    tally.record(BATCH, check_batch(&mix, seed, &report, &export, observed));
    let mut setup = Setup::calibrate(&mut setup_of(seed));

    let mut samples = Samples::default();
    let deadline = Instant::now() + ctx.duration();
    let mut index = 1;
    while Instant::now() < deadline || samples.len() < 3 {
        let seed = batch_seed(ctx.seed, index);
        setup.sample(&mut setup_of(seed));
        let handle = obs();
        let start = Instant::now();
        let (report, export) = submit(&mix, shards, seed, handle.as_ref());
        samples.push(start.elapsed().as_secs_f64());
        tally.record(BATCH, check_batch(&mix, seed, &report, &export, observed));
        index += 1;
    }
    samples.metrics(&setup)
}

// -- traced ------------------------------------------------------------------

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The traced `pool_mix` section: run_batch at 1 and `nproc` shards, the
/// own loop untraced, and the own loop with every wrapper.
pub fn trace_mix(ctx: &Ctx, budget: std::time::Duration, tally: &mut Tally) -> Section {
    let mix = MixSpec::parse(MixSpec::DEFAULT_SPEC).expect("the default mix parses");
    let plain = OwnLoop {
        obs: Obs::noop(),
        conformance: false,
        traced: false,
    };
    let traced = OwnLoop {
        traced: true,
        ..plain.clone()
    };
    let (mut one_shard, mut all_shards, mut own_s, mut traced_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut rounds, mut batches) = (0u64, 0u64);
    let mut totals = Totals::default();
    let deadline = Instant::now() + budget;
    let mut index = 0;
    while Instant::now() < deadline || batches < 2 {
        let seed = batch_seed(ctx.seed, index);
        index += 1;
        let start = Instant::now();
        let (single, _) = submit(&mix, 1, seed, None);
        let t1 = secs(start);
        let start = Instant::now();
        let (sharded, _) = submit(&mix, nproc(), seed, None);
        let tn = secs(start);
        let start = Instant::now();
        let (own, _) = run_own(&mix, seed, &plain);
        let town = secs(start);
        let before = Totals::now();
        let start = Instant::now();
        let (wrapped, r) = run_own(&mix, seed, &traced);
        let ttraced = secs(start);
        let charged = Totals::now().since(&before);

        let mut failures = check_results(&mix, seed, &single.results, false);
        failures.extend(check_results(&mix, seed, &sharded.results, false));
        failures.extend(check_results(&mix, seed, &own, false));
        failures.extend(check_results(&mix, seed, &wrapped, false));
        if !same_outcomes(&single.results, &own) || !same_outcomes(&own, &wrapped) {
            failures.push(format!("batch {index}: own loop disagrees with run_batch"));
        }
        tally.record(4 * BATCH, failures);
        if index > 1 {
            // The first iteration warms caches and is not timed.
            one_shard += t1;
            all_shards += tn;
            own_s += town;
            traced_s += ttraced;
            rounds += r;
            batches += 1;
            totals.add(&charged);
        }
    }
    let instances = (batches * BATCH) as f64;
    let rounds = rounds as f64;
    let per_round = |layer| totals.self_ns(layer) / rounds;
    Section {
        metrics: vec![
            Metric::new("core.step_self_ns_per_round", per_round(Layer::Step), "ns"),
            Metric::new(
                "core.lifecycle_ns_per_instance",
                totals.self_ns(Layer::Lifecycle) / instances,
                "ns",
            ),
            Metric::new("core.rounds_per_instance", rounds / instances, "count"),
            Metric::new("protocols.emit_ns_per_round", per_round(Layer::Emit), "ns"),
            Metric::new(
                "protocols.deliver_ns_per_round",
                per_round(Layer::Deliver),
                "ns",
            ),
            Metric::new("models.detect_ns_per_round", per_round(Layer::Detect), "ns"),
            Metric::new("models.admit_ns_per_round", per_round(Layer::Admit), "ns"),
            Metric::new(
                "pool.build_ns_per_instance",
                totals.self_ns(Layer::Build) / instances,
                "ns",
            ),
            Metric::new(
                "pool.self_ns_per_instance",
                (one_shard - own_s) * 1e9 / instances,
                "ns",
            ),
            Metric::new("pool.scaling_x", one_shard / all_shards, "x"),
        ],
        overhead_x: traced_s / own_s,
        layer_sum_frac: totals.self_sum_ns() / (traced_s * 1e9),
    }
}

fn traced_obs() -> Obs {
    Obs::new(
        Arc::new(Timed(ShardedRecorder::new())),
        Arc::new(Timed(WallClock::new())),
    )
}

/// The traced `pool_observed` section: run_batch with `Obs::wall()` and
/// with `Obs::noop()`, the own observed loop untraced, and with every
/// wrapper including the recorder and clock.
pub fn trace_observed(ctx: &Ctx, budget: std::time::Duration, tally: &mut Tally) -> Section {
    let mix = MixSpec::parse(MixSpec::DEFAULT_SPEC).expect("the default mix parses");
    let (mut wall_s, mut noop_s, mut own_s, mut traced_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut rounds, mut batches, mut spans) = (0u64, 0u64, 0u64);
    let mut export_ms = Vec::new();
    let mut totals = Totals::default();
    let deadline = Instant::now() + budget;
    let mut index = 0;
    while Instant::now() < deadline || batches < 2 {
        let seed = batch_seed(ctx.seed, index);
        index += 1;
        let obs = Obs::wall();
        let start = Instant::now();
        let wall = run_batch(&mix, BATCH, &config(nproc(), seed, Some(obs)));
        let twall = secs(start);
        let start = Instant::now();
        let noop = run_batch(&mix, BATCH, &config(nproc(), seed, Some(Obs::noop())));
        let tnoop = secs(start);

        let plain = OwnLoop {
            obs: Obs::wall(),
            conformance: true,
            traced: false,
        };
        let start = Instant::now();
        let (own, _) = run_own(&mix, seed, &plain);
        let own_export = export(&plain.obs, false);
        let town = secs(start);

        let traced = OwnLoop {
            obs: traced_obs(),
            conformance: true,
            traced: true,
        };
        let before = Totals::now();
        let start = Instant::now();
        let (wrapped, r) = run_own(&mix, seed, &traced);
        let traced_export = export(&traced.obs, true);
        let ttraced = secs(start);
        let charged = Totals::now().since(&before);

        let mut failures = check_results(&mix, seed, &wall.results, true);
        failures.extend(check_results(&mix, seed, &noop.results, true));
        failures.extend(check_results(&mix, seed, &own, true));
        failures.extend(check_results(&mix, seed, &wrapped, true));
        if !same_outcomes(&wall.results, &own) || !same_outcomes(&own, &wrapped) {
            failures.push(format!("batch {index}: own loop disagrees with run_batch"));
        }
        for e in [&own_export, &traced_export] {
            if e.engine_rounds != r || e.spans.is_empty() {
                failures.push(format!(
                    "batch {index}: export counts {} rounds, {} spans for {r} rounds",
                    e.engine_rounds,
                    e.spans.len()
                ));
            }
        }
        tally.record(4 * BATCH, failures);
        if index > 1 {
            wall_s += twall;
            noop_s += tnoop;
            own_s += town;
            traced_s += ttraced;
            rounds += r;
            batches += 1;
            spans += traced_export.spans.len() as u64;
            export_ms.push(charged.total_ns(Layer::Export) / 1e6);
            totals.add(&charged);
        }
    }
    let instances = (batches * BATCH) as f64;
    let rounds = rounds as f64;
    let per_round = |layer| totals.self_ns(layer) / rounds;
    let obs_calls = totals.calls(Layer::ObsRecord)
        + totals.calls(Layer::ObsSpan)
        + totals.calls(Layer::ObsClock);
    Section {
        metrics: vec![
            Metric::new(
                "models.conformance_ns_per_round",
                per_round(Layer::Conformance),
                "ns",
            ),
            Metric::new("obs.record_ns_per_round", per_round(Layer::ObsRecord), "ns"),
            Metric::new("obs.span_ns_per_round", per_round(Layer::ObsSpan), "ns"),
            Metric::new("obs.clock_ns_per_round", per_round(Layer::ObsClock), "ns"),
            Metric::new("obs.calls_per_round", obs_calls / rounds, "count"),
            Metric::new("obs.export_ms_per_batch", median(&export_ms), "ms"),
            Metric::new("obs.spans_per_instance", spans as f64 / instances, "count"),
            Metric::new("obs.overhead_x", wall_s / noop_s, "x"),
        ],
        overhead_x: traced_s / own_s,
        layer_sum_frac: totals.self_sum_ns() / (traced_s * 1e9),
    }
}
