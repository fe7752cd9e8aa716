//! The `dpor_semisync` workload: `explore_semi_sync_dpor` over §5's
//! `RepeatedRounds` at n = [`N`], [`ROUNDS`] rounds, crash budget
//! [`CRASHES`], on `nproc` workers. The `check` callback verifies
//! termination and consensus on every trace class.
//!
//! At n = 3 one exploration covers 612 classes in about 50 ms, so a run
//! holds a few hundred explorations and its quantiles are stable. (At
//! n = 4 — 7,425 classes, about 1 s each — a ten-second run held eight
//! samples, and run-to-run spread was about 30%.)

use crate::ledger::{maybe_timed, Layer, Totals};
use crate::report::{cpu_ns, Metric, Samples, Section, Setup, Tally};
use crate::wrap::Timed;
use crate::{nproc, Ctx};
use rrfd_core::task::{KSetAgreement, Value};
use rrfd_core::SystemSize;
use rrfd_engine_pool::mix::instance_input;
use rrfd_protocols::semi_sync_consensus::RepeatedRounds;
use rrfd_sims::dpor::{explore_semi_sync_dpor, DporConfig, DporError};
use rrfd_sims::explore::ExploreStats;
use rrfd_sims::semi_sync::{FairSemiSync, SemiSyncProcess, SemiSyncReport, SemiSyncSim};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Processes.
pub const N: usize = 3;
/// 2-step rounds each process runs before deciding.
pub const ROUNDS: u32 = 2;
/// Crashes the adversary may place.
pub const CRASHES: usize = 1;

/// The inputs of exploration `index` of a run with `seed`.
pub fn inputs(seed: u64, index: u64) -> Vec<Value> {
    (0..N).map(|p| instance_input(seed, index, p)).collect()
}

/// Termination (every correct process decided) and consensus on the
/// inputs.
pub fn check_report<P>(report: &SemiSyncReport<P>, inputs: &[Value]) -> Result<(), String>
where
    P: SemiSyncProcess<Output = Value>,
{
    if !report.all_correct_decided() {
        return Err(format!(
            "a correct process did not decide (crashed {:?})",
            report.crashed
        ));
    }
    let outputs: Vec<Option<Value>> = report
        .outputs
        .iter()
        .map(|o| o.as_ref().map(|&(v, _)| v))
        .collect();
    KSetAgreement::consensus()
        .check(inputs, &outputs)
        .map_err(|v| v.to_string())
}

/// One exploration's outcome.
#[derive(Debug)]
pub struct Explored {
    /// The explorer's statistics; `None` when it failed to finish.
    pub stats: Option<ExploreStats>,
    /// Classes explored (the attempted operations).
    pub classes: u64,
    /// Classes whose run failed the check, plus one for a panic or a
    /// counterexample the check did not see.
    pub failures: Vec<String>,
}

fn explore_with<P>(
    sim: &SemiSyncSim,
    make: impl Fn() -> Vec<P>,
    inputs: &[Value],
    workers: usize,
    traced: bool,
) -> Explored
where
    P: SemiSyncProcess<Output = Value> + Clone + Send + Sync,
    P::Msg: Send + Sync,
{
    let failed = AtomicU64::new(0);
    let check = |report: &SemiSyncReport<P>| {
        maybe_timed(traced, Layer::Check, || {
            let verdict = check_report(report, inputs);
            if verdict.is_err() {
                failed.fetch_add(1, Ordering::Relaxed);
            }
            verdict
        })
    };
    let make = || maybe_timed(traced, Layer::Make, &make);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        explore_semi_sync_dpor(sim, CRASHES, make, check, &DporConfig::new(workers))
    }));
    let failed = failed.load(Ordering::Relaxed);
    let mut failures: Vec<String> = (0..failed)
        .map(|i| format!("class check failure {i} on inputs {inputs:?}"))
        .collect();
    match outcome {
        Ok(Ok(stats)) => Explored {
            stats: Some(stats),
            classes: stats.schedules as u64,
            failures,
        },
        Ok(Err(DporError::Counterexample(cex))) => {
            if failures.is_empty() {
                failures.push(format!("counterexample on inputs {inputs:?}"));
            }
            Explored {
                stats: None,
                classes: cex.stats.schedules as u64,
                failures,
            }
        }
        Ok(Err(other)) => Explored {
            stats: None,
            classes: 1,
            failures: vec![format!("exploration failed: {other:?}")],
        },
        Err(_) => Explored {
            stats: None,
            classes: 1,
            failures: vec![format!("exploration panicked on inputs {inputs:?}")],
        },
    }
}

/// The processes of an exploration on `inputs`.
fn processes(inputs: &[Value]) -> Vec<RepeatedRounds> {
    let n = sim_size();
    n.processes()
        .map(|p| RepeatedRounds::new(n, p, inputs[p.index()], ROUNDS))
        .collect()
}

/// Explores the workload's space on `inputs`.
pub fn explore(sim: &SemiSyncSim, inputs: &[Value], workers: usize, traced: bool) -> Explored {
    let processes = || processes(inputs);
    if traced {
        let wrapped = || processes().into_iter().map(Timed).collect::<Vec<_>>();
        explore_with(sim, wrapped, inputs, workers, true)
    } else {
        explore_with(sim, processes, inputs, workers, false)
    }
}

fn sim_size() -> SystemSize {
    SystemSize::new(N).expect("N is a valid system size")
}

/// The worker-count-independent part of the statistics: what must repeat
/// exactly across explorations of one configuration.
fn projection(stats: &ExploreStats) -> (usize, u64, u64, u64) {
    (
        stats.schedules,
        stats.graphs_explored,
        stats.revisits,
        stats.sleep_set_blocked,
    )
}

/// Verifies one exploration and checks its class structure against the
/// first one of the run (the structure does not depend on input values).
fn record(tally: &mut Tally, reference: &mut Option<ExploreStats>, explored: Explored) {
    let mut failures = explored.failures;
    if let Some(stats) = explored.stats {
        match reference {
            Some(first) if projection(first) != projection(&stats) => failures.push(format!(
                "exploration statistics {:?} differ from {:?}",
                projection(&stats),
                projection(first)
            )),
            Some(_) => {}
            None => *reference = Some(stats),
        }
    }
    tally.record(explored.classes, failures);
}

/// The set-up of exploration `index`: the simulator, the processes, and
/// the explorer's initial state — one complete fair run, the execution the
/// search starts from.
fn setup_of(seed: u64, index: u64) -> impl FnMut() -> SemiSyncReport<RepeatedRounds> {
    move || {
        SemiSyncSim::new(sim_size())
            .run(processes(&inputs(seed, index)), &mut FairSemiSync::new())
            .expect("the fair run of RepeatedRounds completes")
    }
}

/// The untraced closed loop.
pub fn end_to_end(ctx: &Ctx, tally: &mut Tally) -> Vec<Metric> {
    let sim = SemiSyncSim::new(sim_size());
    let mut reference = None;
    record(
        tally,
        &mut reference,
        explore(&sim, &inputs(ctx.seed, 0), nproc(), false),
    );
    let mut setup = Setup::calibrate(&mut setup_of(ctx.seed, 0));
    let mut samples = Samples::default();
    let deadline = Instant::now() + ctx.duration();
    let mut index = 1;
    while Instant::now() < deadline || samples.len() < 3 {
        setup.sample(&mut setup_of(ctx.seed, index));
        let inputs = inputs(ctx.seed, index);
        let start = Instant::now();
        let explored = explore(&sim, &inputs, nproc(), false);
        samples.push(start.elapsed().as_secs_f64());
        record(tally, &mut reference, explored);
        index += 1;
    }
    samples.metrics(&setup)
}

/// The traced section: untraced explorations at `nproc` and at one
/// worker, then one at one worker with the processes, `check` and `make`
/// wrapped.
///
/// The explorer's own work has no trait to wrap, so `dpor.self` is the
/// traced wall time minus the wrapped layers. The accounting is checked
/// against the process's CPU time over the same explorations, which the
/// ledger does not produce; the two disagree when a layer is charged twice
/// or work runs on threads the frames do not see. The wrapped exploration
/// runs on one worker: there CPU and wall time agree, while at `nproc` the
/// workers spend part of their wall time off the CPU, waiting on the
/// explorer's shared state (about 18% at two workers on a 2-vCPU host),
/// which a wall-time remainder cannot tell from work. `dpor.scaling_x`
/// shows that cost.
pub fn trace(ctx: &Ctx, budget: Duration, tally: &mut Tally) -> Section {
    let sim = SemiSyncSim::new(sim_size());
    let workers = nproc();
    let mut reference = None;
    let (mut all_s, mut one_s, mut traced_s, mut cpu) = (0.0, 0.0, 0.0, 0.0);
    let (mut classes, mut steals, mut revisits, mut blocked) = (0u64, 0u64, 0u64, 0u64);
    let mut explorations = 0u64;
    let mut totals = Totals::default();
    let deadline = Instant::now() + budget;
    let mut index = 0;
    while Instant::now() < deadline || explorations < 1 {
        let inputs = inputs(ctx.seed, index);
        index += 1;
        let start = Instant::now();
        let all = explore(&sim, &inputs, workers, false);
        let tall = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let one = explore(&sim, &inputs, 1, false);
        let tone = start.elapsed().as_secs_f64();
        let before = Totals::now();
        let cpu_before = cpu_ns();
        let start = Instant::now();
        let wrapped = explore(&sim, &inputs, 1, true);
        let ttraced = start.elapsed().as_secs_f64();
        let tcpu = cpu_ns() - cpu_before;
        let charged = Totals::now().since(&before);

        let stats = all.stats;
        let traced_classes = wrapped.classes;
        record(tally, &mut reference, all);
        record(tally, &mut reference, one);
        record(tally, &mut reference, wrapped);
        if let Some(stats) = stats {
            all_s += tall;
            one_s += tone;
            traced_s += ttraced;
            cpu += tcpu;
            classes += traced_classes;
            steals += stats.steals;
            revisits += stats.revisits;
            blocked += stats.sleep_set_blocked;
            explorations += 1;
            totals.add(&charged);
        }
    }
    let c = classes as f64;
    let children = totals.self_sum_ns();
    let self_ns = (traced_s * 1e9 - children).max(0.0);
    Section {
        metrics: vec![
            Metric::new(
                "sims.step_ns_per_class",
                totals.self_ns(Layer::SemiStep) / c,
                "ns",
            ),
            Metric::new(
                "sims.steps_per_class",
                totals.calls(Layer::SemiStep) / c,
                "count",
            ),
            Metric::new(
                "sims.check_ns_per_class",
                totals.self_ns(Layer::Check) / c,
                "ns",
            ),
            Metric::new("dpor.self_ns_per_class", self_ns / c, "ns"),
            Metric::new("dpor.useful_frac", c / (c + blocked as f64), "frac"),
            Metric::new("dpor.revisits_per_class", revisits as f64 / c, "count"),
            Metric::new("dpor.steals", steals as f64 / explorations as f64, "count"),
            Metric::new("dpor.scaling_x", one_s / all_s, "x"),
        ],
        overhead_x: traced_s / one_s,
        layer_sum_frac: (children + self_ns) / cpu,
    }
}
