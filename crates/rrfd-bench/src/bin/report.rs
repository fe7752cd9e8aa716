//! The machine-readable bench reporter: runs a compact E-series workload
//! sweep, timing each experiment (median / p95 wall nanoseconds) and
//! capturing its `rrfd_*` metric totals from one instrumented run, then
//! writes everything as `BENCH_rrfd.json` (format `rrfd-bench v1`).
//!
//! ```text
//! cargo run -p rrfd-bench --bin report --release -- \
//!     [--quick] [--out PATH] [--assert-overhead X]
//! cargo run -p rrfd-bench --bin report -- --check-schema PATH
//! ```
//!
//! `--quick` shrinks sample counts for CI smoke runs; `--check-schema`
//! validates an existing report file against the `rrfd-bench v1` schema
//! (via the dependency-free `rrfd_obs::json` reader) without running any
//! workload. The report also includes an `overhead` section comparing the
//! same engine workload uninstrumented, with the no-op recorder, and with
//! the sharded recorder — the "disabled instrumentation is free" claim as
//! a number; `--assert-overhead X` turns that claim into an exit code by
//! failing when the triple leaves the envelope (noop and sharded both
//! within `X`× of baseline). A `conformance` section reports
//! live zoo conformance at batch scale with every online verdict
//! cross-checked against offline prefix replay.

use rrfd_bench::{
    measure_conformance, measure_lattice, measure_throughput, quantile, render_conformance_block,
    render_lattice_line, render_throughput_line,
};
use rrfd_core::{Engine, ProcessId, SystemSize};
use rrfd_engine_pool::MixSpec;
use rrfd_models::adversary::{RandomAdversary, SilencingCrash, StaggeredCrash};
use rrfd_models::predicates::{Crash, DetectorS, KUncertainty};
use rrfd_obs::{json, Obs};
use rrfd_protocols::adopt_commit::run_adopt_commit;
use rrfd_protocols::early_stopping::EarlyStoppingConsensus;
use rrfd_protocols::kset::{FloodMin, OneRoundKSet, SnapshotKSet};
use rrfd_protocols::s_consensus::SRotatingConsensus;
use rrfd_protocols::semi_sync_consensus::TwoStepConsensus;
use rrfd_runtime::ThreadedEngine;
use rrfd_sims::dpor::{explore_shared_mem_dpor, DporConfig};
use rrfd_sims::instrument::Instrumented;
use rrfd_sims::semi_sync::{RandomSemiSync, SemiSyncSim};
use rrfd_sims::shared_mem::{Action, MemProcess, Observation, RandomScheduler, SharedMemSim};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

const FORMAT: &str = "rrfd-bench v1";
const SEED: u64 = 0x5EED_CAFE_F00D_0002;

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).expect("valid size")
}

fn inputs(count: usize) -> Vec<u64> {
    (0..count as u64).map(|i| 1000 + i).collect()
}

/// One E-series workload: a name plus a closure that runs it once,
/// recording into `obs` wherever the substrate has an instrumentation
/// seam (engine and runtime builders, scheduler wrapper).
struct Workload {
    name: &'static str,
    run: Box<dyn Fn(&Obs)>,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "e3_one_round_kset",
            run: Box::new(|obs| {
                let size = n(8);
                let (k, ins) = (2usize, inputs(8));
                let model = KUncertainty::new(size, k);
                let protos: Vec<_> = ins.iter().map(|&v| OneRoundKSet::new(v)).collect();
                let mut adv = RandomAdversary::new(model, SEED);
                Engine::new(size)
                    .obs(obs.clone())
                    .run(protos, &mut adv, &model)
                    .expect("e3 run");
            }),
        },
        Workload {
            name: "e4_snapshot_kset",
            run: Box::new(|obs| {
                let size = n(8);
                let (k, ins) = (3usize, inputs(8));
                let procs: Vec<_> = ins.iter().map(|&v| SnapshotKSet::new(size, k, v)).collect();
                let mut sched = Instrumented::new(
                    RandomScheduler::new(SEED, k - 1).crash_prob(0.04),
                    obs.clone(),
                );
                SharedMemSim::new(size, 1)
                    .with_snapshots()
                    .run(procs, &mut sched)
                    .expect("e4 run");
            }),
        },
        Workload {
            name: "e7_adopt_commit",
            run: Box::new(|obs| {
                let size = n(8);
                let ins: Vec<u64> = (0..8).collect();
                let mut sched = Instrumented::new(RandomScheduler::new(SEED, 0), obs.clone());
                run_adopt_commit(size, &ins, &mut sched).expect("e7 run");
            }),
        },
        Workload {
            name: "e9_lower_bound",
            run: Box::new(|obs| {
                let size = n(10);
                let (f, k) = (4usize, 2usize);
                let model = Crash::new(size, f);
                let protos: Vec<_> = (0..10u64)
                    .map(|v| FloodMin::new(v, (f / k) as u32 + 1))
                    .collect();
                let mut adv = SilencingCrash::new(size, f, k);
                Engine::new(size)
                    .obs(obs.clone())
                    .run(protos, &mut adv, &model)
                    .expect("e9 run");
            }),
        },
        Workload {
            name: "e10_semi_sync",
            run: Box::new(|obs| {
                let size = n(8);
                let ins = inputs(8);
                let procs: Vec<_> = size
                    .processes()
                    .map(|p| TwoStepConsensus::new(size, p, ins[p.index()]))
                    .collect();
                let mut sched =
                    Instrumented::new(RandomSemiSync::new(SEED, 7).crash_prob(0.05), obs.clone());
                SemiSyncSim::new(size)
                    .run(procs, &mut sched)
                    .expect("e10 run");
            }),
        },
        Workload {
            name: "e13_runtime",
            run: Box::new(|obs| {
                let size = n(4);
                let (k, ins) = (2usize, inputs(4));
                let model = KUncertainty::new(size, k);
                let protos: Vec<_> = ins.iter().map(|&v| OneRoundKSet::new(v)).collect();
                let mut adv = RandomAdversary::new(model, SEED);
                ThreadedEngine::new(size)
                    .obs(obs.clone())
                    .run(protos, &mut adv, &model)
                    .expect("e13 run");
            }),
        },
        Workload {
            name: "e16_s_consensus",
            run: Box::new(|obs| {
                let size = n(6);
                let ins = inputs(6);
                let model = DetectorS::new(size);
                let protos: Vec<_> = ins
                    .iter()
                    .map(|&v| SRotatingConsensus::new(size, v))
                    .collect();
                let mut adv = RandomAdversary::new(model, SEED);
                Engine::new(size)
                    .obs(obs.clone())
                    .run(protos, &mut adv, &model)
                    .expect("e16 run");
            }),
        },
        Workload {
            name: "e17_early_stopping",
            run: Box::new(|obs| {
                let size = n(10);
                let f = 5usize;
                let model = Crash::new(size, f);
                let protos: Vec<_> = (0..10u64)
                    .map(|v| EarlyStoppingConsensus::new(v, f))
                    .collect();
                let mut adv = StaggeredCrash::new(size, 3);
                Engine::new(size)
                    .obs(obs.clone())
                    .run(protos, &mut adv, &model)
                    .expect("e17 run");
            }),
        },
    ]
}

/// Times `run` `samples` times, returning sorted elapsed nanoseconds.
fn time_samples(samples: usize, run: impl Fn()) -> Vec<u64> {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            run();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    times.sort_unstable();
    times
}

/// The DPOR workload: a full-information ring at `n = 6`.
/// Each process floods its value through three write rounds (one SWMR
/// bank per round), then reads its ring successor's final-round cell and
/// decides on what it saw. The 30-event schedule tree is astronomically
/// large (`30!/(5!)⁶` interleavings), but only the six write/read pairs
/// on the last bank conflict — so the DPOR explorer collapses the whole
/// tree into 63 Mazurkiewicz classes (the 2⁶ miss/see combinations minus
/// the all-miss one, which the ring makes cyclically infeasible).
#[derive(Debug, Clone)]
struct RingFlood {
    id: u8,
    n: u8,
    phase: u8,
}

impl MemProcess<u64> for RingFlood {
    type Output = u64;
    fn step(&mut self, obs: Observation<u64>) -> Action<u64, u64> {
        self.phase += 1;
        match obs {
            Observation::Start => Action::Write {
                bank: 0,
                value: u64::from(self.id),
            },
            Observation::Written if self.phase <= 3 => Action::Write {
                bank: usize::from(self.phase) - 1,
                value: u64::from(self.id),
            },
            Observation::Written => Action::Read {
                bank: 2,
                owner: ProcessId::new(usize::from((self.id + 1) % self.n)),
            },
            Observation::Value(v) => Action::Decide(v.unwrap_or(u64::MAX)),
            other => panic!("unexpected observation {other:?}"),
        }
    }
}

struct DporRow {
    schedules: usize,
    revisits: u64,
    sleep_set_blocked: u64,
    /// The host's core count: the second timed worker count.
    cores: usize,
    workers_1_ns: u64,
    workers_cores_ns: u64,
}

/// Times the DPOR explorer on the [`RingFlood`] envelope at 1 worker and
/// at the host's `cores` (never more workers than cores), after pinning
/// its class count: the ring has exactly 63 Mazurkiewicz classes, so any
/// other count is a reduction bug.
fn measure_dpor(samples: usize, cores: usize) -> DporRow {
    let size = n(6);
    let sim = SharedMemSim::new(size, 3);
    let make = || {
        (0..6u8)
            .map(|id| RingFlood { id, n: 6, phase: 0 })
            .collect::<Vec<_>>()
    };
    let ok = |_: &_| Ok(());

    let mut dpor_stats = None;
    let mut dpor_ns = |workers: usize| {
        let config = DporConfig::new(workers);
        let stats = explore_shared_mem_dpor(&sim, make, ok, &config).expect("dpor ring explore");
        assert_eq!(
            stats.schedules as u64, stats.graphs_explored,
            "every DPOR schedule is one maximal execution graph"
        );
        dpor_stats.get_or_insert(stats);
        quantile(
            &time_samples(samples, || {
                explore_shared_mem_dpor(&sim, make, ok, &config).expect("dpor ring explore");
            }),
            0.5,
        )
        .max(1)
    };
    let workers_1_ns = dpor_ns(1);
    let workers_cores_ns = dpor_ns(cores);
    let stats = dpor_stats.expect("dpor stats captured");
    assert_eq!(stats.schedules, 63, "the ring has exactly 63 trace classes");
    DporRow {
        schedules: stats.schedules,
        revisits: stats.revisits,
        sleep_set_blocked: stats.sleep_set_blocked,
        cores,
        workers_1_ns,
        workers_cores_ns,
    }
}

struct ExperimentRow {
    name: &'static str,
    samples: usize,
    median_ns: u64,
    p95_ns: u64,
    metrics: BTreeMap<String, u64>,
}

fn run_report(quick: bool) -> String {
    let samples = if quick { 5 } else { 20 };
    let mut rows = Vec::new();
    for workload in workloads() {
        eprintln!("running {} ({samples} samples)...", workload.name);
        // One instrumented run captures the metric totals; the timed
        // samples run with the no-op handle so the numbers reflect the
        // workload, not the recorder.
        let obs = Obs::logical();
        (workload.run)(&obs);
        let metrics: BTreeMap<String, u64> = {
            let snap = obs.snapshot();
            let mut totals: BTreeMap<String, u64> = BTreeMap::new();
            for entry in snap.entries() {
                if let rrfd_obs::MetricValue::Counter(v) = entry.value {
                    *totals.entry(entry.metric.clone()).or_default() += v;
                }
            }
            totals
        };
        let noop = Obs::noop();
        let times = time_samples(samples, || (workload.run)(&noop));
        rows.push(ExperimentRow {
            name: workload.name,
            samples,
            median_ns: quantile(&times, 0.5),
            p95_ns: quantile(&times, 0.95),
            metrics,
        });
    }

    // Overhead triple: the same engine workload uninstrumented, with the
    // no-op handle, and with the sharded recorder.
    eprintln!("measuring recorder overhead ({samples} samples per mode)...");
    let engine_workload = |obs: Option<Obs>| {
        let size = n(8);
        let model = KUncertainty::new(size, 2);
        let protos: Vec<_> = inputs(8).iter().map(|&v| OneRoundKSet::new(v)).collect();
        let mut adv = RandomAdversary::new(model, SEED);
        let mut engine = Engine::new(size);
        if let Some(obs) = obs {
            engine = engine.obs(obs);
        }
        engine.run(protos, &mut adv, &model).expect("overhead run");
    };
    let baseline = quantile(&time_samples(samples, || engine_workload(None)), 0.5);
    let noop = quantile(
        &time_samples(samples, || engine_workload(Some(Obs::noop()))),
        0.5,
    );
    let sharded = quantile(
        &time_samples(samples, || engine_workload(Some(Obs::logical()))),
        0.5,
    );

    // The DPOR class explorer on the full-info ring, at 1 worker and at
    // the host's core count.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let explore_samples = if quick { 3 } else { 7 };
    eprintln!(
        "measuring dpor explorer ({explore_samples} samples per cell, 1 and {cores} workers)..."
    );
    let dpor = measure_dpor(explore_samples, cores);

    // Batch throughput: the sharded pool against its own one-shard run on
    // the default tenant mix, on at most 4 shards and never more shards
    // than the host has cores. `serve` re-measures this section at
    // arbitrary scale and splices it back in.
    let tp_shards = cores.min(4);
    let tp_instances = if quick { 2_000 } else { 10_000 };
    eprintln!("measuring batch throughput ({tp_instances} instances, {tp_shards} shards)...");
    let throughput = measure_throughput(&MixSpec::default_mix(), tp_instances, tp_shards, SEED);

    // Zoo conformance at batch scale, with every online verdict
    // cross-checked against offline prefix replay of the captured trace.
    let conf_instances = if quick { 200 } else { 1_000 };
    eprintln!("measuring zoo conformance ({conf_instances} monitored instances)...");
    let conformance = measure_conformance(&MixSpec::default_mix(), conf_instances, tp_shards, SEED);

    // Compiled predicate plane: the shared-trie lattice against the
    // per-pair search, and per-round conformance cost. Asserts its own
    // speedup floor (10x at depth 3).
    eprintln!("measuring compiled-plane lattice speedups...");
    let lattice = measure_lattice(quick);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": \"{FORMAT}\",\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let metrics: Vec<String> = row
            .metrics
            .iter()
            .map(|(name, total)| format!("\"{}\": {total}", json::escape(name)))
            .collect();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"samples\": {}, \"median_ns\": {}, \"p95_ns\": {}, \
             \"metrics\": {{{}}}}}{}\n",
            json::escape(row.name),
            row.samples,
            row.median_ns,
            row.p95_ns,
            metrics.join(", "),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"overhead\": {{\"baseline_ns\": {baseline}, \"noop_ns\": {noop}, \
         \"sharded_ns\": {sharded}}},\n"
    ));
    out.push_str(&format!(
        "  \"dpor\": {{\"schedules\": {}, \"revisits\": {}, \"sleep_set_blocked\": {}, \
         \"cores\": {}, \"workers_1_ns\": {}, \"workers_cores_ns\": {}}},\n",
        dpor.schedules,
        dpor.revisits,
        dpor.sleep_set_blocked,
        dpor.cores,
        dpor.workers_1_ns,
        dpor.workers_cores_ns,
    ));
    out.push_str(&render_throughput_line(&throughput));
    out.push('\n');
    out.push_str(&render_conformance_block(&conformance));
    out.push('\n');
    out.push_str(&render_lattice_line(&lattice));
    out.push('\n');
    out.push_str("}\n");
    out
}

/// Validates `text` against the `rrfd-bench v1` schema.
fn check_schema(text: &str) -> Result<(), String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let format = root
        .get("format")
        .and_then(json::Json::as_str)
        .ok_or("missing string field `format`")?;
    if format != FORMAT {
        return Err(format!("format is {format:?}, expected {FORMAT:?}"));
    }
    root.get("quick")
        .and_then(json::Json::as_bool)
        .ok_or("missing bool field `quick`")?;
    let experiments = root
        .get("experiments")
        .and_then(json::Json::as_array)
        .ok_or("missing array field `experiments`")?;
    if experiments.is_empty() {
        return Err("`experiments` is empty".to_owned());
    }
    for (i, entry) in experiments.iter().enumerate() {
        let name = entry
            .get("name")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("experiment {i}: missing string `name`"))?;
        for field in ["samples", "median_ns", "p95_ns"] {
            entry
                .get(field)
                .and_then(json::Json::as_u64)
                .ok_or_else(|| format!("experiment {name:?}: missing integer `{field}`"))?;
        }
        let metrics = entry
            .get("metrics")
            .ok_or_else(|| format!("experiment {name:?}: missing object `metrics`"))?;
        let json::Json::Obj(fields) = metrics else {
            return Err(format!("experiment {name:?}: `metrics` is not an object"));
        };
        for (metric, total) in fields {
            if total.as_u64().is_none() {
                return Err(format!(
                    "experiment {name:?}: metric {metric:?} total is not an integer"
                ));
            }
        }
    }
    let overhead = root.get("overhead").ok_or("missing object `overhead`")?;
    for field in ["baseline_ns", "noop_ns", "sharded_ns"] {
        overhead
            .get(field)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("overhead: missing integer `{field}`"))?;
    }
    let dpor = root.get("dpor").ok_or("missing object `dpor`")?;
    for field in [
        "schedules",
        "revisits",
        "sleep_set_blocked",
        "cores",
        "workers_1_ns",
        "workers_cores_ns",
    ] {
        dpor.get(field)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("dpor: missing integer `{field}`"))?;
    }
    let throughput = root
        .get("throughput")
        .ok_or("missing object `throughput`")?;
    throughput
        .get("mix")
        .and_then(json::Json::as_str)
        .ok_or("throughput: missing string `mix`")?;
    for field in [
        "instances",
        "shards",
        "completed",
        "errored",
        "rounds",
        "batch_ns",
        "one_shard_ns",
        "instances_per_sec",
        "p99_round_ns",
        "speedup_x100",
    ] {
        throughput
            .get(field)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("throughput: missing integer `{field}`"))?;
    }
    let conformance = root
        .get("conformance")
        .ok_or("missing object `conformance`")?;
    for field in ["zoo_size", "checked"] {
        conformance
            .get(field)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("conformance: missing integer `{field}`"))?;
    }
    conformance
        .get("online_offline_agree")
        .and_then(json::Json::as_bool)
        .ok_or("conformance: missing bool `online_offline_agree`")?;
    let classes = conformance
        .get("classes")
        .and_then(json::Json::as_array)
        .ok_or("conformance: missing array `classes`")?;
    if classes.is_empty() {
        return Err("`conformance.classes` is empty".to_owned());
    }
    for (i, entry) in classes.iter().enumerate() {
        entry
            .get("class")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("conformance class {i}: missing string `class`"))?;
        for field in ["instances", "clean"] {
            entry
                .get(field)
                .and_then(json::Json::as_u64)
                .ok_or_else(|| format!("conformance class {i}: missing integer `{field}`"))?;
        }
        entry
            .get("worst_rank")
            .and_then(json::Json::as_i64)
            .ok_or_else(|| format!("conformance class {i}: missing integer `worst_rank`"))?;
        match entry.get("worst_name") {
            Some(json::Json::Null) => {}
            Some(v) if v.as_str().is_some() => {}
            _ => {
                return Err(format!(
                    "conformance class {i}: `worst_name` must be a string or null"
                ))
            }
        }
    }
    let lattice = root.get("lattice").ok_or("missing object `lattice`")?;
    for field in [
        "n",
        "f",
        "pairwise_depth3_ns",
        "compiled_depth3_ns",
        "speedup_x100",
        "depth4_cold_ns",
        "conformance_compiled_ns_per_round",
    ] {
        lattice
            .get(field)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("lattice: missing integer `{field}`"))?;
    }
    Ok(())
}

/// Asserts the report's overhead triple sits inside the envelope:
/// `noop_ns` within `factor`× of `baseline_ns` (disabled instrumentation
/// must be near-free; `factor` is slack for nanosecond-scale timer
/// noise), and `sharded_ns` within `factor`× too (the live recorder
/// buffers a run's samples and applies them to its dense store in one
/// flush, so a fully recorded run — recorder construction included —
/// stays within a small multiple of the bare one).
fn assert_overhead(text: &str, factor: u64) -> Result<(), String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let overhead = root.get("overhead").ok_or("missing object `overhead`")?;
    let field = |name: &str| {
        overhead
            .get(name)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("overhead: missing integer `{name}`"))
    };
    let baseline = field("baseline_ns")?.max(1);
    let noop = field("noop_ns")?;
    let sharded = field("sharded_ns")?;
    if noop > baseline * factor {
        return Err(format!(
            "noop recorder overhead out of envelope: {noop}ns vs {baseline}ns baseline \
             (allowed {factor}x)"
        ));
    }
    if sharded > baseline * factor {
        return Err(format!(
            "sharded recorder overhead out of envelope: {sharded}ns vs {baseline}ns baseline \
             (allowed {factor}x)"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let take_flag = |args: &mut Vec<String>, flag: &str| match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let take_value = |args: &mut Vec<String>, flag: &str| match args.iter().position(|a| a == flag)
    {
        Some(i) if i + 1 < args.len() => {
            args.remove(i);
            Some(args.remove(i))
        }
        Some(_) => Some(String::new()),
        None => None,
    };

    let quick = take_flag(&mut args, "--quick");
    let check = take_value(&mut args, "--check-schema");
    let assert_factor = take_value(&mut args, "--assert-overhead");
    let out = take_value(&mut args, "--out").unwrap_or_else(|| "BENCH_rrfd.json".to_owned());
    if let Some(extra) = args.first() {
        eprintln!("unexpected argument {extra:?}");
        eprintln!(
            "usage: report [--quick] [--out PATH] [--assert-overhead X] | \
             report --check-schema PATH"
        );
        return ExitCode::from(2);
    }
    let assert_factor: Option<u64> = match assert_factor {
        Some(v) => match v.parse() {
            Ok(f) if f > 0 => Some(f),
            _ => {
                eprintln!("--assert-overhead needs a positive integer factor, got {v:?}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    if let Some(path) = check {
        if path.is_empty() {
            eprintln!("--check-schema needs a value");
            return ExitCode::from(2);
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match check_schema(&text) {
            Ok(()) => {
                eprintln!("{path}: valid {FORMAT} report");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: schema check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let report = run_report(quick);
    if check_schema(&report).is_err() {
        eprintln!("internal error: generated report fails its own schema");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if let Some(factor) = assert_factor {
        if let Err(e) = assert_overhead(&report, factor) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        eprintln!("overhead triple within the {factor}x envelope");
    }
    ExitCode::SUCCESS
}
