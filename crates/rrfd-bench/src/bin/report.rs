//! The machine-readable bench reporter and the repo's one timing path:
//! runs one workload per experiment (E1–E17) and per ablation, at one
//! representative point each, timing it (median / p95 wall nanoseconds)
//! and capturing its `rrfd_*` metric totals from one instrumented run,
//! then writes everything as `BENCH_rrfd.json` (format `rrfd-bench v1`),
//! stamped once with the host's core count and build profile.
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
//! workload: the host stamp must be present, and the `experiments` rows
//! must be exactly the report's workloads, in order. The report also
//! includes an `overhead` section comparing the same engine workload
//! uninstrumented, with the no-op recorder, and with the sharded
//! recorder — the "disabled instrumentation is free" claim as a number; `--assert-overhead X` turns that claim into an exit code by
//! failing when the triple leaves the envelope (noop and sharded both
//! within `X`× of baseline). A `conformance` section reports
//! live zoo conformance at batch scale with every online verdict
//! cross-checked against offline prefix replay.

use rrfd_bench::{
    measure_conformance, measure_lattice, measure_throughput, quantile, render_conformance_block,
    render_lattice_line, render_throughput_line, RunFor,
};
use rrfd_core::{
    validate_round, AnyPattern, Engine, FaultDetector, FaultPattern, IdSet, KnowledgeProtocol,
    ProcessId, ProgramBatch, Round, RoundProtocol, RrfdPredicate, SystemSize,
};
use rrfd_engine_pool::MixSpec;
use rrfd_models::adversary::{
    NoFailures, RandomAdversary, RingMiss, SampleModel, SilencingCrash, StaggeredCrash,
};
use rrfd_models::predicates::{
    AsyncResilient, Crash, DetectorS, KUncertainty, SendOmission, Snapshot, Swmr, SystemB,
};
use rrfd_obs::{json, Obs};
use rrfd_protocols::adopt_commit::run_adopt_commit;
use rrfd_protocols::detector_from_kset::build_detector_pattern;
use rrfd_protocols::early_stopping::EarlyStoppingConsensus;
use rrfd_protocols::equivalence::{
    majority_echo_pattern, rounds_until_known_by_all, system_b_echo_pattern,
};
use rrfd_protocols::kset::{FloodMin, OneRoundKSet, SnapshotKSet};
use rrfd_protocols::s_consensus::SRotatingConsensus;
use rrfd_protocols::semi_sync_consensus::TwoStepConsensus;
use rrfd_protocols::sync_sim::{run_as_omission, run_crash_simulation};
use rrfd_runtime::ThreadedEngine;
use rrfd_sims::detector_s::SAugmentedSystem;
use rrfd_sims::dpor::{explore_shared_mem_dpor, DporConfig};
use rrfd_sims::instrument::Instrumented;
use rrfd_sims::semi_sync::SemiSyncSim;
use rrfd_sims::shared_mem::{Action, MemProcess, Observation, SharedMemSim};
use rrfd_sims::step::RandomScheduler;
use rrfd_sims::sync_net::{RandomCrash, RandomOmission, SyncNetSim};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

const FORMAT: &str = "rrfd-bench v1";
const SEED: u64 = 0x5EED_CAFE_F00D_0002;
/// The build profile the report was measured under, for its host stamp.
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).expect("valid size")
}

fn inputs(count: usize) -> Vec<u64> {
    (0..count as u64).map(|i| 1000 + i).collect()
}

/// One experiment or ablation row: a name plus a closure that runs it once,
/// recording into `obs` wherever the substrate has an instrumentation
/// seam (engine and runtime builders, scheduler wrapper). Each run
/// asserts its experiment's claim, so every timed sample is also a check.
struct Workload {
    name: &'static str,
    run: Box<dyn FnMut(&Obs)>,
}

fn workload(name: &'static str, run: impl FnMut(&Obs) + 'static) -> Workload {
    let run = Box::new(run);
    Workload { name, run }
}

/// How many times a micro row runs its body per sample, so that a
/// nanosecond-scale body is timed well above the clock's resolution. The
/// count is part of the row's name (`_x1000`).
const MICRO_LOOPS: usize = 1000;

/// The per-round validation ablation: `model`'s compiled batch admitting
/// one sampled round as the first of a fresh run, [`MICRO_LOOPS`] times
/// per sample.
fn validate_row<M>(name: &'static str, model: M) -> Workload
where
    M: RrfdPredicate + SampleModel + Clone + 'static,
{
    let size = model.system_size();
    let round = RandomAdversary::new(model.clone(), SEED)
        .next_round(Round::FIRST, &FaultPattern::new(size));
    let mut batch = ProgramBatch::of(&model);
    workload(name, move |_| {
        for _ in 0..MICRO_LOOPS {
            batch.reset();
            validate_round(&model, &mut batch, black_box(&round)).expect("sampled round admitted");
        }
    })
}

/// Runs `protos` on the round engine against `adv` under `model`,
/// recording into `obs`; the run must end with every process decided.
fn run_engine<P: RoundProtocol>(
    protos: Vec<P>,
    adv: &mut impl FaultDetector,
    model: &impl RrfdPredicate,
    obs: &Obs,
) {
    Engine::new(model.system_size())
        .obs(obs.clone())
        .run(protos, adv, model)
        .expect("every process decides");
}

/// Runs `protos` failure-free, for the full-information ablation pair.
fn run_failure_free<P: RoundProtocol>(size: SystemSize, protos: Vec<P>, obs: &Obs) {
    run_engine(
        protos,
        &mut NoFailures::new(size),
        &AnyPattern::new(size),
        obs,
    );
}

fn workloads() -> Vec<Workload> {
    vec![
        workload("e1_model_maps", |_| {
            let nv = 16;
            let size = n(nv);
            let faulty: IdSet = (0..nv / 4).map(ProcessId::new).collect();
            let run_for = || (0..nv).map(|_| RunFor(6)).collect::<Vec<_>>();
            let omission = SyncNetSim::new(size)
                .run(run_for(), RandomOmission::new(size, faulty, 0.4, SEED))
                .expect("e1 omission run");
            assert!(SendOmission::new(size, nv / 4).admits_pattern(&omission.pattern));
            let crash = SyncNetSim::new(size)
                .run(run_for(), RandomCrash::new(size, faulty, 4, SEED))
                .expect("e1 crash run");
            assert!(Crash::new(size, nv / 4).admits_pattern(&crash.pattern));
            let mut sys = SAugmentedSystem::random(size, 4, SEED);
            let model = DetectorS::new(size);
            let mut history = FaultPattern::new(size);
            for r in 1..=8 {
                let round = sys.next_round(Round::new(r), &history);
                assert!(model.admits(&history, &round), "S admits round {r}");
                history.push(round);
            }
        }),
        workload("e2_system_b", |_| {
            let (size, f, t) = (n(11), 2usize, 5usize);
            let mut adv = RandomAdversary::new(SystemB::new(size, f, t), SEED);
            let (_, max_miss) = system_b_echo_pattern(size, f, t, &mut adv, 6);
            assert!(max_miss <= t, "echo misses at most t per round");
        }),
        workload("e3_one_round_kset", |obs| {
            let size = n(8);
            let (k, ins) = (2usize, inputs(8));
            let model = KUncertainty::new(size, k);
            let protos: Vec<_> = ins.iter().map(|&v| OneRoundKSet::new(v)).collect();
            let mut adv = RandomAdversary::new(model, SEED);
            run_engine(protos, &mut adv, &model, obs);
        }),
        workload("e4_snapshot_kset", |obs| {
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
        workload("e5_detector_from_kset", |obs| {
            let (size, k) = (n(8), 2usize);
            let mut sched = Instrumented::new(RandomScheduler::new(SEED, 0), obs.clone());
            let pattern = build_detector_pattern(size, k, 4, SEED, &mut sched).expect("e5 run");
            assert!(KUncertainty::new(size, k).admits_pattern(&pattern));
        }),
        workload("e6_omission_sim", |_| {
            let (size, f, k) = (n(16), 9usize, 3usize);
            let protos: Vec<_> = inputs(16)
                .iter()
                .map(|&v| FloodMin::new(v, (f / k) as u32))
                .collect();
            let mut adv = RandomAdversary::new(Snapshot::new(size, k), SEED);
            let report = run_as_omission(size, f, k, protos, &mut adv).expect("e6 run");
            assert!(
                report.omission_certified,
                "snapshot rounds certify as omission"
            );
        }),
        workload("e7_adopt_commit", |obs| {
            let size = n(8);
            let ins: Vec<u64> = (0..8).collect();
            let mut sched = Instrumented::new(RandomScheduler::new(SEED, 0), obs.clone());
            run_adopt_commit(size, &ins, &mut sched).expect("e7 run");
        }),
        workload("e8_crash_sim", |obs| {
            let (size, f, k) = (n(8), 4usize, 2usize);
            let budget = (f / k) as u32;
            let protos: Vec<_> = inputs(8)
                .iter()
                .map(|&v| FloodMin::new(v, budget))
                .collect();
            let mut sched =
                Instrumented::new(RandomScheduler::new(SEED, k).crash_prob(0.01), obs.clone());
            let report =
                run_crash_simulation(size, k, f, budget, protos, &mut sched).expect("e8 run");
            assert!(report.crash_certified, "simulated rounds certify as crash");
        }),
        workload("e9_lower_bound", |obs| {
            let size = n(10);
            let (f, k) = (4usize, 2usize);
            let model = Crash::new(size, f);
            let protos: Vec<_> = (0..10u64)
                .map(|v| FloodMin::new(v, (f / k) as u32 + 1))
                .collect();
            let mut adv = SilencingCrash::new(size, f, k);
            run_engine(protos, &mut adv, &model, obs);
        }),
        workload("e10_semi_sync", |obs| {
            let size = n(8);
            let ins = inputs(8);
            let procs: Vec<_> = size
                .processes()
                .map(|p| TwoStepConsensus::new(size, p, ins[p.index()]))
                .collect();
            let mut sched =
                Instrumented::new(RandomScheduler::new(SEED, 7).crash_prob(0.05), obs.clone());
            SemiSyncSim::new(size)
                .run(procs, &mut sched)
                .expect("e10 run");
        }),
        workload("e11_swmr_emulation", |_| {
            let (nv, f) = (9u32, 4usize);
            let size = n(nv as usize);
            let mut adv = RandomAdversary::new(AsyncResilient::new(size, f), SEED);
            let sim = majority_echo_pattern(size, f, &mut adv, 4);
            assert!(Swmr::new(size, f).admits_pattern(&sim));
            rounds_until_known_by_all(size, &mut RingMiss::new(size), 2 * nv)
                .expect("ring gossip is bounded by n");
        }),
        workload("e13_runtime", |obs| {
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
        workload("e16_s_consensus", |obs| {
            let size = n(6);
            let ins = inputs(6);
            let model = DetectorS::new(size);
            let protos: Vec<_> = ins
                .iter()
                .map(|&v| SRotatingConsensus::new(size, v))
                .collect();
            let mut adv = RandomAdversary::new(model, SEED);
            run_engine(protos, &mut adv, &model, obs);
        }),
        workload("e17_early_stopping", |obs| {
            let size = n(10);
            let f = 5usize;
            let model = Crash::new(size, f);
            let protos: Vec<_> = (0..10u64)
                .map(|v| EarlyStoppingConsensus::new(v, f))
                .collect();
            let mut adv = StaggeredCrash::new(size, 3);
            run_engine(protos, &mut adv, &model, obs);
        }),
        // Ablations (DESIGN.md §7), as paired rows. What the engine's
        // per-round validation costs, on a snapshot and a crash model...
        validate_row("ablation_validate_snapshot_x1000", Snapshot::new(n(64), 16)),
        validate_row("ablation_validate_crash_x1000", Crash::new(n(64), 16)),
        // ...and full-information relaying (the whole knowledge state per
        // message) against compact flood-min messages, at equal rounds.
        workload("ablation_full_info", |obs| {
            let size = n(16);
            let protos: Vec<_> = size
                .processes()
                .map(|p| KnowledgeProtocol::new(size, p, p.index() as u64, 4))
                .collect();
            run_failure_free(size, protos, obs);
        }),
        workload("ablation_compact", |obs| {
            let size = n(16);
            let protos: Vec<_> = (0..16u64).map(|v| FloodMin::new(v, 4)).collect();
            run_failure_free(size, protos, obs);
        }),
    ]
}

/// Times `run` `samples` times, returning sorted elapsed nanoseconds.
fn time_samples(samples: usize, mut run: impl FnMut()) -> Vec<u64> {
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
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut rows = Vec::new();
    for mut workload in workloads() {
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
    out.push_str(&format!(
        "  \"host\": {{\"cores\": {cores}, \"profile\": \"{PROFILE}\"}},\n"
    ));
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
    let host = root.get("host").ok_or("missing object `host`")?;
    let cores = host.get("cores").and_then(json::Json::as_u64);
    let profile = host.get("profile").and_then(json::Json::as_str);
    if cores.is_none_or(|c| c == 0) || !matches!(profile, Some("release" | "debug")) {
        return Err(format!(
            "host: want a positive `cores` and a \"release\" or \"debug\" `profile`, \
             got {cores:?} and {profile:?}"
        ));
    }
    let experiments = root
        .get("experiments")
        .and_then(json::Json::as_array)
        .ok_or("missing array field `experiments`")?;
    let mut names = Vec::with_capacity(experiments.len());
    for (i, entry) in experiments.iter().enumerate() {
        let name = entry
            .get("name")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("experiment {i}: missing string `name`"))?;
        names.push(name);
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
    // The rows are exactly the report's workloads, in order: a dropped or
    // renamed row fails the check instead of silently leaving the report.
    let expected: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    let rows = names.len().max(expected.len());
    if let Some(i) = (0..rows).find(|&i| names.get(i) != expected.get(i)) {
        let [found, wanted] =
            [&names, &expected].map(|list| list.get(i).copied().unwrap_or("none"));
        return Err(format!(
            "experiment row {i} is {found:?}, expected {wanted:?}: the rows must be the \
             report's workloads, in order"
        ));
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

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../BENCH_rrfd.json");

    fn without_line_containing(text: &str, needle: &str) -> String {
        let kept: Vec<&str> = text.lines().filter(|l| !l.contains(needle)).collect();
        assert!(kept.len() < text.lines().count(), "{needle:?} not found");
        kept.join("\n")
    }

    #[test]
    fn the_committed_report_passes_its_schema() {
        check_schema(COMMITTED).expect("committed BENCH_rrfd.json is valid");
    }

    #[test]
    fn a_report_missing_one_row_fails_its_schema() {
        let dropped = without_line_containing(COMMITTED, "\"name\": \"e6_omission_sim\"");
        let err = check_schema(&dropped).expect_err("a dropped row must fail");
        assert!(err.contains("expected \"e6_omission_sim\""), "{err}");
    }

    #[test]
    fn a_report_without_its_host_stamp_fails_its_schema() {
        let unstamped = without_line_containing(COMMITTED, "\"host\": {");
        let err = check_schema(&unstamped).expect_err("a missing host stamp must fail");
        assert!(err.contains("host"), "{err}");
    }
}
