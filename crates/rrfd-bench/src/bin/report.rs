//! The machine-readable bench reporter and the repo's one timing path:
//! times one cell of every entry of the experiment registry
//! (`rrfd_bench::registry`: E1–E18, `explore`, `submodel` and the
//! ablations) — the entry's timed row at seed 0, a point of its own
//! table — as median / p95 wall nanoseconds, failing unless the entry's
//! claim holds on every sample. One instrumented run captures each row's
//! `rrfd_*` metric totals. Everything is written as `BENCH_rrfd.json`
//! (format `rrfd-bench v1`), stamped once with the host's core count,
//! its parallelism control and the build profile.
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
//! must be exactly the registry's entries, in order. The report also
//! includes an `overhead` section comparing the same engine workload
//! uninstrumented, with the no-op recorder, and with the sharded
//! recorder — the "disabled instrumentation is free" claim as a number;
//! `--assert-overhead X` turns that claim into an exit code by failing
//! when the triple leaves the envelope (noop and sharded both within `X`×
//! of baseline). A `conformance` section reports live zoo conformance at
//! batch scale with every online verdict cross-checked against offline
//! prefix replay.

use rrfd_analyze::lattice::{zoo, Lattice};
use rrfd_bench::{
    measure_conformance, measure_lattice, measure_throughput, quantile, registry,
    render_conformance_block, render_lattice_line, render_throughput_line,
};
use rrfd_core::{Engine, ProcessId, SystemSize};
use rrfd_engine_pool::MixSpec;
use rrfd_models::adversary::RandomAdversary;
use rrfd_models::predicates::KUncertainty;
use rrfd_obs::{json, Obs};
use rrfd_protocols::kset::OneRoundKSet;
use rrfd_sims::dpor::{explore_shared_mem_dpor, DporConfig};
use rrfd_sims::shared_mem::{Action, MemProcess, Observation, SharedMemSim};
use std::collections::BTreeMap;
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
    samples: usize,
    median_ns: u64,
    p95_ns: u64,
}

/// Times the DPOR explorer on the [`RingFlood`] envelope, after pinning
/// its class count: the ring has exactly 63 Mazurkiewicz classes, so any
/// other count is a reduction bug.
fn measure_dpor(samples: usize) -> DporRow {
    let size = n(6);
    let sim = SharedMemSim::new(size, 3);
    let make = || {
        (0..6u8)
            .map(|id| RingFlood { id, n: 6, phase: 0 })
            .collect::<Vec<_>>()
    };
    let ok = |_: &_| Ok(());

    let config = DporConfig::new(1);
    let stats = explore_shared_mem_dpor(&sim, make, ok, &config).expect("dpor ring explore");
    assert_eq!(
        stats.schedules as u64, stats.graphs_explored,
        "every DPOR schedule is one maximal execution graph"
    );
    assert_eq!(stats.schedules, 63, "the ring has exactly 63 trace classes");
    let times = time_samples(samples, || {
        explore_shared_mem_dpor(&sim, make, ok, &config).expect("dpor ring explore");
    });
    DporRow {
        schedules: stats.schedules,
        revisits: stats.revisits,
        sleep_set_blocked: stats.sleep_set_blocked,
        samples,
        median_ns: quantile(&times, 0.5),
        p95_ns: quantile(&times, 0.95),
    }
}

/// The host's parallelism control: two independent CPU-bound jobs
/// (`Lattice::compute_compiled(zoo(3, 1), 4)` each) run one after the
/// other on one thread, against the same two on two threads, as the
/// ratio of the median times ×100. Near 200 the host runs two jobs in
/// parallel; near 100 it cannot, and no speedup the report shows for the
/// pool's shards can exceed what the host allows.
fn measure_parallel_x100(samples: usize) -> u64 {
    let job = || {
        std::hint::black_box(Lattice::compute_compiled(&zoo(n(3), 1), 4));
    };
    let serial = time_samples(samples, || {
        job();
        job();
    });
    let parallel = time_samples(samples, || {
        std::thread::scope(|scope| {
            scope.spawn(job);
            job();
        });
    });
    quantile(&serial, 0.5) * 100 / quantile(&parallel, 0.5).max(1)
}

struct ExperimentRow {
    name: &'static str,
    samples: usize,
    median_ns: u64,
    p95_ns: u64,
    metrics: BTreeMap<String, u64>,
}

fn run_report(quick: bool) -> Result<String, String> {
    let samples = if quick { 5 } else { 20 };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut rows = Vec::new();
    for experiment in registry::all() {
        let name = experiment.name;
        eprintln!("running {name} ({samples} samples)...");
        // The entry's timed cell at seed 0; every sample must uphold its
        // claim.
        let run = |obs: &Obs| match experiment.run_cell(experiment.timed, 0, obs) {
            Ok(cell) if cell.holds => Ok(()),
            Ok(_) => Err(format!("claim false: {}", experiment.claim)),
            Err(e) => Err(format!("run failed: {e}")),
        };
        let failed = |e: String| format!("{name} row {} seed 0: {e}", experiment.timed);
        // One instrumented run captures the metric totals; the timed
        // samples run with the no-op handle so the numbers reflect the
        // workload, not the recorder.
        let obs = Obs::logical();
        run(&obs).map_err(failed)?;
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for entry in obs.snapshot().entries() {
            if let rrfd_obs::MetricValue::Counter(v) = entry.value {
                *totals.entry(entry.metric.clone()).or_default() += v;
            }
        }
        let noop = Obs::noop();
        let mut verdict = Ok(());
        let times = time_samples(samples, || {
            if let Err(e) = run(&noop) {
                verdict = Err(e);
            }
        });
        verdict.map_err(failed)?;
        rows.push(ExperimentRow {
            name,
            samples,
            median_ns: quantile(&times, 0.5),
            p95_ns: quantile(&times, 0.95),
            metrics: totals,
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

    // The DPOR class explorer on the full-info ring.
    let explore_samples = if quick { 3 } else { 7 };
    eprintln!("measuring dpor explorer ({explore_samples} samples)...");
    let dpor = measure_dpor(explore_samples);

    eprintln!("measuring the host's parallelism control ({samples} samples per mode)...");
    let parallel_x100 = measure_parallel_x100(samples);

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
        "  \"host\": {{\"cores\": {cores}, \"parallel_x100\": {parallel_x100}, \
         \"profile\": \"{PROFILE}\"}},\n"
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
         \"samples\": {}, \"median_ns\": {}, \"p95_ns\": {}}},\n",
        dpor.schedules,
        dpor.revisits,
        dpor.sleep_set_blocked,
        dpor.samples,
        dpor.median_ns,
        dpor.p95_ns,
    ));
    out.push_str(&render_throughput_line(&throughput));
    out.push('\n');
    out.push_str(&render_conformance_block(&conformance));
    out.push('\n');
    out.push_str(&render_lattice_line(&lattice));
    out.push('\n');
    out.push_str("}\n");
    Ok(out)
}

/// The integer fields of the report's fixed sections.
const SECTIONS: [(&str, &str); 4] = [
    ("overhead", "baseline_ns noop_ns sharded_ns"),
    (
        "dpor",
        "schedules revisits sleep_set_blocked samples median_ns p95_ns",
    ),
    (
        "throughput",
        "instances shards completed errored rounds batch_ns one_shard_ns instances_per_sec \
         p99_round_ns speedup_x100",
    ),
    (
        "lattice",
        "n f pairwise_depth3_ns compiled_depth3_ns speedup_x100 depth4_cold_ns \
         conformance_compiled_ns_per_round",
    ),
];

/// Checks that `object` carries every one of the space-separated
/// `fields` as an integer.
fn integers(object: &json::Json, what: &str, fields: &str) -> Result<(), String> {
    for field in fields.split_whitespace() {
        object
            .get(field)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("{what}: missing integer `{field}`"))?;
    }
    Ok(())
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
    integers(host, "host", "parallel_x100")?;
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
        let what = format!("experiment {name:?}");
        integers(entry, &what, "samples median_ns p95_ns")?;
        let Some(json::Json::Obj(metrics)) = entry.get("metrics") else {
            return Err(format!("{what}: missing object `metrics`"));
        };
        if let Some((metric, _)) = metrics.iter().find(|(_, total)| total.as_u64().is_none()) {
            return Err(format!("{what}: metric {metric:?} total is not an integer"));
        }
    }
    // The rows are exactly the registry's entries, in order: a dropped or
    // renamed row fails the check instead of silently leaving the report.
    let registry = registry::all();
    let expected: Vec<&str> = registry.iter().map(|e| e.name).collect();
    let rows = names.len().max(expected.len());
    if let Some(i) = (0..rows).find(|&i| names.get(i) != expected.get(i)) {
        let [found, wanted] =
            [&names, &expected].map(|list| list.get(i).copied().unwrap_or("none"));
        return Err(format!(
            "experiment row {i} is {found:?}, expected {wanted:?}: the rows must be the \
             registry's entries, in order"
        ));
    }
    for (section, fields) in SECTIONS {
        let object = root
            .get(section)
            .ok_or_else(|| format!("missing object `{section}`"))?;
        integers(object, section, fields)?;
    }
    let mix = root.get("throughput").and_then(|t| t.get("mix"));
    mix.and_then(json::Json::as_str)
        .ok_or("throughput: missing string `mix`")?;
    let conformance = root
        .get("conformance")
        .ok_or("missing object `conformance`")?;
    integers(conformance, "conformance", "zoo_size checked")?;
    conformance
        .get("online_offline_agree")
        .and_then(json::Json::as_bool)
        .ok_or("conformance: missing bool `online_offline_agree`")?;
    let classes = conformance
        .get("classes")
        .and_then(json::Json::as_array)
        .filter(|classes| !classes.is_empty())
        .ok_or("conformance: missing or empty array `classes`")?;
    for (i, entry) in classes.iter().enumerate() {
        let what = format!("conformance class {i}");
        entry
            .get("class")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("{what}: missing string `class`"))?;
        integers(entry, &what, "instances clean")?;
        entry
            .get("worst_rank")
            .and_then(json::Json::as_i64)
            .ok_or_else(|| format!("{what}: missing integer `worst_rank`"))?;
        if !matches!(entry.get("worst_name"), Some(v) if v.as_str().is_some() || *v == json::Json::Null)
        {
            return Err(format!("{what}: `worst_name` must be a string or null"));
        }
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

    let report = match run_report(quick) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
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
    fn the_schema_rows_are_the_registry_names() {
        let root = json::parse(COMMITTED).expect("committed BENCH_rrfd.json parses");
        let rows = root.get("experiments").and_then(json::Json::as_array);
        let names = rows.into_iter().flatten().map(|row| row.get("name"));
        let names: Vec<&str> = names
            .filter_map(|n| n.and_then(json::Json::as_str))
            .collect();
        let registry: Vec<&str> = registry::all().iter().map(|e| e.name).collect();
        assert_eq!(names, registry);
    }

    #[test]
    fn a_report_missing_one_row_fails_its_schema() {
        let dropped = without_line_containing(COMMITTED, "\"name\": \"e6\"");
        let err = check_schema(&dropped).expect_err("a dropped row must fail");
        assert!(err.contains("expected \"e6\""), "{err}");
    }

    #[test]
    fn a_host_stamp_without_its_parallelism_control_fails_its_schema() {
        assert!(COMMITTED.contains("\"parallel_x100\": "));
        let uncontrolled = COMMITTED.replace("\"parallel_x100\": ", "\"parallel\": ");
        let err = check_schema(&uncontrolled).expect_err("a host stamp needs parallel_x100");
        assert!(
            err.contains("host: missing integer `parallel_x100`"),
            "{err}"
        );
    }

    #[test]
    fn a_report_without_its_host_stamp_fails_its_schema() {
        let unstamped = without_line_containing(COMMITTED, "\"host\": {");
        let err = check_schema(&unstamped).expect_err("a missing host stamp must fail");
        assert!(err.contains("host"), "{err}");
    }
}
