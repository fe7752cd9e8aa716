//! The machine-readable bench reporter and the repo's one timing path:
//! times one cell of every entry of the experiment registry
//! (`rrfd_bench::registry`: E1–E18, `explore`, `submodel` and the
//! ablations) — the entry's timed row at seed 0, a point of its own
//! table — as median / p95 wall nanoseconds over the same samples,
//! failing unless the entry's claim holds on every sample. One
//! instrumented run captures each row's `rrfd_*` metric totals.
//! Everything is written as `BENCH_rrfd.json` (format `rrfd-bench v1`),
//! stamped once with the host's core count, its parallelism control and
//! the build profile, followed by the batch `throughput` and zoo
//! `conformance` sections.
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
//! must be exactly the registry's entries, in order.
//!
//! Two checks read the generated rows. The shared-trie lattice must stay
//! at least 10× faster than the per-pair search at depth 3
//! (`ablation_lattice_pairwise_d3` against `ablation_lattice_compiled_d3`),
//! or the report is not written. `--assert-overhead X` fails the run when
//! the fully recorded engine run (`ablation_overhead_recorded`, recorder
//! construction included) has a median above `X`× that of the same run
//! with the no-op handle (`ablation_overhead_noop`).

use rrfd_analyze::lattice::{zoo, Lattice};
use rrfd_bench::args::{positive, take_flag, take_value};
use rrfd_bench::{
    measure_conformance, measure_throughput, quantile, registry, render_conformance_block,
    render_throughput_line,
};
use rrfd_core::SystemSize;
use rrfd_engine_pool::MixSpec;
use rrfd_obs::{json, Obs};
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
/// The rows `--assert-overhead` compares: the same engine run with the
/// no-op handle and with a live recorder.
const OVERHEAD_ROWS: [&str; 2] = ["ablation_overhead_noop", "ablation_overhead_recorded"];
/// The rows of the depth-3 floor: the per-pair search and the shared-trie
/// walk.
const FLOOR_ROWS: [&str; 2] = [
    "ablation_lattice_pairwise_d3",
    "ablation_lattice_compiled_d3",
];
/// The integer fields of the `throughput` section.
const THROUGHPUT_FIELDS: &str = "instances shards completed errored rounds batch_ns \
     one_shard_ns instances_per_sec p99_round_ns speedup_x100";

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

/// The host's parallelism control: two independent CPU-bound jobs
/// (`Lattice::compute_compiled(zoo(3, 1), 4)` each) run one after the
/// other on one thread, against the same two on two threads, as the
/// ratio of the median times ×100. Near 200 the host runs two jobs in
/// parallel; near 100 it cannot, and no speedup the report shows for the
/// pool's shards can exceed what the host allows.
fn measure_parallel_x100(samples: usize) -> u64 {
    let family = zoo(SystemSize::new(3).expect("3 is a valid size"), 1);
    let job = || {
        std::hint::black_box(Lattice::compute_compiled(&family, 4));
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

    eprintln!("measuring the host's parallelism control ({samples} samples per mode)...");
    let parallel_x100 = measure_parallel_x100(samples);

    // Batch throughput: the sharded pool against its own one-shard run on
    // the default tenant mix, on at most 4 shards and never more shards
    // than the host has cores.
    let tp_shards = cores.min(4);
    let tp_instances = if quick { 2_000 } else { 10_000 };
    eprintln!("measuring batch throughput ({tp_instances} instances, {tp_shards} shards)...");
    let throughput = measure_throughput(&MixSpec::default_mix(), tp_instances, tp_shards, SEED);

    // Zoo conformance at batch scale, with every online verdict
    // cross-checked against offline prefix replay of the captured trace.
    let conf_instances = if quick { 200 } else { 1_000 };
    eprintln!("measuring zoo conformance ({conf_instances} monitored instances)...");
    let conformance = measure_conformance(&MixSpec::default_mix(), conf_instances, tp_shards, SEED);

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
    out.push_str(&render_throughput_line(&throughput));
    out.push('\n');
    out.push_str(&render_conformance_block(&conformance));
    out.push('\n');
    out.push_str("}\n");
    Ok(out)
}

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
    let throughput = root
        .get("throughput")
        .ok_or("missing object `throughput`")?;
    integers(throughput, "throughput", THROUGHPUT_FIELDS)?;
    throughput
        .get("mix")
        .and_then(json::Json::as_str)
        .ok_or("throughput: missing string `mix`")?;
    // A batch that completed instances ran rounds, so an empty merged
    // round-latency histogram means the p99 source recorded nothing.
    let field = |name| throughput.get(name).and_then(json::Json::as_u64);
    if field("completed") > Some(0) && field("p99_round_ns") == Some(0) {
        return Err("throughput: `p99_round_ns` is 0 although instances completed".to_owned());
    }
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

/// The `median_ns` of the rows `names` of the report `text`.
fn medians(text: &str, names: [&str; 2]) -> Result<[u64; 2], String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let rows = root
        .get("experiments")
        .and_then(json::Json::as_array)
        .ok_or("missing array field `experiments`")?;
    let median = |name: &str| {
        let row = rows
            .iter()
            .find(|row| row.get("name").and_then(json::Json::as_str) == Some(name));
        row.and_then(|row| row.get("median_ns"))
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("missing row `{name}`"))
    };
    Ok([median(names[0])?, median(names[1])?])
}

/// The compiled plane's floor: the shared-trie walk at depth 3 at least
/// 10× faster than the per-pair search, so a regression that melts the
/// ratio fails report generation instead of shipping a slower plane.
fn check_floor(text: &str) -> Result<(), String> {
    let [pairwise, compiled] = medians(text, FLOOR_ROWS)?;
    let speedup_x100 = pairwise * 100 / compiled.max(1);
    if speedup_x100 < 1_000 {
        let [pairwise_row, compiled_row] = FLOOR_ROWS;
        return Err(format!(
            "compiled depth-3 lattice fell under the 10x floor: {pairwise_row} {pairwise}ns vs \
             {compiled_row} {compiled}ns ({speedup_x100}/100x)"
        ));
    }
    Ok(())
}

/// Fails when the recorded engine run's median exceeds `factor`× the
/// no-op run's: the live recorder buffers a run's samples and applies
/// them in one flush, so a fully recorded run, recorder construction
/// included, stays within a small multiple of the bare one.
fn assert_overhead(text: &str, factor: u64) -> Result<(), String> {
    let [noop, recorded] = medians(text, OVERHEAD_ROWS)?;
    if recorded > noop.max(1) * factor {
        let [noop_row, recorded_row] = OVERHEAD_ROWS;
        return Err(format!(
            "recorder overhead out of envelope: {recorded_row} {recorded}ns vs {noop_row} \
             {noop}ns (allowed {factor}x)"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
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
    let assert_factor: Option<u64> = match assert_factor
        .map(|v| positive("--assert-overhead", &v))
        .transpose()
    {
        Ok(factor) => factor,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
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
    if let Err(e) = check_floor(&report) {
        eprintln!("{e}");
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
        eprintln!("recorder overhead within the {factor}x envelope");
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
        let rows = [
            "e6",
            "ablation_dpor_semisync",
            "ablation_lattice_pairwise_d3",
            "ablation_conformance_zoo_x1000",
            "ablation_overhead_noop",
        ];
        for name in rows {
            let dropped = without_line_containing(COMMITTED, &format!("\"name\": \"{name}\""));
            let err = check_schema(&dropped).expect_err("a dropped row must fail");
            assert!(err.contains(&format!("expected \"{name}\"")), "{err}");
        }
    }

    /// The committed report with the `median_ns` of row `name` set to
    /// `median`.
    fn with_median(name: &str, median: u64) -> String {
        let lines = COMMITTED.lines().map(|line| {
            if !line.contains(&format!("\"name\": \"{name}\"")) {
                return line.to_owned();
            }
            let at = line.find("\"median_ns\": ").expect("a row has a median");
            let digits = line[at..].find(',').expect("the median is not last");
            format!(
                "{}\"median_ns\": {median}{}",
                &line[..at],
                &line[at + digits..]
            )
        });
        lines.collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn the_committed_report_passes_its_overhead_and_floor_checks() {
        assert_overhead(COMMITTED, 4).expect("committed overhead within 4x");
        check_floor(COMMITTED).expect("committed lattice above the 10x floor");
    }

    #[test]
    fn a_recorded_run_above_the_factor_fails_the_overhead_check() {
        let [noop, _] = medians(COMMITTED, OVERHEAD_ROWS).expect("committed overhead rows");
        let slow = with_median("ablation_overhead_recorded", noop * 4 + 1);
        let err = assert_overhead(&slow, 4).expect_err("a 4x+ recorder must fail");
        for row in OVERHEAD_ROWS {
            assert!(err.contains(row), "{err}");
        }
        assert_overhead(&with_median("ablation_overhead_recorded", noop * 4), 4)
            .expect("exactly 4x is within the envelope");
    }

    #[test]
    fn a_report_without_its_overhead_rows_fails_the_overhead_check() {
        let renamed = COMMITTED.replace("\"ablation_overhead_", "\"ablation_gone_");
        let err = assert_overhead(&renamed, 4).expect_err("missing rows must fail");
        assert!(
            err.contains("missing row `ablation_overhead_noop`"),
            "{err}"
        );
    }

    #[test]
    fn a_compiled_lattice_under_the_floor_fails_its_check() {
        let [pairwise, _] = medians(COMMITTED, FLOOR_ROWS).expect("committed floor rows");
        let slow = with_median("ablation_lattice_compiled_d3", pairwise / 10 + 1);
        let err = check_floor(&slow).expect_err("a sub-10x walk must fail");
        assert!(err.contains("under the 10x floor"), "{err}");
    }

    #[test]
    fn the_committed_dpor_rows_carry_their_class_counts() {
        let root = json::parse(COMMITTED).expect("committed BENCH_rrfd.json parses");
        let rows = root.get("experiments").and_then(json::Json::as_array);
        let schedules = |name: &str| {
            let mut rows = rows.into_iter().flatten();
            let row = rows.find(|row| row.get("name").and_then(json::Json::as_str) == Some(name));
            let metrics = row.and_then(|row| row.get("metrics"));
            let total = metrics.and_then(|m| m.get("rrfd_explore_schedules_total"));
            total.and_then(json::Json::as_u64)
        };
        assert_eq!(schedules("ablation_dpor_ring"), Some(63));
        assert_eq!(schedules("ablation_dpor_semisync"), Some(612));
    }

    #[test]
    fn a_zero_p99_after_completed_instances_fails_its_schema() {
        let p99 = COMMITTED
            .find("\"p99_round_ns\": ")
            .expect("the committed report has a p99");
        let digits = COMMITTED[p99..].find(',').expect("the p99 is not last");
        let zeroed = format!(
            "{}\"p99_round_ns\": 0{}",
            &COMMITTED[..p99],
            &COMMITTED[p99 + digits..]
        );
        let err = check_schema(&zeroed).expect_err("a zero p99 must fail");
        assert!(err.contains("`p99_round_ns` is 0"), "{err}");
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
