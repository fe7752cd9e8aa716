//! The repository benchmark: four round-structured workloads, measured
//! end to end with tracing off, and layer by layer in a separate traced
//! run that wraps the workspace's public traits (see `wrap.rs`).
//!
//! ```text
//! cargo run --release --manifest-path roundbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `pool_mix`, `pool_observed`, `dpor_semisync`, `lattice_zoo`
//! (the `why` of each is recorded in `BENCHMARK.json`). Each is a closed
//! loop of one client on the calling thread; the pool's shards and the
//! explorer's workers number [`nproc`], the available parallelism.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics of
//! the named workload (see `report::Samples`). With `--trace 1` it carries
//! every per-layer metric: each layer is measured on the workload that
//! exercises it, so the traced run traces all four workloads, giving the
//! named one the full `--seconds` and the others a quarter each. Outputs
//! are verified in both modes, outside the timed regions, and every
//! failure counts in `failed`. The line before the result is the host and
//! configuration stamp.

mod dpor;
mod lattice;
mod ledger;
mod pool;
mod report;
mod wrap;

use report::{json_string, result_line, Metric, Tally};
use std::time::Duration;

/// The workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["pool_mix", "pool_observed", "dpor_semisync", "lattice_zoo"];

/// A run's configuration.
#[derive(Debug, Clone)]
pub struct Ctx {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Ctx {
    fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The available parallelism: the pool's shards and the DPOR explorer's
/// workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The host and configuration stamp printed before every result.
fn stamp(ctx: &Ctx) -> String {
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"pool_shards\": {}, \"dpor_workers\": {}, \
         \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \"commit\": {}}}}}",
        json_string(&ctx.workload),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        nproc(),
        nproc(),
        nproc(),
        json_string(&report::cpu_model()),
        json_string(env!("ROUNDBENCH_RUSTC")),
        json_string(env!("ROUNDBENCH_PROFILE")),
        json_string(&report::git_commit()),
    )
}

fn end_to_end(ctx: &Ctx, tally: &mut Tally) -> Vec<Metric> {
    match ctx.workload.as_str() {
        "pool_mix" => pool::end_to_end(ctx, false, tally),
        "pool_observed" => pool::end_to_end(ctx, true, tally),
        "dpor_semisync" => dpor::end_to_end(ctx, tally),
        _ => lattice::end_to_end(ctx, tally),
    }
}

/// Per-layer accounting outside 0.9–1.1 means a layer is unmeasured or
/// double-counted.
const LAYER_SUM_RANGE: std::ops::RangeInclusive<f64> = 0.9..=1.1;

fn traced(ctx: &Ctx, tally: &mut Tally) -> Vec<Metric> {
    let mut layers = Vec::new();
    let mut cross = Vec::new();
    for name in WORKLOADS {
        let budget = if name == ctx.workload {
            ctx.duration()
        } else {
            ctx.duration() / 4
        };
        let section = match name {
            "pool_mix" => pool::trace_mix(ctx, budget, tally),
            "pool_observed" => pool::trace_observed(ctx, budget, tally),
            "dpor_semisync" => dpor::trace(ctx, budget, tally),
            _ => lattice::trace(budget, tally),
        };
        if !LAYER_SUM_RANGE.contains(&section.layer_sum_frac) {
            eprintln!(
                "roundbench: FLAG {name}: layer self times sum to {:.3} of the time they \
                 account for (expected 0.9–1.1); trace overhead {:.2}x",
                section.layer_sum_frac, section.overhead_x
            );
        }
        for m in &section.metrics {
            eprintln!(
                "roundbench: {name:>14} {:<34} {:>14.3} {:<5} (trace overhead {:.2}x)",
                m.name, m.value, m.unit, section.overhead_x
            );
        }
        layers.extend(section.metrics);
        cross.push(Metric::new(
            format!("trace.overhead_x.{name}"),
            section.overhead_x,
            "x",
        ));
        cross.push(Metric::new(
            format!("trace.layer_sum_frac.{name}"),
            section.layer_sum_frac,
            "frac",
        ));
    }
    layers.extend(cross);
    layers
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(message) => {
            eprintln!("roundbench: {message}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if ctx.trace {
        traced(&ctx, &mut tally)
    } else {
        end_to_end(&ctx, &mut tally)
    };
    for message in &tally.messages {
        eprintln!("roundbench: FAILED {message}");
    }
    println!("{}", stamp(&ctx));
    println!("{}", result_line(&tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{check_instance, check_results, run_own, OwnLoop, BATCH};
    use crate::wrap::Timed;
    use rrfd_core::{Engine, EngineError, RoundProtocol};
    use rrfd_engine_pool::mix::{
        EarlyClass, FloodMinClass, KSetClass, SConsensusClass, StallClass,
    };
    use rrfd_engine_pool::{InstanceClass, MixSpec, RunSummary};
    use rrfd_obs::Obs;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(parse_args(&args(&["--workload", "nosuch"])).is_err());
        let ok = parse_args(&args(&["--workload", "lattice_zoo", "--seed", "7"])).unwrap();
        assert_eq!(ok.seed, 7);
    }

    /// Runs instances `0..count` of `class` traced, once bare and once
    /// with every timing wrapper, and compares the rendered traces.
    fn assert_transparent<C: InstanceClass>(class: &C, count: u64)
    where
        <C::P as RoundProtocol>::Msg: PartialEq,
    {
        for id in 0..count {
            let engine = Engine::new(class.system_size()).max_rounds(class.max_rounds());
            let (p, d, q) = class.build(id);
            let bare = engine.start_traced(p, d, q).unwrap().run_to_completion();
            let (p, d, q) = class.build(id);
            let p: Vec<_> = p.into_iter().map(Timed).collect();
            let wrapped = engine
                .start_traced(p, Timed(d), Timed(q))
                .unwrap()
                .run_to_completion();
            assert_eq!(
                bare.result,
                wrapped.result,
                "{} instance {id}",
                class.name()
            );
            assert_eq!(
                bare.trace.unwrap().to_string(),
                wrapped.trace.unwrap().to_string(),
                "{} instance {id}",
                class.name()
            );
        }
    }

    #[test]
    fn wrappers_leave_every_pool_class_trace_identical() {
        let mix = MixSpec::default_mix();
        for &spec in mix.classes() {
            match spec.kind {
                rrfd_engine_pool::ClassKind::KSet => {
                    assert_transparent(&KSetClass::new(spec, 3), 40)
                }
                rrfd_engine_pool::ClassKind::FloodMin => {
                    assert_transparent(&FloodMinClass::new(spec, 3), 40);
                }
                rrfd_engine_pool::ClassKind::SConsensus => {
                    assert_transparent(&SConsensusClass::new(spec, 3), 40);
                }
                rrfd_engine_pool::ClassKind::Early => {
                    assert_transparent(&EarlyClass::new(spec, 3), 40)
                }
                rrfd_engine_pool::ClassKind::Stall => assert_transparent(&StallClass::new(spec), 4),
            }
        }
    }

    #[test]
    fn wrapped_zoo_compiles_and_orders_identically() {
        let bare = lattice::family();
        let wrapped = lattice::wrapped();
        for (b, w) in bare.iter().zip(&wrapped) {
            assert_eq!(b.name(), w.name());
            assert_eq!(b.compile(), w.compile(), "{}", b.name());
        }
        let (bare_lattice, bare_md) = lattice::call(&bare);
        let (wrapped_lattice, wrapped_md) = lattice::call(&wrapped);
        assert_eq!(bare_md, wrapped_md);
        assert!(lattice::check_certificates(&wrapped_lattice, &wrapped).is_empty());
        assert!(lattice::check_certificates(&bare_lattice, &bare).is_empty());
    }

    #[test]
    fn own_loop_matches_run_batch_and_wrappers_change_nothing() {
        let mix = MixSpec::default_mix();
        let report = rrfd_engine_pool::run_batch(
            &mix,
            BATCH,
            &rrfd_engine_pool::PoolConfig::new(1)
                .seed(9)
                .keep_results(true),
        );
        assert!(check_results(&mix, 9, &report.results, false).is_empty());
        for traced in [false, true] {
            let own = OwnLoop {
                obs: Obs::noop(),
                conformance: false,
                traced,
            };
            let (results, _) = run_own(&mix, 9, &own);
            assert!(check_results(&mix, 9, &results, false).is_empty());
            for (a, b) in report.results.iter().zip(&results) {
                assert_eq!((a.instance, &a.outcome), (b.instance, &b.outcome));
            }
        }
    }

    #[test]
    fn corrupted_pool_outputs_count_as_failed() {
        let mix = MixSpec::default_mix();
        let report = rrfd_engine_pool::run_batch(
            &mix,
            BATCH,
            &rrfd_engine_pool::PoolConfig::new(1)
                .seed(4)
                .keep_results(true),
        );
        let mut results = report.results;
        assert!(check_results(&mix, 4, &results, false).is_empty());

        // A decision nobody proposed breaks validity.
        let decided = results
            .iter()
            .position(|r| r.class == "kset")
            .expect("the mix runs kset instances");
        let mut bad = results[decided].clone();
        if let Ok(RunSummary { outputs, .. }) = &mut bad.outcome {
            outputs[0] = outputs[0].map(|(_, round)| (1_000, round));
        }
        assert!(check_instance(&mix, 4, &bad).is_err());

        // A stall instance that "decided" is wrong too.
        let stall = results.iter().position(|r| r.class == "stall").unwrap();
        let mut bad_stall = results[stall].clone();
        bad_stall.outcome = Ok(RunSummary {
            outputs: vec![Some((0, 1)); 4],
            rounds_executed: 1,
        });
        assert!(check_instance(&mix, 4, &bad_stall).is_err());

        // As does a wrong round budget, or a missing instance.
        let mut wrong_limit = results[stall].clone();
        wrong_limit.outcome = Err(EngineError::RoundLimitExceeded { max_rounds: 99 });
        assert!(check_instance(&mix, 4, &wrong_limit).is_err());
        results.remove(17);
        assert!(!check_results(&mix, 4, &results, false).is_empty());

        // Each failure lands in the tally.
        let mut tally = Tally::default();
        tally.record(3, vec!["a".into(), "b".into()]);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn corrupted_dpor_reports_count_as_failed() {
        use rrfd_core::ProcessId;
        use rrfd_protocols::semi_sync_consensus::RepeatedRounds;
        use rrfd_sims::semi_sync::{FairSemiSync, SemiSyncSim};

        let n = rrfd_core::SystemSize::new(dpor::N).unwrap();
        let inputs = dpor::inputs(11, 0);
        let processes: Vec<_> = n
            .processes()
            .map(|p| RepeatedRounds::new(n, p, inputs[p.index()], dpor::ROUNDS))
            .collect();
        let mut report = SemiSyncSim::new(n)
            .run(processes, &mut FairSemiSync::new())
            .unwrap();
        assert!(dpor::check_report(&report, &inputs).is_ok());

        let mut split = report.clone();
        split.outputs[1] = split.outputs[1].map(|(_, steps)| (1_000, steps));
        assert!(dpor::check_report(&split, &inputs).is_err());

        report.outputs[2] = None;
        assert!(dpor::check_report(&report, &inputs).is_err());
        report.crashed.insert(ProcessId::new(2));
        assert!(
            dpor::check_report(&report, &inputs).is_ok(),
            "crashed processes may not decide"
        );
    }

    #[test]
    fn corrupted_lattice_outputs_count_as_failed() {
        let family = lattice::family();
        let (first, rendered) = lattice::call(&family);
        let reference = lattice::Reference::new(&first, rendered.clone());
        assert!(reference.check(&first, &rendered, &family).is_empty());
        let corrupted = rendered.replacen("| ✓", "| ×", 1);
        assert_ne!(corrupted, rendered, "the rendering has a verdict to flip");
        assert!(!reference.check(&first, &corrupted, &family).is_empty());

        // Certificates replayed against swapped predicates do not hold.
        let swapped: Vec<_> = lattice::family().into_iter().rev().collect();
        assert!(!lattice::check_certificates(&first, &swapped).is_empty());
    }
}
