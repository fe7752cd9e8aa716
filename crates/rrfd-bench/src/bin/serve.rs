//! The batch-throughput CLI: drive the multi-tenant pool at scale and
//! publish the numbers.
//!
//! ```text
//! cargo run -p rrfd-bench --bin serve --release -- \
//!     [--instances N] [--shards S] [--mix SPEC] [--quick] [--out PATH]
//! ```
//!
//! Runs `N` protocol instances of the weighted `--mix` (default: the
//! five-class tenant mix of `MixSpec::DEFAULT_SPEC`) through the sharded
//! batch pool on `S` shards and on one, then reports instances/sec, p99
//! round latency (from the engine's `rrfd_engine_round_latency_ns`
//! histogram, merged over rounds), and the speedup over one shard, plus a
//! per-class zoo-conformance table (monitored / clean / worst surviving
//! predicate, from a separate conformance pass so monitor cost never
//! pollutes the throughput number); the pass's first flight dump of an
//! errored instance goes to stderr. When the `--out` report
//! file (default `BENCH_rrfd.json`) exists, its `throughput` section is
//! replaced with this measurement and the result is re-validated against
//! the `rrfd-bench v1` schema reader; a missing file is a warning, not
//! an error, so `serve` is usable standalone.
//!
//! `--quick` shrinks the default instance count for CI smoke runs. The
//! default shard count is 4, capped at the host's available parallelism.

use rrfd_bench::{
    measure_conformance, measure_throughput, render_throughput_line, splice_throughput,
};
use rrfd_engine_pool::MixSpec;
use rrfd_obs::json;
use std::process::ExitCode;

const SEED: u64 = 0x5EED_CAFE_F00D_0002;

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
    let instances = take_value(&mut args, "--instances");
    let shards = take_value(&mut args, "--shards");
    let mix_spec = take_value(&mut args, "--mix");
    let out = take_value(&mut args, "--out").unwrap_or_else(|| "BENCH_rrfd.json".to_owned());
    if let Some(extra) = args.first() {
        eprintln!("unexpected argument {extra:?}");
        eprintln!("usage: serve [--instances N] [--shards S] [--mix SPEC] [--quick] [--out PATH]");
        return ExitCode::from(2);
    }

    let instances: u64 = match instances {
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--instances needs a positive integer, got {v:?}");
                return ExitCode::from(2);
            }
        },
        None => {
            if quick {
                2_000
            } else {
                10_000
            }
        }
    };
    let shards: usize = match shards {
        Some(v) => match v.parse() {
            Ok(s) if s > 0 => s,
            _ => {
                eprintln!("--shards needs a positive integer, got {v:?}");
                return ExitCode::from(2);
            }
        },
        None => std::thread::available_parallelism().map_or(1, |c| c.get().min(4)),
    };
    let mix = match mix_spec {
        Some(spec) => match MixSpec::parse(&spec) {
            Ok(mix) => mix,
            Err(e) => {
                eprintln!("--mix {spec:?}: {e}");
                return ExitCode::from(2);
            }
        },
        None => MixSpec::default_mix(),
    };

    eprintln!("serving {instances} instances of `{mix}` on {shards} shards...");
    let row = measure_throughput(&mix, instances, shards, SEED);

    let per_sec = row.instances_per_sec;
    let speedup = row.speedup_x100;
    println!("instances      {}", row.instances);
    println!("  completed    {}", row.completed);
    println!("  errored      {}", row.errored);
    println!("rounds         {}", row.rounds);
    println!("shards         {}", row.shards);
    println!("batch          {} ms", row.batch_ns / 1_000_000);
    println!("one shard      {} ms", row.one_shard_ns / 1_000_000);
    println!("instances/sec  {per_sec}");
    println!("p99 round      {} ns", row.p99_round_ns);
    println!(
        "speedup        {}.{:02}x over one shard",
        speedup / 100,
        speedup % 100
    );

    // Conformance pass: a separate, smaller batch so the monitor never
    // pollutes the throughput numbers above.
    let conf_instances = instances.min(1_000);
    eprintln!("monitoring zoo conformance ({conf_instances} instances)...");
    let conformance = measure_conformance(&mix, conf_instances, shards, SEED);
    println!(
        "conformance    zoo of {} @ f=1, online/offline agree: {}",
        conformance.zoo_size, conformance.online_offline_agree
    );
    println!("  class                      monitored  clean  worst surviving predicate");
    for class in &conformance.classes {
        let worst = match (&class.worst_name, class.worst_rank) {
            (Some(name), rank) => format!("{name} (rank {rank})"),
            (None, _) => "none — some instance left the whole zoo".to_owned(),
        };
        println!(
            "  {:<26} {:>9}  {:>5}  {worst}",
            class.class, class.instances, class.clean
        );
    }
    if !conformance.flight_dumps.is_empty() {
        eprintln!(
            "{} flight dump(s) of instances errored mid-batch (at most 8 per shard; first shown):",
            conformance.flight_dumps.len()
        );
        for line in conformance.flight_dumps[0].lines().take(6) {
            eprintln!("  | {line}");
        }
    }

    // Publish: splice the section into the existing report and
    // re-validate, leaving the file untouched on any failure.
    let text = match std::fs::read_to_string(&out) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("note: not updating {out} ({e}); printed results only");
            return ExitCode::SUCCESS;
        }
    };
    let updated = match splice_throughput(&text, &render_throughput_line(&row)) {
        Ok(updated) => updated,
        Err(e) => {
            eprintln!("{out}: cannot splice throughput section: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = json::parse(&updated) {
        eprintln!("{out}: spliced report is not valid JSON: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, &updated) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("updated `throughput` section of {out}");
    ExitCode::SUCCESS
}
