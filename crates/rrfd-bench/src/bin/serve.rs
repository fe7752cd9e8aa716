//! The batch-throughput CLI: drive the multi-tenant pool at scale and
//! print the numbers.
//!
//! ```text
//! cargo run -p rrfd-bench --bin serve --release -- \
//!     [--instances N] [--shards S] [--mix SPEC] [--quick]
//! ```
//!
//! Runs `N` protocol instances of the weighted `--mix` (default: the
//! five-class tenant mix of `MixSpec::DEFAULT_SPEC`) through the sharded
//! batch pool on `S` shards and on one, then prints instances/sec, p99
//! round latency (from the engine's `rrfd_engine_round_latency_ns`
//! histogram, merged over rounds), and the speedup over one shard, plus a
//! per-class zoo-conformance table (monitored / clean / worst surviving
//! predicate, from a separate conformance pass so monitor cost never
//! pollutes the throughput number); the pass's first flight dump of an
//! errored instance goes to stderr. It writes no file: `BENCH_rrfd.json`
//! has one writer, `report`, whose `throughput` section is the same
//! measurement taken in the run its host stamp describes.
//!
//! `--quick` shrinks the default instance count for CI smoke runs. The
//! default shard count is 4, capped at the host's available parallelism.

use rrfd_bench::args::{positive, take_flag, take_value};
use rrfd_bench::{measure_conformance, measure_throughput};
use rrfd_engine_pool::MixSpec;
use std::process::ExitCode;

const SEED: u64 = 0x5EED_CAFE_F00D_0002;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = take_flag(&mut args, "--quick");
    let instances = take_value(&mut args, "--instances");
    let shards = take_value(&mut args, "--shards");
    let mix_spec = take_value(&mut args, "--mix");
    if let Some(extra) = args.first() {
        eprintln!("unexpected argument {extra:?}");
        eprintln!("usage: serve [--instances N] [--shards S] [--mix SPEC] [--quick]");
        return ExitCode::from(2);
    }

    let parsed = (
        instances.map(|v| positive("--instances", &v)).transpose(),
        shards.map(|v| positive("--shards", &v)).transpose(),
    );
    let (instances, shards): (u64, usize) = match parsed {
        (Ok(instances), Ok(shards)) => (
            instances.unwrap_or(if quick { 2_000 } else { 10_000 }),
            shards.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |c| c.get().min(4))
            }),
        ),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
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
    ExitCode::SUCCESS
}
