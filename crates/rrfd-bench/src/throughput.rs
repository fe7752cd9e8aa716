//! The batch-throughput harness behind `--bin serve` and the report's
//! `throughput` section.
//!
//! [`measure_throughput`] runs one mix twice through the sharded pool —
//! an instrumented pass that fills the engine's per-round latency
//! histogram (for the p99), then an uninstrumented timed pass — and once
//! more, uninstrumented, on a single shard, and reduces the three to a
//! [`ThroughputRow`]: instances/sec, p99 round latency, and the speedup
//! of `shards` shards over one shard of the same pool. Both bench
//! binaries measure through this one function: `serve` prints the row,
//! and `report` writes it as the `throughput` section of
//! `BENCH_rrfd.json`.

use rrfd_engine_pool::{run_batch, MixSpec, PoolConfig};
use rrfd_obs::{json, names, Obs};

/// One throughput measurement, ready to print or serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputRow {
    /// The mix spec string the batch ran (`kset:n=8:k=2:w=2,...`).
    pub mix: String,
    /// Instances requested.
    pub instances: u64,
    /// Pool shards (worker threads).
    pub shards: usize,
    /// Instances that decided.
    pub completed: u64,
    /// Instances retired by an engine error (the mix's stall class).
    pub errored: u64,
    /// Engine rounds executed by deciding instances.
    pub rounds: u64,
    /// Wall nanoseconds for the uninstrumented batch pass.
    pub batch_ns: u64,
    /// Wall nanoseconds for the same uninstrumented batch on one shard.
    pub one_shard_ns: u64,
    /// `instances / batch_ns`, scaled to instances per second.
    pub instances_per_sec: u64,
    /// p99 of one engine round (one instance, one round), in wall
    /// nanoseconds, from the instrumented pass's
    /// `rrfd_engine_round_latency_ns` merged over its round labels.
    pub p99_round_ns: u64,
    /// `one_shard_ns * 100 / batch_ns` — `200` means `shards` shards
    /// retired the batch twice as fast as one.
    pub speedup_x100: u64,
}

/// Measures `mix` at `instances` across `shards`, against the same pool
/// on one shard. Deterministic in its decisions (fixed `seed`); the
/// timings are wall-clock.
#[must_use]
pub fn measure_throughput(
    mix: &MixSpec,
    instances: u64,
    shards: usize,
    seed: u64,
) -> ThroughputRow {
    let clock = Obs::wall();

    // Instrumented pass: fills the per-round latency histogram. Timed
    // separately from the throughput pass so recorder and clock-read
    // overhead never pollutes the instances/sec number.
    let obs = Obs::wall();
    let instrumented = PoolConfig::new(shards).seed(seed).obs(obs.clone());
    let report = run_batch(mix, instances, &instrumented);
    let p99_round_ns = obs
        .snapshot()
        .histogram_total(names::ENGINE_ROUND_LATENCY)
        .and_then(|h| h.quantile(0.99))
        .unwrap_or(0);

    let start = clock.now_ns();
    let timed = run_batch(mix, instances, &PoolConfig::new(shards).seed(seed));
    let batch_ns = clock.now_ns().saturating_sub(start).max(1);
    // Decisions are deterministic in (mix, instances, seed), so the two
    // batch passes must agree; a mismatch means the pool lost purity.
    debug_assert_eq!(timed.completed, report.completed);

    let start = clock.now_ns();
    let one_shard = run_batch(mix, instances, &PoolConfig::new(1).seed(seed));
    let one_shard_ns = clock.now_ns().saturating_sub(start).max(1);
    debug_assert_eq!(one_shard.completed, report.completed);

    let instances_per_sec =
        u64::try_from(u128::from(instances) * 1_000_000_000 / u128::from(batch_ns))
            .unwrap_or(u64::MAX);
    let speedup_x100 =
        u64::try_from(u128::from(one_shard_ns) * 100 / u128::from(batch_ns)).unwrap_or(u64::MAX);
    ThroughputRow {
        mix: mix.to_string(),
        instances,
        shards,
        completed: report.completed,
        errored: report.errored,
        rounds: report.rounds,
        batch_ns,
        one_shard_ns,
        instances_per_sec,
        p99_round_ns,
        speedup_x100,
    }
}

/// Renders the row as the report's one-line `"throughput"` section
/// (including the two-space indent and trailing comma the `rrfd-bench
/// v1` layout uses).
#[must_use]
pub fn render_throughput_line(row: &ThroughputRow) -> String {
    format!(
        "  \"throughput\": {{\"mix\": \"{}\", \"instances\": {}, \"shards\": {}, \
         \"completed\": {}, \"errored\": {}, \"rounds\": {}, \"batch_ns\": {}, \
         \"one_shard_ns\": {}, \"instances_per_sec\": {}, \"p99_round_ns\": {}, \
         \"speedup_x100\": {}}},",
        json::escape(&row.mix),
        row.instances,
        row.shards,
        row.completed,
        row.errored,
        row.rounds,
        row.batch_ns,
        row.one_shard_ns,
        row.instances_per_sec,
        row.p99_round_ns,
        row.speedup_x100,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_accounts_for_every_instance() {
        let mix = MixSpec::default_mix();
        let row = measure_throughput(&mix, 45, 2, 7);
        assert_eq!(row.completed + row.errored, 45);
        assert_eq!(row.instances, 45);
        assert_eq!(row.shards, 2);
        assert_eq!(row.mix, MixSpec::DEFAULT_SPEC);
        assert!(row.instances_per_sec > 0);
        assert!(row.batch_ns > 0 && row.one_shard_ns > 0);
        assert!(
            row.p99_round_ns > 0,
            "instrumented pass must fill the histogram"
        );
    }
}
