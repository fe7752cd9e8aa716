//! Differential proof that the multi-tenant batch pool is behaviorally
//! invisible.
//!
//! The pool runs many [`rrfd::core::EngineRun`]s on few threads, each
//! shard one instance after another on per-lane state it reuses:
//! emission buffers, compiled model batches and conformance monitors
//! carry over from one instance to the next — none of which may change
//! what any single instance computes. These tests pit
//! [`rrfd::pool::run_batch`] against the sequential oracle in
//! `oracles/sequential_pool.rs` — one fresh engine per instance, nothing
//! reused — and demand *exact* equality per instance: same decision
//! summary or same [`EngineError`], and byte-identical [`RunTrace`]s,
//! for every protocol class in the mix. The mix includes the `stall`
//! class, whose instances always die in `RoundLimitExceeded` mid-batch,
//! so the suite also proves failure containment: an erroring instance
//! never poisons its shard's neighbors.
//!
//! [`RunTrace`]: rrfd::core::RunTrace

#[path = "oracles/sequential_pool.rs"]
mod sequential_pool;

use rrfd::core::EngineError;
use rrfd::pool::{run_batch, BatchReport, InstanceResult, MixSpec, PoolConfig};
use sequential_pool::run_sequential;

/// Runs batch and sequential on the same `(mix, instances, seed)` with
/// full result and trace retention, and diffs them instance by instance.
fn assert_batch_matches_sequential(mix: &MixSpec, instances: u64, shards: usize, seed: u64) {
    let batch_config = PoolConfig::new(shards)
        .seed(seed)
        .keep_results(true)
        .capture_traces(true);
    let batch = run_batch(mix, instances, &batch_config);
    let seq = run_sequential(mix, instances, seed, true, false);

    assert_eq!(batch.completed, seq.completed);
    assert_eq!(batch.errored, seq.errored);
    assert_eq!(batch.rounds, seq.rounds);
    assert_eq!(batch.classes, seq.classes);
    assert_eq!(batch.results.len(), instances as usize);
    assert_eq!(seq.results.len(), instances as usize);
    for (b, s) in batch.results.iter().zip(&seq.results) {
        assert_eq!(b.instance, s.instance);
        assert_eq!(b.class, s.class, "instance {}", b.instance);
        assert_eq!(b.outcome, s.outcome, "instance {}", b.instance);
        assert_eq!(
            b.trace, s.trace,
            "trace diverged on instance {} ({})",
            b.instance, b.class
        );
        assert!(b.trace.is_some(), "instance {} lost its trace", b.instance);
    }
}

#[test]
fn default_mix_is_trace_identical_across_shard_counts() {
    let mix = MixSpec::default_mix();
    for shards in [1usize, 2, 3, 8] {
        assert_batch_matches_sequential(&mix, 63, shards, 0xBA7C4);
    }
}

#[test]
fn default_mix_is_trace_identical_across_seeds() {
    let mix = MixSpec::default_mix();
    for seed in [0u64, 1, 0x5EED_CAFE_F00D_0002] {
        assert_batch_matches_sequential(&mix, 36, 4, seed);
    }
}

#[test]
fn single_class_mixes_are_trace_identical() {
    for spec in [
        "kset:n=8:k=2:w=1",
        "floodmin:n=6:f=2:k=1:w=1",
        "sconsensus:n=5:w=1",
        "early:n=6:f=2:w=1",
        "stall:n=4:rounds=3:w=1",
    ] {
        let mix = MixSpec::parse(spec).unwrap();
        assert_batch_matches_sequential(&mix, 24, 3, 9);
    }
}

#[test]
fn reused_lanes_are_byte_identical_to_sequential_at_every_shard_count() {
    // With conformance on, every lane resets one monitor per instance;
    // the verdicts, traces and outcomes must be exactly the sequential
    // oracle's, whose every instance gets a fresh monitor. Traced lanes
    // skip buffer and batch reuse, so the untraced pass is the one that
    // checks recycled emission buffers and compiled batches.
    let mix = MixSpec::default_mix();
    for traced in [true, false] {
        let config = |shards: usize| {
            PoolConfig::new(shards)
                .seed(5)
                .keep_results(true)
                .capture_traces(traced)
                .conformance(true)
        };
        let seq = run_sequential(&mix, 45, 5, traced, true);
        assert!(seq.results.iter().all(|r| r.conformance.is_some()));
        assert!(seq.results.iter().all(|r| r.trace.is_some() == traced));
        for shards in [1usize, 2, 3, 5] {
            let batch = run_batch(&mix, 45, &config(shards));
            let at = format!("{shards} shards, traced {traced}");
            assert_eq!(batch.conformance, seq.conformance, "{at}");
            assert_eq!(batch.results.len(), seq.results.len(), "{at}");
            for (b, s) in batch.results.iter().zip(&seq.results) {
                // The shard is the one field that legitimately differs.
                let b = InstanceResult {
                    shard: 0,
                    ..b.clone()
                };
                assert_eq!(&b, s, "instance {} at {at}", s.instance);
            }
        }
    }
}

#[test]
fn sequential_baseline_matches_batch_totals() {
    let mix = MixSpec::default_mix();
    let batch = run_batch(&mix, 36, &PoolConfig::new(3).seed(7));
    let seq = run_sequential(&mix, 36, 7, false, false);
    assert_eq!(batch.completed, seq.completed);
    assert_eq!(batch.errored, seq.errored);
    assert_eq!(batch.rounds, seq.rounds);
    assert_eq!(batch.classes, seq.classes);
}

#[test]
fn conformance_verdicts_fold_and_agree_with_the_baseline() {
    let mix = MixSpec::default_mix();
    let batch_config = PoolConfig::new(3)
        .seed(11)
        .conformance(true)
        .keep_results(true);
    let batch = run_batch(&mix, 36, &batch_config);
    let seq = run_sequential(&mix, 36, 11, false, true);

    assert!(!batch.conformance.is_empty());
    // Deterministic sharding ⇒ the folded verdicts agree exactly.
    assert_eq!(batch.conformance, seq.conformance);
    let monitored: u64 = batch.conformance.iter().map(|c| c.instances).sum();
    assert_eq!(monitored, 36);
    for class in &batch.conformance {
        assert!(class.clean <= class.instances);
        assert!(class.worst_rank >= -1);
    }
    // Per-instance verdicts agree too.
    for (a, b) in batch.results.iter().zip(&seq.results) {
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.conformance, b.conformance, "instance {}", a.instance);
        assert!(a.conformance.is_some());
    }
}

/// Shard-mates of an erroring instance, per the pool's deterministic
/// `id mod shards` placement.
fn shard_mates(report: &BatchReport, shards: usize, id: u64) -> Vec<u64> {
    report
        .results
        .iter()
        .map(|r| r.instance)
        .filter(|&other| other != id && other % shards as u64 == id % shards as u64)
        .collect()
}

#[test]
fn erroring_instances_fail_alone() {
    // Half the mix stalls into RoundLimitExceeded; every stall failure
    // must be contained to its own instance.
    let mix = MixSpec::parse("stall:n=3:rounds=2:w=1,kset:n=4:k=1:w=1").unwrap();
    let shards = 2usize;
    let config = PoolConfig::new(shards).seed(11).keep_results(true);
    let report = run_batch(&mix, 32, &config);
    assert_eq!(report.completed, 16);
    assert_eq!(report.errored, 16);

    let errored: Vec<u64> = report
        .results
        .iter()
        .filter(|r| r.outcome.is_err())
        .map(|r| r.instance)
        .collect();
    assert_eq!(errored.len(), 16);
    for &id in &errored {
        let by_id = |want: u64| report.results.iter().find(|r| r.instance == want).unwrap();
        assert!(
            matches!(
                by_id(id).outcome,
                Err(EngineError::RoundLimitExceeded { .. })
            ),
            "stall instance {id} should die at its round limit"
        );
        // Every kset instance sharing the shard still decided.
        for mate in shard_mates(&report, shards, id) {
            let mate_result = by_id(mate);
            if mate_result.class == "kset" {
                assert!(
                    mate_result.outcome.is_ok(),
                    "instance {mate} poisoned by shard-mate {id}"
                );
            }
        }
    }
}
