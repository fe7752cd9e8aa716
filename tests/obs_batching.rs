//! Sample-exactness of the per-run metrics plane.
//!
//! Engine runs, conformance records and pool shards buffer their samples
//! and hand each buffer to the recorder in one `Recorder::flush` call.
//! `ShardedRecorder` overrides `flush` to apply a whole buffer under one
//! lock; every other recorder inherits the default, which replays the
//! buffer sample by sample through `add`/`gauge`/`observe`/`record_span`.
//! These tests pin that the two paths are indistinguishable: a pool batch
//! with conformance on exports byte-identical snapshots and identical
//! span lists through either.

use proptest::prelude::*;
use rrfd::obs::{
    names, Labels, LogicalClock, Obs, Recorder, ShardedRecorder, Snapshot, SpanRecord,
};
use rrfd::pool::{run_batch, MixSpec, PoolConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A recorder that implements only the four required methods (plus span
/// retention, so spans can be compared) and forwards to a second
/// `ShardedRecorder`. It does not override `flush`, so every buffered
/// sample reaches it through the default replay, one call at a time.
#[derive(Debug, Default)]
struct Replayed {
    inner: ShardedRecorder,
    calls: AtomicU64,
}

impl Recorder for Replayed {
    fn add(&self, metric: &'static str, labels: Labels, delta: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.add(metric, labels, delta);
    }

    fn gauge(&self, metric: &'static str, labels: Labels, value: i64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.gauge(metric, labels, value);
    }

    fn observe(&self, metric: &'static str, labels: Labels, value: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.observe(metric, labels, value);
    }

    fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }

    fn record_span(&self, span: SpanRecord) {
        self.inner.record_span(span);
    }

    fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans()
    }
}

/// One single-shard batch with conformance on, recorded through
/// `recorder` under a logical clock: its snapshot JSONL and its spans.
fn observed_batch(
    recorder: Arc<dyn Recorder>,
    seed: u64,
    instances: u64,
) -> (String, Vec<SpanRecord>) {
    let obs = Obs::new(recorder, Arc::new(LogicalClock::new()));
    let config = PoolConfig::new(1)
        .seed(seed)
        .conformance(true)
        .obs(obs.clone());
    let report = run_batch(&MixSpec::default_mix(), instances, &config);
    let snapshot = obs.snapshot();
    assert_eq!(
        snapshot.counter_total(names::POOL_INSTANCES),
        report.completed
    );
    assert_eq!(snapshot.counter_total(names::POOL_ERRORS), report.errored);
    assert!(snapshot.counter_total(names::ENGINE_ROUNDS) >= report.rounds);
    (snapshot.to_jsonl(), obs.spans())
}

proptest! {
    #[test]
    fn batched_flushes_equal_sample_by_sample_replay(
        seed in any::<u64>(),
        instances in 1u64..80,
    ) {
        let batched = observed_batch(Arc::new(ShardedRecorder::new()), seed, instances);
        let replay = Arc::new(Replayed::default());
        let replayed = observed_batch(replay.clone(), seed, instances);
        prop_assert!(replay.calls.load(Ordering::Relaxed) > 0);
        prop_assert!(batched.0.contains(names::CONF_STRONGEST));
        prop_assert!(batched.0.contains(names::ENGINE_ROUND_LATENCY));
        prop_assert_eq!(&batched.0, &replayed.0);
        prop_assert_eq!(&batched.1, &replayed.1);
    }
}
