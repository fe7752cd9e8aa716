//! Round-structured observability for RRFD substrates.
//!
//! The paper's covering property `S(i,r) ∪ D(i,r) = S` makes the *round*
//! the natural unit of observation: "what did the detector suspect in
//! round `r`, and what did that cost" is a first-class question. This
//! crate answers it with a metrics layer whose every sample is keyed by
//! `(metric, process, round)` — counters, gauges, and fixed-bucket
//! histograms — plus a round-span API for timing rounds under a pluggable
//! [`Clock`], so instrumented runs stay deterministic in tests (logical
//! clock) while measuring real latency in production (wall clock).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** [`Obs::noop`] carries no allocation and
//!    every recording call is a single branch on an `Option`. The
//!    `obs_overhead` bench in `rrfd-bench` holds this to "within noise".
//! 2. **Deterministic by construction.** [`Snapshot`]s are sorted by
//!    `(metric, process, round)`; with the [`LogicalClock`], two identical
//!    runs produce byte-identical JSONL exports (a proptest in the
//!    workspace root asserts exactly this).
//! 3. **Dependency-free.** Only `std`: the crate sits below `rrfd-core`
//!    in the dependency graph so every substrate can use it.
//!
//! The flow: instrumented code records through an [`Obs`] handle (a
//! [`Recorder`] plus a [`Clock`]), or through a [`RunObs`] that buffers a
//! whole run's samples — keyed by dense [`MetricId`]s — and flushes them
//! in one recorder call when the run ends; a [`Snapshot`] is taken at the
//! end of a run; the snapshot exports to JSONL ([`Snapshot::to_jsonl`]) or
//! Prometheus text format ([`Snapshot::to_prometheus`], `rrfd_`-prefixed,
//! exemplar-free, file-targeted — no network); `rrfd-analyze -- stats`
//! renders per-round tables from the same data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod clock;
mod export;
mod hist;
pub mod json;
mod metric;
pub mod names;
mod recorder;
pub mod span;

pub use buffer::{RunBuffer, RunObs, Sample, SampleValue};
pub use clock::{Clock, LogicalClock, WallClock};
pub use hist::{Histogram, HistogramSnapshot, BUCKET_BOUNDS};
pub use metric::MetricId;
pub use recorder::{Entry, Labels, MetricValue, Recorder, ShardedRecorder, Snapshot};
pub use span::{SpanKind, SpanPhase, SpanRecord};

use std::sync::Arc;

/// A span over one round of one process (or the whole system): created by
/// [`Obs::round_enter`], consumed by [`RunObs::round_exit`], which records
/// the elapsed clock time into a latency histogram keyed by the span's
/// labels.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpan {
    start_ns: u64,
    labels: Labels,
}

impl RoundSpan {
    /// The labels the span was opened with.
    #[must_use]
    pub fn labels(&self) -> Labels {
        self.labels
    }

    /// The clock reading taken when the span was opened. Lets a caller
    /// derive causal [`SpanRecord`]s from the same read instead of
    /// consulting the clock twice.
    #[must_use]
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

#[derive(Debug)]
struct ObsInner {
    recorder: Arc<dyn Recorder>,
    clock: Arc<dyn Clock>,
}

/// The instrumentation handle every substrate records through: a
/// [`Recorder`] paired with a [`Clock`]. Cloning is cheap (an `Arc`), and
/// the no-op handle is a `None` — recording through it is one branch.
///
/// # Examples
///
/// ```
/// use rrfd_obs::{names, Labels, MetricId, Obs, RunObs};
///
/// let obs = Obs::logical();
/// obs.add(names::ENGINE_ROUNDS, Labels::round(1), 1);
/// let mut run = RunObs::new(obs.clone());
/// let span = run.round_enter(Labels::round(1));
/// run.round_exit(MetricId::of(names::ENGINE_ROUND_LATENCY), span);
/// run.flush();
/// let snap = obs.snapshot();
/// assert_eq!(snap.counter_total(names::ENGINE_ROUNDS), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The disabled handle: records nothing, costs one branch per call.
    #[must_use]
    pub fn noop() -> Self {
        Obs { inner: None }
    }

    /// A sharded recorder driven by a [`LogicalClock`]: fully
    /// deterministic, for tests and simulation substrates.
    #[must_use]
    pub fn logical() -> Self {
        Obs::new(
            Arc::new(ShardedRecorder::new()),
            Arc::new(LogicalClock::new()),
        )
    }

    /// A sharded recorder driven by the [`WallClock`]: for the threaded
    /// runtime and benches, where latency is the point.
    #[must_use]
    pub fn wall() -> Self {
        Obs::new(Arc::new(ShardedRecorder::new()), Arc::new(WallClock::new()))
    }

    /// An enabled handle over an explicit recorder and clock.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>, clock: Arc<dyn Clock>) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner { recorder, clock })),
        }
    }

    /// `true` unless this is the no-op handle.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the counter `metric` at `labels`.
    pub fn add(&self, metric: &'static str, labels: Labels, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.recorder.add(metric, labels, delta);
        }
    }

    /// Sets the gauge `metric` at `labels` to `value`.
    pub fn gauge(&self, metric: &'static str, labels: Labels, value: i64) {
        if let Some(inner) = &self.inner {
            inner.recorder.gauge(metric, labels, value);
        }
    }

    /// Records `value` into the histogram `metric` at `labels`.
    pub fn observe(&self, metric: &'static str, labels: Labels, value: u64) {
        if let Some(inner) = &self.inner {
            inner.recorder.observe(metric, labels, value);
        }
    }

    /// Reads the clock (0 when disabled). Prefer spans over raw reads.
    #[must_use]
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Opens a round span at `labels`; time it with [`RunObs::round_exit`].
    #[must_use]
    #[inline]
    pub fn round_enter(&self, labels: Labels) -> RoundSpan {
        RoundSpan {
            start_ns: self.now_ns(),
            labels,
        }
    }

    /// A deterministic snapshot of everything recorded so far (empty for
    /// the no-op handle).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.inner
            .as_ref()
            .map_or_else(Snapshot::default, |i| i.recorder.snapshot())
    }

    /// Retains a closed causal span (dropped by the no-op handle — the
    /// same single branch as every other recording call).
    pub fn record_span(&self, span: SpanRecord) {
        if let Some(inner) = &self.inner {
            inner.recorder.record_span(span);
        }
    }

    /// Opens and immediately retains a span for `[start_ns, now]` — the
    /// common shape when a phase is timed with one clock read at entry.
    pub fn close_span(
        &self,
        instance: u64,
        kind: SpanKind,
        round: u32,
        process: Option<u32>,
        start_ns: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner.recorder.record_span(SpanRecord {
                instance,
                kind,
                round,
                process,
                start_ns,
                end_ns: inner.clock.now_ns(),
            });
        }
    }

    /// Hands a run's buffered samples and spans to the recorder in one
    /// [`Recorder::flush`] call, leaving `buffer` empty (the no-op handle
    /// just empties it). Most callers buffer through a [`RunObs`], which
    /// flushes by itself.
    pub fn flush(&self, buffer: &mut RunBuffer) {
        match &self.inner {
            Some(inner) => inner.recorder.flush(buffer),
            None => buffer.clear(),
        }
    }

    /// The spans retained so far, in canonical export order (empty for
    /// the no-op handle).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.recorder.spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing_and_reads_zero() {
        let obs = Obs::noop();
        assert!(!obs.is_enabled());
        obs.add(names::ENGINE_ROUNDS, Labels::GLOBAL, 5);
        obs.observe(names::ENGINE_ROUND_LATENCY, Labels::round(1), 10);
        obs.gauge(names::SIM_SCHED_DEPTH, Labels::GLOBAL, 3);
        assert_eq!(obs.now_ns(), 0);
        assert!(obs.snapshot().entries().is_empty());
    }

    #[test]
    fn logical_spans_are_deterministic() {
        let run = || {
            let obs = Obs::logical();
            let mut run = RunObs::new(obs.clone());
            for r in 1..=3u32 {
                let span = run.round_enter(Labels::round(r));
                run.add(MetricId::of(names::ENGINE_ROUNDS), Labels::round(r), 1);
                run.round_exit(MetricId::of(names::ENGINE_ROUND_LATENCY), span);
            }
            run.flush();
            obs.snapshot().to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spans_flow_through_the_handle_and_noop_drops_them() {
        let noop = Obs::noop();
        noop.close_span(0, SpanKind::Round, 1, None, 0);
        assert!(noop.spans().is_empty());

        let obs = Obs::logical();
        let start = obs.now_ns();
        obs.close_span(0, SpanKind::Run, 0, None, start);
        obs.record_span(SpanRecord {
            instance: 0,
            kind: SpanKind::Phase(SpanPhase::Decide),
            round: 3,
            process: Some(1),
            start_ns: 10,
            end_ns: 20,
        });
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Run);
        // Spans stay out of the metric snapshot.
        assert!(obs.snapshot().entries().is_empty());
    }

    #[test]
    fn clones_share_the_recorder() {
        let obs = Obs::logical();
        let other = obs.clone();
        other.add(names::ENGINE_ROUNDS, Labels::GLOBAL, 2);
        obs.add(names::ENGINE_ROUNDS, Labels::GLOBAL, 3);
        assert_eq!(obs.snapshot().counter_total(names::ENGINE_ROUNDS), 5);
    }
}
