//! Per-run sample buffers: the run as the flush unit.
//!
//! A run is communication-closed: nothing it records is read back while
//! it executes. So its samples need not reach the shared recorder one by
//! one. A [`RunBuffer`] collects a run's counter increments, gauge
//! writes, histogram observations and closed spans in recording order,
//! keyed by dense [`MetricId`]s, and hands them to the recorder in one
//! [`crate::Recorder::flush`] call. A [`RunObs`] pairs a buffer with its
//! [`Obs`] handle and flushes at the points its owner chooses, on drop,
//! and whenever the buffer reaches 4,096 samples, so a
//! never-ending run cannot grow it without bound. Buffers are recycled:
//! a dropped [`RunObs`] returns its emptied buffer to a small per-thread
//! free list, and the next one on that thread takes it from there, so
//! back-to-back runs allocate no buffers once the list is warm.
//!
//! The flush is the only visibility point: a snapshot taken while a run
//! is in flight excludes the samples the run has not flushed yet.

use crate::metric::MetricId;
use crate::recorder::Labels;
use crate::span::{SpanKind, SpanRecord};
use crate::{Obs, RoundSpan};
use std::cell::RefCell;

/// One buffered sample's operation and value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter increment ([`crate::Recorder::add`]).
    Add(u64),
    /// A gauge write ([`crate::Recorder::gauge`]).
    Gauge(i64),
    /// A histogram observation ([`crate::Recorder::observe`]).
    Observe(u64),
}

/// One buffered sample, packed into 24 bytes: the operation tag sits
/// beside the metric id and the value is stored as raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    metric: MetricId,
    op: Op,
    labels: Labels,
    bits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Add,
    Gauge,
    Observe,
}

impl Sample {
    #[inline]
    fn new(metric: MetricId, labels: Labels, value: SampleValue) -> Self {
        let (op, bits) = match value {
            SampleValue::Add(delta) => (Op::Add, delta),
            SampleValue::Gauge(level) => (Op::Gauge, level as u64),
            SampleValue::Observe(value) => (Op::Observe, value),
        };
        Sample {
            metric,
            op,
            labels,
            bits,
        }
    }

    /// The metric.
    #[must_use]
    pub fn metric(&self) -> MetricId {
        self.metric
    }

    /// The sample's labels.
    #[must_use]
    pub fn labels(&self) -> Labels {
        self.labels
    }

    /// The operation and its value.
    #[must_use]
    pub fn value(&self) -> SampleValue {
        match self.op {
            Op::Add => SampleValue::Add(self.bits),
            Op::Gauge => SampleValue::Gauge(self.bits as i64),
            Op::Observe => SampleValue::Observe(self.bits),
        }
    }
}

/// A buffer holding this many samples or spans is flushed by [`RunObs`]
/// before it takes another.
const FLUSH_AT: usize = 4096;

/// Emptied buffers a thread keeps for its next [`RunObs`].
const SPARE_BUFFERS: usize = 4;

thread_local! {
    static SPARES: RefCell<Vec<RunBuffer>> = const { RefCell::new(Vec::new()) };
}

/// An empty buffer with room for `samples` samples and `spans` spans:
/// the calling thread's most recent spare when it has one.
fn take_spare(samples: usize, spans: usize) -> RunBuffer {
    let spare = SPARES
        .try_with(|spares| spares.borrow_mut().pop())
        .ok()
        .flatten();
    match spare {
        Some(mut buffer) => {
            buffer.samples.reserve(samples);
            buffer.spans.reserve(spans);
            buffer
        }
        None => RunBuffer::with_capacity(samples, spans),
    }
}

/// Keeps `buffer` (emptied) for the calling thread's next [`RunObs`],
/// unless the thread already holds [`SPARE_BUFFERS`] spares.
fn give_back(mut buffer: RunBuffer) {
    buffer.clear();
    // Fails only while the thread is being torn down; the buffer is then
    // simply dropped.
    let _ = SPARES.try_with(|spares| {
        let mut spares = spares.borrow_mut();
        if spares.len() < SPARE_BUFFERS {
            spares.push(buffer);
        }
    });
}

/// A run's pending samples and spans, in recording order.
#[derive(Debug, Default, Clone)]
pub struct RunBuffer {
    samples: Vec<Sample>,
    spans: Vec<SpanRecord>,
}

impl RunBuffer {
    /// An empty buffer (allocates nothing until the first sample).
    #[must_use]
    pub fn new() -> Self {
        RunBuffer::default()
    }

    /// An empty buffer with room for `samples` samples and `spans` spans.
    #[must_use]
    pub fn with_capacity(samples: usize, spans: usize) -> Self {
        RunBuffer {
            samples: Vec::with_capacity(samples),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Buffers a counter increment.
    #[inline]
    pub fn add(&mut self, metric: MetricId, labels: Labels, delta: u64) {
        self.push(metric, labels, SampleValue::Add(delta));
    }

    /// Buffers a gauge write.
    #[inline]
    pub fn gauge(&mut self, metric: MetricId, labels: Labels, value: i64) {
        self.push(metric, labels, SampleValue::Gauge(value));
    }

    /// Buffers a histogram observation.
    #[inline]
    pub fn observe(&mut self, metric: MetricId, labels: Labels, value: u64) {
        self.push(metric, labels, SampleValue::Observe(value));
    }

    /// Buffers a closed span.
    #[inline]
    pub fn record_span(&mut self, span: SpanRecord) {
        self.spans.push(span);
    }

    #[inline]
    fn push(&mut self, metric: MetricId, labels: Labels, value: SampleValue) {
        self.samples.push(Sample::new(metric, labels, value));
    }

    /// The buffered samples, in recording order.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The buffered spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty() && self.spans.is_empty()
    }

    /// The larger of the sample and span counts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len().max(self.spans.len())
    }

    /// Empties the buffer, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.spans.clear();
    }
}

/// An [`Obs`] handle with a per-run [`RunBuffer`]: the recording methods
/// mirror [`Obs`]'s but append to the buffer, which reaches the recorder
/// on [`RunObs::flush`], on drop, and every 4,096 samples. The buffer
/// comes from the thread's free list and goes back to it on drop. Over
/// [`Obs::noop`] there is no buffer at all and every call is one branch.
#[derive(Debug, Default)]
pub struct RunObs {
    obs: Obs,
    buffer: Option<RunBuffer>,
}

impl RunObs {
    /// A buffered handle over `obs`; the buffer exists only when `obs` is
    /// enabled.
    #[must_use]
    pub fn new(obs: Obs) -> Self {
        RunObs::with_capacity(obs, 0, 0)
    }

    /// [`RunObs::new`] with room reserved for `samples` samples and
    /// `spans` spans — still only when `obs` is enabled.
    #[must_use]
    pub fn with_capacity(obs: Obs, samples: usize, spans: usize) -> Self {
        let buffer = obs.is_enabled().then(|| take_spare(samples, spans));
        RunObs { obs, buffer }
    }

    /// The underlying handle.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// `true` unless the underlying handle is the no-op one — exactly
    /// when a buffer is attached.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.buffer.is_some()
    }

    /// Samples and spans waiting for the next flush.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buffer.as_ref().map_or(0, RunBuffer::len)
    }

    #[inline]
    fn buffer(&mut self) -> Option<&mut RunBuffer> {
        let full = self.buffer.as_ref()?.len() >= FLUSH_AT;
        if full {
            self.flush();
        }
        self.buffer.as_mut()
    }

    /// Buffers a counter increment.
    #[inline]
    pub fn add(&mut self, metric: MetricId, labels: Labels, delta: u64) {
        if let Some(buffer) = self.buffer() {
            buffer.add(metric, labels, delta);
        }
    }

    /// Buffers a gauge write.
    #[inline]
    pub fn gauge(&mut self, metric: MetricId, labels: Labels, value: i64) {
        if let Some(buffer) = self.buffer() {
            buffer.gauge(metric, labels, value);
        }
    }

    /// Buffers a histogram observation.
    #[inline]
    pub fn observe(&mut self, metric: MetricId, labels: Labels, value: u64) {
        if let Some(buffer) = self.buffer() {
            buffer.observe(metric, labels, value);
        }
    }

    /// Reads the clock (0 when disabled).
    #[must_use]
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.obs.now_ns()
    }

    /// Opens a round span at `labels`; see [`Obs::round_enter`].
    #[must_use]
    #[inline]
    pub fn round_enter(&self, labels: Labels) -> RoundSpan {
        self.obs.round_enter(labels)
    }

    /// Closes `span`, buffering the elapsed clock time as an observation
    /// of the histogram `metric` at the span's labels. Returns the closing
    /// clock reading (0 when disabled), so a caller can end a causal span
    /// at the same instant without reading the clock again.
    #[inline]
    pub fn round_exit(&mut self, metric: MetricId, span: RoundSpan) -> u64 {
        if self.buffer.is_none() {
            return 0;
        }
        let end_ns = self.obs.now_ns();
        self.observe(
            metric,
            span.labels(),
            end_ns.saturating_sub(span.start_ns()),
        );
        end_ns
    }

    /// Buffers a closed span.
    #[inline]
    pub fn record_span(&mut self, span: SpanRecord) {
        if let Some(buffer) = self.buffer() {
            buffer.record_span(span);
        }
    }

    /// Buffers the span `[start_ns, now]`; see [`Obs::close_span`].
    #[inline]
    pub fn close_span(
        &mut self,
        instance: u64,
        kind: SpanKind,
        round: u32,
        process: Option<u32>,
        start_ns: u64,
    ) {
        if self.buffer.is_some() {
            let end_ns = self.obs.now_ns();
            self.record_span(SpanRecord {
                instance,
                kind,
                round,
                process,
                start_ns,
                end_ns,
            });
        }
    }

    /// Hands everything buffered to the recorder (one
    /// [`crate::Recorder::flush`] call; nothing when the buffer is empty).
    pub fn flush(&mut self) {
        if let Some(buffer) = self.buffer.as_mut() {
            if !buffer.is_empty() {
                self.obs.flush(buffer);
            }
        }
    }
}

impl Drop for RunObs {
    fn drop(&mut self) {
        self.flush();
        if let Some(buffer) = self.buffer.take() {
            give_back(buffer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    const ROUNDS: MetricId = MetricId::of(names::ENGINE_ROUNDS);

    #[test]
    fn noop_handles_allocate_no_buffer() {
        let mut run = RunObs::new(Obs::noop());
        run.add(ROUNDS, Labels::round(1), 1);
        run.close_span(0, SpanKind::Run, 0, None, 0);
        assert!(!run.is_enabled());
        assert!(run.buffer.is_none());
        assert_eq!(run.pending(), 0);
    }

    #[test]
    fn samples_pack_into_24_bytes_and_round_trip() {
        assert_eq!(std::mem::size_of::<Sample>(), 24);
        for value in [
            SampleValue::Add(u64::MAX),
            SampleValue::Gauge(-5),
            SampleValue::Gauge(i64::MIN),
            SampleValue::Observe(7),
        ] {
            let sample = Sample::new(ROUNDS, Labels::process_round(2, 9), value);
            assert_eq!(sample.value(), value);
            assert_eq!(sample.metric(), ROUNDS);
            assert_eq!(sample.labels(), Labels::process_round(2, 9));
        }
    }

    #[test]
    fn samples_reach_the_recorder_only_on_flush() {
        let obs = Obs::logical();
        let mut run = RunObs::new(obs.clone());
        run.add(ROUNDS, Labels::round(1), 2);
        run.close_span(7, SpanKind::Run, 0, None, 0);
        assert_eq!(run.pending(), 1);
        assert!(obs.snapshot().entries().is_empty());
        assert!(obs.spans().is_empty());
        run.flush();
        assert_eq!(run.pending(), 0);
        assert_eq!(obs.snapshot().counter_total(names::ENGINE_ROUNDS), 2);
        assert_eq!(obs.spans().len(), 1);
    }

    #[test]
    fn dropping_the_handle_flushes() {
        let obs = Obs::logical();
        {
            let mut run = RunObs::new(obs.clone());
            run.add(ROUNDS, Labels::round(3), 1);
        }
        assert_eq!(obs.snapshot().counter_total(names::ENGINE_ROUNDS), 1);
    }

    #[test]
    fn dropped_buffers_are_reused_by_the_next_handle_on_the_thread() {
        let obs = Obs::logical();
        let mut run = RunObs::with_capacity(obs.clone(), 1000, 0);
        run.add(ROUNDS, Labels::GLOBAL, 1);
        drop(run);
        let reused = RunObs::new(obs.clone());
        let buffer = reused.buffer.as_ref().expect("an enabled handle");
        assert!(buffer.is_empty());
        assert!(
            buffer.samples.capacity() >= 1000,
            "the spare was not reused"
        );
        let many: Vec<RunObs> = (0..SPARE_BUFFERS + 2)
            .map(|_| RunObs::new(obs.clone()))
            .collect();
        drop(many);
        assert_eq!(SPARES.with(|spares| spares.borrow().len()), SPARE_BUFFERS);
        assert_eq!(obs.snapshot().counter_total(names::ENGINE_ROUNDS), 1);
    }

    #[test]
    fn a_full_buffer_flushes_before_growing() {
        let obs = Obs::logical();
        let mut run = RunObs::new(obs.clone());
        for _ in 0..FLUSH_AT + 1 {
            run.add(ROUNDS, Labels::GLOBAL, 1);
        }
        assert_eq!(run.pending(), 1);
        assert_eq!(
            obs.snapshot().counter_total(names::ENGINE_ROUNDS),
            FLUSH_AT as u64
        );
    }
}
