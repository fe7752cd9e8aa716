//! Recorders: where metric samples go.
//!
//! The [`Recorder`] trait is the single sink interface; instrumented code
//! holds it behind an [`crate::Obs`] handle, and [`crate::Obs::noop`] is
//! the disabled one. One implementation ships: [`ShardedRecorder`], a
//! dense store. Registered metrics are interned into [`MetricId`]s, and
//! each metric's slots sit in a table indexed by `(round, process)`, so
//! recording a sample indexes arrays instead of hashing a string. The
//! store is striped by thread, so concurrent writers (the pool's shards,
//! the threaded runtime's process threads) take different locks, and a
//! run's buffered samples arrive in one [`Recorder::flush`] under one
//! lock. Determinism comes at snapshot time, not record time:
//! [`Recorder::snapshot`] merges the stripes and sorts every entry by
//! `(metric, process, round)`, so physical recording order never leaks
//! into an export.

use crate::buffer::{RunBuffer, SampleValue};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::metric::MetricId;
use crate::span::{self, SpanRecord};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The label schema every sample carries: which process (if any) and
/// which round (0 = not round-scoped). Bounded cardinality by
/// construction — no free-form strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels {
    /// The process the sample describes, or `None` for system-wide.
    pub process: Option<u32>,
    /// The round the sample describes, or 0 for run-wide.
    pub round: u32,
}

impl Labels {
    /// Run-wide, system-wide: no process, no round.
    pub const GLOBAL: Labels = Labels {
        process: None,
        round: 0,
    };

    /// System-wide but round-scoped.
    #[must_use]
    pub fn round(round: u32) -> Self {
        Labels {
            process: None,
            round,
        }
    }

    /// Process-scoped, run-wide.
    #[must_use]
    pub fn process(process: usize) -> Self {
        Labels {
            process: Some(process as u32),
            round: 0,
        }
    }

    /// Process- and round-scoped — the full key.
    #[must_use]
    pub fn process_round(process: usize, round: u32) -> Self {
        Labels {
            process: Some(process as u32),
            round,
        }
    }
}

/// A frozen sample value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-write-wins level.
    Gauge(i64),
    /// A frozen distribution.
    Histogram(HistogramSnapshot),
}

/// One snapshot row: a metric at a label set with its frozen value.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The metric name (`rrfd_`-prefixed; see [`crate::names`]).
    pub metric: String,
    /// The sample's labels.
    pub labels: Labels,
    /// The frozen value.
    pub value: MetricValue,
}

/// A deterministic, sorted snapshot of a recorder's contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: Vec<Entry>,
}

impl Snapshot {
    /// Builds a snapshot from rows, sorting them into canonical
    /// `(metric, process, round)` order.
    #[must_use]
    pub fn from_entries(mut entries: Vec<Entry>) -> Self {
        entries.sort_by(|a, b| (a.metric.as_str(), a.labels).cmp(&(b.metric.as_str(), b.labels)));
        Snapshot { entries }
    }

    /// The rows, in canonical order.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The value recorded for `metric` at exactly `labels`.
    #[must_use]
    pub fn get(&self, metric: &str, labels: Labels) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.metric == metric && e.labels == labels)
            .map(|e| &e.value)
    }

    /// The sum of every counter row of `metric`, across all labels.
    #[must_use]
    pub fn counter_total(&self, metric: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.metric == metric)
            .map(|e| match &e.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Every histogram row of `metric` merged into one, across all
    /// labels; `None` when `metric` has no histogram row.
    #[must_use]
    pub fn histogram_total(&self, metric: &str) -> Option<HistogramSnapshot> {
        let mut rows = self
            .entries
            .iter()
            .filter(|e| e.metric == metric)
            .filter_map(|e| match &e.value {
                MetricValue::Histogram(h) => Some(h),
                _ => None,
            });
        let mut total = rows.next()?.clone();
        for h in rows {
            total.merge(h);
        }
        Some(total)
    }

    /// The distinct rounds (> 0) appearing in any row's labels, ascending.
    #[must_use]
    pub fn rounds(&self) -> Vec<u32> {
        let mut rounds: Vec<u32> = self
            .entries
            .iter()
            .map(|e| e.labels.round)
            .filter(|&r| r > 0)
            .collect();
        rounds.sort_unstable();
        rounds.dedup();
        rounds
    }
}

/// A sink for metric samples. Implementations must tolerate concurrent
/// callers and must produce canonically sorted snapshots.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Adds `delta` to the counter `metric` at `labels`.
    fn add(&self, metric: &'static str, labels: Labels, delta: u64);
    /// Sets the gauge `metric` at `labels`.
    fn gauge(&self, metric: &'static str, labels: Labels, value: i64);
    /// Records `value` into the histogram `metric` at `labels`.
    fn observe(&self, metric: &'static str, labels: Labels, value: u64);
    /// Freezes the current contents into a sorted [`Snapshot`].
    fn snapshot(&self) -> Snapshot;
    /// Retains a closed causal span. The default drops it, so recorders
    /// that predate the tracing plane stay valid implementations.
    fn record_span(&self, span: SpanRecord) {
        let _ = span;
    }
    /// The spans retained so far, in canonical export order (empty for
    /// recorders that do not retain spans).
    fn spans(&self) -> Vec<SpanRecord> {
        Vec::new()
    }
    /// Takes every sample and span of a run's `buffer`, leaving it empty
    /// (its allocation kept). The default replays each sample through
    /// [`Recorder::add`], [`Recorder::gauge`] or [`Recorder::observe`] in
    /// recording order, then each span through [`Recorder::record_span`],
    /// so a recorder that implements only the required methods still sees
    /// every sample exactly as if it had been recorded unbuffered.
    fn flush(&self, buffer: &mut RunBuffer) {
        for sample in buffer.samples() {
            let (metric, labels) = (sample.metric().name(), sample.labels());
            match sample.value() {
                SampleValue::Add(delta) => self.add(metric, labels, delta),
                SampleValue::Gauge(value) => self.gauge(metric, labels, value),
                SampleValue::Observe(value) => self.observe(metric, labels, value),
            }
        }
        for span in buffer.spans() {
            self.record_span(*span);
        }
        buffer.clear();
    }
}

/// One live slot. A slot's kind is fixed by its first sample; mismatched
/// operations on an existing slot are ignored rather than panicking (the
/// lint pass keeps `panic!` out of library code, and a metrics layer must
/// never take a run down).
#[derive(Debug, Clone, Copy, Default)]
enum Slot {
    #[default]
    Empty,
    Counter(u64),
    /// A gauge level plus the recorder-wide stamp of its write, which
    /// orders writes that landed in different stripes.
    Gauge {
        value: i64,
        stamp: u64,
    },
    /// An index into the owning table's histogram arena.
    Hist(usize),
}

/// Labels at or beyond these bounds live in a table's sparse map instead
/// of its dense slots, so one outlandish label cannot allocate millions of
/// empty slots.
const DENSE_ROUNDS: usize = 1 << 16;
const DENSE_PROCESSES: usize = 1 << 10;

/// The narrowest row a per-process table starts with: room for 15
/// processes before a row has to widen.
const MIN_PROCESS_ROW: usize = 16;

/// One metric's slots, in one flat vector of rows: the slot for
/// `(round, process slot)` is `slots[round * row + process slot]`, where
/// process slot 0 is "no process" and slot `p + 1` is process `p`. A
/// round-only metric keeps rows of one slot; the first per-process sample
/// widens rows to [`MIN_PROCESS_ROW`] (or the next power of two that fits).
/// Rows grow on first use; nothing is preallocated. Histograms live in an
/// arena beside the slots, so a new histogram is not an allocation of its
/// own.
#[derive(Debug, Clone, Default)]
struct Table {
    slots: Vec<Slot>,
    row: usize,
    hists: Vec<Histogram>,
    sparse: BTreeMap<Labels, Slot>,
}

impl Table {
    /// The slot for `labels`: straight from the dense slots when they
    /// already cover it, from [`Table::slot_slow`] otherwise.
    #[inline]
    fn slot(&mut self, labels: Labels) -> &mut Slot {
        let round = labels.round as usize;
        let process = labels.process.map_or(0, |p| p as usize + 1);
        // The dense slots never reach round `DENSE_ROUNDS` and rows never
        // exceed `DENSE_PROCESSES`, so a hit here is always a dense label.
        let index = round.wrapping_mul(self.row).wrapping_add(process);
        if process < self.row && index < self.slots.len() {
            return &mut self.slots[index];
        }
        self.slot_slow(labels)
    }

    /// [`Table::slot`] for a label the dense slots do not cover yet: a
    /// sparse label, or one that needs a wider row or another round.
    #[cold]
    fn slot_slow(&mut self, labels: Labels) -> &mut Slot {
        let round = labels.round as usize;
        let process = labels.process.map_or(0, |p| p as usize + 1);
        if round >= DENSE_ROUNDS || process >= DENSE_PROCESSES {
            return self.sparse.entry(labels).or_default();
        }
        if process >= self.row {
            self.widen(process);
        }
        let index = round * self.row + process;
        if self.slots.len() <= index {
            self.slots.resize((round + 1) * self.row, Slot::Empty);
        }
        &mut self.slots[index]
    }

    /// Re-lays the slots out with rows wide enough for `process`.
    fn widen(&mut self, process: usize) {
        let row = match (self.row, process) {
            (0, 0) => 1,
            _ => (process + 1).next_power_of_two().max(MIN_PROCESS_ROW),
        };
        let mut slots = Vec::new();
        // An empty table has no rows, whatever the chunk size.
        for old_row in self.slots.chunks(self.row.max(1)) {
            slots.extend_from_slice(old_row);
            slots.resize(slots.len() + row - old_row.len(), Slot::Empty);
        }
        self.slots = slots;
        self.row = row;
    }

    /// Applies one sample; a gauge write takes `*stamp` and advances it.
    fn apply(&mut self, labels: Labels, value: SampleValue, stamp: &mut u64) {
        let next_hist = self.hists.len();
        let slot = self.slot(labels);
        match (*slot, value) {
            (Slot::Empty, SampleValue::Add(delta)) => *slot = Slot::Counter(delta),
            (Slot::Counter(v), SampleValue::Add(delta)) => {
                *slot = Slot::Counter(v.saturating_add(delta));
            }
            (Slot::Empty | Slot::Gauge { .. }, SampleValue::Gauge(value)) => {
                *slot = Slot::Gauge {
                    value,
                    stamp: *stamp,
                };
                *stamp += 1;
            }
            (Slot::Empty, SampleValue::Observe(value)) => {
                *slot = Slot::Hist(next_hist);
                let mut h = Histogram::new();
                h.observe(value);
                if self.hists.capacity() == 0 {
                    // A row's worth up front: its slots tend to fill together.
                    self.hists.reserve_exact(self.row);
                }
                self.hists.push(h);
            }
            (Slot::Hist(at), SampleValue::Observe(value)) => self.hists[at].observe(value),
            _ => {}
        }
    }

    /// Every non-empty slot with its labels.
    fn slots(&self) -> impl Iterator<Item = (Labels, Slot)> + '_ {
        let row = self.row.max(1);
        let dense = self.slots.iter().enumerate().map(move |(index, slot)| {
            let labels = Labels {
                process: (index % row).checked_sub(1).map(|p| p as u32),
                round: (index / row) as u32,
            };
            (labels, *slot)
        });
        dense
            .chain(self.sparse.iter().map(|(labels, slot)| (*labels, *slot)))
            .filter(|(_, slot)| !matches!(slot, Slot::Empty))
    }

    fn value(&self, slot: Slot) -> Option<MetricValue> {
        match slot {
            Slot::Empty => None,
            Slot::Counter(v) => Some(MetricValue::Counter(v)),
            Slot::Gauge { value, .. } => Some(MetricValue::Gauge(value)),
            Slot::Hist(at) => Some(MetricValue::Histogram(self.hists[at].snapshot())),
        }
    }

    /// Folds another stripe's table for the same metric into this one:
    /// counters add, the later-stamped gauge wins, histograms merge, and a
    /// slot whose kinds disagree keeps this table's kind.
    fn merge(&mut self, other: &Table) {
        for (labels, theirs) in other.slots() {
            let next_hist = self.hists.len();
            let mine = self.slot(labels);
            match (*mine, theirs) {
                (Slot::Empty, Slot::Hist(at)) => {
                    *mine = Slot::Hist(next_hist);
                    self.hists.push(other.hists[at].clone());
                }
                (Slot::Empty, _) => *mine = theirs,
                (Slot::Counter(a), Slot::Counter(b)) => *mine = Slot::Counter(a.saturating_add(b)),
                (Slot::Gauge { stamp: a, .. }, Slot::Gauge { stamp: b, .. }) if b > a => {
                    *mine = theirs;
                }
                (Slot::Hist(a), Slot::Hist(b)) => self.hists[a].merge(&other.hists[b]),
                _ => {}
            }
        }
    }
}

/// One stripe of the store: a table per registered metric (indexed by
/// [`MetricId`], grown on first use), tables for unregistered names in
/// first-use order, and the spans recorded into this stripe.
#[derive(Debug, Default)]
struct Stripe {
    tables: Vec<Table>,
    unregistered: Vec<(&'static str, Table)>,
    spans: Vec<SpanRecord>,
}

impl Stripe {
    /// The registered metrics' tables, indexed by [`MetricId::index`].
    fn tables(&mut self) -> &mut [Table] {
        if self.tables.is_empty() {
            self.tables.resize_with(MetricId::COUNT, Table::default);
        }
        &mut self.tables
    }

    fn table(&mut self, id: MetricId) -> &mut Table {
        &mut self.tables()[id.index()]
    }

    fn unregistered_table(&mut self, name: &'static str) -> &mut Table {
        let at = match self.unregistered.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.unregistered.push((name, Table::default()));
                self.unregistered.len() - 1
            }
        };
        &mut self.unregistered[at].1
    }

    /// Folds another stripe's metrics (not its spans) into this one.
    fn merge(&mut self, other: &Stripe) {
        if self.tables.len() < other.tables.len() {
            self.tables.resize_with(other.tables.len(), Table::default);
        }
        for (mine, theirs) in self.tables.iter_mut().zip(&other.tables) {
            mine.merge(theirs);
        }
        for (name, table) in &other.unregistered {
            self.unregistered_table(name).merge(table);
        }
    }

    /// Every non-empty slot as a snapshot row, unsorted.
    fn entries(&self) -> Vec<Entry> {
        let registered = self
            .tables
            .iter()
            .enumerate()
            .map(|(index, table)| (crate::names::ALL[index], table));
        let unregistered = self.unregistered.iter().map(|(name, table)| (*name, table));
        let mut entries = Vec::new();
        for (metric, table) in registered.chain(unregistered) {
            for (labels, slot) in table.slots() {
                if let Some(value) = table.value(slot) {
                    entries.push(Entry {
                        metric: metric.to_owned(),
                        labels,
                        value,
                    });
                }
            }
        }
        entries
    }
}

const STRIPES: usize = 16;

/// Hands each thread a stripe, round-robin in order of first use.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// Locks a stripe. Stripes hold plain data that no panic can leave half
/// written, so a poisoned lock is still safe to use.
fn lock(stripe: &Mutex<Stripe>) -> MutexGuard<'_, Stripe> {
    stripe.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static THREAD_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// The default enabled recorder: a dense store striped by thread.
///
/// Each stripe holds one table per metric, indexed by `(round, process)`
/// (see the module docs); a thread always records into the same stripe,
/// so up to `STRIPES` threads never share a lock. A snapshot merges the
/// stripes — counters add, histograms merge bucket-wise, and of two gauge
/// writes to one key the later one wins — and sorts the result.
#[derive(Debug, Default)]
pub struct ShardedRecorder {
    stripes: [Mutex<Stripe>; STRIPES],
    /// The next gauge stamp to hand out. Stamps order gauge writes so
    /// last-write-wins holds across stripes; they are reserved under the
    /// writing stripe's lock, one per direct write and one block per
    /// flush.
    gauge_stamps: AtomicU64,
}

impl ShardedRecorder {
    /// An empty recorder: one value with no heap allocation; its tables
    /// grow as samples arrive.
    #[must_use]
    pub fn new() -> Self {
        ShardedRecorder::default()
    }

    /// The calling thread's stripe, locked.
    fn stripe(&self) -> MutexGuard<'_, Stripe> {
        lock(&self.stripes[THREAD_STRIPE.with(|stripe| *stripe)])
    }

    /// Reserves `count` consecutive gauge stamps and returns the first.
    /// Called with the writing stripe locked, so a stripe's stamps rise in
    /// the order its writes apply.
    fn reserve_stamps(&self, count: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        self.gauge_stamps.fetch_add(count, Ordering::Relaxed)
    }

    fn record(&self, metric: &'static str, labels: Labels, value: SampleValue) {
        let id = MetricId::lookup(metric);
        let mut stripe = self.stripe();
        let table = match id {
            Some(id) => stripe.table(id),
            None => stripe.unregistered_table(metric),
        };
        let mut stamp = self.reserve_stamps(u64::from(matches!(value, SampleValue::Gauge(_))));
        table.apply(labels, value, &mut stamp);
    }
}

impl Recorder for ShardedRecorder {
    fn add(&self, metric: &'static str, labels: Labels, delta: u64) {
        self.record(metric, labels, SampleValue::Add(delta));
    }

    fn gauge(&self, metric: &'static str, labels: Labels, value: i64) {
        self.record(metric, labels, SampleValue::Gauge(value));
    }

    fn observe(&self, metric: &'static str, labels: Labels, value: u64) {
        self.record(metric, labels, SampleValue::Observe(value));
    }

    fn snapshot(&self) -> Snapshot {
        let mut merged = Stripe::default();
        for stripe in &self.stripes {
            merged.merge(&lock(stripe));
        }
        Snapshot::from_entries(merged.entries())
    }

    fn record_span(&self, span: SpanRecord) {
        self.stripe().spans.push(span);
    }

    fn spans(&self) -> Vec<SpanRecord> {
        // Every stripe is held for the one copy into canonical order. No
        // other path holds two stripes, and this one locks in index order,
        // so concurrent exports cannot deadlock.
        let stripes: Vec<MutexGuard<'_, Stripe>> = self.stripes.iter().map(lock).collect();
        let parts: Vec<&[SpanRecord]> = stripes.iter().map(|s| s.spans.as_slice()).collect();
        span::sorted_canonical(&parts)
    }

    fn flush(&self, buffer: &mut RunBuffer) {
        {
            let mut stripe = self.stripe();
            let gauges = buffer
                .samples()
                .iter()
                .filter(|sample| matches!(sample.value(), SampleValue::Gauge(_)))
                .count();
            let mut stamp = self.reserve_stamps(gauges as u64);
            let tables = stripe.tables();
            for sample in buffer.samples() {
                tables[sample.metric().index()].apply(sample.labels(), sample.value(), &mut stamp);
            }
            stripe.spans.extend_from_slice(buffer.spans());
            // Sorting the run's spans here, on the flushing thread, leaves
            // the export's canonical sort a linear pass over them (a stable
            // pre-sort by the same key cannot change the final order).
            let flushed = stripe.spans.len() - buffer.spans().len();
            stripe.spans[flushed..].sort_by_key(span::canonical_key);
        }
        buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let rec = ShardedRecorder::new();
        rec.add("m", Labels::round(1), 2);
        rec.add("m", Labels::round(1), 3);
        rec.add("m", Labels::round(2), 1);
        let snap = rec.snapshot();
        assert_eq!(
            snap.get("m", Labels::round(1)),
            Some(&MetricValue::Counter(5))
        );
        assert_eq!(snap.counter_total("m"), 6);
        assert_eq!(snap.rounds(), vec![1, 2]);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let rec = ShardedRecorder::new();
        rec.gauge("g", Labels::GLOBAL, 10);
        rec.gauge("g", Labels::GLOBAL, -4);
        assert_eq!(
            rec.snapshot().get("g", Labels::GLOBAL),
            Some(&MetricValue::Gauge(-4))
        );
    }

    #[test]
    fn histograms_record_distributions() {
        let rec = ShardedRecorder::new();
        rec.observe("h", Labels::process_round(0, 1), 3);
        rec.observe("h", Labels::process_round(0, 1), 100);
        let snap = rec.snapshot();
        let Some(MetricValue::Histogram(h)) = snap.get("h", Labels::process_round(0, 1)) else {
            panic!("expected a histogram");
        };
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 103);
    }

    #[test]
    fn histogram_totals_merge_every_label_set() {
        let rec = ShardedRecorder::new();
        rec.observe("h", Labels::round(1), 3);
        rec.observe("h", Labels::round(2), 1);
        rec.observe("h", Labels::round(2), 100);
        rec.add("c", Labels::GLOBAL, 1);
        let total = rec.snapshot().histogram_total("h").expect("two rows");
        assert_eq!(total.buckets, vec![(1, 1), (4, 1), (256, 1)]);
        assert_eq!((total.count, total.sum), (3, 104));
        assert_eq!(rec.snapshot().histogram_total("c"), None);
    }

    #[test]
    fn kind_mismatch_is_ignored_not_fatal() {
        let rec = ShardedRecorder::new();
        rec.add("m", Labels::GLOBAL, 1);
        rec.observe("m", Labels::GLOBAL, 99); // ignored: m is a counter
        rec.gauge("m", Labels::GLOBAL, 7); // ignored too
        assert_eq!(
            rec.snapshot().get("m", Labels::GLOBAL),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn snapshots_are_canonically_sorted() {
        let rec = ShardedRecorder::new();
        rec.add("z", Labels::GLOBAL, 1);
        rec.add("a", Labels::round(2), 1);
        rec.add("a", Labels::round(1), 1);
        rec.add("a", Labels::process_round(1, 1), 1);
        rec.add("a", Labels::process_round(0, 1), 1);
        let snap = rec.snapshot();
        let keys: Vec<(String, Labels)> = snap
            .entries()
            .iter()
            .map(|e| (e.metric.clone(), e.labels))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        assert_eq!(keys, sorted);
        assert_eq!(snap.entries()[0].metric, "a");
        assert_eq!(snap.entries().last().map(|e| e.metric.as_str()), Some("z"));
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        use std::sync::Arc;
        let rec = Arc::new(ShardedRecorder::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    rec.add("c", Labels::process(t), 1);
                    rec.observe("h", Labels::process(t), i);
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter_total("c"), 4000);
    }

    #[test]
    fn rows_widen_without_losing_slots() {
        let rec = ShardedRecorder::new();
        // Round-only samples first (one-slot rows), then per-process ones
        // that force a re-layout, then a process past the first width.
        rec.add("w", Labels::round(1), 1);
        rec.add("w", Labels::round(3), 3);
        rec.add("w", Labels::process_round(0, 2), 20);
        rec.add("w", Labels::process_round(40, 3), 403);
        rec.observe("h", Labels::process_round(2, 1), 5);
        rec.observe("h", Labels::process_round(30, 1), 7);
        let snap = rec.snapshot();
        let counter = |labels| snap.get("w", labels).cloned();
        assert_eq!(counter(Labels::round(1)), Some(MetricValue::Counter(1)));
        assert_eq!(counter(Labels::round(3)), Some(MetricValue::Counter(3)));
        assert_eq!(
            counter(Labels::process_round(0, 2)),
            Some(MetricValue::Counter(20))
        );
        assert_eq!(
            counter(Labels::process_round(40, 3)),
            Some(MetricValue::Counter(403))
        );
        assert_eq!(snap.counter_total("w"), 427);
        for (process, value) in [(2, 5), (30, 7)] {
            let Some(MetricValue::Histogram(h)) = snap.get("h", Labels::process_round(process, 1))
            else {
                panic!("expected a histogram at process {process}");
            };
            assert_eq!((h.count, h.sum), (1, value));
        }
        assert_eq!(snap.entries().len(), 6);
    }

    #[test]
    fn outlandish_labels_fall_back_to_the_sparse_map() {
        let rec = ShardedRecorder::new();
        let far = Labels::process_round(1 << 20, u32::MAX);
        rec.add(crate::names::ENGINE_ROUNDS, far, 2);
        rec.add(crate::names::ENGINE_ROUNDS, far, 3);
        rec.add(crate::names::ENGINE_ROUNDS, Labels::round(1), 1);
        let snap = rec.snapshot();
        assert_eq!(
            snap.get(crate::names::ENGINE_ROUNDS, far),
            Some(&MetricValue::Counter(5))
        );
        assert_eq!(snap.counter_total(crate::names::ENGINE_ROUNDS), 6);
    }

    #[test]
    fn stripes_merge_counters_histograms_and_the_latest_gauge() {
        use std::sync::Arc;
        let rec = Arc::new(ShardedRecorder::new());
        // Sequential writers on distinct threads: each thread records into
        // its own stripe, and the later gauge write must win the merge.
        for value in [1i64, 2, 3] {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                rec.gauge("g", Labels::GLOBAL, value);
                rec.add("c", Labels::process(0), 10);
                rec.observe("h", Labels::GLOBAL, 4);
            })
            .join()
            .expect("writer thread");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.get("g", Labels::GLOBAL), Some(&MetricValue::Gauge(3)));
        assert_eq!(snap.counter_total("c"), 30);
        let Some(MetricValue::Histogram(h)) = snap.get("h", Labels::GLOBAL) else {
            panic!("expected a histogram");
        };
        assert_eq!((h.count, h.sum), (3, 12));
    }

    #[test]
    fn flush_applies_a_buffer_like_individual_calls() {
        use crate::{names, MetricId, RunBuffer};
        let id = MetricId::of(names::CONF_SATISFIED);
        let mut buffer = RunBuffer::new();
        buffer.gauge(id, Labels::process(1), 1);
        buffer.gauge(id, Labels::process(1), 0);
        buffer.add(MetricId::of(names::CONF_ROUNDS), Labels::GLOBAL, 4);
        buffer.observe(MetricId::of(names::ENGINE_ROUND_LATENCY), Labels::GLOBAL, 9);
        let batched = ShardedRecorder::new();
        batched.flush(&mut buffer);
        assert!(buffer.is_empty(), "flushing empties the buffer");
        let single = ShardedRecorder::new();
        single.gauge(names::CONF_SATISFIED, Labels::process(1), 1);
        single.gauge(names::CONF_SATISFIED, Labels::process(1), 0);
        single.add(names::CONF_ROUNDS, Labels::GLOBAL, 4);
        single.observe(names::ENGINE_ROUND_LATENCY, Labels::GLOBAL, 9);
        assert_eq!(batched.snapshot(), single.snapshot());
        assert_eq!(
            batched
                .snapshot()
                .get(names::CONF_SATISFIED, Labels::process(1)),
            Some(&MetricValue::Gauge(0))
        );
    }

    #[test]
    fn the_later_of_two_flushes_wins_a_gauge() {
        use crate::{names, MetricId, RunBuffer};
        use std::sync::Arc;
        let id = MetricId::of(names::CONF_STRONGEST);
        let rec = Arc::new(ShardedRecorder::new());
        // One flush per thread, in sequence: each thread writes its own
        // stripe, and each flush reserves one block of stamps for its
        // three gauge writes. The second, smaller value must win.
        for value in [7i64, 3] {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                let mut buffer = RunBuffer::new();
                buffer.gauge(id, Labels::process(0), value);
                buffer.gauge(id, Labels::GLOBAL, value - 1);
                buffer.gauge(id, Labels::GLOBAL, value);
                rec.flush(&mut buffer);
            })
            .join()
            .expect("flushing thread");
        }
        let snap = rec.snapshot();
        for labels in [Labels::GLOBAL, Labels::process(0)] {
            assert_eq!(
                snap.get(names::CONF_STRONGEST, labels),
                Some(&MetricValue::Gauge(3))
            );
        }
    }

    #[test]
    fn spans_are_retained_and_canonically_ordered() {
        use crate::span::{SpanKind, SpanRecord};
        let rec = ShardedRecorder::new();
        let mk = |instance: u64, round: u32, start: u64| SpanRecord {
            instance,
            kind: SpanKind::Round,
            round,
            process: None,
            start_ns: start,
            end_ns: start + 100,
        };
        rec.record_span(mk(1, 1, 0));
        rec.record_span(mk(0, 2, 1000));
        rec.record_span(mk(0, 1, 0));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.instance, s.round))
                .collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (1, 1)]
        );
        // Spans never leak into the metric snapshot.
        assert!(rec.snapshot().entries().is_empty());
    }
}
