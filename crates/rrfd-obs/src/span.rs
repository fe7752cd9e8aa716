//! Causal span records: `run → round → phase(emit/deliver/decide)`.
//!
//! A [`SpanRecord`] is a closed interval of clock time attributed to one
//! level of the round hierarchy. Records are plain data — no RAII guard,
//! no thread-local context — so recording one is a clock read plus a
//! [`crate::Recorder`] call, and the no-op path stays a single branch
//! like every other [`crate::Obs`] method. Causality is not carried by
//! the record: both [`SpanRecord::id`] and [`SpanRecord::parent_id`] are
//! *derived* deterministically from `(instance, round, process, kind)`,
//! so two identical runs produce identical span trees and a consumer can
//! reconstruct parents without any shared mutable state.
//!
//! Exporters: [`to_chrome`] renders the Chrome trace-event JSON that
//! Perfetto and `chrome://tracing` load (`rrfd-analyze stats
//! --trace-out` writes it); [`to_jsonl`]/[`from_jsonl`] are the
//! machine-first round-trip form, one self-describing object per line,
//! sharing the metrics exporters' determinism contract.

use crate::json::{self, Json};

/// Which phase of a round a phase span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Every process's `emit` for the round.
    Emit,
    /// Delivery of the round's emission table (masked per recipient).
    Deliver,
    /// A decision being recorded (per-process, zero or more per round).
    Decide,
}

impl SpanPhase {
    /// The phase's stable lowercase name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanPhase::Emit => "emit",
            SpanPhase::Deliver => "deliver",
            SpanPhase::Decide => "decide",
        }
    }
}

/// The level of the span hierarchy a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One whole run of one instance.
    Run,
    /// One round of one instance.
    Round,
    /// One phase inside a round.
    Phase(SpanPhase),
}

impl SpanKind {
    /// A small stable tag, mixed into the derived span id.
    fn tag(self) -> u64 {
        match self {
            SpanKind::Run => 1,
            SpanKind::Round => 2,
            SpanKind::Phase(SpanPhase::Emit) => 3,
            SpanKind::Phase(SpanPhase::Deliver) => 4,
            SpanKind::Phase(SpanPhase::Decide) => 5,
        }
    }

    /// The kind's stable lowercase name (phases report their phase name).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Round => "round",
            SpanKind::Phase(p) => p.as_str(),
        }
    }
}

/// One closed span: an interval of clock time at one level of the
/// `run → round → phase` hierarchy of one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The engine instance the span belongs to (0 for single-run
    /// substrates; the pool stamps its global instance id).
    pub instance: u64,
    /// The hierarchy level.
    pub kind: SpanKind,
    /// The round (1-based); 0 for run spans.
    pub round: u32,
    /// The process, for per-process phase spans (decides); `None` for
    /// system-wide spans.
    pub process: Option<u32>,
    /// Clock time the span opened, in nanoseconds.
    pub start_ns: u64,
    /// Clock time the span closed, in nanoseconds.
    pub end_ns: u64,
}

/// FNV-1a over the identity fields — the whole point is that ids are a
/// pure function of `(instance, round, process, kind)`, never of
/// recording order or memory addresses.
fn derive_id(instance: u64, round: u32, process: Option<u32>, tag: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(instance);
    mix(u64::from(round));
    mix(process.map_or(0, |p| u64::from(p) + 1));
    mix(tag);
    // A derived id of 0 would collide with "no parent"; fold it away.
    h.max(1)
}

impl SpanRecord {
    /// The span's deterministic id.
    #[must_use]
    pub fn id(&self) -> u64 {
        derive_id(self.instance, self.round, self.process, self.kind.tag())
    }

    /// The id of the span's parent: phases parent to their round, rounds
    /// to their run, runs to 0 (the root).
    #[must_use]
    pub fn parent_id(&self) -> u64 {
        match self.kind {
            SpanKind::Run => 0,
            SpanKind::Round => derive_id(self.instance, 0, None, SpanKind::Run.tag()),
            SpanKind::Phase(_) => derive_id(self.instance, self.round, None, SpanKind::Round.tag()),
        }
    }

    /// The span's elapsed nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// A display name for trace viewers: `run`, `round 3`, `emit r3`,
    /// `decide r3 p1`.
    #[must_use]
    pub fn display_name(&self) -> String {
        match (self.kind, self.process) {
            (SpanKind::Run, _) => "run".to_owned(),
            (SpanKind::Round, _) => format!("round {}", self.round),
            (SpanKind::Phase(p), None) => format!("{} r{}", p.as_str(), self.round),
            (SpanKind::Phase(p), Some(proc)) => {
                format!("{} r{} p{proc}", p.as_str(), self.round)
            }
        }
    }
}

/// The canonical order's key: instance, start time, hierarchy depth,
/// round, process.
pub(crate) fn canonical_key(s: &SpanRecord) -> (u64, u64, u64, u32, u64) {
    (
        s.instance,
        s.start_ns,
        s.kind.tag(),
        s.round,
        s.process.map_or(0, |p| u64::from(p) + 1),
    )
}

/// Sorts spans into their canonical export order: by instance, then
/// start time, then hierarchy depth (runs before rounds before phases),
/// then round and process. Recording order never leaks into an export.
pub fn sort_canonical(spans: &mut [SpanRecord]) {
    let sorted = sorted_canonical(&[spans]);
    spans.copy_from_slice(&sorted);
}

/// The spans of all `parts`, concatenated, in canonical order; see
/// [`sort_canonical`].
///
/// Recorders receive spans a run at a time, so the input is mostly
/// stretches of one instance. The sort exploits that: it orders those
/// stretches by instance (stably), then sorts each instance's spans by the
/// full key. The result equals one stable sort by the full key, but the
/// comparison sorts stay small — and cost next to nothing on a stretch
/// that arrives already sorted.
#[must_use]
pub(crate) fn sorted_canonical(parts: &[&[SpanRecord]]) -> Vec<SpanRecord> {
    // Maximal stretches of one instance, in recording order.
    let mut stretches: Vec<(u64, &[SpanRecord])> = Vec::new();
    for part in parts {
        for stretch in part.chunk_by(|a, b| a.instance == b.instance) {
            stretches.push((stretch[0].instance, stretch));
        }
    }
    stretches.sort_by_key(|&(instance, _)| instance);
    let mut sorted = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    // Consecutive stretches of one instance form its group; sort each
    // group (already sorted, when it arrived as one pre-sorted run).
    let mut group_start = 0;
    for (i, &(instance, stretch)) in stretches.iter().enumerate() {
        sorted.extend_from_slice(stretch);
        let group_ends = stretches.get(i + 1).is_none_or(|next| next.0 != instance);
        if group_ends {
            let group = &mut sorted[group_start..];
            if !group.is_sorted_by_key(canonical_key) {
                group.sort_by_key(canonical_key);
            }
            group_start = sorted.len();
        }
    }
    sorted
}

/// Formats nanoseconds as decimal microseconds (`ts`/`dur` in the Chrome
/// trace-event format are µs). Integer formatting keeps the output
/// byte-deterministic — no float printing is involved.
fn micros(ns: u64) -> String {
    if ns.is_multiple_of(1_000) {
        format!("{}", ns / 1_000)
    } else {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }
}

/// Renders spans as a Chrome trace-event JSON object (the format
/// Perfetto and `chrome://tracing` load): one complete (`"ph":"X"`)
/// event per span, `pid` = instance, `tid` = process (or 0 for
/// system-wide spans), with the derived span/parent ids in `args`.
#[must_use]
pub fn to_chrome(spans: &[SpanRecord]) -> String {
    let mut sorted = spans.to_vec();
    sort_canonical(&mut sorted);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{},\"tid\":{},\"args\":{{\"round\":{},\"id\":{},\"parent\":{}}}}}",
            json::escape(&span.display_name()),
            span.kind.as_str(),
            micros(span.start_ns),
            micros(span.duration_ns()),
            span.instance,
            span.process.unwrap_or(0),
            span.round,
            span.id(),
            span.parent_id(),
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Serializes spans as JSON Lines, one self-describing object per line,
/// in canonical order.
#[must_use]
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    let mut sorted = spans.to_vec();
    sort_canonical(&mut sorted);
    let mut out = String::new();
    for span in &sorted {
        let process = span
            .process
            .map_or(String::new(), |p| format!(",\"process\":{p}"));
        out.push_str(&format!(
            "{{\"span\":\"{}\",\"instance\":{},\"round\":{}{process},\
             \"start_ns\":{},\"end_ns\":{}}}\n",
            span.kind.as_str(),
            span.instance,
            span.round,
            span.start_ns,
            span.end_ns,
        ));
    }
    out
}

/// Parses spans back from their JSONL form.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn from_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut spans = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let span = span_from_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        spans.push(span);
    }
    sort_canonical(&mut spans);
    Ok(spans)
}

fn span_from_json(line: &str) -> Result<SpanRecord, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let kind = match v.get("span").and_then(Json::as_str) {
        Some("run") => SpanKind::Run,
        Some("round") => SpanKind::Round,
        Some("emit") => SpanKind::Phase(SpanPhase::Emit),
        Some("deliver") => SpanKind::Phase(SpanPhase::Deliver),
        Some("decide") => SpanKind::Phase(SpanPhase::Decide),
        Some(other) => return Err(format!("unknown span kind {other:?}")),
        None => return Err("missing `span` kind".to_owned()),
    };
    let u32_field = |key: &str| -> Result<u32, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| format!("missing or bad `{key}`"))
    };
    let u64_field = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or bad `{key}`"))
    };
    Ok(SpanRecord {
        instance: u64_field("instance")?,
        kind,
        round: u32_field("round")?,
        process: match v.get("process") {
            Some(p) => Some(
                p.as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or("bad `process`")?,
            ),
            None => None,
        },
        start_ns: u64_field("start_ns")?,
        end_ns: u64_field("end_ns")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, round: u32, process: Option<u32>, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            instance: 0,
            kind,
            round,
            process,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn canonical_sort_equals_one_stable_sort_by_the_full_key() {
        // A small LCG: the crate has no dev-dependencies.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let kinds = [
            SpanKind::Run,
            SpanKind::Round,
            SpanKind::Phase(SpanPhase::Emit),
            SpanKind::Phase(SpanPhase::Deliver),
            SpanKind::Phase(SpanPhase::Decide),
        ];
        for _ in 0..200 {
            let len = next(60) as usize;
            let mut spans: Vec<SpanRecord> = Vec::with_capacity(len);
            for _ in 0..len {
                // Repeat the previous instance often, as run-at-a-time
                // flushes do; tiny ranges force exact key ties.
                let instance = match spans.last() {
                    Some(prev) if next(3) > 0 => prev.instance,
                    _ => next(5),
                };
                let start = next(4);
                spans.push(SpanRecord {
                    instance,
                    kind: kinds[next(5) as usize],
                    round: next(3) as u32,
                    process: (next(2) == 0).then(|| next(3) as u32),
                    start_ns: start,
                    end_ns: start + next(1000),
                });
            }
            let mut expected = spans.clone();
            expected.sort_by_key(canonical_key);
            sort_canonical(&mut spans);
            assert_eq!(spans, expected);
        }
    }

    #[test]
    fn ids_are_deterministic_and_parents_link_the_hierarchy() {
        let run = span(SpanKind::Run, 0, None, 0, 3000);
        let round = span(SpanKind::Round, 1, None, 0, 1000);
        let emit = span(SpanKind::Phase(SpanPhase::Emit), 1, None, 0, 300);
        let decide = span(SpanKind::Phase(SpanPhase::Decide), 1, Some(2), 800, 900);
        assert_eq!(run.parent_id(), 0);
        assert_eq!(round.parent_id(), run.id());
        assert_eq!(emit.parent_id(), round.id());
        assert_eq!(decide.parent_id(), round.id());
        // Same identity fields, same id; different process, different id.
        assert_eq!(decide.id(), span(decide.kind, 1, Some(2), 0, 0).id());
        assert_ne!(decide.id(), span(decide.kind, 1, Some(1), 0, 0).id());
        assert_ne!(emit.id(), round.id());
    }

    #[test]
    fn instances_do_not_share_ids() {
        let a = span(SpanKind::Round, 1, None, 0, 0);
        let mut b = a;
        b.instance = 7;
        assert_ne!(a.id(), b.id());
        assert_ne!(a.parent_id(), b.parent_id());
    }

    #[test]
    fn chrome_export_is_deterministic_and_loadable_shaped() {
        let spans = vec![
            span(SpanKind::Round, 1, None, 0, 1000),
            span(SpanKind::Run, 0, None, 0, 2500),
            span(SpanKind::Phase(SpanPhase::Emit), 1, None, 0, 300),
        ];
        let text = to_chrome(&spans);
        // Parses as one JSON object with a traceEvents array.
        let parsed = json::parse(&text).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        for event in events {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("ts").is_some());
            assert!(event.get("dur").is_some());
            assert!(event.get("args").and_then(|a| a.get("parent")).is_some());
        }
        // Run sorts before its round at equal start times (shallower first).
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("run"));
        // Byte-deterministic regardless of input order.
        let mut reversed = spans.clone();
        reversed.reverse();
        assert_eq!(to_chrome(&reversed), text);
    }

    #[test]
    fn micros_formats_without_floats() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_000), "1");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(12_030), "12.030");
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = vec![
            span(SpanKind::Run, 0, None, 0, 9000),
            span(SpanKind::Round, 2, None, 1000, 2000),
            span(SpanKind::Phase(SpanPhase::Decide), 2, Some(1), 1800, 1900),
        ];
        let text = to_jsonl(&spans);
        let back = from_jsonl(&text).unwrap();
        let mut expected = spans.clone();
        sort_canonical(&mut expected);
        assert_eq!(back, expected);
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn malformed_jsonl_is_rejected_with_line_numbers() {
        let err = from_jsonl(
            "{\"span\":\"warp\",\"instance\":0,\"round\":1,\"start_ns\":0,\"end_ns\":0}\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = from_jsonl("{\"span\":\"run\",\"instance\":0}\n").unwrap_err();
        assert!(err.contains("round"), "{err}");
    }
}
