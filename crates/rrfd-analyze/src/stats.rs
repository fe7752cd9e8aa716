//! Per-round statistics over capture files.
//!
//! `rrfd-analyze stats` renders any of the workspace's three capture
//! formats as a deterministic per-round table:
//!
//! * **`rrfd-trace v1`** ([`rrfd_core::RunTrace`]) — per round: total
//!   suspicions `Σ|D(i,r)|`, the smallest and summed heard-set sizes,
//!   and how many processes decided in that round; then the outcome.
//! * **`rrfd-events v1`** ([`rrfd_core::EventLog`]) — per round: emit /
//!   gather / detect / deliver / receive / decide counts, plus the
//!   round-less shared-state access total.
//! * **metrics JSONL** (one [`rrfd_obs::Snapshot`] entry per line, as
//!   written by `Snapshot::write_jsonl`) — counters pivoted into a
//!   round × metric table, histograms as count / p50 / p95 / mean rows,
//!   gauges as a flat list.
//!
//! The renderer is pure text-in/text-out and byte-deterministic for a
//! given input, which is what lets CI golden-test its output with
//! `stats --check`.
//!
//! `stats --trace-out` additionally synthesizes a Perfetto-loadable
//! Chrome trace ([`chrome_trace`]) from an `rrfd-trace v1` capture: the
//! trace records causal structure, not wall time, so each round is laid
//! out in a fixed synthetic slot (1 ms per round, emit/deliver/decide
//! at fixed offsets inside it) and the export is byte-deterministic.

use rrfd_core::{Actor, EventLog, RtEventKind, RunTrace};
use rrfd_obs::{HistogramSnapshot, MetricValue, Snapshot, SpanKind, SpanPhase, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the statistics for one capture file, dispatching on its
/// format header (`rrfd-trace v1`, `rrfd-events v1`, or JSONL).
///
/// # Errors
///
/// Returns a message naming the problem when the input matches no known
/// format or fails to parse as the one it claims to be.
pub fn render(text: &str) -> Result<String, String> {
    let first = text.lines().next().unwrap_or_default().trim();
    if first == "rrfd-trace v1" {
        let trace: RunTrace = text.parse().map_err(|e| format!("trace: {e}"))?;
        Ok(render_trace(&trace))
    } else if first == "rrfd-events v1" {
        let log: EventLog = text.parse().map_err(|e| format!("events: {e}"))?;
        Ok(render_events(&log))
    } else if first.starts_with('{') {
        let snapshot = Snapshot::from_jsonl(text).map_err(|e| format!("metrics: {e}"))?;
        Ok(render_metrics(&snapshot))
    } else {
        Err(format!(
            "unrecognized capture format (first line {first:?}); expected \
             `rrfd-trace v1`, `rrfd-events v1`, or metrics JSONL"
        ))
    }
}

/// Synthetic logical time per round in the Chrome export, in
/// nanoseconds: round `r` occupies `[(r−1)·1 ms, r·1 ms)`.
const ROUND_SLOT_NS: u64 = 1_000_000;

/// Synthesizes causal [`SpanRecord`]s from a replay trace and renders
/// them as Chrome trace-event JSON (loadable at `ui.perfetto.dev`).
///
/// A [`RunTrace`] carries no clock readings — it is the deterministic
/// record of *what happened*, not when — so the spans use synthetic
/// logical timestamps: round `r` fills the slot `[(r−1)·1 ms, r·1 ms)`,
/// with the emit phase at `+0‥300 µs`, delivery at `+400‥700 µs`
/// (omitted for a round the adversary aborted before delivery), and
/// each process's decision at `+800‥900 µs` of its decision round. The
/// derived span/parent ids in `args` are the same pure function of
/// `(instance, round, process, kind)` the live tracing plane uses, so a
/// synthesized tree and a recorded one agree on identity.
#[must_use]
pub fn chrome_trace(trace: &RunTrace) -> String {
    let mut spans = Vec::new();
    let rounds = trace.rounds();
    spans.push(SpanRecord {
        instance: 0,
        kind: SpanKind::Run,
        round: 0,
        process: None,
        start_ns: 0,
        end_ns: rounds.len() as u64 * ROUND_SLOT_NS,
    });
    for (idx, round) in rounds.iter().enumerate() {
        let round_no = idx as u32 + 1;
        let base = idx as u64 * ROUND_SLOT_NS;
        spans.push(SpanRecord {
            instance: 0,
            kind: SpanKind::Round,
            round: round_no,
            process: None,
            start_ns: base,
            end_ns: base + ROUND_SLOT_NS,
        });
        spans.push(SpanRecord {
            instance: 0,
            kind: SpanKind::Phase(SpanPhase::Emit),
            round: round_no,
            process: None,
            start_ns: base,
            end_ns: base + 300_000,
        });
        if !round.heard.is_empty() {
            spans.push(SpanRecord {
                instance: 0,
                kind: SpanKind::Phase(SpanPhase::Deliver),
                round: round_no,
                process: None,
                start_ns: base + 400_000,
                end_ns: base + 700_000,
            });
        }
        for (i, decided) in trace.decision_rounds().iter().enumerate() {
            if decided.is_some_and(|r| r.get() == round_no) {
                spans.push(SpanRecord {
                    instance: 0,
                    kind: SpanKind::Phase(SpanPhase::Decide),
                    round: round_no,
                    process: Some(i as u32),
                    start_ns: base + 800_000,
                    end_ns: base + 900_000,
                });
            }
        }
    }
    rrfd_obs::span::to_chrome(&spans)
}

/// Parses `text` as an `rrfd-trace v1` capture and renders
/// [`chrome_trace`] for it.
///
/// # Errors
///
/// Returns a message when the capture is not an `rrfd-trace v1` file
/// (the other capture formats carry no per-round causal structure to
/// lay out) or fails to parse as one.
pub fn chrome_trace_text(text: &str) -> Result<String, String> {
    let first = text.lines().next().unwrap_or_default().trim();
    if first != "rrfd-trace v1" {
        return Err(format!(
            "--trace-out needs an `rrfd-trace v1` capture (got first line {first:?})"
        ));
    }
    let trace: RunTrace = text.parse().map_err(|e| format!("trace: {e}"))?;
    Ok(chrome_trace(&trace))
}

/// Lays out `rows` under `headers` with two-space gutters, every cell
/// right-aligned to its column width. Returns one trailing-newline block.
fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if let Some(w) = widths.get_mut(i) {
                *w = (*w).max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut emit_row = |cells: &mut dyn Iterator<Item = &str>| {
        for (i, cell) in cells.enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let w = widths.get(i).copied().unwrap_or(0);
            let _ = write!(out, "{cell:>w$}");
        }
        out.push('\n');
    };
    emit_row(&mut headers.iter().copied());
    for row in rows {
        emit_row(&mut row.iter().map(String::as_str));
    }
    out
}

fn render_trace(trace: &RunTrace) -> String {
    let n = trace.system_size().get();
    let mut rows = Vec::new();
    let (mut total_suspected, mut total_heard) = (0usize, 0usize);
    for (idx, round) in trace.rounds().iter().enumerate() {
        let round_no = idx as u32 + 1;
        let suspected: usize = (0..n)
            .map(|i| round.faults.of(rrfd_core::ProcessId::new(i)).len())
            .sum();
        let heard_sizes: Vec<usize> = round.heard.iter().map(|s| s.len()).collect();
        let heard_min = heard_sizes.iter().min().copied().unwrap_or(0);
        let heard_sum: usize = heard_sizes.iter().sum();
        let decided = trace
            .decision_rounds()
            .iter()
            .filter(|d| d.is_some_and(|r| r.get() == round_no))
            .count();
        total_suspected += suspected;
        total_heard += heard_sum;
        rows.push(vec![
            round_no.to_string(),
            suspected.to_string(),
            heard_min.to_string(),
            heard_sum.to_string(),
            decided.to_string(),
        ]);
    }
    let decided_total = trace
        .decision_rounds()
        .iter()
        .filter(|d| d.is_some())
        .count();
    let mut out = format!(
        "capture: rrfd-trace v1  n={n}  rounds={}\noutcome: {}\n\n",
        trace.rounds().len(),
        trace.outcome()
    );
    out.push_str(&table(
        &["round", "suspected", "heard(min)", "heard(sum)", "decided"],
        &rows,
    ));
    let _ = write!(
        out,
        "\ntotals: suspected={total_suspected} heard={total_heard} decided={decided_total}/{n}\n"
    );
    out
}

/// Per-round event tallies in the order of the events table's columns.
#[derive(Default, Clone, Copy)]
struct RoundTally {
    emit: u64,
    gather: u64,
    detect: u64,
    deliver: u64,
    receive: u64,
    decide: u64,
}

fn render_events(log: &EventLog) -> String {
    let mut by_round: BTreeMap<u32, RoundTally> = BTreeMap::new();
    let mut accesses = 0u64;
    let mut coordinator_events = 0u64;
    let mut process_events = 0u64;
    for event in log.events() {
        match event.actor {
            Actor::Coordinator => coordinator_events += 1,
            Actor::Process(_) => process_events += 1,
        }
        let (round, slot): (u32, fn(&mut RoundTally) -> &mut u64) = match &event.kind {
            RtEventKind::Emit { round } => (round.get(), |t| &mut t.emit),
            RtEventKind::Gather { round, .. } => (round.get(), |t| &mut t.gather),
            RtEventKind::Detect { round } => (round.get(), |t| &mut t.detect),
            RtEventKind::Deliver { round, .. } => (round.get(), |t| &mut t.deliver),
            RtEventKind::Receive { round } => (round.get(), |t| &mut t.receive),
            RtEventKind::Decide { round } => (round.get(), |t| &mut t.decide),
            RtEventKind::Access { .. } => {
                accesses += 1;
                continue;
            }
        };
        *slot(by_round.entry(round).or_default()) += 1;
    }
    let rows: Vec<Vec<String>> = by_round
        .iter()
        .map(|(round, t)| {
            vec![
                round.to_string(),
                t.emit.to_string(),
                t.gather.to_string(),
                t.detect.to_string(),
                t.deliver.to_string(),
                t.receive.to_string(),
                t.decide.to_string(),
            ]
        })
        .collect();
    let total = by_round
        .values()
        .fold(RoundTally::default(), |a, t| RoundTally {
            emit: a.emit + t.emit,
            gather: a.gather + t.gather,
            detect: a.detect + t.detect,
            deliver: a.deliver + t.deliver,
            receive: a.receive + t.receive,
            decide: a.decide + t.decide,
        });
    let mut out = format!(
        "capture: rrfd-events v1  n={}  events={}  (coordinator={coordinator_events} \
         process={process_events})\n\n",
        log.system_size().get(),
        log.len()
    );
    out.push_str(&table(
        &[
            "round", "emit", "gather", "detect", "deliver", "receive", "decide",
        ],
        &rows,
    ));
    let _ = write!(
        out,
        "\ntotals: emit={} gather={} detect={} deliver={} receive={} decide={} access={accesses}\n",
        total.emit, total.gather, total.detect, total.deliver, total.receive, total.decide
    );
    out
}

/// Shortens a metric name for use as a column header: the `rrfd_`
/// namespace prefix carries no information inside an `rrfd` table.
fn short(metric: &str) -> &str {
    metric.strip_prefix("rrfd_").unwrap_or(metric)
}

fn render_metrics(snapshot: &Snapshot) -> String {
    // Counters pivot into a round × metric table (summing over processes);
    // histograms merge per (metric, round); gauges list flat.
    let mut counter_names: Vec<&str> = Vec::new();
    let mut counters: BTreeMap<(u32, &str), u64> = BTreeMap::new();
    let mut histograms: BTreeMap<(&str, u32), HistogramSnapshot> = BTreeMap::new();
    let mut gauges: Vec<String> = Vec::new();
    for entry in snapshot.entries() {
        match &entry.value {
            MetricValue::Counter(v) => {
                let name = entry.metric.as_str();
                if !counter_names.contains(&name) {
                    counter_names.push(name);
                }
                *counters.entry((entry.labels.round, name)).or_default() += v;
            }
            MetricValue::Gauge(v) => {
                let process = match entry.labels.process {
                    Some(p) => format!(" process={p}"),
                    None => String::new(),
                };
                let round = if entry.labels.round == 0 {
                    String::new()
                } else {
                    format!(" round={}", entry.labels.round)
                };
                gauges.push(format!("{}{process}{round} = {v}", entry.metric));
            }
            MetricValue::Histogram(h) => {
                histograms
                    .entry((entry.metric.as_str(), entry.labels.round))
                    .and_modify(|acc| acc.merge(h))
                    .or_insert_with(|| h.clone());
            }
        }
    }
    counter_names.sort_unstable();
    let rounds: Vec<u32> = {
        let mut r: Vec<u32> = counters.keys().map(|(round, _)| *round).collect();
        r.sort_unstable();
        r.dedup();
        r
    };

    let mut out = format!(
        "capture: metrics jsonl  series={}\n",
        snapshot.entries().len()
    );

    if !counter_names.is_empty() {
        let mut headers = vec!["round"];
        headers.extend(counter_names.iter().map(|n| short(n)));
        let mut rows: Vec<Vec<String>> = Vec::new();
        for round in &rounds {
            let mut row = vec![if *round == 0 {
                "-".to_owned()
            } else {
                round.to_string()
            }];
            for name in &counter_names {
                let v = counters.get(&(*round, name)).copied().unwrap_or(0);
                row.push(v.to_string());
            }
            rows.push(row);
        }
        let mut totals = vec!["total".to_owned()];
        for name in &counter_names {
            let sum: u64 = counters
                .iter()
                .filter(|((_, n), _)| n == name)
                .map(|(_, v)| v)
                .sum();
            totals.push(sum.to_string());
        }
        rows.push(totals);
        out.push_str("\ncounters:\n");
        out.push_str(&table(&headers, &rows));
    }

    if !histograms.is_empty() {
        let rows: Vec<Vec<String>> = histograms
            .iter()
            .map(|((metric, round), h)| {
                let stat = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
                vec![
                    short(metric).to_owned(),
                    if *round == 0 {
                        "-".to_owned()
                    } else {
                        round.to_string()
                    },
                    h.count.to_string(),
                    stat(h.quantile(0.5)),
                    stat(h.quantile(0.95)),
                    stat(h.mean()),
                ]
            })
            .collect();
        out.push_str("\nhistograms:\n");
        out.push_str(&table(
            &["metric", "round", "count", "p50", "p95", "mean"],
            &rows,
        ));
    }

    if !gauges.is_empty() {
        out.push_str("\ngauges:\n");
        for g in &gauges {
            let _ = writeln!(out, "  {g}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_obs::{names, Labels, Obs};

    const TRACE: &str = "\
rrfd-trace v1
n 3
round 1
d 2 - -
s 0,1 0,1,2 0,1,2
round 2
d - - -
s 0,1,2 0,1,2 0,1,2
decisions 2 2 2
outcome decided rounds=2
";

    #[test]
    fn trace_stats_tabulate_rounds() {
        let out = render(TRACE).unwrap();
        assert!(
            out.contains("capture: rrfd-trace v1  n=3  rounds=2"),
            "{out}"
        );
        assert!(out.contains("outcome: decided rounds=2"), "{out}");
        // Round 1: one suspicion, min heard 2, sum 8, nobody decides.
        assert!(
            out.contains("    1          1           2           8        0"),
            "{out}"
        );
        // Round 2: all three decide.
        assert!(
            out.contains("    2          0           3           9        3"),
            "{out}"
        );
        assert!(
            out.contains("totals: suspected=1 heard=17 decided=3/3"),
            "{out}"
        );
    }

    #[test]
    fn event_stats_tabulate_rounds() {
        let text = "\
rrfd-events v1
n 2
p0 emit r=1
p1 emit r=1
c gather from=0 r=1
c gather from=1 r=1
c detect r=1
c deliver to=0 r=1
p0 receive r=1
p0 decide r=1
c access loc=pattern rw=w
";
        let out = render(text).unwrap();
        assert!(
            out.contains("capture: rrfd-events v1  n=2  events=9"),
            "{out}"
        );
        assert!(
            out.contains("round  emit  gather  detect  deliver  receive  decide"),
            "{out}"
        );
        assert!(
            out.contains("    1     2       2       1        1        1       1"),
            "{out}"
        );
        assert!(
            out.contains("totals: emit=2 gather=2 detect=1 deliver=1 receive=1 decide=1 access=1"),
            "{out}"
        );
    }

    #[test]
    fn metric_stats_pivot_counters_and_summarize_histograms() {
        let obs = Obs::logical();
        obs.add(names::ENGINE_MESSAGES_EMITTED, Labels::round(1), 3);
        obs.add(names::ENGINE_MESSAGES_EMITTED, Labels::round(2), 3);
        obs.add(names::ENGINE_DECISIONS, Labels::process_round(0, 2), 1);
        obs.add(names::ENGINE_DECISIONS, Labels::process_round(1, 2), 1);
        obs.observe(names::ENGINE_SUSPICION_SIZE, Labels::process_round(0, 1), 1);
        obs.observe(names::ENGINE_SUSPICION_SIZE, Labels::process_round(1, 1), 3);
        obs.gauge(names::SIM_SCHED_DEPTH, Labels::GLOBAL, 7);
        let jsonl = obs.snapshot().to_jsonl();

        let out = render(&jsonl).unwrap();
        assert!(out.contains("counters:"), "{out}");
        // Column order is sorted by metric name: decisions before emitted.
        assert!(
            out.contains("round  engine_decisions_total  engine_messages_emitted_total"),
            "{out}"
        );
        assert!(
            out.contains("total                       2                              6"),
            "{out}"
        );
        // The two per-process suspicion histograms merge into one round-1
        // row; their values 1 and 3 sit in different buckets (`le=1`,
        // `le=4`), so p50 = 1 and p95 = 4.
        assert!(
            out.contains("engine_suspicion_size      1      2    1    4     2"),
            "{out}"
        );
        assert!(out.contains("rrfd_sim_sched_depth = 7"), "{out}");
    }

    #[test]
    fn unknown_formats_are_rejected() {
        let err = render("mystery v9\n").unwrap_err();
        assert!(err.contains("unrecognized capture format"), "{err}");
        let err = render("rrfd-trace v1\nn banana\n").unwrap_err();
        assert!(err.starts_with("trace:"), "{err}");
    }

    #[test]
    fn chrome_trace_lays_rounds_out_in_synthetic_slots() {
        use rrfd_obs::json::{self, Json};

        let text = chrome_trace_text(TRACE).unwrap();
        let parsed = json::parse(&text).unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 1 run + 2 rounds + 2 emits + 2 delivers + 3 decides (all in
        // round 2) = 10 complete events.
        assert_eq!(events.len(), 10);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names.iter().filter(|n| **n == "run").count(), 1);
        assert!(names.contains(&"round 1"), "{names:?}");
        assert!(names.contains(&"emit r1"), "{names:?}");
        assert!(names.contains(&"deliver r2"), "{names:?}");
        assert!(names.contains(&"decide r2 p0"), "{names:?}");
        // Round 2 starts at 1 ms (= 1000 µs) of synthetic time; its
        // decides sit at +800 µs with the deciding process as tid.
        for event in events {
            let name = event.get("name").and_then(Json::as_str).unwrap();
            let ts = event.get("ts").and_then(Json::as_u64).unwrap();
            match name {
                "round 2" => assert_eq!(ts, 1000),
                "decide r2 p1" => {
                    assert_eq!(ts, 1800);
                    assert_eq!(event.get("tid").and_then(Json::as_u64), Some(1));
                }
                _ => {}
            }
        }
        // Byte-deterministic: same capture, same export.
        assert_eq!(chrome_trace_text(TRACE).unwrap(), text);
    }

    #[test]
    fn chrome_trace_rejects_non_trace_captures() {
        let err = chrome_trace_text("rrfd-events v1\nn 2\n").unwrap_err();
        assert!(err.contains("rrfd-trace v1"), "{err}");
        let err = chrome_trace_text("rrfd-trace v1\nn banana\n").unwrap_err();
        assert!(err.starts_with("trace:"), "{err}");
    }
}
