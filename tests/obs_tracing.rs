//! End-to-end tests for the causal tracing plane and the crash flight
//! recorder:
//!
//! * both engine substrates emit the same span hierarchy
//!   (`run → round → phase`) through an attached `Obs`, exportable as
//!   Chrome trace-event JSON;
//! * the no-op handle retains no spans (tracing is opt-in);
//! * a threaded run that ends in a [`RunError`] leaves a post-mortem
//!   flight dump covering the last K rounds — and only the last K;
//! * a pool batch whose instances error mid-batch stashes per-shard
//!   flight dumps in its report.

use rrfd::core::{AnyPattern, Control, Delivery, Engine, Round, RoundProtocol, SystemSize};
use rrfd::models::adversary::NoFailures;
use rrfd::obs::span::to_chrome;
use rrfd::obs::{json, Obs, SpanKind, SpanPhase, DEFAULT_FLIGHT_ROUNDS};
use rrfd::pool::{run_batch, MixSpec, PoolConfig};
use rrfd::protocols::kset::FloodMin;
use rrfd::runtime::{ThreadedEngine, ThreadedError as RunError};

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).unwrap()
}

/// A protocol that never decides: forces `RoundLimitExceeded`.
struct Stall;
impl RoundProtocol for Stall {
    type Msg = ();
    type Output = ();
    fn emit(&mut self, _r: Round) {}
    fn deliver(&mut self, _d: Delivery<'_, ()>) -> Control<()> {
        Control::Continue
    }
}

/// Checks the span invariants shared by every substrate: exactly one run
/// span, every round span a child of it, every phase span a child of its
/// round, and the whole set renderable as parseable Chrome trace JSON.
fn assert_span_hierarchy(spans: &[rrfd::obs::SpanRecord], instance: u64) {
    assert!(!spans.is_empty(), "instrumented run retained no spans");
    let runs: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Run).collect();
    assert_eq!(runs.len(), 1, "{spans:#?}");
    let run = runs[0];
    assert_eq!(run.instance, instance);
    for span in spans {
        assert_eq!(span.instance, instance);
        assert!(span.end_ns >= span.start_ns);
        match span.kind {
            SpanKind::Run => {}
            SpanKind::Round => assert_eq!(span.parent_id(), run.id()),
            SpanKind::Phase(_) => {
                let round = spans
                    .iter()
                    .find(|r| r.kind == SpanKind::Round && r.round == span.round)
                    .unwrap_or_else(|| panic!("phase span {span:?} has no round"));
                assert_eq!(span.parent_id(), round.id());
            }
        }
    }
    // Every executed round has an emit and a deliver phase.
    let rounds: Vec<u32> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Round)
        .map(|s| s.round)
        .collect();
    for &r in &rounds {
        for phase in [SpanPhase::Emit, SpanPhase::Deliver] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.kind == SpanKind::Phase(phase) && s.round == r),
                "round {r} is missing its {phase:?} phase span"
            );
        }
    }
    // The set renders as loadable Chrome trace JSON.
    let chrome = to_chrome(spans);
    let parsed = json::parse(&chrome).expect("chrome export parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
}

#[test]
fn engine_runs_emit_the_span_hierarchy() {
    let size = n(4);
    let obs = Obs::logical();
    Engine::new(size)
        .obs(obs.clone())
        .instance(7)
        .run(
            (0..4).map(|v| FloodMin::new(v, 2)).collect(),
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        )
        .unwrap();
    assert_span_hierarchy(&obs.spans(), 7);
    // Decide phases carry the deciding process.
    assert!(obs
        .spans()
        .iter()
        .any(|s| s.kind == SpanKind::Phase(SpanPhase::Decide) && s.process.is_some()));
}

#[test]
fn threaded_runs_emit_the_span_hierarchy() {
    let size = n(3);
    let obs = Obs::logical();
    ThreadedEngine::new(size)
        .obs(obs.clone())
        .instance(3)
        .run(
            (0..3).map(|v| FloodMin::new(v, 2)).collect(),
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        )
        .unwrap();
    assert_span_hierarchy(&obs.spans(), 3);
}

#[test]
fn noop_handle_retains_no_spans() {
    let size = n(3);
    let obs = Obs::noop();
    Engine::new(size)
        .obs(obs.clone())
        .run(
            (0..3).map(|v| FloodMin::new(v, 2)).collect(),
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        )
        .unwrap();
    assert!(obs.spans().is_empty());
}

#[test]
fn threaded_run_error_leaves_a_flight_dump_of_the_last_k_rounds() {
    let size = n(3);
    let engine = ThreadedEngine::new(size).max_rounds(12);
    let err = engine
        .run(
            vec![Stall, Stall, Stall],
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        RunError::RoundLimitExceeded { max_rounds: 12 }
    ));

    let dump = engine.take_flight_dump().expect("failed run leaves a dump");
    let mut lines = dump.lines();
    assert_eq!(lines.next(), Some("rrfd-flight v1"));
    assert!(
        dump.contains("no full decision after 12 rounds"),
        "dump must name the terminal error:\n{dump}"
    );
    // Last K = DEFAULT_FLIGHT_ROUNDS = 8 rounds retained: 5..=12 —
    // earlier rounds evicted.
    assert_eq!(DEFAULT_FLIGHT_ROUNDS, 8);
    for r in 5..=12 {
        assert!(
            dump.contains(&format!("round {r}:")),
            "missing round {r}:\n{dump}"
        );
    }
    for r in 1..=4 {
        assert!(
            !dump.contains(&format!("round {r}:")),
            "round {r} should have been evicted:\n{dump}"
        );
    }
    // The dump is consumed by taking it…
    assert!(engine.take_flight_dump().is_none());

    // …and a successful run leaves none.
    let engine = ThreadedEngine::new(size);
    engine
        .run(
            (0..3).map(|v| FloodMin::new(v, 2)).collect(),
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        )
        .unwrap();
    assert!(engine.take_flight_dump().is_none());
}

#[test]
fn pool_mid_batch_errors_stash_shard_flight_dumps() {
    // The stall class errors every instance; with flight armed each
    // shard must stash a post-mortem capture.
    let mix = MixSpec::parse("stall:n=4:rounds=4:w=1,kset:n=4:k=2:w=1").unwrap();
    let config = PoolConfig::new(2).seed(11).flight(true);
    let report = run_batch(&mix, 30, &config);
    assert!(report.errored > 0, "stall class must error");
    assert!(
        !report.flight_dumps.is_empty(),
        "mid-batch errors left no flight dump"
    );
    for dump in &report.flight_dumps {
        assert!(dump.starts_with("rrfd-flight v1"), "{dump}");
        assert!(dump.contains("errored mid-batch"), "{dump}");
    }

    // Without the flag the pool formats nothing.
    let report = run_batch(&mix, 30, &PoolConfig::new(2).seed(11));
    assert!(report.flight_dumps.is_empty());
}
