//! End-to-end tests for the causal tracing plane and the post-mortem
//! flight dumps:
//!
//! * both engine substrates emit the same span hierarchy
//!   (`run → round → phase`) through an attached `Obs`, exportable as
//!   Chrome trace-event JSON;
//! * the no-op handle retains no spans (tracing is opt-in);
//! * a threaded run that ends in a [`RunError`] leaves a post-mortem
//!   flight dump covering the last K rounds — and only the last K;
//! * a pool batch whose instances error mid-batch carries one flight
//!   dump per errored instance, holding that instance's own rounds.

use rrfd::core::{
    AnyPattern, Control, Delivery, Engine, EngineError, Round, RoundProtocol, SystemSize,
    DEFAULT_FLIGHT_ROUNDS,
};
use rrfd::models::adversary::NoFailures;
use rrfd::obs::span::to_chrome;
use rrfd::obs::{json, Obs, SpanKind, SpanPhase};
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
        RunError::Engine(EngineError::RoundLimitExceeded { max_rounds: 12 })
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
    // The stall class errors every instance after its 4-round budget:
    // each dump names one stall instance and holds its four rounds.
    // Stall owns the even ids, so shard 0 errors all 15 and keeps 8.
    let mix = MixSpec::parse("stall:n=4:rounds=4:w=1,kset:n=4:k=2:w=1").unwrap();
    let config = PoolConfig::new(2).seed(11);
    let report = run_batch(&mix, 30, &config);
    assert_eq!(report.errored, 15, "every stall instance errors");
    assert_eq!(report.flight_dumps.len(), 8);
    for dump in &report.flight_dumps {
        let mut lines = dump.lines();
        assert_eq!(lines.next(), Some("rrfd-flight v1"));
        let reason = lines.next().expect("reason line");
        let rest = reason
            .strip_prefix("reason: instance ")
            .unwrap_or_else(|| panic!("{dump}"));
        let (id, rest) = rest.split_once(' ').unwrap();
        let id: u64 = id.parse().unwrap_or_else(|_| panic!("{dump}"));
        assert_eq!(mix.class_of(id), 0, "instance {id} is not a stall one");
        assert!(
            rest.starts_with(&format!("(stall) errored mid-batch on shard {}: ", id % 2)),
            "{dump}"
        );
        assert!(rest.ends_with("no full decision after 4 rounds"), "{dump}");
        // Exactly one instance named, and only its own rounds.
        assert_eq!(dump.matches("instance").count(), 1, "{dump}");
        let rounds: Vec<&str> = lines.collect();
        assert_eq!(
            rounds,
            ["round 1:", "round 2:", "round 3:", "round 4:"],
            "{dump}"
        );
    }

    // A batch in which no instance errors carries no dump.
    let kset = MixSpec::parse("kset:n=4:k=2:w=1").unwrap();
    let report = run_batch(&kset, 30, &PoolConfig::new(2).seed(11));
    assert_eq!(report.errored, 0);
    assert!(report.flight_dumps.is_empty());
}
