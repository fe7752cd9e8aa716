//! One round core, one metrics plane: the in-process `Engine` and the
//! `ThreadedEngine` drive the same `RoundCore`, so the same protocols,
//! seeded adversary and model record the same round metrics and spans on
//! both substrates — every `rrfd_engine_*` counter with the same total,
//! every `rrfd_engine_*` histogram with the same count, the suspicion
//! sizes with the same sum, and the same multiset of `(kind, round,
//! process)` spans. Checked for a deciding run, a violating run and a
//! round-limit run.

use rrfd::core::{Engine, EngineError, RoundProtocol, RrfdPredicate, SystemSize};
use rrfd::models::adversary::{RandomAdversary, SampleModel};
use rrfd::models::predicates::{Crash, KUncertainty};
use rrfd::obs::{names, Obs, SpanKind};
use rrfd::protocols::kset::{FloodMin, OneRoundKSet};
use rrfd::runtime::{ThreadedEngine, ThreadedError};

fn n(v: usize) -> SystemSize {
    SystemSize::new(v).unwrap()
}

/// Every `rrfd_engine_*` counter total, in registry order.
fn engine_counters(obs: &Obs) -> Vec<(&'static str, u64)> {
    let snapshot = obs.snapshot();
    names::ALL
        .iter()
        .filter(|name| name.starts_with("rrfd_engine_"))
        .map(|&name| (name, snapshot.counter_total(name)))
        .collect()
}

/// Every `rrfd_engine_*` histogram's observation count, merged over its
/// labels, in registry order, and the sum of every suspicion-set size.
/// With the received-message counter, the suspicion sizes carry the
/// heard-of facts: `|S(i,r)| = n − |D(i,r)|`.
fn engine_histograms(obs: &Obs) -> (Vec<(&'static str, u64)>, u64) {
    let snapshot = obs.snapshot();
    let counts = names::ALL
        .iter()
        .filter(|name| name.starts_with("rrfd_engine_"))
        .filter_map(|&name| Some((name, snapshot.histogram_total(name)?.count)))
        .collect();
    let suspected = snapshot
        .histogram_total(names::ENGINE_SUSPICION_SIZE)
        .map_or(0, |h| h.sum);
    (counts, suspected)
}

/// The recorded spans as a sorted `(kind, round, process)` multiset.
fn span_multiset(obs: &Obs) -> Vec<(SpanKind, u32, Option<u32>)> {
    let mut spans: Vec<_> = obs
        .spans()
        .iter()
        .map(|s| (s.kind, s.round, s.process))
        .collect();
    spans.sort_by_key(|&(kind, round, process)| (kind.as_str(), round, process));
    spans
}

/// Runs `protocols()` under a fresh `RandomAdversary::new(adversary,
/// seed)` against `model` on both substrates, each into its own
/// logical-clock `Obs`, checks the two planes agree, and returns the
/// threaded result for the caller to classify, with the counter totals.
fn both_planes<P, A, M>(
    protocols: impl Fn() -> Vec<P>,
    adversary: A,
    model: &M,
    seed: u64,
    max_rounds: u32,
) -> (Result<(), ThreadedError>, Vec<(&'static str, u64)>)
where
    P: RoundProtocol + Send + 'static,
    P::Msg: Send + Sync + 'static,
    P::Output: Send + Clone + PartialEq + std::fmt::Debug + 'static,
    A: SampleModel + Copy,
    M: RrfdPredicate,
{
    let size = model.system_size();
    let engine_obs = Obs::logical();
    let engine = Engine::new(size)
        .max_rounds(max_rounds)
        .obs(engine_obs.clone())
        .run(
            protocols(),
            &mut RandomAdversary::new(adversary, seed),
            model,
        );
    let threaded_obs = Obs::logical();
    let threaded = ThreadedEngine::new(size)
        .max_rounds(max_rounds)
        .obs(threaded_obs.clone())
        .run(
            protocols(),
            &mut RandomAdversary::new(adversary, seed),
            model,
        );

    assert_eq!(
        engine
            .as_ref()
            .map(|r| r.decisions.clone())
            .map_err(|e| e.to_string()),
        threaded
            .as_ref()
            .map(|r| r.decisions.clone())
            .map_err(|e| e.to_string()),
        "seed {seed}: the substrates disagree on the run"
    );
    let counters = engine_counters(&engine_obs);
    assert!(
        counters
            .iter()
            .any(|&(name, total)| name == names::ENGINE_ROUNDS && total > 0),
        "seed {seed}: the engine recorded no rounds"
    );
    assert_eq!(counters, engine_counters(&threaded_obs), "seed {seed}");
    let histograms = engine_histograms(&engine_obs);
    let recorded: Vec<&str> = histograms.0.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        recorded,
        [names::ENGINE_SUSPICION_SIZE, names::ENGINE_ROUND_LATENCY],
        "seed {seed}"
    );
    assert_eq!(histograms, engine_histograms(&threaded_obs), "seed {seed}");
    assert_eq!(
        span_multiset(&engine_obs),
        span_multiset(&threaded_obs),
        "seed {seed}"
    );
    (threaded.map(|_| ()), counters)
}

#[test]
fn a_deciding_run_records_one_plane() {
    let size = n(5);
    let model = KUncertainty::new(size, 2);
    let protocols = || {
        (0..5)
            .map(|v| OneRoundKSet::new(100 + v))
            .collect::<Vec<_>>()
    };
    for seed in 0..4 {
        let (outcome, _) = both_planes(protocols, model, &model, seed, 10);
        outcome.expect("k-set agreement decides");
    }
}

#[test]
fn a_violating_run_records_one_plane() {
    // Three crashes against a one-crash model: the adversary breaks the
    // model within the flood's four rounds.
    let size = n(4);
    let protocols = || (0..4).map(|v| FloodMin::new(10 + v, 4)).collect::<Vec<_>>();
    let (outcome, _) = both_planes(protocols, Crash::new(size, 3), &Crash::new(size, 1), 0, 10);
    assert!(
        matches!(
            outcome,
            Err(ThreadedError::Engine(EngineError::Violation(_)))
        ),
        "{outcome:?}"
    );
}

#[test]
fn a_round_limit_run_records_one_plane() {
    // p0 and p1 decide at the limit, round 2; p2 and p3 would need a
    // third round. On threads the limit decisions arrive with the
    // emissions of round 3, which never opens.
    let size = n(4);
    let model = Crash::new(size, 1);
    let protocols = || {
        (0..4)
            .map(|v| FloodMin::new(10 + v, if v < 2 { 2 } else { 3 }))
            .collect::<Vec<_>>()
    };
    let (outcome, counters) = both_planes(protocols, model, &model, 1, 2);
    assert!(
        matches!(
            outcome,
            Err(ThreadedError::Engine(EngineError::RoundLimitExceeded {
                max_rounds: 2
            }))
        ),
        "{outcome:?}"
    );
    assert!(
        counters.contains(&(names::ENGINE_DECISIONS, 2)),
        "{counters:?}"
    );
}
