//! The conformance monitor's differential suite: on every substrate
//! that can feed it, the online incremental verdict must equal offline
//! replay-based predicate checking over the run's captured trace.
//!
//! The offline side is recomputed here from scratch — each zoo predicate
//! replayed over fault-pattern prefixes of the trace — sharing nothing
//! with `ConformanceMonitor` beyond the predicates themselves. Four
//! substrates are driven by proptest:
//!
//! 1. the in-process [`Engine`] via its [`RoundHook`] seam,
//! 2. the [`ThreadedEngine`] via its `conformance` builder,
//! 3. the batch pool via `PoolConfig::conformance` (per instance),
//! 4. a serialized-then-reparsed [`RunTrace`] fed round by round —
//!    monitoring a capture must agree with having monitored the run.
//!
//! A fifth property pins the reuse the pool relies on: a monitor that is
//! [`ConformanceMonitor::reset`] after an unrelated run is
//! indistinguishable from a fresh one.

use proptest::prelude::*;
use rrfd::core::{Engine, IdSet, RoundFaults, RoundHook, RunTrace, SystemSize};
use rrfd::models::adversary::RandomAdversary;
use rrfd::models::conformance::ConformanceMonitor;
use rrfd::models::predicates::Crash;
use rrfd::models::zoo::zoo;
use rrfd::obs::Obs;
use rrfd::pool::{run_batch, MixSpec, PoolConfig};
use rrfd::protocols::kset::FloodMin;
use rrfd::runtime::ThreadedEngine;
use std::sync::{Arc, Mutex};

/// Offline replay: each zoo predicate checked over prefixes of the
/// observed rounds, first rejection recorded. Round numbers are 1-based.
fn offline_firsts<'a>(
    n: SystemSize,
    rounds: impl Iterator<Item = &'a RoundFaults> + Clone,
) -> Vec<Option<u32>> {
    let family = zoo(n, 1);
    family
        .iter()
        .map(|predicate| {
            let mut prefix = rrfd::core::FaultPattern::new(n);
            let mut first = None;
            for (r, faults) in rounds.clone().enumerate() {
                if first.is_none() && !predicate.admits(&prefix, faults) {
                    first = Some(r as u32 + 1);
                }
                prefix.push(faults.clone());
            }
            first
        })
        .collect()
}

/// The monitor's verdict as per-predicate first-violation rounds, in
/// family order.
fn online_firsts(monitor: &ConformanceMonitor) -> Vec<Option<u32>> {
    monitor
        .verdict()
        .statuses
        .iter()
        .map(|s| s.first_violation.map(|r| r.get()))
        .collect()
}

fn shared_monitor(n: SystemSize) -> Arc<Mutex<ConformanceMonitor>> {
    Arc::new(Mutex::new(ConformanceMonitor::zoo(n, 1)))
}

/// Rounds at size `n` whose `D(i,r)` is the low `n` bits of `masks[r][i]`.
fn rounds_of(n: SystemSize, masks: &[Vec<u64>]) -> Vec<RoundFaults> {
    let low = (1u128 << n.get()) - 1;
    masks
        .iter()
        .map(|round| {
            let sets = (0..n.get())
                .map(|i| IdSet::from_bits(u128::from(round[i]) & low))
                .collect();
            RoundFaults::from_sets(n, sets)
        })
        .collect()
}

/// The JSONL of `monitor`'s metrics, recorded into a fresh logical handle.
fn recorded(monitor: &ConformanceMonitor) -> String {
    let obs = Obs::logical();
    monitor.record(&obs);
    obs.snapshot().to_jsonl()
}

fn flood_protocols(n: usize, f: usize) -> Vec<FloodMin> {
    (0..n as u64)
        .map(|v| FloodMin::new(1000 + v, f as u32 + 1))
        .collect()
}

proptest! {
    #[test]
    fn engine_hook_monitor_agrees_with_offline_replay(
        n in 3usize..8,
        f_pick in 0usize..100,
        seed in any::<u64>(),
    ) {
        let f = f_pick % n;
        let size = SystemSize::new(n).unwrap();
        let model = Crash::new(size, f);
        let monitor = shared_monitor(size);
        let mut run = Engine::new(size)
            .start_traced(
                flood_protocols(n, f),
                RandomAdversary::new(model, seed),
                model,
            )
            .unwrap();
        let feed = monitor.clone();
        run.set_round_hook(RoundHook::new(move |faults| {
            feed.lock().unwrap().observe(faults);
        }));
        let finished = run.run_to_completion();
        let trace = finished.trace.expect("start_traced arms the builder");

        let monitor = monitor.lock().unwrap();
        // The hook must see exactly the rounds the trace records.
        prop_assert_eq!(monitor.rounds_observed() as usize, trace.rounds().len());
        let offline = offline_firsts(size, trace.rounds().iter().map(|r| &r.faults));
        prop_assert_eq!(online_firsts(&monitor), offline);

        // 4th substrate, piggybacked: serialize, reparse, re-monitor.
        // Monitoring the capture must agree with having monitored the run.
        let reparsed: RunTrace = trace.to_string().parse().unwrap();
        let mut replayed = ConformanceMonitor::zoo(size, 1);
        for round in reparsed.rounds() {
            replayed.observe(&round.faults);
        }
        prop_assert_eq!(online_firsts(&replayed), online_firsts(&monitor));
    }

    #[test]
    fn threaded_runtime_monitor_agrees_with_offline_replay(
        // n ≥ 3: System B's `2t < n, f < t` side conditions make the zoo
        // undefined at n = 2.
        n in 3usize..5,
        f_pick in 0usize..100,
        seed in any::<u64>(),
    ) {
        let f = f_pick % n;
        let size = SystemSize::new(n).unwrap();
        let model = Crash::new(size, f);
        let monitor = shared_monitor(size);
        let engine = ThreadedEngine::new(size).conformance(monitor.clone());
        let mut adv = RandomAdversary::new(model, seed);
        let (_, trace) = engine.run_traced(flood_protocols(n, f), &mut adv, &model);

        let monitor = monitor.lock().unwrap();
        prop_assert_eq!(monitor.rounds_observed() as usize, trace.rounds().len());
        let offline = offline_firsts(size, trace.rounds().iter().map(|r| &r.faults));
        prop_assert_eq!(online_firsts(&monitor), offline);
    }

    #[test]
    fn pool_instance_verdicts_agree_with_offline_replay(
        instances in 5u64..40,
        seed in any::<u64>(),
    ) {
        let mix = MixSpec::default_mix();
        let config = PoolConfig::new(2)
            .seed(seed)
            .conformance(true)
            .capture_traces(true)
            .keep_results(true);
        let report = run_batch(&mix, instances, &config);
        let mut checked = 0;
        for result in &report.results {
            let (Some(trace), Some(online)) = (&result.trace, &result.conformance) else {
                continue;
            };
            checked += 1;
            let n = trace.system_size();
            let offline = offline_firsts(n, trace.rounds().iter().map(|r| &r.faults));
            let family = zoo(n, 1);
            // The pool folds verdicts into (name, round) pairs; rebuild
            // the same shape from the offline replay and compare.
            let offline_violations: Vec<(String, u32)> = family
                .iter()
                .zip(&offline)
                .filter_map(|(p, first)| first.map(|r| (p.name(), r)))
                .collect();
            prop_assert_eq!(&online.violations, &offline_violations);
        }
        prop_assert!(checked > 0, "no pool instance captured both trace and verdict");
    }

    #[test]
    fn a_reset_monitor_equals_a_fresh_clone(
        size_pick in 0usize..3,
        // Each process is suspected with probability 1/8 per round, so
        // runs keep some predicates alive and violate others.
        unrelated in prop::collection::vec(
            prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 8),
            0..6,
        ),
        run in prop::collection::vec(
            prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 8),
            0..8,
        ),
    ) {
        let sparse = |rounds: &[Vec<(u64, u64, u64)>]| -> Vec<Vec<u64>> {
            rounds
                .iter()
                .map(|round| round.iter().map(|&(a, b, c)| a & b & c).collect())
                .collect()
        };
        let size = SystemSize::new([3, 5, 8][size_pick]).unwrap();
        let mut fresh = ConformanceMonitor::zoo(size, 1).clone();
        let mut reused = ConformanceMonitor::zoo(size, 1);
        for round in rounds_of(size, &sparse(&unrelated)) {
            reused.observe(&round);
        }
        reused.reset();
        let mut observed = rrfd::core::FaultPattern::new(size);
        for round in rounds_of(size, &sparse(&run)) {
            fresh.observe(&round);
            reused.observe(&round);
            observed.push(round);
        }
        prop_assert_eq!(reused.verdict(), fresh.verdict());
        prop_assert_eq!(reused.compiled_evals(), fresh.compiled_evals());
        for idx in 0..fresh.verdict().statuses.len() {
            prop_assert_eq!(
                reused.certificate(idx, &observed),
                fresh.certificate(idx, &observed)
            );
        }
        prop_assert_eq!(recorded(&reused), recorded(&fresh));
    }
}
