//! The naive reference for the batch pool: one fresh [`Engine`] per
//! instance, started with `start` or `start_traced`, in instance order on
//! the calling thread, with a fresh conformance monitor per instance and
//! nothing reused between runs.
//!
//! It shares no code with the pool beyond the mix's instance classes:
//! the per-class totals and the conformance fold (clean count, weakest
//! surviving rank and its predicate) are recomputed here from the public
//! report fields. Every result it returns says shard 0.

use rrfd::core::{Engine, RoundHook};
use rrfd::models::conformance::{ConformanceMonitor, ConformanceVerdict};
use rrfd::pool::mix::{EarlyClass, FloodMinClass, KSetClass, SConsensusClass, StallClass};
use rrfd::pool::{
    BatchReport, ClassConformance, ClassKind, ClassTotals, InstanceClass, InstanceConformance,
    InstanceResult, MixSpec, RunSummary,
};
use std::sync::{Arc, Mutex};

/// The zoo resilience every monitored instance is checked against.
const CONF_ZOO_F: usize = 1;

/// Runs instances `0..instances` of `mix` under batch seed `seed`, one
/// after another, keeping every result; `traced` captures a trace per
/// instance and `conformance` monitors each against `zoo(n, 1)`.
pub fn run_sequential(
    mix: &MixSpec,
    instances: u64,
    seed: u64,
    traced: bool,
    conformance: bool,
) -> BatchReport {
    let mut classes: Vec<ClassTotals> = mix
        .classes()
        .iter()
        .map(|spec| ClassTotals {
            class: spec.to_string(),
            ..ClassTotals::default()
        })
        .collect();
    let mut folds: Vec<Option<ClassConformance>> = vec![None; classes.len()];
    let mut results = Vec::new();
    for id in 0..instances {
        let index = mix.class_of(id);
        let spec = mix.classes()[index];
        let result = match spec.kind {
            ClassKind::KSet => run_one(&KSetClass::new(spec, seed), id, traced, conformance),
            ClassKind::FloodMin => {
                run_one(&FloodMinClass::new(spec, seed), id, traced, conformance)
            }
            ClassKind::SConsensus => {
                run_one(&SConsensusClass::new(spec, seed), id, traced, conformance)
            }
            ClassKind::Early => run_one(&EarlyClass::new(spec, seed), id, traced, conformance),
            ClassKind::Stall => run_one(&StallClass::new(spec), id, traced, conformance),
        };
        let totals = &mut classes[index];
        match &result.outcome {
            Ok(summary) => {
                totals.completed += 1;
                totals.rounds += u64::from(summary.rounds_executed);
            }
            Err(_) => totals.errored += 1,
        }
        if let Some(summary) = &result.conformance {
            fold(&mut folds[index], &totals.class, summary);
        }
        results.push(result);
    }
    BatchReport {
        instances,
        completed: classes.iter().map(|c| c.completed).sum(),
        errored: classes.iter().map(|c| c.errored).sum(),
        rounds: classes.iter().map(|c| c.rounds).sum(),
        shards: 1,
        classes,
        results,
        conformance: folds.into_iter().flatten().collect(),
        flight_dumps: Vec::new(),
    }
}

/// How weak a strongest-satisfied rank is: a larger rank is weaker, and
/// `-1` (nothing satisfied) is weakest of all.
fn weakness(rank: i64) -> i64 {
    if rank < 0 {
        i64::MAX
    } else {
        rank
    }
}

/// Folds one instance's verdict into its class's conformance; the first
/// instance to reach the weakest rank names it.
fn fold(slot: &mut Option<ClassConformance>, class: &str, summary: &InstanceConformance) {
    let rank = summary.strongest.as_ref().map_or(-1, |(_, r)| *r as i64);
    let name = summary.strongest.as_ref().map(|(name, _)| name.clone());
    let acc = slot.get_or_insert_with(|| ClassConformance {
        class: class.to_owned(),
        instances: 0,
        clean: 0,
        worst_rank: rank,
        worst_name: name.clone(),
    });
    if weakness(rank) > weakness(acc.worst_rank) {
        acc.worst_rank = rank;
        acc.worst_name = name;
    }
    acc.instances += 1;
    if summary.violations.is_empty() {
        acc.clean += 1;
    }
}

fn summarize(verdict: &ConformanceVerdict) -> InstanceConformance {
    InstanceConformance {
        strongest: verdict
            .strongest_satisfied()
            .map(|s| (s.name.clone(), s.rank)),
        violations: verdict
            .statuses
            .iter()
            .filter_map(|s| s.first_violation.map(|r| (s.name.clone(), r.get())))
            .collect(),
    }
}

/// Runs instance `id` of `class` on a fresh engine and monitor.
fn run_one<C: InstanceClass>(
    class: &C,
    id: u64,
    traced: bool,
    conformance: bool,
) -> InstanceResult {
    let engine = Engine::new(class.system_size()).max_rounds(class.max_rounds());
    let (protocols, detector, model) = class.build(id);
    let started = if traced {
        engine.start_traced(protocols, detector, model)
    } else {
        engine.start(protocols, detector, model)
    };
    let mut run = started.expect("mix classes build one protocol per process");
    let monitor = conformance.then(|| {
        let monitor = ConformanceMonitor::zoo(class.system_size(), CONF_ZOO_F);
        let monitor = Arc::new(Mutex::new(monitor));
        let sink = Arc::clone(&monitor);
        run.set_round_hook(RoundHook::new(move |faults| {
            sink.lock().expect("monitor lock").observe(faults);
        }));
        monitor
    });
    let finished = run.run_to_completion();
    InstanceResult {
        instance: id,
        class: class.name(),
        shard: 0,
        outcome: finished.result.map(|report| RunSummary {
            outputs: report
                .decisions
                .iter()
                .map(|d| d.as_ref().map(|&(v, round)| (v, round.get())))
                .collect(),
            rounds_executed: report.rounds_executed,
        }),
        trace: finished.trace,
        conformance: monitor.map(|m| summarize(&m.lock().expect("monitor lock").verdict())),
    }
}
