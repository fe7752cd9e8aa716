//! Pins the explored set of the `dpor_semisync` benchmark workload:
//! `explore_semi_sync_dpor` over §5's `RepeatedRounds` at n = 3, two
//! rounds, one crash; and of the same instance with a crash budget of 2,
//! where crash alternatives are offered after an earlier crash too.
//! Every `ExploreStats` field that is a function of the trace-class
//! closure is recorded in `tests/fixtures/dpor/repeated_rounds_n3.stats`
//! and `tests/fixtures/dpor/repeated_rounds_n3_f2.stats`. Left out are
//! `steals` (always 0) and `memo_bytes` (the size of the dedup
//! structure, an implementation detail).
//!
//! Regenerate the goldens with `REGEN_FIXTURES=1 cargo test --test
//! dpor_explored_set`.

use rrfd::core::task::{KSetAgreement, Value};
use rrfd::core::SystemSize;
use rrfd::protocols::semi_sync_consensus::RepeatedRounds;
use rrfd::sims::dpor::{explore_semi_sync_dpor, DporConfig, DporError};
use rrfd::sims::explore::ExploreStats;
use rrfd::sims::semi_sync::{SemiSyncReport, SemiSyncSim};
use std::path::PathBuf;

const N: usize = 3;
const ROUNDS: u32 = 2;
const INPUTS: [Value; N] = [4, 1, 9];

/// Termination of every correct process and consensus on [`INPUTS`].
fn check(report: &SemiSyncReport<RepeatedRounds>) -> Result<(), String> {
    if !report.all_correct_decided() {
        return Err(format!("a correct process did not decide: {report:?}"));
    }
    let outputs: Vec<Option<Value>> = report
        .outputs
        .iter()
        .map(|o| o.as_ref().map(|&(v, _)| v))
        .collect();
    KSetAgreement::consensus()
        .check(&INPUTS, &outputs)
        .map_err(|v| v.to_string())
}

fn size() -> SystemSize {
    SystemSize::new(N).unwrap()
}

fn explore_on(
    sim: &SemiSyncSim,
    crashes: usize,
    config: &DporConfig,
) -> Result<ExploreStats, DporError> {
    let n = size();
    let make = || {
        n.processes()
            .map(|p| RepeatedRounds::new(n, p, INPUTS[p.index()], ROUNDS))
            .collect::<Vec<_>>()
    };
    explore_semi_sync_dpor(sim, crashes, make, check, config)
}

fn explore(crashes: usize) -> ExploreStats {
    explore_on(&SemiSyncSim::new(size()), crashes, &DporConfig::new(1))
        .unwrap_or_else(|err| panic!("consensus must hold in every class: {err}"))
}

fn render(stats: &ExploreStats) -> String {
    format!(
        "schedules {}\ngraphs_explored {}\nrevisits {}\nsleep_set_blocked {}\n\
         decision_points {}\nmax_depth {}\nmemo_entries {}\n",
        stats.schedules,
        stats.graphs_explored,
        stats.revisits,
        stats.sleep_set_blocked,
        stats.decision_points,
        stats.max_depth,
        stats.memo_entries,
    )
}

/// Compares the explored set under `crashes` with the golden `file`.
fn assert_pinned(crashes: usize, file: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/dpor")
        .join(file);
    let explored = render(&explore(crashes));
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::write(&path, &explored).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden ({e}); run with REGEN_FIXTURES=1"));
    assert_eq!(golden, explored, "explored set moved");
}

#[test]
fn repeated_rounds_explored_set_is_pinned() {
    assert_pinned(1, "repeated_rounds_n3.stats");
}

#[test]
fn repeated_rounds_two_crash_explored_set_is_pinned() {
    assert_pinned(2, "repeated_rounds_n3_f2.stats");
}

#[test]
fn class_guard_is_a_budget_error() {
    // The one-crash instance has 612 classes.
    let config = DporConfig::new(1).max_schedules(10);
    let err = explore_on(&SemiSyncSim::new(size()), 1, &config).unwrap_err();
    let DporError::Budget(why) = err else {
        panic!("expected a budget error, got {err}");
    };
    assert!(why.contains("max_schedules (10)"), "{why}");
}

#[test]
fn step_limit_is_a_budget_error() {
    // Every run takes at least 2 steps per round per surviving process.
    let sim = SemiSyncSim::new(size()).max_steps(4);
    let err = explore_on(&sim, 1, &DporConfig::new(1)).unwrap_err();
    let DporError::Budget(why) = err else {
        panic!("expected a budget error, got {err}");
    };
    assert!(why.contains("after 4 atomic steps"), "{why}");
}
