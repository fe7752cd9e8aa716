//! Pins the explored set of the `dpor_semisync` benchmark workload:
//! `explore_semi_sync_dpor` over §5's `RepeatedRounds` at n = 3, two
//! rounds, one crash. Every `ExploreStats` field that is a function of
//! the trace-class closure is recorded in
//! `tests/fixtures/dpor/repeated_rounds_n3.stats` and must come out the
//! same at one and at two workers. Left out are `steals` (timing),
//! `workers` (the configuration) and `memo_bytes` (the size of the
//! dedup structure, an implementation detail).
//!
//! Regenerate the golden with `REGEN_FIXTURES=1 cargo test --test
//! dpor_explored_set`.

use rrfd::core::task::{KSetAgreement, Value};
use rrfd::core::SystemSize;
use rrfd::protocols::semi_sync_consensus::RepeatedRounds;
use rrfd::sims::dpor::{explore_semi_sync_dpor, DporConfig};
use rrfd::sims::explore::ExploreStats;
use rrfd::sims::semi_sync::{SemiSyncReport, SemiSyncSim};
use std::path::PathBuf;

const N: usize = 3;
const ROUNDS: u32 = 2;
const CRASHES: usize = 1;
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

fn explore(workers: usize) -> ExploreStats {
    let n = SystemSize::new(N).unwrap();
    let make = || {
        n.processes()
            .map(|p| RepeatedRounds::new(n, p, INPUTS[p.index()], ROUNDS))
            .collect::<Vec<_>>()
    };
    explore_semi_sync_dpor(
        &SemiSyncSim::new(n),
        CRASHES,
        make,
        check,
        &DporConfig::new(workers),
    )
    .unwrap_or_else(|err| panic!("consensus must hold in every class: {err}"))
}

fn render(stats: &ExploreStats) -> String {
    format!(
        "schedules {}\ngraphs_explored {}\nrevisits {}\nsleep_set_blocked {}\n\
         decision_points {}\nmax_depth {}\nmemo_entries {}\npruned_by_hash {}\n\
         pruned_by_symmetry {}\nwall_splits {}\nmemo_saturated {}\nmemo_degraded {}\n",
        stats.schedules,
        stats.graphs_explored,
        stats.revisits,
        stats.sleep_set_blocked,
        stats.decision_points,
        stats.max_depth,
        stats.memo_entries,
        stats.pruned_by_hash,
        stats.pruned_by_symmetry,
        stats.wall_splits,
        stats.memo_saturated,
        stats.memo_degraded,
    )
}

#[test]
fn repeated_rounds_explored_set_is_pinned() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/dpor/repeated_rounds_n3.stats");
    let one = render(&explore(1));
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::write(&path, &one).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden ({e}); run with REGEN_FIXTURES=1"));
    assert_eq!(golden, one, "1 worker: explored set moved");
    assert_eq!(golden, render(&explore(2)), "2 workers: explored set moved");
}
