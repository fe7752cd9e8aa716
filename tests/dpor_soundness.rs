//! Seeded soundness fixtures for the DPOR explorer, under
//! `tests/fixtures/dpor/`. The positive fixture is a known two-process
//! write/read race whose *reversal* is the only path to the bug — the
//! leftmost initial execution is clean, so a sleep-set or revisit-queue
//! regression that drops the reversed class silently loses the
//! counterexample, and this suite catches it. The negative fixture pins
//! the explorer's reduction numbers on a clean predicate, so "no
//! findings" stays an asserted fact rather than an accident.
//!
//! Regenerate goldens with `REGEN_FIXTURES=1 cargo test --test
//! dpor_soundness`.

use rrfd::core::{ProcessId, SystemSize};
use rrfd::sims::dpor::{explore_shared_mem_dpor, DporConfig, DporError};
use rrfd::sims::shared_mem::{Action, MemProcess, MemRunReport, Observation, SharedMemSim};
use rrfd::sims::trace::{ScheduleReplay, ScheduleTrace};
use std::path::PathBuf;

/// The canonical racy pair: `p0` writes its cell once and decides;
/// `p1` reads `p0`'s cell and decides 1 if it saw the write, 0 if it
/// missed. The leftmost execution runs `p0` to completion first, so the
/// "reader missed" outcome exists **only** in the reversed trace class.
#[derive(Debug, Clone)]
enum RacePair {
    Writer,
    Reader,
}

impl MemProcess<u64> for RacePair {
    type Output = u64;
    fn step(&mut self, obs: Observation<u64>) -> Action<u64, u64> {
        match self {
            RacePair::Writer => match obs {
                Observation::Start => Action::Write { bank: 0, value: 1 },
                Observation::Written => Action::Decide(7),
                other => panic!("writer: unexpected observation {other:?}"),
            },
            RacePair::Reader => match obs {
                Observation::Start => Action::Read {
                    bank: 0,
                    owner: ProcessId::new(0),
                },
                Observation::Value(v) => Action::Decide(u64::from(v.is_some())),
                other => panic!("reader: unexpected observation {other:?}"),
            },
        }
    }
}

fn sim() -> SharedMemSim {
    SharedMemSim::new(SystemSize::new(2).unwrap(), 1)
}

fn make() -> Vec<RacePair> {
    vec![RacePair::Writer, RacePair::Reader]
}

/// `true` when the reader (process 1) decided 0 — it read before the
/// writer wrote.
fn reader_missed(report: &MemRunReport<RacePair, u64>) -> bool {
    report.outputs[1] == Some(0)
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/dpor")
        .join(name)
}

/// Compares `actual` against the committed golden, rewriting it first
/// when `REGEN_FIXTURES=1` (same convention as `analyze_fixtures.rs`).
fn assert_golden(name: &str, actual: &str) {
    let path = fixture(name);
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::write(&path, actual).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with REGEN_FIXTURES=1"));
    assert_eq!(
        expected, actual,
        "{name} is stale — regenerate with REGEN_FIXTURES=1"
    );
}

/// The sleep-set regression guard: the bug is reachable only through the
/// write/read race reversal, the explorer must schedule that revisit,
/// and the certificate it emits must match the committed `.sched`
/// fixture byte-for-byte.
#[test]
fn race_reversal_is_required_to_reach_the_bug() {
    let sim = sim();
    let check = |report: &MemRunReport<RacePair, u64>| {
        if reader_missed(report) {
            Err("reader missed the write".to_owned())
        } else {
            Ok(())
        }
    };

    let err = explore_shared_mem_dpor(&sim, make, check, &DporConfig::new(1)).unwrap_err();
    let DporError::Counterexample(cex) = err else {
        panic!("expected a counterexample");
    };
    assert!(
        cex.stats.revisits >= 1,
        "the bug lives in a reversed class; finding it without a \
         revisit means the initial execution was not leftmost"
    );
    // The certificate replays to the violation before we pin it.
    let mut replay = ScheduleReplay::from_trace(&cex.schedule);
    let report = sim.run(make(), &mut replay).unwrap();
    assert!(reader_missed(&report), "certificate must reproduce the bug");
    assert_golden("write_read_reversal.sched", &cex.schedule.to_string());
}

/// The committed `.sched` fixture is a standalone replayable witness: a
/// parse → replay round-trip from disk must still reach the violation.
/// This guards both the trace format and the simulator semantics the
/// certificate depends on.
#[test]
fn committed_certificate_replays_from_disk() {
    let text = std::fs::read_to_string(fixture("write_read_reversal.sched"))
        .expect("committed fixture write_read_reversal.sched");
    let trace: ScheduleTrace = text.parse().expect("fixture parses");
    let mut replay = ScheduleReplay::from_trace(&trace);
    let report = sim().run(make(), &mut replay).unwrap();
    assert!(
        reader_missed(&report),
        "fixture must replay to the reader-missed violation"
    );
}

/// The negative fixture: on a never-failing predicate the explorer
/// reports no findings, and its reduction numbers (two trace classes,
/// one revisit, nothing sleep-set-blocked) stay pinned.
#[test]
fn clean_predicate_pins_reduction_stats() {
    let stats = explore_shared_mem_dpor(&sim(), make, |_| Ok(()), &DporConfig::new(1))
        .expect("no counterexample on a clean predicate");
    let rendered = format!(
        "schedules {}\ngraphs_explored {}\nrevisits {}\nsleep_set_blocked {}\n\
         decision_points {}\nmax_depth {}\n",
        stats.schedules,
        stats.graphs_explored,
        stats.revisits,
        stats.sleep_set_blocked,
        stats.decision_points,
        stats.max_depth,
    );
    assert_golden("race_pair_clean.stats", &rendered);
}
