//! Byte-for-byte goldens of the `rrfd-trace v1` rendering: every trace
//! producer — the in-process engine, the threaded runtime, the batch
//! pool's `capture_traces`, `RunTrace::aborted` and the conformance
//! monitor's certificates — renders exactly the committed text under
//! `tests/fixtures/traces/`.
//!
//! Each fixture starts with one `#` header line naming the commit whose
//! engine rendered it; the rest is the rendered traces, each after a
//! `# <case>` line. Regenerate (after a deliberate format change only)
//! with `REGEN_FIXTURES=1 cargo test --test trace_goldens` and update the
//! header by hand.

use rrfd::core::{
    AnyPattern, Control, Delivery, Engine, FaultDetector, FaultPattern, IdSet, ProcessId, Round,
    RoundFaults, RoundProtocol, RrfdPredicate, RunTrace, SystemSize,
};
use rrfd::models::adversary::{RandomAdversary, ReplayDetector};
use rrfd::models::conformance::ConformanceMonitor;
use rrfd::models::predicates::KUncertainty;
use rrfd::pool::{run_batch, MixSpec, PoolConfig};
use rrfd::runtime::ThreadedEngine;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The header every fixture carries: the commit whose engine rendered it.
const HEADER: &str = "# rrfd-trace goldens rendered at commit c4cf9cd\n";

/// Sums everything heard; `p_i` decides after `1 + i % 3` rounds, or
/// never (`decide_after` is `None`), so decisions land in several rounds
/// and a run can stop before every process decided.
#[derive(Clone)]
struct Staggered {
    decide_after: Option<u32>,
    acc: u64,
    me: u64,
}

impl RoundProtocol for Staggered {
    type Msg = u64;
    type Output = u64;
    fn emit(&mut self, _r: Round) -> u64 {
        self.me
    }
    fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
        self.acc += d.values().sum::<u64>();
        match self.decide_after {
            Some(rounds) if d.round.get() >= rounds => Control::Decide(self.acc),
            _ => Control::Continue,
        }
    }
}

/// `n` staggered processes; the last `silent` of them never decide.
fn staggered(n: usize, silent: usize) -> Vec<Staggered> {
    (0..n)
        .map(|i| Staggered {
            decide_after: (i + silent < n).then_some(1 + i as u32 % 3),
            acc: 0,
            me: i as u64 + 1,
        })
        .collect()
}

fn size(n: usize) -> SystemSize {
    SystemSize::new(n).unwrap()
}

fn ids(xs: &[usize]) -> IdSet {
    xs.iter().map(|&i| ProcessId::new(i)).collect()
}

/// `rounds[r]` has `p0` suspect `rounds[r]`, everyone else nobody.
fn p0_suspects(n: SystemSize, rounds: &[&[usize]]) -> Vec<RoundFaults> {
    rounds
        .iter()
        .map(|d0| {
            let mut faults = RoundFaults::none(n);
            faults.set(ProcessId::new(0), ids(d0));
            faults
        })
        .collect()
}

/// One run of a case: its label, system size, round limit, how many
/// processes never decide, and its adversary, rebuilt per substrate.
struct Case {
    label: String,
    n: SystemSize,
    max_rounds: u32,
    silent: usize,
    adversary: Adversary,
}

enum Adversary {
    /// A seeded random adversary of `KUncertainty(n, k)`, checked against
    /// `KUncertainty(n, checked_k)`.
    Random {
        k: usize,
        checked_k: usize,
        seed: u64,
    },
    /// A fixed script, checked against `KUncertainty(n, checked_k)`, or
    /// against `AnyPattern` when `checked_k` is `None`.
    Script {
        rounds: Vec<RoundFaults>,
        checked_k: Option<usize>,
    },
}

impl Case {
    /// A fresh adversary and the model it is checked against.
    fn adversary(&self) -> (Box<dyn FaultDetector>, Box<dyn RrfdPredicate>) {
        match &self.adversary {
            Adversary::Random { k, checked_k, seed } => (
                Box::new(RandomAdversary::new(KUncertainty::new(self.n, *k), *seed)),
                Box::new(KUncertainty::new(self.n, *checked_k)),
            ),
            Adversary::Script { rounds, checked_k } => (
                Box::new(ReplayDetector::from_rounds(self.n, rounds.clone())),
                match checked_k {
                    Some(k) => Box::new(KUncertainty::new(self.n, *k)),
                    None => Box::new(AnyPattern::new(self.n)),
                },
            ),
        }
    }

    fn engine_trace(&self) -> RunTrace {
        let (mut adversary, model) = self.adversary();
        let protocols = staggered(self.n.get(), self.silent);
        Engine::new(self.n)
            .max_rounds(self.max_rounds)
            .run_traced(protocols, &mut *adversary, &*model)
            .1
    }

    fn threaded_trace(&self) -> RunTrace {
        let (mut adversary, model) = self.adversary();
        let protocols = staggered(self.n.get(), self.silent);
        ThreadedEngine::new(self.n)
            .max_rounds(self.max_rounds)
            .run_traced(protocols, &mut *adversary, &*model)
            .1
    }
}

/// Runs that decide: random `k`-uncertainty adversaries, three seeds.
fn decided_cases() -> Vec<Case> {
    (0..3u64)
        .map(|seed| Case {
            label: format!("decided seed={seed}"),
            n: size(5),
            max_rounds: 20,
            silent: 0,
            adversary: Adversary::Random {
                k: 2,
                checked_k: 2,
                seed,
            },
        })
        .collect()
}

/// Runs the model rejects: random adversaries of a weaker model, a
/// scripted rejection in round 3 after decisions in rounds 1 and 2, and
/// an ill-formed round.
fn violation_cases() -> Vec<Case> {
    let n = size(4);
    let mut cases: Vec<Case> = (0..3u64)
        .map(|seed| Case {
            label: format!("violation seed={seed}"),
            n,
            max_rounds: 20,
            silent: 1,
            adversary: Adversary::Random {
                k: 3,
                checked_k: 2,
                seed,
            },
        })
        .collect();
    cases.push(Case {
        label: "violation scripted".to_owned(),
        n,
        max_rounds: 20,
        silent: 1,
        adversary: Adversary::Script {
            rounds: p0_suspects(n, &[&[3], &[3], &[2, 3]]),
            checked_k: Some(2),
        },
    });
    cases.push(Case {
        label: "violation ill-formed".to_owned(),
        n,
        max_rounds: 20,
        silent: 1,
        adversary: Adversary::Script {
            rounds: p0_suspects(n, &[&[1], &[0, 1, 2, 3]]),
            checked_k: None,
        },
    });
    cases
}

/// Runs that hit the round limit with some processes decided.
fn limit_cases() -> Vec<Case> {
    (0..3u64)
        .map(|seed| Case {
            label: format!("limit seed={seed}"),
            n: size(4),
            max_rounds: 5,
            silent: 2,
            adversary: Adversary::Random {
                k: 2,
                checked_k: 2,
                seed,
            },
        })
        .collect()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/traces")
        .join(name)
}

/// Fixture `name` without its header line.
fn golden(name: &str) -> String {
    let path = fixture_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.strip_prefix(HEADER)
        .unwrap_or_else(|| panic!("{name}: missing header line"))
        .to_owned()
}

/// Compares `rendered` against fixture `name`, rewriting the fixture
/// first under `REGEN_FIXTURES`.
fn check_golden(name: &str, rendered: &str) {
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        let path = fixture_path(name);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{HEADER}{rendered}")).unwrap();
    }
    assert_eq!(rendered, golden(name), "{name} differs from its golden");
}

fn render(cases: &[Case], trace: impl Fn(&Case) -> RunTrace) -> String {
    let mut out = String::new();
    for case in cases {
        let _ = write!(out, "# {}\n{}", case.label, trace(case));
    }
    out
}

#[test]
fn engine_traces_match_their_goldens() {
    check_golden(
        "engine_decided.trace",
        &render(&decided_cases(), Case::engine_trace),
    );
    check_golden(
        "engine_violation.trace",
        &render(&violation_cases(), Case::engine_trace),
    );
    check_golden(
        "engine_limit.trace",
        &render(&limit_cases(), Case::engine_trace),
    );
}

#[test]
fn threaded_traces_match_the_engine_goldens() {
    // The same seeds on real threads render the in-process engine's
    // bytes: that equality is what makes cross-substrate replay sound.
    for (name, cases) in [
        ("engine_decided.trace", decided_cases()),
        ("engine_violation.trace", violation_cases()),
        ("engine_limit.trace", limit_cases()),
    ] {
        assert_eq!(
            render(&cases, Case::threaded_trace),
            golden(name),
            "threaded runs differ from {name}"
        );
    }
}

#[test]
fn threaded_aborted_traces_match_their_golden() {
    /// Panics in its second delivery at `p1`, after deciding in round 1
    /// at `p0`: the run aborts with one round and one decision recorded.
    struct PanicsInRound2;
    impl RoundProtocol for PanicsInRound2 {
        type Msg = ();
        type Output = u8;
        fn emit(&mut self, _r: Round) {}
        fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<u8> {
            if d.me == ProcessId::new(1) && d.round.get() == 2 {
                panic!("deliberate panic in round 2");
            }
            if d.me == ProcessId::new(0) {
                Control::Decide(0)
            } else {
                Control::Continue
            }
        }
    }

    let n = size(3);
    let mut out = String::new();
    let engine = ThreadedEngine::new(n).max_rounds(10);
    let mut adversary = ReplayDetector::from_rounds(n, p0_suspects(n, &[&[2]]));
    let (_, trace) = engine.run_traced(
        vec![PanicsInRound2, PanicsInRound2, PanicsInRound2],
        &mut adversary,
        &AnyPattern::new(n),
    );
    let _ = write!(out, "# panic in round 2\n{trace}");
    let mut adversary = ReplayDetector::from_rounds(n, Vec::new());
    let (_, trace) = engine.run_traced(staggered(2, 0), &mut adversary, &AnyPattern::new(n));
    let _ = write!(out, "# wrong process count\n{trace}");
    check_golden("threaded_aborted.trace", &out);
}

#[test]
fn pool_captured_traces_match_their_golden() {
    // Ten instances of the default mix: ids 0–1 are kset, 8 is stall.
    let mix = MixSpec::default_mix();
    let config = PoolConfig::new(2)
        .seed(3)
        .keep_results(true)
        .capture_traces(true);
    let report = run_batch(&mix, 10, &config);
    assert!(report.results.iter().any(|r| r.class == "stall"));
    assert!(report.results.iter().any(|r| r.class == "kset"));
    let mut out = String::new();
    for result in &report.results {
        let trace = result.trace.as_ref().expect("capture_traces is on");
        let _ = write!(
            out,
            "# instance {} ({}) shard {}\n{trace}",
            result.instance, result.class, result.shard
        );
    }
    check_golden("pool_capture.trace", &out);
}

#[test]
fn aborted_and_certificate_traces_match_their_golden() {
    let mut out = String::new();
    let _ = write!(out, "# aborted n=4\n{}", RunTrace::aborted(size(4)));
    let (_, trace) = Engine::new(size(3)).run_traced(
        staggered(2, 0),
        &mut ReplayDetector::from_rounds(size(3), Vec::new()),
        &AnyPattern::new(size(3)),
    );
    let _ = write!(out, "# wrong process count\n{trace}");

    // p0 suspects p2, stops, then suspects it again: the crash model
    // (zoo index 0) rejects the run at round 2.
    let n = size(3);
    let mut pattern = FaultPattern::new(n);
    let mut monitor = ConformanceMonitor::zoo(n, 1);
    for faults in p0_suspects(n, &[&[2], &[], &[2]]) {
        monitor.observe(&faults);
        pattern.push(faults);
    }
    let violated = (0..monitor.ranks().len())
        .find(|&idx| monitor.first_violation(idx).is_some())
        .expect("the pattern leaves some zoo model");
    let certificate = monitor.certificate(violated, &pattern).expect("violated");
    let _ = write!(out, "# certificate predicate={violated}\n{certificate}");
    check_golden("aborted_certificate.trace", &out);
}
