//! The `lattice_zoo` workload: a closed loop of
//! `Lattice::compute_compiled(zoo(3, 1), 8)` plus `render_markdown()` —
//! §2's submodel ordering, checked at twice the CLI's default depth.
//!
//! The workload's input is fixed: the zoo in its canonical order. (The
//! walk's cost depends on that order — shuffling it by seed moved the call
//! time between 80 and 140 ms — so a seeded order would measure the order,
//! not the code.)

use crate::ledger::{timed, Layer, Totals};
use crate::report::{cpu_ns, Metric, Samples, Section, Setup, Tally};
use crate::wrap::Timed;
use crate::Ctx;
use rrfd_analyze::lattice::{certificate, implies, zoo, Lattice, SharedPredicate};
use rrfd_core::{
    Control, Delivery, Engine, EngineError, PatternViolation, Round, RoundProtocol, SystemSize,
};
use rrfd_models::adversary::ReplayDetector;
use std::time::{Duration, Instant};

/// Processes.
pub const N: usize = 3;
/// Resilience of the zoo.
pub const F: usize = 1;
/// Pattern depth the implications are decided to.
pub const DEPTH: u32 = 8;

/// The workload's predicate family, `zoo(N, F)`.
pub fn family() -> Vec<SharedPredicate> {
    zoo(SystemSize::new(N).expect("N is a valid system size"), F)
}

/// [`family`] with every predicate behind a timing wrapper.
pub fn wrapped() -> Vec<SharedPredicate> {
    family()
        .into_iter()
        .map(|p| Box::new(Timed(p)) as SharedPredicate)
        .collect()
}

/// One call of the workload.
pub fn call(family: &[SharedPredicate]) -> (Lattice, String) {
    let lattice = Lattice::compute_compiled(family, DEPTH);
    let rendered = lattice.render_markdown();
    (lattice, rendered)
}

/// The implication matrix.
fn matrix(lattice: &Lattice) -> Vec<bool> {
    let len = lattice.names().len();
    (0..len * len)
        .map(|k| lattice.implies_at(k / len, k % len))
        .collect()
}

/// Decides at the given round, so a replay runs every recorded round.
struct Hold(u32);

impl RoundProtocol for Hold {
    type Msg = ();
    type Output = u32;

    fn emit(&mut self, _round: Round) {}

    fn deliver(&mut self, delivery: Delivery<'_, ()>) -> Control<u32> {
        if delivery.round.get() >= self.0 {
            Control::Decide(delivery.round.get())
        } else {
            Control::Continue
        }
    }
}

/// Replays every counterexample's certificate through `ReplayDetector` +
/// `Engine`: B must reject at the recorded round, A must accept it all.
pub fn check_certificates(lattice: &Lattice, family: &[SharedPredicate]) -> Vec<String> {
    let n = SystemSize::new(N).expect("N is a valid system size");
    let mut failures = Vec::new();
    for (i, a) in family.iter().enumerate() {
        for (j, b) in family.iter().enumerate() {
            let Some(cex) = lattice.counterexample(i, j) else {
                continue;
            };
            let trace = certificate(cex);
            let rounds = cex.pattern.rounds() as u32;
            let replay = |model: &SharedPredicate| {
                let protocols = (0..N).map(|_| Hold(rounds)).collect::<Vec<_>>();
                Engine::new(n).run(protocols, &mut ReplayDetector::from_trace(&trace), model)
            };
            let rejected = matches!(
                replay(b),
                Err(EngineError::Violation(PatternViolation::PredicateRejected { round, .. }))
                    if round == cex.rejected_round
            );
            let accepted = matches!(replay(a), Ok(report) if report.rounds_executed == rounds);
            if !rejected || !accepted {
                failures.push(format!(
                    "certificate for {} ⇏ {} does not replay (rejected by B: {rejected}, \
                     accepted by A: {accepted})",
                    a.name(),
                    b.name()
                ));
            }
        }
    }
    failures
}

/// Reference output of one run: what every call must reproduce.
pub struct Reference {
    rendered: String,
    matrix: Vec<bool>,
}

impl Reference {
    /// Takes the reference from a first call.
    pub fn new(lattice: &Lattice, rendered: String) -> Self {
        Reference {
            rendered,
            matrix: matrix(lattice),
        }
    }

    /// Checks a call's output against the reference and its certificates.
    pub fn check(
        &self,
        lattice: &Lattice,
        rendered: &str,
        family: &[SharedPredicate],
    ) -> Vec<String> {
        let mut failures = check_certificates(lattice, family);
        if rendered != self.rendered || matrix(lattice) != self.matrix {
            failures.push("lattice output differs from the first call's".into());
        }
        failures
    }
}

/// The reference call, whose certificates are checked too.
fn prepare(tally: &mut Tally) -> (Vec<SharedPredicate>, Reference) {
    let predicates = family();
    let (lattice, rendered) = call(&predicates);
    tally.record(1, check_certificates(&lattice, &predicates));
    (predicates, Reference::new(&lattice, rendered))
}

/// The set-up of a call: the zoo, plus a depth-1 lattice — the part of
/// `compute_compiled` every call pays before its walk deepens (compiling
/// the predicates, the table of candidate rounds and their static
/// admissibility), with a one-round walk.
fn setup_call() -> Lattice {
    Lattice::compute_compiled(&family(), 1)
}

/// The untraced closed loop.
pub fn end_to_end(ctx: &Ctx, tally: &mut Tally) -> Vec<Metric> {
    let (family, reference) = prepare(tally);
    let mut setup = Setup::calibrate(&mut setup_call);
    let mut samples = Samples::default();
    let deadline = Instant::now() + ctx.duration();
    while Instant::now() < deadline || samples.len() < 3 {
        setup.sample(&mut setup_call);
        let start = Instant::now();
        let (lattice, rendered) = call(&family);
        samples.push(start.elapsed().as_secs_f64());
        tally.record(1, reference.check(&lattice, &rendered, &family));
    }
    samples.metrics(&setup)
}

/// The traced section: an untraced call, a call on the wrapped zoo with
/// `compute_compiled` and `render_markdown` framed, and `implies` re-run
/// on each refuted pair.
///
/// The trie walk has no trait to wrap, so `lattice.walk` is a remainder of
/// the framed `compute_compiled`, and the frames cover the traced call.
/// The accounting is checked against the process's CPU time over the same
/// calls, which the ledger does not produce: the two disagree when the
/// call's work runs on threads the frames do not cover, or when it does
/// not run.
pub fn trace(budget: Duration, tally: &mut Tally) -> Section {
    let (family, reference) = prepare(tally);
    let wrapped = wrapped();
    let (mut plain_s, mut traced_s, mut cpu) = (0.0, 0.0, 0.0);
    let mut calls = 0u64;
    let (mut walked, mut witnessed) = (Totals::default(), Totals::default());
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline || calls < 2 {
        let start = Instant::now();
        let (lattice, rendered) = call(&family);
        let tplain = start.elapsed().as_secs_f64();
        tally.record(1, reference.check(&lattice, &rendered, &family));

        let before = Totals::now();
        let cpu_before = cpu_ns();
        let start = Instant::now();
        let lattice = timed(Layer::Compute, || {
            Lattice::compute_compiled(&wrapped, DEPTH)
        });
        let rendered = timed(Layer::Render, || lattice.render_markdown());
        let ttraced = start.elapsed().as_secs_f64();
        let tcpu = cpu_ns() - cpu_before;
        let mid = Totals::now();
        for (i, a) in wrapped.iter().enumerate() {
            for (j, b) in wrapped.iter().enumerate() {
                if lattice.counterexample(i, j).is_some() {
                    let _ = timed(Layer::Witness, || implies(a.as_ref(), b.as_ref(), DEPTH));
                }
            }
        }
        let after = Totals::now();
        tally.record(1, reference.check(&lattice, &rendered, &wrapped));
        if calls > 0 {
            plain_s += tplain;
            traced_s += ttraced;
            cpu += tcpu;
            walked.add(&mid.since(&before));
            witnessed.add(&after.since(&mid));
        }
        calls += 1;
    }
    let calls = (calls - 1) as f64;
    let ms = |ns: f64| ns / 1e6 / calls;
    let compute = walked.total_ns(Layer::Compute);
    let compile = walked.total_ns(Layer::Compile);
    let witness = witnessed.total_ns(Layer::Witness);
    Section {
        metrics: vec![
            Metric::new("lattice.compile_ms", ms(compile), "ms"),
            Metric::new("lattice.witness_ms", ms(witness), "ms"),
            Metric::new(
                "lattice.walk_ms",
                ms((compute - compile - witness).max(0.0)),
                "ms",
            ),
            Metric::new(
                "lattice.render_ms",
                ms(walked.total_ns(Layer::Render)),
                "ms",
            ),
            Metric::new(
                "lattice.dyn_admits",
                walked.calls(Layer::Admit) / calls,
                "count",
            ),
        ],
        overhead_x: traced_s / plain_s,
        layer_sum_frac: walked.self_sum_ns() / cpu,
    }
}
