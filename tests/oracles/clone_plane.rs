//! The pre-zero-copy round engine, kept as the **reference** semantics
//! for `tests/msg_plane_equivalence.rs`: every recipient gets its *own*
//! `Vec<Option<Msg>>` built by cloning each visible message out of the
//! round's emission table — `O(n²)` payload clones per round, the seed's
//! delivery semantics exactly.
//!
//! The differential suite proves the shared-table `rrfd::core::Engine`
//! produces byte-identical traces and identical decisions. The oracle
//! writes its traces as `rrfd-trace v1` text itself and parses them with
//! `RunTrace::from_str`, sharing none of the engine's trace rendering. This engine
//! lives under `tests/` as a test oracle only, and is not part of any
//! library. Do not extend it; engine features belong in `rrfd-core`.

use rrfd::core::{
    validate_round, Control, Delivery, EngineError, FaultDetector, FaultPattern, IdSet,
    PatternViolation, ProcessId, ProgramBatch, Round, RoundProtocol, RrfdPredicate, RunReport,
    RunTrace, SystemSize,
};
use std::fmt::Write as _;

/// `set` in the `rrfd-trace v1` syntax: ascending comma-separated
/// indices, `-` for the empty set.
fn set_text(set: IdSet) -> String {
    let ids: Vec<String> = set.iter().map(|p| p.index().to_string()).collect();
    if ids.is_empty() {
        "-".to_owned()
    } else {
        ids.join(",")
    }
}

/// The oracle's own `rrfd-trace v1` writer: it shares no rendering code
/// with the engine, and its text is parsed back into a [`RunTrace`] only
/// at the end.
struct TraceText {
    text: String,
    rounds: u32,
}

impl TraceText {
    fn new(n: SystemSize) -> Self {
        TraceText {
            text: format!("rrfd-trace v1\nn {}\n", n.get()),
            rounds: 0,
        }
    }

    /// One round: its `D(i,r)` and `S(i,r)` lines.
    fn round(&mut self, suspected: impl Iterator<Item = IdSet>, heard: &[IdSet]) {
        self.rounds += 1;
        let _ = write!(self.text, "round {}\nd", self.rounds);
        for d in suspected {
            let _ = write!(self.text, " {}", set_text(d));
        }
        self.text.push_str("\ns");
        for &s in heard {
            let _ = write!(self.text, " {}", set_text(s));
        }
        self.text.push('\n');
    }

    /// Seals the text with each process's decision round and `outcome`,
    /// and parses it.
    fn finish(mut self, decided: impl Iterator<Item = Option<Round>>, outcome: &str) -> RunTrace {
        self.text.push_str("decisions");
        for round in decided {
            match round {
                Some(r) => {
                    let _ = write!(self.text, " {}", r.get());
                }
                None => self.text.push_str(" -"),
            }
        }
        let _ = writeln!(self.text, "\noutcome {outcome}");
        self.text
            .parse()
            .expect("the oracle writes valid rrfd-trace v1")
    }
}

/// The `outcome` line of a violation.
fn violation_text(violation: &PatternViolation) -> String {
    match violation {
        PatternViolation::IllFormed { process, round } => format!(
            "violation ill-formed process={} round={}",
            process.index(),
            round.get()
        ),
        PatternViolation::PredicateRejected { predicate, round } => {
            format!("violation predicate round={} name={predicate}", round.get())
        }
    }
}

/// The clone-plane round engine: the seed's per-recipient-copy delivery.
#[derive(Debug, Clone)]
pub struct ClonePlaneEngine {
    n: SystemSize,
    max_rounds: u32,
}

impl ClonePlaneEngine {
    /// Creates a clone-plane engine with the default round limit of
    /// [`rrfd::core::DEFAULT_MAX_ROUNDS`].
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        ClonePlaneEngine {
            n,
            max_rounds: rrfd::core::DEFAULT_MAX_ROUNDS,
        }
    }

    /// Sets the maximum number of rounds before the run is abandoned.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Clone-plane counterpart of [`rrfd::core::Engine::run_traced`]. The
    /// trace is written as `rrfd-trace v1` text by the oracle itself, with
    /// each `S(i,r)` read from what the recipient's delivery actually
    /// showed ([`Delivery::heard_from`]), so comparing it against the
    /// engine's rendering checks that rendering independently.
    pub fn run_traced<P, D, Q>(
        &self,
        mut protocols: Vec<P>,
        detector: &mut D,
        model: &Q,
    ) -> (Result<RunReport<P::Output>, EngineError>, RunTrace)
    where
        P: RoundProtocol,
        D: FaultDetector + ?Sized,
        Q: RrfdPredicate + ?Sized,
    {
        let n = self.n.get();
        let mut trace = TraceText::new(self.n);
        if protocols.len() != n {
            let err = EngineError::WrongProcessCount {
                supplied: protocols.len(),
                expected: n,
            };
            return (Err(err), trace.finish(vec![None; n].into_iter(), "aborted"));
        }

        let mut pattern = FaultPattern::new(self.n);
        let mut batch = ProgramBatch::of(model);
        let mut decisions: Vec<Option<(P::Output, Round)>> = vec![None; n];
        let decided = |decisions: &[Option<(P::Output, Round)>]| -> Vec<Option<Round>> {
            decisions
                .iter()
                .map(|d| d.as_ref().map(|&(_, r)| r))
                .collect()
        };

        for round_no in 1..=self.max_rounds {
            let round = Round::new(round_no);
            let messages: Vec<Option<P::Msg>> =
                protocols.iter_mut().map(|p| Some(p.emit(round))).collect();

            let faults = detector.next_round(round, &pattern);
            if let Err(violation) = validate_round(model, &mut batch, &faults) {
                // The rejected round delivered nothing.
                trace.round(
                    self.n.processes().map(|p| faults.of(p)),
                    &vec![IdSet::empty(); n],
                );
                let outcome = violation_text(&violation);
                let trace = trace.finish(decided(&decisions).into_iter(), &outcome);
                return (Err(violation.into()), trace);
            }

            let mut heard: Vec<IdSet> = Vec::with_capacity(n);
            for (i, protocol) in protocols.iter_mut().enumerate() {
                let me = ProcessId::new(i);
                let suspected = faults.of(me);
                // The seed plane: a fresh per-recipient vector, each
                // visible message deep-copied out of the emission table.
                let received: Vec<Option<P::Msg>> = messages
                    .iter()
                    .enumerate()
                    .map(|(j, m)| {
                        if suspected.contains(ProcessId::new(j)) {
                            None
                        } else {
                            m.clone()
                        }
                    })
                    .collect();
                let delivery = Delivery::new(round, me, &received, suspected);
                heard.push(delivery.heard_from());
                if let Control::Decide(value) = protocol.deliver(delivery) {
                    if decisions[i].is_none() {
                        decisions[i] = Some((value, round));
                    }
                }
            }

            trace.round(self.n.processes().map(|p| faults.of(p)), &heard);
            pattern.push(faults);

            if decisions.iter().all(Option::is_some) {
                let outcome = format!("decided rounds={round_no}");
                let trace = trace.finish(decided(&decisions).into_iter(), &outcome);
                let report = RunReport {
                    decisions,
                    pattern,
                    rounds_executed: round_no,
                };
                return (Ok(report), trace);
            }
        }

        let max_rounds = self.max_rounds;
        let outcome = format!("limit max={max_rounds}");
        let trace = trace.finish(decided(&decisions).into_iter(), &outcome);
        (Err(EngineError::RoundLimitExceeded { max_rounds }), trace)
    }
}
