//! The pre-zero-copy round engine, kept as the **reference** semantics
//! for `tests/msg_plane_equivalence.rs`: every recipient gets its *own*
//! `Vec<Option<Msg>>` built by cloning each visible message out of the
//! round's emission table — `O(n²)` payload clones per round, the seed's
//! delivery semantics exactly.
//!
//! The differential suite proves the shared-table `rrfd::core::Engine`
//! produces byte-identical traces and identical decisions. This engine
//! lives under `tests/` as a test oracle only, and is not part of any
//! library. Do not extend it; engine features belong in `rrfd-core`.

use rrfd::core::{
    validate_round, Control, Delivery, EngineError, FaultDetector, FaultPattern, IdSet, ProcessId,
    Round, RoundProtocol, RrfdPredicate, RunReport, RunTrace, SystemSize, TraceBuilder,
    TraceOutcome,
};

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

    /// Clone-plane counterpart of [`rrfd::core::Engine::run_traced`]: the
    /// trace calls mirror the zero-copy engine's exactly, so traces from
    /// the two planes are comparable byte for byte.
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
        let mut trace = TraceBuilder::new(self.n);
        if protocols.len() != self.n.get() {
            let err = EngineError::WrongProcessCount {
                supplied: protocols.len(),
                expected: self.n.get(),
            };
            return (Err(err), trace.finish(TraceOutcome::Aborted));
        }

        let n = self.n.get();
        let mut pattern = FaultPattern::new(self.n);
        let mut decisions: Vec<Option<(P::Output, Round)>> = vec![None; n];

        for round_no in 1..=self.max_rounds {
            let round = Round::new(round_no);
            let messages: Vec<Option<P::Msg>> =
                protocols.iter_mut().map(|p| Some(p.emit(round))).collect();

            let faults = detector.next_round(round, &pattern);
            if let Err(violation) = validate_round(model, &pattern, &faults) {
                trace.record_violating_round(faults);
                return (
                    Err(violation.clone().into()),
                    trace.finish(TraceOutcome::Violation(violation)),
                );
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
                        trace.record_decision(me, round);
                    }
                }
            }

            trace.record_round(&faults, heard);
            pattern.push(faults);

            if decisions.iter().all(Option::is_some) {
                let report = RunReport {
                    decisions,
                    pattern,
                    rounds_executed: round_no,
                };
                let outcome = TraceOutcome::Decided {
                    rounds_executed: round_no,
                };
                return (Ok(report), trace.finish(outcome));
            }
        }

        let err = EngineError::RoundLimitExceeded {
            max_rounds: self.max_rounds,
        };
        let outcome = TraceOutcome::RoundLimit {
            max_rounds: self.max_rounds,
        };
        (Err(err), trace.finish(outcome))
    }
}
