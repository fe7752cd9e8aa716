//! Timing wrappers around the workspace's public traits.
//!
//! [`Timed`] forwards every method of the trait it wraps — including the
//! provided ones such as `compile` and `admits_pattern` — so a wrapped
//! program makes exactly the decisions of the unwrapped one; the
//! transparency tests in `main.rs` pin this. The calls that carry a
//! layer's work are bracketed by [`timed`].

use crate::ledger::{timed, Layer};
use rrfd_core::{
    Control, Delivery, FaultDetector, FaultPattern, PredicateProgram, ProcessId, Round,
    RoundFaults, RoundProtocol, RrfdPredicate, SystemSize,
};
use rrfd_obs::{Clock, Labels, Recorder, Snapshot, SpanRecord};
use rrfd_sims::semi_sync::SemiSyncProcess;
use std::sync::Arc;

/// A layer-timing wrapper; see the module docs.
#[derive(Debug, Clone)]
pub struct Timed<T>(pub T);

impl<P: RoundProtocol> RoundProtocol for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn emit(&mut self, round: Round) -> P::Msg {
        timed(Layer::Emit, || self.0.emit(round))
    }

    fn deliver(&mut self, delivery: Delivery<'_, P::Msg>) -> Control<P::Output> {
        timed(Layer::Deliver, || self.0.deliver(delivery))
    }
}

impl<D: FaultDetector> FaultDetector for Timed<D> {
    fn system_size(&self) -> SystemSize {
        self.0.system_size()
    }

    fn next_round(&mut self, round: Round, history: &FaultPattern) -> RoundFaults {
        timed(Layer::Detect, || self.0.next_round(round, history))
    }
}

impl<Q: RrfdPredicate> RrfdPredicate for Timed<Q> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn system_size(&self) -> SystemSize {
        self.0.system_size()
    }

    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        timed(Layer::Admit, || self.0.admits(history, round))
    }

    fn compile(&self) -> Option<PredicateProgram> {
        timed(Layer::Compile, || self.0.compile())
    }

    fn admits_pattern(&self, pattern: &FaultPattern) -> bool {
        timed(Layer::Admit, || self.0.admits_pattern(pattern))
    }
}

impl<R: Recorder> Recorder for Timed<R> {
    fn add(&self, metric: &'static str, labels: Labels, delta: u64) {
        timed(Layer::ObsRecord, || self.0.add(metric, labels, delta));
    }

    fn gauge(&self, metric: &'static str, labels: Labels, value: i64) {
        timed(Layer::ObsRecord, || self.0.gauge(metric, labels, value));
    }

    fn observe(&self, metric: &'static str, labels: Labels, value: u64) {
        timed(Layer::ObsRecord, || self.0.observe(metric, labels, value));
    }

    fn snapshot(&self) -> Snapshot {
        self.0.snapshot()
    }

    fn record_span(&self, span: SpanRecord) {
        timed(Layer::ObsSpan, || self.0.record_span(span));
    }

    fn spans(&self) -> Vec<SpanRecord> {
        self.0.spans()
    }
}

impl<C: Clock> Clock for Timed<C> {
    fn now_ns(&self) -> u64 {
        timed(Layer::ObsClock, || self.0.now_ns())
    }
}

impl<P: SemiSyncProcess> SemiSyncProcess for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step(
        &mut self,
        received: &[(ProcessId, Arc<P::Msg>)],
    ) -> (Option<P::Msg>, Control<P::Output>) {
        timed(Layer::SemiStep, || self.0.step(received))
    }
}
