//! A threaded execution harness: the paper's abstract emit/receive loop on
//! real OS threads, with the round-by-round fault detector realised as a
//! coordinator service.
//!
//! Each process runs on its own thread and speaks only to the coordinator:
//! it emits its round message, then blocks until the coordinator answers
//! with the round's delivery — the messages of every unsuspected peer plus
//! the suspicion set `D(i,r)`. The coordinator is a transport over the
//! engine's [`RoundCore`], which consults the [`FaultDetector`], admits
//! and records every round exactly as in [`rrfd_core::Engine`]. The
//! harness exists to demonstrate that RRFD systems are *executable*
//! designs, not just proof devices — experiment E13 runs Theorem 3.1 end
//! to end on threads.

use crossbeam::channel::{self, Receiver, Sender};
use rrfd_core::{
    flight_header, Control, Delivery, Engine, EngineError, FaultDetector, IdSet, ProcessId, Round,
    RoundCore, RoundProtocol, RrfdPredicate, RunReport, RunTrace, SystemSize,
};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

use crate::sink::EventSink;
use rrfd_core::{Actor, RtEventKind};
use rrfd_models::conformance::ConformanceMonitor;
use rrfd_obs::{names, Labels, Obs};
use std::sync::{Arc, Mutex, PoisonError};

/// Channel pair used between the coordinator and process threads.
type EmissionChannel<M, O> = (Sender<Notice<M, O>>, Receiver<Notice<M, O>>);
type ReplyChannel<M> = (Sender<CoordReply<M>>, Receiver<CoordReply<M>>);

/// What a process thread sends the coordinator: each round's emission,
/// or the death notice of a thread whose `emit` or `deliver` panicked,
/// carrying the panicking process and the panic message.
type Notice<M, O> = Result<Emission<M, O>, (ProcessId, String)>;

/// A process's emission for one round.
struct Emission<M, O> {
    from: ProcessId,
    round: Round,
    msg: M,
    /// Decision reached while processing the *previous* round's delivery.
    decided: Option<O>,
}

/// What the coordinator sends a process thread.
enum CoordReply<M> {
    Delivery {
        round: Round,
        /// The round's emission table, shared by every recipient: the
        /// coordinator allocates it once per round and sends `n` reference
        /// counts instead of `n` cloned vectors. Workers read it through a
        /// [`Delivery`] view that masks their suspected senders.
        table: Arc<Vec<Option<M>>>,
        suspected: IdSet,
    },
    Stop,
}

/// Errors from [`ThreadedEngine::run`].
#[derive(Debug)]
pub enum ThreadedError {
    /// The run's [`RoundCore`] ended it, exactly as the in-process
    /// engine would have: an adversary violation, a protocol vector that
    /// does not match the system size, or the round limit.
    Engine(EngineError),
    /// A process's emission did not arrive within the gather timeout (a
    /// wedged thread), or its thread was gone when the coordinator
    /// delivered.
    ProcessDied {
        /// The dead process.
        process: ProcessId,
    },
    /// A process thread panicked in `emit` or `deliver`; its death notice
    /// reached the coordinator at once.
    ProcessPanicked {
        /// The panicking process.
        process: ProcessId,
        /// The panic message (or a placeholder for non-string payloads).
        message: String,
    },
    /// Every emission sender disconnected at once with no identifiable
    /// missing process — the coordinator's channel is simply gone.
    ChannelClosed,
}

impl fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadedError::Engine(error) => error.fmt(f),
            ThreadedError::ProcessDied { process } => {
                write!(f, "thread of {process} terminated unexpectedly")
            }
            ThreadedError::ProcessPanicked { process, message } => {
                write!(f, "thread of {process} panicked: {message}")
            }
            ThreadedError::ChannelClosed => {
                write!(
                    f,
                    "emission channel closed with no identifiable dead process"
                )
            }
        }
    }
}

impl std::error::Error for ThreadedError {}

impl From<EngineError> for ThreadedError {
    fn from(error: EngineError) -> Self {
        ThreadedError::Engine(error)
    }
}

/// The message of a caught panic: its `&str` or `String` payload, or a
/// placeholder for any other payload type.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Default for how long the coordinator waits for a round's emissions
/// before declaring a process dead. Generous: in a healthy run every
/// thread answers in microseconds; the timeout exists only to turn a dead
/// or wedged thread into a typed error instead of a deadlock. Override
/// with [`ThreadedEngine::gather_timeout`].
const DEFAULT_GATHER_TIMEOUT: Duration = Duration::from_secs(5);

/// The threaded engine: one OS thread per process plus the caller's thread
/// as coordinator.
///
/// # Examples
///
/// ```
/// use rrfd_core::{Control, Delivery, Round, RoundProtocol, SystemSize};
/// use rrfd_models::adversary::NoFailures;
/// use rrfd_core::AnyPattern;
/// use rrfd_runtime::ThreadedEngine;
///
/// struct Once;
/// impl RoundProtocol for Once {
///     type Msg = u32;
///     type Output = u32;
///     fn emit(&mut self, _r: Round) -> u32 { 7 }
///     fn deliver(&mut self, d: Delivery<'_, u32>) -> Control<u32> {
///         Control::Decide(d.values().sum())
///     }
/// }
///
/// let n = SystemSize::new(4).unwrap();
/// let report = ThreadedEngine::new(n)
///     .run(vec![Once, Once, Once, Once], &mut NoFailures::new(n), &AnyPattern::new(n))
///     .unwrap();
/// assert_eq!(report.outputs(), vec![Some(28); 4]);
/// ```
#[derive(Debug, Clone)]
pub struct ThreadedEngine {
    /// Size, round limit, `Obs` and instance of every run's core.
    engine: Engine,
    /// Where the transport's gather-timeout and error counters go.
    obs: Obs,
    gather_timeout: Duration,
    events: Option<EventSink>,
    flight_dump: Arc<Mutex<Option<String>>>,
    conformance: Option<Arc<Mutex<ConformanceMonitor>>>,
}

impl ThreadedEngine {
    /// Creates an engine for `n` processes, with the in-process engine's
    /// default round limit, [`rrfd_core::DEFAULT_MAX_ROUNDS`].
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        ThreadedEngine {
            engine: Engine::new(n),
            obs: Obs::noop(),
            gather_timeout: DEFAULT_GATHER_TIMEOUT,
            events: None,
            flight_dump: Arc::new(Mutex::new(None)),
            conformance: None,
        }
    }

    /// Overrides the round budget.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.engine = self.engine.max_rounds(max_rounds);
        self
    }

    /// Overrides how long the coordinator waits for a round's emissions
    /// before declaring the missing process dead. Tests that deliberately
    /// kill a worker mid-round lower this so the typed error surfaces
    /// quickly instead of after the generous default.
    #[must_use]
    pub fn gather_timeout(mut self, timeout: Duration) -> Self {
        self.gather_timeout = timeout;
        self
    }

    /// Installs an [`EventSink`]: the coordinator and every process thread
    /// record their channel operations and shared-state accesses into it as
    /// the run executes, for the happens-before analysis in
    /// `rrfd-analyze races`.
    #[must_use]
    pub fn event_sink(mut self, sink: EventSink) -> Self {
        self.events = Some(sink);
        self
    }

    /// Attaches an observability handle. Each run's core records the round
    /// metrics and spans under the `rrfd_engine_*` names, as
    /// `rrfd_core::Engine::obs` describes; the transport counts only what
    /// the core cannot see, gather timeouts and terminal errors, under
    /// the `rrfd_runtime_*` names. The runtime events themselves (sends,
    /// receives, accesses) go to an [`EventSink`].
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.engine = self.engine.obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Sets the instance id stamped on this engine's causal spans (see
    /// `rrfd_core::Engine::instance`). Defaults to 0.
    #[must_use]
    pub fn instance(mut self, instance: u64) -> Self {
        self.engine = self.engine.instance(instance);
        self
    }

    /// Attaches a live conformance monitor: a [`rrfd_core::RoundHook`] on
    /// each run's core feeds it every validated round's suspicion sets
    /// (and, on the violation path, the violating round — the evidence),
    /// so the zoo verdict is available the moment the run ends. Call
    /// [`ConformanceMonitor::record`] afterwards to export the verdict as
    /// `rrfd_conformance_*` metrics.
    #[must_use]
    pub fn conformance(mut self, monitor: Arc<Mutex<ConformanceMonitor>>) -> Self {
        self.conformance = Some(monitor);
        self
    }

    /// Takes the post-mortem flight dump left by the most recent failed
    /// run, if any: the last [`rrfd_core::DEFAULT_FLIGHT_ROUNDS`] rounds'
    /// suspicion sets and decisions, rendered from the run's core when
    /// it failed ([`RoundCore::flight_dump`]). Runs that succeed leave
    /// nothing; a second take returns `None` until another run fails.
    #[must_use]
    pub fn take_flight_dump(&self) -> Option<String> {
        self.flight_dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Records one coordinator-side event into the event log, if one is
    /// installed.
    fn record(&self, kind: RtEventKind) {
        if let Some(events) = &self.events {
            events.record(Actor::Coordinator, kind);
        }
    }

    /// Records a coordinator write to the shared state at `loc`. The event
    /// owns its location name, so it is only built when an event log will
    /// see it.
    fn record_write(&self, loc: &str) {
        if let Some(events) = &self.events {
            let access = RtEventKind::Access {
                loc: loc.to_owned(),
                write: true,
            };
            events.record(Actor::Coordinator, access);
        }
    }

    /// Ends a failed run: counts its error and stashes its flight `dump`
    /// for [`ThreadedEngine::take_flight_dump`].
    fn fail(&self, error: &ThreadedError, dump: String) {
        self.record_error(error);
        *self
            .flight_dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(dump);
    }

    /// Counts a terminal error under its `rrfd_runtime_errors_*` name; the
    /// core counts violations, as `rrfd_engine_violations_total`.
    fn record_error(&self, error: &ThreadedError) {
        if !self.obs.is_enabled() {
            return;
        }
        let (metric, labels) = match error {
            ThreadedError::Engine(EngineError::Violation(_)) => return,
            ThreadedError::Engine(EngineError::WrongProcessCount { .. }) => {
                (names::RUNTIME_ERR_WRONG_COUNT, Labels::GLOBAL)
            }
            ThreadedError::Engine(EngineError::RoundLimitExceeded { .. }) => {
                (names::RUNTIME_ERR_ROUND_LIMIT, Labels::GLOBAL)
            }
            ThreadedError::ProcessDied { process } => (
                names::RUNTIME_ERR_PROCESS_DIED,
                Labels::process(process.index()),
            ),
            ThreadedError::ProcessPanicked { process, .. } => (
                names::RUNTIME_ERR_PROCESS_PANICKED,
                Labels::process(process.index()),
            ),
            ThreadedError::ChannelClosed => (names::RUNTIME_ERR_CHANNEL_CLOSED, Labels::GLOBAL),
        };
        self.obs.add(metric, labels, 1);
    }

    /// Runs the protocols on threads, coordinated by the calling thread.
    ///
    /// # Errors
    ///
    /// See [`ThreadedError`].
    pub fn run<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: &mut D,
        model: &Q,
    ) -> Result<RunReport<P::Output>, ThreadedError>
    where
        P: RoundProtocol + Send + 'static,
        P::Msg: Send + Sync + 'static,
        P::Output: Send + Clone + 'static,
        D: FaultDetector + ?Sized,
        Q: RrfdPredicate + ?Sized,
    {
        self.run_inner(protocols, detector, model, false).0
    }

    /// Like [`ThreadedEngine::run`], but also renders the run's
    /// [`RunTrace`] from its core ([`RoundCore::trace`]): the same trace
    /// the in-process engine renders, so a threaded run can be replayed
    /// (bit-for-bit, via a replay detector) on either substrate.
    pub fn run_traced<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: &mut D,
        model: &Q,
    ) -> (Result<RunReport<P::Output>, ThreadedError>, RunTrace)
    where
        P: RoundProtocol + Send + 'static,
        P::Msg: Send + Sync + 'static,
        P::Output: Send + Clone + 'static,
        D: FaultDetector + ?Sized,
        Q: RrfdPredicate + ?Sized,
    {
        let (result, trace) = self.run_inner(protocols, detector, model, true);
        // A run rejected before it started reads as aborted, as in-process.
        let trace = trace.unwrap_or_else(|| RunTrace::aborted(self.engine.system_size()));
        (result, trace)
    }

    /// The shared run body: starts the run's core, spawns one thread per
    /// process, drives the core from the calling thread, then stops and
    /// joins the threads. A `traced` run's trace is rendered from its core
    /// before the core is dismantled; a run rejected before it started
    /// has none.
    fn run_inner<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: &mut D,
        model: &Q,
        traced: bool,
    ) -> (
        Result<RunReport<P::Output>, ThreadedError>,
        Option<RunTrace>,
    )
    where
        P: RoundProtocol + Send + 'static,
        P::Msg: Send + Sync + 'static,
        P::Output: Send + Clone + 'static,
        D: FaultDetector + ?Sized,
        Q: RrfdPredicate + ?Sized,
    {
        let mut core = match self.engine.round_core(protocols.len(), detector, model) {
            Ok(core) => core,
            Err(error) => {
                let error = ThreadedError::from(error);
                self.fail(&error, flight_header(&error.to_string()));
                return (Err(error), None);
            }
        };
        if let Some(monitor) = &self.conformance {
            core.set_round_hook(ConformanceMonitor::hook(monitor));
        }
        let n = protocols.len();
        let (emit_tx, emit_rx): EmissionChannel<P::Msg, P::Output> = channel::unbounded();

        let mut reply_txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, mut protocol) in protocols.into_iter().enumerate() {
            let me = ProcessId::new(i);
            let emit_tx = emit_tx.clone();
            let (reply_tx, reply_rx): ReplyChannel<P::Msg> = channel::unbounded();
            reply_txs.push(reply_tx);
            let events = self.events.clone();
            handles.push(thread::spawn(move || {
                let record = |kind| {
                    if let Some(events) = &events {
                        events.record(Actor::Process(me), kind);
                    }
                };
                // A panic in `emit` or `deliver` is caught here and sent
                // as a death notice: the live peers' sender clones keep
                // the channel open, so the coordinator would otherwise
                // notice the death only at its gather timeout.
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut decided: Option<P::Output> = None;
                    let mut round = Round::FIRST;
                    loop {
                        let msg = protocol.emit(round);
                        record(RtEventKind::Emit { round });
                        let emission = Emission {
                            from: me,
                            round,
                            msg,
                            decided: decided.take(),
                        };
                        if emit_tx.send(Ok(emission)).is_err() {
                            return; // coordinator gone
                        }
                        match reply_rx.recv() {
                            Ok(CoordReply::Delivery {
                                round: r,
                                table,
                                suspected,
                            }) => {
                                debug_assert_eq!(r, round);
                                record(RtEventKind::Receive { round: r });
                                if let Control::Decide(v) =
                                    protocol.deliver(Delivery::new(r, me, &table, suspected))
                                {
                                    record(RtEventKind::Decide { round: r });
                                    decided = Some(v);
                                }
                                round = round.next();
                            }
                            Ok(CoordReply::Stop) | Err(_) => return,
                        }
                    }
                }));
                if let Err(payload) = run {
                    // The coordinator may be gone already; then nobody
                    // waits for the notice.
                    let _ = emit_tx.send(Err((me, panic_message(&*payload))));
                }
            }));
        }
        drop(emit_tx);

        let transport = self.coordinate::<P, _, _>(&mut core, &emit_rx, &reply_txs);

        // Stop every thread (ignore send failures: thread may be gone).
        for tx in &reply_txs {
            let _ = tx.send(CoordReply::Stop);
        }
        // Every worker catches its own panics and reports them as a death
        // notice, so a failed join would mean the notice itself panicked.
        for handle in handles {
            let joined = handle.join();
            debug_assert!(joined.is_ok(), "a process thread panicked past its catch");
        }
        let error = match (transport, core.outcome()) {
            (Err(error), _) => Some(error),
            (Ok(()), Some(Ok(_))) => None,
            (Ok(()), Some(Err(error))) => Some(error.clone().into()),
            // Unreachable (`Ok` means the core finished); kept total.
            (Ok(()), None) => Some(ThreadedError::ChannelClosed),
        };
        // Only a failed run renders its dump, from the core's own record
        // before the core is dismantled.
        if let Some(error) = &error {
            self.fail(error, core.flight_dump(&error.to_string()));
        }
        let trace = traced.then(|| core.trace());
        let result = match (error, core.into_outcome()) {
            (Some(error), _) => Err(error),
            (None, Some(Ok(report))) => Ok(report),
            // Unreachable (no error means the core decided); kept total.
            (None, _) => Err(ThreadedError::ChannelClosed),
        };
        (result, trace)
    }

    /// The coordinator loop, the transport around `core`: each round it
    /// gathers the `n` emissions — a decision rides on the next emission,
    /// so the core gets it as one of the previous round, and the round
    /// limit's gather is just the next round's — lets the core open,
    /// detect and admit the round, and sends out the shared table. Returns
    /// once the core finished, or with the transport failure.
    fn coordinate<P, D, Q>(
        &self,
        core: &mut RoundCore<P::Output, D, Q>,
        emit_rx: &Receiver<Notice<P::Msg, P::Output>>,
        reply_txs: &[Sender<CoordReply<P::Msg>>],
    ) -> Result<(), ThreadedError>
    where
        P: RoundProtocol,
        D: FaultDetector,
        Q: RrfdPredicate,
    {
        let n = reply_txs.len();
        let mut round_no = 0;
        loop {
            round_no += 1;
            let round = Round::new(round_no);
            let span = core.enter_round();

            // Gather every process's emission for this round.
            let mut messages: Vec<Option<P::Msg>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                // A panicking worker sends a death notice, but a wedged
                // one sends nothing while its peers' sender clones keep
                // the channel open, so bound the wait. The timeout only
                // fires when a thread is wedged.
                let Ok(notice) = emit_rx.recv_timeout(self.gather_timeout) else {
                    self.obs
                        .add(names::RUNTIME_GATHER_TIMEOUTS, Labels::round(round_no), 1);
                    // A process whose emission is still missing this
                    // round is the dead one; if all slots are somehow
                    // filled, report the closed channel itself rather
                    // than guessing.
                    return Err(match messages.iter().position(Option::is_none) {
                        Some(i) => ThreadedError::ProcessDied {
                            process: ProcessId::new(i),
                        },
                        None => ThreadedError::ChannelClosed,
                    });
                };
                let emission = match notice {
                    Ok(emission) => emission,
                    Err((process, message)) => {
                        return Err(ThreadedError::ProcessPanicked { process, message });
                    }
                };
                debug_assert_eq!(emission.round, round, "lock-step protocol violated");
                self.record(RtEventKind::Gather {
                    from: emission.from,
                    round: emission.round,
                });
                if let Some(value) = emission.decided {
                    // Reached in the previous round's deliver.
                    let decided_at = Round::new(round_no - 1);
                    if core.decide(emission.from, value, decided_at) {
                        self.record_write("decisions");
                    }
                }
                messages[emission.from.index()] = Some(emission.msg);
            }

            if core.open_round().is_none() {
                return Ok(());
            }
            self.record(RtEventKind::Detect { round });
            let faults = core.detect(&span);
            if !core.admit(&faults, span) {
                return Ok(());
            }

            // One shared emission table for the whole round: `n` reference
            // counts go out instead of `n` cloned vectors; each worker's
            // `Delivery` view masks its own suspected senders.
            let table = Arc::new(messages);
            for (i, reply_tx) in reply_txs.iter().enumerate() {
                let me = ProcessId::new(i);
                self.record(RtEventKind::Deliver { to: me, round });
                if reply_tx
                    .send(CoordReply::Delivery {
                        round,
                        table: Arc::clone(&table),
                        suspected: faults.of(me),
                    })
                    .is_err()
                {
                    return Err(ThreadedError::ProcessDied { process: me });
                }
            }
            self.record_write("pattern");
            core.close_round(faults, span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::{AnyPattern, TraceOutcome, DEFAULT_FLIGHT_ROUNDS};
    use rrfd_models::adversary::{NoFailures, RandomAdversary};
    use rrfd_models::predicates::KUncertainty;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    /// Decides the sum of received values after `rounds` rounds.
    struct SumAfter {
        rounds: u32,
        acc: u64,
        me: u64,
    }

    impl RoundProtocol for SumAfter {
        type Msg = u64;
        type Output = u64;
        fn emit(&mut self, _r: Round) -> u64 {
            self.me
        }
        fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
            self.acc += d.values().sum::<u64>();
            if d.round.get() >= self.rounds {
                Control::Decide(self.acc)
            } else {
                Control::Continue
            }
        }
    }

    #[test]
    fn threads_reach_the_same_result_as_the_engine() {
        let size = n(4);
        let build = || {
            (0..4)
                .map(|i| SumAfter {
                    rounds: 3,
                    acc: 0,
                    me: i as u64 + 1,
                })
                .collect::<Vec<_>>()
        };
        let threaded = ThreadedEngine::new(size)
            .run(build(), &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap();
        let inproc = rrfd_core::Engine::new(size)
            .run(build(), &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap();
        assert_eq!(threaded.outputs(), inproc.outputs());
        assert_eq!(threaded.rounds_executed, inproc.rounds_executed);
    }

    #[test]
    fn one_round_kset_runs_on_threads() {
        // Theorem 3.1 end to end on real threads (experiment E13's core).
        struct OneRound {
            input: u64,
        }
        impl RoundProtocol for OneRound {
            type Msg = u64;
            type Output = u64;
            fn emit(&mut self, _r: Round) -> u64 {
                self.input
            }
            fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
                let winner = d.heard_from().min().expect("someone was heard");
                Control::Decide(*d.get(winner).expect("winner heard"))
            }
        }

        let size = n(6);
        let k = 2;
        let model = KUncertainty::new(size, k);
        for seed in 0..10u64 {
            let protos: Vec<_> = (0..6).map(|i| OneRound { input: 100 + i }).collect();
            let mut adv = RandomAdversary::new(model, seed);
            let report = ThreadedEngine::new(size)
                .run(protos, &mut adv, &model)
                .unwrap();
            let mut distinct: Vec<u64> = report.outputs().into_iter().flatten().collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() <= k, "seed {seed}");
        }
    }

    #[test]
    fn violation_is_surfaced_and_threads_are_joined() {
        use rrfd_core::{FaultPattern as FP, RoundFaults};

        struct BadDetector(SystemSize);
        impl FaultDetector for BadDetector {
            fn system_size(&self) -> SystemSize {
                self.0
            }
            fn next_round(&mut self, _r: Round, _h: &FP) -> RoundFaults {
                let mut rf = RoundFaults::none(self.0);
                rf.set(ProcessId::new(0), IdSet::universe(self.0));
                rf
            }
        }

        let size = n(3);
        let protos: Vec<_> = (0..3)
            .map(|i| SumAfter {
                rounds: 2,
                acc: 0,
                me: i,
            })
            .collect();
        let err = ThreadedEngine::new(size)
            .run(protos, &mut BadDetector(size), &AnyPattern::new(size))
            .unwrap_err();
        assert!(matches!(
            err,
            ThreadedError::Engine(EngineError::Violation(_))
        ));
    }

    #[test]
    fn decisions_at_the_round_limit_are_collected() {
        // Regression: decisions piggyback on the next emission; a decision
        // made exactly at max_rounds must still be gathered.
        struct DecideRound1;
        impl RoundProtocol for DecideRound1 {
            type Msg = ();
            type Output = u32;
            fn emit(&mut self, _r: Round) {}
            fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<u32> {
                Control::Decide(d.round.get())
            }
        }

        let size = n(2);
        let report = ThreadedEngine::new(size)
            .max_rounds(1)
            .run(
                vec![DecideRound1, DecideRound1],
                &mut NoFailures::new(size),
                &AnyPattern::new(size),
            )
            .unwrap();
        assert_eq!(report.outputs(), vec![Some(1), Some(1)]);
        assert_eq!(report.rounds_executed, 1);
    }

    #[test]
    fn round_limit_is_enforced() {
        let size = n(2);
        let protos: Vec<_> = (0..2)
            .map(|i| SumAfter {
                rounds: 1000,
                acc: 0,
                me: i,
            })
            .collect();
        let err = ThreadedEngine::new(size)
            .max_rounds(4)
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap_err();
        assert!(matches!(
            err,
            ThreadedError::Engine(EngineError::RoundLimitExceeded { .. })
        ));
    }

    #[test]
    fn trace_matches_the_in_process_engine() {
        // The same protocol and the same deterministic adversary must
        // produce byte-identical traces on both substrates: that equality
        // is what makes cross-substrate replay meaningful.
        let size = n(5);
        let model = KUncertainty::new(size, 2);
        let build = || {
            (0..5)
                .map(|i| SumAfter {
                    rounds: 4,
                    acc: 0,
                    me: i as u64 + 1,
                })
                .collect::<Vec<_>>()
        };
        for seed in 0..5u64 {
            let (threaded, threaded_trace) = ThreadedEngine::new(size).run_traced(
                build(),
                &mut RandomAdversary::new(model, seed),
                &model,
            );
            let (inproc, inproc_trace) = rrfd_core::Engine::new(size).run_traced(
                build(),
                &mut RandomAdversary::new(model, seed),
                &model,
            );
            assert_eq!(threaded_trace, inproc_trace, "seed {seed}");
            assert_eq!(
                threaded_trace.to_string(),
                inproc_trace.to_string(),
                "seed {seed}"
            );
            let threaded = threaded.unwrap();
            let inproc = inproc.unwrap();
            assert_eq!(threaded.outputs(), inproc.outputs(), "seed {seed}");
            assert_eq!(threaded.pattern, inproc.pattern, "seed {seed}");
        }
    }

    #[test]
    fn traced_run_serializes_and_parses_back() {
        let size = n(3);
        let protos: Vec<_> = (0..3)
            .map(|i| SumAfter {
                rounds: 2,
                acc: 0,
                me: i,
            })
            .collect();
        let (report, trace) = ThreadedEngine::new(size).run_traced(
            protos,
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        );
        let report = report.unwrap();
        assert_eq!(trace.pattern(), report.pattern);
        let reparsed: RunTrace = trace.to_string().parse().unwrap();
        assert_eq!(reparsed, trace);
    }

    #[test]
    fn panicking_process_is_reported_with_its_message() {
        struct PanicsInRound2 {
            me: u64,
        }
        impl RoundProtocol for PanicsInRound2 {
            type Msg = u64;
            type Output = u64;
            fn emit(&mut self, _r: Round) -> u64 {
                self.me
            }
            fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
                if d.round.get() >= 2 && d.me == ProcessId::new(1) {
                    panic!("protocol bug in round 2");
                }
                Control::Continue
            }
        }

        let size = n(3);
        let protos: Vec<_> = (0..3).map(|i| PanicsInRound2 { me: i }).collect();
        let (result, trace) = ThreadedEngine::new(size).max_rounds(10).run_traced(
            protos,
            &mut NoFailures::new(size),
            &AnyPattern::new(size),
        );
        let err = result.unwrap_err();
        match err {
            ThreadedError::ProcessPanicked { process, message } => {
                assert_eq!(process, ProcessId::new(1));
                assert!(message.contains("protocol bug in round 2"), "{message}");
            }
            other => panic!("expected ProcessPanicked, got {other}"),
        }
        assert_eq!(*trace.outcome(), TraceOutcome::Aborted);
    }

    #[test]
    fn event_sink_captures_a_parseable_log() {
        use crate::sink::EventSink;
        use rrfd_core::EventLog;

        let size = n(3);
        let sink = EventSink::new(size);
        let protos: Vec<_> = (0..3)
            .map(|i| SumAfter {
                rounds: 2,
                acc: 0,
                me: i,
            })
            .collect();
        ThreadedEngine::new(size)
            .event_sink(sink.clone())
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap();
        let log = sink.snapshot();
        assert!(!log.is_empty());
        // Every event kind that a healthy run exercises shows up.
        let has = |pred: &dyn Fn(&rrfd_core::RtEventKind) -> bool| {
            log.events().iter().any(|e| pred(&e.kind))
        };
        assert!(has(&|k| matches!(k, RtEventKind::Emit { .. })));
        assert!(has(&|k| matches!(k, RtEventKind::Gather { .. })));
        assert!(has(&|k| matches!(k, RtEventKind::Detect { .. })));
        assert!(has(&|k| matches!(k, RtEventKind::Deliver { .. })));
        assert!(has(&|k| matches!(k, RtEventKind::Receive { .. })));
        assert!(has(&|k| matches!(k, RtEventKind::Decide { .. })));
        assert!(has(&|k| matches!(k, RtEventKind::Access { .. })));
        // And the textual form round-trips.
        let back: EventLog = log.to_string().parse().unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn terminal_errors_are_counted() {
        use rrfd_obs::Obs;

        let size = n(2);
        let protos: Vec<_> = (0..2)
            .map(|i| SumAfter {
                rounds: 1000,
                acc: 0,
                me: i,
            })
            .collect();
        let obs = Obs::logical();
        let err = ThreadedEngine::new(size)
            .max_rounds(4)
            .obs(obs.clone())
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap_err();
        assert!(matches!(
            err,
            ThreadedError::Engine(EngineError::RoundLimitExceeded { .. })
        ));
        assert_eq!(
            obs.snapshot()
                .counter_total(rrfd_obs::names::RUNTIME_ERR_ROUND_LIMIT),
            1
        );
    }

    #[test]
    fn failed_run_leaves_a_flight_dump_of_the_last_rounds() {
        let size = n(2);
        let protos: Vec<_> = (0..2)
            .map(|i| SumAfter {
                rounds: 1000,
                acc: 0,
                me: i,
            })
            .collect();
        let engine = ThreadedEngine::new(size).max_rounds(20);
        let err = engine
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap_err();
        assert!(matches!(
            err,
            ThreadedError::Engine(EngineError::RoundLimitExceeded { .. })
        ));
        let dump = engine.take_flight_dump().expect("failed run leaves a dump");
        assert!(dump.starts_with("rrfd-flight v1\n"), "{dump}");
        assert!(dump.contains("no full decision after 20 rounds"), "{dump}");
        // Only the last K = DEFAULT_FLIGHT_ROUNDS = 8 rounds are
        // retained: 13..=20.
        assert_eq!(DEFAULT_FLIGHT_ROUNDS, 8);
        assert!(dump.contains("round 20:"), "{dump}");
        assert!(dump.contains("round 13:"), "{dump}");
        assert!(!dump.contains("round 12:"), "{dump}");
        // Taking the dump drains it.
        assert!(engine.take_flight_dump().is_none());
    }

    #[test]
    fn violating_round_ends_the_flight_dump() {
        use rrfd_core::RoundFaults;
        use rrfd_models::adversary::ReplayDetector;

        // Round 1 leaves p2 in doubt (uncertainty 1 < k = 2); round 2
        // also p1, which k-uncertainty rejects.
        let size = n(3);
        let set = |ids: &[usize]| -> IdSet { ids.iter().map(|&i| ProcessId::new(i)).collect() };
        let round =
            |d0: IdSet| RoundFaults::from_sets(size, vec![d0, IdSet::empty(), IdSet::empty()]);
        let mut detector =
            ReplayDetector::from_rounds(size, vec![round(set(&[2])), round(set(&[1, 2]))]);
        let protos: Vec<_> = (0..3)
            .map(|i| SumAfter {
                rounds: 5,
                acc: 0,
                me: i,
            })
            .collect();
        let engine = ThreadedEngine::new(size);
        let err = engine
            .run(protos, &mut detector, &KUncertainty::new(size, 2))
            .unwrap_err();
        assert!(
            matches!(err, ThreadedError::Engine(EngineError::Violation(_))),
            "{err}"
        );
        let dump = engine.take_flight_dump().expect("failed run leaves a dump");
        assert_eq!(
            dump,
            format!(
                "rrfd-flight v1\nreason: {err}\nround 1:\n  D(p0) = {}\nround 2:\n  D(p0) = {}\n",
                set(&[2]),
                set(&[1, 2])
            )
        );
    }

    #[test]
    fn successful_run_leaves_no_flight_dump() {
        let size = n(3);
        let protos: Vec<_> = (0..3)
            .map(|i| SumAfter {
                rounds: 2,
                acc: 0,
                me: i,
            })
            .collect();
        let engine = ThreadedEngine::new(size);
        engine
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap();
        assert!(engine.take_flight_dump().is_none());
    }

    #[test]
    fn conformance_monitor_follows_the_run_live() {
        let size = n(3);
        let monitor = Arc::new(Mutex::new(ConformanceMonitor::zoo(size, 1)));
        let protos: Vec<_> = (0..3)
            .map(|i| SumAfter {
                rounds: 3,
                acc: 0,
                me: i,
            })
            .collect();
        ThreadedEngine::new(size)
            .conformance(Arc::clone(&monitor))
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap();
        let verdict = monitor.lock().unwrap().verdict();
        // A failure-free run satisfies the whole zoo; the strongest
        // surviving class is the top of the lattice.
        assert!(verdict.rounds_observed >= 3);
        let strongest = verdict.strongest_satisfied().expect("zoo satisfied");
        assert_eq!(strongest.rank, 0);
    }
}
