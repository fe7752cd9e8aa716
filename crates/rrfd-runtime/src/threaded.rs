//! A threaded execution harness: the paper's abstract emit/receive loop on
//! real OS threads, with the round-by-round fault detector realised as a
//! coordinator service.
//!
//! Each process runs on its own thread and speaks only to the coordinator:
//! it emits its round message, then blocks until the coordinator answers
//! with the round's delivery — the messages of every unsuspected peer plus
//! the suspicion set `D(i,r)`. The coordinator gathers the `n` emissions,
//! asks the [`FaultDetector`] for the round's suspicion sets, validates
//! them against the model's compiled [`ProgramBatch`] (exactly like the
//! in-process [`rrfd_core::Engine`]), and replies. The harness exists to
//! demonstrate that RRFD systems are *executable* designs, not just proof
//! devices — experiment E13 runs Theorem 3.1 end to end on threads.

use crossbeam::channel::{self, Receiver, Sender};
use rrfd_core::{validate_round, FaultDetector, ProgramBatch};
use rrfd_core::{
    Control, Delivery, FaultPattern, IdSet, PatternViolation, ProcessId, Round, RoundProtocol,
    RrfdPredicate, RunReport, RunTrace, SystemSize, TraceBuilder, TraceOutcome,
};
use std::fmt;
use std::thread;
use std::time::Duration;

use crate::clock::RoundClock;
use crate::sink::EventSink;
use rrfd_core::{Actor, RtEventKind};
use rrfd_models::conformance::ConformanceMonitor;
use rrfd_obs::{names, FlightRecorder, Labels, Obs, SpanKind, SpanPhase, DEFAULT_FLIGHT_ROUNDS};
use std::sync::{Arc, Mutex};

/// Channel pair used between the coordinator and process threads.
type EmissionChannel<M, O> = (Sender<Emission<M, O>>, Receiver<Emission<M, O>>);
type ReplyChannel<M> = (Sender<CoordReply<M>>, Receiver<CoordReply<M>>);

/// Records one runtime event: into the event log when one is installed,
/// and as its `rrfd_runtime_*` counter when `obs` is enabled, labelled
/// by the process it concerns and its round.
fn record_event(events: Option<&EventSink>, obs: &Obs, actor: Actor, kind: RtEventKind) {
    if obs.is_enabled() {
        let at = |p: ProcessId, round: Round| Labels::process_round(p.index(), round.get());
        let counted = match (actor, &kind) {
            (Actor::Process(p), &RtEventKind::Emit { round }) => {
                Some((names::RUNTIME_MESSAGES_EMITTED, at(p, round)))
            }
            (_, &RtEventKind::Gather { from, round }) => {
                Some((names::RUNTIME_GATHERS, at(from, round)))
            }
            (_, &RtEventKind::Detect { round }) => {
                Some((names::RUNTIME_DETECTS, Labels::round(round.get())))
            }
            (_, &RtEventKind::Deliver { to, round }) => {
                Some((names::RUNTIME_DELIVERIES, at(to, round)))
            }
            (Actor::Process(p), &RtEventKind::Receive { round }) => {
                Some((names::RUNTIME_MESSAGES_RECEIVED, at(p, round)))
            }
            (Actor::Process(p), &RtEventKind::Decide { round }) => {
                Some((names::RUNTIME_DECISIONS, at(p, round)))
            }
            (_, RtEventKind::Access { .. }) => {
                Some((names::RUNTIME_STATE_ACCESSES, Labels::GLOBAL))
            }
            // Only process threads emit, receive and decide.
            (Actor::Coordinator, _) => None,
        };
        if let Some((metric, labels)) = counted {
            obs.add(metric, labels, 1);
        }
    }
    if let Some(events) = events {
        events.record(actor, kind);
    }
}

/// What a process thread sends the coordinator each round.
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
    /// The adversary violated the model predicate (or well-formedness).
    Violation(PatternViolation),
    /// The protocol vector does not match the system size.
    WrongProcessCount {
        /// Instances supplied.
        supplied: usize,
        /// System size.
        expected: usize,
    },
    /// The round budget elapsed before every process decided.
    RoundLimitExceeded {
        /// The configured limit.
        max_rounds: u32,
    },
    /// A process thread disconnected unexpectedly with no panic payload
    /// recovered from its join handle.
    ProcessDied {
        /// The dead process.
        process: ProcessId,
    },
    /// A process thread panicked; the payload was captured at join time.
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
            ThreadedError::Violation(v) => write!(f, "adversary violation: {v}"),
            ThreadedError::WrongProcessCount { supplied, expected } => {
                write!(f, "{supplied} protocols for a system of {expected}")
            }
            ThreadedError::RoundLimitExceeded { max_rounds } => {
                write!(f, "no full decision after {max_rounds} rounds")
            }
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

impl From<PatternViolation> for ThreadedError {
    fn from(v: PatternViolation) -> Self {
        ThreadedError::Violation(v)
    }
}

/// Reattributes channel-level failure symptoms to their panic causes.
///
/// The coordinator can only observe the *symptom* of a worker panic — a
/// missing emission ([`ThreadedError::ProcessDied`]) or, in principle, every
/// sender vanishing at once ([`ThreadedError::ChannelClosed`]). After
/// joining the threads, `panics[i]` holds the panic message recovered from
/// `p_i`'s join handle, and this function upgrades the symptom to a
/// [`ThreadedError::ProcessPanicked`] cause where one is available. A
/// symptom with no recovered payload passes through unchanged, as do
/// successes and every other error.
fn attribute_panics<T>(
    result: Result<T, ThreadedError>,
    panics: &mut [Option<String>],
) -> Result<T, ThreadedError> {
    match result {
        Err(ThreadedError::ProcessDied { process }) => match panics[process.index()].take() {
            Some(message) => Err(ThreadedError::ProcessPanicked { process, message }),
            None => Err(ThreadedError::ProcessDied { process }),
        },
        Err(ThreadedError::ChannelClosed) => {
            match panics
                .iter_mut()
                .enumerate()
                .find_map(|(i, p)| p.take().map(|m| (ProcessId::new(i), m)))
            {
                Some((process, message)) => {
                    Err(ThreadedError::ProcessPanicked { process, message })
                }
                None => Err(ThreadedError::ChannelClosed),
            }
        }
        other => other,
    }
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
    n: SystemSize,
    max_rounds: u32,
    gather_timeout: Duration,
    clock: RoundClock,
    events: Option<EventSink>,
    obs: Obs,
    instance: u64,
    flight_rounds: u32,
    flight_dump: Arc<Mutex<Option<String>>>,
    conformance: Option<Arc<Mutex<ConformanceMonitor>>>,
}

impl ThreadedEngine {
    /// Creates an engine for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        ThreadedEngine {
            n,
            max_rounds: 100_000,
            gather_timeout: DEFAULT_GATHER_TIMEOUT,
            clock: RoundClock::new(),
            events: None,
            obs: Obs::noop(),
            instance: 0,
            flight_rounds: DEFAULT_FLIGHT_ROUNDS as u32,
            flight_dump: Arc::new(Mutex::new(None)),
            conformance: None,
        }
    }

    /// Overrides the round budget.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
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

    /// Attaches an observability handle. The coordinator and the process
    /// threads then count every runtime event (the events an
    /// [`EventSink`] logs) under the `rrfd_runtime_*` names, keyed by
    /// process and round, and the coordinator records per-round wall
    /// latency, gather timeouts, and terminal error counters.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the instance id stamped on this engine's causal spans (see
    /// `rrfd_core::Engine::instance`). Defaults to 0.
    #[must_use]
    pub fn instance(mut self, instance: u64) -> Self {
        self.instance = instance;
        self
    }

    /// Overrides how many recent rounds the crash flight recorder retains
    /// (default [`DEFAULT_FLIGHT_ROUNDS`]). `0` disables the recorder
    /// entirely — no per-round notes are formatted.
    ///
    /// The flight recorder is always on otherwise: when a run ends in any
    /// [`ThreadedError`], a post-mortem capture of the last K rounds (gathers,
    /// suspicion sets, deliveries, decisions) is stashed for
    /// [`ThreadedEngine::take_flight_dump`].
    #[must_use]
    pub fn flight_rounds(mut self, rounds: u32) -> Self {
        self.flight_rounds = rounds;
        self
    }

    /// Attaches a live conformance monitor: the coordinator feeds it every
    /// validated round's suspicion sets (and, on the violation path, the
    /// violating round — the evidence), so the zoo verdict is available
    /// the moment the run ends. Call
    /// [`ConformanceMonitor::record`] afterwards to
    /// export the verdict as `rrfd_conformance_*` metrics.
    #[must_use]
    pub fn conformance(mut self, monitor: Arc<Mutex<ConformanceMonitor>>) -> Self {
        self.conformance = Some(monitor);
        self
    }

    /// Takes the post-mortem flight dump left by the most recent failed
    /// run, if any. Runs that succeed leave nothing; a second take returns
    /// `None` until another run fails.
    #[must_use]
    pub fn take_flight_dump(&self) -> Option<String> {
        self.flight_dump
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// Records one coordinator-side event.
    fn record(&self, kind: RtEventKind) {
        record_event(self.events.as_ref(), &self.obs, Actor::Coordinator, kind);
    }

    /// Records a coordinator write to the shared state at `loc`. The event
    /// owns its location name, so it is only built when an event log or
    /// an enabled `Obs` will see it.
    fn record_write(&self, loc: &str) {
        if self.events.is_some() || self.obs.is_enabled() {
            self.record(RtEventKind::Access {
                loc: loc.to_owned(),
                write: true,
            });
        }
    }

    /// Stashes the flight recorder's post-mortem capture for
    /// [`ThreadedEngine::take_flight_dump`], keyed by the terminal error.
    fn stash_flight(&self, flight: &FlightRecorder, error: &ThreadedError) {
        if self.flight_rounds == 0 {
            return;
        }
        *self
            .flight_dump
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(flight.dump(&error.to_string()));
    }

    /// Feeds one round's suspicion sets to the attached conformance
    /// monitor, if any.
    fn observe_conformance(&self, faults: &rrfd_core::RoundFaults) {
        if let Some(monitor) = &self.conformance {
            monitor
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .observe(faults);
        }
    }

    /// Counts a terminal error under its `rrfd_runtime_errors_*` name.
    fn record_error(&self, error: &ThreadedError) {
        if !self.obs.is_enabled() {
            return;
        }
        let (metric, labels) = match error {
            ThreadedError::Violation(_) => (names::RUNTIME_ERR_VIOLATION, Labels::GLOBAL),
            ThreadedError::WrongProcessCount { .. } => {
                (names::RUNTIME_ERR_WRONG_COUNT, Labels::GLOBAL)
            }
            ThreadedError::RoundLimitExceeded { .. } => {
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

    /// A clock observers can use to watch the run's progress from other
    /// threads.
    #[must_use]
    pub fn clock(&self) -> RoundClock {
        self.clock.clone()
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
        self.run_inner(protocols, detector, model, None).0
    }

    /// Like [`ThreadedEngine::run`], but also records a [`RunTrace`]: the
    /// same capture format as the in-process engine, so a threaded run can
    /// be replayed (bit-for-bit, via a replay detector) on either substrate.
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
        let mut trace = TraceBuilder::new(self.n);
        let (result, outcome) = self.run_inner(protocols, detector, model, Some(&mut trace));
        (result, trace.finish(outcome))
    }

    /// The shared run body. With `trace` absent ([`ThreadedEngine::run`])
    /// the coordinator skips all trace bookkeeping — no heard-set vectors,
    /// no per-round fault clones.
    fn run_inner<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: &mut D,
        model: &Q,
        trace: Option<&mut TraceBuilder>,
    ) -> (Result<RunReport<P::Output>, ThreadedError>, TraceOutcome)
    where
        P: RoundProtocol + Send + 'static,
        P::Msg: Send + Sync + 'static,
        P::Output: Send + Clone + 'static,
        D: FaultDetector + ?Sized,
        Q: RrfdPredicate + ?Sized,
    {
        let mut flight = FlightRecorder::new(self.flight_rounds as usize);
        let run_start_ns = self.obs.now_ns();
        let n = self.n.get();
        if protocols.len() != n {
            let error = ThreadedError::WrongProcessCount {
                supplied: protocols.len(),
                expected: n,
            };
            self.record_error(&error);
            self.stash_flight(&flight, &error);
            return (Err(error), TraceOutcome::Aborted);
        }

        let (emit_tx, emit_rx): EmissionChannel<P::Msg, P::Output> = channel::unbounded();

        let mut reply_txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, mut protocol) in protocols.into_iter().enumerate() {
            let me = ProcessId::new(i);
            let emit_tx = emit_tx.clone();
            let (reply_tx, reply_rx): ReplyChannel<P::Msg> = channel::unbounded();
            reply_txs.push(reply_tx);
            let (events, obs) = (self.events.clone(), self.obs.clone());
            handles.push(thread::spawn(move || {
                let record = |kind| record_event(events.as_ref(), &obs, Actor::Process(me), kind);
                let mut decided: Option<P::Output> = None;
                let mut round = Round::FIRST;
                loop {
                    let msg = protocol.emit(round);
                    record(RtEventKind::Emit { round });
                    if emit_tx
                        .send(Emission {
                            from: me,
                            round,
                            msg,
                            decided: decided.take(),
                        })
                        .is_err()
                    {
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
        }
        drop(emit_tx);

        let (result, outcome) =
            self.coordinate::<P>(&emit_rx, &reply_txs, detector, model, trace, &mut flight);

        // Stop every thread (ignore send failures: thread may be gone).
        for tx in &reply_txs {
            let _ = tx.send(CoordReply::Stop);
        }
        // Joining surfaces panic payloads instead of swallowing them: a
        // thread that died from a panic turns the channel-level symptom
        // (ProcessDied / ChannelClosed) into a ProcessPanicked cause.
        let mut panics: Vec<Option<String>> = (0..n).map(|_| None).collect();
        for (i, handle) in handles.into_iter().enumerate() {
            if let Err(payload) = handle.join() {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                panics[i] = Some(message);
            }
        }
        let result = attribute_panics(result, &mut panics);
        if let Err(error) = &result {
            self.record_error(error);
            // The post-mortem capture is stashed *after* panic
            // attribution so the dump header names the cause
            // (ProcessPanicked), not the channel-level symptom.
            self.stash_flight(&flight, error);
        }
        self.obs
            .close_span(self.instance, SpanKind::Run, 0, None, run_start_ns);
        self.clock.finish();
        (result, outcome)
    }

    /// Runs the coordinator loop. Returns the run result plus the trace
    /// outcome to seal the recorded trace with (the builder itself is
    /// filled in as rounds execute).
    fn coordinate<P>(
        &self,
        emit_rx: &Receiver<Emission<P::Msg, P::Output>>,
        reply_txs: &[Sender<CoordReply<P::Msg>>],
        detector: &mut (impl FaultDetector + ?Sized),
        model: &(impl RrfdPredicate + ?Sized),
        mut trace: Option<&mut TraceBuilder>,
        flight: &mut FlightRecorder,
    ) -> (Result<RunReport<P::Output>, ThreadedError>, TraceOutcome)
    where
        P: RoundProtocol,
        P::Output: Clone,
    {
        let n = self.n.get();
        let black_box = self.flight_rounds > 0;
        let mut decisions: Vec<Option<(P::Output, Round)>> = vec![None; n];
        let mut pattern = FaultPattern::new(self.n);
        let mut batch = ProgramBatch::of(model);

        for round_no in 1..=self.max_rounds {
            let round = Round::new(round_no);
            let span = self.obs.round_enter(Labels::round(round_no));

            // Gather every process's emission for this round.
            let mut messages: Vec<Option<P::Msg>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                // A plain `recv` would deadlock if one thread dies while its
                // peers stay alive (their sender clones keep the channel
                // open), so bound the wait. The timeout only fires when a
                // thread is genuinely gone or wedged.
                let emission = match emit_rx.recv_timeout(self.gather_timeout) {
                    Ok(emission) => emission,
                    Err(_) => {
                        self.obs
                            .add(names::RUNTIME_GATHER_TIMEOUTS, Labels::round(round_no), 1);
                        if black_box {
                            let missing: Vec<usize> = messages
                                .iter()
                                .enumerate()
                                .filter_map(|(i, m)| m.is_none().then_some(i))
                                .collect();
                            flight.note(
                                round_no,
                                format!("gather timeout; emissions missing from {missing:?}"),
                            );
                        }
                        // A process whose emission is still missing this
                        // round is the dead one; if all slots are somehow
                        // filled, report the closed channel itself rather
                        // than guessing.
                        let error = match messages
                            .iter()
                            .position(Option::is_none)
                            .map(ProcessId::new)
                        {
                            Some(process) => ThreadedError::ProcessDied { process },
                            None => ThreadedError::ChannelClosed,
                        };
                        return (Err(error), TraceOutcome::Aborted);
                    }
                };
                debug_assert_eq!(emission.round, round, "lock-step protocol violated");
                self.record(RtEventKind::Gather {
                    from: emission.from,
                    round: emission.round,
                });
                if black_box {
                    flight.note(round_no, format!("gather p{}", emission.from.index()));
                }
                if let Some(v) = emission.decided {
                    // Decision reached in the previous round's deliver.
                    if decisions[emission.from.index()].is_none() {
                        let decided_at = Round::new(round_no - 1);
                        decisions[emission.from.index()] = Some((v, decided_at));
                        if let Some(t) = trace.as_deref_mut() {
                            t.record_decision(emission.from, decided_at);
                        }
                        if black_box {
                            flight.note(
                                round_no,
                                format!(
                                    "p{} decided (in round {})",
                                    emission.from.index(),
                                    decided_at.get()
                                ),
                            );
                        }
                        self.obs.close_span(
                            self.instance,
                            SpanKind::Phase(SpanPhase::Decide),
                            decided_at.get(),
                            Some(emission.from.index() as u32),
                            span.start_ns(),
                        );
                        self.record_write("decisions");
                    }
                }
                messages[emission.from.index()] = Some(emission.msg);
            }

            if round_no > 1 && decisions.iter().all(Option::is_some) {
                let rounds_executed = round_no - 1;
                return (
                    Ok(RunReport {
                        decisions,
                        pattern,
                        rounds_executed,
                    }),
                    TraceOutcome::Decided { rounds_executed },
                );
            }

            // The emit/gather phase of the round is over once every
            // emission is in hand.
            self.obs.close_span(
                self.instance,
                SpanKind::Phase(SpanPhase::Emit),
                round_no,
                None,
                span.start_ns(),
            );

            self.record(RtEventKind::Detect { round });
            let faults = detector.next_round(round, &pattern);
            if black_box {
                for i in 0..n {
                    let suspected = faults.of(ProcessId::new(i));
                    if !suspected.is_empty() {
                        flight.note(round_no, format!("D(p{i}) = {suspected}"));
                    }
                }
            }
            if let Err(violation) = validate_round(model, &mut batch, &faults) {
                if black_box {
                    flight.note(round_no, format!("VIOLATION: {violation}"));
                }
                // The monitor sees the violating round too: it is the
                // evidence the certificate replays.
                self.observe_conformance(&faults);
                if let Some(t) = trace.as_deref_mut() {
                    t.record_violating_round(faults);
                }
                return (
                    Err(violation.clone().into()),
                    TraceOutcome::Violation(violation),
                );
            }
            self.observe_conformance(&faults);

            // One shared emission table for the whole round: `n` reference
            // counts go out instead of `n` cloned vectors; each worker's
            // `Delivery` view masks its own suspected senders.
            let deliver_start = self.obs.now_ns();
            let table = Arc::new(messages);
            let mut heard: Option<Vec<IdSet>> = trace.is_some().then(|| Vec::with_capacity(n));
            for (i, reply_tx) in reply_txs.iter().enumerate() {
                let me = ProcessId::new(i);
                let suspected = faults.of(me);
                if self.obs.is_enabled() {
                    // Everyone emitted (the gather saw all n), so the
                    // shared plane serves the full unsuspected set.
                    self.obs.add(
                        names::ENGINE_DELIVERIES_SHARED,
                        Labels::process_round(i, round_no),
                        suspected.complement(self.n).len() as u64,
                    );
                }
                if let Some(h) = heard.as_mut() {
                    h.push(suspected.complement(self.n));
                }
                self.record(RtEventKind::Deliver { to: me, round });
                if reply_tx
                    .send(CoordReply::Delivery {
                        round,
                        table: Arc::clone(&table),
                        suspected,
                    })
                    .is_err()
                {
                    if black_box {
                        flight.note(round_no, format!("deliver to p{i} failed: thread gone"));
                    }
                    return (
                        Err(ThreadedError::ProcessDied { process: me }),
                        TraceOutcome::Aborted,
                    );
                }
            }
            if black_box {
                flight.note(round_no, format!("delivered shared table to {n} processes"));
            }
            self.obs.close_span(
                self.instance,
                SpanKind::Phase(SpanPhase::Deliver),
                round_no,
                None,
                deliver_start,
            );

            if let (Some(t), Some(h)) = (trace.as_deref_mut(), heard.take()) {
                t.record_round(&faults, h);
            }
            self.record_write("pattern");
            pattern.push(faults);
            self.clock.advance(round_no);
            self.obs.round_exit(names::RUNTIME_ROUND_LATENCY, span);
            self.obs.close_span(
                self.instance,
                SpanKind::Round,
                round_no,
                None,
                span.start_ns(),
            );
        }

        // Decisions piggyback on the *next* round's emission, so decisions
        // made exactly at `max_rounds` arrive after the loop: gather one
        // final batch before giving up (matching the in-process Engine's
        // semantics).
        let mut gathered = 0usize;
        while gathered < n {
            // Every live thread already sent its next emission before
            // blocking on the reply; the timeout only fires if a thread
            // died, in which case the round-limit error below stands.
            let Ok(emission) = emit_rx.recv_timeout(self.gather_timeout) else {
                self.obs.add(
                    names::RUNTIME_GATHER_TIMEOUTS,
                    Labels::round(self.max_rounds),
                    1,
                );
                break;
            };
            gathered += 1;
            self.record(RtEventKind::Gather {
                from: emission.from,
                round: emission.round,
            });
            if let Some(v) = emission.decided {
                if decisions[emission.from.index()].is_none() {
                    let decided_at = Round::new(self.max_rounds);
                    decisions[emission.from.index()] = Some((v, decided_at));
                    if let Some(t) = trace.as_deref_mut() {
                        t.record_decision(emission.from, decided_at);
                    }
                    if black_box {
                        flight.note(
                            self.max_rounds,
                            format!("p{} decided (at the round limit)", emission.from.index()),
                        );
                    }
                    self.record_write("decisions");
                }
            }
        }
        if decisions.iter().all(Option::is_some) {
            let rounds_executed = self.max_rounds;
            return (
                Ok(RunReport {
                    decisions,
                    pattern,
                    rounds_executed,
                }),
                TraceOutcome::Decided { rounds_executed },
            );
        }

        (
            Err(ThreadedError::RoundLimitExceeded {
                max_rounds: self.max_rounds,
            }),
            TraceOutcome::RoundLimit {
                max_rounds: self.max_rounds,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::AnyPattern;
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
        assert!(matches!(err, ThreadedError::Violation(_)));
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
        assert!(matches!(err, ThreadedError::RoundLimitExceeded { .. }));
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
    fn attribute_panics_upgrades_process_died() {
        let mut panics = vec![None, Some("boom".to_owned())];
        let result: Result<(), _> = attribute_panics(
            Err(ThreadedError::ProcessDied {
                process: ProcessId::new(1),
            }),
            &mut panics,
        );
        match result.unwrap_err() {
            ThreadedError::ProcessPanicked { process, message } => {
                assert_eq!(process, ProcessId::new(1));
                assert_eq!(message, "boom");
            }
            other => panic!("expected ProcessPanicked, got {other}"),
        }
    }

    #[test]
    fn attribute_panics_keeps_process_died_without_payload() {
        let mut panics = vec![None, None];
        let result: Result<(), _> = attribute_panics(
            Err(ThreadedError::ProcessDied {
                process: ProcessId::new(0),
            }),
            &mut panics,
        );
        assert!(matches!(
            result.unwrap_err(),
            ThreadedError::ProcessDied { .. }
        ));
    }

    #[test]
    fn attribute_panics_resolves_channel_closed_to_first_panicker() {
        // ChannelClosed carries no process identity; the first recovered
        // payload names the culprit.
        let mut panics = vec![None, None, Some("late panic".to_owned())];
        let result: Result<(), _> =
            attribute_panics(Err(ThreadedError::ChannelClosed), &mut panics);
        match result.unwrap_err() {
            ThreadedError::ProcessPanicked { process, message } => {
                assert_eq!(process, ProcessId::new(2));
                assert_eq!(message, "late panic");
            }
            other => panic!("expected ProcessPanicked, got {other}"),
        }

        let mut no_panics = vec![None, None];
        let result: Result<(), _> =
            attribute_panics(Err(ThreadedError::ChannelClosed), &mut no_panics);
        assert!(matches!(result.unwrap_err(), ThreadedError::ChannelClosed));
    }

    #[test]
    fn attribute_panics_passes_successes_and_other_errors_through() {
        let mut panics = vec![Some("unrelated".to_owned())];
        let ok: Result<u32, _> = attribute_panics(Ok(7), &mut panics);
        assert_eq!(ok.unwrap(), 7);
        let err: Result<(), _> = attribute_panics(
            Err(ThreadedError::RoundLimitExceeded { max_rounds: 3 }),
            &mut panics,
        );
        assert!(matches!(
            err.unwrap_err(),
            ThreadedError::RoundLimitExceeded { max_rounds: 3 }
        ));
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
    fn events_and_metrics_are_captured_simultaneously() {
        use rrfd_obs::{names, MetricValue, Obs};

        let size = n(3);
        let events = EventSink::new(size);
        let obs = Obs::logical();
        let protos: Vec<_> = (0..3)
            .map(|i| SumAfter {
                rounds: 2,
                acc: 0,
                me: i,
            })
            .collect();
        ThreadedEngine::new(size)
            .event_sink(events.clone())
            .obs(obs.clone())
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap();

        // The event log captured the run...
        let log = events.snapshot();
        assert!(!log.is_empty());
        // ...and every event surfaced as its counter, in the same counts.
        let snap = obs.snapshot();
        let mut expected = std::collections::BTreeMap::new();
        for event in log.events() {
            let metric = match event.kind {
                RtEventKind::Emit { .. } => names::RUNTIME_MESSAGES_EMITTED,
                RtEventKind::Gather { .. } => names::RUNTIME_GATHERS,
                RtEventKind::Detect { .. } => names::RUNTIME_DETECTS,
                RtEventKind::Deliver { .. } => names::RUNTIME_DELIVERIES,
                RtEventKind::Receive { .. } => names::RUNTIME_MESSAGES_RECEIVED,
                RtEventKind::Decide { .. } => names::RUNTIME_DECISIONS,
                RtEventKind::Access { .. } => names::RUNTIME_STATE_ACCESSES,
            };
            *expected.entry(metric).or_insert(0u64) += 1;
        }
        assert_eq!(expected.len(), 7, "a healthy run exercises every event");
        for (metric, count) in expected {
            assert_eq!(snap.counter_total(metric), count, "{metric}");
        }
        assert_eq!(snap.counter_total(names::RUNTIME_DECISIONS), 3);
        // Counters are keyed by the process an event concerns and its
        // round; detects by round only.
        let one = Some(&MetricValue::Counter(1));
        assert_eq!(
            snap.get(names::RUNTIME_MESSAGES_EMITTED, Labels::process_round(1, 2)),
            one
        );
        assert_eq!(
            snap.get(names::RUNTIME_GATHERS, Labels::process_round(2, 1)),
            one
        );
        assert_eq!(
            snap.get(names::RUNTIME_DELIVERIES, Labels::process_round(0, 1)),
            one
        );
        assert_eq!(snap.get(names::RUNTIME_DETECTS, Labels::round(2)), one);
        // The coordinator recorded wall latency for each completed round.
        let latency_rounds = snap
            .entries()
            .iter()
            .filter(|e| e.metric == names::RUNTIME_ROUND_LATENCY)
            .count();
        assert!(latency_rounds >= 2, "{latency_rounds}");
        assert_eq!(snap.counter_total(names::RUNTIME_GATHER_TIMEOUTS), 0);
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
        assert!(matches!(err, ThreadedError::RoundLimitExceeded { .. }));
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
        let engine = ThreadedEngine::new(size).max_rounds(20).flight_rounds(4);
        let err = engine
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap_err();
        assert!(matches!(err, ThreadedError::RoundLimitExceeded { .. }));
        let dump = engine.take_flight_dump().expect("failed run leaves a dump");
        assert!(dump.starts_with("rrfd-flight v1\n"), "{dump}");
        assert!(dump.contains("no full decision after 20 rounds"), "{dump}");
        // Only the last K=4 rounds are retained: 17..=20.
        assert!(dump.contains("round 20:"), "{dump}");
        assert!(dump.contains("round 17:"), "{dump}");
        assert!(!dump.contains("round 16:"), "{dump}");
        // Taking the dump drains it.
        assert!(engine.take_flight_dump().is_none());
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

    #[test]
    fn clock_tracks_progress() {
        let size = n(3);
        let engine = ThreadedEngine::new(size);
        let clock = engine.clock();
        let protos: Vec<_> = (0..3)
            .map(|i| SumAfter {
                rounds: 5,
                acc: 0,
                me: i,
            })
            .collect();
        let report = engine
            .run(protos, &mut NoFailures::new(size), &AnyPattern::new(size))
            .unwrap();
        assert!(clock.is_finished());
        assert!(clock.current_round() >= report.rounds_executed);
    }
}
