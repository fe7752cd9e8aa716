//! The emit/receive round engine — the paper's abstract algorithm skeleton.
//!
//! ```text
//! r := 1
//! forever do
//!     compute messages m_{i,r} for round r
//!     emit m_{i,r}
//!     (wait until) ∀ p_j ∈ S: received m_{j,r} or p_j ∈ D(i,r)
//!     r := r + 1
//! end
//! ```
//!
//! [`Engine::run`] drives a vector of [`RoundProtocol`] instances against a
//! [`FaultDetector`] (the adversary), validating every adversary output
//! against the model predicate and recording the fault pattern so the run
//! can be audited afterwards. A run compiles its model once, at start, into
//! a one-program [`ProgramBatch`] and admits each round through it in
//! `O(1)`, whatever the run's length. The round semantics live once, in
//! [`RoundCore`], which leaves the messages to a transport: [`EngineRun`]
//! passes them through one in-process table, the threaded runtime over
//! channels.

use crate::id::{ProcessId, Round, SystemSize};
use crate::idset::IdSet;
use crate::pattern::{FaultPattern, RoundFaults};
use crate::predicate::{validate_round, PatternViolation, RrfdPredicate};
use crate::program::ProgramBatch;
use crate::trace::{RunTrace, TraceOutcome};
use rrfd_obs::{names, Labels, MetricId, Obs, RoundSpan, RunObs, SpanKind, SpanPhase, SpanRecord};
use std::fmt::{self, Write as _};

const ROUNDS: MetricId = MetricId::of(names::ENGINE_ROUNDS);
const MESSAGES_EMITTED: MetricId = MetricId::of(names::ENGINE_MESSAGES_EMITTED);
const MESSAGES_RECEIVED: MetricId = MetricId::of(names::ENGINE_MESSAGES_RECEIVED);
const SUSPICION_SIZE: MetricId = MetricId::of(names::ENGINE_SUSPICION_SIZE);
const DECISIONS: MetricId = MetricId::of(names::ENGINE_DECISIONS);
const VIOLATIONS: MetricId = MetricId::of(names::ENGINE_VIOLATIONS);
const ROUND_LATENCY: MetricId = MetricId::of(names::ENGINE_ROUND_LATENCY);

/// A round-by-round fault detector, viewed as an adversary: at each round it
/// chooses the suspicion sets `D(i,r)` for every process, constrained (and
/// checked by the engine) against the model predicate.
pub trait FaultDetector {
    /// The system size the detector serves.
    fn system_size(&self) -> SystemSize;

    /// Produces the suspicion sets for the next round, given the recorded
    /// history of previous rounds.
    fn next_round(&mut self, round: Round, history: &FaultPattern) -> RoundFaults;
}

impl<D: FaultDetector + ?Sized> FaultDetector for &mut D {
    fn system_size(&self) -> SystemSize {
        (**self).system_size()
    }
    fn next_round(&mut self, round: Round, history: &FaultPattern) -> RoundFaults {
        (**self).next_round(round, history)
    }
}

impl<D: FaultDetector + ?Sized> FaultDetector for Box<D> {
    fn system_size(&self) -> SystemSize {
        (**self).system_size()
    }
    fn next_round(&mut self, round: Round, history: &FaultPattern) -> RoundFaults {
        (**self).next_round(round, history)
    }
}

/// What a process sees at the end of a round: a masked view into the
/// round's shared emission table plus the set of processes its fault
/// detector told it not to wait for.
///
/// Every recipient of a round borrows the *same* table — each message is
/// emitted once and never cloned per recipient. The view enforces the
/// paper's covering property `S(i,r) ∪ D(i,r) = S`: [`Delivery::get`]
/// returns `Some` exactly when the sender emitted this round and is not in
/// `suspected`, so a suspected sender's message is unobservable even though
/// the recipient physically holds the table. This masking is what makes
/// sharing sound: protocols only *read* deliveries (see `DESIGN.md` §12).
/// Note that `p_i ∈ suspected` is allowed — a process may be "late to its
/// own round" — in which case it still knows its own message through its
/// local state.
#[derive(Debug)]
pub struct Delivery<'a, M> {
    /// The round that just completed.
    pub round: Round,
    /// The receiving process.
    pub me: ProcessId,
    /// The set `D(me, round)`.
    pub suspected: IdSet,
    /// The shared emission table: `messages[j]` is `m_{j,r}` if `p_j`
    /// emitted this round. Access goes through the masking accessors.
    messages: &'a [Option<M>],
    /// `S(me, round)`: senders that emitted and are not suspected.
    visible: IdSet,
}

impl<'a, M> Delivery<'a, M> {
    /// Builds the round view for `me`: `messages[j]` is the message `p_j`
    /// emitted this round (`None` if it did not emit, e.g. it crashed in a
    /// simulator), and `suspected` is `D(me, round)`. Messages from
    /// suspected senders are masked out of every accessor.
    #[must_use]
    pub fn new(round: Round, me: ProcessId, messages: &'a [Option<M>], suspected: IdSet) -> Self {
        let mut visible = IdSet::empty();
        for (j, m) in messages.iter().enumerate() {
            let j = ProcessId::new(j);
            if m.is_some() && !suspected.contains(j) {
                visible.insert(j);
            }
        }
        Delivery {
            round,
            me,
            suspected,
            messages,
            visible,
        }
    }

    /// The message of `p_j`, or `None` when `p_j` is suspected (or never
    /// emitted). The borrow lives as long as the round's table, not this
    /// view.
    #[must_use]
    pub fn get(&self, j: ProcessId) -> Option<&'a M> {
        if self.visible.contains(j) {
            self.messages[j.index()].as_ref()
        } else {
            None
        }
    }

    /// The set `S(i,r)` of processes whose message arrived.
    #[must_use]
    pub fn heard_from(&self) -> IdSet {
        self.visible
    }

    /// The `(sender, message)` pairs that arrived, in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &'a M)> + '_ {
        self.visible
            .iter()
            .filter_map(move |j| self.messages[j.index()].as_ref().map(|m| (j, m)))
    }

    /// The messages that arrived, in sender-identifier order.
    pub fn values(&self) -> impl Iterator<Item = &'a M> + '_ {
        self.iter().map(|(_, m)| m)
    }
}

/// A process's verdict after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control<O> {
    /// Keep running; compute the next round's message.
    Continue,
    /// Commit to an output. The process keeps participating in subsequent
    /// rounds (the abstract loop runs forever) but its decision is final.
    Decide(O),
}

/// A process in an RRFD computation: computes a message per round and folds
/// in what the round delivered.
pub trait RoundProtocol {
    /// Per-round message type.
    type Msg: Clone;
    /// Decision value type.
    type Output: Clone;

    /// Computes the message `m_{i,r}` to emit at `round`.
    fn emit(&mut self, round: Round) -> Self::Msg;

    /// Consumes the round's delivery; may decide.
    fn deliver(&mut self, delivery: Delivery<'_, Self::Msg>) -> Control<Self::Output>;
}

/// The outcome of [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport<O> {
    /// `decisions[i]` is `Some` once `p_i` decided, with the round at which
    /// it did.
    pub decisions: Vec<Option<(O, Round)>>,
    /// The full fault pattern the detector produced.
    pub pattern: FaultPattern,
    /// Number of rounds executed.
    pub rounds_executed: u32,
}

impl<O: Clone> RunReport<O> {
    /// `true` when every process decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.decisions.iter().all(Option::is_some)
    }

    /// The decision values without their rounds, aligned by process.
    #[must_use]
    pub fn outputs(&self) -> Vec<Option<O>> {
        self.decisions
            .iter()
            .map(|d| d.as_ref().map(|(v, _)| v.clone()))
            .collect()
    }
}

/// Errors surfaced by [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The adversary produced an illegal round (caught by validation).
    Violation(PatternViolation),
    /// The protocol vector does not match the system size.
    WrongProcessCount {
        /// Number of protocol instances supplied.
        supplied: usize,
        /// System size expected.
        expected: usize,
    },
    /// `max_rounds` elapsed before every process decided.
    RoundLimitExceeded {
        /// The configured limit.
        max_rounds: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Violation(v) => write!(f, "adversary violation: {v}"),
            EngineError::WrongProcessCount { supplied, expected } => write!(
                f,
                "supplied {supplied} protocol instances for a system of {expected} processes"
            ),
            EngineError::RoundLimitExceeded { max_rounds } => {
                write!(f, "no full decision after {max_rounds} rounds")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PatternViolation> for EngineError {
    fn from(v: PatternViolation) -> Self {
        EngineError::Violation(v)
    }
}

/// Drives protocols against a fault detector under a model predicate.
///
/// # Examples
///
/// Echo protocols that decide on the set of processes heard from in round 1:
///
/// ```
/// use rrfd_core::{
///     AnyPattern, Control, Delivery, Engine, FaultDetector, FaultPattern, IdSet,
///     Round, RoundFaults, RoundProtocol, SystemSize,
/// };
///
/// struct Echo;
/// impl RoundProtocol for Echo {
///     type Msg = ();
///     type Output = IdSet;
///     fn emit(&mut self, _r: Round) {}
///     fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<IdSet> {
///         Control::Decide(d.heard_from())
///     }
/// }
///
/// struct Silent(SystemSize);
/// impl FaultDetector for Silent {
///     fn system_size(&self) -> SystemSize { self.0 }
///     fn next_round(&mut self, _r: Round, _h: &FaultPattern) -> RoundFaults {
///         RoundFaults::none(self.0)
///     }
/// }
///
/// let n = SystemSize::new(3).unwrap();
/// let report = Engine::new(n)
///     .run(vec![Echo, Echo, Echo], &mut Silent(n), &AnyPattern::new(n))
///     .unwrap();
/// assert!(report.all_decided());
/// assert_eq!(report.rounds_executed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    n: SystemSize,
    max_rounds: u32,
    obs: Obs,
    instance: u64,
}

/// Default bound on rounds before the engine reports
/// [`EngineError::RoundLimitExceeded`].
pub const DEFAULT_MAX_ROUNDS: u32 = 10_000;

/// How many of a run's most recent rounds its flight dump shows
/// ([`RoundCore::flight_dump`]).
pub const DEFAULT_FLIGHT_ROUNDS: usize = 8;

/// The start of every `rrfd-flight v1` dump: the format line and the
/// failure `reason`. On its own it is the dump of a run rejected before
/// its [`RoundCore`] existed.
#[must_use]
pub fn flight_header(reason: &str) -> String {
    format!("rrfd-flight v1\nreason: {reason}\n")
}

impl Engine {
    /// Creates an engine for a system of `n` processes with the default
    /// round limit.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        Engine {
            n,
            max_rounds: DEFAULT_MAX_ROUNDS,
            obs: Obs::noop(),
            instance: 0,
        }
    }

    /// Sets the maximum number of rounds before the run is abandoned.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Attaches an observability handle. Every run then records
    /// round-structured metrics — rounds, message counts, `|D(i,r)|` and
    /// `|S(i,r)|` size histograms, decisions, round latency — under the
    /// `rrfd_engine_*` names. Each run buffers its samples and spans and
    /// hands them to the recorder in one flush when it finishes (or is
    /// dropped), so a snapshot taken mid-run does not yet show that run.
    /// The default is [`Obs::noop`], which records nothing, allocates no
    /// buffer, and costs one branch per call site.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the instance id stamped on this engine's causal spans. Span
    /// and parent ids are pure functions of `(instance, round, process)`,
    /// so substrates that run many instances into one recorder (the batch
    /// pool) give each run a distinct id to keep their span trees
    /// disjoint. Defaults to 0.
    #[must_use]
    pub fn instance(mut self, instance: u64) -> Self {
        self.instance = instance;
        self
    }

    /// The system size.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// Runs the protocols to completion (all decided) or to the round limit.
    ///
    /// Each round: every process emits; the detector chooses `D(i,r)`; the
    /// engine validates the round against `model`; every process receives
    /// `m_{j,r}` for each `j ∉ D(i,r)` plus its suspicion set.
    ///
    /// # Errors
    ///
    /// * [`EngineError::WrongProcessCount`] if `protocols.len() != n`.
    /// * [`EngineError::Violation`] if the detector breaks well-formedness
    ///   or the model predicate.
    /// * [`EngineError::RoundLimitExceeded`] if some process never decides.
    ///
    /// # Panics
    ///
    /// Panics, as [`ProgramBatch::of`] does, when `model` does not compile.
    pub fn run<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: &mut D,
        model: &Q,
    ) -> Result<RunReport<P::Output>, EngineError>
    where
        P: RoundProtocol,
        D: FaultDetector + ?Sized,
        Q: RrfdPredicate + ?Sized,
    {
        self.start(protocols, detector, model)?
            .run_to_completion()
            .result
    }

    /// Like [`Engine::run`], but also renders the run's [`RunTrace`]
    /// ([`RoundCore::trace`]) — even (especially) when the run fails. The
    /// trace can be serialized, diffed, and replayed bit-for-bit through a
    /// replay detector, which is the debugging workflow for any failing
    /// run.
    pub fn run_traced<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: &mut D,
        model: &Q,
    ) -> (Result<RunReport<P::Output>, EngineError>, RunTrace)
    where
        P: RoundProtocol,
        D: FaultDetector + ?Sized,
        Q: RrfdPredicate + ?Sized,
    {
        match self.start(protocols, detector, model) {
            Ok(mut run) => {
                while run.step() == EngineStep::Running {}
                let trace = run.trace();
                (run.run_to_completion().result, trace)
            }
            Err(err) => (Err(err), RunTrace::aborted(self.n)),
        }
    }

    /// Starts a resumable run: the returned [`EngineRun`] executes one
    /// round per [`EngineRun::step`] call instead of running to
    /// completion. The batch pool steps its runs this way so that it can
    /// render a failed run's flight dump ([`EngineRun::flight_dump`])
    /// before dismantling it; since runs own all their state, one thread
    /// may also interleave any number of them.
    ///
    /// Unlike [`Engine::run`], the run owns its detector and model (use
    /// `&mut D` / `&Q` via the blanket impls to borrow instead).
    ///
    /// # Errors
    ///
    /// [`EngineError::WrongProcessCount`] if `protocols.len() != n`. All
    /// other errors surface through stepping.
    ///
    /// # Panics
    ///
    /// Panics, as [`ProgramBatch::of`] does, when `model` does not compile.
    pub fn start<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: D,
        model: Q,
    ) -> Result<EngineRun<P, D, Q>, EngineError>
    where
        P: RoundProtocol,
        D: FaultDetector,
        Q: RrfdPredicate,
    {
        self.start_with(protocols, detector, model, false, Vec::new(), None)
    }

    /// [`Engine::start`] for a run whose [`FinishedRun::trace`] is `Some`:
    /// [`EngineRun::trace`] rendered as the run finishes, byte-identical
    /// to what [`Engine::run_traced`] would have produced.
    ///
    /// # Errors
    ///
    /// As [`Engine::start`].
    pub fn start_traced<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: D,
        model: Q,
    ) -> Result<EngineRun<P, D, Q>, EngineError>
    where
        P: RoundProtocol,
        D: FaultDetector,
        Q: RrfdPredicate,
    {
        self.start_with(protocols, detector, model, true, Vec::new(), None)
    }

    /// [`Engine::start`] on a retired run's parts ([`FinishedRun`]): its
    /// emission-table buffer, so even the first round allocates nothing,
    /// and `batch`, which must be [`ProgramBatch::of`] `model` or of an
    /// equal model, so the run compiles nothing. Each lane of the batch
    /// pool starts its runs this way.
    ///
    /// # Errors
    ///
    /// As [`Engine::start`].
    pub fn start_recycled<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: D,
        model: Q,
        buffer: Vec<Option<P::Msg>>,
        mut batch: ProgramBatch,
    ) -> Result<EngineRun<P, D, Q>, EngineError>
    where
        P: RoundProtocol,
        D: FaultDetector,
        Q: RrfdPredicate,
    {
        batch.reset();
        self.start_with(protocols, detector, model, false, buffer, Some(batch))
    }

    /// Starts the [`RoundCore`] of a run of `processes` processes, for a
    /// transport of its own (the threaded runtime's).
    ///
    /// # Errors
    ///
    /// [`EngineError::WrongProcessCount`] if `processes != n`.
    ///
    /// # Panics
    ///
    /// Panics, as [`ProgramBatch::of`] does, when `model` does not compile.
    pub fn round_core<O, D, Q>(
        &self,
        processes: usize,
        detector: D,
        model: Q,
    ) -> Result<RoundCore<O, D, Q>, EngineError>
    where
        O: Clone,
        D: FaultDetector,
        Q: RrfdPredicate,
    {
        self.core_with(processes, detector, model, None)
    }

    fn core_with<O, D, Q>(
        &self,
        processes: usize,
        detector: D,
        model: Q,
        batch: Option<ProgramBatch>,
    ) -> Result<RoundCore<O, D, Q>, EngineError>
    where
        O: Clone,
        D: FaultDetector,
        Q: RrfdPredicate,
    {
        let n = self.n.get();
        if processes != n {
            return Err(EngineError::WrongProcessCount {
                supplied: processes,
                expected: n,
            });
        }
        let batch = batch.unwrap_or_else(|| ProgramBatch::of(&model));
        Ok(RoundCore {
            n: self.n,
            max_rounds: self.max_rounds,
            // Room for two rounds: each records two samples per process
            // plus three, and three spans plus one per decision.
            obs: RunObs::with_capacity(self.obs.clone(), 2 * (2 * n + 3), 2 * 3 + n + 1),
            instance: self.instance,
            run_start_ns: self.obs.now_ns(),
            deliver_start_ns: 0,
            round_hook: None,
            detector,
            model,
            batch,
            pattern: FaultPattern::new(self.n),
            rejected: None,
            decisions: vec![None; n],
            undecided: n,
            next_round: 1,
            done: None,
        })
    }

    fn start_with<P, D, Q>(
        &self,
        protocols: Vec<P>,
        detector: D,
        model: Q,
        traced: bool,
        mut buffer: Vec<Option<P::Msg>>,
        batch: Option<ProgramBatch>,
    ) -> Result<EngineRun<P, D, Q>, EngineError>
    where
        P: RoundProtocol,
        D: FaultDetector,
        Q: RrfdPredicate,
    {
        let core = self.core_with(protocols.len(), detector, model, batch)?;
        buffer.clear();
        buffer.reserve(self.n.get());
        Ok(EngineRun {
            core,
            protocols,
            messages: buffer,
            traced,
        })
    }
}

/// A per-round observation callback installed on a run's [`RoundCore`]
/// (on an [`EngineRun`], via [`EngineRun::set_round_hook`]): called once
/// per executed round with the validated (or, on the violation path,
/// violating) suspicion sets — exactly the rounds the run's [`RunTrace`]
/// shows. This is the seam the conformance monitor hangs off: the
/// batch pool and the threaded runtime feed each run's monitor through it
/// without the engine knowing what a predicate zoo is.
pub struct RoundHook(Box<dyn FnMut(&RoundFaults) + Send>);

impl RoundHook {
    /// Wraps `hook` as a round observation callback.
    pub fn new<F: FnMut(&RoundFaults) + Send + 'static>(hook: F) -> Self {
        RoundHook(Box::new(hook))
    }
}

impl fmt::Debug for RoundHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RoundHook(..)")
    }
}

/// What one [`EngineRun::step`] call reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStep {
    /// A round executed and the run can continue: not every process has
    /// decided and no terminal condition was hit.
    Running,
    /// The run is terminal — all processes decided, the adversary violated
    /// the model, or the round limit elapsed. Stepping again is a no-op
    /// that reports `Finished` again; collect the result with
    /// [`EngineRun::run_to_completion`].
    Finished,
}

/// A finished [`EngineRun`], dismantled into its products.
#[derive(Debug)]
pub struct FinishedRun<O: Clone, M> {
    /// The run's outcome, exactly as [`Engine::run`] would report it.
    pub result: Result<RunReport<O>, EngineError>,
    /// The run's trace ([`EngineRun::trace`]) when it was started with
    /// [`Engine::start_traced`]; `None` otherwise.
    pub trace: Option<RunTrace>,
    /// The run's emission-table buffer, cleared, for reuse via
    /// [`Engine::start_recycled`].
    pub buffer: Vec<Option<M>>,
    /// The run's compiled model, for reuse via [`Engine::start_recycled`]
    /// by a run of an equal model.
    pub batch: ProgramBatch,
}

/// The round semantics of one run, whatever carries its messages: the
/// detector call, admission, the [`RoundHook`], the fault pattern,
/// first-decision-wins, the round limit, the all-decided test and the
/// `rrfd_engine_*` metrics and spans. Its record — the fault pattern,
/// the rejected round, the first decisions and the result — is the one
/// record of the run: its [`RunTrace`] ([`RoundCore::trace`]) and flight
/// dump ([`RoundCore::flight_dump`]) are rendered from it.
///
/// A transport drives each round as [`RoundCore::enter_round`] → (it
/// gathers the emissions) → [`RoundCore::open_round`] →
/// [`RoundCore::detect`] → [`RoundCore::admit`] → (it delivers) →
/// [`RoundCore::close_round`], and calls [`RoundCore::decide`] as it
/// learns of decisions.
#[derive(Debug)]
pub struct RoundCore<O, D, Q> {
    n: SystemSize,
    max_rounds: u32,
    /// The run's buffered handle: every sample and span of the run
    /// reaches the recorder in one flush when the run finishes (or is
    /// dropped unfinished).
    obs: RunObs,
    instance: u64,
    run_start_ns: u64,
    deliver_start_ns: u64,
    round_hook: Option<RoundHook>,
    detector: D,
    model: Q,
    /// The model's compiled program and the run's history registers:
    /// each round is admitted in `O(1)`, however long the run.
    batch: ProgramBatch,
    /// The admitted rounds; moved into the report once every process
    /// decided.
    pattern: FaultPattern,
    /// The round the model rejected, kept as evidence.
    rejected: Option<RoundFaults>,
    /// First decisions; moved into the report once every process decided.
    decisions: Vec<Option<(O, Round)>>,
    undecided: usize,
    next_round: u32,
    done: Option<Result<RunReport<O>, EngineError>>,
}

impl<O, D, Q> RoundCore<O, D, Q>
where
    O: Clone,
    D: FaultDetector,
    Q: RrfdPredicate,
{
    /// Installs (or replaces) the per-round observation hook; see
    /// [`RoundHook`].
    pub fn set_round_hook(&mut self, hook: RoundHook) {
        self.round_hook = Some(hook);
    }

    /// Opens the span of the next round, whose latency and emit phase
    /// then cover the transport's gather.
    #[must_use]
    pub fn enter_round(&self) -> RoundSpan {
        self.obs.round_enter(Labels::round(self.next_round))
    }

    /// Opens the next round once its emissions are in hand — or, when
    /// every process decided or the round limit is reached, finishes the
    /// run and returns `None` (as it does once the run finished).
    pub fn open_round(&mut self) -> Option<Round> {
        if self.done.is_some() || self.settle() {
            return None;
        }
        let max_rounds = self.max_rounds;
        if self.next_round > max_rounds {
            self.finish(Some(Err(EngineError::RoundLimitExceeded { max_rounds })));
            return None;
        }
        Some(Round::new(self.next_round))
    }

    /// Closes the open round's emit phase — all `n` messages are emitted
    /// — and asks the detector for its suspicion sets `D(·, r)`.
    pub fn detect(&mut self, span: &RoundSpan) -> RoundFaults {
        let round_no = self.next_round;
        let labels = Labels::round(round_no);
        self.obs.add(ROUNDS, labels, 1);
        self.obs.add(MESSAGES_EMITTED, labels, self.n.get() as u64);
        self.obs.close_span(
            self.instance,
            SpanKind::Phase(SpanPhase::Emit),
            round_no,
            None,
            span.start_ns(),
        );
        self.detector
            .next_round(Round::new(round_no), &self.pattern)
    }

    /// Validates the round's suspicion sets and opens its deliver phase.
    /// A violating round is kept as evidence (record, hook), the run
    /// finishes, and `false` tells the transport not to deliver.
    pub fn admit(&mut self, faults: &RoundFaults, span: RoundSpan) -> bool {
        if let Err(violation) = validate_round(&self.model, &mut self.batch, faults) {
            let round_no = self.next_round;
            self.obs.add(VIOLATIONS, Labels::round(round_no), 1);
            if let Some(RoundHook(hook)) = self.round_hook.as_mut() {
                hook(faults);
            }
            self.end_round_span(round_no, span);
            self.rejected = Some(faults.clone());
            self.finish(Some(Err(EngineError::Violation(violation))));
            return false;
        }
        self.deliver_start_ns = self.obs.now_ns();
        true
    }

    /// Records `me`'s decision `value`, reached in `round`: the first one
    /// wins (`true`), later ones are ignored — "commit to outputs".
    pub fn decide(&mut self, me: ProcessId, value: O, round: Round) -> bool {
        let slot = &mut self.decisions[me.index()];
        if slot.is_some() {
            return false;
        }
        *slot = Some((value, round));
        self.undecided -= 1;
        self.obs
            .add(DECISIONS, Labels::process_round(me.index(), round.get()), 1);
        self.obs.close_span(
            self.instance,
            SpanKind::Phase(SpanPhase::Decide),
            round.get(),
            Some(me.index() as u32),
            self.deliver_start_ns,
        );
        true
    }

    /// Closes the delivered round — metrics, hook, pattern, span —
    /// and finishes the run when every process has decided.
    pub fn close_round(&mut self, faults: RoundFaults, span: RoundSpan) {
        let round_no = self.next_round;
        self.obs.close_span(
            self.instance,
            SpanKind::Phase(SpanPhase::Deliver),
            round_no,
            None,
            self.deliver_start_ns,
        );
        // Every process emits every round, so p_i heard exactly
        // S(i,r) = S − D(i,r).
        if self.obs.is_enabled() {
            for p in self.n.processes() {
                let labels = Labels::process_round(p.index(), round_no);
                let suspected = faults.of(p);
                let heard = suspected.complement(self.n).len() as u64;
                self.obs.add(MESSAGES_RECEIVED, labels, heard);
                self.obs
                    .observe(SUSPICION_SIZE, labels, suspected.len() as u64);
            }
        }
        if let Some(RoundHook(hook)) = self.round_hook.as_mut() {
            hook(&faults);
        }
        self.pattern.push(faults);
        self.end_round_span(round_no, span);
        self.next_round = round_no + 1;
        self.settle();
    }

    /// The run's result once finished; `None` while still running.
    #[must_use]
    pub fn outcome(&self) -> Option<&Result<RunReport<O>, EngineError>> {
        self.done.as_ref()
    }

    /// Renders the run's post-mortem `rrfd-flight v1` dump: the
    /// [`flight_header`] with `reason`, then its last
    /// [`DEFAULT_FLIGHT_ROUNDS`] rounds — on a violation, the rejected
    /// round last — each as a `round r:` line followed by one
    /// `D(p_i) = {…}` line per non-empty suspicion set and one
    /// `p_i decided` line per decision reached in that round. A run that
    /// decided has handed its rounds to its report and renders none.
    #[must_use]
    pub fn flight_dump(&self, reason: &str) -> String {
        let mut out = flight_header(reason);
        let rounds = self.pattern.rounds() + usize::from(self.rejected.is_some());
        let rejected = self
            .rejected
            .as_ref()
            .map(|faults| (Round::new(self.next_round), faults));
        let shown = self.pattern.iter().chain(rejected);
        for (round, faults) in shown.skip(rounds.saturating_sub(DEFAULT_FLIGHT_ROUNDS)) {
            let _ = writeln!(out, "round {round}:");
            for (p, suspected) in faults.iter() {
                if !suspected.is_empty() {
                    let _ = writeln!(out, "  D({p}) = {suspected}");
                }
            }
            for (i, decision) in self.decisions.iter().enumerate() {
                if matches!(decision, Some((_, at)) if *at == round) {
                    let _ = writeln!(out, "  p{i} decided");
                }
            }
        }
        out
    }

    /// Renders the run's `rrfd-trace v1` record from the core's own: an
    /// `s` line of `S ∖ D(i,r)` per admitted round (every process emits
    /// every round), the rejected round last with empty heard sets, each
    /// process's first decision round, and the outcome the result maps
    /// to — [`TraceOutcome::Aborted`] while the run is unfinished.
    #[must_use]
    pub fn trace(&self) -> RunTrace {
        self.trace_of(self.done.as_ref())
    }

    /// [`RoundCore::trace`] with `done` standing for the run's result,
    /// which the report holds with the pattern and decisions once every
    /// process decided.
    fn trace_of(&self, done: Option<&Result<RunReport<O>, EngineError>>) -> RunTrace {
        let (pattern, decisions, outcome) = match done {
            Some(Ok(report)) => (
                &report.pattern,
                &report.decisions,
                TraceOutcome::Decided {
                    rounds_executed: report.rounds_executed,
                },
            ),
            Some(Err(error)) => (
                &self.pattern,
                &self.decisions,
                match error {
                    EngineError::Violation(violation) => TraceOutcome::Violation(violation.clone()),
                    EngineError::RoundLimitExceeded { max_rounds } => TraceOutcome::RoundLimit {
                        max_rounds: *max_rounds,
                    },
                    EngineError::WrongProcessCount { .. } => TraceOutcome::Aborted,
                },
            ),
            None => (&self.pattern, &self.decisions, TraceOutcome::Aborted),
        };
        let decision_rounds = decisions.iter().map(|d| d.as_ref().map(|&(_, r)| r));
        RunTrace::from_record(
            self.n,
            pattern.iter().map(|(_, faults)| faults),
            self.rejected.as_ref(),
            decision_rounds.collect(),
            outcome,
        )
    }

    /// Dismantles the run into its result. A run its transport left
    /// unfinished ends here, with result `None`.
    pub fn into_outcome(mut self) -> Option<Result<RunReport<O>, EngineError>> {
        if self.done.is_none() {
            self.finish(None);
        }
        self.done
    }

    /// Finishes the run with a report when every process has decided.
    fn settle(&mut self) -> bool {
        if self.undecided > 0 {
            return false;
        }
        let rounds_executed = self.next_round - 1;
        let report = RunReport {
            decisions: std::mem::take(&mut self.decisions),
            pattern: std::mem::replace(&mut self.pattern, FaultPattern::new(self.n)),
            rounds_executed,
        };
        self.finish(Some(Ok(report)));
        true
    }

    /// Ends round `round_no`: its latency observation and its span share
    /// one clock read.
    fn end_round_span(&mut self, round_no: u32, span: RoundSpan) {
        let end_ns = self.obs.round_exit(ROUND_LATENCY, span);
        self.obs.record_span(SpanRecord {
            instance: self.instance,
            kind: SpanKind::Round,
            round: round_no,
            process: None,
            start_ns: span.start_ns(),
            end_ns,
        });
    }

    /// Ends the run: closes its span and flushes its samples; `result` is
    /// `None` for an aborted run.
    fn finish(&mut self, result: Option<Result<RunReport<O>, EngineError>>) {
        self.obs
            .close_span(self.instance, SpanKind::Run, 0, None, self.run_start_ns);
        self.obs.flush();
        self.done = result;
    }
}

/// A resumable run: [`Engine::start`]'s handle, executing one round per
/// [`EngineRun::step`] call.
///
/// It is a [`RoundCore`] — *the* round semantics, which the threaded
/// runtime drives too — plus the processes and the emission table.
/// [`Engine::run`] and [`Engine::run_traced`] are thin loops over this
/// type, so a run stepped to completion is decision- and trace-identical
/// to a `run` call with the same inputs (the batch pool's differential
/// suite pins this).
#[derive(Debug)]
pub struct EngineRun<P: RoundProtocol, D, Q> {
    core: RoundCore<P::Output, D, Q>,
    protocols: Vec<P>,
    // The round's emission table, reused across rounds so steady-state
    // rounds are allocation-free. Every recipient borrows this one table
    // through its `Delivery` view — no per-recipient clones.
    messages: Vec<Option<P::Msg>>,
    /// Started with [`Engine::start_traced`]: the finished run carries
    /// its trace.
    traced: bool,
}

impl<P, D, Q> EngineRun<P, D, Q>
where
    P: RoundProtocol,
    D: FaultDetector,
    Q: RrfdPredicate,
{
    /// The system size of the run.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.core.n
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn rounds_executed(&self) -> u32 {
        self.core.next_round - 1
    }

    /// `true` once the run hit a terminal state.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.core.done.is_some()
    }

    /// Installs (or replaces) the per-round observation hook; see
    /// [`RoundHook`].
    pub fn set_round_hook(&mut self, hook: RoundHook) {
        self.core.set_round_hook(hook);
    }

    /// Overrides the instance id stamped on this run's causal spans
    /// (normally inherited from [`Engine::instance`]). The pool calls this
    /// per instance so the span trees of its runs, which share one engine
    /// per lane, stay disjoint.
    pub fn set_instance(&mut self, instance: u64) {
        self.core.instance = instance;
    }

    /// Executes one round (emit → detect/validate → deliver), or reports
    /// [`EngineStep::Finished`] without executing anything when the run is
    /// already terminal.
    pub fn step(&mut self) -> EngineStep {
        let span = self.core.enter_round();
        let Some(round) = self.core.open_round() else {
            return EngineStep::Finished;
        };

        // Emit phase: one message per emitter, shared by all recipients.
        self.messages.clear();
        self.messages
            .extend(self.protocols.iter_mut().map(|p| Some(p.emit(round))));

        // The detector chooses and the core validates D(·, r).
        let faults = self.core.detect(&span);
        if !self.core.admit(&faults, span) {
            return EngineStep::Finished;
        }

        // Receive phase: p_i sees m_{j,r} iff j ∉ D(i,r), through a
        // masked view of the shared table.
        for (i, protocol) in self.protocols.iter_mut().enumerate() {
            let me = ProcessId::new(i);
            let delivery = Delivery::new(round, me, &self.messages, faults.of(me));
            if let Control::Decide(value) = protocol.deliver(delivery) {
                self.core.decide(me, value, round);
            }
        }
        self.core.close_round(faults, span);

        if self.is_finished() {
            EngineStep::Finished
        } else {
            EngineStep::Running
        }
    }

    /// The run's result once finished; `None` while still running.
    #[must_use]
    pub fn outcome(&self) -> Option<&Result<RunReport<P::Output>, EngineError>> {
        self.core.outcome()
    }

    /// The run's post-mortem flight dump; see [`RoundCore::flight_dump`].
    #[must_use]
    pub fn flight_dump(&self, reason: &str) -> String {
        self.core.flight_dump(reason)
    }

    /// The run's trace so far; see [`RoundCore::trace`].
    #[must_use]
    pub fn trace(&self) -> RunTrace {
        self.core.trace()
    }

    /// Steps the run until terminal (a no-op when already finished) and
    /// dismantles it into result, trace (for a run started with
    /// [`Engine::start_traced`]), and the reusable emission-table buffer
    /// and compiled model.
    pub fn run_to_completion(mut self) -> FinishedRun<P::Output, P::Msg> {
        loop {
            if let Some(result) = self.core.done.take() {
                let trace = self.traced.then(|| self.core.trace_of(Some(&result)));
                self.messages.clear();
                return FinishedRun {
                    result,
                    trace,
                    buffer: self.messages,
                    batch: self.core.batch,
                };
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    /// Decides after a fixed number of rounds, recording what it heard.
    struct DecideAfter {
        rounds: u32,
        heard: Vec<IdSet>,
    }

    impl DecideAfter {
        fn new(rounds: u32) -> Self {
            DecideAfter {
                rounds,
                heard: Vec::new(),
            }
        }
    }

    impl RoundProtocol for DecideAfter {
        type Msg = u32;
        type Output = usize;

        fn emit(&mut self, round: Round) -> u32 {
            round.get()
        }

        fn deliver(&mut self, d: Delivery<'_, u32>) -> Control<usize> {
            self.heard.push(d.heard_from());
            if d.round.get() >= self.rounds {
                Control::Decide(self.heard.len())
            } else {
                Control::Continue
            }
        }
    }

    struct FixedDetector {
        n: SystemSize,
        per_round: Vec<RoundFaults>,
    }

    impl FaultDetector for FixedDetector {
        fn system_size(&self) -> SystemSize {
            self.n
        }
        fn next_round(&mut self, round: Round, _h: &FaultPattern) -> RoundFaults {
            self.per_round
                .get(round.index())
                .cloned()
                .unwrap_or_else(|| RoundFaults::none(self.n))
        }
    }

    use crate::predicate::AnyPattern;

    #[test]
    fn runs_to_decision_and_reports_rounds() {
        let size = n(4);
        let protos: Vec<_> = (0..4).map(|_| DecideAfter::new(3)).collect();
        let mut det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let report = Engine::new(size)
            .run(protos, &mut det, &AnyPattern::new(size))
            .unwrap();
        assert!(report.all_decided());
        assert_eq!(report.rounds_executed, 3);
        assert_eq!(report.pattern.rounds(), 3);
        for d in report.outputs() {
            assert_eq!(d, Some(3));
        }
    }

    #[test]
    fn suspected_messages_are_withheld() {
        let size = n(3);
        // Round 1: p0 suspects p2.
        let mut r1 = RoundFaults::none(size);
        r1.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
        let mut det = FixedDetector {
            n: size,
            per_round: vec![r1],
        };

        struct Observe(SystemSize);
        impl RoundProtocol for Observe {
            type Msg = ();
            type Output = IdSet;
            fn emit(&mut self, _r: Round) {}
            fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<IdSet> {
                // Covering property: heard ∪ suspected = S.
                assert_eq!(d.heard_from().union(d.suspected), IdSet::universe(self.0));
                Control::Decide(d.heard_from())
            }
        }

        let report = Engine::new(size)
            .run(
                vec![Observe(size), Observe(size), Observe(size)],
                &mut det,
                &AnyPattern::new(size),
            )
            .unwrap();
        let outs = report.outputs();
        let p0_heard = outs[0].unwrap();
        assert!(!p0_heard.contains(ProcessId::new(2)));
        assert!(p0_heard.contains(ProcessId::new(0)));
        let p1_heard = outs[1].unwrap();
        assert_eq!(p1_heard, IdSet::universe(size));
    }

    #[test]
    fn wrong_process_count_is_reported() {
        let size = n(3);
        let mut det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let err = Engine::new(size)
            .run(vec![DecideAfter::new(1)], &mut det, &AnyPattern::new(size))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::WrongProcessCount {
                supplied: 1,
                expected: 3
            }
        );
    }

    #[test]
    fn ill_formed_adversary_is_caught() {
        let size = n(3);
        let mut r1 = RoundFaults::none(size);
        r1.set(ProcessId::new(1), IdSet::universe(size));
        let mut det = FixedDetector {
            n: size,
            per_round: vec![r1],
        };
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(1)).collect();
        let err = Engine::new(size)
            .run(protos, &mut det, &AnyPattern::new(size))
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Violation(PatternViolation::IllFormed { .. })
        ));
    }

    #[test]
    fn round_limit_is_enforced() {
        let size = n(2);
        let mut det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let protos: Vec<_> = (0..2).map(|_| DecideAfter::new(100)).collect();
        let err = Engine::new(size)
            .max_rounds(5)
            .run(protos, &mut det, &AnyPattern::new(size))
            .unwrap_err();
        assert_eq!(err, EngineError::RoundLimitExceeded { max_rounds: 5 });
    }

    #[test]
    fn run_traced_records_rounds_heard_and_decisions() {
        use crate::trace::TraceOutcome;

        let size = n(3);
        let mut r1 = RoundFaults::none(size);
        r1.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
        let mut det = FixedDetector {
            n: size,
            per_round: vec![r1],
        };
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(2)).collect();
        let (result, trace) =
            Engine::new(size).run_traced(protos, &mut det, &AnyPattern::new(size));
        let report = result.unwrap();

        assert_eq!(trace.pattern(), report.pattern);
        assert_eq!(
            trace.outcome(),
            &TraceOutcome::Decided { rounds_executed: 2 }
        );
        // Round 1: p0 suspected p2, so its heard-set omits p2 — the
        // covering property S(i,r) ∪ D(i,r) = S, recorded explicitly.
        let heard = &trace.rounds()[0].heard;
        assert!(!heard[0].contains(ProcessId::new(2)));
        assert_eq!(heard[1], IdSet::universe(size));
        // Everyone decided at round 2.
        for p in size.processes() {
            assert_eq!(trace.decision_rounds()[p.index()], Some(Round::new(2)));
        }
        // The trace survives a serialize → parse round trip.
        let reparsed: crate::trace::RunTrace = trace.to_string().parse().unwrap();
        assert_eq!(reparsed, trace);
    }

    #[test]
    fn run_traced_keeps_the_violating_round() {
        use crate::trace::TraceOutcome;

        let size = n(3);
        let mut bad = RoundFaults::none(size);
        bad.set(ProcessId::new(1), IdSet::universe(size));
        let mut det = FixedDetector {
            n: size,
            per_round: vec![RoundFaults::none(size), bad.clone()],
        };
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(5)).collect();
        let (result, trace) =
            Engine::new(size).run_traced(protos, &mut det, &AnyPattern::new(size));
        assert!(matches!(result, Err(EngineError::Violation(_))));
        // Both the clean round and the offending round are recorded.
        assert_eq!(trace.rounds().len(), 2);
        assert_eq!(trace.rounds()[1].faults, bad);
        assert!(matches!(trace.outcome(), TraceOutcome::Violation(_)));
    }

    #[test]
    fn run_traced_aborts_on_wrong_process_count() {
        use crate::trace::TraceOutcome;

        let size = n(3);
        let mut det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let (result, trace) = Engine::new(size).run_traced(
            vec![DecideAfter::new(1)],
            &mut det,
            &AnyPattern::new(size),
        );
        assert!(matches!(result, Err(EngineError::WrongProcessCount { .. })));
        assert_eq!(trace.outcome(), &TraceOutcome::Aborted);
        assert!(trace.rounds().is_empty());
    }

    #[test]
    fn instrumented_run_records_round_metrics() {
        use rrfd_obs::{names, Labels, Obs};

        let size = n(3);
        let mut r1 = RoundFaults::none(size);
        r1.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
        let mut det = FixedDetector {
            n: size,
            per_round: vec![r1],
        };
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(2)).collect();
        let obs = Obs::logical();
        let report = Engine::new(size)
            .obs(obs.clone())
            .run(protos, &mut det, &AnyPattern::new(size))
            .unwrap();
        assert!(report.all_decided());

        let snap = obs.snapshot();
        // Two rounds ran, three messages emitted per round.
        assert_eq!(snap.counter_total(names::ENGINE_ROUNDS), 2);
        assert_eq!(snap.counter_total(names::ENGINE_MESSAGES_EMITTED), 6);
        // p0 heard 2 of 3 in round 1 (it suspected p2); everyone else 3.
        assert_eq!(
            snap.get(names::ENGINE_MESSAGES_RECEIVED, Labels::process_round(0, 1)),
            Some(&rrfd_obs::MetricValue::Counter(2))
        );
        assert_eq!(
            snap.counter_total(names::ENGINE_MESSAGES_RECEIVED),
            2 + 3 + 3 + 9
        );
        // All three decided at round 2.
        assert_eq!(snap.counter_total(names::ENGINE_DECISIONS), 3);
        for p in 0..3usize {
            assert_eq!(
                snap.get(names::ENGINE_DECISIONS, Labels::process_round(p, 2)),
                Some(&rrfd_obs::MetricValue::Counter(1))
            );
        }
        // Round latency was observed once per round.
        let rounds_with_latency = snap
            .entries()
            .iter()
            .filter(|e| e.metric == names::ENGINE_ROUND_LATENCY)
            .count();
        assert_eq!(rounds_with_latency, 2);
        assert_eq!(snap.counter_total(names::ENGINE_VIOLATIONS), 0);
    }

    #[test]
    fn violations_are_counted() {
        use rrfd_obs::{names, Obs};

        let size = n(3);
        let mut bad = RoundFaults::none(size);
        bad.set(ProcessId::new(1), IdSet::universe(size));
        let mut det = FixedDetector {
            n: size,
            per_round: vec![bad],
        };
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(5)).collect();
        let obs = Obs::logical();
        let (result, _trace) =
            Engine::new(size)
                .obs(obs.clone())
                .run_traced(protos, &mut det, &AnyPattern::new(size));
        assert!(matches!(result, Err(EngineError::Violation(_))));
        assert_eq!(obs.snapshot().counter_total(names::ENGINE_VIOLATIONS), 1);
    }

    #[test]
    fn stepped_run_matches_run_round_for_round() {
        let size = n(4);
        let mut r1 = RoundFaults::none(size);
        r1.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
        let per_round = vec![r1];
        let protos = || -> Vec<_> { (0..4).map(|_| DecideAfter::new(3)).collect() };

        let mut det = FixedDetector {
            n: size,
            per_round: per_round.clone(),
        };
        let reference = Engine::new(size)
            .run(protos(), &mut det, &AnyPattern::new(size))
            .unwrap();

        let det = FixedDetector { n: size, per_round };
        let mut run = Engine::new(size)
            .start(protos(), det, AnyPattern::new(size))
            .unwrap();
        assert!(!run.is_finished());
        assert_eq!(run.step(), EngineStep::Running);
        assert_eq!(run.rounds_executed(), 1);
        assert!(run.outcome().is_none());
        assert_eq!(run.step(), EngineStep::Running);
        assert_eq!(run.step(), EngineStep::Finished);
        assert!(run.is_finished());
        // Stepping a finished run is a no-op.
        assert_eq!(run.step(), EngineStep::Finished);
        let finished = run.run_to_completion();
        let report = finished.result.unwrap();
        assert_eq!(report.rounds_executed, reference.rounds_executed);
        assert_eq!(report.pattern, reference.pattern);
        assert_eq!(report.decisions, reference.decisions);
        assert!(finished.trace.is_none(), "untraced start captures nothing");
        assert!(finished.buffer.is_empty() && finished.buffer.capacity() >= 4);
    }

    #[test]
    fn start_traced_stepping_matches_run_traced_byte_for_byte() {
        let size = n(3);
        let mut r1 = RoundFaults::none(size);
        r1.set(ProcessId::new(1), IdSet::singleton(ProcessId::new(0)));
        let per_round = vec![r1];
        let protos = || -> Vec<_> { (0..3).map(|_| DecideAfter::new(2)).collect() };

        let mut det = FixedDetector {
            n: size,
            per_round: per_round.clone(),
        };
        let (reference, reference_trace) =
            Engine::new(size).run_traced(protos(), &mut det, &AnyPattern::new(size));

        let det = FixedDetector { n: size, per_round };
        let run = Engine::new(size)
            .start_traced(protos(), det, AnyPattern::new(size))
            .unwrap();
        let finished = run.run_to_completion();
        assert_eq!(
            finished.result.unwrap().decisions,
            reference.unwrap().decisions
        );
        let trace = finished.trace.expect("trace was armed");
        assert_eq!(trace.to_string(), reference_trace.to_string());
    }

    #[test]
    fn stepped_violation_and_round_limit_are_terminal() {
        let size = n(3);
        let mut bad = RoundFaults::none(size);
        bad.set(ProcessId::new(1), IdSet::universe(size));
        let det = FixedDetector {
            n: size,
            per_round: vec![bad],
        };
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(5)).collect();
        let mut run = Engine::new(size)
            .start(protos, det, AnyPattern::new(size))
            .unwrap();
        assert_eq!(run.step(), EngineStep::Finished);
        assert!(matches!(
            run.run_to_completion().result,
            Err(EngineError::Violation(_))
        ));

        let det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(100)).collect();
        let run = Engine::new(size)
            .max_rounds(2)
            .start(protos, det, AnyPattern::new(size))
            .unwrap();
        assert_eq!(
            run.run_to_completion().result,
            Err(EngineError::RoundLimitExceeded { max_rounds: 2 })
        );
    }

    #[test]
    fn recycled_buffer_is_reused_across_runs() {
        let size = n(2);
        let protos = || -> Vec<_> { (0..2).map(|_| DecideAfter::new(1)).collect() };
        let det = || FixedDetector {
            n: size,
            per_round: vec![],
        };
        let engine = Engine::new(size);
        let first = engine
            .start(protos(), det(), AnyPattern::new(size))
            .unwrap()
            .run_to_completion();
        let capacity = first.buffer.capacity();
        let ptr = first.buffer.as_ptr();
        assert!(capacity >= 2);
        let second = engine
            .start_recycled(
                protos(),
                det(),
                AnyPattern::new(size),
                first.buffer,
                first.batch,
            )
            .unwrap()
            .run_to_completion();
        assert!(second.result.unwrap().all_decided());
        // Same allocation, recycled through the whole second run.
        assert_eq!(second.buffer.as_ptr(), ptr);
        assert_eq!(second.buffer.capacity(), capacity);
    }

    #[test]
    fn first_decision_is_final() {
        let size = n(2);

        /// Decides a different value every round; only the first must stick.
        struct Flaky;
        impl RoundProtocol for Flaky {
            type Msg = ();
            type Output = u32;
            fn emit(&mut self, _r: Round) {}
            fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<u32> {
                Control::Decide(d.round.get())
            }
        }

        /// Never decides until round 3, forcing extra rounds for everyone.
        struct Late;
        impl RoundProtocol for Late {
            type Msg = ();
            type Output = u32;
            fn emit(&mut self, _r: Round) {}
            fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<u32> {
                if d.round.get() >= 3 {
                    Control::Decide(99)
                } else {
                    Control::Continue
                }
            }
        }

        // Heterogeneous protocols need a common type; box them via an enum.
        enum Either {
            Flaky(Flaky),
            Late(Late),
        }
        impl RoundProtocol for Either {
            type Msg = ();
            type Output = u32;
            fn emit(&mut self, r: Round) {
                match self {
                    Either::Flaky(p) => p.emit(r),
                    Either::Late(p) => p.emit(r),
                }
            }
            fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<u32> {
                match self {
                    Either::Flaky(p) => p.deliver(d),
                    Either::Late(p) => p.deliver(d),
                }
            }
        }

        let mut det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let report = Engine::new(size)
            .run(
                vec![Either::Flaky(Flaky), Either::Late(Late)],
                &mut det,
                &AnyPattern::new(size),
            )
            .unwrap();
        let d0 = report.decisions[0].unwrap();
        assert_eq!(d0, (1, Round::new(1)), "first decision must be kept");
        assert_eq!(report.decisions[1].unwrap().0, 99);
        assert_eq!(report.rounds_executed, 3);
    }

    #[test]
    fn spans_record_the_causal_tree_per_round() {
        use rrfd_obs::{SpanKind, SpanPhase};

        let size = n(3);
        let obs = Obs::logical();
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(2)).collect();
        let mut det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        Engine::new(size)
            .obs(obs.clone())
            .instance(7)
            .run(protos, &mut det, &AnyPattern::new(size))
            .unwrap();

        let spans = obs.spans();
        // 2 rounds × (round + emit + deliver) + 3 decide spans + 1 run span.
        assert_eq!(spans.len(), 2 * 3 + 3 + 1);
        assert!(spans.iter().all(|s| s.instance == 7));
        let runs: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Run).collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].parent_id(), 0, "the run span is the root");
        for s in &spans {
            match s.kind {
                SpanKind::Run => {}
                SpanKind::Round => assert_eq!(s.parent_id(), runs[0].id()),
                SpanKind::Phase(_) => {
                    let round = spans
                        .iter()
                        .find(|r| r.kind == SpanKind::Round && r.round == s.round)
                        .expect("every phase span has its round span");
                    assert_eq!(s.parent_id(), round.id());
                }
            }
            assert!(s.end_ns >= s.start_ns);
        }
        let decides: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Phase(SpanPhase::Decide))
            .collect();
        assert_eq!(decides.len(), 3);
        assert!(decides.iter().all(|s| s.round == 2 && s.process.is_some()));
    }

    #[test]
    fn noop_obs_records_no_spans() {
        let size = n(2);
        let engine = Engine::new(size);
        let protos: Vec<_> = (0..2).map(|_| DecideAfter::new(1)).collect();
        let mut det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        engine
            .run(protos, &mut det, &AnyPattern::new(size))
            .unwrap();
        assert!(engine.obs.spans().is_empty());
    }

    #[test]
    fn runs_flush_their_samples_when_they_finish() {
        use rrfd_obs::names;

        let size = n(3);
        let obs = Obs::logical();
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(2)).collect();
        let det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let mut run = Engine::new(size)
            .obs(obs.clone())
            .start(protos, det, AnyPattern::new(size))
            .unwrap();
        assert_eq!(run.step(), EngineStep::Running);
        // Mid-run, the round sits in the run's buffer, not the recorder.
        assert!(run.core.obs.pending() > 0);
        assert_eq!(obs.snapshot().counter_total(names::ENGINE_ROUNDS), 0);
        assert!(obs.spans().is_empty());
        assert_eq!(run.step(), EngineStep::Finished);
        assert_eq!(run.core.obs.pending(), 0);
        assert_eq!(obs.snapshot().counter_total(names::ENGINE_ROUNDS), 2);
        assert_eq!(obs.spans().len(), 2 * 3 + 3 + 1);
    }

    #[test]
    fn a_run_dropped_mid_flight_still_reports_its_rounds() {
        use rrfd_obs::{names, SpanKind};

        let size = n(3);
        let obs = Obs::logical();
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(5)).collect();
        let det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let mut run = Engine::new(size)
            .obs(obs.clone())
            .start(protos, det, AnyPattern::new(size))
            .unwrap();
        assert_eq!(run.step(), EngineStep::Running);
        assert_eq!(run.step(), EngineStep::Running);
        drop(run);
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total(names::ENGINE_ROUNDS), 2);
        assert_eq!(snap.counter_total(names::ENGINE_MESSAGES_EMITTED), 6);
        assert_eq!(snap.counter_total(names::ENGINE_MESSAGES_RECEIVED), 18);
        let spans = obs.spans();
        // Two rounds of (round + emit + deliver); no run span, since the
        // run never finished.
        assert_eq!(spans.len(), 2 * 3);
        assert!(spans.iter().all(|s| s.kind != SpanKind::Run));
    }

    #[test]
    fn noop_runs_allocate_no_buffer() {
        let size = n(3);
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(3)).collect();
        let det = FixedDetector {
            n: size,
            per_round: vec![],
        };
        let mut run = Engine::new(size)
            .start(protos, det, AnyPattern::new(size))
            .unwrap();
        run.step();
        run.step();
        assert!(!run.core.obs.is_enabled(), "no buffer behind Obs::noop()");
        assert_eq!(run.core.obs.pending(), 0);
    }

    #[test]
    fn flight_dump_shows_the_last_rounds_suspicions_and_decisions() {
        let size = n(3);
        let mut second = RoundFaults::none(size);
        second.set(ProcessId::new(2), IdSet::singleton(ProcessId::new(0)));
        let det = FixedDetector {
            n: size,
            per_round: vec![RoundFaults::none(size), second],
        };
        // p0 decides in round 1, p1 in round 2, p2 never: the run ends
        // at its 9-round limit and the dump shows rounds 2..=9.
        let protos = vec![
            DecideAfter::new(1),
            DecideAfter::new(2),
            DecideAfter::new(99),
        ];
        let mut run = Engine::new(size)
            .max_rounds(9)
            .start(protos, det, AnyPattern::new(size))
            .unwrap();
        while run.step() == EngineStep::Running {}
        let dump = run.flight_dump("limit");
        let mut expected = format!(
            "rrfd-flight v1\nreason: limit\nround 2:\n  D(p2) = {}\n  p1 decided\n",
            IdSet::singleton(ProcessId::new(0))
        );
        for r in 3..=9 {
            expected.push_str(&format!("round {r}:\n"));
        }
        assert_eq!(dump, expected);
        assert_eq!(DEFAULT_FLIGHT_ROUNDS, 8);
    }

    #[test]
    fn round_hook_sees_every_round_including_the_violating_one() {
        use std::sync::{Arc, Mutex};

        let size = n(3);
        let mut bad = RoundFaults::none(size);
        bad.set(ProcessId::new(1), IdSet::universe(size));
        let det = FixedDetector {
            n: size,
            per_round: vec![RoundFaults::none(size), bad.clone()],
        };
        let protos: Vec<_> = (0..3).map(|_| DecideAfter::new(5)).collect();
        let seen: Arc<Mutex<Vec<RoundFaults>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut run = Engine::new(size)
            .start(protos, det, AnyPattern::new(size))
            .unwrap();
        run.set_round_hook(RoundHook::new(move |faults| {
            sink.lock().unwrap().push(faults.clone());
        }));
        let finished = run.run_to_completion();
        assert!(matches!(
            finished.result,
            Err(EngineError::Violation(PatternViolation::IllFormed { .. }))
        ));

        let rounds = seen.lock().unwrap();
        // Round 1 (clean) and round 2 (the violating one, kept as
        // evidence — mirroring what run_traced records).
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0], RoundFaults::none(size));
        assert_eq!(rounds[1], bad);
    }
}
