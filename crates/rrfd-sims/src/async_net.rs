//! Asynchronous message-passing simulator with crash faults (§2 item 3's
//! "system N").
//!
//! Channels are reliable and FIFO per (sender, receiver) pair; delivery
//! order *across* channels is chosen by an adversarial scheduler, which may
//! also crash processes (a crashed process handles no further events;
//! messages it sent before crashing remain deliverable — the usual
//! reliable-link reading of crash faults).
//!
//! Processes are event handlers ([`AsyncProcess`]): they send an initial
//! batch of messages, then react to one delivered message at a time. The
//! round-based overlay of §2 item 3 (buffer early messages, discard late
//! ones, advance on `n − f`) is built on top in [`crate::async_rounds`].

use rrfd_core::{Control, IdSet, ProcessId, SystemSize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Staging area for outgoing messages during an event handler.
///
/// Payloads are reference-counted internally: a broadcast allocates the
/// message once and enqueues `n` pointers, so fan-out costs no deep copies
/// regardless of payload size.
#[derive(Debug)]
pub struct Outbox<M> {
    n: SystemSize,
    sends: Vec<(ProcessId, Arc<M>)>,
}

impl<M: Clone> Outbox<M> {
    /// An empty outbox for a system of `n` processes. Public so custom
    /// network loops (e.g. the clone-plane reference runner in the
    /// message-plane equivalence suite) can drive [`AsyncProcess`]
    /// handlers outside [`AsyncNetSim`].
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        Outbox {
            n,
            sends: Vec::new(),
        }
    }

    /// Drains the staged `(recipient, payload)` pairs in send order.
    /// Targeted sends hold the only reference; broadcast entries share
    /// one payload.
    #[must_use]
    pub fn into_sends(self) -> Vec<(ProcessId, Arc<M>)> {
        self.sends
    }

    /// Sends `msg` to `to` (self-sends are allowed and delivered like any
    /// other message).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, Arc::new(msg)));
    }

    /// Sends `msg` to every process, self included. The payload is
    /// allocated once and shared across all `n` channel entries.
    pub fn broadcast(&mut self, msg: M) {
        let shared = Arc::new(msg);
        for p in self.n.processes() {
            self.sends.push((p, Arc::clone(&shared)));
        }
    }
}

/// An event-driven asynchronous process.
pub trait AsyncProcess {
    /// Message type.
    type Msg: Clone;
    /// Decision type.
    type Output: Clone;

    /// Called once before any delivery; queue initial sends here.
    fn on_start(&mut self, out: &mut Outbox<Self::Msg>);

    /// Handles one delivered message. A `Decide` is recorded once; the
    /// process keeps receiving afterwards (decided processes still help
    /// others finish, as in the paper's forever-loop).
    ///
    /// `now` is the global delivery sequence number of this event — a
    /// real-time stamp protocols may record (e.g. for the linearizability
    /// checking of the ABD register emulation). It carries no information
    /// a real process could not obtain from a local receive counter plus
    /// the checker's omniscience, and must not influence protocol logic.
    fn on_message(
        &mut self,
        now: u64,
        from: ProcessId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    ) -> Control<Self::Output>;
}

/// Scheduler events for the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// Deliver the head-of-line message on channel `(from, to)`.
    Deliver {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Crash a process.
    Crash(ProcessId),
}

/// Chooses delivery order and crashes.
pub trait NetScheduler {
    /// Picks the next event. `busy[from][to]` (flattened) is exposed via
    /// the `channels` list of non-empty channels with a live receiver.
    fn next_event(&mut self, channels: &[(ProcessId, ProcessId)], deliveries: u64) -> NetEvent;
}

/// Errors from [`AsyncNetSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetSimError {
    /// No messages in flight, yet some correct process has not decided.
    Quiescent {
        /// The undecided correct processes.
        undecided: IdSet,
    },
    /// Delivery budget exhausted.
    DeliveryLimitExceeded {
        /// The configured limit.
        max_deliveries: u64,
    },
    /// The protocol vector does not match the system size.
    WrongProcessCount {
        /// Instances supplied.
        supplied: usize,
        /// System size.
        expected: usize,
    },
}

impl fmt::Display for NetSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetSimError::Quiescent { undecided } => {
                write!(f, "network quiescent with undecided processes {undecided}")
            }
            NetSimError::DeliveryLimitExceeded { max_deliveries } => {
                write!(f, "no full decision after {max_deliveries} deliveries")
            }
            NetSimError::WrongProcessCount { supplied, expected } => {
                write!(
                    f,
                    "{supplied} processes supplied for a system of {expected}"
                )
            }
        }
    }
}

impl std::error::Error for NetSimError {}

/// Outcome of an asynchronous run. The final process states are returned
/// alongside so callers can extract protocol-internal logs (e.g. the
/// recorded `D(i,r)` sets of the round overlay).
#[derive(Debug, Clone)]
pub struct NetRunReport<P: AsyncProcess> {
    /// `outputs[i]` is `Some` once `p_i` decided.
    pub outputs: Vec<Option<P::Output>>,
    /// Processes crashed by the scheduler.
    pub crashed: IdSet,
    /// Messages delivered in total.
    pub deliveries: u64,
    /// Final process states.
    pub processes: Vec<P>,
}

impl<P: AsyncProcess> NetRunReport<P> {
    /// `true` when every non-crashed process decided.
    #[must_use]
    pub fn all_correct_decided(&self) -> bool {
        self.outputs
            .iter()
            .enumerate()
            .all(|(i, o)| o.is_some() || self.crashed.contains(ProcessId::new(i)))
    }
}

/// The asynchronous network simulator.
///
/// # Examples
///
/// A one-message echo: every process broadcasts its id and decides on the
/// first id it hears.
///
/// ```
/// use rrfd_core::{Control, ProcessId, SystemSize};
/// use rrfd_sims::async_net::{AsyncNetSim, AsyncProcess, Outbox, RandomNetScheduler};
///
/// struct Echo(ProcessId);
/// impl AsyncProcess for Echo {
///     type Msg = u64;
///     type Output = u64;
///     fn on_start(&mut self, out: &mut Outbox<u64>) {
///         out.broadcast(self.0.index() as u64);
///     }
///     fn on_message(&mut self, _now: u64, _from: ProcessId, msg: u64, _out: &mut Outbox<u64>) -> Control<u64> {
///         Control::Decide(msg)
///     }
/// }
///
/// let n = SystemSize::new(3).unwrap();
/// let procs: Vec<_> = n.processes().map(Echo).collect();
/// let report = AsyncNetSim::new(n)
///     .run(procs, &mut RandomNetScheduler::new(7, 0))
///     .unwrap();
/// assert!(report.all_correct_decided());
/// ```
#[derive(Debug, Clone)]
pub struct AsyncNetSim {
    n: SystemSize,
    max_deliveries: u64,
}

/// Default delivery budget.
pub const DEFAULT_MAX_DELIVERIES: u64 = 10_000_000;

impl AsyncNetSim {
    /// Creates a simulator for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        AsyncNetSim {
            n,
            max_deliveries: DEFAULT_MAX_DELIVERIES,
        }
    }

    /// Overrides the delivery budget.
    #[must_use]
    pub fn max_deliveries(mut self, max_deliveries: u64) -> Self {
        self.max_deliveries = max_deliveries;
        self
    }

    /// The system size.
    #[must_use]
    pub fn system_size(&self) -> SystemSize {
        self.n
    }

    /// Runs until every correct process decided, the network is quiescent,
    /// or the delivery budget runs out.
    ///
    /// # Errors
    ///
    /// See [`NetSimError`].
    pub fn run<P, S>(
        &self,
        mut processes: Vec<P>,
        scheduler: &mut S,
    ) -> Result<NetRunReport<P>, NetSimError>
    where
        P: AsyncProcess,
        S: NetScheduler + ?Sized,
    {
        let n = self.n.get();
        if processes.len() != n {
            return Err(NetSimError::WrongProcessCount {
                supplied: processes.len(),
                expected: n,
            });
        }

        // channels[from][to]: FIFO queue of shared payloads.
        let mut channels: Vec<Vec<VecDeque<Arc<P::Msg>>>> = (0..n)
            .map(|_| (0..n).map(|_| VecDeque::new()).collect())
            .collect();
        let mut outputs: Vec<Option<P::Output>> = vec![None; n];
        let mut crashed = IdSet::empty();
        let mut deliveries = 0u64;
        let mut events = 0u64;
        let event_limit = self.max_deliveries.saturating_mul(4).saturating_add(1024);

        let flush = |out: Outbox<P::Msg>,
                     from: ProcessId,
                     channels: &mut Vec<Vec<VecDeque<Arc<P::Msg>>>>| {
            for (to, msg) in out.sends {
                channels[from.index()][to.index()].push_back(msg);
            }
        };

        for (i, proc_) in processes.iter_mut().enumerate() {
            let mut out = Outbox::new(self.n);
            proc_.on_start(&mut out);
            flush(out, ProcessId::new(i), &mut channels);
        }

        loop {
            let all_done =
                (0..n).all(|i| outputs[i].is_some() || crashed.contains(ProcessId::new(i)));
            if all_done {
                return Ok(NetRunReport {
                    outputs,
                    crashed,
                    deliveries,
                    processes,
                });
            }

            // Non-empty channels whose receiver is still alive.
            let busy: Vec<(ProcessId, ProcessId)> = (0..n)
                .flat_map(|from| (0..n).map(move |to| (from, to)))
                .filter(|&(from, to)| {
                    !channels[from][to].is_empty() && !crashed.contains(ProcessId::new(to))
                })
                .map(|(from, to)| (ProcessId::new(from), ProcessId::new(to)))
                .collect();

            if busy.is_empty() {
                let undecided = (0..n)
                    .map(ProcessId::new)
                    .filter(|&p| outputs[p.index()].is_none() && !crashed.contains(p))
                    .collect();
                return Err(NetSimError::Quiescent { undecided });
            }
            if deliveries >= self.max_deliveries || events >= event_limit {
                return Err(NetSimError::DeliveryLimitExceeded {
                    max_deliveries: self.max_deliveries,
                });
            }
            events += 1;

            // Events naming a process outside the system (a hostile
            // replayed schedule) are counted above but otherwise ignored.
            match scheduler.next_event(&busy, deliveries) {
                NetEvent::Crash(p) => {
                    if p.index() < n {
                        crashed.insert(p);
                    }
                }
                NetEvent::Deliver { from, to } => {
                    if from.index() >= n || to.index() >= n || crashed.contains(to) {
                        continue;
                    }
                    let Some(entry) = channels[from.index()][to.index()].pop_front() else {
                        continue;
                    };
                    deliveries += 1;
                    // The handler takes ownership; a broadcast payload is
                    // deep-copied only here, at most once per recipient,
                    // and the last recipient reclaims the allocation.
                    let msg = Arc::try_unwrap(entry).unwrap_or_else(|shared| (*shared).clone());
                    let mut out = Outbox::new(self.n);
                    let verdict = processes[to.index()].on_message(deliveries, from, msg, &mut out);
                    flush(out, to, &mut channels);
                    if let Control::Decide(v) = verdict {
                        outputs[to.index()].get_or_insert(v);
                    }
                }
            }
        }
    }
}

/// Seeded random scheduler: delivers a uniformly random pending message,
/// and crashes random processes while its budget lasts.
#[derive(Debug, Clone)]
pub struct RandomNetScheduler {
    rng: rand::rngs::StdRng,
    crash_budget: usize,
    crash_prob: f64,
}

impl RandomNetScheduler {
    /// Creates a scheduler with up to `max_crashes` crashes, deterministic
    /// in `seed`.
    #[must_use]
    pub fn new(seed: u64, max_crashes: usize) -> Self {
        use rand::SeedableRng;
        RandomNetScheduler {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            crash_budget: max_crashes,
            crash_prob: 0.002,
        }
    }

    /// Overrides the per-event crash probability (default 0.2%).
    #[must_use]
    pub fn crash_prob(mut self, p: f64) -> Self {
        self.crash_prob = p;
        self
    }
}

impl NetScheduler for RandomNetScheduler {
    fn next_event(&mut self, channels: &[(ProcessId, ProcessId)], _d: u64) -> NetEvent {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let &(from, to) = channels
            .choose(&mut self.rng)
            .expect("simulator guarantees non-empty channel list");
        if self.crash_budget > 0 && self.rng.gen_bool(self.crash_prob) {
            self.crash_budget -= 1;
            // Crash a random endpoint for variety.
            let victim = if self.rng.gen_bool(0.5) { from } else { to };
            NetEvent::Crash(victim)
        } else {
            NetEvent::Deliver { from, to }
        }
    }
}

/// FIFO-fair scheduler: delivers the oldest pending channel in round-robin
/// order, never crashes. The "nice" baseline.
#[derive(Debug, Clone, Default)]
pub struct FifoNetScheduler {
    cursor: usize,
}

impl FifoNetScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        FifoNetScheduler { cursor: 0 }
    }
}

impl NetScheduler for FifoNetScheduler {
    fn next_event(&mut self, channels: &[(ProcessId, ProcessId)], _d: u64) -> NetEvent {
        let pick = channels[self.cursor % channels.len()];
        self.cursor = self.cursor.wrapping_add(1);
        NetEvent::Deliver {
            from: pick.0,
            to: pick.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    /// Broadcasts its input; decides once it has heard `quorum` distinct
    /// senders (self included).
    #[derive(Debug)]
    struct Gather {
        me: ProcessId,
        quorum: usize,
        heard: IdSet,
        sum: u64,
    }

    impl Gather {
        fn new(me: ProcessId, quorum: usize) -> Self {
            Gather {
                me,
                quorum,
                heard: IdSet::empty(),
                sum: 0,
            }
        }
    }

    impl AsyncProcess for Gather {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, out: &mut Outbox<u64>) {
            out.broadcast(self.me.index() as u64 + 1);
        }

        fn on_message(
            &mut self,
            _now: u64,
            from: ProcessId,
            msg: u64,
            _out: &mut Outbox<u64>,
        ) -> Control<u64> {
            if self.heard.insert(from) {
                self.sum += msg;
            }
            if self.heard.len() >= self.quorum {
                Control::Decide(self.sum)
            } else {
                Control::Continue
            }
        }
    }

    #[test]
    fn fifo_run_gathers_everything() {
        let size = n(4);
        let procs: Vec<_> = size.processes().map(|p| Gather::new(p, 4)).collect();
        let report = AsyncNetSim::new(size)
            .run(procs, &mut FifoNetScheduler::new())
            .unwrap();
        assert!(report.all_correct_decided());
        for out in &report.outputs {
            assert_eq!(*out, Some(1 + 2 + 3 + 4));
        }
    }

    #[test]
    fn random_runs_decide_for_many_seeds() {
        let size = n(5);
        for seed in 0..20u64 {
            // Quorum n − 1 tolerates the single allowed crash.
            let procs: Vec<_> = size.processes().map(|p| Gather::new(p, 4)).collect();
            let mut sched = RandomNetScheduler::new(seed, 1).crash_prob(0.01);
            let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
            assert!(report.all_correct_decided(), "seed {seed}");
            assert!(report.crashed.len() <= 1);
        }
    }

    #[test]
    fn quiescence_with_undecided_is_detected() {
        let size = n(2);
        // Quorum 3 > n: never decides; network drains.
        let procs: Vec<_> = size.processes().map(|p| Gather::new(p, 3)).collect();
        let err = AsyncNetSim::new(size)
            .run(procs, &mut FifoNetScheduler::new())
            .unwrap_err();
        match err {
            NetSimError::Quiescent { undecided } => {
                assert_eq!(undecided.len(), 2);
            }
            other => panic!("expected quiescence, got {other:?}"),
        }
    }

    #[test]
    fn crashed_receiver_discards_messages() {
        let size = n(3);

        struct CrashP2Then {
            inner: FifoNetScheduler,
            crashed: bool,
        }
        impl NetScheduler for CrashP2Then {
            fn next_event(&mut self, channels: &[(ProcessId, ProcessId)], d: u64) -> NetEvent {
                if !self.crashed {
                    self.crashed = true;
                    return NetEvent::Crash(ProcessId::new(2));
                }
                self.inner.next_event(channels, d)
            }
        }

        let procs: Vec<_> = size.processes().map(|p| Gather::new(p, 2)).collect();
        let mut sched = CrashP2Then {
            inner: FifoNetScheduler::new(),
            crashed: false,
        };
        let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
        assert!(report.crashed.contains(ProcessId::new(2)));
        assert!(report.outputs[2].is_none());
        assert!(report.all_correct_decided());
    }

    #[test]
    fn per_channel_fifo_order_is_preserved() {
        let size = n(2);

        /// p0 sends 1, 2, 3 to p1; p1 decides on the sequence.
        struct Sender;
        struct Receiver {
            got: Vec<u64>,
        }
        enum P {
            S(Sender),
            R(Receiver),
        }
        impl AsyncProcess for P {
            type Msg = u64;
            type Output = Vec<u64>;
            fn on_start(&mut self, out: &mut Outbox<u64>) {
                if let P::S(_) = self {
                    out.send(ProcessId::new(1), 1);
                    out.send(ProcessId::new(1), 2);
                    out.send(ProcessId::new(1), 3);
                    // Also let p0 decide trivially via a self-send.
                    out.send(ProcessId::new(0), 0);
                }
            }
            fn on_message(
                &mut self,
                _now: u64,
                _from: ProcessId,
                msg: u64,
                _out: &mut Outbox<u64>,
            ) -> Control<Vec<u64>> {
                match self {
                    P::S(_) => Control::Decide(vec![]),
                    P::R(r) => {
                        r.got.push(msg);
                        if r.got.len() == 3 {
                            Control::Decide(r.got.clone())
                        } else {
                            Control::Continue
                        }
                    }
                }
            }
        }

        for seed in 0..10u64 {
            let procs = vec![P::S(Sender), P::R(Receiver { got: vec![] })];
            let mut sched = RandomNetScheduler::new(seed, 0);
            let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();
            assert_eq!(report.outputs[1], Some(vec![1, 2, 3]), "seed {seed}");
        }
    }
}
