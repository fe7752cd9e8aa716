//! Schedule capture and replay for the classical simulators.
//!
//! The simulators in this crate are deterministic once the scheduler's
//! choices are fixed, so a run is fully described by its
//! [`StepEvent`] sequence: which process stepped or crashed (shared
//! memory, semi-synchrony), or which channel delivered and who crashed
//! (asynchronous network). This module captures that sequence as a
//! serializable [`ScheduleTrace`] — wrap any scheduler in [`Recording`] —
//! and re-drives it with [`ScheduleReplay`], the scheduler-level analogue
//! of the engine-level `RunTrace` / `ReplayDetector` pair in `rrfd-core` /
//! `rrfd-models`.
//!
//! The text format is line-oriented: a `rrfd-sched v1` header, then one
//! event per line (`step 3`, `crash 1`, `deliver 0>2`). A failing
//! schedule pasted from a test log can therefore be replayed verbatim.
//! One format serves every substrate; an event a substrate cannot enable
//! (a `deliver` on shared memory, a `step` on the network) is ignored
//! there, like any event naming a decided, crashed or absent process.

use crate::step::{self, StepEvent, StepScheduler};
use rrfd_core::lineformat::{body_lines, parse_process_id as parse_pid};
use std::fmt;
use std::str::FromStr;

/// Writes the event as one trace line (no newline).
impl fmt::Display for StepEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepEvent::Step(p) => write!(f, "step {}", p.index()),
            StepEvent::Crash(p) => write!(f, "crash {}", p.index()),
            StepEvent::Deliver { from, to } => {
                write!(f, "deliver {}>{}", from.index(), to.index())
            }
        }
    }
}

/// Parses one trace line, or describes why it is malformed.
fn parse_event(line: &str) -> Result<StepEvent, String> {
    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["step", p] => Ok(StepEvent::Step(parse_pid(p)?)),
        ["crash", p] => Ok(StepEvent::Crash(parse_pid(p)?)),
        ["deliver", pair] => {
            let (from, to) = pair
                .split_once('>')
                .ok_or_else(|| format!("bad channel {pair:?}"))?;
            Ok(StepEvent::Deliver {
                from: parse_pid(from)?,
                to: parse_pid(to)?,
            })
        }
        _ => Err(format!("unrecognised event {line:?}")),
    }
}

/// The recorded event sequence of one simulator run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleTrace {
    events: Vec<StepEvent>,
}

impl ScheduleTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ScheduleTrace { events: Vec::new() }
    }

    /// Wraps an explicit event sequence.
    #[must_use]
    pub fn from_events(events: Vec<StepEvent>) -> Self {
        ScheduleTrace { events }
    }

    /// The recorded events, in execution order.
    #[must_use]
    pub fn events(&self) -> &[StepEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl fmt::Display for ScheduleTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rrfd-sched v1")?;
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

/// Error from parsing a serialized [`ScheduleTrace`]. An alias of the
/// workspace-wide [`rrfd_core::LineError`]: every line-oriented trace
/// format reports failures the same way (1-based `line`, free-form
/// `message`).
pub type ParseScheduleError = rrfd_core::LineError;

impl FromStr for ScheduleTrace {
    type Err = ParseScheduleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut events = Vec::new();
        for (line_no, line) in body_lines(s, "rrfd-sched v1")? {
            events.push(
                parse_event(line).map_err(|message| ParseScheduleError::new(line_no, message))?,
            );
        }
        Ok(ScheduleTrace { events })
    }
}

/// Wraps a scheduler and records every event it chooses.
///
/// # Examples
///
/// ```
/// use rrfd_sims::step::RandomScheduler;
/// use rrfd_sims::trace::Recording;
///
/// let mut sched = Recording::new(RandomScheduler::new(7, 0));
/// // ... pass `&mut sched` to `SharedMemSim::run`, `SemiSyncSim::run`
/// // or `AsyncNetSim::run` ...
/// let (_inner, trace) = sched.into_parts();
/// assert!(trace.is_empty()); // nothing ran in this toy example
/// ```
#[derive(Debug, Clone)]
pub struct Recording<S> {
    inner: S,
    events: Vec<StepEvent>,
}

impl<S> Recording<S> {
    /// Wraps `inner`, starting with an empty recording.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Recording {
            inner,
            events: Vec::new(),
        }
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> ScheduleTrace {
        ScheduleTrace {
            events: self.events.clone(),
        }
    }

    /// Unwraps into the inner scheduler and the recorded trace.
    #[must_use]
    pub fn into_parts(self) -> (S, ScheduleTrace) {
        (
            self.inner,
            ScheduleTrace {
                events: self.events,
            },
        )
    }
}

impl<S: StepScheduler> StepScheduler for Recording<S> {
    fn next_event(&mut self, enabled: &[StepEvent], step: u64) -> StepEvent {
        let event = self.inner.next_event(enabled, step);
        self.events.push(event);
        event
    }
}

/// Re-drives a recorded schedule: event `k` of the trace is returned at the
/// simulator's `k`-th scheduling decision. Past the end of the recording it
/// falls back to the first enabled event, so a replay of a complete trace
/// is exact and a replay of a truncated one still terminates.
#[derive(Debug, Clone)]
pub struct ScheduleReplay {
    events: Vec<StepEvent>,
    cursor: usize,
}

impl ScheduleReplay {
    /// Builds a replay scheduler from a captured trace.
    #[must_use]
    pub fn from_trace(trace: &ScheduleTrace) -> Self {
        ScheduleReplay {
            events: trace.events.clone(),
            cursor: 0,
        }
    }
}

impl From<ScheduleTrace> for ScheduleReplay {
    fn from(trace: ScheduleTrace) -> Self {
        ScheduleReplay {
            events: trace.events,
            cursor: 0,
        }
    }
}

impl StepScheduler for ScheduleReplay {
    fn next_event(&mut self, enabled: &[StepEvent], _step: u64) -> StepEvent {
        let recorded = self.events.get(self.cursor).copied();
        self.cursor += 1;
        recorded
            .or_else(|| enabled.first().copied())
            .unwrap_or_else(step::idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::{IdSet, ProcessId, SystemSize};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn mem_events_round_trip_through_text() {
        let trace = ScheduleTrace::from_events(vec![
            StepEvent::Step(p(0)),
            StepEvent::Crash(p(2)),
            StepEvent::Step(p(1)),
        ]);
        let text = trace.to_string();
        assert_eq!(text, "rrfd-sched v1\nstep 0\ncrash 2\nstep 1\n");
        let back: ScheduleTrace = text.parse().unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn net_events_round_trip_through_text() {
        let trace = ScheduleTrace::from_events(vec![
            StepEvent::Deliver {
                from: p(0),
                to: p(2),
            },
            StepEvent::Crash(p(1)),
        ]);
        let text = trace.to_string();
        assert_eq!(text, "rrfd-sched v1\ndeliver 0>2\ncrash 1\n");
        let back: ScheduleTrace = text.parse().unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn malformed_schedules_are_rejected() {
        assert!("".parse::<ScheduleTrace>().is_err());
        assert!("bogus header\nstep 0\n".parse::<ScheduleTrace>().is_err());
        let err = "rrfd-sched v1\nstep 0\nfly 3\n"
            .parse::<ScheduleTrace>()
            .unwrap_err();
        assert_eq!(err.line, 3);
        assert!("rrfd-sched v1\ndeliver 0x2\n"
            .parse::<ScheduleTrace>()
            .is_err());
        assert!("rrfd-sched v1\nstep 999\n"
            .parse::<ScheduleTrace>()
            .is_err());
    }

    #[test]
    fn recording_then_replay_is_identity_on_shared_memory() {
        use crate::shared_mem::{Action, MemProcess, Observation, SharedMemSim};
        use crate::step::RandomScheduler;

        #[derive(Debug)]
        struct WriteReadDecide {
            me: ProcessId,
        }
        impl MemProcess<u64> for WriteReadDecide {
            type Output = Option<u64>;
            fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
                match obs {
                    Observation::Start => Action::Write {
                        bank: 0,
                        value: self.me.index() as u64 + 1,
                    },
                    Observation::Written => Action::Read {
                        bank: 0,
                        owner: ProcessId::new((self.me.index() + 1) % 3),
                    },
                    Observation::Value(v) => Action::Decide(v),
                    other => unreachable!("{other:?}"),
                }
            }
        }

        let n = SystemSize::new(3).unwrap();
        let sim = SharedMemSim::new(n, 1);
        let make = || {
            (0..3)
                .map(|i| WriteReadDecide { me: p(i) })
                .collect::<Vec<_>>()
        };

        for seed in 0..10u64 {
            let mut recording = Recording::new(RandomScheduler::new(seed, 1));
            let original = sim.run(make(), &mut recording).unwrap();
            let (_, trace) = recording.into_parts();

            // Replay from the parsed text form: text → trace → run.
            let reparsed: ScheduleTrace = trace.to_string().parse().unwrap();
            assert_eq!(reparsed, trace);
            let mut replay = ScheduleReplay::from_trace(&reparsed);
            let replayed = sim.run(make(), &mut replay).unwrap();
            assert_eq!(replayed.outputs, original.outputs, "seed {seed}");
            assert_eq!(replayed.crashed, original.crashed, "seed {seed}");
            assert_eq!(replayed.steps, original.steps, "seed {seed}");
        }
    }

    #[test]
    fn recording_then_replay_is_identity_on_the_async_net() {
        use crate::async_net::{AsyncNetSim, AsyncProcess, Outbox};
        use crate::step::RandomScheduler;
        use rrfd_core::Control;

        struct Echo(ProcessId);
        impl AsyncProcess for Echo {
            type Msg = u64;
            type Output = u64;
            fn on_start(&mut self, out: &mut Outbox<u64>) {
                out.broadcast(self.0.index() as u64);
            }
            fn on_message(
                &mut self,
                _now: u64,
                _from: ProcessId,
                msg: u64,
                _out: &mut Outbox<u64>,
            ) -> Control<u64> {
                Control::Decide(msg)
            }
        }

        let n = SystemSize::new(4).unwrap();
        let sim = AsyncNetSim::new(n);
        let make = || n.processes().map(Echo).collect::<Vec<_>>();

        for seed in 0..10u64 {
            let mut recording = Recording::new(RandomScheduler::new(seed, 1));
            let original = sim.run(make(), &mut recording).unwrap();
            let (_, trace) = recording.into_parts();

            let mut replay = ScheduleReplay::from(trace);
            let replayed = sim.run(make(), &mut replay).unwrap();
            assert_eq!(replayed.outputs, original.outputs, "seed {seed}");
            assert_eq!(replayed.crashed, original.crashed, "seed {seed}");
            assert_eq!(replayed.deliveries, original.deliveries, "seed {seed}");
        }
    }

    #[test]
    fn replayed_net_events_naming_absent_processes_are_ignored() {
        use crate::async_net::{AsyncNetSim, AsyncProcess, Outbox};
        use rrfd_core::Control;

        /// Broadcasts once, decides on the first message it receives.
        struct FirstHeard;
        impl AsyncProcess for FirstHeard {
            type Msg = ();
            type Output = ProcessId;
            fn on_start(&mut self, out: &mut Outbox<()>) {
                out.broadcast(());
            }
            fn on_message(
                &mut self,
                _now: u64,
                from: ProcessId,
                _msg: (),
                _out: &mut Outbox<()>,
            ) -> Control<ProcessId> {
                Control::Decide(from)
            }
        }

        let n = SystemSize::new(3).unwrap();
        let sim = AsyncNetSim::new(n);
        for text in ["rrfd-sched v1\ndeliver 0>5\n", "rrfd-sched v1\ncrash 5\n"] {
            let trace: ScheduleTrace = text.parse().unwrap();
            let mut replay = ScheduleReplay::from(trace);
            let report = sim
                .run(vec![FirstHeard, FirstHeard, FirstHeard], &mut replay)
                .unwrap();
            assert!(report.crashed.is_empty(), "{text:?}");
            assert!(report.outputs.iter().all(Option::is_some), "{text:?}");
        }
    }

    #[test]
    fn events_a_substrate_cannot_enable_are_ignored_but_counted() {
        use crate::async_net::{AsyncNetSim, AsyncProcess, NetSimError, Outbox};
        use crate::semi_sync::{SemiSyncError, SemiSyncProcess, SemiSyncSim};
        use crate::shared_mem::{Action, MemProcess, MemSimError, Observation, SharedMemSim};
        use rrfd_core::Control;
        use std::sync::Arc;

        /// Decides at its first step or its first message.
        #[derive(Debug)]
        struct Once;
        impl MemProcess<u64> for Once {
            type Output = ();
            fn step(&mut self, _obs: Observation<u64>) -> Action<u64, ()> {
                Action::Decide(())
            }
        }
        impl SemiSyncProcess for Once {
            type Msg = ();
            type Output = ();
            fn step(&mut self, _received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<()>) {
                (None, Control::Decide(()))
            }
        }
        impl AsyncProcess for Once {
            type Msg = ();
            type Output = ();
            fn on_start(&mut self, out: &mut Outbox<()>) {
                out.broadcast(());
            }
            fn on_message(
                &mut self,
                _: u64,
                _: ProcessId,
                _: (),
                _: &mut Outbox<()>,
            ) -> Control<()> {
                Control::Decide(())
            }
        }

        // `len` copies of one foreign event, parsed from text.
        let replay = |line: &str, len: usize| {
            let text = format!("rrfd-sched v1\n{}", format!("{line}\n").repeat(len));
            ScheduleReplay::from(text.parse::<ScheduleTrace>().unwrap())
        };
        let n = SystemSize::new(2).unwrap();
        let budget = 10;
        // Every substrate bounds scheduler events at 4 × its step or
        // delivery budget + 1024.
        let spent = 4 * budget as usize + 1024;
        let make = || vec![Once, Once];

        let mem = SharedMemSim::new(n, 1).max_steps(budget);
        let report = mem.run(make(), &mut replay("deliver 0>1", 3)).unwrap();
        assert_eq!((report.steps, report.crashed), (2, IdSet::empty()));
        assert!(report.all_correct_decided());
        let err = mem
            .run(make(), &mut replay("deliver 0>1", spent))
            .unwrap_err();
        assert_eq!(err, MemSimError::StepLimitExceeded { max_steps: budget });

        let semi = SemiSyncSim::new(n).max_steps(budget);
        let report = semi.run(make(), &mut replay("deliver 1>0", 3)).unwrap();
        assert_eq!((report.total_steps, report.crashed), (2, IdSet::empty()));
        assert!(report.all_correct_decided());
        let err = semi
            .run(make(), &mut replay("deliver 1>0", spent))
            .unwrap_err();
        assert_eq!(err, SemiSyncError::StepLimitExceeded { max_steps: budget });

        let net = AsyncNetSim::new(n).max_deliveries(budget);
        let report = net.run(make(), &mut replay("step 0", 3)).unwrap();
        assert_eq!((report.deliveries, report.crashed), (2, IdSet::empty()));
        assert!(report.all_correct_decided());
        let err = net.run(make(), &mut replay("step 1", spent)).unwrap_err();
        let max_deliveries = budget;
        assert_eq!(err, NetSimError::DeliveryLimitExceeded { max_deliveries });
    }

    #[test]
    fn recording_then_replay_is_identity_on_semi_sync() {
        use crate::semi_sync::{SemiSyncProcess, SemiSyncSim};
        use crate::step::RandomScheduler;
        use rrfd_core::Control;

        /// Decides, after three steps, on the set of distinct senders heard.
        #[derive(Debug)]
        struct Listen {
            steps: u64,
            heard: IdSet,
            sent: bool,
        }
        impl SemiSyncProcess for Listen {
            type Msg = ();
            type Output = usize;
            fn step(
                &mut self,
                received: &[(ProcessId, std::sync::Arc<()>)],
            ) -> (Option<()>, Control<usize>) {
                self.steps += 1;
                for &(from, _) in received {
                    self.heard.insert(from);
                }
                let msg = (!self.sent).then(|| self.sent = true);
                if self.steps >= 3 {
                    (msg, Control::Decide(self.heard.len()))
                } else {
                    (msg, Control::Continue)
                }
            }
        }

        let n = SystemSize::new(3).unwrap();
        let sim = SemiSyncSim::new(n);
        let make = || {
            (0..3)
                .map(|_| Listen {
                    steps: 0,
                    heard: IdSet::empty(),
                    sent: false,
                })
                .collect::<Vec<_>>()
        };
        for seed in 0..10u64 {
            let mut recording = Recording::new(RandomScheduler::new(seed, 1).crash_prob(0.02));
            let original = sim.run(make(), &mut recording).unwrap();
            let (_, trace) = recording.into_parts();

            let reparsed: ScheduleTrace = trace.to_string().parse().unwrap();
            let mut replay = ScheduleReplay::from_trace(&reparsed);
            let replayed = sim.run(make(), &mut replay).unwrap();
            assert_eq!(replayed.outputs, original.outputs, "seed {seed}");
            assert_eq!(replayed.crashed, original.crashed, "seed {seed}");
        }
    }
}
