//! Metric-recording wrapper for the simulator schedulers.
//!
//! [`Instrumented`] wraps any [`StepScheduler`] — on shared memory,
//! semi-synchrony or the asynchronous network — and records every
//! decision it makes into an [`Obs`] handle under the `rrfd_sim_*` names:
//! one count per decision under its event kind (steps, crashes,
//! deliveries), a branching-factor histogram over the enabled events
//! offered at each decision point, and a running schedule-depth gauge. The wrapper is transparent: it forwards the inner
//! scheduler's choice unchanged, so instrumenting a run cannot alter it.

use crate::step::{StepEvent, StepScheduler};
use rrfd_obs::{names, Labels, Obs};

/// A scheduler wrapper that records each decision as `rrfd_sim_*` metrics
/// before forwarding it unchanged.
#[derive(Debug)]
pub struct Instrumented<S> {
    inner: S,
    obs: Obs,
    depth: u64,
}

impl<S> Instrumented<S> {
    /// Wraps `inner`, recording its decisions into `obs`.
    #[must_use]
    pub fn new(inner: S, obs: Obs) -> Self {
        Instrumented {
            inner,
            obs,
            depth: 0,
        }
    }

    /// The wrapped scheduler.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Decisions recorded so far (the schedule depth).
    #[must_use]
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Common bookkeeping at each decision point: the branching factor
    /// offered, then the advancing depth gauge.
    fn decision(&mut self, branching: usize) {
        self.depth += 1;
        self.obs
            .observe(names::SIM_BRANCHING, Labels::GLOBAL, branching as u64);
        self.obs.gauge(
            names::SIM_SCHED_DEPTH,
            Labels::GLOBAL,
            i64::try_from(self.depth).unwrap_or(i64::MAX),
        );
    }

    /// Counts the chosen event under its kind and its process's label.
    fn count(&self, event: StepEvent) {
        let kind = match event {
            StepEvent::Step(_) => names::SIM_STEPS,
            StepEvent::Crash(_) => names::SIM_CRASHES,
            StepEvent::Deliver { .. } => names::SIM_DELIVERIES,
        };
        self.obs.add(kind, Labels::process(event.pid().index()), 1);
    }
}

impl<S: StepScheduler> StepScheduler for Instrumented<S> {
    fn next_event(&mut self, enabled: &[StepEvent], step: u64) -> StepEvent {
        self.decision(enabled.len());
        let event = self.inner.next_event(enabled, step);
        self.count(event);
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_mem::{Action, MemProcess, Observation, SharedMemSim};
    use rrfd_core::{ProcessId, SystemSize};

    /// Steps round-robin through the enabled events.
    struct RoundRobin {
        turn: usize,
    }
    impl StepScheduler for RoundRobin {
        fn next_event(&mut self, enabled: &[StepEvent], _step: u64) -> StepEvent {
            let pick = enabled[self.turn % enabled.len()];
            self.turn += 1;
            pick
        }
    }

    #[derive(Debug)]
    struct WriteThenDecide {
        me: ProcessId,
    }
    impl MemProcess<u64> for WriteThenDecide {
        type Output = ();
        fn step(&mut self, obs: Observation<u64>) -> Action<u64, ()> {
            match obs {
                Observation::Start => Action::Write {
                    bank: 0,
                    value: self.me.index() as u64,
                },
                _ => Action::Decide(()),
            }
        }
    }

    #[test]
    fn wrapped_scheduler_is_transparent_and_counted() {
        let n = SystemSize::new(2).unwrap();
        let sim = SharedMemSim::new(n, 1);
        let make = || {
            vec![
                WriteThenDecide {
                    me: ProcessId::new(0),
                },
                WriteThenDecide {
                    me: ProcessId::new(1),
                },
            ]
        };

        // Baseline run with the bare scheduler.
        let bare = sim.run(make(), &mut RoundRobin { turn: 0 }).unwrap();

        // Instrumented run makes identical choices.
        let obs = Obs::logical();
        let mut wrapped = Instrumented::new(RoundRobin { turn: 0 }, obs.clone());
        let instrumented = sim.run(make(), &mut wrapped).unwrap();
        assert_eq!(bare.outputs, instrumented.outputs);

        let snap = obs.snapshot();
        let events = wrapped.depth();
        assert_eq!(snap.counter_total(names::SIM_STEPS), events);
        assert_eq!(snap.counter_total(names::SIM_CRASHES), 0);
        assert_eq!(snap.counter_total(names::SIM_DELIVERIES), 0);
        // Branching was observed once per decision.
        let branching = snap
            .get(names::SIM_BRANCHING, Labels::GLOBAL)
            .expect("branching histogram recorded");
        match branching {
            rrfd_obs::MetricValue::Histogram(h) => assert_eq!(h.count, events),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
