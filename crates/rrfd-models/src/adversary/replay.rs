//! Replaying captured runs: the second half of the capture → replay
//! debugging workflow.
//!
//! Any engine (`rrfd_core::Engine` or the threaded runtime) can record a
//! [`RunTrace`] of a run; a [`ReplayDetector`] built from that trace then
//! re-presents exactly the recorded suspicion sets `D(i,r)`, round by
//! round. Because both engines are deterministic given the detector's
//! choices, replaying a trace through the same protocol reproduces the
//! original run bit for bit — decisions, decision rounds, and the fault
//! pattern all match. Past the end of the recording the detector reports
//! no faults, so a replay of a truncated trace stays legal in every model.

use rrfd_core::{FaultDetector, FaultPattern, Round, RoundFaults, RunTrace, SystemSize};

/// A detector that re-drives a recorded run: at round `r` it returns the
/// trace's round-`r` suspicion sets, and [`RoundFaults::none`] once the
/// recording is exhausted.
///
/// # Examples
///
/// Capture a run, then replay it and get the identical execution:
///
/// ```
/// use rrfd_core::{Control, Delivery, Engine, Round, RoundProtocol, SystemSize};
/// use rrfd_models::adversary::{RandomAdversary, ReplayDetector};
/// use rrfd_models::predicates::KUncertainty;
///
/// #[derive(Clone)]
/// struct MinHeard(u64);
/// impl RoundProtocol for MinHeard {
///     type Msg = u64;
///     type Output = u64;
///     fn emit(&mut self, _r: Round) -> u64 { self.0 }
///     fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
///         Control::Decide(d.values().copied().min().unwrap())
///     }
/// }
///
/// let n = SystemSize::new(4).unwrap();
/// let model = KUncertainty::new(n, 2);
/// let protos: Vec<_> = (0..4).map(|i| MinHeard(10 + i)).collect();
///
/// let (original, trace) = Engine::new(n).run_traced(
///     protos.clone(),
///     &mut RandomAdversary::new(model, 7),
///     &model,
/// );
/// let (replayed, retrace) = Engine::new(n).run_traced(
///     protos,
///     &mut ReplayDetector::from_trace(&trace),
///     &model,
/// );
/// assert_eq!(trace, retrace);
/// assert_eq!(original.unwrap().outputs(), replayed.unwrap().outputs());
/// ```
#[derive(Debug, Clone)]
pub struct ReplayDetector {
    n: SystemSize,
    rounds: Vec<RoundFaults>,
}

impl ReplayDetector {
    /// Builds a detector that replays the rounds of a captured trace —
    /// including, for a violation trace, the final offending round, so the
    /// replay reproduces the violation too.
    #[must_use]
    pub fn from_trace(trace: &RunTrace) -> Self {
        ReplayDetector {
            n: trace.system_size(),
            rounds: trace.rounds().iter().map(|r| r.faults.clone()).collect(),
        }
    }

    /// Builds a detector from raw per-round suspicion sets: a script that
    /// plays `rounds[r−1]` at round `r`, then reports no faults forever.
    ///
    /// # Examples
    ///
    /// ```
    /// use rrfd_core::{FaultDetector, FaultPattern, IdSet, ProcessId, Round, RoundFaults, SystemSize};
    /// use rrfd_models::adversary::ReplayDetector;
    ///
    /// let n = SystemSize::new(3).unwrap();
    /// let mut r1 = RoundFaults::none(n);
    /// r1.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(2)));
    /// let mut det = ReplayDetector::from_rounds(n, vec![r1.clone()]);
    ///
    /// let history = FaultPattern::new(n);
    /// assert_eq!(det.next_round(Round::new(1), &history), r1);
    /// assert_eq!(det.next_round(Round::new(2), &history), RoundFaults::none(n));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any round was built for a different system size.
    #[must_use]
    pub fn from_rounds(n: SystemSize, rounds: Vec<RoundFaults>) -> Self {
        for rf in &rounds {
            assert_eq!(rf.system_size(), n, "recorded round has wrong system size");
        }
        ReplayDetector { n, rounds }
    }
}

impl FaultDetector for ReplayDetector {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn next_round(&mut self, round: Round, _history: &FaultPattern) -> RoundFaults {
        self.rounds
            .get(round.index())
            .cloned()
            .unwrap_or_else(|| RoundFaults::none(self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RandomAdversary;
    use crate::predicates::KUncertainty;
    use rrfd_core::{
        Control, Delivery, Engine, EngineError, IdSet, ProcessId, RoundProtocol, TraceOutcome,
    };

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[derive(Clone)]
    struct SumThree {
        acc: u64,
        me: u64,
    }

    impl RoundProtocol for SumThree {
        type Msg = u64;
        type Output = u64;
        fn emit(&mut self, _r: Round) -> u64 {
            self.me
        }
        fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
            self.acc += d.values().sum::<u64>();
            if d.round.get() >= 3 {
                Control::Decide(self.acc)
            } else {
                Control::Continue
            }
        }
    }

    fn protos(size: usize) -> Vec<SumThree> {
        (0..size)
            .map(|i| SumThree {
                acc: 0,
                me: i as u64 + 1,
            })
            .collect()
    }

    #[test]
    fn replay_reproduces_a_random_run_exactly() {
        let size = n(5);
        let model = KUncertainty::new(size, 2);
        for seed in 0..8u64 {
            let (original, trace) = Engine::new(size).run_traced(
                protos(5),
                &mut RandomAdversary::new(model, seed),
                &model,
            );
            let (replayed, retrace) = Engine::new(size).run_traced(
                protos(5),
                &mut ReplayDetector::from_trace(&trace),
                &model,
            );
            assert_eq!(trace, retrace, "seed {seed}");
            let original = original.unwrap();
            let replayed = replayed.unwrap();
            assert_eq!(original.outputs(), replayed.outputs(), "seed {seed}");
            assert_eq!(original.pattern, replayed.pattern, "seed {seed}");
            assert_eq!(
                original.rounds_executed, replayed.rounds_executed,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn replay_reproduces_a_violation() {
        use rrfd_core::AnyPattern;

        struct IllFormed(SystemSize);
        impl FaultDetector for IllFormed {
            fn system_size(&self) -> SystemSize {
                self.0
            }
            fn next_round(&mut self, _r: Round, _h: &FaultPattern) -> RoundFaults {
                let mut rf = RoundFaults::none(self.0);
                rf.set(ProcessId::new(0), IdSet::universe(self.0));
                rf
            }
        }

        let size = n(3);
        let model = AnyPattern::new(size);
        let (result, trace) = Engine::new(size).run_traced(protos(3), &mut IllFormed(size), &model);
        assert!(matches!(result, Err(EngineError::Violation(_))));
        assert!(matches!(trace.outcome(), TraceOutcome::Violation(_)));

        // The offending round is in the trace, so the replay hits the same
        // wall at the same round.
        let (replayed, retrace) = Engine::new(size).run_traced(
            protos(3),
            &mut ReplayDetector::from_trace(&trace),
            &model,
        );
        assert!(matches!(replayed, Err(EngineError::Violation(_))));
        assert_eq!(trace, retrace);
    }

    #[test]
    fn replay_goes_quiet_past_the_recording() {
        let size = n(3);
        let mut rf = RoundFaults::none(size);
        rf.set(ProcessId::new(0), IdSet::singleton(ProcessId::new(1)));
        let mut det = ReplayDetector::from_rounds(size, vec![rf.clone()]);
        let h = FaultPattern::new(size);
        assert_eq!(det.next_round(Round::new(1), &h), rf);
        assert_eq!(det.next_round(Round::new(2), &h), RoundFaults::none(size));
    }

    #[test]
    #[should_panic(expected = "wrong system size")]
    fn size_mismatch_is_caught() {
        let _ = ReplayDetector::from_rounds(n(3), vec![RoundFaults::none(n(4))]);
    }
}
