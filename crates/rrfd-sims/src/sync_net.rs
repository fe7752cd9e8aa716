//! Synchronous message-passing simulator with send-omission and crash
//! faults (§2 items 1 and 2's "system N").
//!
//! Time advances in lock-step rounds: every live process sends to everyone,
//! the fault injector drops some messages (according to its ground-truth
//! fault assignment), and every live process receives the surviving
//! messages before the round ends. The set of senders a process did *not*
//! hear is exactly the `D(i,r)` the paper uses to map system N onto its
//! RRFD counterpart; the simulator records it per round so experiment E1
//! can machine-check eq. 1 / eq. 2 against real message-level executions.

use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::{Rng, SeedableRng};
use rrfd_core::{
    Control, Delivery, FaultPattern, IdSet, ProcessId, Round, RoundFaults, RoundProtocol,
    SystemSize,
};
use rrfd_obs::{names, Labels, Obs};
use std::fmt;

/// Ground-truth fault behaviour: which messages are lost each round.
pub trait SyncFaults {
    /// The system size.
    fn system_size(&self) -> SystemSize;

    /// `drops[s]` is the set of receivers that do **not** get `p_s`'s
    /// round-`round` message. Called once per round, in order.
    fn drops(&mut self, round: Round) -> Vec<IdSet>;

    /// Processes that have crashed *before or during* `round` and take no
    /// further part (empty for pure omission faults).
    fn crashed_by(&self, round: Round) -> IdSet;
}

/// Send-omission faults: a fixed faulty set; each round every message from
/// a faulty sender is independently dropped with probability `drop_prob`.
#[derive(Debug, Clone)]
pub struct RandomOmission {
    n: SystemSize,
    faulty: IdSet,
    drop_prob: f64,
    rng: StdRng,
}

impl RandomOmission {
    /// Creates the injector with `faulty` send-omission-faulty processes.
    ///
    /// # Panics
    ///
    /// Panics if `faulty` covers the whole universe.
    #[must_use]
    pub fn new(n: SystemSize, faulty: IdSet, drop_prob: f64, seed: u64) -> Self {
        assert!(
            faulty.len() < n.get(),
            "at least one process must be correct"
        );
        RandomOmission {
            n,
            faulty,
            drop_prob,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The faulty set.
    #[must_use]
    pub fn faulty(&self) -> IdSet {
        self.faulty
    }
}

impl SyncFaults for RandomOmission {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn drops(&mut self, _round: Round) -> Vec<IdSet> {
        self.n
            .processes()
            .map(|s| {
                if !self.faulty.contains(s) {
                    return IdSet::empty();
                }
                self.n
                    .processes()
                    // A sender always "has" its own message locally.
                    .filter(|&r| r != s && self.rng.gen_bool(self.drop_prob))
                    .collect()
            })
            .collect()
    }

    fn crashed_by(&self, _round: Round) -> IdSet {
        IdSet::empty()
    }
}

/// Crash faults: each faulty process has a crash round; in its crash round
/// it delivers to a random subset of receivers, afterwards to nobody.
#[derive(Debug, Clone)]
pub struct RandomCrash {
    n: SystemSize,
    /// `schedule[i] = Some(r)`: `p_i` crashes in round `r`.
    schedule: Vec<Option<Round>>,
    rng: StdRng,
}

impl RandomCrash {
    /// Creates the injector: each process in `faulty` crashes at a uniform
    /// round in `1..=horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `faulty` covers the whole universe or `horizon == 0`.
    #[must_use]
    pub fn new(n: SystemSize, faulty: IdSet, horizon: u32, seed: u64) -> Self {
        assert!(
            faulty.len() < n.get(),
            "at least one process must be correct"
        );
        assert!(horizon >= 1, "horizon must cover at least one round");
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = n
            .processes()
            .map(|p| {
                faulty
                    .contains(p)
                    .then(|| Round::new(rng.gen_range(1..=horizon)))
            })
            .collect();
        RandomCrash { n, schedule, rng }
    }

    /// Creates the injector from an explicit crash schedule.
    #[must_use]
    pub fn from_schedule(n: SystemSize, schedule: Vec<Option<Round>>, seed: u64) -> Self {
        assert_eq!(schedule.len(), n.get());
        RandomCrash {
            n,
            schedule,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SyncFaults for RandomCrash {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn drops(&mut self, round: Round) -> Vec<IdSet> {
        let n = self.n;
        let universe = IdSet::universe(n);
        self.n
            .processes()
            .map(|s| match self.schedule[s.index()] {
                Some(c) if round > c => universe - IdSet::singleton(s),
                Some(c) if round == c => {
                    // Mid-round crash: an arbitrary subset of receivers is
                    // reached; the rest (never itself) miss out.
                    let others = universe - IdSet::singleton(s);
                    let miss_count = self.rng.gen_range(0..=others.len());
                    others
                        .iter()
                        .choose_multiple(&mut self.rng, miss_count)
                        .into_iter()
                        .collect()
                }
                _ => IdSet::empty(),
            })
            .collect()
    }

    fn crashed_by(&self, round: Round) -> IdSet {
        self.n
            .processes()
            .filter(|&p| matches!(self.schedule[p.index()], Some(c) if c <= round))
            .collect()
    }
}

/// Errors from [`SyncNetSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncSimError {
    /// The protocol vector does not match the system size.
    WrongProcessCount {
        /// Instances supplied.
        supplied: usize,
        /// System size.
        expected: usize,
    },
    /// `max_rounds` elapsed before every live process decided.
    RoundLimitExceeded {
        /// The configured limit.
        max_rounds: u32,
    },
}

impl fmt::Display for SyncSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncSimError::WrongProcessCount { supplied, expected } => {
                write!(
                    f,
                    "{supplied} processes supplied for a system of {expected}"
                )
            }
            SyncSimError::RoundLimitExceeded { max_rounds } => {
                write!(f, "no full decision after {max_rounds} synchronous rounds")
            }
        }
    }
}

impl std::error::Error for SyncSimError {}

/// Outcome of a synchronous run.
#[derive(Debug, Clone)]
pub struct SyncRunReport<O> {
    /// `outputs[i]` is `Some` once `p_i` decided (crashed processes that
    /// decided before crashing keep their decision).
    pub outputs: Vec<Option<O>>,
    /// The extracted RRFD view: `D(i,r)` = senders `p_i` missed in round `r`.
    pub pattern: FaultPattern,
    /// Processes crashed during the run.
    pub crashed: IdSet,
    /// Rounds executed.
    pub rounds: u32,
}

/// The synchronous simulator.
///
/// # Examples
///
/// Fault-free flood for two rounds:
///
/// ```
/// use rrfd_core::{Control, Delivery, IdSet, Round, RoundProtocol, SystemSize};
/// use rrfd_sims::sync_net::{RandomOmission, SyncNetSim};
///
/// struct TwoRounds;
/// impl RoundProtocol for TwoRounds {
///     type Msg = ();
///     type Output = u32;
///     fn emit(&mut self, _r: Round) {}
///     fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<u32> {
///         if d.round.get() >= 2 { Control::Decide(d.round.get()) } else { Control::Continue }
///     }
/// }
///
/// let n = SystemSize::new(3).unwrap();
/// let faults = RandomOmission::new(n, IdSet::empty(), 0.0, 0);
/// let report = SyncNetSim::new(n)
///     .run((0..3).map(|_| TwoRounds).collect(), faults)
///     .unwrap();
/// assert_eq!(report.rounds, 2);
/// assert!(report.pattern.cumulative_union().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SyncNetSim {
    n: SystemSize,
    max_rounds: u32,
    obs: Obs,
}

impl SyncNetSim {
    /// Creates a simulator for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        SyncNetSim {
            n,
            max_rounds: 10_000,
            obs: Obs::noop(),
        }
    }

    /// Overrides the round budget.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Attaches an observability handle: every run then counts its rounds
    /// (`rrfd_sim_rounds_total`) and, per receiver, the messages it
    /// delivered (`rrfd_sim_deliveries_total`). The default is
    /// [`Obs::noop`], which records nothing.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs until every live process decided.
    ///
    /// # Errors
    ///
    /// See [`SyncSimError`].
    pub fn run<P, F>(
        &self,
        mut protocols: Vec<P>,
        mut faults: F,
    ) -> Result<SyncRunReport<P::Output>, SyncSimError>
    where
        P: RoundProtocol,
        F: SyncFaults,
    {
        let n = self.n.get();
        if protocols.len() != n {
            return Err(SyncSimError::WrongProcessCount {
                supplied: protocols.len(),
                expected: n,
            });
        }

        let mut outputs: Vec<Option<P::Output>> = vec![None; n];
        let mut pattern = FaultPattern::new(self.n);
        // Round-scratch emission table, reused so steady-state rounds do
        // not allocate; every live recipient borrows it through a masked
        // `Delivery` view instead of receiving per-recipient clones.
        let mut messages: Vec<Option<P::Msg>> = Vec::with_capacity(n);

        for round_no in 1..=self.max_rounds {
            let round = Round::new(round_no);
            let crashed = faults.crashed_by(round);
            // Crashing *this* round still emits (partial sends handled by
            // the injector's drops); crashed in earlier rounds do not.
            let silent = faults.crashed_by(Round::new(round_no.saturating_sub(1).max(1)));
            let silent = if round_no == 1 {
                IdSet::empty()
            } else {
                silent
            };

            messages.clear();
            messages.extend(protocols.iter_mut().enumerate().map(|(i, p)| {
                let id = ProcessId::new(i);
                (!silent.contains(id)).then(|| p.emit(round))
            }));

            let drops = faults.drops(round);
            debug_assert_eq!(drops.len(), n);

            let mut round_faults = RoundFaults::none(self.n);
            for i in 0..n {
                let me = ProcessId::new(i);
                if crashed.contains(me) && silent.contains(me) {
                    // Long-crashed processes neither receive nor record; by
                    // convention their D(i,r) is the silent set minus
                    // themselves, matching the crash predicate's
                    // self-exemption in eq. 2 and its self-trust clause.
                    round_faults.set(me, silent - IdSet::singleton(me));
                    continue;
                }
                // A message is missed iff its sender was silent (so never
                // emitted into the shared table) or the injector dropped
                // the send to `me` — the same set the per-recipient clone
                // plane produced, computed without materialising it.
                let suspected: IdSet = (0..n)
                    .filter(|&s| {
                        let sender = ProcessId::new(s);
                        silent.contains(sender) || drops[s].contains(me)
                    })
                    .map(ProcessId::new)
                    .collect();
                round_faults.set(me, suspected);
                let heard = (n - suspected.len()) as u64;
                self.obs
                    .add(names::SIM_DELIVERIES, Labels::process(i), heard);
                let verdict = protocols[i].deliver(Delivery::new(round, me, &messages, suspected));
                if let Control::Decide(v) = verdict {
                    outputs[i].get_or_insert(v);
                }
            }

            pattern.push(round_faults);
            self.obs.add(names::SIM_ROUNDS, Labels::GLOBAL, 1);

            let all_live_decided =
                (0..n).all(|i| outputs[i].is_some() || crashed.contains(ProcessId::new(i)));
            if all_live_decided {
                return Ok(SyncRunReport {
                    outputs,
                    pattern,
                    crashed,
                    rounds: round_no,
                });
            }
        }

        Err(SyncSimError::RoundLimitExceeded {
            max_rounds: self.max_rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn ids(xs: &[usize]) -> IdSet {
        xs.iter().map(|&i| ProcessId::new(i)).collect()
    }

    /// Decides after `rounds` rounds with the set of processes heard in the
    /// final round.
    struct HeardAt {
        rounds: u32,
    }

    impl RoundProtocol for HeardAt {
        type Msg = ();
        type Output = IdSet;
        fn emit(&mut self, _r: Round) {}
        fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<IdSet> {
            if d.round.get() >= self.rounds {
                Control::Decide(d.heard_from())
            } else {
                Control::Continue
            }
        }
    }

    #[test]
    fn omission_runs_satisfy_eq1() {
        use rrfd_core::RrfdPredicate;
        use rrfd_models::predicates::SendOmission;
        let size = n(6);
        let model = SendOmission::new(size, 2);
        for seed in 0..10u64 {
            let faulty = ids(&[1, 4]);
            let faults = RandomOmission::new(size, faulty, 0.4, seed);
            let protos: Vec<_> = (0..6).map(|_| HeardAt { rounds: 5 }).collect();
            let report = SyncNetSim::new(size).run(protos, faults).unwrap();
            assert!(
                model.admits_pattern(&report.pattern),
                "seed {seed}: extracted pattern broke eq. 1"
            );
            assert!(report.pattern.cumulative_union().is_subset(faulty));
        }
    }

    #[test]
    fn crash_runs_crash_permanently() {
        let size = n(5);
        let schedule = vec![None, Some(Round::new(2)), None, None, None];
        let faults = RandomCrash::from_schedule(size, schedule, 3);
        let protos: Vec<_> = (0..5).map(|_| HeardAt { rounds: 4 }).collect();
        let report = SyncNetSim::new(size).run(protos, faults).unwrap();
        assert_eq!(report.crashed, ids(&[1]));
        // From round 3 on, everyone misses p1.
        for r in 3..=4 {
            let rf = report.pattern.round(Round::new(r)).unwrap();
            for i in size.processes() {
                if i != ProcessId::new(1) {
                    assert!(rf.of(i).contains(ProcessId::new(1)));
                }
            }
        }
        // p1 decided nothing (it crashed before its decision round).
        assert!(report.outputs[1].is_none());
        assert!(report.outputs[0].is_some());
    }

    #[test]
    fn an_observed_run_counts_its_rounds_and_deliveries() {
        let size = n(4);
        let faults = RandomOmission::new(size, ids(&[2]), 0.5, 7);
        let protos: Vec<_> = (0..4).map(|_| HeardAt { rounds: 3 }).collect();
        let obs = Obs::logical();
        let report = SyncNetSim::new(size)
            .obs(obs.clone())
            .run(protos, faults)
            .unwrap();
        let total = |metric: &str| -> u64 {
            obs.snapshot()
                .entries()
                .iter()
                .filter(|e| e.metric == metric)
                .map(|e| match e.value {
                    rrfd_obs::MetricValue::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(total(names::SIM_ROUNDS), 3);
        let missed: usize = report
            .pattern
            .iter()
            .map(|(_, rf)| rf.as_slice().iter().map(|d| d.len()).sum::<usize>())
            .sum();
        assert_eq!(total(names::SIM_DELIVERIES), (3 * 16 - missed) as u64);
        assert_eq!(report.rounds, 3);
    }

    #[test]
    fn fault_free_run_has_empty_pattern() {
        let size = n(4);
        let faults = RandomOmission::new(size, IdSet::empty(), 0.9, 0);
        let protos: Vec<_> = (0..4).map(|_| HeardAt { rounds: 3 }).collect();
        let report = SyncNetSim::new(size).run(protos, faults).unwrap();
        assert!(report.pattern.cumulative_union().is_empty());
        for out in report.outputs {
            assert_eq!(out.unwrap(), IdSet::universe(size));
        }
    }

    #[test]
    fn round_limit_is_reported() {
        let size = n(2);
        let faults = RandomOmission::new(size, IdSet::empty(), 0.0, 0);
        let protos: Vec<_> = (0..2).map(|_| HeardAt { rounds: 100 }).collect();
        let err = SyncNetSim::new(size)
            .max_rounds(5)
            .run(protos, faults)
            .unwrap_err();
        assert_eq!(err, SyncSimError::RoundLimitExceeded { max_rounds: 5 });
    }

    #[test]
    fn mid_crash_round_may_deliver_partially() {
        // Over many seeds, a process crashing at round 1 sometimes reaches
        // a proper subset of receivers — the behaviour eq. 2 tolerates in
        // the crash round itself.
        let size = n(5);
        let mut saw_partial = false;
        for seed in 0..30u64 {
            let schedule = vec![Some(Round::new(1)), None, None, None, None];
            let faults = RandomCrash::from_schedule(size, schedule, seed);
            let protos: Vec<_> = (0..5).map(|_| HeardAt { rounds: 2 }).collect();
            let report = SyncNetSim::new(size).run(protos, faults).unwrap();
            let r1 = report.pattern.round(Round::new(1)).unwrap();
            let missed_by: usize = size
                .processes()
                .filter(|&i| r1.of(i).contains(ProcessId::new(0)))
                .count();
            if missed_by > 0 && missed_by < 4 {
                saw_partial = true;
            }
        }
        assert!(saw_partial, "crash rounds never delivered partially");
    }
}
