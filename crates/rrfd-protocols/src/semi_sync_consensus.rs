//! §5: consensus in **two steps** in the semi-synchronous model of Dolev,
//! Dwork and Stockmeyer — resolving their open problem on the existence of
//! an O(1)-time algorithm.
//!
//! The 2-step round primitive (Theorem 5.1): a process's execution occurs
//! in blocks of two atomic steps. At its first step of round `r`, if the
//! process has already received a round-`r` message it *suppresses* its own
//! broadcast (acting as if it omitted to send); otherwise it broadcasts its
//! round-`r` message. At the end of its second step it sets `D(i,r)` to the
//! processes from which no round-`r` message arrived. The first
//! receive/send acts as an atomic read-modify-write, and synchronous
//! communication delivers the round's (unique) broadcast to everyone before
//! their round ends — so every process computes the *same* `D(i,r)`:
//! equation 5 holds, the k = 1 uncertainty detector exists, and Theorem
//! 3.1's one-round algorithm gives consensus in two steps.
//!
//! [`TwoStepConsensus`] implements the single-round version;
//! [`RepeatedRounds`] iterates the primitive for `R` rounds (flood-min over
//! identical views), which doubles as the O(n)-step DDS-style baseline the
//! E10 experiment measures against (`R = n`, hence `2n` steps).

use rrfd_core::task::Value;
use rrfd_core::{Control, IdSet, ProcessId, SystemSize};
use rrfd_sims::semi_sync::SemiSyncProcess;
use std::sync::Arc;

/// A round-tagged broadcast of the 2-step primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundBroadcast {
    /// The 2-step round this message belongs to.
    pub round: u32,
    /// The sender's current value.
    pub value: Value,
    /// The sender (explicit, so suppressed processes can attribute
    /// buffered messages even after crashes).
    pub sender: ProcessId,
}

/// The §5 two-step consensus process.
#[derive(Debug, Clone)]
pub struct TwoStepConsensus {
    me: ProcessId,
    n: SystemSize,
    value: Value,
    step_in_round: u32,
    /// Round-1 messages received so far, by sender.
    received: Vec<Option<Value>>,
    /// The extracted `D(me, 1)` (for the equation-5 check), filled at
    /// decision time.
    suspected: Option<IdSet>,
}

impl TwoStepConsensus {
    /// Creates the process proposing `value`.
    #[must_use]
    pub fn new(n: SystemSize, me: ProcessId, value: Value) -> Self {
        TwoStepConsensus {
            me,
            n,
            value,
            step_in_round: 0,
            received: vec![None; n.get()],
            suspected: None,
        }
    }

    /// The extracted `D(me, 1)`, available after the decision.
    #[must_use]
    pub fn suspected(&self) -> Option<IdSet> {
        self.suspected
    }

    fn absorb(&mut self, received: &[(ProcessId, Arc<RoundBroadcast>)]) {
        for (_, msg) in received {
            if msg.round == 1 {
                self.received[msg.sender.index()] = Some(msg.value);
            }
        }
    }

    fn heard(&self) -> IdSet {
        self.received
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .map(|(j, _)| ProcessId::new(j))
            .collect()
    }
}

impl SemiSyncProcess for TwoStepConsensus {
    type Msg = RoundBroadcast;
    type Output = Value;

    fn step(
        &mut self,
        received: &[(ProcessId, Arc<RoundBroadcast>)],
    ) -> (Option<RoundBroadcast>, Control<Value>) {
        self.absorb(received);
        self.step_in_round += 1;
        match self.step_in_round {
            1 => {
                // The atomic read-modify-write: broadcast only if no
                // round-1 message has arrived yet.
                if self.heard().is_empty() {
                    (
                        Some(RoundBroadcast {
                            round: 1,
                            value: self.value,
                            sender: self.me,
                        }),
                        Control::Continue,
                    )
                } else {
                    (None, Control::Continue)
                }
            }
            2 => {
                let heard = self.heard();
                self.suspected = Some(heard.complement(self.n));
                let winner = heard
                    .min()
                    .expect("synchronous delivery guarantees the round broadcast arrived");
                let value = self.received[winner.index()].expect("winner was heard");
                (None, Control::Decide(value))
            }
            _ => (None, Control::Continue),
        }
    }
}

/// The iterated 2-step primitive: `rounds` rounds of identical-view
/// flood-min, deciding after the last round. With `rounds = n` this is the
/// 2n-step baseline shape of the original DDS algorithm.
#[derive(Debug)]
pub struct RepeatedRounds {
    me: ProcessId,
    value: Value,
    rounds: u32,
    current_round: u32,
    step_in_round: u32,
    received: Vec<Option<Value>>,
    /// Early messages for future rounds.
    early: Vec<RoundBroadcast>,
}

impl Clone for RepeatedRounds {
    fn clone(&self) -> Self {
        RepeatedRounds {
            received: self.received.clone(),
            early: self.early.clone(),
            ..*self
        }
    }

    /// Reuses `self`'s buffers: the DPOR explorer rewinds its processes
    /// to the root state before every work item.
    fn clone_from(&mut self, source: &Self) {
        let received = std::mem::take(&mut self.received);
        let early = std::mem::take(&mut self.early);
        *self = RepeatedRounds {
            received,
            early,
            ..*source
        };
        self.received.clone_from(&source.received);
        self.early.clone_from(&source.early);
    }
}

impl RepeatedRounds {
    /// Creates the process proposing `value`, running `rounds` 2-step
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn new(n: SystemSize, me: ProcessId, value: Value, rounds: u32) -> Self {
        assert!(rounds >= 1, "at least one round required");
        RepeatedRounds {
            me,
            value,
            rounds,
            current_round: 1,
            step_in_round: 0,
            received: vec![None; n.get()],
            early: Vec::new(),
        }
    }

    fn absorb(&mut self, received: &[(ProcessId, Arc<RoundBroadcast>)]) {
        for (_, msg) in received {
            self.note(**msg);
        }
        let pending = std::mem::take(&mut self.early);
        for msg in pending {
            self.note(msg);
        }
    }

    fn note(&mut self, msg: RoundBroadcast) {
        use std::cmp::Ordering;
        match msg.round.cmp(&self.current_round) {
            Ordering::Equal => self.received[msg.sender.index()] = Some(msg.value),
            Ordering::Greater => self.early.push(msg),
            Ordering::Less => {}
        }
    }

    fn any_current(&self) -> bool {
        self.received.iter().any(Option::is_some)
    }
}

impl SemiSyncProcess for RepeatedRounds {
    type Msg = RoundBroadcast;
    type Output = Value;

    fn step(
        &mut self,
        received: &[(ProcessId, Arc<RoundBroadcast>)],
    ) -> (Option<RoundBroadcast>, Control<Value>) {
        self.absorb(received);
        self.step_in_round += 1;
        if self.step_in_round == 1 {
            if self.any_current() {
                return (None, Control::Continue);
            }
            return (
                Some(RoundBroadcast {
                    round: self.current_round,
                    value: self.value,
                    sender: self.me,
                }),
                Control::Continue,
            );
        }

        // Second step: adopt the value of the lowest-id heard sender —
        // Theorem 3.1's rule with k = 1. Every process hears exactly the
        // round's unique broadcaster, so all values coincide after this.
        if let Some(v) = self.received.iter().flatten().next() {
            self.value = *v;
        }
        if self.current_round >= self.rounds {
            return (None, Control::Decide(self.value));
        }
        self.current_round += 1;
        self.step_in_round = 0;
        self.received.fill(None);
        // Re-file buffered early messages for the new round.
        let pending = std::mem::take(&mut self.early);
        for msg in pending {
            self.note(msg);
        }
        (None, Control::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::task::KSetAgreement;
    use rrfd_sims::semi_sync::SemiSyncSim;
    use rrfd_sims::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn inputs(count: usize) -> Vec<Value> {
        (0..count as u64).map(|i| 500 + i).collect()
    }

    #[test]
    fn two_steps_suffice_under_fair_schedules() {
        let size = n(5);
        let ins = inputs(5);
        let procs: Vec<_> = size
            .processes()
            .map(|p| TwoStepConsensus::new(size, p, ins[p.index()]))
            .collect();
        let report = SemiSyncSim::new(size)
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        assert!(report.all_correct_decided());
        assert_eq!(report.max_steps_to_decide(), Some(2), "§5's headline bound");
        let values: Vec<Value> = report
            .outputs
            .iter()
            .map(|o| o.as_ref().unwrap().0)
            .collect();
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "consensus violated"
        );
    }

    #[test]
    fn consensus_holds_under_random_schedules_and_crashes() {
        let size = n(6);
        let ins = inputs(6);
        let task = KSetAgreement::consensus();
        for seed in 0..40u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| TwoStepConsensus::new(size, p, ins[p.index()]))
                .collect();
            let mut sched = RandomScheduler::new(seed, 5).crash_prob(0.05);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
            assert!(report.all_correct_decided(), "seed {seed}");
            let outs: Vec<Option<Value>> = report
                .outputs
                .iter()
                .map(|o| o.as_ref().map(|&(v, _)| v))
                .collect();
            task.check(&ins, &outs)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            // Every decider used exactly 2 steps.
            for out in report.outputs.iter().flatten() {
                assert_eq!(out.1, 2, "seed {seed}");
            }
        }
    }

    #[test]
    fn views_are_identical_across_deciders() {
        // Theorem 5.1 / equation 5: every decider extracted the same D.
        let size = n(6);
        let ins = inputs(6);
        for seed in 0..30u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| TwoStepConsensus::new(size, p, ins[p.index()]))
                .collect();
            let mut sched = RandomScheduler::new(seed, 3).crash_prob(0.04);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
            let views: Vec<IdSet> = report
                .processes
                .iter()
                .filter_map(TwoStepConsensus::suspected)
                .collect();
            assert!(
                views.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: equation 5 violated: {views:?}"
            );
        }
    }

    #[test]
    fn exhaustive_proof_for_small_systems() {
        // Explore EVERY semi-synchronous schedule (including every
        // possible crash placement within the budget) for n = 2 and 3:
        // Theorem 5.1 and the 2-step consensus, proved by enumeration.
        // DPOR checks one run per trace class; the class counts are
        // pinned.
        use rrfd_sims::dpor::{explore_semi_sync_dpor, DporConfig};
        use rrfd_sims::semi_sync::SemiSyncSim;

        for (nv, crashes, classes) in [(2usize, 1usize, 7usize), (3, 1, 24), (3, 2, 54)] {
            let size = n(nv);
            let ins = inputs(nv);
            let task = KSetAgreement::consensus();
            let sim = SemiSyncSim::new(size);
            let make = || {
                size.processes()
                    .map(|p| TwoStepConsensus::new(size, p, ins[p.index()]))
                    .collect::<Vec<_>>()
            };
            let total = explore_semi_sync_dpor(
                &sim,
                crashes,
                make,
                |report| {
                    // Consensus among deciders.
                    let outs: Vec<Option<Value>> = report
                        .outputs
                        .iter()
                        .map(|o| o.as_ref().map(|&(v, _)| v))
                        .collect();
                    task.check(&ins, &outs)
                        .map_err(|v| format!("n={nv} crashes={crashes}: {v}"))?;
                    // Equation 5: identical views among deciders.
                    let views: Vec<IdSet> = report
                        .processes
                        .iter()
                        .filter_map(TwoStepConsensus::suspected)
                        .collect();
                    if !views.windows(2).all(|w| w[0] == w[1]) {
                        return Err(format!("n={nv} crashes={crashes}: {views:?}"));
                    }
                    // Two steps per decider.
                    for out in report.outputs.iter().flatten() {
                        if out.1 != 2 {
                            return Err(format!(
                                "n={nv} crashes={crashes}: \
                                 decided in {} steps, expected 2",
                                out.1
                            ));
                        }
                    }
                    Ok(())
                },
                &DporConfig::new(1),
            )
            .unwrap_or_else(|err| panic!("{err}"));
            assert_eq!(
                total.schedules, classes,
                "n={nv} crashes={crashes}: trace classes explored"
            );
        }
    }

    #[test]
    fn repeated_rounds_match_single_round_outcome() {
        let size = n(5);
        let ins = inputs(5);
        let rounds = 5; // 2n steps: the DDS baseline shape.
        let procs: Vec<_> = size
            .processes()
            .map(|p| RepeatedRounds::new(size, p, ins[p.index()], rounds))
            .collect();
        let report = SemiSyncSim::new(size)
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        assert!(report.all_correct_decided());
        assert_eq!(report.max_steps_to_decide(), Some(2 * u64::from(rounds)));
        let values: Vec<Value> = report
            .outputs
            .iter()
            .map(|o| o.as_ref().unwrap().0)
            .collect();
        assert!(values.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn repeated_rounds_survive_random_schedules() {
        let size = n(4);
        let ins = inputs(4);
        let task = KSetAgreement::consensus();
        for seed in 0..25u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| RepeatedRounds::new(size, p, ins[p.index()], 4))
                .collect();
            let mut sched = RandomScheduler::new(seed, 3).crash_prob(0.03);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
            assert!(report.all_correct_decided(), "seed {seed}");
            let outs: Vec<Option<Value>> = report
                .outputs
                .iter()
                .map(|o| o.as_ref().map(|&(v, _)| v))
                .collect();
            task.check(&ins, &outs)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }
}
