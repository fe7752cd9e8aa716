//! The round overlay of §2 item 3: communication-closed layers over the
//! asynchronous network.
//!
//! "System N implements A by simulating rounds, discarding messages that
//! have been missed, and buffering messages which are too early. Each round
//! a process waits until it receives `n − f` messages of the round."
//!
//! [`RoundedAsync`] wraps any [`rrfd_core::RoundProtocol`] as an
//! [`AsyncProcess`]: it tags each message with its round, buffers early
//! arrivals, discards late ones, and advances when `n − f` round-`r`
//! messages (its own included) have arrived. Crucially it records the set
//! `D(i,r)` of processes it had *not* heard from at the moment of
//! advancing — the extraction experiment E1 then machine-checks that these
//! sets satisfy the eq. 3 predicate `|D(i,r)| ≤ f`.

use crate::async_net::{AsyncProcess, Outbox};
use rrfd_core::{
    Control, Delivery, IdSet, ProcessId, Round, RoundFaults, RoundProtocol, SystemSize,
};
use std::collections::BTreeMap;

/// A message of the round overlay: the inner payload tagged with its round.
#[derive(Debug, Clone)]
pub struct RoundMsg<M> {
    /// The round this payload belongs to.
    pub round: Round,
    /// The inner protocol's message.
    pub payload: M,
}

/// Wraps a [`RoundProtocol`] for execution on the asynchronous network.
#[derive(Debug)]
pub struct RoundedAsync<P: RoundProtocol> {
    me: ProcessId,
    n: SystemSize,
    f: usize,
    inner: P,
    round: Round,
    /// Payloads received for the *current* round, indexed by sender.
    current: Vec<Option<P::Msg>>,
    /// Early messages for future rounds.
    early: BTreeMap<Round, Vec<(ProcessId, P::Msg)>>,
    /// The recorded `D(i,r)` for each completed round.
    fault_log: Vec<IdSet>,
    decided: bool,
}

impl<P: RoundProtocol> RoundedAsync<P> {
    /// Wraps `inner` for a system of `n` processes tolerating `f` crashes.
    ///
    /// # Panics
    ///
    /// Panics unless `f < n`.
    #[must_use]
    pub fn new(me: ProcessId, n: SystemSize, f: usize, inner: P) -> Self {
        assert!(f < n.get(), "round overlay requires f < n");
        RoundedAsync {
            me,
            n,
            f,
            inner,
            round: Round::FIRST,
            current: vec![None; n.get()],
            early: BTreeMap::new(),
            fault_log: Vec::new(),
            decided: false,
        }
    }

    /// The `D(me, r)` sets recorded so far, one per completed round.
    #[must_use]
    pub fn fault_log(&self) -> &[IdSet] {
        &self.fault_log
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// How many round-`r` messages have arrived.
    fn arrived(&self) -> usize {
        self.current.iter().filter(|m| m.is_some()).count()
    }

    /// Completes the current round if the `n − f` quorum is met, feeding
    /// the inner protocol and emitting the next round's message. Loops in
    /// case buffered early messages immediately complete the next round
    /// too.
    fn try_advance(&mut self, out: &mut Outbox<RoundMsg<P::Msg>>) -> Control<P::Output> {
        let mut decision = Control::Continue;
        while self.arrived() >= self.n.get() - self.f {
            // D(i,r): whoever had not arrived when the quorum closed.
            let suspected: IdSet = self
                .current
                .iter()
                .enumerate()
                .filter(|(_, m)| m.is_none())
                .map(|(j, _)| ProcessId::new(j))
                .collect();
            self.fault_log.push(suspected);

            let received = std::mem::replace(&mut self.current, vec![None; self.n.get()]);
            let verdict = self
                .inner
                .deliver(Delivery::new(self.round, self.me, &received, suspected));
            if let Control::Decide(v) = verdict {
                if !self.decided {
                    self.decided = true;
                    decision = Control::Decide(v);
                }
            }

            self.round = self.round.next();
            let payload = self.inner.emit(self.round);
            out.broadcast(RoundMsg {
                round: self.round,
                payload,
            });
            // Replay buffered messages for the new current round.
            if let Some(buffered) = self.early.remove(&self.round) {
                for (from, payload) in buffered {
                    self.current[from.index()] = Some(payload);
                }
            }
        }
        decision
    }
}

impl<P: RoundProtocol> AsyncProcess for RoundedAsync<P> {
    type Msg = RoundMsg<P::Msg>;
    type Output = P::Output;

    fn on_start(&mut self, out: &mut Outbox<Self::Msg>) {
        let payload = self.inner.emit(Round::FIRST);
        out.broadcast(RoundMsg {
            round: Round::FIRST,
            payload,
        });
    }

    fn on_message(
        &mut self,
        _now: u64,
        from: ProcessId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    ) -> Control<Self::Output> {
        use std::cmp::Ordering;
        match msg.round.cmp(&self.round) {
            Ordering::Less => {} // late: discard
            Ordering::Equal => {
                self.current[from.index()] = Some(msg.payload);
            }
            Ordering::Greater => {
                self.early
                    .entry(msg.round)
                    .or_default()
                    .push((from, msg.payload));
            }
        }
        self.try_advance(out)
    }
}

/// Assembles per-round [`RoundFaults`] views from the per-process fault
/// logs of a finished run. Every process must have recorded all `rounds`
/// requested rounds — pass the *minimum* log length over the processes of
/// interest (crashed processes have shorter logs and should be excluded
/// from the request, or the call panics).
///
/// Returns `rounds` many [`RoundFaults`].
///
/// # Panics
///
/// Panics if some requested round was not recorded by some process.
#[must_use]
pub fn collect_fault_rounds<P: RoundProtocol>(
    n: SystemSize,
    processes: &[RoundedAsync<P>],
    rounds: usize,
) -> Vec<RoundFaults> {
    (0..rounds)
        .map(|r| {
            let sets = processes
                .iter()
                .map(|p| {
                    *p.fault_log()
                        .get(r)
                        .unwrap_or_else(|| panic!("{} did not record round {}", p.me, r + 1))
                })
                .collect();
            RoundFaults::from_sets(n, sets)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_net::AsyncNetSim;
    use crate::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    /// Inner protocol: gossip for `rounds` rounds, then decide the count of
    /// distinct processes ever heard from.
    struct CountHeard {
        rounds: u32,
        heard: IdSet,
    }

    impl CountHeard {
        fn new(rounds: u32) -> Self {
            CountHeard {
                rounds,
                heard: IdSet::empty(),
            }
        }
    }

    impl RoundProtocol for CountHeard {
        type Msg = ();
        type Output = usize;
        fn emit(&mut self, _round: Round) {}
        fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<usize> {
            self.heard |= d.heard_from();
            if d.round.get() >= self.rounds {
                Control::Decide(self.heard.len())
            } else {
                Control::Continue
            }
        }
    }

    #[test]
    fn rounds_complete_on_a_fifo_network() {
        let size = n(4);
        let procs: Vec<_> = size
            .processes()
            .map(|p| RoundedAsync::new(p, size, 1, CountHeard::new(3)))
            .collect();
        let report = AsyncNetSim::new(size)
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        assert!(report.all_correct_decided());
        for p in &report.processes {
            assert!(p.fault_log().len() >= 3);
        }
    }

    #[test]
    fn extracted_faults_satisfy_eq3() {
        let size = n(5);
        let f = 2;
        for seed in 0..15u64 {
            let procs: Vec<_> = size
                .processes()
                .map(|p| RoundedAsync::new(p, size, f, CountHeard::new(4)))
                .collect();
            let mut sched = RandomScheduler::new(seed, f).crash_prob(0.01);
            let report = AsyncNetSim::new(size).run(procs, &mut sched).unwrap();

            // Check |D(i,r)| ≤ f for every recorded round of every correct
            // process (crashed ones may have partial logs; eq. 3 is
            // per-process so check them all anyway).
            for p in &report.processes {
                for d in p.fault_log() {
                    assert!(d.len() <= f, "seed {seed}: |D| = {} > f = {f}", d.len());
                }
            }
        }
    }

    #[test]
    fn late_messages_are_discarded_early_ones_buffered() {
        // Drive the overlay by hand: deliver a round-2 message first, then
        // complete round 1, and check the early message counts for round 2.
        let size = n(3);
        let mut p = RoundedAsync::new(ProcessId::new(0), size, 1, CountHeard::new(2));
        let mut out = Outbox::new(size);
        p.on_start(&mut out);

        // Early round-2 message from p1.
        let mut sink = Outbox::new(size);
        let verdict = p.on_message(
            1,
            ProcessId::new(1),
            RoundMsg {
                round: Round::new(2),
                payload: (),
            },
            &mut sink,
        );
        assert!(matches!(verdict, Control::Continue));
        assert_eq!(p.round, Round::FIRST);

        // Round-1 messages from self and p1: quorum n − f = 2 met after
        // two arrivals, advancing to round 2, where the buffered message
        // counts immediately: quorum for round 2 needs one more (own).
        for sender in [0usize, 1] {
            let _ = p.on_message(
                2,
                ProcessId::new(sender),
                RoundMsg {
                    round: Round::FIRST,
                    payload: (),
                },
                &mut sink,
            );
        }
        assert_eq!(p.round.get(), 2);
        assert_eq!(p.arrived(), 1, "buffered early message was replayed");

        // A late round-1 message is discarded silently.
        let before = p.arrived();
        let _ = p.on_message(
            3,
            ProcessId::new(2),
            RoundMsg {
                round: Round::FIRST,
                payload: (),
            },
            &mut sink,
        );
        assert_eq!(p.arrived(), before);
    }

    #[test]
    fn collect_assembles_per_round_views() {
        let size = n(3);
        let procs: Vec<_> = size
            .processes()
            .map(|p| RoundedAsync::new(p, size, 0, CountHeard::new(2)))
            .collect();
        let report = AsyncNetSim::new(size)
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        let rounds = collect_fault_rounds(size, &report.processes, 2);
        assert_eq!(rounds.len(), 2);
        for rf in rounds {
            // f = 0: nobody may be suspected.
            assert!(rf.union().is_empty());
        }
    }
}
