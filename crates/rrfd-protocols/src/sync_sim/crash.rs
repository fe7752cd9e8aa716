//! Theorem 4.3: simulating synchronous **crash**-fault rounds on
//! asynchronous atomic-snapshot shared memory with at most `k` crash
//! failures — three asynchronous rounds per simulated round.
//!
//! Per simulated round `r`, process `p_i`:
//!
//! 1. **Value phase** — writes its simulated round-`r` value to the round's
//!    value bank, then snapshots until at most `k` values are missing. The
//!    missing set `M_i` joins its *proposed-faulty* set `F_i` (snapshot
//!    containment makes `∪_i M_i ≤ k` fresh suspects per round).
//! 2. **Adopt-commit phase** — runs `n` adopt-commit instances, one per
//!    process `p_j`, proposing `p_j-faulty` if `j ∈ F_i` and `p_j-alive`
//!    (with `p_j`'s value) otherwise.
//! 3. **Resolution** — if the instance output is *commit faulty*, `p_j`'s
//!    round-`r` message is `⊥` (that is `j ∈ D(i,r)`); if *adopt faulty*,
//!    `p_j` joins `F_i` but its value is recovered from the value bank
//!    (some process proposed alive, hence the value was written); if the
//!    output is alive, the carried value is used.
//!
//! The correctness argument (Theorem 4.3's proof, machine-checked here):
//! `p_j` appears to fail at round `r` only if someone commits it faulty; by
//! adopt-commit agreement everyone then adopts-or-commits faulty, so at
//! round `r + 1` every process proposes `p_j-faulty`, adopt-commit
//! convergence makes everyone commit, and `p_j` is universally suspected
//! from then on — exactly equation 2. Each simulated round adds at most
//! `k` processes to `∪_i F_i`, so `⌊f/k⌋` rounds respect the footprint
//! bound `f`.

use crate::adopt_commit::{AcBank, AcCell, AcObs, AcOp, AcStep, AdoptCommitMachine};
use rrfd_core::task::{Grade, Value};
use rrfd_core::{Control, Delivery, IdSet, ProcessId, Round, RoundProtocol, SystemSize};
use rrfd_sims::shared_mem::{Action, MemProcess, Observation};

/// The register-cell type of the simulation's memory: simulated round
/// values and adopt-commit cells share one memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCell {
    /// A simulated round-`r` value in a value bank.
    Val(Value),
    /// An adopt-commit phase-1 proposal (`FAULTY_SENTINEL` = "p_j-faulty").
    Prop(Value),
    /// An adopt-commit phase-2 vote.
    Vote(Grade, Value),
}

/// The adopt-commit input standing for "p_j-faulty". Simulated protocols
/// must not emit this value.
pub const FAULTY_SENTINEL: Value = Value::MAX;

/// What the simulation hands back when the inner protocol decides.
#[derive(Debug, Clone)]
pub struct CrashSimOutput<O> {
    /// The inner protocol's decision.
    pub decision: O,
    /// The simulated `D(i,r)` sets, one per completed simulated round.
    pub fault_log: Vec<IdSet>,
}

#[derive(Debug)]
enum Phase {
    /// About to write this round's simulated value.
    WriteValue,
    /// Snapshotting the value bank until ≤ k missing.
    ValueSnap,
    /// Driving the adopt-commit instance for process `j`.
    Ac {
        j: usize,
        machine: AdoptCommitMachine,
    },
    /// Reading the value bank cell of `j` to recover an adopt-faulty value.
    Recover { j: usize },
    /// Inner protocol decided; simulation halts.
    Finished,
}

/// The Theorem 4.3 simulation as a shared-memory step machine wrapping any
/// [`RoundProtocol`] with `u64` messages.
#[derive(Debug)]
pub struct CrashSim<P: RoundProtocol<Msg = Value>> {
    me: ProcessId,
    n: SystemSize,
    k: usize,
    inner: P,
    round: Round,
    phase: Phase,
    /// Processes this process proposes to have crashed.
    proposed_faulty: IdSet,
    /// The snapshot view of this round's value bank.
    view: Vec<Option<Value>>,
    /// Resolved per-sender round values (`None` = ⊥, i.e. `D(i,r)`).
    resolved: Vec<Option<Value>>,
    /// Recorded `D(i,r)` per completed round.
    fault_log: Vec<IdSet>,
    /// This round's own emitted value (always self-delivered: a process
    /// knows its own message through its local state, §1).
    my_value: Value,
    max_rounds: u32,
}

impl<P: RoundProtocol<Msg = Value>> CrashSim<P> {
    /// Wraps `inner` for process `me` in a system of `n` processes over
    /// snapshot memory tolerating `k` crashes, simulating at most
    /// `max_rounds` synchronous rounds (this fixes the memory layout).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k < n` and `max_rounds ≥ 1`.
    #[must_use]
    pub fn new(me: ProcessId, n: SystemSize, k: usize, max_rounds: u32, inner: P) -> Self {
        assert!(k >= 1 && k < n.get(), "need 1 ≤ k < n");
        assert!(max_rounds >= 1, "need at least one simulated round");
        CrashSim {
            me,
            n,
            k,
            inner,
            round: Round::FIRST,
            phase: Phase::WriteValue,
            proposed_faulty: IdSet::empty(),
            view: vec![None; n.get()],
            resolved: vec![None; n.get()],
            fault_log: Vec::new(),
            my_value: 0,
            max_rounds,
        }
    }

    /// Number of memory banks the simulation needs: per simulated round,
    /// one value bank plus two banks per adopt-commit instance.
    #[must_use]
    pub fn banks_needed(n: SystemSize, max_rounds: u32) -> usize {
        max_rounds as usize * (1 + 2 * n.get())
    }

    /// The recorded `D(me, r)` sets so far.
    #[must_use]
    pub fn fault_log(&self) -> &[IdSet] {
        &self.fault_log
    }

    fn banks_per_round(&self) -> usize {
        1 + 2 * self.n.get()
    }

    fn value_bank(&self) -> usize {
        self.round.index() * self.banks_per_round()
    }

    fn ac_bank(&self, j: usize, bank: AcBank) -> usize {
        let base = self.value_bank() + 1 + 2 * j;
        match bank {
            AcBank::First => base,
            AcBank::Second => base + 1,
        }
    }

    fn ac_action(&self, j: usize, op: AcOp) -> Action<SimCell, CrashSimOutput<P::Output>> {
        match op {
            AcOp::Write { bank, cell } => Action::Write {
                bank: self.ac_bank(j, bank),
                value: match cell {
                    AcCell::Proposal(v) => SimCell::Prop(v),
                    AcCell::Vote(g, v) => SimCell::Vote(g, v),
                },
            },
            AcOp::Read { bank, owner } => Action::Read {
                bank: self.ac_bank(j, bank),
                owner,
            },
        }
    }

    /// Starts the adopt-commit instance for process `j` of this round.
    fn start_ac(&mut self, j: usize) -> Action<SimCell, CrashSimOutput<P::Output>> {
        let target = ProcessId::new(j);
        let input = if self.proposed_faulty.contains(target) {
            FAULTY_SENTINEL
        } else {
            match self.view[j] {
                Some(v) => v,
                // Not in F_i yet not in the view either can't happen: F_i
                // absorbed the view's missing set in the value phase.
                None => unreachable!("missing value for a process not proposed faulty"),
            }
        };
        let (machine, first_op) = AdoptCommitMachine::start(self.n, self.me, input);
        let action = self.ac_action(j, first_op);
        self.phase = Phase::Ac { j, machine };
        action
    }

    /// Finishes instance `j` with output `(grade, value)` and moves on.
    fn resolve_ac(
        &mut self,
        j: usize,
        grade: Grade,
        value: Value,
    ) -> Action<SimCell, CrashSimOutput<P::Output>> {
        let target = ProcessId::new(j);
        if value == FAULTY_SENTINEL {
            self.proposed_faulty.insert(target);
            match grade {
                Grade::Commit => {
                    // p_j appears crashed this round: message is ⊥.
                    self.resolved[j] = None;
                    self.next_after(j)
                }
                Grade::Adopt => {
                    // Someone proposed alive, so the value bank has p_j's
                    // value: recover it.
                    self.phase = Phase::Recover { j };
                    Action::Read {
                        bank: self.value_bank(),
                        owner: target,
                    }
                }
            }
        } else {
            self.resolved[j] = Some(value);
            self.next_after(j)
        }
    }

    /// Advances to instance `j + 1`, or completes the round.
    fn next_after(&mut self, j: usize) -> Action<SimCell, CrashSimOutput<P::Output>> {
        if j + 1 < self.n.get() {
            self.start_ac(j + 1)
        } else {
            self.complete_round()
        }
    }

    /// Delivers the simulated round to the inner protocol.
    fn complete_round(&mut self) -> Action<SimCell, CrashSimOutput<P::Output>> {
        // Self-delivery: own value is always known locally, so a process
        // never appears in its own D(i,r).
        self.resolved[self.me.index()] = Some(self.my_value);
        let suspected: IdSet = (0..self.n.get())
            .filter(|&j| self.resolved[j].is_none())
            .map(ProcessId::new)
            .collect();
        self.fault_log.push(suspected);

        let received = std::mem::replace(&mut self.resolved, vec![None; self.n.get()]);
        let verdict = self
            .inner
            .deliver(Delivery::new(self.round, self.me, &received, suspected));

        if let Control::Decide(decision) = verdict {
            self.phase = Phase::Finished;
            return Action::Decide(CrashSimOutput {
                decision,
                fault_log: self.fault_log.clone(),
            });
        }

        assert!(
            self.round.get() < self.max_rounds,
            "inner protocol did not decide within the simulated-round budget"
        );
        self.round = self.round.next();
        self.view = vec![None; self.n.get()];
        self.phase = Phase::WriteValue;
        self.emit_value()
    }

    /// Emits the inner protocol's value for the current round.
    fn emit_value(&mut self) -> Action<SimCell, CrashSimOutput<P::Output>> {
        let v = self.inner.emit(self.round);
        assert!(
            v != FAULTY_SENTINEL,
            "simulated protocols must not emit the faulty sentinel"
        );
        self.my_value = v;
        self.phase = Phase::ValueSnap;
        Action::Write {
            bank: self.value_bank(),
            value: SimCell::Val(v),
        }
    }
}

impl<P: RoundProtocol<Msg = Value>> MemProcess<SimCell> for CrashSim<P> {
    type Output = CrashSimOutput<P::Output>;

    fn step(&mut self, obs: Observation<SimCell>) -> Action<SimCell, Self::Output> {
        // Move the phase out so helper methods may reassign it freely.
        let phase = std::mem::replace(&mut self.phase, Phase::Finished);
        match (phase, obs) {
            (Phase::WriteValue, Observation::Start) => self.emit_value(),
            (Phase::ValueSnap, Observation::Written) => {
                self.phase = Phase::ValueSnap;
                Action::Snapshot {
                    bank: self.value_bank(),
                }
            }
            (Phase::ValueSnap, Observation::SnapshotView(view)) => self.on_value_snapshot(view),
            (Phase::Ac { j, mut machine }, obs) => {
                let ac_obs = match obs {
                    Observation::Written => AcObs::Written,
                    Observation::Value(cell) => AcObs::Value(cell.map(|c| match c {
                        SimCell::Prop(v) => AcCell::Proposal(v),
                        SimCell::Vote(g, v) => AcCell::Vote(g, v),
                        SimCell::Val(_) => panic!("value cell in an adopt-commit bank"),
                    })),
                    other => unreachable!("bad observation in AC phase: {other:?}"),
                };
                match machine.on(ac_obs) {
                    AcStep::Op(op) => {
                        let action = self.ac_action(j, op);
                        self.phase = Phase::Ac { j, machine };
                        action
                    }
                    AcStep::Done((grade, value)) => self.resolve_ac(j, grade, value),
                }
            }
            (Phase::Recover { j }, Observation::Value(cell)) => match cell {
                Some(SimCell::Val(v)) => {
                    self.resolved[j] = Some(v);
                    self.next_after(j)
                }
                Some(_) => panic!("non-value cell in a value bank"),
                None => {
                    unreachable!("adopt-faulty guarantees an alive proposal, hence a written value")
                }
            },
            (Phase::Finished, _) => unreachable!("stepped after deciding"),
            (phase, obs) => unreachable!("observation {obs:?} in phase {phase:?}"),
        }
    }
}

impl<P: RoundProtocol<Msg = Value>> CrashSim<P> {
    /// Consumes a snapshot view of the value bank; returns the next action
    /// (another snapshot, or the first adopt-commit instance).
    fn on_value_snapshot(
        &mut self,
        view: Vec<Option<SimCell>>,
    ) -> Action<SimCell, CrashSimOutput<P::Output>> {
        let values: Vec<Option<Value>> = view
            .into_iter()
            .map(|c| {
                c.map(|c| match c {
                    SimCell::Val(v) => v,
                    _ => panic!("non-value cell in a value bank"),
                })
            })
            .collect();
        let missing: IdSet = values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_none())
            .map(|(j, _)| ProcessId::new(j))
            .collect();
        if missing.len() <= self.k {
            self.view = values;
            self.proposed_faulty |= missing;
            self.start_ac(0)
        } else {
            self.phase = Phase::ValueSnap;
            Action::Snapshot {
                bank: self.value_bank(),
            }
        }
    }
}

/// Outcome of [`run_crash_simulation`].
#[derive(Debug, Clone)]
pub struct CrashSimReport<O> {
    /// Inner decisions by process (`None`: crashed before deciding).
    pub outputs: Vec<Option<O>>,
    /// The simulated synchronous fault pattern, assembled per round over
    /// the rounds *every* decider completed.
    pub pattern: rrfd_core::FaultPattern,
    /// Processes crashed by the asynchronous scheduler.
    pub crashed: IdSet,
    /// `true` iff the simulated pattern is admitted by the crash predicate
    /// with footprint `f` — Theorem 4.3's guarantee for runs of at most
    /// `⌊f/k⌋` simulated rounds.
    pub crash_certified: bool,
}

/// Runs `protocols` (one per process, `u64` messages) through the Theorem
/// 4.3 simulation on snapshot shared memory under `scheduler` (which may
/// crash at most `k` processes), simulating up to `max_rounds` synchronous
/// rounds, and certifies the extracted pattern against
/// [`rrfd_models::predicates::Crash`] with footprint `f`.
///
/// Crashed processes are excluded from the pattern assembly: their
/// suspicion sets are synthesised as "everything the deciders commonly
/// suspected plus themselves", the convention a really-crashed process's
/// unobservable detector output is mapped to (it cannot affect any
/// decider's view).
///
/// # Errors
///
/// Propagates [`rrfd_sims::shared_mem::MemSimError`].
///
/// # Panics
///
/// Panics if `protocols.len() != n` or a protocol outlives `max_rounds`.
pub fn run_crash_simulation<P, S>(
    n: SystemSize,
    k: usize,
    f: usize,
    max_rounds: u32,
    protocols: Vec<P>,
    scheduler: &mut S,
) -> Result<CrashSimReport<P::Output>, rrfd_sims::shared_mem::MemSimError>
where
    P: RoundProtocol<Msg = Value>,
    P::Output: Clone,
    S: rrfd_sims::step::StepScheduler + ?Sized,
{
    use rrfd_core::{FaultPattern, RoundFaults, RrfdPredicate};

    assert_eq!(protocols.len(), n.get(), "one protocol per process");
    let sims: Vec<CrashSim<P>> = protocols
        .into_iter()
        .enumerate()
        .map(|(i, p)| CrashSim::new(ProcessId::new(i), n, k, max_rounds, p))
        .collect();
    let banks = CrashSim::<P>::banks_needed(n, max_rounds);
    let report = rrfd_sims::shared_mem::SharedMemSim::new(n, banks)
        .with_snapshots()
        .run(sims, scheduler)?;

    let outputs: Vec<Option<P::Output>> = report
        .outputs
        .iter()
        .map(|o| o.as_ref().map(|out| out.decision.clone()))
        .collect();

    // Assemble the simulated pattern over the rounds every decider
    // completed (deciders all complete the same number: the inner
    // protocol's budget).
    let logs: Vec<&[IdSet]> = report.processes.iter().map(CrashSim::fault_log).collect();
    let rounds_done = report
        .outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_some())
        .map(|(i, _)| logs[i].len())
        .min()
        .unwrap_or(0);

    let mut pattern = FaultPattern::new(n);
    for r in 0..rounds_done {
        // Crashed processes' unobservable rounds: suspect what every
        // decider commonly suspects plus everything previously suspected
        // (minus themselves — the self-exemption of eq. 2).
        let common: IdSet = report
            .outputs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| logs[i][r])
            .fold(IdSet::universe(n), IdSet::intersection);
        let prev_union = pattern.last().map_or(IdSet::empty(), RoundFaults::union);
        let sets = n
            .processes()
            .map(|p| match logs[p.index()].get(r) {
                Some(&d) => d,
                None => (common | prev_union) - IdSet::singleton(p),
            })
            .collect();
        pattern.push(RoundFaults::from_sets(n, sets));
    }

    let crash_certified = rrfd_models::predicates::Crash::new(n, f).admits_pattern(&pattern);

    Ok(CrashSimReport {
        outputs,
        pattern,
        crashed: report.crashed,
        crash_certified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kset::FloodMin;
    use rrfd_core::task::KSetAgreement;
    use rrfd_sims::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn fault_free_simulation_is_clean() {
        let size = n(4);
        let protos: Vec<_> = (0..4u64).map(|v| FloodMin::new(v + 1, 2)).collect();
        let report =
            run_crash_simulation(size, 1, 2, 2, protos, &mut FairScheduler::new()).unwrap();
        assert!(report.crash_certified);
        assert!(report.pattern.cumulative_union().is_empty());
        for out in report.outputs {
            assert_eq!(out, Some(1));
        }
    }

    #[test]
    fn simulated_patterns_satisfy_the_crash_predicate() {
        // Theorem 4.3's core claim: k async crashes over ⌊f/k⌋ simulated
        // rounds always yield a legal f-crash synchronous pattern.
        for &(nv, f, k) in &[(5usize, 2usize, 1usize), (6, 4, 2), (8, 6, 2)] {
            let size = n(nv);
            let budget = (f / k) as u32;
            for seed in 0..15u64 {
                let protos: Vec<_> = (0..nv as u64)
                    .map(|v| FloodMin::new(v + 1, budget))
                    .collect();
                let mut sched = RandomScheduler::new(seed, k).crash_prob(0.02);
                let report = run_crash_simulation(size, k, f, budget, protos, &mut sched)
                    .unwrap_or_else(|e| panic!("n={nv} f={f} k={k} seed={seed}: {e}"));
                assert!(
                    report.crash_certified,
                    "n={nv} f={f} k={k} seed={seed}: pattern {:?} not crash-legal",
                    report.pattern
                );
            }
        }
    }

    #[test]
    fn floodmin_through_the_simulation_solves_kset() {
        // Corollary 4.4's positive direction: running the ⌊f/k⌋+1-round
        // flood-min through the simulation (budget permitting) yields k-set
        // agreement among deciders.
        let size = n(6);
        let (f, k) = (2usize, 2usize);
        let budget = FloodMin::correct_budget(f, k); // 2 rounds
        let inputs: Vec<Value> = (1..=6).collect();
        let task = KSetAgreement::new(k);
        for seed in 0..15u64 {
            let protos: Vec<_> = inputs.iter().map(|&v| FloodMin::new(v, budget)).collect();
            let mut sched = RandomScheduler::new(seed, k - 1).crash_prob(0.02);
            let report = run_crash_simulation(size, k, f + k, budget, protos, &mut sched).unwrap();
            // Deciders not simulated-crashed must agree k-set-wise.
            let sim_crashed = report.pattern.cumulative_union();
            let outs: Vec<Option<Value>> = report
                .outputs
                .iter()
                .enumerate()
                .map(|(i, o)| o.filter(|_| !sim_crashed.contains(ProcessId::new(i))))
                .collect();
            task.check(&inputs, &outs)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn banks_layout_is_disjoint() {
        let n = SystemSize::new(4).unwrap();
        // All bank indices across 3 rounds must be distinct and within the
        // computed bank count.
        let total = CrashSim::<crate::kset::FloodMin>::banks_needed(n, 3);
        assert_eq!(total, 3 * (1 + 8));
        let mut sim = CrashSim::new(ProcessId::new(0), n, 1, 3, crate::kset::FloodMin::new(0, 3));
        let mut seen = std::collections::BTreeSet::new();
        for _round in 0..3 {
            assert!(seen.insert(sim.value_bank()));
            for j in 0..4 {
                assert!(seen.insert(sim.ac_bank(j, AcBank::First)));
                assert!(seen.insert(sim.ac_bank(j, AcBank::Second)));
            }
            sim.round = sim.round.next();
        }
        assert_eq!(seen.len(), total);
        assert!(*seen.iter().max().unwrap() < total);
    }
}
