//! The wait-free adopt-commit protocol of §4.2 (after Yang-Neiger-Gafni),
//! used to convert the omission-fault simulation of Theorem 4.1 into the
//! crash-fault simulation of Theorem 4.3.
//!
//! Over two arrays of SWMR registers `C_{·,1}` and `C_{·,2}`:
//!
//! ```text
//! write v_i to C_{i,1}
//! S := ∪_j read C_{j,1}
//! if S ∖ {⊥} = {v}  then C_{i,2} := "commit v"  else C_{i,2} := "adopt v_i"
//! S := ∪_j read C_{j,2}
//! if S ∖ {⊥} = {commit v}      then return (Commit, v)
//! else if "commit v" ∈ S       then return (Adopt, v)
//! else                              return (Adopt, v_i)
//! ```
//!
//! Guarantees (checked by [`rrfd_core::task::AdoptCommitSpec`]): if all
//! inputs are `v` everyone commits `v`; if anyone commits `v` everyone
//! outputs `v` (commit or adopt); outputs are inputs. The protocol is
//! wait-free: no step waits on another process.
//!
//! [`AdoptCommitMachine`] is the protocol as an abstract one-op-per-step
//! state machine, so it can run both directly on the shared-memory
//! simulator ([`AdoptCommitProcess`]) and *embedded* as a sub-protocol of
//! the Theorem 4.3 synchronous-round simulation.

use rrfd_core::task::{AdoptCommitOutput, Grade, Value};
use rrfd_core::{ProcessId, SystemSize};
use rrfd_sims::shared_mem::{Action, MemProcess, Observation};
use std::collections::BTreeSet;

/// Which of the protocol's two register arrays an operation touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcBank {
    /// The proposal array `C_{·,1}`.
    First,
    /// The vote array `C_{·,2}`.
    Second,
}

/// A register cell value of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcCell {
    /// A phase-1 proposal.
    Proposal(Value),
    /// A phase-2 vote: `commit v` or `adopt v`.
    Vote(Grade, Value),
}

/// An abstract operation the machine asks its host to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcOp {
    /// Write `cell` into this process's register of `bank`.
    Write {
        /// Target array.
        bank: AcBank,
        /// Value to store.
        cell: AcCell,
    },
    /// Read the register of `owner` in `bank`.
    Read {
        /// Array to read.
        bank: AcBank,
        /// Whose register.
        owner: ProcessId,
    },
}

/// The host's answer to the previous [`AcOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcObs {
    /// The write completed.
    Written,
    /// The value read (`None` = still ⊥).
    Value(Option<AcCell>),
}

/// What the machine wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcStep {
    /// Perform this operation and call [`AdoptCommitMachine::on`] with the
    /// result.
    Op(AcOp),
    /// The protocol finished with this output.
    Done(AdoptCommitOutput),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    ReadFirst { next: usize },
    ReadSecond { next: usize },
    AwaitSecondWrite,
}

/// The adopt-commit protocol as a host-agnostic state machine.
#[derive(Debug, Clone)]
pub struct AdoptCommitMachine {
    me: ProcessId,
    n: SystemSize,
    input: Value,
    phase: Phase,
    seen_first: BTreeSet<Value>,
    seen_second: Vec<(Grade, Value)>,
}

impl AdoptCommitMachine {
    /// Starts the protocol; returns the machine and its first operation
    /// (the phase-1 write of `input`).
    #[must_use]
    pub fn start(n: SystemSize, me: ProcessId, input: Value) -> (Self, AcOp) {
        let machine = AdoptCommitMachine {
            me,
            n,
            input,
            phase: Phase::ReadFirst { next: 0 },
            seen_first: BTreeSet::new(),
            seen_second: Vec::new(),
        };
        let op = AcOp::Write {
            bank: AcBank::First,
            cell: AcCell::Proposal(input),
        };
        (machine, op)
    }

    /// Feeds the previous operation's result; returns the next step.
    ///
    /// # Panics
    ///
    /// Panics if the host feeds an observation inconsistent with the
    /// machine's last request (e.g. a `Value` after a write), or a cell
    /// from the wrong bank.
    pub fn on(&mut self, obs: AcObs) -> AcStep {
        match (&mut self.phase, obs) {
            // Phase 1 scan: after the initial write, and after each read.
            (Phase::ReadFirst { next }, AcObs::Written) => {
                assert_eq!(*next, 0, "unexpected write completion mid-scan");
                AcStep::Op(AcOp::Read {
                    bank: AcBank::First,
                    owner: ProcessId::new(0),
                })
            }
            (Phase::ReadFirst { next }, AcObs::Value(cell)) => {
                match cell {
                    Some(AcCell::Proposal(v)) => {
                        self.seen_first.insert(v);
                    }
                    Some(AcCell::Vote(..)) => panic!("phase-1 read returned a vote"),
                    None => {}
                }
                *next += 1;
                if *next < self.n.get() {
                    let owner = ProcessId::new(*next);
                    AcStep::Op(AcOp::Read {
                        bank: AcBank::First,
                        owner,
                    })
                } else {
                    // Scan done: vote.
                    let vote = if self.seen_first.len() == 1 {
                        let v = *self.seen_first.iter().next().expect("len checked");
                        AcCell::Vote(Grade::Commit, v)
                    } else {
                        AcCell::Vote(Grade::Adopt, self.input)
                    };
                    self.phase = Phase::AwaitSecondWrite;
                    AcStep::Op(AcOp::Write {
                        bank: AcBank::Second,
                        cell: vote,
                    })
                }
            }
            (Phase::AwaitSecondWrite, AcObs::Written) => {
                self.phase = Phase::ReadSecond { next: 0 };
                AcStep::Op(AcOp::Read {
                    bank: AcBank::Second,
                    owner: ProcessId::new(0),
                })
            }
            (Phase::ReadSecond { next }, AcObs::Value(cell)) => {
                match cell {
                    Some(AcCell::Vote(g, v)) => self.seen_second.push((g, v)),
                    Some(AcCell::Proposal(_)) => panic!("phase-2 read returned a proposal"),
                    None => {}
                }
                *next += 1;
                if *next < self.n.get() {
                    let owner = ProcessId::new(*next);
                    AcStep::Op(AcOp::Read {
                        bank: AcBank::Second,
                        owner,
                    })
                } else {
                    AcStep::Done(self.conclude())
                }
            }
            (phase, obs) => panic!("observation {obs:?} inconsistent with phase {phase:?}"),
        }
    }

    /// The paper's final case analysis over the phase-2 scan.
    fn conclude(&self) -> AdoptCommitOutput {
        let mut committed: BTreeSet<Value> = BTreeSet::new();
        let mut saw_adopt = false;
        for &(g, v) in &self.seen_second {
            match g {
                Grade::Commit => {
                    committed.insert(v);
                }
                Grade::Adopt => saw_adopt = true,
            }
        }
        // The scan always sees at least this process's own vote.
        if !saw_adopt && committed.len() == 1 {
            let v = *committed.iter().next().expect("len checked");
            return (Grade::Commit, v);
        }
        if let Some(&v) = committed.iter().next() {
            return (Grade::Adopt, v);
        }
        (Grade::Adopt, self.input)
    }

    /// The input this machine proposed.
    #[must_use]
    pub fn input(&self) -> Value {
        self.input
    }

    /// The process running this machine.
    #[must_use]
    pub fn me(&self) -> ProcessId {
        self.me
    }
}

/// Runs one adopt-commit instance directly on the shared-memory simulator,
/// using memory banks `2·instance` (phase 1) and `2·instance + 1`
/// (phase 2).
#[derive(Debug, Clone)]
pub struct AdoptCommitProcess {
    machine: AdoptCommitMachine,
    pending: Option<AcOp>,
    base_bank: usize,
}

impl AdoptCommitProcess {
    /// Creates the process for `instance` (bank pair) proposing `input`.
    #[must_use]
    pub fn new(n: SystemSize, me: ProcessId, input: Value, instance: usize) -> Self {
        let (machine, first_op) = AdoptCommitMachine::start(n, me, input);
        AdoptCommitProcess {
            machine,
            pending: Some(first_op),
            base_bank: 2 * instance,
        }
    }

    fn bank(&self, b: AcBank) -> usize {
        match b {
            AcBank::First => self.base_bank,
            AcBank::Second => self.base_bank + 1,
        }
    }

    fn to_action(&self, op: AcOp) -> Action<AcCell, AdoptCommitOutput> {
        match op {
            AcOp::Write { bank, cell } => Action::Write {
                bank: self.bank(bank),
                value: cell,
            },
            AcOp::Read { bank, owner } => Action::Read {
                bank: self.bank(bank),
                owner,
            },
        }
    }
}

impl MemProcess<AcCell> for AdoptCommitProcess {
    type Output = AdoptCommitOutput;

    fn step(&mut self, obs: Observation<AcCell>) -> Action<AcCell, AdoptCommitOutput> {
        if let Observation::Start = obs {
            let op = self.pending.take().expect("first op staged at creation");
            return self.to_action(op);
        }
        let ac_obs = match obs {
            Observation::Written => AcObs::Written,
            Observation::Value(v) => AcObs::Value(v),
            Observation::Start => unreachable!("handled above"),
            other => unreachable!("adopt-commit never snapshots or proposes: {other:?}"),
        };
        match self.machine.on(ac_obs) {
            AcStep::Op(op) => self.to_action(op),
            AcStep::Done(out) => Action::Decide(out),
        }
    }
}

/// Convenience: run one adopt-commit instance over the shared-memory
/// simulator and return the outputs.
///
/// # Errors
///
/// Propagates [`rrfd_sims::shared_mem::MemSimError`].
///
/// # Panics
///
/// Panics if `inputs.len() != n`.
pub fn run_adopt_commit<S>(
    n: SystemSize,
    inputs: &[Value],
    scheduler: &mut S,
) -> Result<Vec<Option<AdoptCommitOutput>>, rrfd_sims::shared_mem::MemSimError>
where
    S: rrfd_sims::step::StepScheduler + ?Sized,
{
    assert_eq!(inputs.len(), n.get(), "one input per process");
    let procs: Vec<_> = n
        .processes()
        .map(|p| AdoptCommitProcess::new(n, p, inputs[p.index()], 0))
        .collect();
    let report = rrfd_sims::shared_mem::SharedMemSim::new(n, 2).run(procs, scheduler)?;
    Ok(report.outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::task::AdoptCommitSpec;
    use rrfd_sims::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn unanimous_inputs_commit() {
        let size = n(4);
        let outs = run_adopt_commit(size, &[9, 9, 9, 9], &mut FairScheduler::new()).unwrap();
        for out in outs {
            assert_eq!(out, Some((Grade::Commit, 9)));
        }
    }

    #[test]
    fn spec_holds_under_random_schedules() {
        let size = n(5);
        let spec = AdoptCommitSpec;
        let input_sets: &[&[Value]] = &[
            &[1, 1, 1, 1, 1],
            &[1, 2, 1, 2, 1],
            &[1, 2, 3, 4, 5],
            &[5, 5, 5, 5, 1],
        ];
        for inputs in input_sets {
            for seed in 0..30u64 {
                // Wait-free: crashes can never block others. Allow n−1.
                let mut sched = RandomScheduler::new(seed, 4).crash_prob(0.03);
                let outs = run_adopt_commit(size, inputs, &mut sched).unwrap();
                let deciders: Vec<AdoptCommitOutput> = outs.iter().copied().flatten().collect();
                if deciders.len() == outs.len() {
                    // Crash-free run: the full spec applies.
                    spec.check(inputs, &outs)
                        .unwrap_or_else(|v| panic!("inputs {inputs:?} seed {seed}: {v}"));
                    continue;
                }
                // With crashes, check the spec restricted to deciders:
                // validity, commit-agreement, and convergence.
                let unanimous = inputs.windows(2).all(|w| w[0] == w[1]).then(|| inputs[0]);
                for &(grade, v) in &deciders {
                    assert!(inputs.contains(&v), "seed {seed}: validity");
                    if let Some(u) = unanimous {
                        assert_eq!((grade, v), (Grade::Commit, u), "seed {seed}: convergence");
                    }
                }
                for &(grade, v) in &deciders {
                    if grade == Grade::Commit {
                        for &(_, w) in &deciders {
                            assert_eq!(w, v, "seed {seed}: commit agreement");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn commit_forces_everyone_onto_the_value() {
        let size = n(4);
        for seed in 0..50u64 {
            let inputs = [3, 3, 3, 8];
            let mut sched = RandomScheduler::new(seed, 0);
            let outs = run_adopt_commit(size, &inputs, &mut sched).unwrap();
            let outs: Vec<AdoptCommitOutput> = outs.into_iter().map(|o| o.unwrap()).collect();
            if outs.iter().any(|&(g, v)| g == Grade::Commit && v == 3) {
                for &(_, v) in &outs {
                    assert_eq!(v, 3, "seed {seed}: commit 3 but output {outs:?}");
                }
            }
        }
    }

    #[test]
    fn machine_is_wait_free_step_bounded() {
        // Exactly 2 writes + 2n reads per process, regardless of others.
        let size = n(6);
        let (mut m, first) = AdoptCommitMachine::start(size, ProcessId::new(0), 4);
        let mut ops = vec![first];
        let mut obs = AcObs::Written;
        loop {
            match m.on(obs) {
                AcStep::Op(op) => {
                    ops.push(op);
                    obs = match op {
                        AcOp::Write { .. } => AcObs::Written,
                        // Everyone else is ⊥: total isolation.
                        AcOp::Read { owner, .. } => {
                            if owner == ProcessId::new(0) {
                                // Own cells were written.
                                match ops.iter().rev().find(|o| matches!(o, AcOp::Write { .. })) {
                                    Some(AcOp::Write { cell, .. }) => AcObs::Value(Some(*cell)),
                                    _ => AcObs::Value(None),
                                }
                            } else {
                                AcObs::Value(None)
                            }
                        }
                    };
                }
                AcStep::Done(out) => {
                    // Solo run: must commit its own value.
                    assert_eq!(out, (Grade::Commit, 4));
                    break;
                }
            }
        }
        assert_eq!(ops.len(), 2 + 2 * 6, "2 writes + 2n reads");
    }

    #[test]
    fn exhaustive_two_process_verification() {
        // Explore EVERY interleaving of two adopt-commit participants
        // (each takes 2 writes + 4 reads + decide = 7 steps; C(14,7) = 3432
        // schedules) and check the full specification on each — a
        // proof-by-enumeration for n = 2. DPOR checks one run per
        // Mazurkiewicz trace class: 9 of them cover all 3432 schedules.
        use rrfd_core::task::AdoptCommitSpec;
        use rrfd_sims::dpor::{explore_shared_mem_dpor, DporConfig};
        use rrfd_sims::shared_mem::SharedMemSim;

        let size = n(2);
        for inputs in [[4u64, 4u64], [4, 9]] {
            let sim = SharedMemSim::new(size, 2);
            let make = || {
                vec![
                    AdoptCommitProcess::new(size, ProcessId::new(0), inputs[0], 0),
                    AdoptCommitProcess::new(size, ProcessId::new(1), inputs[1], 0),
                ]
            };
            let total = explore_shared_mem_dpor(
                &sim,
                make,
                |report| {
                    AdoptCommitSpec
                        .check(&inputs, &report.outputs)
                        .map_err(|v| format!("inputs {inputs:?}: {v}"))
                },
                &DporConfig::new(1),
            )
            .unwrap_or_else(|err| panic!("{err}"));
            assert_eq!(total.schedules, 9, "inputs {inputs:?}");
        }
    }

    #[test]
    fn outputs_are_always_inputs() {
        let size = n(3);
        for seed in 0..40u64 {
            let inputs = [11, 22, 33];
            let mut sched = RandomScheduler::new(seed, 1).crash_prob(0.05);
            let outs = run_adopt_commit(size, &inputs, &mut sched).unwrap();
            for out in outs.into_iter().flatten() {
                assert!(inputs.contains(&out.1), "seed {seed}: {out:?}");
            }
        }
    }
}
