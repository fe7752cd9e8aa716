//! Corollary 3.2 (Chaudhuri): k-set agreement is solvable in an
//! asynchronous shared-memory system with at most `k − 1` crash failures.
//!
//! The algorithm: write your input, snapshot until at least `n − (k − 1)`
//! inputs are visible, decide the minimum seen. Any `(n − k + 1)`-subset of
//! the inputs must contain one of the `k` smallest, so every decision lands
//! in the `k` smallest inputs — at most `k` distinct values.
//!
//! In the paper this is an immediate corollary of Theorem 3.1, since
//! `(k−1)`-resilient snapshot memory supports the k-uncertainty detector;
//! here we also implement it directly on the [`rrfd_sims::shared_mem`]
//! simulator so the claim is exercised against real adversarial
//! interleavings (experiment E4).

use rrfd_core::task::Value;
use rrfd_core::SystemSize;
use rrfd_sims::shared_mem::{Action, MemProcess, Observation};

/// The snapshot-based k-set agreement process.
#[derive(Debug, Clone)]
pub struct SnapshotKSet {
    input: Value,
    quorum: usize,
}

impl SnapshotKSet {
    /// Creates a process proposing `input` in a system of `n` processes
    /// with agreement parameter `k` (tolerating `k − 1` crashes).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ n`.
    #[must_use]
    pub fn new(n: SystemSize, k: usize, input: Value) -> Self {
        assert!(k >= 1 && k <= n.get(), "need 1 ≤ k ≤ n");
        SnapshotKSet {
            input,
            quorum: n.get() - (k - 1),
        }
    }

    /// The quorum `n − (k − 1)` of visible inputs required before deciding.
    #[must_use]
    pub fn quorum(&self) -> usize {
        self.quorum
    }
}

impl MemProcess<Value> for SnapshotKSet {
    type Output = Value;

    fn step(&mut self, obs: Observation<Value>) -> Action<Value, Value> {
        match obs {
            Observation::Start => Action::Write {
                bank: 0,
                value: self.input,
            },
            Observation::Written => Action::Snapshot { bank: 0 },
            Observation::SnapshotView(view) => {
                let seen: Vec<Value> = view.into_iter().flatten().collect();
                if seen.len() >= self.quorum {
                    Action::Decide(*seen.iter().min().expect("quorum ≥ 1"))
                } else {
                    Action::Snapshot { bank: 0 }
                }
            }
            other => unreachable!("snapshot k-set only writes and snapshots: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_core::task::KSetAgreement;
    use rrfd_core::ProcessId;
    use rrfd_sims::shared_mem::SharedMemSim;
    use rrfd_sims::step::{FairScheduler, RandomScheduler};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn fault_free_run_is_consensus_like() {
        let size = n(5);
        let inputs: Vec<Value> = vec![50, 40, 30, 20, 10];
        let procs: Vec<_> = inputs
            .iter()
            .map(|&v| SnapshotKSet::new(size, 1, v))
            .collect();
        let report = SharedMemSim::new(size, 1)
            .with_snapshots()
            .run(procs, &mut FairScheduler::new())
            .unwrap();
        // k = 1 with zero crashes: everyone waits for all inputs and
        // decides the global minimum.
        for out in report.outputs {
            assert_eq!(out, Some(10));
        }
    }

    #[test]
    fn k_minus_one_crashes_keep_at_most_k_values() {
        for &(nv, k) in &[(5usize, 2usize), (6, 3), (8, 4)] {
            let size = n(nv);
            let inputs: Vec<Value> = (0..nv as u64).map(|i| 1000 + i).collect();
            let task = KSetAgreement::new(k);
            for seed in 0..25u64 {
                let procs: Vec<_> = inputs
                    .iter()
                    .map(|&v| SnapshotKSet::new(size, k, v))
                    .collect();
                let mut sched = RandomScheduler::new(seed, k - 1).crash_prob(0.05);
                let report = SharedMemSim::new(size, 1)
                    .with_snapshots()
                    .run(procs, &mut sched)
                    .unwrap();
                assert!(report.all_correct_decided(), "n={nv} k={k} seed={seed}");
                task.check(&inputs, &report.outputs)
                    .unwrap_or_else(|v| panic!("n={nv} k={k} seed={seed}: {v}"));
            }
        }
    }

    #[test]
    fn decisions_come_from_the_k_smallest_inputs() {
        let size = n(6);
        let inputs: Vec<Value> = vec![60, 10, 50, 20, 40, 30];
        let k = 3;
        for seed in 0..20u64 {
            let procs: Vec<_> = inputs
                .iter()
                .map(|&v| SnapshotKSet::new(size, k, v))
                .collect();
            let mut sched = RandomScheduler::new(seed, k - 1).crash_prob(0.08);
            let report = SharedMemSim::new(size, 1)
                .with_snapshots()
                .run(procs, &mut sched)
                .unwrap();
            for (i, out) in report.outputs.iter().enumerate() {
                if let Some(v) = out {
                    assert!(
                        [10, 20, 30].contains(v),
                        "seed {seed}: {} decided {v}, outside the k smallest",
                        ProcessId::new(i)
                    );
                }
            }
        }
    }

    #[test]
    fn too_many_crashes_block_the_quorum() {
        // With k crashes (one more than tolerated), survivors may wait
        // forever: the step limit fires instead of a wrong decision.
        let size = n(4);
        let k = 2;
        let procs: Vec<_> = (0..4)
            .map(|v| SnapshotKSet::new(size, k, v as Value))
            .collect();

        struct CrashTwoThenFair {
            crashed: usize,
            inner: FairScheduler,
        }
        impl rrfd_sims::step::StepScheduler for CrashTwoThenFair {
            fn next_event(
                &mut self,
                enabled: &[rrfd_sims::step::StepEvent],
                step: u64,
            ) -> rrfd_sims::step::StepEvent {
                if self.crashed < 2 {
                    let victim = ProcessId::new(self.crashed);
                    self.crashed += 1;
                    return rrfd_sims::step::StepEvent::Crash(victim);
                }
                self.inner.next_event(enabled, step)
            }
        }

        let err = SharedMemSim::new(size, 1)
            .with_snapshots()
            .max_steps(10_000)
            .run(
                procs,
                &mut CrashTwoThenFair {
                    crashed: 0,
                    inner: FairScheduler::new(),
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            rrfd_sims::shared_mem::MemSimError::StepLimitExceeded { .. }
        ));
    }
}
