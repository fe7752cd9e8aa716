//! §5: consensus in **2 steps** in the Dolev-Dwork-Stockmeyer
//! semi-synchronous model, versus the O(n)-step baseline.
//!
//! DDS proved consensus possible in this model with a 2n-step algorithm
//! and left O(1) open; the paper closes it via the identical-views RRFD.
//! This example runs both algorithms under random schedules with crashes
//! and prints the per-process steps-to-decide.
//!
//! Run with: `cargo run --example semi_sync_consensus`

use rrfd::core::task::KSetAgreement;
use rrfd::core::SystemSize;
use rrfd::protocols::semi_sync_consensus::{RepeatedRounds, TwoStepConsensus};
use rrfd::sims::semi_sync::SemiSyncSim;
use rrfd::sims::step::RandomScheduler;

fn main() {
    println!("semi-synchronous consensus: Gafni 2-step vs DDS-style 2n-step");
    println!(
        "{:>4} | {:>14} | {:>14}",
        "n", "2-step (steps)", "baseline (steps)"
    );

    for &nv in &[3usize, 5, 8, 12, 16] {
        let n = SystemSize::new(nv).expect("valid size");
        let inputs: Vec<u64> = (0..nv as u64).map(|i| 700 + i).collect();
        let task = KSetAgreement::consensus();

        // Gafni's 2-step algorithm.
        let procs: Vec<_> = n
            .processes()
            .map(|p| TwoStepConsensus::new(n, p, inputs[p.index()]))
            .collect();
        let mut sched = RandomScheduler::new(42 + nv as u64, nv - 1).crash_prob(0.02);
        let fast = SemiSyncSim::new(n)
            .run(procs, &mut sched)
            .expect("terminates");
        let fast_outs: Vec<Option<u64>> = fast
            .outputs
            .iter()
            .map(|o| o.as_ref().map(|&(v, _)| v))
            .collect();
        task.check(&inputs, &fast_outs).expect("consensus holds");

        // The 2n-step baseline (n iterated rounds).
        let procs: Vec<_> = n
            .processes()
            .map(|p| RepeatedRounds::new(n, p, inputs[p.index()], nv as u32))
            .collect();
        let mut sched = RandomScheduler::new(142 + nv as u64, nv - 1).crash_prob(0.02);
        let slow = SemiSyncSim::new(n)
            .run(procs, &mut sched)
            .expect("terminates");
        let slow_outs: Vec<Option<u64>> = slow
            .outputs
            .iter()
            .map(|o| o.as_ref().map(|&(v, _)| v))
            .collect();
        task.check(&inputs, &slow_outs).expect("consensus holds");

        println!(
            "{:>4} | {:>14} | {:>14}",
            nv,
            fast.max_steps_to_decide().expect("someone decided"),
            slow.max_steps_to_decide().expect("someone decided"),
        );
    }

    println!();
    println!("the 2-step column is constant; the baseline grows as 2n —");
    println!("the paper's answer to the DDS open problem.");
}
