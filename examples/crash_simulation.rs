//! Theorem 4.3 end to end: synchronous crash-fault rounds simulated on
//! asynchronous snapshot shared memory via adopt-commit.
//!
//! Runs flood-min through the simulation under randomly scheduled (and
//! crashing) asynchronous executions, prints the extracted synchronous
//! fault pattern, and certifies it against the crash predicate.
//!
//! Run with: `cargo run --example crash_simulation`

use rrfd::core::SystemSize;
use rrfd::protocols::kset::FloodMin;
use rrfd::protocols::sync_sim::run_crash_simulation;
use rrfd::sims::step::RandomScheduler;

fn main() {
    let n = SystemSize::new(6).expect("valid size");
    let (f, k) = (4usize, 2usize);
    let budget = (f / k) as u32; // ⌊f/k⌋ simulated rounds

    println!("Theorem 4.3: {budget} synchronous crash round(s) on async snapshot memory");
    println!("n = {n}, async crash budget k = {k}, synchronous footprint f = {f}");
    println!();

    for seed in 0..6u64 {
        let inputs: Vec<u64> = (1..=n.get() as u64).collect();
        let protocols: Vec<_> = inputs.iter().map(|&v| FloodMin::new(v, budget)).collect();
        let mut scheduler = RandomScheduler::new(seed, k).crash_prob(0.03);
        let report = run_crash_simulation(n, k, f, budget, protocols, &mut scheduler)
            .expect("simulation runs to completion");

        println!(
            "seed {seed}: async-crashed {:?}, simulated pattern {:?}",
            report.crashed, report.pattern
        );
        println!(
            "         crash-certified: {} (footprint {} ≤ f = {f})",
            report.crash_certified,
            report.pattern.cumulative_union().len(),
        );
        assert!(
            report.crash_certified,
            "Theorem 4.3 guarantees certification"
        );
    }

    println!();
    println!("every asynchronous execution mapped to a legal f-crash synchronous run.");
}
