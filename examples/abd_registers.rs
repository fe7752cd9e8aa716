//! Shared memory out of message passing: the ABD atomic-register emulation
//! (§2 item 4's enabling substrate, the paper's reference [22]).
//!
//! Five processes run concurrent read/write scripts over an asynchronous,
//! adversarially scheduled network with crash faults; the recorded
//! operation intervals are checked against the atomic-register axioms.
//!
//! Run with: `cargo run --example abd_registers`

use rrfd::core::{ProcessId, SystemSize};
use rrfd::protocols::abd::{check_clients, AbdClient, Op};
use rrfd::sims::async_net::AsyncNetSim;
use rrfd::sims::step::RandomScheduler;

fn main() {
    let n = SystemSize::new(5).expect("valid size");
    let f = 2; // 2f < n
    let p0 = ProcessId::new(0);
    let p2 = ProcessId::new(2);

    let scripts: Vec<Vec<Op>> = vec![
        vec![Op::Write(10), Op::Write(20), Op::Write(30)],
        vec![Op::Read(p0), Op::Read(p0), Op::Read(p0)],
        vec![Op::Write(77), Op::Read(p0)],
        vec![Op::Read(p2), Op::Read(p0), Op::Read(p2)],
        vec![Op::Read(p0), Op::Write(5), Op::Read(p2)],
    ];

    println!("ABD atomic registers over an adversarial network (n = {n}, f = {f})");
    println!();

    for seed in 0..5u64 {
        let procs: Vec<_> = n
            .processes()
            .map(|p| AbdClient::new(p, n, f, scripts[p.index()].clone()))
            .collect();
        let mut sched = RandomScheduler::new(seed, f).crash_prob(0.003);
        let report = AsyncNetSim::new(n)
            .run(procs, &mut sched)
            .expect("run completes");

        check_clients(&report.processes).expect("atomicity holds");

        println!(
            "seed {seed}: {} deliveries, crashed {:?}, atomicity certified",
            report.deliveries, report.crashed
        );
        // Show what the p0-poller saw across its three reads.
        let reads: Vec<String> = report.processes[1]
            .history()
            .iter()
            .map(|r| match r.value {
                Some(v) => format!("{v}"),
                None => "⊥".to_owned(),
            })
            .collect();
        println!(
            "         p1's successive reads of p0's register: [{}]",
            reads.join(", ")
        );
    }

    println!();
    println!("every interleaving produced an atomic history — message passing");
    println!("implements shared memory when 2f < n, as §2 item 4 uses.");
}
