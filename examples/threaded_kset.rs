//! The RRFD abstract loop on real OS threads: one thread per process, the
//! fault detector as a coordinator service, Theorem 3.1 running live.
//!
//! Run with: `cargo run --example threaded_kset`

use rrfd::core::task::KSetAgreement;
use rrfd::core::{Control, Delivery, Round, RoundProtocol, SystemSize};
use rrfd::models::adversary::RandomAdversary;
use rrfd::models::predicates::KUncertainty;
use rrfd::runtime::ThreadedEngine;

/// Theorem 3.1's one-round process, written against the core trait so it
/// runs unchanged on the in-process engine and on threads.
struct OneRound {
    input: u64,
}

impl RoundProtocol for OneRound {
    type Msg = u64;
    type Output = u64;

    fn emit(&mut self, _round: Round) -> u64 {
        self.input
    }

    fn deliver(&mut self, d: Delivery<'_, u64>) -> Control<u64> {
        let winner = d.heard_from().min().expect("someone is always heard");
        Control::Decide(*d.get(winner).expect("winner was heard"))
    }
}

fn main() {
    let n = SystemSize::new(8).expect("valid size");
    let k = 3;
    let inputs: Vec<u64> = (0..8).map(|i| 900 + i).collect();
    let model = KUncertainty::new(n, k);
    let task = KSetAgreement::new(k);

    println!("{k}-set agreement on {n} OS threads, coordinator-served RRFD");

    for seed in 0..4u64 {
        let engine = ThreadedEngine::new(n);
        let protocols: Vec<_> = inputs.iter().map(|&v| OneRound { input: v }).collect();
        let mut adversary = RandomAdversary::new(model, seed);

        let report = engine
            .run(protocols, &mut adversary, &model)
            .expect("legal adversary");

        let outputs = report.outputs();
        task.check_terminating(&inputs, &outputs)
            .expect("task holds on threads too");
        println!(
            "seed {seed}: decided {:?} in {} round(s)",
            outputs.iter().flatten().collect::<Vec<_>>(),
            report.rounds_executed
        );
    }

    println!("the same protocol type runs on the simulator and on threads.");
}
