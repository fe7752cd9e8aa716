//! The per-pair implication search on `admits`: a depth-first walk of the
//! `A`-legal prefixes that asks each predicate's `admits` about every
//! candidate round, with no compiled program in sight.
//!
//! Shipped code decides `P_A ⇒ P_B` on compiled programs
//! (`rrfd_analyze::lattice::implies`). Over the spec wrappers of
//! `oracles/spec_predicates.rs`, whose `admits` are the hand-written
//! bodies, this search is the independent second answer the compiled
//! lattice and the public `implies` are checked against.

use rrfd::core::{FaultPattern, Round, RrfdPredicate};
use rrfd::models::enumerate::all_rounds;
use rrfd_analyze::lattice::LatticeCounterexample;

/// Decides `P_A ⇒ P_B` over all fault patterns of at most `max_rounds`
/// rounds, by depth-first enumeration of `A`-legal patterns; `Err` holds
/// the first `A`-legal pattern `B` rejects at its final round.
pub fn implies(
    a: &dyn RrfdPredicate,
    b: &dyn RrfdPredicate,
    max_rounds: u32,
) -> Result<(), LatticeCounterexample> {
    let n = a.system_size();
    assert_eq!(
        n,
        b.system_size(),
        "implication needs a common process universe"
    );
    let rounds: Vec<_> = all_rounds(n).collect();
    // Stack of A-legal, B-legal prefixes still to extend.
    let mut stack = vec![FaultPattern::new(n)];
    while let Some(prefix) = stack.pop() {
        if prefix.rounds() as u32 >= max_rounds {
            continue;
        }
        for round in &rounds {
            if !a.admits(&prefix, round) {
                continue;
            }
            if !b.admits(&prefix, round) {
                let mut pattern = prefix.clone();
                pattern.push(round.clone());
                let rejected_round = Round::new(pattern.rounds() as u32);
                return Err(LatticeCounterexample {
                    pattern,
                    rejected_round,
                    rejecting_predicate: b.name(),
                });
            }
            let mut next = prefix.clone();
            next.push(round.clone());
            stack.push(next);
        }
    }
    Ok(())
}
