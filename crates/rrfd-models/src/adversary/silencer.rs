//! The lower-bound adversary of Corollaries 4.2/4.4.
//!
//! Chaudhuri-Herlihy-Lynch-Tuttle: k-set agreement in a synchronous system
//! with at most `f` crash faults needs at least `⌊f/k⌋ + 1` rounds. The
//! classical hard execution crashes `k` processes per round, arranged in `k`
//! disjoint *silencing chains*: chain `j` starts at the process holding the
//! `j`-th smallest input and, each round, the current chain head crashes
//! while delivering its round message to exactly one fresh process — the
//! next link. After `R = ⌊f/k⌋` rounds each chain's value is known to
//! exactly one live process (the chain *tip*) and to nobody else, so any
//! protocol that must decide by round `R` is forced into `k + 1` distinct
//! decisions among live processes.
//!
//! [`SilencingCrash`] produces exactly this fault pattern, phrased as RRFD
//! suspicion sets that satisfy the crash predicate
//! [`Crash`](crate::predicates::Crash). Experiment E9 runs flood-set against
//! it at budgets `R` (violation) and `R + 1` (correct).

use rrfd_core::{FaultDetector, FaultPattern, IdSet, ProcessId, Round, RoundFaults, SystemSize};

/// The chain-silencing crash adversary for the `⌊f/k⌋ + 1` lower bound.
#[derive(Debug, Clone, Copy)]
pub struct SilencingCrash {
    n: SystemSize,
    k: usize,
    rounds: usize,
}

impl SilencingCrash {
    /// Creates the adversary for `n` processes, failure budget `f`, and
    /// agreement parameter `k`. It silences for `⌊f/k⌋` rounds, crashing
    /// `k ⌊f/k⌋ ≤ f` processes in total.
    ///
    /// # Panics
    ///
    /// Panics unless `k ≥ 1`, `f ≥ k` (otherwise there is nothing to
    /// silence — the bound is trivially one round), and
    /// `n ≥ k(⌊f/k⌋ + 1) + 1` (chains, tips, and at least one bystander
    /// must be disjoint).
    #[must_use]
    pub fn new(n: SystemSize, f: usize, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(f >= k, "silencing needs f ≥ k");
        let rounds = f / k;
        assert!(
            n.get() > k * (rounds + 1),
            "need n ≥ k(⌊f/k⌋+1)+1 = {} processes, got {}",
            k * (rounds + 1) + 1,
            n.get()
        );
        SilencingCrash { n, k, rounds }
    }

    /// Number of silenced rounds `R = ⌊f/k⌋`.
    #[must_use]
    pub fn silenced_rounds(&self) -> usize {
        self.rounds
    }

    /// The processes that crash over the whole schedule:
    /// `{0, …, k·R − 1}`.
    #[must_use]
    pub fn crashed(&self) -> IdSet {
        (0..self.k * self.rounds).map(ProcessId::new).collect()
    }

    /// The tip of chain `j`: the unique live process that learns chain
    /// `j`'s value.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ k`.
    #[must_use]
    pub fn tip(&self, j: usize) -> ProcessId {
        assert!(j < self.k, "chain index out of range");
        ProcessId::new(self.rounds * self.k + j)
    }

    /// Chain member at depth `d` of chain `j` (depth 0 is the origin).
    fn member(&self, j: usize, d: usize) -> ProcessId {
        ProcessId::new(d * self.k + j)
    }

    /// The process that receives the round-`r` message of the chain-`j`
    /// head crashing at round `r` (1-based): the next link, or the tip.
    fn receiver(&self, j: usize, r: usize) -> ProcessId {
        ProcessId::new(r * self.k + j)
    }
}

impl FaultDetector for SilencingCrash {
    fn system_size(&self) -> SystemSize {
        self.n
    }

    fn next_round(&mut self, round: Round, _history: &FaultPattern) -> RoundFaults {
        let r = round.get() as usize;
        let previously_crashed: IdSet = (0..self.k * (r - 1).min(self.rounds))
            .map(ProcessId::new)
            .collect();

        if r > self.rounds {
            // Silencing is over: every crash is universal knowledge.
            return RoundFaults::from_sets(self.n, vec![previously_crashed; self.n.get()]);
        }

        // Crash the round-r chain heads; each delivers only to its receiver
        // (and, vacuously, to itself — a process always "has" its own
        // message, and excluding it keeps the self-trust clause intact).
        let sets = self
            .n
            .processes()
            .map(|i| {
                let mut d = previously_crashed;
                for j in 0..self.k {
                    let head = self.member(j, r - 1);
                    if i != self.receiver(j, r) && i != head {
                        d.insert(head);
                    }
                }
                d
            })
            .collect();
        RoundFaults::from_sets(self.n, sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::Crash;
    use rrfd_core::{validate_round, ProgramBatch};

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    fn drive(adv: &mut SilencingCrash, rounds: u32) -> FaultPattern {
        let model = Crash::new(adv.system_size(), adv.k * adv.rounds);
        let mut history = FaultPattern::new(adv.system_size());
        let mut batch = ProgramBatch::of(&model);
        for r in 1..=rounds {
            let round = adv.next_round(Round::new(r), &history);
            validate_round(&model, &mut batch, &round)
                .unwrap_or_else(|e| panic!("illegal silencer round {r}: {e}"));
            history.push(round);
        }
        history
    }

    #[test]
    fn schedule_is_crash_legal() {
        // n=10, f=4, k=2 → R=2, crashes {0..3}, tips {4,5}.
        let mut adv = SilencingCrash::new(n(10), 4, 2);
        let history = drive(&mut adv, 5);
        assert_eq!(history.cumulative_union(), adv.crashed());
        assert_eq!(adv.crashed().len(), 4);
    }

    #[test]
    fn chain_head_message_reaches_only_the_next_link() {
        let mut adv = SilencingCrash::new(n(10), 4, 2);
        let history = drive(&mut adv, 2);
        // Round 1: heads are p0 (chain 0) and p1 (chain 1); receivers p2, p3.
        let r1 = history.round(Round::new(1)).unwrap();
        for i in n(10).processes() {
            let d = r1.of(i);
            let misses_p0 = d.contains(ProcessId::new(0));
            if i == ProcessId::new(2) || i == ProcessId::new(0) {
                assert!(!misses_p0, "{i} must hear the chain-0 head");
            } else {
                assert!(misses_p0, "{i} must not hear the chain-0 head");
            }
        }
    }

    #[test]
    fn k1_chain_matches_the_classic_construction() {
        // n=6, f=3, k=1 → R=3: p0→p1→p2 crash, tip p3.
        let adv = SilencingCrash::new(n(6), 3, 1);
        assert_eq!(adv.silenced_rounds(), 3);
        assert_eq!(adv.tip(0), ProcessId::new(3));
        assert_eq!(adv.crashed().len(), 3);
    }

    #[test]
    fn post_silencing_rounds_are_stable() {
        let mut adv = SilencingCrash::new(n(10), 4, 2);
        let history = drive(&mut adv, 6);
        let r5 = history.round(Round::new(5)).unwrap();
        let r6 = history.round(Round::new(6)).unwrap();
        assert_eq!(r5, r6);
        for i in n(10).processes() {
            assert_eq!(r5.of(i), adv.crashed());
        }
    }

    #[test]
    #[should_panic(expected = "f ≥ k")]
    fn too_small_f_is_rejected() {
        let _ = SilencingCrash::new(n(10), 1, 2);
    }

    #[test]
    #[should_panic(expected = "need n ≥")]
    fn too_small_n_is_rejected() {
        let _ = SilencingCrash::new(n(5), 4, 2);
    }
}
