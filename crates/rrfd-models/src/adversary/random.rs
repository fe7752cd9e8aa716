//! Seeded random adversaries with constructive per-predicate samplers.

use crate::predicates::{
    AsyncResilient, Crash, DetectorS, IdenticalViews, KUncertainty, SendOmission, Snapshot, Swmr,
    SystemB,
};
use rand::rngs::StdRng;
use rand::seq::{IteratorRandom, SliceRandom};
use rand::{Rng, SeedableRng};
use rrfd_core::{
    FaultDetector, FaultPattern, IdSet, ProcessId, Round, RoundFaults, RrfdPredicate, SystemSize,
};

/// A predicate that knows how to *generate* legal rounds, not just check
/// them.
///
/// Samplers must be constructive: every produced round satisfies the
/// predicate by construction (the engine re-validates anyway). They should
/// also cover the predicate's behaviours broadly — e.g. the crash sampler
/// sometimes crashes nobody, sometimes several processes at once, and
/// staggers which processes notice first.
pub trait SampleModel: RrfdPredicate {
    /// Produces one legal round extending `history`.
    fn sample_round(&self, rng: &mut StdRng, history: &FaultPattern) -> RoundFaults;
}

/// A [`FaultDetector`] that plays uniformly-random legal moves for any
/// [`SampleModel`], reproducibly from a seed.
///
/// # Examples
///
/// ```
/// use rrfd_core::{FaultDetector, FaultPattern, Round, RrfdPredicate, SystemSize};
/// use rrfd_models::adversary::RandomAdversary;
/// use rrfd_models::predicates::AsyncResilient;
///
/// let n = SystemSize::new(6).unwrap();
/// let model = AsyncResilient::new(n, 2);
/// let mut adv = RandomAdversary::new(model, 42);
/// let mut history = FaultPattern::new(n);
/// for r in 1..=10 {
///     let round = adv.next_round(Round::new(r), &history);
///     assert!(model.admits(&history, &round));
///     history.push(round);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RandomAdversary<M> {
    model: M,
    rng: StdRng,
}

impl<M: SampleModel> RandomAdversary<M> {
    /// Creates an adversary for `model`, deterministic in `seed`.
    #[must_use]
    pub fn new(model: M, seed: u64) -> Self {
        RandomAdversary {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The model being played.
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: SampleModel> FaultDetector for RandomAdversary<M> {
    fn system_size(&self) -> SystemSize {
        self.model.system_size()
    }

    fn next_round(&mut self, _round: Round, history: &FaultPattern) -> RoundFaults {
        self.model.sample_round(&mut self.rng, history)
    }
}

/// Uniformly chooses a subset of `from` with at most `max_size` members
/// (the size itself is uniform in `0..=min(max_size, |from|)`).
fn random_subset(rng: &mut StdRng, from: IdSet, max_size: usize) -> IdSet {
    let cap = max_size.min(from.len());
    let size = rng.gen_range(0..=cap);
    from.iter().choose_multiple(rng, size).into_iter().collect()
}

impl SampleModel for AsyncResilient {
    fn sample_round(&self, rng: &mut StdRng, _history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let universe = IdSet::universe(n);
        let sets = n
            .processes()
            .map(|_| random_subset(rng, universe, self.f()))
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for SendOmission {
    fn sample_round(&self, rng: &mut StdRng, history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let pool = history.cumulative_union();
        let budget = self.f().saturating_sub(pool.len());
        let fresh = random_subset(rng, pool.complement(n), budget);
        let allowed = pool.union(fresh);
        let sets = n
            .processes()
            .map(|i| {
                // Self-suspicion only for previously-suspected processes.
                let candidates = if pool.contains(i) {
                    allowed
                } else {
                    allowed - IdSet::singleton(i)
                };
                random_subset(rng, candidates, candidates.len())
            })
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for Crash {
    fn sample_round(&self, rng: &mut StdRng, history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let crashed = history.cumulative_union();
        let mandatory = history.last().map_or(IdSet::empty(), RoundFaults::union);
        let budget = self.f().saturating_sub(crashed.len());
        let fresh = random_subset(rng, crashed.complement(n), budget);
        let optional = crashed.union(fresh) - mandatory;
        let sets = n
            .processes()
            .map(|i| {
                let extra_pool = if crashed.contains(i) {
                    optional
                } else {
                    optional - IdSet::singleton(i)
                };
                mandatory | random_subset(rng, extra_pool, extra_pool.len())
            })
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for Swmr {
    fn sample_round(&self, rng: &mut StdRng, _history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let star = ProcessId::new(rng.gen_range(0..n.get()));
        let pool = IdSet::universe(n) - IdSet::singleton(star);
        let sets = n
            .processes()
            .map(|_| random_subset(rng, pool, self.f()))
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for Snapshot {
    fn sample_round(&self, rng: &mut StdRng, _history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        // Build a chain ∅ = S_0 ⊂ S_1 ⊂ … ⊂ S_m of missed-sets, |S_m| ≤ f.
        let missed = random_subset(rng, IdSet::universe(n), self.f());
        let mut order: Vec<ProcessId> = missed.iter().collect();
        order.shuffle(rng);
        // chain[l] = first l elements of the order.
        let chain: Vec<IdSet> = (0..=order.len())
            .map(|l| order[..l].iter().copied().collect())
            .collect();
        // first_containing[i] = smallest l with i ∈ S_l (l = position+1).
        let sets = n
            .processes()
            .map(|i| {
                let limit = order
                    .iter()
                    .position(|&p| p == i)
                    .map_or(chain.len(), |pos| pos + 1);
                chain[rng.gen_range(0..limit)]
            })
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for DetectorS {
    fn sample_round(&self, rng: &mut StdRng, history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        // The immortal is the least never-suspected process; it never
        // changes because we never suspect it.
        let immortal = history
            .cumulative_union()
            .complement(n)
            .min()
            .expect("P6 guarantees a never-suspected process");
        let pool = IdSet::universe(n) - IdSet::singleton(immortal);
        let sets = n
            .processes()
            .map(|_| random_subset(rng, pool, pool.len()))
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for KUncertainty {
    fn sample_round(&self, rng: &mut StdRng, _history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let universe = IdSet::universe(n);
        // Unanimous base B plus a contested set U with |U| ≤ k−1 and
        // |B ∪ U| < n, so no D(i,r) can cover the universe.
        let base = random_subset(rng, universe, n.get().saturating_sub(self.k()));
        let contested_pool = universe - base;
        let headroom = (n.get() - 1).saturating_sub(base.len());
        let contested = random_subset(rng, contested_pool, (self.k() - 1).min(headroom));
        let sets = n
            .processes()
            .map(|_| base | random_subset(rng, contested, contested.len()))
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for crate::predicates::EventuallyStrong {
    fn sample_round(&self, rng: &mut StdRng, history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let universe = IdSet::universe(n);
        let this_round = history.rounds() as u32 + 1;
        let pool = if this_round <= self.stabilization().get() {
            universe
        } else {
            // Keep the least surviving candidate immortal forever.
            let immortal = self
                .immortal_candidates(history)
                .min()
                .expect("◊S guarantees a surviving candidate");
            universe - IdSet::singleton(immortal)
        };
        let sets = n
            .processes()
            .map(|_| random_subset(rng, pool, self.f()))
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for crate::predicates::AntiSymmetric {
    fn sample_round(&self, rng: &mut StdRng, _history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let mut sets = vec![IdSet::empty(); n.get()];
        // For each unordered pair, pick one of: no miss, i misses j, or
        // j misses i — never both, and never a self-miss.
        for i in 0..n.get() {
            for j in (i + 1)..n.get() {
                match rng.gen_range(0..3u8) {
                    1 => {
                        sets[i].insert(ProcessId::new(j));
                    }
                    2 => {
                        sets[j].insert(ProcessId::new(i));
                    }
                    _ => {}
                }
            }
        }
        RoundFaults::from_sets(n, sets)
    }
}

impl SampleModel for IdenticalViews {
    fn sample_round(&self, rng: &mut StdRng, _history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let shared = random_subset(rng, IdSet::universe(n), n.get() - 1);
        RoundFaults::from_sets(n, vec![shared; n.get()])
    }
}

impl SampleModel for SystemB {
    fn sample_round(&self, rng: &mut StdRng, _history: &FaultPattern) -> RoundFaults {
        let n = self.system_size();
        let universe = IdSet::universe(n);
        let slow = random_subset(rng, universe, self.t());
        let sets = n
            .processes()
            .map(|i| {
                let bound = if slow.contains(i) { self.t() } else { self.f() };
                random_subset(rng, universe, bound)
            })
            .collect();
        RoundFaults::from_sets(n, sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples `rounds` rounds from `model` under several seeds and checks
    /// every round against the model itself (constructive correctness).
    fn assert_sampler_sound<M: SampleModel + Clone>(model: M, rounds: u32) {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let mut adv = RandomAdversary::new(model.clone(), seed);
            let mut history = FaultPattern::new(model.system_size());
            let mut batch = rrfd_core::ProgramBatch::of(&model);
            for r in 1..=rounds {
                let round = adv.next_round(Round::new(r), &history);
                assert!(
                    rrfd_core::validate_round(&model, &mut batch, &round).is_ok(),
                    "sampler for {} produced an illegal round {r} under seed {seed}: {round:?}",
                    model.name()
                );
                history.push(round);
            }
        }
    }

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    #[test]
    fn async_resilient_sampler_is_sound() {
        assert_sampler_sound(AsyncResilient::new(n(6), 2), 30);
        assert_sampler_sound(AsyncResilient::new(n(6), 0), 10);
        assert_sampler_sound(AsyncResilient::new(n(6), 5), 30);
    }

    #[test]
    fn send_omission_sampler_is_sound() {
        assert_sampler_sound(SendOmission::new(n(6), 3), 30);
        assert_sampler_sound(SendOmission::new(n(6), 0), 10);
    }

    #[test]
    fn crash_sampler_is_sound() {
        assert_sampler_sound(Crash::new(n(6), 3), 30);
        assert_sampler_sound(Crash::new(n(6), 5), 30);
    }

    #[test]
    fn swmr_sampler_is_sound() {
        assert_sampler_sound(Swmr::new(n(6), 2), 30);
    }

    #[test]
    fn snapshot_sampler_is_sound() {
        assert_sampler_sound(Snapshot::new(n(6), 3), 30);
        assert_sampler_sound(Snapshot::new(n(8), 7), 30);
    }

    #[test]
    fn detector_s_sampler_is_sound() {
        assert_sampler_sound(DetectorS::new(n(6)), 30);
        assert_sampler_sound(DetectorS::new(n(1)), 5);
    }

    #[test]
    fn eventually_strong_sampler_is_sound() {
        use crate::predicates::EventuallyStrong;
        use rrfd_core::Round;
        assert_sampler_sound(EventuallyStrong::new(n(7), 3, Round::new(4)), 20);
        assert_sampler_sound(EventuallyStrong::new(n(5), 1, Round::new(1)), 15);
    }

    #[test]
    fn antisymmetric_sampler_is_sound() {
        use crate::predicates::AntiSymmetric;
        assert_sampler_sound(AntiSymmetric::new(n(6)), 25);
    }

    #[test]
    fn k_uncertainty_sampler_is_sound() {
        assert_sampler_sound(KUncertainty::new(n(6), 1), 30);
        assert_sampler_sound(KUncertainty::new(n(6), 3), 30);
        assert_sampler_sound(KUncertainty::new(n(6), 5), 30);
    }

    #[test]
    fn identical_views_sampler_is_sound() {
        assert_sampler_sound(IdenticalViews::new(n(6)), 30);
    }

    #[test]
    fn system_b_sampler_is_sound() {
        assert_sampler_sound(SystemB::new(n(7), 1, 3), 30);
    }

    #[test]
    fn samplers_are_deterministic_in_the_seed() {
        let model = Crash::new(n(6), 3);
        let run = |seed| {
            let mut adv = RandomAdversary::new(model, seed);
            let mut history = FaultPattern::new(n(6));
            for r in 1..=10 {
                let round = adv.next_round(Round::new(r), &history);
                history.push(round);
            }
            format!("{history:?}")
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }

    #[test]
    fn samplers_actually_exercise_faults() {
        // A sampler that always returns ∅ would be trivially sound; make
        // sure suspicion actually happens under at least one seed.
        let model = AsyncResilient::new(n(8), 3);
        let mut adv = RandomAdversary::new(model, 99);
        let mut history = FaultPattern::new(n(8));
        let mut suspicions = 0usize;
        for r in 1..=20 {
            let round = adv.next_round(Round::new(r), &history);
            suspicions += round.union().len();
            history.push(round);
        }
        assert!(suspicions > 0, "random adversary never suspected anyone");
    }
}
