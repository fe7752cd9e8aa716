//! # A guided tour: the paper, section by section, in code
//!
//! This module is documentation only — a map from every section of
//! *"Round-by-Round Fault Detectors: Unifying Synchrony and Asynchrony"*
//! to the code that reproduces it. Read it top to bottom alongside the
//! paper, or jump from a section heading to the linked items.
//!
//! ## §1 — The model
//!
//! The abstract algorithm skeleton
//!
//! ```text
//! r := 1
//! forever do
//!     compute messages m_{i,r} for round r
//!     emit m_{i,r}
//!     (wait until) ∀ p_j ∈ S: received m_{j,r} or p_j ∈ D(i,r)
//!     r := r + 1
//! end
//! ```
//!
//! is [`Engine`](crate::core::Engine): protocols implement
//! [`RoundProtocol`](crate::core::RoundProtocol) (an `emit` and a
//! `deliver`), the RRFD implements
//! [`FaultDetector`](crate::core::FaultDetector) (one
//! [`RoundFaults`](crate::core::RoundFaults) per round), and the engine
//! enforces the covering property `S(i,r) ∪ D(i,r) = S` plus the universal
//! well-formedness rule `D(i,r) ≠ S`
//! ([`ill_formed_process`](crate::core::ill_formed_process)).
//!
//! The same loop also runs on real OS threads with the detector as a
//! coordinator service: [`ThreadedEngine`](crate::runtime::ThreadedEngine).
//!
//! A model is a predicate over `{D(i,r)}`:
//! [`RrfdPredicate`](crate::core::RrfdPredicate), with lattice combinators
//! [`And`](crate::core::And) and [`Or`](crate::core::Or). The engine
//! validates every detector move against the model, so the detector is an
//! *adversary inside the system*, exactly as §1 frames it.
//!
//! ## §2 — The model zoo
//!
//! | Item | System | Predicate | Simulator |
//! |------|--------|-----------|-----------|
//! | 1 | synchronous send-omission | [`SendOmission`](crate::models::predicates::SendOmission) (eq. 1) | [`sync_net`](crate::sims::sync_net) with [`RandomOmission`](crate::sims::sync_net::RandomOmission) |
//! | 2 | synchronous crash | [`Crash`](crate::models::predicates::Crash) (eq. 1+2) | [`sync_net`](crate::sims::sync_net) with [`RandomCrash`](crate::sims::sync_net::RandomCrash) |
//! | 3 | asynchronous message passing | [`AsyncResilient`](crate::models::predicates::AsyncResilient) (eq. 3) | [`async_net`](crate::sims::async_net) + the round overlay [`async_rounds`](crate::sims::async_rounds) |
//! | 3 (B) | "System B" | [`SystemB`](crate::models::predicates::SystemB) | two-round echo: [`system_b_echo_pattern`](crate::protocols::equivalence::system_b_echo_pattern) |
//! | 4 | SWMR shared memory | [`Swmr`](crate::models::predicates::Swmr) (eq. 3+4), alternative clause [`AntiSymmetric`](crate::models::predicates::AntiSymmetric) | [`shared_mem`](crate::sims::shared_mem); majority echo [`majority_echo_pattern`](crate::protocols::equivalence::majority_echo_pattern); registers from messages: [`abd`](crate::protocols::abd) |
//! | 5 | atomic snapshot | [`Snapshot`](crate::models::predicates::Snapshot) | snapshot object in [`shared_mem`](crate::sims::shared_mem); its root, the Borowsky-Gafni immediate snapshot: [`immediate_snapshot`](crate::protocols::immediate_snapshot) |
//! | 6 | detector S | [`DetectorS`](crate::models::predicates::DetectorS) | [`detector_s`](crate::sims::detector_s); the payoff, consensus from `P6` alone: [`s_consensus`](crate::protocols::s_consensus) |
//!
//! The submodel relation (`A ⊆ B` iff `P_A ⇒ P_B`) is machine-checked by
//! sampling in [`submodel`](crate::models::submodel), and *exhaustively*
//! for `n ≤ 4` via [`enumerate`](crate::models::enumerate).
//!
//! The paper's item-4 discussion — the miss-ring that satisfies
//! antisymmetry but not eq. 4, and the claim that some process becomes
//! known to all within `n` rounds (conjectured: two) — is executable via
//! [`RingMiss`](crate::models::adversary::RingMiss) and
//! [`rounds_until_known_by_all`](crate::protocols::equivalence::rounds_until_known_by_all).
//! Measured answer: two rounds, in every sampled antisymmetric run
//! (experiment E11).
//!
//! ## §3 — k-set agreement
//!
//! The k-uncertainty detector
//! `|∪_i D(i,r) ∖ ∩_i D(i,r)| < k` is
//! [`KUncertainty`](crate::models::predicates::KUncertainty).
//!
//! * **Theorem 3.1** (one-round algorithm):
//!   [`one_round_kset`](crate::protocols::kset::one_round_kset). The test
//!   suite proves it by enumeration for `n ≤ 4` and exhibits the `k`-value
//!   worst case with
//!   [`SpreadKUncertainty`](crate::models::adversary::SpreadKUncertainty).
//! * **Corollary 3.2** (k-set agreement with `k − 1` crashes):
//!   [`SnapshotKSet`](crate::protocols::kset::SnapshotKSet) on the
//!   snapshot simulator.
//! * **Theorem 3.3** (detector from a k-set-consensus object):
//!   [`build_detector_pattern`](crate::protocols::detector_from_kset::build_detector_pattern),
//!   using the oracle objects of
//!   [`SharedMemSim::with_kset_objects`](crate::sims::shared_mem::SharedMemSim::with_kset_objects).
//!
//! ## §4 — Relating synchrony and asynchrony
//!
//! * **Theorem 4.1** (omission rounds from k-resilient snapshots):
//!   [`run_as_omission`](crate::protocols::sync_sim::run_as_omission) —
//!   the simulation is the identity; the theorem is predicate arithmetic,
//!   certified on every run.
//! * **§4.2 adopt-commit**:
//!   [`AdoptCommitMachine`](crate::protocols::adopt_commit::AdoptCommitMachine),
//!   verified over *all* two-process interleavings (3432 schedules in 9
//!   trace classes) via
//!   [`explore_shared_mem_dpor`](crate::sims::dpor::explore_shared_mem_dpor).
//! * **Theorem 4.3** (crash rounds via adopt-commit):
//!   [`run_crash_simulation`](crate::protocols::sync_sim::run_crash_simulation)
//!   — three asynchronous phases per simulated round, with the extracted
//!   pattern certified against the crash predicate.
//! * **Corollaries 4.2/4.4** (the `⌊f/k⌋ + 1` bound): the upper bound is
//!   [`FloodMin`](crate::protocols::kset::FloodMin); the lower bound's
//!   hard execution is
//!   [`SilencingCrash`](crate::models::adversary::SilencingCrash), which
//!   forces `k + 1` values at budget `⌊f/k⌋` and loses at `⌊f/k⌋ + 1`.
//!
//! ## §5 — The semi-synchronous model
//!
//! The Dolev-Dwork-Stockmeyer model is
//! [`SemiSyncSim`](crate::sims::semi_sync::SemiSyncSim) (atomic
//! receive-all/broadcast steps, synchronous broadcast delivery). The
//! 2-step round primitive of Theorem 5.1 and the resulting 2-step
//! consensus — the answer to DDS's open problem — are
//! [`TwoStepConsensus`](crate::protocols::semi_sync_consensus::TwoStepConsensus);
//! the 2n-step baseline shape is
//! [`RepeatedRounds`](crate::protocols::semi_sync_consensus::RepeatedRounds).
//! Equation 5 (identical views) is
//! [`IdenticalViews`](crate::models::predicates::IdenticalViews), and the
//! whole claim is proved by enumeration over every schedule and crash
//! placement for small `n`.
//!
//! ## §7 — "We advocate using them"
//!
//! The paper closes by proposing RRFDs as a setting for real algorithms.
//! The extensions here take that up:
//!
//! * [`EarlyStoppingConsensus`](crate::protocols::early_stopping::EarlyStoppingConsensus)
//!   — decide in `min(f′ + 2, f + 1)` rounds under the crash predicate.
//! * [`SRotatingConsensus`](crate::protocols::s_consensus::SRotatingConsensus)
//!   — consensus from `P6` alone.
//! * [`EventuallyStrong`](crate::models::predicates::EventuallyStrong) and
//!   [`DiamondSConsensus`](crate::protocols::diamond_s_consensus::DiamondSConsensus)
//!   — ◊S as an RRFD (stabilization round in the predicate) and the
//!   Chandra-Toueg-style quorum-locking consensus it supports, rederiving
//!   the classical failure-detector result inside the framework.
//! * The exhaustive explorers
//!   ([`dpor`](crate::sims::dpor),
//!   [`enumerate`](crate::models::enumerate)) — treat the predicate as a
//!   first-class object and *enumerate* adversaries, something only
//!   possible because the detector is part of the system.
//!
//! ## Reproducing the numbers
//!
//! `EXPERIMENTS.md` records paper-claim vs measured for every experiment
//! E1–E17; regenerate it with
//! `cargo run -p rrfd-bench --bin experiments --release`. The bench
//! report (`cargo run --release -p rrfd-bench --bin report`) times every
//! experiment and writes the latency rows, median and p95, to
//! `BENCH_rrfd.json`.
