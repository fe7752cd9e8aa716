//! Adversaries: fault detectors that *drive* an RRFD system.
//!
//! "The fault-detector may be considered in fact to be an adversary. The
//! more freedom the RRFD has to present different sets of faulty processes,
//! the more power it has and the harder it will be to solve problems."
//!
//! This module provides:
//!
//! * [`RandomAdversary`] — a seeded adversary that, for any
//!   [`SampleModel`] predicate, generates uniformly-flavoured legal rounds.
//!   Every predicate in [`crate::predicates`] implements [`SampleModel`]
//!   with a *constructive* sampler (no rejection loops), so random runs are
//!   cheap at any system size.
//! * [`NoFailures`] — the deterministic fault-free detector.
//! * [`ReplayDetector`] — re-drives a captured [`rrfd_core::RunTrace`]
//!   bit for bit, closing the capture → replay debugging loop; built
//!   [from rounds](ReplayDetector::from_rounds), it plays a hand-written
//!   script for tests and hand-built executions.
//! * [`SilencingCrash`] — the targeted worst-case adversary behind the
//!   synchronous lower-bound experiment (E9): it silences `k` value-carrier
//!   chains per round and defeats any ⌊f/k⌋-round k-set agreement protocol.
//! * [`RingMiss`] — the `p_1 misses p_2 misses … misses p_1` pattern from
//!   §2 item 4's discussion of the antisymmetric clause.
//! * [`SpreadKUncertainty`], [`StaggeredCrash`], [`Partition`] — further
//!   boundary adversaries: Theorem 3.1's k-value spread, the staggered
//!   crash schedule that pins early-stopping consensus, and the network
//!   partition that eq. 4 exists to exclude.

mod random;
mod replay;
mod scripted;
mod silencer;
mod worst_case;

pub use random::{RandomAdversary, SampleModel};
pub use replay::ReplayDetector;
pub use scripted::{NoFailures, RingMiss};
pub use silencer::SilencingCrash;
pub use worst_case::{Partition, SpreadKUncertainty, StaggeredCrash};
