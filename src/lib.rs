//! # RRFD — Round-by-Round Fault Detectors
//!
//! A production-quality Rust reproduction of Eli Gafni's PODC 1998 paper
//! *"Round-by-Round Fault Detectors: Unifying Synchrony and Asynchrony"*.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the RRFD model itself: processes, fault patterns `D(i,r)`,
//!   predicates, the emit/receive round engine, and task specifications.
//! * [`models`] — the predicate zoo of Section 2 of the paper and the
//!   adversaries (random and worst-case) that drive each model.
//! * [`sims`] — the classical *non-RRFD* substrates the paper relates to:
//!   asynchronous message passing, SWMR/snapshot shared memory, synchronous
//!   message passing, the semi-synchronous DDS model, and detector-S systems.
//! * [`protocols`] — the paper's algorithms and simulations: one-round k-set
//!   agreement (Theorem 3.1), adopt-commit, flood-set, the synchronous-round
//!   simulations of Theorems 4.1/4.3, and the 2-step semi-synchronous
//!   consensus of Section 5.
//! * [`runtime`] — a threaded execution harness that runs RRFD algorithms on
//!   real OS threads with a coordinator fault detector.
//! * [`pool`] — the multi-tenant batch execution engine: thousands of
//!   independent protocol instances (mixed protocols, sizes, adversaries)
//!   split across a sharded worker pool, each run to completion on
//!   per-lane state that is reused, not rebuilt: engine, emission buffer
//!   and conformance monitor (DESIGN.md §13).
//! * [`obs`] — round-structured observability: deterministic counters,
//!   gauges, and histograms keyed by `(metric, process, round)`, with
//!   JSONL and Prometheus exporters and a pluggable clock.
//!
//! ## Quickstart
//!
//! Solve 2-set agreement in a single round among 8 processes, driving the
//! system with a random adversary constrained by the Theorem 3.1 predicate:
//!
//! ```
//! use rrfd::core::{ProcessId, SystemSize};
//! use rrfd::models::adversary::RandomAdversary;
//! use rrfd::models::predicates::KUncertainty;
//! use rrfd::protocols::kset::one_round_kset;
//!
//! let n = SystemSize::new(8).unwrap();
//! let inputs: Vec<u64> = (0..8).map(|i| 100 + i).collect();
//! let mut adversary = RandomAdversary::new(KUncertainty::new(n, 2), 0xC0FFEE);
//! let decisions = one_round_kset(n, 2, &inputs, &mut adversary).unwrap();
//!
//! let mut distinct: Vec<u64> = decisions.clone();
//! distinct.sort_unstable();
//! distinct.dedup();
//! assert!(distinct.len() <= 2);
//! for d in &decisions {
//!     assert!(inputs.contains(d));
//! }
//! ```

pub mod guide;

pub use rrfd_core as core;
pub use rrfd_engine_pool as pool;
pub use rrfd_models as models;
pub use rrfd_obs as obs;
pub use rrfd_protocols as protocols;
pub use rrfd_runtime as runtime;
pub use rrfd_sims as sims;
