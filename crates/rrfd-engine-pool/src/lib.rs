//! Multi-tenant batch execution for RRFD protocol instances.
//!
//! The paper (and the rest of the workspace) takes *one run of one
//! protocol under one predicate* as the unit of analysis. A
//! production-shaped system runs **many** such instances concurrently —
//! different protocols, different system sizes, different adversaries,
//! some of them failing — and its service-level quantities are
//! throughput (instances/sec) and tail round latency, not single-run
//! speed. This crate is that throughput axis:
//!
//! * [`mix`] — weighted specifications of the tenant population
//!   ([`MixSpec`]), parsed from compact spec strings, and the concrete
//!   protocol/model/adversary classes they denote.
//! * [`pool`] — the sharded pool itself: [`run_batch`] splits instances
//!   over worker threads, and each shard runs its instances to
//!   completion one after another on per-lane state it reuses (engine,
//!   emission buffer, conformance monitor). Its speedups are measured
//!   against its own one-shard run, and its results are differentially
//!   tested against a one-fresh-engine-per-instance oracle under
//!   `tests/`.
//!
//! Everything is deterministic in `(mix, instances, seed)`: instance →
//! shard and instance → class assignments are pure functions of the
//! instance id, so every shard count builds identical instances without
//! coordination, and a batch's decisions are reproducible at any shard
//! count. The `rrfd-bench` crate's `serve` binary exposes
//! this as a CLI and feeds the `throughput` section of BENCH_rrfd.json.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mix;
pub mod pool;

pub use mix::{ClassKind, ClassSpec, MixError, MixSpec, Stall};
pub use pool::{
    run_batch, BatchReport, ClassConformance, ClassTotals, InstanceClass, InstanceConformance,
    InstanceResult, PoolConfig, RunSummary,
};
