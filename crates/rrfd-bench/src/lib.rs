//! Shared helpers for the Criterion benches in `benches/`.
//!
//! Each bench regenerates one experiment row from `EXPERIMENTS.md`; the
//! helpers here keep workload construction identical across benches so the
//! measured shapes are comparable.
//!
//! Also home of [`stats`], the one quantile definition all bench
//! binaries share; of [`throughput`], the batch-throughput harness behind
//! `--bin serve` and the report's `throughput` section; and of
//! [`conformance`], the zoo-conformance measurement behind the report's
//! `conformance` section and its online/offline differential check.

pub mod conformance;
pub mod lattice;
pub mod stats;
pub mod throughput;

pub use conformance::{
    measure_conformance, offline_conformance, render_conformance_block, ConformanceSection,
};
pub use lattice::{measure_lattice, render_lattice_line, LatticeSection};
pub use stats::quantile;
pub use throughput::{
    measure_throughput, render_throughput_line, splice_throughput, ThroughputRow,
};

/// Standard system sizes swept by the experiment benches.
pub const SYSTEM_SIZES: &[usize] = &[4, 8, 16, 32, 64];

/// Standard agreement parameters `k` swept by the k-set experiments.
pub const KS: &[usize] = &[1, 2, 4, 8];

/// Deterministic seed base so bench runs are reproducible.
pub const SEED: u64 = 0x5EED_CAFE_F00D_0001;

/// Builds the canonical input vector used by every agreement workload:
/// distinct values `1000 + i` so validity violations are detectable.
pub fn agreement_inputs(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 1000 + i).collect()
}

/// Criterion configuration shared by every experiment bench: short
/// measurement windows so the full `cargo bench` sweep stays tractable
/// while remaining statistically useful for the shapes we report.
#[must_use]
pub fn quick_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600))
}
