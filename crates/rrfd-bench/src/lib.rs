//! The measurement library behind the `report`, `serve` and
//! `experiments` binaries.
//!
//! Home of [`registry`], every experiment and ablation written once,
//! which `experiments` renders into `EXPERIMENTS.md` and `report` times;
//! of [`stats`], the one quantile definition all bench binaries share; of
//! [`throughput`], the batch-throughput harness behind `--bin serve` and
//! the report's `throughput` section; and of
//! [`conformance`], the zoo-conformance measurement behind the report's
//! `conformance` section and its online/offline differential check.

pub mod conformance;
pub mod lattice;
pub mod registry;
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
