//! The measurement library behind the `report`, `serve` and
//! `experiments` binaries.
//!
//! Home of [`registry`], every experiment and ablation written once,
//! which `experiments` renders into `EXPERIMENTS.md` and `report` times;
//! of [`stats`], the one quantile definition all bench binaries share; of
//! [`throughput`], the batch-throughput harness behind `--bin serve` and
//! the report's `throughput` section; of
//! [`conformance`], the zoo-conformance measurement behind the report's
//! `conformance` section and its online/offline differential check; and
//! of [`args`], the flag parsing the binaries share.

pub mod args;
pub mod conformance;
pub mod registry;
pub mod stats;
pub mod throughput;

pub use conformance::{
    measure_conformance, offline_conformance, render_conformance_block, ConformanceSection,
};
pub use stats::quantile;
pub use throughput::{measure_throughput, render_throughput_line, ThroughputRow};
