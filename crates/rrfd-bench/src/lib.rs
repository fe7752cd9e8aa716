//! The measurement library behind the `report`, `serve` and
//! `experiments` binaries.
//!
//! Home of [`stats`], the one quantile definition all bench
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

use rrfd_core::{Control, Delivery, Round, RoundProtocol};

/// A protocol that sends nothing and decides `()` at round `self.0`: it
/// keeps a simulator running for a fixed number of rounds so the fault
/// pattern it extracts can be checked against a model.
pub struct RunFor(pub u32);

impl RoundProtocol for RunFor {
    type Msg = ();
    type Output = ();
    fn emit(&mut self, _r: Round) {}
    fn deliver(&mut self, d: Delivery<'_, ()>) -> Control<()> {
        if d.round.get() >= self.0 {
            Control::Decide(())
        } else {
            Control::Continue
        }
    }
}
