//! Threaded execution harness for RRFD algorithms.
//!
//! The other crates *simulate*; this one *executes*: each process of the
//! paper's abstract emit/receive loop runs on its own OS thread, and the
//! round-by-round fault detector is a coordinator service the threads talk
//! to over channels. The coordinator is only a transport: it drives the
//! in-process engine's round core (`rrfd_core::RoundCore`), which consults
//! the detector, validates its every move against the model predicate and
//! records the decisions, the trace and the `rrfd_engine_*` metrics. So a
//! run on threads is a run of the same mathematical object, by the same
//! code — experiment E13 demonstrates Theorem 3.1's one-round k-set
//! agreement end to end this way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sink;
mod threaded;

pub use sink::EventSink;
pub use threaded::{ThreadedEngine, ThreadedError};
