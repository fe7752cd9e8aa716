//! Threaded execution harness for RRFD algorithms.
//!
//! The other crates *simulate*; this one *executes*: each process of the
//! paper's abstract emit/receive loop runs on its own OS thread, and the
//! round-by-round fault detector is a coordinator service the threads talk
//! to over channels. The harness validates every detector move against the
//! model predicate, exactly like the in-process engine, so a run on
//! threads is a run of the same mathematical object — experiment E13
//! demonstrates Theorem 3.1's one-round k-set agreement end to end this
//! way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod sink;
mod threaded;

pub use clock::RoundClock;
pub use sink::EventSink;
pub use threaded::{ThreadedEngine, ThreadedError};
