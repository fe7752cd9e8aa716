//! Core model of **round-by-round fault detectors** (RRFDs), after
//! Eli Gafni, *"Round-by-Round Fault Detectors: Unifying Synchrony and
//! Asynchrony"*, PODC 1998.
//!
//! An RRFD system evolves in communication-closed rounds. In round `r`
//! every process emits a message; process `p_i` then waits until, for every
//! `p_j`, it has either received `p_j`'s round-`r` message or been told by
//! the fault detector that `p_j ∈ D(i,r)` is faulty *for this round*. The
//! defining insight is that the detector is not a helpful oracle bolted onto
//! an asynchronous system but an **adversary that is part of the system**:
//! a concrete model is exactly a predicate `P` constraining the family
//! `{D(i,r)}`.
//!
//! This crate provides the machinery every other workspace crate builds on:
//!
//! * [`ProcessId`], [`SystemSize`], [`Round`] — the process universe.
//! * [`IdSet`] — allocation-free sets of processes.
//! * [`RoundFaults`], [`FaultPattern`] — one round of suspicion sets, and a
//!   recorded history.
//! * [`RrfdPredicate`] and combinators — models as predicates.
//! * [`PredicateProgram`], [`ProgramBatch`] — the compiled predicate plane:
//!   predicates lowered to word-level programs over packed [`IdSet`] bits,
//!   batch-evaluated against a round in one pass (DESIGN.md §17).
//! * [`Engine`], [`RoundProtocol`], [`FaultDetector`] — the emit/receive
//!   loop from Section 1 of the paper, with mechanical validation of every
//!   adversary move. [`RoundCore`] is that loop's round semantics without
//!   a message transport: the in-process engine and the threaded runtime
//!   both drive it, and a failed run's `rrfd-flight v1` dump
//!   ([`RoundCore::flight_dump`]) is rendered from its record.
//! * [`KnowledgeState`], [`KnowledgeMatrix`] — full-information runs and the
//!   knowledge-spread arguments of §2 item 4.
//! * [`RunTrace`] — serializable records of whole runs (every `D(i,r)`,
//!   every `S(i,r)`, decisions, violations), rendered from a run's
//!   [`RoundCore`], for the capture → replay debugging workflow.
//! * [`EventLog`], [`RtEvent`] — runtime-level event records (channel
//!   sends/receives, shared-state accesses) consumed by the happens-before
//!   race checker in `rrfd-analyze`; [`lineformat`] holds the shared
//!   line-oriented serialization dialect all trace formats use.
//! * [`hb`] — vector clocks and the happens-before order, shared by the
//!   race checker and the DPOR execution-graph explorer in `rrfd-sims`.
//! * [`task`] — checkable task specifications (consensus, k-set agreement,
//!   adopt-commit).
//!
//! Concrete predicates and adversaries live in `rrfd-models`; classical
//! system simulators in `rrfd-sims`; the paper's algorithms in
//! `rrfd-protocols`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod events;
mod full_info;
pub mod hb;
mod id;
mod idset;
pub mod lineformat;
mod pattern;
mod predicate;
mod program;
pub mod task;
mod trace;

pub use engine::{
    flight_header, Control, Delivery, Engine, EngineError, EngineRun, EngineStep, FaultDetector,
    FinishedRun, RoundCore, RoundHook, RoundProtocol, RunReport, DEFAULT_FLIGHT_ROUNDS,
    DEFAULT_MAX_ROUNDS,
};
pub use events::{Actor, EventLog, RtEvent, RtEventKind};
pub use full_info::{KnowledgeMatrix, KnowledgeProtocol, KnowledgeState};
pub use id::{InvalidSystemSize, ProcessId, Round, SystemSize, MAX_PROCESSES};
pub use idset::{IdSet, Iter};
pub use lineformat::LineError;
pub use pattern::{FaultPattern, RoundFaults};
pub use predicate::{
    ill_formed_process, validate_round, And, AnyPattern, Or, PatternViolation, RrfdPredicate,
};
pub use program::{HistoryCtx, PredicateProgram, ProgOp, ProgramBatch, RoundProfile};
pub use trace::{ParseTraceError, RunTrace, TraceOutcome, TraceRound};
