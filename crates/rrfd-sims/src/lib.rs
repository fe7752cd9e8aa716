//! Classical *non-RRFD* system simulators — the substrates Section 2 of
//! the paper relates to the RRFD family.
//!
//! Each simulator models its system at the message/step level with its own
//! ground-truth fault semantics, independently of any predicate. The E1
//! extraction experiments then run real executions, read off the sets
//! `D(i,r)` exactly as the paper prescribes ("the set of processes from
//! which `p_i` failed to receive an r-round message"), and machine-check
//! the corresponding predicate from `rrfd-models`.
//!
//! * [`sync_net`] — lock-step synchronous message passing with
//!   send-omission and crash faults (§2 items 1, 2).
//! * [`async_net`] — event-driven asynchronous message passing with
//!   adversarial delivery order and crashes (§2 item 3); [`async_rounds`]
//!   layers communication-closed rounds on top (buffer-early /
//!   discard-late / wait-for-`n − f`).
//! * [`shared_mem`] — SWMR register banks and an atomic-snapshot object
//!   under an adversarial step scheduler (§2 items 4, 5).
//! * [`semi_sync`] — the Dolev-Dwork-Stockmeyer semi-synchronous model of
//!   §5 (atomic receive/broadcast steps, synchronous broadcast delivery).
//! * [`step`] — the adversary those three share: one event type
//!   ([`step::StepEvent`]: a step, a crash or a channel delivery), one
//!   scheduler trait ([`step::StepScheduler`], handed the execution's
//!   enabled events), a fair and a seeded random scheduler, and the run
//!   loop.
//! * [`detector_s`] — the S-augmented asynchronous system of §2 item 6.
//! * [`dpor`] — the schedule explorer: dynamic partial-order reduction over
//!   execution graphs (events partially ordered by happens-before, one bit
//!   row per event in [`dpor::graph`]), exploring one representative per
//!   Mazurkiewicz trace class, in one depth-first loop. It turns sampled
//!   tests on small instances into proofs-by-enumeration.
//! * [`explore`] — the explorer's result types: search-effort totals
//!   ([`explore::ExploreStats`]) and replayable failing schedules
//!   ([`explore::Counterexample`]).
//! * [`trace`] — schedule capture ([`trace::Recording`]) and deterministic
//!   replay ([`trace::ScheduleReplay`]) for the three step substrates, in
//!   one `rrfd-sched v1` format, so any failing run — including every
//!   explorer counterexample — is a serializable, re-runnable artifact.
//! * [`instrument`] — [`instrument::Instrumented`], a transparent
//!   scheduler wrapper that records every decision as `rrfd_sim_*`
//!   metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_net;
pub mod async_rounds;
pub mod detector_s;
pub mod dpor;
pub mod explore;
pub mod instrument;
pub mod semi_sync;
pub mod shared_mem;
pub mod step;
pub mod sync_net;
pub mod trace;
