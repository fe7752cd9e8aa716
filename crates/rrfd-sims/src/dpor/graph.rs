//! Execution graphs: events, access footprints, happens-before, and the
//! canonical linearization of a Mazurkiewicz trace class.
//!
//! One complete run of a simulator is recorded as a sequence of events,
//! each carrying the shared-state footprint ([`Access`]) its application
//! reported; per event, the graph keeps the set of events that happen
//! before it as a bit row. Two events *conflict* when swapping them can
//! change the run's outcome; happens-before is the transitive closure of
//! program order and conflict order. Everything the DPOR driver derives
//! from a run — the class identity, the race list, the revisit prefixes —
//! is computed from this partial order, never from the incidental order
//! in which the run happened to be executed. That makes the derived data
//! a pure function of the trace class, which is what keeps the
//! exploration deterministic across worker counts.

use crate::step::StepEvent;
use rrfd_core::ProcessId;

/// The shared-state footprint of one applied event, unified across the
/// shared-memory and semi-synchronous substrates. The conflict relation
/// over footprints ([`Access::conflicts`]) is exactly what the DPOR
/// equivalence proof needs: two adjacent events of different processes
/// with non-conflicting footprints commute — applying them in either
/// order reaches the same state and enables the same continuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Purely process-local step: a shared-memory decision, or a
    /// semi-synchronous step that neither broadcast nor decided (it only
    /// consumed its own inbox).
    Local,
    /// Wrote the single-writer cell `(bank, owner)`.
    Write {
        /// Bank written.
        bank: usize,
        /// Cell owner (always the writer — cells are single-writer).
        owner: usize,
    },
    /// Read the cell `(bank, owner)`.
    Read {
        /// Bank read.
        bank: usize,
        /// Owner of the cell read.
        owner: usize,
    },
    /// Atomically read every cell of `bank`.
    Snapshot {
        /// Bank snapshotted.
        bank: usize,
    },
    /// Proposed to the k-set-consensus oracle `object` (the oracle
    /// adjudicates first-come-first-served, so proposal order matters).
    Oracle {
        /// Oracle object index.
        object: usize,
    },
    /// Semi-synchronous step that broadcast a message (appended to the
    /// broadcast log every process reads, crashed or not).
    Broadcast,
    /// Semi-synchronous step that decided without broadcasting (shrinks
    /// the live set, which gates crash enabledness).
    Decide,
    /// Semi-synchronous step that broadcast *and* decided.
    BroadcastDecide,
    /// A crash (consumes the shared crash budget and shrinks the live
    /// set).
    Crash,
}

impl Access {
    /// Whether two footprints of **different** processes conflict, i.e.
    /// whether swapping two adjacent events carrying them can change the
    /// reachable state or the enabled event set. Same-process events are
    /// always ordered by program order and must not be passed here.
    ///
    /// The rules, substrate by substrate:
    ///
    /// * shared memory — cells are single-writer, so writes never
    ///   conflict with writes; a write conflicts with a read of the same
    ///   cell and with a snapshot of its bank; oracle proposals to the
    ///   same object conflict (first proposal wins adoption races).
    /// * semi-synchronous — a broadcast lands in *every* inbox, so it
    ///   conflicts with every other step (the other step sees a
    ///   different inbox depending on order); two crashes share the
    ///   budget; a crash conflicts with a *deciding* step because the
    ///   live-set size gates crash enabledness (`live > 1`); a crash
    ///   commutes with silent and broadcasting non-deciding steps —
    ///   broadcasts reach crashed inboxes anyway.
    #[must_use]
    pub fn conflicts(self, other: Access) -> bool {
        use Access::{
            Broadcast, BroadcastDecide, Crash, Decide, Local, Oracle, Read, Snapshot, Write,
        };
        match (self, other) {
            // Shared memory.
            (
                Write {
                    bank: wb,
                    owner: wo,
                },
                Read {
                    bank: rb,
                    owner: ro,
                },
            )
            | (
                Read {
                    bank: rb,
                    owner: ro,
                },
                Write {
                    bank: wb,
                    owner: wo,
                },
            ) => wb == rb && wo == ro,
            (Write { bank: wb, .. }, Snapshot { bank: sb })
            | (Snapshot { bank: sb }, Write { bank: wb, .. }) => wb == sb,
            (Oracle { object: a }, Oracle { object: b }) => a == b,
            // Semi-synchronous: broadcasts order every inbox.
            (Broadcast | BroadcastDecide, Local | Broadcast | Decide | BroadcastDecide)
            | (Local | Decide, Broadcast | BroadcastDecide) => true,
            // Crashes: budget and live-set interplay.
            (Crash, Crash) => true,
            (Crash, Decide | BroadcastDecide) | (Decide | BroadcastDecide, Crash) => true,
            _ => false,
        }
    }
}

/// One event of a recorded execution: the scheduler event itself, the
/// process it names, and the footprint its application reported.
#[derive(Debug, Clone)]
pub struct ExecEvent {
    /// The scheduler event, replayable through the simulator.
    pub event: StepEvent,
    /// The process the event names.
    pub pid: ProcessId,
    /// The shared-state footprint the application reported.
    pub access: Access,
}

/// Words of a bit row over `bits` events.
fn words(bits: usize) -> usize {
    bits.div_ceil(64)
}

fn bit(row: &[u64], i: usize) -> bool {
    row[i / 64] >> (i % 64) & 1 == 1
}

fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// The indices of the set bits of `row`, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

/// A recorded execution with its happens-before order, built
/// incrementally as events are applied.
///
/// Happens-before is stored as one bit row per event: bit `i` of event
/// `k`'s row is set iff `i →hb k`. Every edge runs from an earlier event
/// to a later one, so event `k`'s row needs only `k` bits; the rows are
/// packed back to back in one flat buffer.
#[derive(Debug, Clone)]
pub struct ExecutionGraph {
    n: usize,
    events: Vec<ExecEvent>,
    /// Every event's strict-predecessor row, back to back.
    rows: Vec<u64>,
    /// Where each event's row starts in `rows`.
    row_start: Vec<usize>,
}

impl ExecutionGraph {
    /// An empty graph over `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ExecutionGraph {
            n,
            events: Vec::new(),
            rows: Vec::new(),
            row_start: Vec::new(),
        }
    }

    /// The recorded events, in execution order.
    #[must_use]
    pub fn events(&self) -> &[ExecEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Forgets every recorded event but keeps the buffers, so the graph
    /// can record the next run of the same process count without
    /// reallocating.
    pub fn clear(&mut self) {
        self.events.clear();
        self.rows.clear();
        self.row_start.clear();
    }

    /// Event `k`'s strict-predecessor row.
    fn row(&self, k: usize) -> &[u64] {
        let start = self.row_start[k];
        &self.rows[start..start + words(k)]
    }

    /// Records an applied event of process `event.pid()`. Its
    /// predecessors are its program-order predecessor and every earlier
    /// conflicting event of another process, each together with its own
    /// predecessors. Priors are scanned newest first, so a prior that is
    /// already a predecessor brings nothing new and is skipped.
    ///
    /// # Panics
    ///
    /// Panics when the event's process is not one of the graph's `n`
    /// processes.
    pub fn push(&mut self, event: StepEvent, access: Access) {
        let pid = event.pid();
        assert!(
            pid.index() < self.n,
            "process {pid:?} outside a graph over {} processes",
            self.n
        );
        let k = self.events.len();
        let start = self.rows.len();
        self.rows.resize(start + words(k), 0);
        let (earlier, row) = self.rows.split_at_mut(start);
        for (m, prior) in self.events.iter().enumerate().rev() {
            if bit(row, m) || !(prior.pid == pid || prior.access.conflicts(access)) {
                continue;
            }
            let from = self.row_start[m];
            for (w, &word) in row.iter_mut().zip(&earlier[from..from + words(m)]) {
                *w |= word;
            }
            set_bit(row, m);
        }
        self.row_start.push(start);
        self.events.push(ExecEvent { event, pid, access });
    }

    /// Whether event `i` happens-before event `j` (strict: `false` when
    /// `i == j`).
    #[must_use]
    pub fn hb(&self, i: usize, j: usize) -> bool {
        i < j && bit(self.row(j), i)
    }

    /// The canonical linearization of this run's trace class: a greedy
    /// topological sort of happens-before that always emits the
    /// hb-available event of the smallest process id. Within a process,
    /// program order forces a chain, so at most one event per process is
    /// available at a time — its next unemitted event, available once
    /// all of its predecessors are emitted — and the choice is
    /// unambiguous.
    ///
    /// Two runs in the same Mazurkiewicz class have the same event set
    /// and the same happens-before order, hence the same canonical
    /// linearization — it identifies the class, and data derived from it
    /// is a pure function of the class.
    #[must_use]
    pub fn canonical_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.events.len());
        self.canonical_order_into(&mut order);
        order
    }

    /// [`ExecutionGraph::canonical_order`], written into `order` (cleared
    /// first) so a caller linearizing many runs reuses one buffer.
    pub fn canonical_order_into(&self, order: &mut Vec<usize>) {
        order.clear();
        let len = self.events.len();
        // `next[p]` is process p's first unemitted event and `after[m]`
        // the event of m's process that follows m (`len` for none).
        let mut next = vec![len; self.n];
        let mut after = vec![len; len];
        for (m, event) in self.events.iter().enumerate().rev() {
            after[m] = std::mem::replace(&mut next[event.pid.index()], m);
        }
        let mut emitted = vec![0u64; words(len)];
        for _ in 0..len {
            let available = (0..self.n).find(|&p| {
                next[p] < len
                    && self
                        .row(next[p])
                        .iter()
                        .zip(&emitted)
                        .all(|(&pred, &done)| pred & !done == 0)
            });
            let Some(p) = available else {
                unreachable!("happens-before must stay acyclic");
            };
            let j = next[p];
            set_bit(&mut emitted, j);
            order.push(j);
            next[p] = after[j];
        }
    }

    /// Reversible races of this run, as index pairs `(i, j)` into
    /// [`ExecutionGraph::events`], sorted: conflicting events of
    /// different processes with `i` happens-before `j` and no third
    /// event between them in the order (`i →hb k →hb j`). Reversing such
    /// a pair is the smallest perturbation that reaches a different
    /// trace class; races with an intermediary are reached transitively
    /// by reversing the smaller races first.
    ///
    /// The definition mentions only the partial order, so the race list
    /// is the same for every linearization of the class.
    #[must_use]
    pub fn reversible_races(&self) -> Vec<(usize, usize)> {
        let mut races = Vec::new();
        // Predecessors of `j`'s predecessors: exactly the events `i`
        // with some `i →hb k →hb j`.
        let mut mediated = vec![0u64; words(self.events.len())];
        for (j, later) in self.events.iter().enumerate() {
            let row = self.row(j);
            let mediated = &mut mediated[..row.len()];
            mediated.fill(0);
            for k in ones(row) {
                for (m, &word) in mediated.iter_mut().zip(self.row(k)) {
                    *m |= word;
                }
            }
            races.extend(
                ones(row)
                    .filter(|&i| {
                        let earlier = &self.events[i];
                        earlier.pid != later.pid
                            && earlier.access.conflicts(later.access)
                            && !bit(mediated, i)
                    })
                    .map(|i| (i, j)),
            );
        }
        races.sort_unstable();
        races
    }

    /// The process count this graph was built over.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn conflict_relation_is_symmetric() {
        let footprints = [
            Access::Local,
            Access::Write { bank: 0, owner: 0 },
            Access::Write { bank: 0, owner: 1 },
            Access::Read { bank: 0, owner: 0 },
            Access::Read { bank: 1, owner: 0 },
            Access::Snapshot { bank: 0 },
            Access::Snapshot { bank: 1 },
            Access::Oracle { object: 0 },
            Access::Oracle { object: 1 },
            Access::Broadcast,
            Access::Decide,
            Access::BroadcastDecide,
            Access::Crash,
        ];
        for &a in &footprints {
            for &b in &footprints {
                assert_eq!(a.conflicts(b), b.conflicts(a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn single_writer_writes_never_conflict() {
        let w0 = Access::Write { bank: 0, owner: 0 };
        let w1 = Access::Write { bank: 0, owner: 1 };
        assert!(!w0.conflicts(w1));
        // But a write conflicts with a read of the same cell and a
        // snapshot of its bank.
        assert!(w0.conflicts(Access::Read { bank: 0, owner: 0 }));
        assert!(!w0.conflicts(Access::Read { bank: 0, owner: 1 }));
        assert!(w0.conflicts(Access::Snapshot { bank: 0 }));
        assert!(!w0.conflicts(Access::Snapshot { bank: 1 }));
    }

    #[test]
    fn crash_commutes_with_silent_steps_but_not_decisions() {
        assert!(!Access::Crash.conflicts(Access::Local));
        assert!(!Access::Crash.conflicts(Access::Broadcast));
        assert!(Access::Crash.conflicts(Access::Decide));
        assert!(Access::Crash.conflicts(Access::BroadcastDecide));
        assert!(Access::Crash.conflicts(Access::Crash));
    }

    #[test]
    fn canonical_order_is_shared_by_equivalent_runs() {
        // p0 writes bank 0; p1 writes bank 1: independent, so both
        // interleavings are one class with one canonical linearization.
        let mut ab = ExecutionGraph::new(2);
        ab.push(StepEvent::Step(pid(0)), Access::Write { bank: 0, owner: 0 });
        ab.push(StepEvent::Step(pid(1)), Access::Write { bank: 1, owner: 1 });
        let mut ba = ExecutionGraph::new(2);
        ba.push(StepEvent::Step(pid(1)), Access::Write { bank: 1, owner: 1 });
        ba.push(StepEvent::Step(pid(0)), Access::Write { bank: 0, owner: 0 });

        let canon_ab: Vec<StepEvent> = ab
            .canonical_order()
            .into_iter()
            .map(|i| ab.events()[i].event)
            .collect();
        let canon_ba: Vec<StepEvent> = ba
            .canonical_order()
            .into_iter()
            .map(|i| ba.events()[i].event)
            .collect();
        assert_eq!(canon_ab, canon_ba);
        assert_eq!(canon_ab[0], StepEvent::Step(pid(0)), "smallest pid first");
    }

    #[test]
    fn dependent_events_race_and_keep_execution_order() {
        // p0 writes cell (0,0); p1 reads it: a reversible race.
        let mut g = ExecutionGraph::new(2);
        g.push(StepEvent::Step(pid(0)), Access::Write { bank: 0, owner: 0 });
        g.push(StepEvent::Step(pid(1)), Access::Read { bank: 0, owner: 0 });
        assert!(g.hb(0, 1));
        assert!(!g.hb(1, 0));
        assert_eq!(g.reversible_races(), vec![(0, 1)]);
    }

    #[test]
    fn mediated_races_are_not_reversible() {
        // p0 writes; p1 snapshots (sees it); p2 snapshots after p1's
        // write... chain: w0 -> snap1 -> w1' -> snap2 gives w0 ->hb snap2
        // mediated through p1's events.
        let mut g = ExecutionGraph::new(3);
        g.push(StepEvent::Step(pid(0)), Access::Write { bank: 0, owner: 0 });
        g.push(StepEvent::Step(pid(1)), Access::Snapshot { bank: 0 });
        g.push(StepEvent::Step(pid(1)), Access::Write { bank: 0, owner: 1 });
        g.push(StepEvent::Step(pid(2)), Access::Snapshot { bank: 0 });
        let races = g.reversible_races();
        assert!(races.contains(&(0, 1)), "write/snap adjacency races");
        assert!(races.contains(&(2, 3)));
        assert!(
            !races.contains(&(0, 3)),
            "w0 ->hb snap2 is mediated by p1's snapshot+write, not reversible"
        );
    }

    #[test]
    fn cleared_graph_records_like_a_fresh_one() {
        let run = [
            (pid(0), Access::Write { bank: 0, owner: 0 }),
            (pid(1), Access::Snapshot { bank: 0 }),
            (pid(1), Access::Write { bank: 0, owner: 1 }),
            (pid(2), Access::Snapshot { bank: 0 }),
        ];
        let mut fresh = ExecutionGraph::new(3);
        let mut reused = ExecutionGraph::new(3);
        for &(p, access) in run.iter().rev() {
            reused.push(StepEvent::Step(p), access);
        }
        reused.clear();
        assert!(reused.is_empty());
        for &(p, access) in &run {
            fresh.push(StepEvent::Step(p), access);
            reused.push(StepEvent::Step(p), access);
        }
        assert_eq!(reused.canonical_order(), fresh.canonical_order());
        assert_eq!(reused.reversible_races(), fresh.reversible_races());
        for i in 0..run.len() {
            for j in 0..run.len() {
                assert_eq!(reused.hb(i, j), fresh.hb(i, j), "{i} -> {j}");
            }
        }
        let mut order = vec![7, 7, 7, 7, 7, 7];
        reused.canonical_order_into(&mut order);
        assert_eq!(order, fresh.canonical_order());
    }

    #[test]
    fn program_order_is_happens_before_without_racing() {
        let mut g = ExecutionGraph::new(2);
        g.push(StepEvent::Step(pid(0)), Access::Write { bank: 0, owner: 0 });
        g.push(StepEvent::Step(pid(0)), Access::Write { bank: 1, owner: 0 });
        assert!(g.hb(0, 1));
        assert!(g.reversible_races().is_empty());
    }
}
