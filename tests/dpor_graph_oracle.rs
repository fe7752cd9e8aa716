//! Reference implementation of the DPOR execution graph's partial order,
//! kept as a test oracle. `ExecutionGraph` stores happens-before as one
//! predecessor bit row per event; the oracle below is the vector-clock
//! formulation it replaced — each event's clock is the join of its
//! process's previous clock and the clocks of every earlier conflicting
//! event of another process, ticked at its own process, and `i →hb j`
//! iff `clock(i) ≤ clock(j)`. The oracle derives happens-before, the
//! canonical linearization and the reversible races straight from those
//! definitions, in cubic time.
//!
//! The property builds random graphs through `ExecutionGraph::push` on
//! both substrates' footprints (shared memory and semi-synchronous), for
//! n ≤ 4 and up to 130 events — so predecessor rows span more than one
//! 64-bit word — and asserts the same `hb` matrix, canonical order and
//! race list as the oracle.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rrfd::core::hb::VectorClock;
use rrfd::core::ProcessId;
use rrfd::sims::dpor::{Access, ExecutionGraph};
use rrfd::sims::step::StepEvent;

/// The vector-clock reference for one recorded run.
struct Oracle {
    pids: Vec<usize>,
    accesses: Vec<Access>,
    clocks: Vec<VectorClock>,
}

impl Oracle {
    fn new(n: usize, events: &[(usize, Access)]) -> Self {
        let mut proc_clocks = vec![VectorClock::zero(n); n];
        let mut clocks: Vec<VectorClock> = Vec::new();
        for (k, &(pid, access)) in events.iter().enumerate() {
            let mut clock = proc_clocks[pid].clone();
            for m in 0..k {
                if events[m].0 != pid && events[m].1.conflicts(access) {
                    clock.join(&clocks[m]);
                }
            }
            clock.tick(pid);
            proc_clocks[pid] = clock.clone();
            clocks.push(clock);
        }
        Oracle {
            pids: events.iter().map(|&(pid, _)| pid).collect(),
            accesses: events.iter().map(|&(_, access)| access).collect(),
            clocks,
        }
    }

    fn len(&self) -> usize {
        self.clocks.len()
    }

    fn hb(&self, i: usize, j: usize) -> bool {
        i != j && self.clocks[i].le(&self.clocks[j])
    }

    /// Greedy topological sort: repeatedly emit the available event
    /// (all happens-before predecessors emitted) of the smallest pid.
    fn canonical_order(&self) -> Vec<usize> {
        let len = self.len();
        let mut emitted = vec![false; len];
        let mut order = Vec::with_capacity(len);
        for _ in 0..len {
            let mut best: Option<usize> = None;
            for j in 0..len {
                if emitted[j] || !(0..len).all(|i| emitted[i] || !self.hb(i, j)) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        self.pids[j] < self.pids[b] || (self.pids[j] == self.pids[b] && j < b)
                    }
                };
                if better {
                    best = Some(j);
                }
            }
            let next = best.expect("happens-before must stay acyclic");
            emitted[next] = true;
            order.push(next);
        }
        order
    }

    /// Conflicting `i →hb j` of different processes with no `k` such
    /// that `i →hb k →hb j`, in `(i, j)` order.
    fn reversible_races(&self) -> Vec<(usize, usize)> {
        let len = self.len();
        let mut races = Vec::new();
        for i in 0..len {
            for j in 0..len {
                if i == j
                    || self.pids[i] == self.pids[j]
                    || !self.accesses[i].conflicts(self.accesses[j])
                    || !self.hb(i, j)
                {
                    continue;
                }
                let mediated = (0..len).any(|k| k != i && k != j && self.hb(i, k) && self.hb(k, j));
                if !mediated {
                    races.push((i, j));
                }
            }
        }
        races
    }
}

/// A raw generated event: process, footprint kind, and two operands.
type Raw = (usize, u8, usize, usize);

fn raw_events() -> impl Strategy<Value = Vec<Raw>> {
    prop::collection::vec((0usize..4, 0u8..6, 0usize..2, 0usize..4), 0..=130)
}

/// A shared-memory footprint for `pid`: cells are single-writer, so a
/// write's owner is its writer.
fn mem_access(n: usize, pid: usize, (kind, a, b): (u8, usize, usize)) -> Access {
    match kind {
        0 => Access::Local,
        1 => Access::Write {
            bank: a,
            owner: pid,
        },
        2 => Access::Read {
            bank: a,
            owner: b % n,
        },
        3 => Access::Snapshot { bank: a },
        4 => Access::Oracle { object: a },
        _ => Access::Crash,
    }
}

fn semi_access(kind: u8) -> Access {
    match kind % 5 {
        0 => Access::Local,
        1 => Access::Broadcast,
        2 => Access::Decide,
        3 => Access::BroadcastDecide,
        _ => Access::Crash,
    }
}

/// Builds the graph through `push` and compares it with the oracle.
fn agree(
    n: usize,
    events: &[(usize, Access)],
    event_of: impl Fn(ProcessId, Access) -> StepEvent,
) -> Result<(), TestCaseError> {
    let mut graph = ExecutionGraph::new(n);
    for &(pid, access) in events {
        let pid = ProcessId::new(pid);
        graph.push(event_of(pid, access), access);
    }
    let oracle = Oracle::new(n, events);
    let matrix = |hb: &dyn Fn(usize, usize) -> bool| -> Vec<Vec<bool>> {
        let len = events.len();
        (0..len)
            .map(|i| (0..len).map(|j| hb(i, j)).collect())
            .collect()
    };
    prop_assert_eq!(
        matrix(&|i, j| graph.hb(i, j)),
        matrix(&|i, j| oracle.hb(i, j))
    );
    prop_assert_eq!(graph.canonical_order(), oracle.canonical_order());
    prop_assert_eq!(graph.reversible_races(), oracle.reversible_races());
    Ok(())
}

proptest! {
    #[test]
    fn shared_memory_graphs_match_the_vector_clock_oracle(
        n in 1usize..=4,
        raw in raw_events(),
    ) {
        let events: Vec<(usize, Access)> = raw
            .iter()
            .map(|&(p, kind, a, b)| (p % n, mem_access(n, p % n, (kind, a, b))))
            .collect();
        let event_of = |pid, access| match access {
            Access::Crash => StepEvent::Crash(pid),
            _ => StepEvent::Step(pid),
        };
        agree(n, &events, event_of)?;
    }

    #[test]
    fn semi_sync_graphs_match_the_vector_clock_oracle(
        n in 1usize..=4,
        raw in raw_events(),
    ) {
        let events: Vec<(usize, Access)> = raw
            .iter()
            .map(|&(p, kind, _, _)| (p % n, semi_access(kind)))
            .collect();
        let event_of = |pid, access| match access {
            Access::Crash => StepEvent::Crash(pid),
            _ => StepEvent::Step(pid),
        };
        agree(n, &events, event_of)?;
    }
}
