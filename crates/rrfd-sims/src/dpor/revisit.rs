//! The revisit-closure driver: one work item per execution prefix,
//! processed to a maximal run, deduplicated by trace class, and expanded
//! into race-reversal and crash-alternative revisits.
//!
//! # Why this is deterministic across worker counts
//!
//! A work item is an event-sequence prefix. Processing it is a pure
//! function: replay the prefix, extend it deterministically (always the
//! first enabled option), canonicalize the resulting run, and — if the
//! class is new — derive children from the *canonical* form. Children of
//! a class therefore do not depend on which linearization reached it or
//! on which worker processed it. The explored set is the least fixpoint
//! of `children` over the seed, and a fixpoint does not care about
//! traversal order — so every statistic except [`ExploreStats::steals`]
//! (and the configured `workers`) is identical at 1, 2, or 8 workers,
//! and so is the reported counterexample: among failing classes, the one
//! with the lexicographically smallest canonical key wins, not the one a
//! worker happened to reach first.

use super::graph::{Access, EventLine, ExecutionGraph};
use super::pool::StealPool;
use crate::digest::{DigestWriter, StateKey};
use crate::explore::{Counterexample, ExploreStats};
use crate::trace::{SchedEvent, ScheduleTrace};
use rrfd_core::ProcessId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What the DPOR driver needs from an execution state. The contract
/// mirrors the legacy explorer's `Explorable`, minus state digests (DPOR
/// identifies classes by event sequences, so it works on protocols whose
/// states are not soundly digestible) and plus traced application: every
/// apply reports the [`Access`] footprint it left behind.
pub(crate) trait DporTarget: Sized + Clone {
    /// Scheduler event type, replayable through [`ScheduleTrace`].
    type Event: SchedEvent + Send + Sync;
    /// Completed-run report handed to the checker.
    type Report;

    /// Whether states can offer [`DporTarget::alternatives`] at all.
    /// When `false` the driver skips the canonical re-replay that
    /// harvests them.
    const HAS_ALTERNATIVES: bool;

    /// Process count.
    fn n(&self) -> usize;
    /// Enabled events at this state, in canonical (id) order; empty
    /// exactly at complete runs. The deterministic extension always
    /// applies the first.
    fn options(&self) -> Vec<Self::Event>;
    /// Enabled events that the deterministic extension would never pick
    /// and race reversal can never surface, because runs that omit them
    /// contain no inverted dependency — concretely, crashes: a maximal
    /// crash-free run has no crash event to reverse into an earlier
    /// position. The driver branches on each explicitly.
    fn alternatives(&self) -> Vec<Self::Event>;
    /// Applies an enabled event and reports its footprint.
    fn apply_traced(&mut self, event: Self::Event) -> Access;
    /// Packages the (final) state as a run report.
    fn report(&self) -> Self::Report;
    /// The process an event names.
    fn event_pid(event: &Self::Event) -> ProcessId;
}

/// Why a DPOR exploration did not return clean stats.
#[derive(Debug, Clone)]
pub enum DporError<E> {
    /// A class's run failed the check; carries the replayable
    /// certificate and the whole search's effort totals.
    Counterexample(Box<Counterexample<E>>),
    /// The instance could not be started (wrong process count).
    Misconfigured(String),
}

impl<E: SchedEvent> std::fmt::Display for DporError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DporError::Counterexample(cex) => write!(f, "{cex}"),
            DporError::Misconfigured(why) => write!(f, "misconfigured exploration: {why}"),
        }
    }
}

impl<E: SchedEvent> std::error::Error for DporError<E> {}

/// Digest of an event sequence through its trace-line encoding: the
/// key of a failing class's canonical linearization, compared across
/// failing classes to pick the counterexample.
fn events_key<E: SchedEvent>(events: impl IntoIterator<Item = E>) -> StateKey {
    let mut w = DigestWriter::new();
    for event in events {
        let line = EventLine(event).to_string();
        w.write_len(line.len());
        w.write_bytes(line.as_bytes());
    }
    w.finish()
}

/// One node of the [`RevisitTree`]: the event sequence spelled by the
/// edges from the root.
#[derive(Debug)]
struct Node<E> {
    children: Vec<(E, u32)>,
    /// The sequence was proposed as a revisit prefix and queued.
    queued: bool,
    /// The sequence is the canonical linearization of an explored class.
    class: bool,
}

impl<E> Node<E> {
    const EMPTY: Node<E> = Node {
        children: Vec::new(),
        queued: false,
        class: false,
    };
}

/// The one dedup structure of the search: a trie over event sequences,
/// shared by every worker behind one mutex. A class is explored once
/// because its canonical linearization's end node is marked `class` once;
/// a revisit prefix is queued once because its end node is marked
/// `queued` once. Children are located relative to their parent class's
/// canonical path, so proposing one walks only its tail. Nothing is
/// formatted or hashed while the lock is held.
#[derive(Debug)]
struct RevisitTree<E> {
    nodes: Vec<Node<E>>,
    /// Class plus queued marks set: the deduplicated entries.
    marks: usize,
}

impl<E: SchedEvent> RevisitTree<E> {
    fn new() -> Self {
        RevisitTree {
            nodes: vec![Node::EMPTY],
            marks: 0,
        }
    }

    /// The child of `node` along `event`, created if absent.
    fn step(&mut self, node: u32, event: E) -> u32 {
        let edges = &self.nodes[node as usize].children;
        if let Some(&(_, child)) = edges.iter().find(|(e, _)| *e == event) {
            return child;
        }
        let child = self.nodes.len();
        assert!(child <= u32::MAX as usize, "revisit tree outgrew u32 ids");
        self.nodes.push(Node::EMPTY);
        self.nodes[node as usize]
            .children
            .push((event, child as u32));
        child as u32
    }

    /// Walks `canon` from the root, recording the node after each
    /// prefix in `path` (`path[d]` spells `canon[..d]`), and marks the
    /// end as a class. Returns whether the class is new.
    fn mark_class(&mut self, canon: &[E], path: &mut Vec<u32>) -> bool {
        path.push(0);
        for &event in canon {
            let next = self.step(path[path.len() - 1], event);
            path.push(next);
        }
        let end = path[canon.len()] as usize;
        set(&mut self.nodes[end].class, &mut self.marks)
    }

    /// Marks the proposal `canon[..depth] ++ tail`, given the canonical
    /// `path`, as queued. Returns whether it was not queued before.
    fn mark_queued(&mut self, path: &[u32], depth: usize, tail: &[E]) -> bool {
        let end = tail
            .iter()
            .fold(path[depth], |node, &event| self.step(node, event));
        set(&mut self.nodes[end as usize].queued, &mut self.marks)
    }

    /// Bytes the tree occupies: its nodes and their edges (every node
    /// but the root is one edge's target).
    fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node<E>>()
            + (self.nodes.len() - 1) * std::mem::size_of::<(E, u32)>()
    }
}

/// Sets a node's mark and counts it; returns whether it was clear.
fn set(mark: &mut bool, marks: &mut usize) -> bool {
    let fresh = !std::mem::replace(mark, true);
    *marks += usize::from(fresh);
    fresh
}

/// The child prefixes one class proposes, each `canon[..depth] ++ tail`
/// relative to the class's canonical linearization `canon`. Tails are
/// stored back to back.
#[derive(Debug)]
struct Proposals<E> {
    tails: Vec<E>,
    /// `(depth, end)` per proposal; its tail ends at `tails[end]`, and
    /// starts where the previous one ended.
    spans: Vec<(usize, usize)>,
}

impl<E: Copy> Proposals<E> {
    fn new() -> Self {
        Proposals {
            tails: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn push(&mut self, depth: usize, tail: impl IntoIterator<Item = E>) {
        self.tails.extend(tail);
        self.spans.push((depth, self.tails.len()));
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &[E])> {
        let mut start = 0;
        self.spans.iter().map(move |&(depth, end)| {
            let tail = &self.tails[start..end];
            start = end;
            (depth, tail)
        })
    }
}

/// A counterexample keyed by its class's canonical digest; the minimal
/// key wins the fold, making the selection worker-count-independent.
type KeyedCex<E> = (Box<[u8]>, Box<Counterexample<E>>);

/// Shared fold of per-item outcomes. Stats merging is commutative and
/// the counterexample choice is a minimum, so the fold result does not
/// depend on completion order.
struct Fold<E> {
    stats: ExploreStats,
    cex: Option<KeyedCex<E>>,
}

/// Runs the revisit closure from the empty prefix and returns the folded
/// stats or the minimal-class counterexample.
pub(crate) fn drive_dpor<T, F>(
    root: &T,
    check: &F,
    config: &super::DporConfig,
) -> Result<ExploreStats, DporError<T::Event>>
where
    T: DporTarget + Send + Sync,
    F: Fn(&T::Report) -> Result<(), String> + Sync,
{
    let tree = Mutex::new(RevisitTree::new());
    let fold = Mutex::new(Fold::<T::Event> {
        stats: ExploreStats::default(),
        cex: None,
    });
    let classes_seen = AtomicUsize::new(0);
    let max_classes = config.max_schedules;

    let pool = StealPool::new(config.workers);
    let pool_stats = pool.run(vec![Vec::<T::Event>::new()], |prefix, spawn| {
        let item = process_item(root, check, &prefix, &tree, &classes_seen, max_classes);
        let mut fold = fold.lock().expect("fold mutex poisoned");
        fold.stats = fold.stats.merged(item.stats);
        if let Some((key, cex)) = item.cex {
            let replace = match &fold.cex {
                Some((best, _)) => key < *best,
                None => true,
            };
            if replace {
                fold.cex = Some((key, cex));
            }
        }
        drop(fold);
        spawn.extend(item.children);
    });

    let mut fold = fold.into_inner().expect("fold mutex poisoned");
    fold.stats.workers = pool_stats.workers;
    fold.stats.steals = pool_stats.steals;
    let tree = tree.into_inner().unwrap_or_else(PoisonError::into_inner);
    fold.stats.memo_entries = tree.marks;
    fold.stats.memo_bytes = tree.bytes();
    fold.stats.record(&config.obs);

    match fold.cex {
        Some((_, mut cex)) => {
            cex.stats = fold.stats;
            Err(DporError::Counterexample(cex))
        }
        None => Ok(fold.stats),
    }
}

/// Per-item outcome: effort totals, an optional keyed counterexample,
/// and the fresh (already deduplicated) child prefixes.
struct ItemOutcome<E> {
    stats: ExploreStats,
    cex: Option<KeyedCex<E>>,
    children: Vec<Vec<E>>,
}

/// Locks the revisit tree. Every update leaves the trie valid at each
/// step (a node is pushed before the edge that reaches it; a mark is one
/// write), so a lock poisoned by another worker's panic is recovered —
/// the pool re-raises that panic once every worker stops.
fn lock<E>(tree: &Mutex<RevisitTree<E>>) -> MutexGuard<'_, RevisitTree<E>> {
    tree.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Replays `prefix`, extends it deterministically to a maximal run,
/// deduplicates the resulting trace class, checks it, and derives the
/// class's revisits from its canonical linearization.
fn process_item<T, F>(
    root: &T,
    check: &F,
    prefix: &[T::Event],
    tree: &Mutex<RevisitTree<T::Event>>,
    classes_seen: &AtomicUsize,
    max_classes: usize,
) -> ItemOutcome<T::Event>
where
    T: DporTarget,
    F: Fn(&T::Report) -> Result<(), String>,
{
    let mut stats = ExploreStats::default();
    let out = |stats: ExploreStats, cex, children| ItemOutcome {
        stats,
        cex,
        children,
    };

    // Replay the revisit prefix, recording footprints and choice indices.
    let mut state = root.clone();
    let mut graph = ExecutionGraph::new(root.n());
    let mut choices = Vec::new();
    for &event in prefix {
        let opts = state.options();
        stats.decision_points += 1;
        let Some(idx) = opts.iter().position(|&o| o == event) else {
            // The revisit construction guarantees prefixes stay enabled;
            // if that invariant ever broke, dropping the item would lose
            // coverage silently, so fail loudly instead.
            unreachable!("revisit prefix event {event:?} not enabled during replay");
        };
        choices.push(idx);
        let access = state.apply_traced(event);
        graph.push(event, T::event_pid(&event), access);
    }

    // Deterministic extension: always the first enabled option.
    loop {
        let opts = state.options();
        let Some(&event) = opts.first() else { break };
        stats.decision_points += 1;
        choices.push(0);
        let access = state.apply_traced(event);
        graph.push(event, T::event_pid(&event), access);
    }
    stats.max_depth = graph.len();

    // One representative per Mazurkiewicz class: the canonical
    // linearization's end node in the revisit tree is the class.
    let canon = graph.canonical_order();
    let canon_events: Vec<T::Event> = canon.iter().map(|&k| graph.events()[k].event).collect();
    let mut path = Vec::with_capacity(canon.len() + 1);
    if !lock(tree).mark_class(&canon_events, &mut path) {
        stats.sleep_set_blocked += 1;
        return out(stats, None, Vec::new());
    }
    stats.schedules += 1;
    stats.graphs_explored += 1;
    let seen = classes_seen.fetch_add(1, Ordering::SeqCst) + 1;
    assert!(
        seen <= max_classes,
        "DPOR exploration exceeded max_schedules ({max_classes} trace classes)"
    );

    if let Err(message) = check(&state.report()) {
        let key: Box<[u8]> = events_key(canon_events.iter().copied()).bytes().into();
        let cex = Box::new(Counterexample {
            choices,
            schedule: ScheduleTrace::from_events(graph.events().iter().map(|e| e.event).collect()),
            message,
            stats: ExploreStats::default(), // overwritten with the fold
        });
        return out(stats, Some((key, cex)), Vec::new());
    }

    let mut proposals = Proposals::new();
    race_reversal_prefixes(&graph, &canon, &mut proposals);
    if T::HAS_ALTERNATIVES {
        alternative_prefixes(root, &canon_events, &mut proposals);
    }
    // Dedup proposed prefixes before they enter the pool; only fresh ones
    // are built.
    let fresh: Vec<bool> = {
        let mut tree = lock(tree);
        proposals
            .iter()
            .map(|(depth, tail)| tree.mark_queued(&path, depth, tail))
            .collect()
    };
    let children: Vec<Vec<T::Event>> = proposals
        .iter()
        .zip(fresh)
        .filter(|&(_, fresh)| fresh)
        .map(|((depth, tail), _)| [&canon_events[..depth], tail].concat())
        .collect();
    stats.revisits += children.len() as u64;
    stats.sleep_set_blocked += (proposals.spans.len() - children.len()) as u64;
    out(stats, None, children)
}

/// Revisit prefixes from the class's reversible races, computed in
/// canonical coordinates: for a race `(i, j)` the child is everything
/// canonically before `i`, then the events between them that do not
/// causally depend on `i`, then `j` itself — the shortest enabled prefix
/// in which `j` happens without `i` having happened.
fn race_reversal_prefixes<E: SchedEvent>(
    graph: &ExecutionGraph<E>,
    canon: &[usize],
    proposals: &mut Proposals<E>,
) {
    let mut pos = vec![0usize; canon.len()];
    for (p, &orig) in canon.iter().enumerate() {
        pos[orig] = p;
    }
    let mut races = graph.reversible_races();
    races.sort_by_key(|&(i, j)| (pos[i], pos[j]));
    for (i, j) in races {
        let (ci, cj) = (pos[i], pos[j]);
        debug_assert!(ci < cj, "canonical order must linearize happens-before");
        let between = canon[ci + 1..cj].iter().filter(|&&k| !graph.hb(i, k));
        let tail = between.chain([&j]).map(|&k| graph.events()[k].event);
        proposals.push(ci, tail);
    }
}

/// Revisit prefixes from data-nondeterministic alternatives (crashes):
/// replays the canonical linearization and, before each position,
/// branches into every enabled alternative the deterministic extension
/// would never take. Race reversal only reorders events that *occur*; a
/// maximal run without a crash gives it nothing to reorder, so these
/// branches are what carries the search into the crashing part of the
/// schedule space.
fn alternative_prefixes<T: DporTarget>(
    root: &T,
    canon: &[T::Event],
    proposals: &mut Proposals<T::Event>,
) {
    let mut state = root.clone();
    for (depth, &event) in canon.iter().enumerate() {
        for alt in state.alternatives() {
            proposals.push(depth, [alt]);
        }
        state.apply_traced(event);
    }
}
