//! The revisit-closure driver: one work item per execution prefix,
//! processed to a maximal run, deduplicated by trace class, and expanded
//! into race-reversal and crash-alternative revisits.
//!
//! Each pool worker processes its items on one [`Scratch`]: the target
//! state, rewound to the root per item, plus the graph and every buffer
//! an item fills. An item therefore pays for its own events, not for
//! allocation.
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

use super::graph::{Access, ExecEvent, ExecutionGraph};
use super::pool::StealPool;
use crate::digest::{DigestWriter, StateKey};
use crate::explore::{Counterexample, ExploreStats};
use crate::step::StepEvent;
use crate::trace::ScheduleTrace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What the DPOR driver needs from an execution state: enabled options,
/// reports, and traced application — every apply reports the [`Access`]
/// footprint it left behind. No state digests: DPOR identifies classes by
/// event sequences, so it works on protocols whose states are not
/// soundly digestible.
///
/// `clone_from` should reuse the target's buffers: each worker rewinds
/// one state to the root with it before every item.
pub(crate) trait DporTarget: Sized + Clone {
    /// Completed-run report handed to the checker.
    type Report;

    /// Process count.
    fn n(&self) -> usize;
    /// Writes the enabled events at this state into `out` (cleared
    /// first), in canonical (id) order; none exactly at complete runs.
    /// The deterministic extension always applies the first.
    fn options(&self, out: &mut Vec<StepEvent>);
    /// Called on the root state with a class's canonical linearization:
    /// pushes `(depth, event)` for every enabled event at each canonical
    /// depth that the deterministic extension would never pick and race
    /// reversal can never surface, because runs that omit them contain
    /// no inverted dependency — concretely, crashes: a maximal crash-free
    /// run has no crash event to reverse into an earlier position. The
    /// driver branches on each explicitly.
    ///
    /// The enabled set is folded from the events' footprints rather than
    /// by replaying the linearization. The default offers none.
    fn alternatives<'a>(
        &self,
        _canon: impl Iterator<Item = &'a ExecEvent>,
        _push: impl FnMut(usize, StepEvent),
    ) {
    }
    /// Applies an enabled event and reports its footprint.
    fn apply_traced(&mut self, event: StepEvent) -> Access;
    /// Packages the (final) state as a run report.
    fn report(&self) -> Self::Report;
}

/// Why a DPOR exploration did not return clean stats.
#[derive(Debug, Clone)]
pub enum DporError {
    /// A class's run failed the check; carries the replayable
    /// certificate and the whole search's effort totals.
    Counterexample(Box<Counterexample>),
    /// The instance could not be started (wrong process count).
    Misconfigured(String),
}

impl std::fmt::Display for DporError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DporError::Counterexample(cex) => write!(f, "{cex}"),
            DporError::Misconfigured(why) => write!(f, "misconfigured exploration: {why}"),
        }
    }
}

impl std::error::Error for DporError {}

/// Digest of an event sequence through its trace-line encoding: the
/// key of a failing class's canonical linearization, compared across
/// failing classes to pick the counterexample.
fn events_key(events: impl IntoIterator<Item = StepEvent>) -> StateKey {
    let mut w = DigestWriter::new();
    for event in events {
        let line = event.to_string();
        w.write_len(line.len());
        w.write_bytes(line.as_bytes());
    }
    w.finish()
}

/// One node of the [`RevisitTree`]: the event sequence spelled by the
/// edges from the root.
#[derive(Debug)]
struct Node {
    children: Vec<(StepEvent, u32)>,
    /// The sequence was proposed as a revisit prefix and queued.
    queued: bool,
    /// The sequence is the canonical linearization of an explored class.
    class: bool,
}

impl Node {
    const EMPTY: Node = Node {
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
struct RevisitTree {
    nodes: Vec<Node>,
    /// Class plus queued marks set: the deduplicated entries.
    marks: usize,
}

impl RevisitTree {
    fn new() -> Self {
        RevisitTree {
            nodes: vec![Node::EMPTY],
            marks: 0,
        }
    }

    /// The child of `node` along `event`, created if absent.
    fn step(&mut self, node: u32, event: StepEvent) -> u32 {
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
    fn mark_class(&mut self, canon: &[StepEvent], path: &mut Vec<u32>) -> bool {
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
    fn mark_queued(&mut self, path: &[u32], depth: usize, tail: &[StepEvent]) -> bool {
        let end = tail
            .iter()
            .fold(path[depth], |node, &event| self.step(node, event));
        set(&mut self.nodes[end as usize].queued, &mut self.marks)
    }

    /// Bytes the tree occupies: its nodes and their edges (every node
    /// but the root is one edge's target).
    fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + (self.nodes.len() - 1) * std::mem::size_of::<(StepEvent, u32)>()
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
struct Proposals {
    tails: Vec<StepEvent>,
    /// `(depth, end)` per proposal; its tail ends at `tails[end]`, and
    /// starts where the previous one ended.
    spans: Vec<(usize, usize)>,
}

impl Proposals {
    fn new() -> Self {
        Proposals {
            tails: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.tails.clear();
        self.spans.clear();
    }

    fn push(&mut self, depth: usize, tail: impl IntoIterator<Item = StepEvent>) {
        self.tails.extend(tail);
        self.spans.push((depth, self.tails.len()));
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &[StepEvent])> {
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
type KeyedCex = (Box<[u8]>, Box<Counterexample>);

/// Shared fold of per-item outcomes. Stats merging is commutative and
/// the counterexample choice is a minimum, so the fold result does not
/// depend on completion order.
struct Fold {
    stats: ExploreStats,
    cex: Option<KeyedCex>,
}

/// Runs the revisit closure from the empty prefix and returns the folded
/// stats or the minimal-class counterexample.
pub(crate) fn drive_dpor<T, F>(
    root: &T,
    check: &F,
    config: &super::DporConfig,
) -> Result<ExploreStats, DporError>
where
    T: DporTarget + Send + Sync,
    F: Fn(&T::Report) -> Result<(), String> + Sync,
{
    let tree = Mutex::new(RevisitTree::new());
    let fold = Mutex::new(Fold {
        stats: ExploreStats::default(),
        cex: None,
    });
    let classes_seen = AtomicUsize::new(0);

    let items = Items {
        root,
        check,
        tree: &tree,
        classes_seen: &classes_seen,
        max_classes: config.max_schedules,
    };
    let pool = StealPool::new(config.workers);
    let pool_stats = pool.run(
        vec![Vec::new()],
        || Scratch::new(root),
        |scratch, prefix, spawn| {
            let (stats, cex) = items.process(scratch, &prefix, spawn);
            let mut fold = fold.lock().expect("fold mutex poisoned");
            fold.stats = fold.stats.merged(stats);
            if let Some((key, cex)) = cex {
                let replace = match &fold.cex {
                    Some((best, _)) => key < *best,
                    None => true,
                };
                if replace {
                    fold.cex = Some((key, cex));
                }
            }
        },
    );

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

/// Locks the revisit tree. Every update leaves the trie valid at each
/// step (a node is pushed before the edge that reaches it; a mark is one
/// write), so a lock poisoned by another worker's panic is recovered —
/// the pool re-raises that panic once every worker stops.
fn lock(tree: &Mutex<RevisitTree>) -> MutexGuard<'_, RevisitTree> {
    tree.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One pool worker's state, reused across every item it processes. No
/// field carries meaning from one item to the next: each is reset before
/// it is read.
struct Scratch<T: DporTarget> {
    /// The execution, rewound to the root per item.
    state: T,
    graph: ExecutionGraph,
    options: Vec<StepEvent>,
    /// Option index taken at each event (the counterexample's choices).
    choices: Vec<usize>,
    /// The canonical linearization, as indices into the graph's events.
    canon: Vec<usize>,
    canon_events: Vec<StepEvent>,
    /// Revisit-tree node after each canonical prefix.
    path: Vec<u32>,
    proposals: Proposals,
    /// Per proposal: whether it was queued for the first time.
    fresh: Vec<bool>,
}

impl<T: DporTarget> Scratch<T> {
    fn new(root: &T) -> Self {
        Scratch {
            state: root.clone(),
            graph: ExecutionGraph::new(root.n()),
            options: Vec::new(),
            choices: Vec::new(),
            canon: Vec::new(),
            canon_events: Vec::new(),
            path: Vec::new(),
            proposals: Proposals::new(),
            fresh: Vec::new(),
        }
    }

    /// Applies `event`, the option at `choice`, and records it.
    fn apply(&mut self, event: StepEvent, choice: usize) {
        self.choices.push(choice);
        let access = self.state.apply_traced(event);
        self.graph.push(event, access);
    }
}

/// What every item of one search shares.
struct Items<'s, T: DporTarget, F> {
    root: &'s T,
    check: &'s F,
    tree: &'s Mutex<RevisitTree>,
    classes_seen: &'s AtomicUsize,
    max_classes: usize,
}

impl<T, F> Items<'_, T, F>
where
    T: DporTarget,
    F: Fn(&T::Report) -> Result<(), String>,
{
    /// Replays `prefix`, extends it deterministically to a maximal run,
    /// deduplicates the resulting trace class, checks it, and pushes the
    /// class's fresh revisits, derived from its canonical linearization,
    /// onto `spawn`. Returns the item's effort and its keyed
    /// counterexample, if the class failed the check.
    fn process(
        &self,
        s: &mut Scratch<T>,
        prefix: &[StepEvent],
        spawn: &mut Vec<Vec<StepEvent>>,
    ) -> (ExploreStats, Option<KeyedCex>) {
        let mut stats = ExploreStats::default();
        s.state.clone_from(self.root);
        s.graph.clear();
        s.choices.clear();

        // Replay the revisit prefix, recording footprints and choice
        // indices.
        for &event in prefix {
            s.state.options(&mut s.options);
            stats.decision_points += 1;
            let Some(idx) = s.options.iter().position(|&o| o == event) else {
                // The revisit construction guarantees prefixes stay
                // enabled; if that invariant ever broke, dropping the
                // item would lose coverage silently, so fail loudly.
                unreachable!("revisit prefix event {event:?} not enabled during replay");
            };
            s.apply(event, idx);
        }

        // Deterministic extension: always the first enabled option.
        loop {
            s.state.options(&mut s.options);
            let Some(&event) = s.options.first() else {
                break;
            };
            stats.decision_points += 1;
            s.apply(event, 0);
        }
        stats.max_depth = s.graph.len();

        // One representative per Mazurkiewicz class: the canonical
        // linearization's end node in the revisit tree is the class.
        s.graph.canonical_order_into(&mut s.canon);
        let events = s.graph.events();
        s.canon_events.clear();
        s.canon_events
            .extend(s.canon.iter().map(|&k| events[k].event));
        s.path.clear();
        if !lock(self.tree).mark_class(&s.canon_events, &mut s.path) {
            stats.sleep_set_blocked += 1;
            return (stats, None);
        }
        stats.schedules += 1;
        stats.graphs_explored += 1;
        let seen = self.classes_seen.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(
            seen <= self.max_classes,
            "DPOR exploration exceeded max_schedules ({} trace classes)",
            self.max_classes
        );

        if let Err(message) = (self.check)(&s.state.report()) {
            let key: Box<[u8]> = events_key(s.canon_events.iter().copied()).bytes().into();
            let cex = Box::new(Counterexample {
                choices: s.choices.clone(),
                schedule: ScheduleTrace::from_events(events.iter().map(|e| e.event).collect()),
                message,
                stats: ExploreStats::default(), // overwritten with the fold
            });
            return (stats, Some((key, cex)));
        }

        s.proposals.clear();
        race_reversal_prefixes(&s.graph, &s.canon, &mut s.proposals);
        let proposals = &mut s.proposals;
        self.root
            .alternatives(s.canon.iter().map(|&k| &events[k]), |depth, alt| {
                proposals.push(depth, [alt])
            });
        // Dedup proposed prefixes before they enter the pool; only fresh
        // ones are built.
        s.fresh.clear();
        {
            let mut tree = lock(self.tree);
            s.fresh.extend(
                s.proposals
                    .iter()
                    .map(|(depth, tail)| tree.mark_queued(&s.path, depth, tail)),
            );
        }
        let before = spawn.len();
        spawn.extend(
            s.proposals
                .iter()
                .zip(&s.fresh)
                .filter(|&(_, &fresh)| fresh)
                .map(|((depth, tail), _)| [&s.canon_events[..depth], tail].concat()),
        );
        let children = spawn.len() - before;
        stats.revisits += children as u64;
        stats.sleep_set_blocked += (s.fresh.len() - children) as u64;
        (stats, None)
    }
}

/// Revisit prefixes from the class's reversible races, computed in
/// canonical coordinates: for a race `(i, j)` the child is everything
/// canonically before `i`, then the events between them that do not
/// causally depend on `i`, then `j` itself — the shortest enabled prefix
/// in which `j` happens without `i` having happened.
fn race_reversal_prefixes(graph: &ExecutionGraph, canon: &[usize], proposals: &mut Proposals) {
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
