//! The revisit-closure driver: one work item per execution prefix,
//! processed to a maximal run, deduplicated by trace class, and expanded
//! into race-reversal and crash-alternative revisits.
//!
//! The search runs directly on a step simulator's execution, with a
//! crash budget beside it: the enabled options, the deterministic
//! extension's first option, traced application and the crash
//! alternatives' fold are the four free functions below.
//!
//! The search is one depth-first loop on the calling thread: a LIFO
//! stack of prefixes, one revisit tree, and one [`Scratch`] — the
//! execution and its remaining crash budget, rewound to the root per
//! item, plus the graph and every buffer an item fills. The stack keeps
//! its prefixes back to back in one event buffer, and the linearization
//! works in buffers the scratch keeps, so once the buffers have grown an
//! item pays for its own events, not for allocation.
//!
//! Each piece of bookkeeping is done once. The crash alternatives a
//! class offers at canonical depth `d` depend only on `canon[..d]`, the
//! revisit-tree node `path[d]`; the first class whose canonical path
//! passes through a node proposes them and flags the node, and every
//! later class skips them there. A skipped alternative was queued by
//! that first class, so it is counted as blocked, as the walk to its
//! queued node would have counted it.
//!
//! # Why the result does not depend on traversal order
//!
//! A work item is an event-sequence prefix. Processing it is a pure
//! function: replay the prefix, extend it deterministically (always the
//! first enabled option), canonicalize the resulting run, and — if the
//! class is new — derive children from the *canonical* form. Children of
//! a class therefore do not depend on which linearization reached it.
//! The explored set is the least fixpoint of `children` over the seed,
//! and a fixpoint does not care about traversal order — so neither do
//! the statistics, nor the reported counterexample: among failing
//! classes, the one with the lexicographically smallest canonical key
//! wins, not the one the search happened to reach first.

use super::graph::{Access, ExecEvent, ExecutionGraph, GraphScratch};
use super::{DporConfig, ReportInPlace};
use crate::explore::{Counterexample, ExploreStats};
use crate::step::{StepEvent, StepExecution};
use crate::trace::ScheduleTrace;
use rrfd_core::IdSet;

/// Why a DPOR exploration did not return clean stats.
#[derive(Debug, Clone)]
pub enum DporError {
    /// A class's run failed the check; carries the replayable
    /// certificate and the whole search's effort totals.
    Counterexample(Box<Counterexample>),
    /// The instance could not be started (wrong process count), or a
    /// protocol made a run fail for a reason other than its step limit
    /// (the simulator's message).
    Misconfigured(String),
    /// The search outgrew a budget: more trace classes than
    /// [`DporConfig::max_schedules`], or a run past the simulator's step
    /// limit (the simulator's message).
    Budget(String),
}

impl std::fmt::Display for DporError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DporError::Counterexample(cex) => write!(f, "{cex}"),
            DporError::Misconfigured(why) => write!(f, "misconfigured exploration: {why}"),
            DporError::Budget(why) => write!(f, "exploration budget exhausted: {why}"),
        }
    }
}

impl std::error::Error for DporError {}

/// The key of an event sequence: each event's trace line, prefixed with
/// its length as a little-endian `u64` so that no two sequences share a
/// key. Failing classes compare the keys of their canonical
/// linearizations to pick the counterexample.
fn events_key(events: &[StepEvent]) -> Vec<u8> {
    let mut key = Vec::new();
    for event in events {
        let line = event.to_string();
        key.extend_from_slice(&(line.len() as u64).to_le_bytes());
        key.extend_from_slice(line.as_bytes());
    }
    key
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
    /// The crash alternatives enabled after the sequence were proposed,
    /// each as the sequence plus the crash, by an expanded class whose
    /// canonical linearization starts with the sequence.
    expanded: bool,
}

impl Node {
    const EMPTY: Node = Node {
        children: Vec::new(),
        queued: false,
        class: false,
        expanded: false,
    };
}

/// The one dedup structure of the search: a trie over event sequences.
/// A class is explored once
/// because its canonical linearization's end node is marked `class` once;
/// a revisit prefix is queued once because its end node is marked
/// `queued` once. Children are located relative to their parent class's
/// canonical path, so proposing one walks only its tail.
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

    /// Flags `node`'s crash alternatives as proposed. Returns whether
    /// they were not proposed before.
    fn expand(&mut self, node: u32) -> bool {
        !std::mem::replace(&mut self.nodes[node as usize].expanded, true)
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

/// The LIFO stack of work items: their prefixes back to back in one
/// event buffer, so pushing a child copies its events and allocates
/// nothing once the buffer has grown.
#[derive(Debug)]
struct WorkStack {
    events: Vec<StepEvent>,
    /// Where each item's prefix ends in `events`; it starts where the
    /// item below it ends.
    ends: Vec<usize>,
}

impl WorkStack {
    /// A stack holding the empty prefix.
    fn seeded() -> Self {
        WorkStack {
            events: Vec::new(),
            ends: vec![0],
        }
    }

    /// Pushes the prefix `head ++ tail`.
    fn push(&mut self, head: &[StepEvent], tail: &[StepEvent]) {
        self.events.extend_from_slice(head);
        self.events.extend_from_slice(tail);
        self.ends.push(self.events.len());
    }

    /// Pops the top item and returns where its prefix starts: the prefix
    /// stays readable as `events[start..]` until the item truncates the
    /// buffer to `start`, which it must do before pushing its children.
    fn pop(&mut self) -> Option<usize> {
        self.ends.pop()?;
        Some(self.ends.last().copied().unwrap_or(0))
    }
}

/// The events enabled at `state` with `crash_budget` crashes left: the
/// execution's steps, in id order, then (with another process live) a
/// crash of each live process.
pub(super) fn options<X: StepExecution>(state: &X, crash_budget: usize, out: &mut Vec<StepEvent>) {
    state.enabled(out);
    let live = state.live();
    if crash_budget > 0 && live.len() > 1 {
        out.extend(live.iter().map(StepEvent::Crash));
    }
}

/// The first of [`options`], found without listing them: the event the
/// deterministic extension always applies. Both explored executions
/// enable one step per live process ([`StepExecution::ENABLED_IS_LIVE`]),
/// so it is the smallest live process's step.
fn first_option<X: StepExecution>(state: &X) -> Option<StepEvent> {
    const { assert!(X::ENABLED_IS_LIVE) };
    state.live().min().map(StepEvent::Step)
}

/// Applies an enabled event to `state`, spending `crash_budget` on a
/// crash, and returns the footprint it left behind. A crash is checked
/// against the conditions [`options`] offers crashes under; a step of a
/// process that is not live is rejected by the execution.
///
/// # Errors
///
/// [`DporError::Budget`] when the run has reached the simulator's step
/// limit, [`DporError::Misconfigured`] when the simulator rejects the
/// step for any other reason.
pub(super) fn apply_traced<X: StepExecution<Footprint = Access>>(
    state: &mut X,
    crash_budget: &mut usize,
    event: StepEvent,
) -> Result<Access, DporError> {
    if let StepEvent::Crash(_) = event {
        assert!(
            *crash_budget > 0 && state.live().len() > 1,
            "DPOR only applies enabled events"
        );
        *crash_budget -= 1;
    }
    state
        .check_limit()
        .map_err(|err| DporError::Budget(err.to_string()))?;
    match state.apply(event) {
        Ok(Some(access)) => Ok(access),
        Ok(None) => unreachable!("DPOR only applies enabled events"),
        Err(err) => Err(DporError::Misconfigured(err.to_string())),
    }
}

/// The crash alternatives of a class, folded along its canonical
/// linearization `canon` from the root's live set and crash budget:
/// pushes `(depth, crash)` for every crash enabled at each canonical
/// depth.
///
/// Crashes are data nondeterminism: a maximal crash-free run has no crash
/// event for a reversal to reposition, and the deterministic extension
/// never picks one, so each enabled crash is branched on explicitly.
/// Enabledness needs only the budget and the live set, and footprints say
/// how each event moves them: a `Crash` spends the budget and leaves the
/// live set, a `Decide` or `BroadcastDecide` leaves the live set, and
/// nothing else touches either. A shared-memory decision reports
/// [`Access::Local`], which this fold does not see leave the live set;
/// shared memory explores with a budget of 0, so it offers no crashes.
pub(super) fn crash_alternatives<'a>(
    mut live: IdSet,
    mut crash_budget: usize,
    canon: impl Iterator<Item = &'a ExecEvent>,
    mut push: impl FnMut(usize, StepEvent),
) {
    for (depth, event) in canon.enumerate() {
        // Budget and live set only shrink: once crashes are disabled
        // they stay disabled.
        if crash_budget == 0 || live.len() < 2 {
            break;
        }
        for p in live {
            push(depth, StepEvent::Crash(p));
        }
        match event.access {
            Access::Crash => {
                crash_budget -= 1;
                live.remove(event.pid);
            }
            Access::Decide | Access::BroadcastDecide => {
                live.remove(event.pid);
            }
            _ => {}
        }
    }
}

/// The state every item reuses. No field carries meaning from one item
/// to the next: each is reset before it is read.
struct Scratch<X> {
    /// The execution, rewound to the root per item.
    state: X,
    /// The crashes the adversary may still place in `state`.
    crash_budget: usize,
    graph: ExecutionGraph,
    /// The linearization's working buffers.
    graph_scratch: GraphScratch,
    /// The canonical linearization, as indices into the graph's events.
    canon: Vec<usize>,
    canon_events: Vec<StepEvent>,
    /// Revisit-tree node after each canonical prefix.
    path: Vec<u32>,
    /// Canonical position of each event (the inverse of `canon`).
    pos: Vec<usize>,
    races: Vec<(usize, usize)>,
    proposals: Proposals,
}

impl<X: StepExecution<Footprint = Access> + Clone> Scratch<X> {
    fn new(root: &X) -> Self {
        Scratch {
            state: root.clone(),
            crash_budget: 0,
            graph: ExecutionGraph::new(root.live().len()),
            graph_scratch: GraphScratch::default(),
            canon: Vec::new(),
            canon_events: Vec::new(),
            path: Vec::new(),
            pos: Vec::new(),
            races: Vec::new(),
            proposals: Proposals::new(),
        }
    }

    /// Applies `event` and records it.
    fn apply(&mut self, event: StepEvent) -> Result<(), DporError> {
        let access = apply_traced(&mut self.state, &mut self.crash_budget, event)?;
        self.graph.push(event, access);
        Ok(())
    }
}

/// One search: the revisit tree and the fold of every item's outcome.
/// Stats are sums and maxima, and the counterexample is the failing
/// class with the smallest canonical key, so the fold does not depend on
/// the order items are processed in.
pub(super) struct Search<'s, X, F> {
    /// The execution before any event.
    root: &'s X,
    /// The crashes the adversary may place in one run.
    crash_budget: usize,
    check: &'s F,
    config: &'s DporConfig,
    tree: RevisitTree,
    stats: ExploreStats,
    cex: Option<(Vec<u8>, Box<Counterexample>)>,
}

impl<'s, X, F> Search<'s, X, F>
where
    X: ReportInPlace<Footprint = Access> + Clone,
    F: Fn(&X::Report) -> Result<(), String>,
{
    /// Runs the revisit closure of `root` with up to `crash_budget`
    /// crashes per run: drains the work stack from the empty prefix,
    /// depth first on the calling thread.
    ///
    /// # Errors
    ///
    /// [`DporError::Budget`] past [`DporConfig::max_schedules`] classes
    /// or the simulator's step limit, [`DporError::Misconfigured`] on any
    /// other simulator error.
    pub(super) fn run(
        root: &'s X,
        crash_budget: usize,
        check: &'s F,
        config: &'s DporConfig,
    ) -> Result<Self, DporError> {
        let mut search = Search {
            root,
            crash_budget,
            check,
            config,
            tree: RevisitTree::new(),
            stats: ExploreStats::default(),
            cex: None,
        };
        let mut scratch = Scratch::new(root);
        let mut stack = WorkStack::seeded();
        while let Some(start) = stack.pop() {
            search.process(&mut scratch, start, &mut stack)?;
        }
        Ok(search)
    }

    /// Records the search's totals under the configuration's
    /// instrumentation handle and returns them, or the minimal-class
    /// counterexample carrying them.
    pub(super) fn finish(self) -> Result<ExploreStats, DporError> {
        let mut stats = self.stats;
        stats.memo_entries = self.tree.marks;
        stats.memo_bytes = self.tree.bytes();
        stats.record(&self.config.obs);
        match self.cex {
            Some((_, mut cex)) => {
                cex.stats = stats;
                Err(DporError::Counterexample(cex))
            }
            None => Ok(stats),
        }
    }

    /// Replays the popped prefix `stack.events[start..]`, extends it
    /// deterministically to a maximal run, deduplicates the resulting
    /// trace class, checks it, and pushes the class's fresh revisits,
    /// derived from its canonical linearization, onto `stack`.
    fn process(
        &mut self,
        s: &mut Scratch<X>,
        start: usize,
        stack: &mut WorkStack,
    ) -> Result<(), DporError> {
        s.state.clone_from(self.root);
        s.crash_budget = self.crash_budget;
        s.graph.clear();

        // Replay the revisit prefix, recording footprints. The revisit
        // construction keeps prefixes enabled, and `apply_traced` fails
        // loudly on an event that is not.
        for &event in &stack.events[start..] {
            self.stats.decision_points += 1;
            s.apply(event)?;
        }
        stack.events.truncate(start);

        // Deterministic extension: always the first enabled option.
        while let Some(event) = first_option(&s.state) {
            self.stats.decision_points += 1;
            s.apply(event)?;
        }
        self.stats.max_depth = self.stats.max_depth.max(s.graph.len());

        // One representative per Mazurkiewicz class: the canonical
        // linearization's end node in the revisit tree is the class.
        s.graph
            .canonical_order_with(&mut s.canon, &mut s.graph_scratch);
        let events = s.graph.events();
        s.canon_events.clear();
        s.canon_events
            .extend(s.canon.iter().map(|&k| events[k].event));
        s.path.clear();
        if !self.tree.mark_class(&s.canon_events, &mut s.path) {
            self.stats.sleep_set_blocked += 1;
            return Ok(());
        }
        self.stats.schedules += 1;
        self.stats.graphs_explored += 1;
        let max_classes = self.config.max_schedules;
        if self.stats.schedules > max_classes {
            return Err(DporError::Budget(format!(
                "more than max_schedules ({max_classes}) trace classes"
            )));
        }

        if let Err(message) = (self.check)(&s.state.report()) {
            let key = events_key(&s.canon_events);
            if self.cex.as_ref().is_none_or(|(best, _)| key < *best) {
                let run = events.iter().map(|e| e.event);
                let cex = Box::new(Counterexample {
                    choices: choices(self.root, self.crash_budget, run.clone())?,
                    schedule: ScheduleTrace::from_events(run.collect()),
                    message,
                    stats: ExploreStats::default(), // overwritten with the totals
                });
                self.cex = Some((key, cex));
            }
            return Ok(());
        }

        s.proposals.clear();
        race_reversal_prefixes(s);
        let events = s.graph.events();
        // Crash alternatives, proposed at the nodes no earlier class has
        // expanded. They arrive depth by depth, so the node's flag is
        // read (and set) at the first alternative of each depth.
        let (tree, path, proposals) = (&mut self.tree, &s.path, &mut s.proposals);
        let blocked = &mut self.stats.sleep_set_blocked;
        let (mut at, mut fresh) = (None, false);
        let canon = s.canon.iter().map(|&k| &events[k]);
        crash_alternatives(self.root.live(), self.crash_budget, canon, |depth, alt| {
            if at != Some(depth) {
                at = Some(depth);
                fresh = tree.expand(path[depth]);
            }
            if fresh {
                proposals.push(depth, [alt]);
            } else {
                *blocked += 1;
            }
        });
        // Dedup proposed prefixes before they are queued; only fresh ones
        // are pushed.
        for (depth, tail) in s.proposals.iter() {
            if self.tree.mark_queued(&s.path, depth, tail) {
                self.stats.revisits += 1;
                stack.push(&s.canon_events[..depth], tail);
            } else {
                self.stats.sleep_set_blocked += 1;
            }
        }
        Ok(())
    }
}

/// The option index of each of `events` among the options enabled where
/// it was applied, replayed from `root` with `crash_budget` crashes: a
/// counterexample's scheduler choices, computed only when a failing class
/// becomes the one to report.
fn choices<X: StepExecution<Footprint = Access> + Clone>(
    root: &X,
    mut crash_budget: usize,
    events: impl Iterator<Item = StepEvent>,
) -> Result<Vec<usize>, DporError> {
    let mut state = root.clone();
    let mut enabled = Vec::new();
    events
        .map(|event| {
            options(&state, crash_budget, &mut enabled);
            let choice = enabled.iter().position(|&o| o == event);
            apply_traced(&mut state, &mut crash_budget, event)?;
            Ok(choice.unwrap_or_else(|| unreachable!("the run applied {event:?} while disabled")))
        })
        .collect()
}

/// Revisit prefixes from the class's reversible races, computed in
/// canonical coordinates: for a race `(i, j)` the child is everything
/// canonically before `i`, then the events between them that do not
/// causally depend on `i`, then `j` itself — the shortest enabled prefix
/// in which `j` happens without `i` having happened. Proposals come in
/// canonical order of `(i, j)`.
fn race_reversal_prefixes<X>(s: &mut Scratch<X>) {
    let Scratch {
        graph,
        canon,
        pos,
        races,
        proposals,
        ..
    } = s;
    pos.resize(canon.len(), 0);
    for (p, &orig) in canon.iter().enumerate() {
        pos[orig] = p;
    }
    races.clear();
    races.extend_from_slice(graph.races());
    // Pairs are distinct and `pos` is a bijection, so the keys are too.
    races.sort_unstable_by_key(|&(i, j)| (pos[i], pos[j]));
    for &(i, j) in races.iter() {
        let (ci, cj) = (pos[i], pos[j]);
        debug_assert!(ci < cj, "canonical order must linearize happens-before");
        let between = canon[ci + 1..cj].iter().filter(|&&k| !graph.hb(i, k));
        let tail = between.chain([&j]).map(|&k| graph.events()[k].event);
        proposals.push(ci, tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semi_sync::{SemiSyncExecution, SemiSyncProcess, SemiSyncSim};
    use rrfd_core::{Control, ProcessId, SystemSize};
    use std::sync::Arc;

    /// Broadcasts on its first step, then decides how many messages it
    /// heard.
    #[derive(Debug, Clone, Default)]
    struct Count {
        sent: bool,
        heard: usize,
    }

    impl SemiSyncProcess for Count {
        type Msg = ();
        type Output = usize;
        fn step(&mut self, received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<usize>) {
            self.heard += received.len();
            if std::mem::replace(&mut self.sent, true) {
                (None, Control::Decide(self.heard))
            } else {
                (Some(()), Control::Continue)
            }
        }
    }

    /// Skipping an expanded node's crash alternatives is sound only if
    /// each of them is queued: walks the whole tree of a two-crash search
    /// and, at every expanded node, replays its sequence and checks every
    /// crash the fold offers there.
    #[test]
    fn every_expanded_node_has_its_crash_alternatives_queued() {
        let n = SystemSize::new(3).unwrap();
        let exec = SemiSyncExecution::start(&SemiSyncSim::new(n), vec![Count::default(); 3]);
        let root = exec.unwrap();
        let config = DporConfig::new(1).max_schedules(usize::MAX);
        let tree = Search::run(&root, 2, &|_: &_| Ok(()), &config)
            .unwrap()
            .tree;
        let (mut expanded, mut offered) = (0, 0);
        let mut walk = vec![(0u32, Vec::new())];
        while let Some((node, seq)) = walk.pop() {
            let entry = &tree.nodes[node as usize];
            if entry.expanded {
                expanded += 1;
                let (mut state, mut budget) = (root.clone(), 2);
                let mut events: Vec<ExecEvent> = seq
                    .iter()
                    .map(|&event: &StepEvent| ExecEvent {
                        event,
                        pid: event.pid(),
                        access: apply_traced(&mut state, &mut budget, event).unwrap(),
                    })
                    .collect();
                // The fold offers depth `seq.len()`'s crashes when it
                // reaches an event there; this one only closes the fold.
                let p0 = ProcessId::new(0);
                events.push(ExecEvent {
                    event: StepEvent::Step(p0),
                    pid: p0,
                    access: Access::Local,
                });
                crash_alternatives(root.live(), 2, events.iter(), |depth, alt| {
                    if depth < seq.len() {
                        return;
                    }
                    offered += 1;
                    let child = entry.children.iter().find(|(e, _)| *e == alt);
                    assert!(
                        child.is_some_and(|&(_, c)| tree.nodes[c as usize].queued),
                        "{seq:?} then {alt:?} is not queued"
                    );
                });
            }
            walk.extend(entry.children.iter().map(|&(event, child)| {
                let mut seq = seq.clone();
                seq.push(event);
                (child, seq)
            }));
        }
        assert!(expanded > 10 && offered > expanded, "{expanded} {offered}");
    }
}
