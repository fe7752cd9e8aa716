//! The result types of schedule exploration, shared by every
//! [`crate::dpor`] entry point.
//!
//! A completed search reports its effort as [`ExploreStats`]; a failed
//! check stops it with a [`Counterexample`] whose serialized schedule can
//! be re-driven verbatim through [`crate::trace::ScheduleReplay`], so the
//! failing run is a certificate rather than a position in the search.

use crate::trace::ScheduleTrace;
use std::fmt;

/// Search-effort totals of an exploration, so "how hard was this
/// proof-by-enumeration" is a measured quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Schedules checked: one representative run per Mazurkiewicz trace
    /// class reached.
    pub schedules: usize,
    /// Decision points visited, summed over every run the search made
    /// (replayed prefixes are re-visited and re-counted, mirroring the
    /// work done).
    pub decision_points: u64,
    /// The deepest decision sequence any run reached.
    pub max_depth: usize,
    /// Worker threads the search ran on.
    pub workers: usize,
    /// Marks in the revisit tree: one per explored class plus one per
    /// queued revisit prefix.
    pub memo_entries: usize,
    /// Bytes of the revisit tree, nodes and edges.
    pub memo_bytes: usize,
    /// Maximal execution graphs run to completion — one per
    /// Mazurkiewicz trace class reached.
    pub graphs_explored: u64,
    /// Race-reversal revisits scheduled.
    pub revisits: u64,
    /// Work items moved between workers by the stealing pool. The only
    /// timing-dependent counter: every other field is identical across
    /// worker counts.
    pub steals: u64,
    /// Revisits suppressed because their execution re-entered an already
    /// visited trace class or re-proposed an already queued prefix — the
    /// sleep-set role in the graph-based explorer.
    pub sleep_set_blocked: u64,
}

impl ExploreStats {
    /// Combines the totals of two disjoint parts of one search. The
    /// operation is associative and commutative (sums and maxima), so
    /// per-item stats can be folded in any grouping and order: the DPOR
    /// explorer folds them as work items complete and still reports the
    /// same totals on every run.
    #[must_use]
    pub fn merged(self, other: ExploreStats) -> ExploreStats {
        ExploreStats {
            schedules: self.schedules + other.schedules,
            decision_points: self.decision_points + other.decision_points,
            max_depth: self.max_depth.max(other.max_depth),
            workers: self.workers.max(other.workers),
            memo_entries: self.memo_entries + other.memo_entries,
            memo_bytes: self.memo_bytes + other.memo_bytes,
            graphs_explored: self.graphs_explored + other.graphs_explored,
            revisits: self.revisits + other.revisits,
            steals: self.steals + other.steals,
            sleep_set_blocked: self.sleep_set_blocked + other.sleep_set_blocked,
        }
    }

    /// Records the totals under the `rrfd_explore_*` metric names.
    pub fn record(&self, obs: &rrfd_obs::Obs) {
        use rrfd_obs::{names, Labels};
        obs.add(
            names::EXPLORE_SCHEDULES,
            Labels::GLOBAL,
            self.schedules as u64,
        );
        obs.add(
            names::EXPLORE_DECISION_POINTS,
            Labels::GLOBAL,
            self.decision_points,
        );
        obs.gauge(
            names::EXPLORE_MAX_DEPTH,
            Labels::GLOBAL,
            i64::try_from(self.max_depth).unwrap_or(i64::MAX),
        );
        obs.gauge(
            names::EXPLORE_WORKERS,
            Labels::GLOBAL,
            i64::try_from(self.workers).unwrap_or(i64::MAX),
        );
        obs.gauge(
            names::EXPLORE_MEMO_ENTRIES,
            Labels::GLOBAL,
            i64::try_from(self.memo_entries).unwrap_or(i64::MAX),
        );
        obs.gauge(
            names::EXPLORE_MEMO_BYTES,
            Labels::GLOBAL,
            i64::try_from(self.memo_bytes).unwrap_or(i64::MAX),
        );
        obs.add(names::EXPLORE_GRAPHS, Labels::GLOBAL, self.graphs_explored);
        obs.add(names::EXPLORE_REVISITS, Labels::GLOBAL, self.revisits);
        obs.add(names::EXPLORE_STEALS, Labels::GLOBAL, self.steals);
        obs.add(
            names::EXPLORE_SLEEP_BLOCKED,
            Labels::GLOBAL,
            self.sleep_set_blocked,
        );
    }
}

/// A failing schedule found during exploration: its decision indices, the
/// concrete event sequence they produced (replayable through
/// [`crate::trace::ScheduleReplay`]), and the checker's complaint.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Decision indices into each choice point's option list.
    pub choices: Vec<usize>,
    /// The concrete schedule, serializable and replayable.
    pub schedule: ScheduleTrace,
    /// What the checker reported.
    pub message: String,
    /// Search effort of the search that found it, the failing run's own
    /// decisions included.
    pub stats: ExploreStats,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule check failed: {}", self.message)?;
        writeln!(f, "scheduler choices: {:?}", self.choices)?;
        write!(f, "replayable schedule:\n{}", self.schedule)
    }
}
