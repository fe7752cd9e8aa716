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
    /// Always 0: the search runs on one thread and moves no work between
    /// workers. The field stays only because the `roundbench` benchmark
    /// still reads it; ROADMAP's *Roundbench edits* drops it.
    pub steals: u64,
    /// Revisits suppressed because their execution re-entered an already
    /// visited trace class or re-proposed an already queued prefix — the
    /// sleep-set role in the graph-based explorer.
    pub sleep_set_blocked: u64,
}

impl ExploreStats {
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
            names::EXPLORE_MEMO_ENTRIES,
            Labels::GLOBAL,
            i64::try_from(self.memo_entries).unwrap_or(i64::MAX),
        );
        obs.gauge(
            names::EXPLORE_MEMO_BYTES,
            Labels::GLOBAL,
            i64::try_from(self.memo_bytes).unwrap_or(i64::MAX),
        );
        obs.add(names::EXPLORE_REVISITS, Labels::GLOBAL, self.revisits);
        obs.add(
            names::EXPLORE_SLEEP_BLOCKED,
            Labels::GLOBAL,
            self.sleep_set_blocked,
        );
    }
}

/// A failing schedule found during exploration: its concrete event
/// sequence (replayable through [`crate::trace::ScheduleReplay`]), the
/// checker's complaint, and the search's effort.
#[derive(Debug, Clone)]
pub struct Counterexample {
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
        write!(f, "replayable schedule:\n{}", self.schedule)
    }
}
