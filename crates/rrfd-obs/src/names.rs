//! The workspace's metric taxonomy: every instrumented crate records
//! under a name from this module, so exports stay greppable and the
//! `rrfd-analyze -- stats` renderer knows what to look for.
//!
//! Naming follows Prometheus conventions: `rrfd_<substrate>_<what>` with
//! a `_total` suffix for counters and a `_ns` suffix for nanosecond
//! histograms. Labels are always the [`crate::Labels`] pair
//! `(process, round)` — never free-form strings — which bounds
//! cardinality at `n × rounds`.
//!
//! Each fact has one name: a value that another name already gives (a
//! sum of sibling counters, a complement, a second timer on the same
//! step) is derived from it, not recorded twice.

// -- rrfd-core::RoundCore (every engine run, in-process or threaded) ---------

/// Counter: rounds executed, per round (so also a round-liveness marker).
pub const ENGINE_ROUNDS: &str = "rrfd_engine_rounds_total";
/// Counter: messages emitted, per round (`n` per round, all processes).
pub const ENGINE_MESSAGES_EMITTED: &str = "rrfd_engine_messages_emitted_total";
/// Counter: messages received, per `(process, round)` — the heard-of set
/// size `|S(i,r)|`, which is also every delivery served from the round's
/// shared emission table.
pub const ENGINE_MESSAGES_RECEIVED: &str = "rrfd_engine_messages_received_total";
/// Histogram: suspicion-set size `|D(i,r)|`, per `(process, round)`.
/// Every process emits every round, so `S(i,r) = S − D(i,r)` and each
/// sample is `n −` the messages received at the same labels.
pub const ENGINE_SUSPICION_SIZE: &str = "rrfd_engine_suspicion_size";
/// Counter: first decisions, per `(process, round)`.
pub const ENGINE_DECISIONS: &str = "rrfd_engine_decisions_total";
/// Histogram: round latency in clock ns, per round. Merged over its
/// round labels it is the pool's per-step latency: one pool step is one
/// engine round.
pub const ENGINE_ROUND_LATENCY: &str = "rrfd_engine_round_latency_ns";
/// Counter: adversary violations caught by validation.
pub const ENGINE_VIOLATIONS: &str = "rrfd_engine_violations_total";

// -- rrfd-runtime::ThreadedEngine transport (coordinator + threads) ---------
//
// Only what the core cannot see. The per-event counts (emits, gathers,
// detects, deliveries, receives, decisions, state accesses) are the
// `rrfd-events v1` log of an installed `EventSink`, which `rrfd-analyze
// stats` tabulates per round.

/// Counter: gather timeouts (a thread missed its emission window).
pub const RUNTIME_GATHER_TIMEOUTS: &str = "rrfd_runtime_gather_timeouts_total";
/// Counter: runs ending in `ThreadedError::Engine(EngineError::WrongProcessCount)`.
pub const RUNTIME_ERR_WRONG_COUNT: &str = "rrfd_runtime_errors_wrong_process_count_total";
/// Counter: runs ending in `ThreadedError::Engine(EngineError::RoundLimitExceeded)`.
pub const RUNTIME_ERR_ROUND_LIMIT: &str = "rrfd_runtime_errors_round_limit_total";
/// Counter: runs ending in `ThreadedError::ProcessDied`, per process.
pub const RUNTIME_ERR_PROCESS_DIED: &str = "rrfd_runtime_errors_process_died_total";
/// Counter: runs ending in `ThreadedError::ProcessPanicked`, per process.
pub const RUNTIME_ERR_PROCESS_PANICKED: &str = "rrfd_runtime_errors_process_panicked_total";
/// Counter: runs ending in `ThreadedError::ChannelClosed`.
pub const RUNTIME_ERR_CHANNEL_CLOSED: &str = "rrfd_runtime_errors_channel_closed_total";

// -- rrfd-sims (adversarial schedulers + exhaustive exploration) ------------

/// Counter: step events, per process. Steps, crashes and deliveries
/// together are every scheduler decision.
pub const SIM_STEPS: &str = "rrfd_sim_steps_total";
/// Counter: crash events, per process.
pub const SIM_CRASHES: &str = "rrfd_sim_crashes_total";
/// Counter: message deliveries chosen by a network scheduler, or made by
/// the synchronous network simulator, per receiver.
pub const SIM_DELIVERIES: &str = "rrfd_sim_deliveries_total";
/// Histogram: branching factor (runnable/option count) at each decision.
pub const SIM_BRANCHING: &str = "rrfd_sim_branching";
/// Gauge: schedule depth — decisions taken by this scheduler so far.
pub const SIM_SCHED_DEPTH: &str = "rrfd_sim_sched_depth";
/// Counter: rounds run by the synchronous network simulator.
pub const SIM_ROUNDS: &str = "rrfd_sim_rounds_total";
/// Counter: schedules the explorer checked, one per trace class (so also
/// the maximal execution graphs the DPOR explorer ran to completion).
pub const EXPLORE_SCHEDULES: &str = "rrfd_explore_schedules_total";
/// Counter: decision points (explored states) the explorer visited.
pub const EXPLORE_DECISION_POINTS: &str = "rrfd_explore_decision_points_total";
/// Gauge: deepest decision sequence any explored schedule reached.
pub const EXPLORE_MAX_DEPTH: &str = "rrfd_explore_max_depth";
/// Gauge: marks in the DPOR explorer's revisit tree.
pub const EXPLORE_MEMO_ENTRIES: &str = "rrfd_explore_memo_entries";
/// Gauge: bytes of the DPOR explorer's revisit tree.
pub const EXPLORE_MEMO_BYTES: &str = "rrfd_explore_memo_bytes";
/// Counter: race-reversal revisits the DPOR explorer scheduled.
pub const EXPLORE_REVISITS: &str = "rrfd_explore_revisits_total";
/// Counter: revisits suppressed by the DPOR explorer's sleep-set layer
/// (already visited trace class or already queued prefix).
pub const EXPLORE_SLEEP_BLOCKED: &str = "rrfd_explore_sleep_set_blocked_total";

// -- rrfd-engine-pool (multi-tenant batch execution) -------------------------

/// Counter: instances a pool shard retired with a full decision, per
/// shard (labelled `process = shard`).
pub const POOL_INSTANCES: &str = "rrfd_pool_instances_total";
/// Counter: instances a pool shard retired with an engine error
/// (round limit, violation), per shard. Errored instances never poison
/// their shard — this counter is the evidence they were contained.
pub const POOL_ERRORS: &str = "rrfd_pool_errors_total";
/// Counter: engine rounds executed by instances that decided, per
/// shard (errored instances' partial rounds are not counted, matching
/// the batch report's definition).
pub const POOL_ROUNDS: &str = "rrfd_pool_rounds_total";
/// Counter: pool runs started on their lane's previous run's
/// emission-table buffer instead of a fresh one, per shard.
pub const POOL_BUFFER_REUSES: &str = "rrfd_pool_buffer_reuses_total";
/// Gauge: shards the batch ran on.
pub const POOL_SHARDS: &str = "rrfd_pool_shards";

// -- conformance monitor (rrfd-models::conformance) --------------------------
//
// The monitor watches one run's per-round suspicions and decides, for
// each of the 13 zoo predicates, whether the run still conforms. The
// predicate is identified by its zoo index carried in the `process`
// label — a documented reuse of the bounded label schema (zoo size 13,
// far below any process count the label was sized for).

/// Counter: rounds the conformance monitor has observed.
pub const CONF_ROUNDS: &str = "rrfd_conformance_rounds_total";
/// Counter: individual predicate evaluations performed (≤ zoo size per
/// round — already-violated predicates are not re-evaluated).
pub const CONF_CHECKS: &str = "rrfd_conformance_checks_total";
/// Gauge: `1` while the predicate at zoo index `process` is still
/// satisfied by every observed round, `0` once violated.
pub const CONF_SATISFIED: &str = "rrfd_conformance_satisfied";
/// Gauge: the round in which the predicate at zoo index `process` was
/// first violated (unset while it still holds).
pub const CONF_FIRST_VIOLATION: &str = "rrfd_conformance_first_violation_round";
/// Gauge: strength rank of the strongest zoo predicate the run still
/// satisfies (lower = stronger; `-1` when nothing holds).
pub const CONF_STRONGEST: &str = "rrfd_conformance_strongest_rank";

// -- compiled predicate plane (rrfd-core::program, rrfd-analyze lattice) -----
//
// The compiled plane lowers predicates to word-level programs evaluated
// in batch (DESIGN.md §17).

/// Counter: compiled predicate-program evaluations (conformance monitor
/// batches, admissibility checks).
pub const PRED_COMPILED_EVALS: &str = "rrfd_predicate_compiled_evals_total";

// -- the registry ------------------------------------------------------------

/// Every name above, in declaration order: the closed registry that
/// [`crate::MetricId`] interns. A name's position here is its dense id, so
/// recorders index per-metric tables by it instead of hashing strings.
/// New names must be appended here too (a unit test checks that every
/// constant of this module is listed exactly once).
pub const ALL: [&str; 37] = [
    ENGINE_ROUNDS,
    ENGINE_MESSAGES_EMITTED,
    ENGINE_MESSAGES_RECEIVED,
    ENGINE_SUSPICION_SIZE,
    ENGINE_DECISIONS,
    ENGINE_ROUND_LATENCY,
    ENGINE_VIOLATIONS,
    RUNTIME_GATHER_TIMEOUTS,
    RUNTIME_ERR_WRONG_COUNT,
    RUNTIME_ERR_ROUND_LIMIT,
    RUNTIME_ERR_PROCESS_DIED,
    RUNTIME_ERR_PROCESS_PANICKED,
    RUNTIME_ERR_CHANNEL_CLOSED,
    SIM_STEPS,
    SIM_CRASHES,
    SIM_DELIVERIES,
    SIM_BRANCHING,
    SIM_SCHED_DEPTH,
    SIM_ROUNDS,
    EXPLORE_SCHEDULES,
    EXPLORE_DECISION_POINTS,
    EXPLORE_MAX_DEPTH,
    EXPLORE_MEMO_ENTRIES,
    EXPLORE_MEMO_BYTES,
    EXPLORE_REVISITS,
    EXPLORE_SLEEP_BLOCKED,
    POOL_INSTANCES,
    POOL_ERRORS,
    POOL_ROUNDS,
    POOL_BUFFER_REUSES,
    POOL_SHARDS,
    CONF_ROUNDS,
    CONF_CHECKS,
    CONF_SATISFIED,
    CONF_FIRST_VIOLATION,
    CONF_STRONGEST,
    PRED_COMPILED_EVALS,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn every_name_is_registered_once() {
        let source = include_str!("names.rs");
        let declared: Vec<&str> = source
            .lines()
            .filter_map(|line| line.strip_prefix("pub const "))
            .filter_map(|rest| rest.split_once(": &str = \""))
            .filter_map(|(_, value)| value.split_once('"'))
            .map(|(value, _)| value)
            .collect();
        assert_eq!(declared.len(), ALL.len());
        assert_eq!(declared, ALL.to_vec(), "ALL lists the names in order");
        let mut sorted = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len(), "names are distinct");
    }
}
