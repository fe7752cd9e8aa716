//! The bench reporter's `lattice` section: the shared-trie lattice
//! against the per-pair `implies` search.
//!
//! Three measurements back the section:
//!
//! 1. **Shared trie vs per-pair search** at depth 3 — [`implies`] on
//!    every ordered pair (one compiled search per pair, each
//!    re-enumerating its jointly legal prefixes) against
//!    [`Lattice::compute_compiled`] (one shared prefix trie, packed
//!    `u128` verdict masks, one round per observable class, static-pair
//!    precomputation, state-merged subtrees). The verdicts are asserted
//!    equal pair by pair before either time is reported.
//! 2. **Compiled lattice at depth 4** — the CLI's default depth,
//!    best of several from-scratch runs.
//! 3. **Conformance monitoring** — the per-round cost of a
//!    [`ConformanceMonitor`] over the zoo on a fixed fault stream.

use std::time::Instant;

use rrfd_analyze::lattice::{implies, Lattice};
use rrfd_core::{IdSet, ProcessId, RoundFaults, SystemSize};
use rrfd_models::conformance::ConformanceMonitor;
use rrfd_models::zoo::zoo;

/// The report's `lattice` section, ready to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatticeSection {
    /// System size the lattice was computed over.
    pub n: usize,
    /// Resilience of the zoo family.
    pub f: usize,
    /// Per-pair search ([`implies`] on every ordered pair), depth 3,
    /// wall nanoseconds.
    pub pairwise_depth3_ns: u64,
    /// Shared-trie compiled walk, depth 3, wall nanoseconds.
    pub compiled_depth3_ns: u64,
    /// `pairwise_depth3_ns / compiled_depth3_ns`, ×100.
    pub speedup_x100: u64,
    /// Compiled walk from scratch, depth 4, wall nanoseconds (best of
    /// several runs).
    pub depth4_cold_ns: u64,
    /// Compiled-plane conformance monitoring, nanoseconds per observed
    /// round.
    pub conformance_compiled_ns_per_round: u64,
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A deterministic fault stream the conformance monitors can ingest
/// without leaving every zoo model immediately: process 2 is suspected
/// by everyone (itself exempted) from round 2 on — a clean crash.
fn conformance_stream(n: SystemSize, rounds: usize) -> Vec<RoundFaults> {
    let crashed = IdSet::singleton(ProcessId::new(n.get() - 1));
    (0..rounds)
        .map(|r| {
            if r == 0 {
                RoundFaults::none(n)
            } else {
                let sets = n
                    .processes()
                    .map(|i| crashed.difference(IdSet::singleton(i)))
                    .collect();
                RoundFaults::from_sets(n, sets)
            }
        })
        .collect()
}

fn time_monitor<F>(make: F, stream: &[RoundFaults], reps: usize) -> u64
where
    F: Fn() -> ConformanceMonitor,
{
    // Warm-up pass so allocations and lazy setup don't bill to the timing.
    let mut warmup = make();
    for round in stream {
        warmup.observe(round);
    }
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..reps {
        let mut m = make();
        for round in stream {
            m.observe(round);
        }
        sink += m.verdict().violations();
    }
    let total = nanos(start);
    assert!(sink < usize::MAX); // keep `sink` observable
    total / (reps as u64 * stream.len() as u64).max(1)
}

/// Runs every measurement and asserts the section's own acceptance
/// floor: the shared-trie depth-3 walk at least 10× the per-pair search. A
/// regression that melts that ratio fails report generation rather than
/// silently shipping a slower plane.
///
/// # Panics
///
/// Panics when the compiled walk and the per-pair search disagree on a
/// depth-3 pair, or when the speedup floor is missed.
#[must_use]
pub fn measure_lattice(quick: bool) -> LatticeSection {
    let n = SystemSize::new(3).expect("3 is a valid system size");
    let f = 1usize;

    // 1. Shared trie vs per-pair search, depth 3. The per-pair search is
    //    the expensive side; one sample is representative (it enumerates
    //    every pair's prefixes), while the trie walk gets a best-of loop.
    let family = zoo(n, f);
    let start = Instant::now();
    let per_pair: Vec<Vec<bool>> = family
        .iter()
        .enumerate()
        .map(|(i, a)| {
            family
                .iter()
                .enumerate()
                .map(|(j, b)| i == j || implies(a.as_ref(), b.as_ref(), 3).is_ok())
                .collect()
        })
        .collect();
    let pairwise_depth3_ns = nanos(start).max(1);
    let compiled_reps = if quick { 3 } else { 10 };
    let mut compiled_depth3_ns = u64::MAX;
    let mut compiled = None;
    for _ in 0..compiled_reps {
        let start = Instant::now();
        let lattice = Lattice::compute_compiled(&zoo(n, f), 3);
        compiled_depth3_ns = compiled_depth3_ns.min(nanos(start).max(1));
        compiled = Some(lattice);
    }
    let compiled = compiled.expect("at least one compiled rep ran");
    for (i, row) in per_pair.iter().enumerate() {
        for (j, &holds) in row.iter().enumerate() {
            assert_eq!(
                compiled.implies_at(i, j),
                holds,
                "compiled walk and per-pair search diverged on ({i}, {j}) at depth 3"
            );
        }
    }
    let speedup_x100 = pairwise_depth3_ns * 100 / compiled_depth3_ns;

    // 2. Compiled lattice at the CLI's default depth.
    let mut depth4_cold_ns = u64::MAX;
    for _ in 0..compiled_reps {
        let start = Instant::now();
        let _ = Lattice::compute_compiled(&zoo(n, f), 4);
        depth4_cold_ns = depth4_cold_ns.min(nanos(start).max(1));
    }

    // 3. Conformance monitoring.
    let stream = conformance_stream(n, 24);
    let reps = if quick { 200 } else { 2_000 };
    let conformance_compiled_ns_per_round =
        time_monitor(|| ConformanceMonitor::zoo(n, f), &stream, reps).max(1);

    assert!(
        speedup_x100 >= 1_000,
        "compiled depth-3 lattice fell under the 10x floor: \
         per-pair {pairwise_depth3_ns}ns vs compiled {compiled_depth3_ns}ns ({speedup_x100}/100x)"
    );

    LatticeSection {
        n: n.get(),
        f,
        pairwise_depth3_ns,
        compiled_depth3_ns,
        speedup_x100,
        depth4_cold_ns,
        conformance_compiled_ns_per_round,
    }
}

/// Renders the section as the report's `"lattice"` line (two-space
/// indent and no trailing comma: the last section of the `rrfd-bench v1`
/// layout).
#[must_use]
pub fn render_lattice_line(section: &LatticeSection) -> String {
    format!(
        "  \"lattice\": {{\"n\": {}, \"f\": {}, \"pairwise_depth3_ns\": {}, \
         \"compiled_depth3_ns\": {}, \"speedup_x100\": {}, \"depth4_cold_ns\": {}, \
         \"conformance_compiled_ns_per_round\": {}}}",
        section.n,
        section.f,
        section.pairwise_depth3_ns,
        section.compiled_depth3_ns,
        section.speedup_x100,
        section.depth4_cold_ns,
        section.conformance_compiled_ns_per_round,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrfd_obs::json;

    #[test]
    fn rendered_line_parses_as_json() {
        let section = LatticeSection {
            n: 3,
            f: 1,
            pairwise_depth3_ns: 400_000_000,
            compiled_depth3_ns: 2_000_000,
            speedup_x100: 20_000,
            depth4_cold_ns: 20_000_000,
            conformance_compiled_ns_per_round: 300,
        };
        let line = render_lattice_line(&section);
        let object = line.trim().trim_end_matches(',');
        let object = object.trim_start_matches("\"lattice\": ");
        let parsed = json::parse(object).expect("line parses");
        assert_eq!(parsed.get("n").and_then(json::Json::as_u64), Some(3));
        assert_eq!(
            parsed.get("speedup_x100").and_then(json::Json::as_u64),
            Some(20_000)
        );
    }

    #[test]
    fn conformance_stream_is_admissible_for_the_crash_model() {
        let n = SystemSize::new(3).expect("valid size");
        let stream = conformance_stream(n, 8);
        let mut monitor = ConformanceMonitor::zoo(n, 1);
        for round in &stream {
            monitor.observe(round);
        }
        let verdict = monitor.verdict();
        assert!(
            verdict.strongest_satisfied().is_some(),
            "the stream must keep at least one model alive"
        );
    }
}
