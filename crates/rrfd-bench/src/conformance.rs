//! The bench reporter's `conformance` section: live zoo conformance at
//! batch scale, cross-checked against offline replay.
//!
//! [`measure_conformance`] runs one mix through the sharded pool with
//! per-instance [`rrfd_models::conformance::ConformanceMonitor`]s
//! attached (and traces captured), folds the verdicts per class, and —
//! the part that makes the section trustworthy — recomputes every
//! instance's verdict *offline* from its captured [`RunTrace`] by
//! replaying each zoo predicate over fault-pattern prefixes. The
//! `online_offline_agree` bit in the report is that differential check
//! at batch scale: the incremental monitor and the from-scratch prefix
//! replay must name the same strongest surviving predicate and the same
//! first-violation rounds for every instance.

use rrfd_core::{ProgramBatch, RunTrace};
use rrfd_engine_pool::{run_batch, ClassConformance, InstanceConformance, MixSpec, PoolConfig};
use rrfd_models::zoo::{zoo, ZOO_SIZE, ZOO_STRENGTH_RANK};
use rrfd_obs::json;

/// The resilience the pool's monitors use (`zoo(n, 1)`); the offline
/// replay must check the same family.
const CONF_ZOO_F: usize = 1;

/// The report's `conformance` section, ready to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceSection {
    /// Predicates in the monitored family (the 13-member zoo).
    pub zoo_size: usize,
    /// `true` when every instance's online verdict matched the offline
    /// prefix-replay recomputation from its captured trace.
    pub online_offline_agree: bool,
    /// Instances whose verdicts were cross-checked offline.
    pub checked: u64,
    /// Per-class folded verdicts, in mix order.
    pub classes: Vec<ClassConformance>,
    /// The pass's `rrfd-flight v1` dumps, one per instance that errored
    /// mid-batch (at most 8 per shard), each holding that instance's own
    /// rounds. Not part of the rendered JSON block — `serve` surfaces
    /// these on stderr.
    pub flight_dumps: Vec<String>,
}

/// Recomputes an instance's zoo verdict from scratch: each predicate
/// replayed on its own over the trace's rounds, first rejection recorded.
/// This is the offline half of the differential check — it shares no
/// code with the incremental monitor beyond the predicates' programs.
#[must_use]
pub fn offline_conformance(trace: &RunTrace) -> InstanceConformance {
    let n = trace.system_size();
    let family = zoo(n, CONF_ZOO_F);
    let firsts: Vec<Option<u32>> = family
        .iter()
        .map(|predicate| {
            let mut batch = ProgramBatch::of(predicate);
            let rejected = trace.rounds().iter().position(|r| !batch.admit(&r.faults));
            rejected.map(|r| r as u32 + 1)
        })
        .collect();
    let strongest = family
        .iter()
        .enumerate()
        .filter(|(idx, _)| firsts[*idx].is_none())
        .map(|(idx, p)| (p.name(), ZOO_STRENGTH_RANK[idx]))
        .min_by_key(|(_, rank)| *rank);
    let violations = family
        .iter()
        .enumerate()
        .filter_map(|(idx, p)| firsts[idx].map(|r| (p.name(), r)))
        .collect();
    InstanceConformance {
        strongest,
        violations,
    }
}

/// Measures `mix` at `instances` across `shards` with conformance
/// monitoring on, and cross-checks every captured verdict offline.
/// Decisions are deterministic in (mix, instances, seed).
#[must_use]
pub fn measure_conformance(
    mix: &MixSpec,
    instances: u64,
    shards: usize,
    seed: u64,
) -> ConformanceSection {
    let config = PoolConfig::new(shards)
        .seed(seed)
        .conformance(true)
        .capture_traces(true)
        .keep_results(true);
    let report = run_batch(mix, instances, &config);
    let mut agree = true;
    let mut checked = 0u64;
    for result in &report.results {
        let (Some(trace), Some(online)) = (&result.trace, &result.conformance) else {
            continue;
        };
        checked += 1;
        if &offline_conformance(trace) != online {
            agree = false;
        }
    }
    ConformanceSection {
        zoo_size: ZOO_SIZE,
        online_offline_agree: agree,
        checked,
        classes: report.conformance,
        flight_dumps: report.flight_dumps,
    }
}

/// Renders the section as the report's multi-line `"conformance"` block
/// (two-space indent and no trailing comma: the last section of the
/// `rrfd-bench v1` layout).
#[must_use]
pub fn render_conformance_block(section: &ConformanceSection) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  \"conformance\": {{\"zoo_size\": {}, \"online_offline_agree\": {}, \
         \"checked\": {}, \"classes\": [\n",
        section.zoo_size, section.online_offline_agree, section.checked,
    ));
    for (i, class) in section.classes.iter().enumerate() {
        let worst_name = match &class.worst_name {
            Some(name) => format!("\"{}\"", json::escape(name)),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "    {{\"class\": \"{}\", \"instances\": {}, \"clean\": {}, \
             \"worst_rank\": {}, \"worst_name\": {}}}{}\n",
            json::escape(&class.class),
            class.instances,
            class.clean,
            class.worst_rank,
            worst_name,
            if i + 1 < section.classes.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("  ]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_verdicts_agree_with_offline_replay() {
        let mix = MixSpec::default_mix();
        let section = measure_conformance(&mix, 60, 2, 0xC0FF);
        assert_eq!(section.zoo_size, ZOO_SIZE);
        assert!(section.checked > 0, "no instance was cross-checked");
        assert!(
            section.online_offline_agree,
            "online monitor diverged from offline prefix replay"
        );
        assert!(!section.classes.is_empty());
        for class in &section.classes {
            assert!(class.clean <= class.instances, "{class:?}");
        }
        // The default mix's stall class errors mid-batch, and every
        // errored instance leaves a post-mortem dump.
        assert!(
            section
                .flight_dumps
                .iter()
                .all(|d| d.starts_with("rrfd-flight v1")),
            "malformed flight dump"
        );
        assert!(!section.flight_dumps.is_empty(), "stall class left no dump");
    }

    #[test]
    fn rendered_block_parses_as_json() {
        let mix = MixSpec::default_mix();
        let section = measure_conformance(&mix, 30, 2, 7);
        let block = render_conformance_block(&section);
        let object = block.trim();
        let object = object.trim_start_matches("\"conformance\": ");
        let parsed = json::parse(object).expect("block parses");
        assert_eq!(
            parsed.get("zoo_size").and_then(json::Json::as_u64),
            Some(ZOO_SIZE as u64)
        );
        assert!(parsed
            .get("classes")
            .and_then(json::Json::as_array)
            .is_some());
    }
}
