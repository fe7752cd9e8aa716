//! Ablation benches for the design choices called out in DESIGN.md §7:
//!
//! * `idset_vs_btreeset` — the `u128` bitmap representation of process
//!   sets against a `BTreeSet<usize>` baseline, on the union/intersection
//!   mix predicates execute per round.
//! * `predicate_check` — the cost of the engine's per-round validation
//!   (well-formedness + model predicate), i.e. what "checked adversaries"
//!   cost on the hot path.
//! * `full_info_vs_compact` — full-information relaying (whole knowledge
//!   state per message) against compact flood-min messages at equal round
//!   counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rrfd_bench::{quick_criterion, SEED};
use rrfd_core::{
    validate_round, Engine, FaultPattern, IdSet, KnowledgeProtocol, ProcessId, ProgramBatch,
    SystemSize,
};
use rrfd_models::adversary::{NoFailures, RandomAdversary, SampleModel};
use rrfd_models::predicates::{Crash, Snapshot};
use rrfd_protocols::kset::FloodMin;
use std::collections::BTreeSet;
use std::hint::black_box;

fn bench_idset(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_idset_vs_btreeset");
    let n = 64usize;
    let a_items: Vec<usize> = (0..n).step_by(2).collect();
    let b_items: Vec<usize> = (0..n).step_by(3).collect();

    let a_bits: IdSet = a_items.iter().map(|&i| ProcessId::new(i)).collect();
    let b_bits: IdSet = b_items.iter().map(|&i| ProcessId::new(i)).collect();
    group.bench_function(BenchmarkId::new("idset", "mix"), |bench| {
        bench.iter(|| {
            let u = black_box(a_bits) | black_box(b_bits);
            let i = a_bits & b_bits;
            let d = u - i;
            black_box((d.len(), d.min(), a_bits.is_subset(u)))
        });
    });

    let a_tree: BTreeSet<usize> = a_items.iter().copied().collect();
    let b_tree: BTreeSet<usize> = b_items.iter().copied().collect();
    group.bench_function(BenchmarkId::new("btreeset", "mix"), |bench| {
        bench.iter(|| {
            let u: BTreeSet<usize> = a_tree.union(&b_tree).copied().collect();
            let i: BTreeSet<usize> = a_tree.intersection(&b_tree).copied().collect();
            let d: BTreeSet<usize> = u.difference(&i).copied().collect();
            black_box((d.len(), d.iter().next().copied(), a_tree.is_subset(&u)))
        });
    });
    group.finish();
}

fn bench_predicate_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_predicate_check");
    for &nv in &[16usize, 64, 128] {
        let n = SystemSize::new(nv).unwrap();
        let model = Snapshot::new(n, nv / 4);
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(SEED)
        };
        let history = FaultPattern::new(n);
        let round = model.sample_round(&mut rng, &history);
        // Each iteration admits the round as the first of a fresh run.
        let mut batch = ProgramBatch::of(&model);
        group.bench_with_input(BenchmarkId::new("snapshot_validate", nv), &n, |b, _| {
            b.iter(|| {
                batch.reset();
                validate_round(&model, &mut batch, black_box(&round)).unwrap()
            });
        });

        let crash = Crash::new(n, nv / 4);
        let crash_round = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
            crash.sample_round(&mut rng, &history)
        };
        let mut batch = ProgramBatch::of(&crash);
        group.bench_with_input(BenchmarkId::new("crash_validate", nv), &n, |b, _| {
            b.iter(|| {
                batch.reset();
                validate_round(&crash, &mut batch, black_box(&crash_round)).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_full_info(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fullinfo_vs_compact");
    for &nv in &[8usize, 16, 32] {
        let n = SystemSize::new(nv).unwrap();
        let rounds = 4u32;

        group.bench_with_input(BenchmarkId::new("full_information", nv), &n, |b, &n| {
            b.iter(|| {
                let protos: Vec<_> = n
                    .processes()
                    .map(|p| KnowledgeProtocol::new(n, p, p.index() as u64, rounds))
                    .collect();
                Engine::new(n)
                    .run(
                        protos,
                        &mut NoFailures::new(n),
                        &rrfd_core::AnyPattern::new(n),
                    )
                    .unwrap()
            });
        });

        group.bench_with_input(BenchmarkId::new("compact_floodmin", nv), &n, |b, &n| {
            b.iter(|| {
                let protos: Vec<_> = (0..nv as u64).map(|v| FloodMin::new(v, rounds)).collect();
                Engine::new(n)
                    .run(
                        protos,
                        &mut NoFailures::new(n),
                        &rrfd_core::AnyPattern::new(n),
                    )
                    .unwrap()
            });
        });

        // And the same under a real adversary, for scale.
        group.bench_with_input(BenchmarkId::new("compact_under_crash", nv), &n, |b, &n| {
            b.iter(|| {
                let model = Crash::new(n, nv / 4);
                let protos: Vec<_> = (0..nv as u64).map(|v| FloodMin::new(v, rounds)).collect();
                let mut adv = RandomAdversary::new(model, SEED);
                Engine::new(n).run(protos, &mut adv, &model).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_idset, bench_predicate_check, bench_full_info
}
criterion_main!(benches);
