//! Criterion micro-benchmarks of the dependency-list cost.
//!
//! The paper argues (§V-B2) that dependency-list maintenance is cheap:
//! updates and checks are O(1) in the number of objects and O(k²) in the
//! dependency-list bound. These benchmarks measure exactly those two paths
//! over k = 1/3/5/16: commit-time aggregation and the per-read violation
//! check. The cache hit, the database commit and workload generation are
//! timed end to end by the repository benchmark (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tcache_cache::consistency::check_read;
use tcache_db::dependency_update::AggregatedDependencies;
use tcache_types::{DependencyList, ObjectId, ReadRecord, ReadSet, Version};

fn dependency_list(bound: usize, entries: usize) -> DependencyList {
    let mut list = DependencyList::bounded(bound);
    for i in 0..entries {
        list.record(ObjectId(i as u64), Version(i as u64 + 1));
    }
    list
}

fn bench_dependency_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependency_aggregation");
    for &bound in &[1usize, 3, 5, 16] {
        // Five written objects (entering at the transaction's version 100),
        // each inheriting a full list.
        let accessed: Vec<(ObjectId, DependencyList)> = (0..5)
            .map(|i| (ObjectId(i), dependency_list(bound, bound)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(bound), &bound, |b, &bound| {
            b.iter(|| {
                let agg = AggregatedDependencies::aggregate(
                    accessed
                        .iter()
                        .map(|(key, list)| (*key, Version(100), list)),
                    bound,
                );
                std::hint::black_box(agg.list_for(ObjectId(0)))
            })
        });
    }
    group.finish();
}

fn bench_violation_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("violation_check");
    for &k in &[1usize, 3, 5, 16] {
        let mut previous = ReadSet::new();
        for i in 0..5u64 {
            previous.push(ReadRecord::new(
                ObjectId(i),
                Version(10 + i),
                dependency_list(k, k),
            ));
        }
        let current_deps = dependency_list(k, k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                std::hint::black_box(check_read(
                    &previous,
                    ObjectId(99),
                    Version(50),
                    &current_deps,
                ))
            })
        });
    }
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configure();
    targets =
        bench_dependency_aggregation,
        bench_violation_check
}
criterion_main!(benches);
