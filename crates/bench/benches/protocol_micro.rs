//! Criterion micro-benchmarks of the protocol hot paths.
//!
//! The paper argues (§V-B2) that dependency-list maintenance is cheap:
//! updates and checks are O(1) in the number of objects and O(k²) in the
//! dependency-list bound. These benchmarks measure exactly those paths:
//! commit-time aggregation, the per-read violation check, the cache read
//! hot path and the database commit path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tcache_cache::consistency::check_read;
use tcache_cache::EdgeCache;
use tcache_db::dependency_update::AggregatedDependencies;
use tcache_db::{Database, DatabaseConfig};
use tcache_types::{
    AccessSet, CacheId, DependencyList, ObjectId, ReadRecord, ReadSet, SimTime, Strategy, TxnId,
    Value, Version,
};
use tcache_workload::{ParetoClusters, RandomWalkWorkload, WorkloadGenerator};
use tcache_workload::graph::GraphKind;

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

fn bench_cache_read_hot_path(c: &mut Criterion) {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
    db.populate((0..1000u64).map(|i| (ObjectId(i), Value::new(0))));
    let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), 3, Strategy::Abort);
    // Warm the cache and create some dependency structure.
    for i in 0..200u64 {
        let access: AccessSet = vec![i * 5 % 1000, (i * 5 + 1) % 1000, (i * 5 + 2) % 1000].into();
        db.execute_update(TxnId(i + 1), &access).unwrap();
    }
    let mut txn = 10_000u64;
    c.bench_function("cache_read_hit_transaction", |b| {
        b.iter(|| {
            txn += 1;
            let base = (txn * 5) % 995;
            let keys = [ObjectId(base), ObjectId(base + 1), ObjectId(base + 2)];
            std::hint::black_box(
                cache
                    .execute_transaction(SimTime::ZERO, TxnId(txn), &keys)
                    .unwrap(),
            )
        })
    });
}

fn bench_db_commit(c: &mut Criterion) {
    let db = Database::new(DatabaseConfig::with_bound(3));
    db.populate((0..1000u64).map(|i| (ObjectId(i), Value::new(0))));
    let mut txn = 0u64;
    c.bench_function("db_update_commit_5_objects", |b| {
        b.iter(|| {
            txn += 1;
            let base = (txn * 7) % 995;
            let access: AccessSet = (base..base + 5).collect::<Vec<_>>().into();
            std::hint::black_box(db.execute_update(TxnId(txn), &access).unwrap())
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation");
    let mut rng = StdRng::seed_from_u64(1);
    let mut pareto = ParetoClusters::new(2000, 5, 5, 1.0);
    group.bench_function("pareto_clusters", |b| {
        b.iter(|| std::hint::black_box(pareto.generate(SimTime::ZERO, &mut rng)))
    });
    let mut walk = RandomWalkWorkload::paper_workload(GraphKind::RetailAffinity, 2000, 500, 3);
    group.bench_function("graph_random_walk", |b| {
        b.iter(|| std::hint::black_box(walk.generate(SimTime::ZERO, &mut rng)))
    });
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
        bench_violation_check,
        bench_cache_read_hot_path,
        bench_db_commit,
        bench_workload_generation
}
criterion_main!(benches);
