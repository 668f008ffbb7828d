//! End-to-end integration tests spanning the whole stack: database, channel,
//! cache, monitor and harness.

use tcache::prelude::*;
use tcache_sim::experiment::{CacheKind, ExperimentConfig, WorkloadKind};
use tcache::types::{ObjectId, SimDuration, Strategy};
use tcache::workload::graph::GraphKind;

fn clustered_config(cache: CacheKind, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        duration: SimDuration::from_secs(8),
        workload: WorkloadKind::PerfectClusters {
            objects: 1000,
            cluster_size: 5,
        },
        cache,
        seed,
        ..ExperimentConfig::default()
    }
}

#[test]
fn tcache_eliminates_nearly_all_inconsistency_on_perfect_clusters() {
    let plain = clustered_config(CacheKind::Plain, 3).run();
    let tcache = clustered_config(
        CacheKind::TCache {
            dependency_bound: 5,
            strategy: Strategy::Abort,
        },
        3,
    )
    .run();
    assert!(
        plain.inconsistency_ratio() > 0.10,
        "the plain cache must show substantial inconsistency ({:.3})",
        plain.inconsistency_ratio()
    );
    assert!(
        tcache.inconsistency_ratio() < 0.01,
        "T-Cache with cluster-sized dependency lists detects essentially everything ({:.4})",
        tcache.inconsistency_ratio()
    );
    assert!(tcache.detection_ratio() > 0.95);
    // The shielding role of the cache is preserved: hit ratios match.
    assert!((tcache.hit_ratio() - plain.hit_ratio()).abs() < 0.05);
}

#[test]
fn retry_keeps_more_transactions_alive_than_abort() {
    let abort = clustered_config(
        CacheKind::TCache {
            dependency_bound: 5,
            strategy: Strategy::Abort,
        },
        5,
    )
    .run();
    let retry = clustered_config(
        CacheKind::TCache {
            dependency_bound: 5,
            strategy: Strategy::Retry,
        },
        5,
    )
    .run();
    assert!(retry.abort_ratio() < abort.abort_ratio());
    assert!(retry.consistent_commit_ratio() > abort.consistent_commit_ratio());
    // The price of RETRY is extra database reads.
    assert!(retry.cache.retries > 0);
}

#[test]
fn realistic_workloads_match_the_paper_shape() {
    let duration = SimDuration::from_secs(10);
    let mut detections = Vec::new();
    for kind in [GraphKind::RetailAffinity, GraphKind::SocialNetwork] {
        let result = ExperimentConfig {
            duration,
            workload: WorkloadKind::Graph {
                kind,
                source_nodes: 4000,
                sampled_nodes: 1000,
            },
            cache: CacheKind::TCache {
                dependency_bound: 3,
                strategy: Strategy::Abort,
            },
            seed: 17,
            ..ExperimentConfig::default()
        }
        .run();
        detections.push((kind, result.detection_ratio()));
    }
    let retail = detections[0].1;
    let social = detections[1].1;
    assert!(
        retail > social,
        "the more clustered retail topology must enjoy better detection ({retail:.2} vs {social:.2})"
    );
    assert!(retail > 0.4, "retail detection should be substantial ({retail:.2})");
    assert!(social > 0.1, "social detection should be non-trivial ({social:.2})");
}

#[test]
fn embedded_system_retry_repairs_stale_current_reads() {
    // Drive the embedded TCacheSystem with a schedule in which the stale
    // object is always the one being read (never one already returned), so
    // the RETRY strategy must repair every violation with a read-through.
    let system = SystemBuilder::new()
        .dependency_bound(3)
        .strategy(Strategy::Retry)
        .invalidation_loss(1.0)
        .seed(2)
        .build();
    system.populate((0..200u64).map(|i| (ObjectId(i), Value::new(0))));

    for round in 0..50u64 {
        let a = ObjectId(round * 2);
        let b = ObjectId(round * 2 + 1);
        // Warm only `a`, so after the update (whose invalidations are all
        // lost) the cache holds a stale `a` and no copy of `b`.
        system.read(a).unwrap();
        let version = system.update(&[a, b]).unwrap();
        // Reading `b` first fetches the fresh entry whose dependency list
        // names `a` at the new version; the subsequent read of the stale `a`
        // violates Equation 2 and is repaired by a read-through.
        match system.read_transaction(&[b, a]).unwrap() {
            ReadOutcome::Committed(values) => {
                for v in values {
                    assert_eq!(v.version, version, "RETRY returns current data");
                }
            }
            ReadOutcome::Aborted { violating_object } => {
                panic!("RETRY should have repaired the read of {violating_object}");
            }
        }
    }
    let stats = system.stats();
    assert!(stats.cache.retries > 0, "the lossy channel must force read-throughs");
    assert_eq!(stats.per_cache[0].delivery.delivered, 0, "every invalidation was dropped");
}

#[test]
fn reliable_channel_keeps_multi_object_reads_consistent() {
    let system = SystemBuilder::new()
        .dependency_bound(3)
        .strategy(Strategy::Abort)
        .invalidation_loss(0.0)
        .invalidation_delay_millis(0)
        .build();
    system.populate((0..40u64).map(|i| (ObjectId(i), Value::new(0))));
    for round in 0..30u64 {
        let objects: Vec<ObjectId> = (0..5).map(|i| ObjectId((round * 3 + i * 7) % 40)).collect();
        system.update(&objects).unwrap();
        // Delivery is asynchronous: let the invalidations land first.
        assert!(system.quiesce(std::time::Duration::from_secs(10)).unwrap());
        let outcome = system.read_transaction(&objects).unwrap();
        assert!(outcome.is_committed(), "reliable channel keeps reads consistent");
    }
    assert!(system.stats().db.updates_committed == 30);
}
