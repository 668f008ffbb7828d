//! Property tests for Theorem 1: with unbounded cache size and unbounded
//! dependency lists, T-Cache implements cache-serializability — every
//! read-only transaction that commits through the cache is serializable with
//! the update transactions, no matter how unreliable the invalidation
//! channel is.

use proptest::prelude::*;
use std::time::Duration;
use tcache_sim::experiment::{CacheKind, ExperimentConfig, WorkloadKind};
use tcache::types::Strategy as CacheStrategy;
use tcache::types::{CacheId, ObjectId, SimDuration, SimTime, TransactionRecord, TxnId, Value};
use tcache::{ReadOutcome, SystemBuilder};
use tcache_monitor::SerializationGraph;

/// One scripted step of a randomly generated schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Update the given objects at the database.
    Update(Vec<u64>),
    /// Run a read-only transaction over the given objects through the cache.
    Read(Vec<u64>),
    /// Let time pass (the payload, in virtual milliseconds) and deliver
    /// every in-flight invalidation the link does not lose.
    Advance(u64),
}

fn arb_step(objects: u64) -> impl proptest::strategy::Strategy<Value = Step> {
    prop_oneof![
        prop::collection::vec(0..objects, 1..5).prop_map(Step::Update),
        prop::collection::vec(0..objects, 1..5).prop_map(Step::Read),
        (1u64..100).prop_map(Step::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every committed read-only transaction of an unbounded T-Cache is
    /// serializable with the update history (checked with the exact
    /// serialization-graph oracle), even under 100% invalidation loss.
    ///
    /// The live plane delivers in wall-clock time, so the script keeps the
    /// cache's delivery task paused and opens it only at `Advance` steps
    /// (resume → quiesce → pause): invalidations land exactly there, the
    /// run is a pure function of `(steps, loss, seed)`, and shrinking works.
    #[test]
    fn unbounded_tcache_is_cache_serializable(
        steps in prop::collection::vec(arb_step(12), 1..60),
        loss in prop_oneof![Just(0.0f64), Just(0.5), Just(1.0)],
        seed in 0u64..1000,
    ) {
        let objects = 12u64;
        let system = SystemBuilder::new()
            .unbounded_dependencies()
            .strategy(CacheStrategy::Abort)
            .invalidation_loss(loss)
            .seed(seed)
            .build();
        system.populate((0..objects).map(|i| (ObjectId(i), Value::new(0))));
        system.pause_cache(CacheId(0)).unwrap();

        let mut sgt = SerializationGraph::new();
        let mut next_ro = 1_000_000u64;
        // Invalidations the link had been offered as of the last `Advance`.
        let mut landed = 0u64;
        let offered = || system.stats().per_cache[0].delivery.offered;
        for step in steps {
            match step {
                Step::Update(ids) => {
                    let ids: Vec<ObjectId> = ids.into_iter().map(ObjectId).collect();
                    // Record the commit in the oracle exactly as the
                    // database installed it.
                    let before: Vec<_> = ids
                        .iter()
                        .map(|&o| (o, system.database().peek_entry(o).unwrap().version))
                        .collect();
                    let version = system.update(&ids).unwrap();
                    let mut distinct = ids.clone();
                    distinct.sort();
                    distinct.dedup();
                    let record = TransactionRecord::update_committed(
                        TxnId(version.as_u64()),
                        before,
                        distinct.into_iter().map(|o| (o, version)).collect(),
                        SimTime::ZERO,
                    );
                    sgt.add_update(&record);
                }
                Step::Read(ids) => {
                    let ids: Vec<ObjectId> = ids.into_iter().map(ObjectId).collect();
                    prop_assert_eq!(offered(), landed, "invalidations land only at Advance steps");
                    match system.read_transaction(&ids).unwrap() {
                        ReadOutcome::Committed(values) => {
                            next_ro += 1;
                            let reads: Vec<_> =
                                values.iter().map(|v| (v.id, v.version)).collect();
                            prop_assert!(
                                sgt.read_only_consistent(TxnId(next_ro), &reads),
                                "committed read-only transaction must be serializable: {reads:?}"
                            );
                        }
                        ReadOutcome::Aborted { .. } => {
                            // Aborting is always allowed; Theorem 1 only
                            // constrains what commits.
                        }
                    }
                }
                Step::Advance(ms) => {
                    system.advance_time(SimDuration::from_millis(ms));
                    system.resume_cache(CacheId(0)).unwrap();
                    prop_assert!(system.quiesce(Duration::from_secs(10)).unwrap());
                    system.pause_cache(CacheId(0)).unwrap();
                    landed = offered();
                }
            }
        }
    }
}

/// The simulation-harness variant of the same claim, at a larger scale: an
/// unbounded T-Cache run never commits a transaction that the monitor's
/// (conservative) classifier counts as inconsistent beyond the classifier's
/// own false-positive allowance — and with a perfectly clustered workload it
/// commits none at all.
#[test]
fn unbounded_tcache_commits_no_inconsistent_transaction_on_clustered_workloads() {
    let result = ExperimentConfig {
        duration: SimDuration::from_secs(8),
        workload: WorkloadKind::PerfectClusters {
            objects: 500,
            cluster_size: 5,
        },
        cache: CacheKind::Unbounded {
            strategy: CacheStrategy::Abort,
        },
        seed: 9,
        ..ExperimentConfig::default()
    }
    .run();
    assert_eq!(
        result.report.committed_inconsistent, 0,
        "unbounded dependency lists must catch every inconsistency"
    );
    assert!(result.report.committed_consistent > 0);
}
