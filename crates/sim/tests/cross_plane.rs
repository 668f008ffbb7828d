//! Cross-plane parity: the discrete-event simulator and the live reactor
//! stack execute the same schedule, and where their delivery semantics
//! coincide they must agree *exactly*.
//!
//! * With zero loss and zero delivery delay, lockstep live execution is
//!   verdict-identical to the discrete plane on the same seed: same
//!   transactions, same observations, same `ConsistencyMonitor` reports.
//! * With loss (and constant zero delay), the drop decisions come from the
//!   same `(seed, CacheId)`-derived RNG stream on both planes, so even the
//!   *lossy* runs produce identical verdicts — and each cache's live drop
//!   count matches a replayed `LossState` oracle message for message.

use tcache_net::fault::{FaultPlan, LossModel, LossState};
use tcache_sim::experiment::{CacheKind, CacheTopology, ExperimentConfig, WorkloadKind};
use tcache_sim::{ExecutionPlane, LiveOptions, Schedule};
use tcache_types::{
    cache_channel_seed, CacheId, RecoveryPolicy, SimDuration, SimTime, Strategy,
};
use tcache_workload::{ChurnAction, ChurnEvent, HotKeyStorm, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small multi-cache configuration both planes can run in a few hundred
/// milliseconds (bounded for the 1-CPU CI host: 4 client threads + driver
/// + reactor, ~1800 transactions).
fn base_config() -> ExperimentConfig {
    ExperimentConfig {
        duration: SimDuration::from_secs(3),
        workload: WorkloadKind::PerfectClusters {
            objects: 400,
            cluster_size: 5,
        },
        cache: CacheKind::TCache {
            dependency_bound: 5,
            strategy: Strategy::Abort,
        },
        caches: CacheTopology::PerCacheLoss(vec![0.0, 0.0, 0.0, 0.0]),
        invalidation_loss: 0.0,
        invalidation_delay: SimDuration::ZERO,
        seed: 42,
        ..ExperimentConfig::default()
    }
}

fn assert_verdict_parity(config: ExperimentConfig) {
    let discrete = config
        .clone()
        .on_plane(ExecutionPlane::DiscreteEvent)
        .run();
    let live = config
        .on_plane(ExecutionPlane::Live(LiveOptions::lockstep()))
        .run();

    assert_eq!(
        discrete.report, live.report,
        "global monitor reports must be identical across planes"
    );
    assert_eq!(discrete.per_cache.len(), live.per_cache.len());
    for (d, l) in discrete.per_cache.iter().zip(&live.per_cache) {
        assert_eq!(d.id, l.id);
        assert_eq!(
            d.report, l.report,
            "{}: per-cache verdicts must be identical across planes",
            d.id
        );
        // The caches served the same hits/misses along the way.
        assert_eq!(
            d.cache.reads, l.cache.reads,
            "{}: same number of reads served",
            d.id
        );
        assert_eq!(d.cache.hits, l.cache.hits, "{}: same hit counts", d.id);
        // The link carried the same traffic and lost the same messages.
        assert_eq!(d.link.offered, l.link.offered, "{}: same sends", d.id);
        assert_eq!(
            d.link.dropped, l.link.dropped,
            "{}: same drop counts",
            d.id
        );
    }
    // The outcome time series (binned by schedule time) matches too.
    assert_eq!(discrete.timeseries.bins(), live.timeseries.bins());
}

#[test]
fn zero_loss_zero_delay_planes_produce_identical_verdicts() {
    let config = base_config();
    let result = config.clone().run();
    // Sanity: the reliable configuration commits everything consistently,
    // so the parity below is about real traffic, not empty reports.
    assert!(result.report.read_only_total() > 1000);
    assert_eq!(result.report.committed_inconsistent, 0);
    assert_verdict_parity(config);
}

#[test]
fn lossy_zero_delay_planes_still_agree_exactly() {
    // Each cache's loss draws come from the same `(seed, CacheId)` stream
    // on both planes, so the per-cache drop pattern is identical and the
    // verdicts — including real inconsistencies and aborts — line up
    // message for message.
    let config = ExperimentConfig {
        caches: CacheTopology::PerCacheLoss(vec![0.0, 0.2, 0.5, 1.0]),
        ..base_config()
    };
    let reference = config.clone().run();
    assert!(
        reference.report.aborted_total() > 0,
        "the lossy caches must trip the predicates, otherwise parity is vacuous"
    );
    assert_verdict_parity(config);
}

#[test]
fn live_drop_counts_match_the_seeded_loss_oracle_exactly() {
    let losses = [0.3, 0.6];
    let config = ExperimentConfig {
        caches: CacheTopology::PerCacheLoss(losses.to_vec()),
        cache: CacheKind::Plain,
        ..base_config()
    };
    let live = config
        .clone()
        .on_plane(ExecutionPlane::Live(LiveOptions::lockstep()))
        .run();

    // Every committed update broadcast its invalidations to every cache,
    // so each cache's task saw the same message count.
    for (i, column) in live.per_cache.iter().enumerate() {
        assert!(column.link.offered > 0);
        let mut rng = StdRng::seed_from_u64(cache_channel_seed(config.seed, CacheId(i as u32)));
        let mut oracle = LossState::new(LossModel::uniform(losses[i]));
        let expected = (0..column.link.offered)
            .filter(|_| oracle.should_drop(&mut rng))
            .count() as u64;
        assert_eq!(
            column.link.dropped, expected,
            "{}: live drops must replay the seeded LossState oracle",
            column.id
        );
        assert_eq!(
            column.link.delivered,
            column.link.offered - expected,
            "{}: survivors are all applied",
            column.id
        );
    }
}

#[test]
fn fault_schedules_preserve_cross_plane_parity() {
    // An identical deterministic fault plan — a crash/restart on cache 0
    // and a partition on cache 1, next to an unfaulted control cache —
    // must produce identical monitor verdicts AND identical lifecycle
    // counters (gaps, replays, resyncs, degraded reads) on both planes at
    // zero delivery delay.
    let faults = FaultPlan::new()
        .crash_restart(
            CacheId(0),
            SimTime::from_millis(800),
            SimTime::from_millis(1600),
        )
        .partition(
            CacheId(1),
            SimTime::from_millis(500),
            SimTime::from_millis(2000),
        );
    let config = ExperimentConfig {
        caches: CacheTopology::PerCacheLoss(vec![0.0, 0.0, 0.0]),
        faults,
        recovery: RecoveryPolicy::GapResync {
            staleness_budget: SimDuration::from_millis(100),
        },
        ..base_config()
    };
    // Sanity: the plan actually exercises the recovery machinery, so the
    // parity assertions below compare real fault traffic.
    let reference = config.clone().run();
    assert_eq!(reference.per_cache[0].lifecycle.crashes, 1);
    assert_eq!(reference.per_cache[1].lifecycle.partitions, 1);
    assert_eq!(reference.per_cache[1].lifecycle.reconnects, 1);
    assert!(
        reference.per_cache[1].lifecycle.pass_through_txns > 0,
        "a 1.5 s partition against a 100 ms budget must degrade reads"
    );
    assert_verdict_parity(config.clone());

    let discrete = config
        .clone()
        .on_plane(ExecutionPlane::DiscreteEvent)
        .run();
    let live = config
        .on_plane(ExecutionPlane::Live(LiveOptions::lockstep()))
        .run();
    for (d, l) in discrete.per_cache.iter().zip(&live.per_cache) {
        assert_eq!(
            d.lifecycle, l.lifecycle,
            "{}: lifecycle counters (gaps, replays, resyncs, degraded reads) \
             must be identical across planes",
            d.id
        );
        assert_eq!(
            d.degraded, l.degraded,
            "{}: degraded-phase verdicts must be identical across planes",
            d.id
        );
        assert_eq!(
            d.degraded.committed_inconsistent, 0,
            "{}: degraded-window reads are never violations",
            d.id
        );
    }
}

#[test]
fn scenario_schedules_preserve_cross_plane_parity() {
    // A scenario run — hot-key storm plus crash/restart churn over a lossy
    // deployment, zero delivery delay — must agree across planes exactly:
    // same verdicts, same drops, and (because the modeled client latency
    // is a pure function of the run seed and each read's outcome) the
    // same per-cache latency histograms, quantile for quantile.
    let spec = ScenarioSpec::new("parity", 400, 5, 0.9, 500_000)
        .with_storm(HotKeyStorm {
            from: SimTime::from_millis(500),
            until: SimTime::from_millis(2000),
            hot_keys: 4,
            fraction: 0.7,
        })
        .with_churn(ChurnEvent {
            at: SimTime::from_millis(1000),
            cache: 1,
            action: ChurnAction::Crash,
        })
        .with_churn(ChurnEvent {
            at: SimTime::from_millis(1800),
            cache: 1,
            action: ChurnAction::Restart,
        });
    let config = ExperimentConfig {
        caches: CacheTopology::PerCacheLoss(vec![0.0, 0.2, 0.4]),
        scenario: Some(spec),
        ..base_config()
    };
    // Sanity: the scenario produces traffic, loses invalidations, crashes
    // a cache, and fills the histograms — parity below is not vacuous.
    let reference = config.clone().run();
    assert!(reference.report.read_only_total() > 500);
    assert!(reference.link.dropped > 0);
    assert_eq!(reference.per_cache[1].lifecycle.crashes, 1);
    for column in &reference.per_cache {
        assert_eq!(
            column.latency.len(),
            column.report.read_only_total(),
            "{}: one latency sample per read",
            column.id
        );
    }
    assert_verdict_parity(config.clone());

    let discrete = config
        .clone()
        .on_plane(ExecutionPlane::DiscreteEvent)
        .run();
    let live = config
        .on_plane(ExecutionPlane::Live(LiveOptions::lockstep()))
        .run();
    for (d, l) in discrete.per_cache.iter().zip(&live.per_cache) {
        assert_eq!(
            d.latency, l.latency,
            "{}: modeled latency histograms must be bit-identical across planes",
            d.id
        );
        assert_eq!(d.lifecycle, l.lifecycle, "{}: same lifecycle", d.id);
    }
}

#[test]
fn concurrent_pacing_executes_the_full_schedule() {
    // Free-running clients are nondeterministic, but they must still
    // execute every scheduled transaction exactly once and produce a
    // classification for each.
    let config = ExperimentConfig {
        duration: SimDuration::from_secs(2),
        caches: CacheTopology::PerCacheLoss(vec![0.0, 0.4]),
        ..base_config()
    };
    let schedule = Schedule::build(&config);
    let reads = schedule.ops.len() - schedule.update_count();
    let result = config
        .on_plane(ExecutionPlane::Live(LiveOptions::concurrent()))
        .run();
    assert_eq!(result.report.read_only_total() as usize, reads);
    assert_eq!(
        result.report.updates_committed + result.report.updates_aborted,
        schedule.update_count() as u64
    );
    let per_cache_reads: u64 = result
        .per_cache
        .iter()
        .map(|c| c.report.read_only_total())
        .sum();
    assert_eq!(per_cache_reads as usize, reads);
}
