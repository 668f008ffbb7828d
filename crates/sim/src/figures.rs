//! Per-figure experiment drivers.
//!
//! Each function reproduces one figure of the paper's evaluation and returns
//! the rows / series the figure plots. The experiments of the `tcache-bench`
//! binary call these with paper-scale durations and print the tables; the
//! unit tests here call them with short durations and assert the qualitative
//! shape (who wins, what trends up or down).

use crate::experiment::{CacheKind, CacheTopology, ExperimentConfig, WorkloadKind};
use crate::plane::{ExecutionPlane, LiveOptions};
use crate::results::ExperimentResult;
use serde::Serialize;
use tcache_net::fault::FaultPlan;
use tcache_net::pipe::OverflowPolicy;
use tcache_types::{CacheId, RecoveryPolicy, SimDuration, SimTime, Strategy};
use tcache_workload::graph::GraphKind;

/// The α values swept by Figure 3 (1/32 … 4).
pub const FIG3_ALPHAS: [f64; 8] = [
    1.0 / 32.0,
    1.0 / 16.0,
    1.0 / 8.0,
    1.0 / 4.0,
    1.0 / 2.0,
    1.0,
    2.0,
    4.0,
];

/// One row of Figure 3: detection ratio as a function of the Pareto α.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig3Row {
    /// The Pareto shape parameter of the workload.
    pub alpha: f64,
    /// Percentage of potential inconsistencies detected by T-Cache.
    pub detected_pct: f64,
    /// Percentage of committed transactions that were inconsistent.
    pub inconsistency_pct: f64,
    /// Percentage of read-only transactions aborted.
    pub aborted_pct: f64,
}

/// Figure 3: inconsistency detection ratio as a function of workload
/// clustering (Pareto α), with dependency lists bounded at 5 and the ABORT
/// strategy.
pub fn fig3(duration: SimDuration, seed: u64) -> Vec<Fig3Row> {
    FIG3_ALPHAS
        .iter()
        .map(|&alpha| {
            let result = ExperimentConfig {
                duration,
                workload: WorkloadKind::ParetoClusters {
                    objects: 2000,
                    cluster_size: 5,
                    alpha,
                },
                cache: CacheKind::TCache {
                    dependency_bound: 5,
                    strategy: Strategy::Abort,
                },
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            Fig3Row {
                alpha,
                detected_pct: result.detection_ratio() * 100.0,
                inconsistency_pct: result.inconsistency_ratio() * 100.0,
                aborted_pct: result.abort_ratio() * 100.0,
            }
        })
        .collect()
}

/// One point of the Figure 4 convergence series: transaction rates by class.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig4Point {
    /// Bin start time in seconds.
    pub time_secs: f64,
    /// Consistent committed transactions per second.
    pub consistent_rate: f64,
    /// Inconsistent committed transactions per second.
    pub inconsistent_rate: f64,
    /// Aborted transactions per second.
    pub aborted_rate: f64,
}

/// Figure 4: convergence after cluster formation. Accesses are uniformly
/// random until `switch_at` and perfectly clustered afterwards; the series
/// shows the per-second rates of consistent, inconsistent and aborted
/// transactions over time.
pub fn fig4(total: SimDuration, switch_at: SimTime, seed: u64) -> Vec<Fig4Point> {
    let result = ExperimentConfig {
        duration: total,
        workload: WorkloadKind::PhaseShift {
            objects: 1000,
            cluster_size: 5,
            switch_at,
        },
        cache: CacheKind::TCache {
            dependency_bound: 5,
            strategy: Strategy::Abort,
        },
        update_rate: 100.0,
        read_rate: 500.0,
        timeseries_bin: SimDuration::from_secs(2),
        seed,
        ..ExperimentConfig::default()
    }
    .run();
    result
        .timeseries
        .rates_per_second()
        .into_iter()
        .map(|(t, c, i, a)| Fig4Point {
            time_secs: t,
            consistent_rate: c,
            inconsistent_rate: i,
            aborted_rate: a,
        })
        .collect()
}

/// One point of the Figure 5 drifting-cluster series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig5Point {
    /// Bin start time in seconds.
    pub time_secs: f64,
    /// Percentage of committed transactions in the bin that were
    /// inconsistent.
    pub inconsistency_pct: f64,
}

/// Figure 5: perfectly clustered workload whose clusters shift by one object
/// every `shift_every`; the inconsistency ratio spikes at each shift and
/// converges back as the dependency lists adapt.
pub fn fig5(total: SimDuration, shift_every: SimDuration, seed: u64) -> Vec<Fig5Point> {
    let result = ExperimentConfig {
        duration: total,
        workload: WorkloadKind::Drifting {
            objects: 2000,
            cluster_size: 5,
            shift_every,
        },
        cache: CacheKind::TCache {
            dependency_bound: 5,
            strategy: Strategy::Abort,
        },
        timeseries_bin: SimDuration::from_secs(5),
        seed,
        ..ExperimentConfig::default()
    }
    .run();
    result
        .timeseries
        .iter()
        .map(|(t, bin)| Fig5Point {
            time_secs: t.as_secs_f64(),
            inconsistency_pct: bin.inconsistency_ratio() * 100.0,
        })
        .collect()
}

/// One bar of the strategy-comparison figures (6 and 8): the breakdown of
/// read-only transactions by outcome.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StrategyBreakdown {
    /// The workload the bar belongs to (`None` for the synthetic workload of
    /// Figure 6).
    pub workload: Option<GraphKind>,
    /// The inconsistency-handling strategy.
    pub strategy: Strategy,
    /// Percentage of transactions that committed consistently.
    pub consistent_pct: f64,
    /// Percentage of transactions that committed having observed
    /// inconsistent data.
    pub inconsistent_pct: f64,
    /// Percentage of transactions aborted.
    pub aborted_pct: f64,
}

fn breakdown(
    workload: Option<GraphKind>,
    strategy: Strategy,
    result: &ExperimentResult,
) -> StrategyBreakdown {
    let total = result.report.read_only_total().max(1) as f64;
    StrategyBreakdown {
        workload,
        strategy,
        consistent_pct: result.report.committed_consistent as f64 / total * 100.0,
        inconsistent_pct: result.report.committed_inconsistent as f64 / total * 100.0,
        aborted_pct: result.report.aborted_total() as f64 / total * 100.0,
    }
}

/// Figure 6: the efficacy of ABORT / EVICT / RETRY on the approximately
/// clustered synthetic workload (2000 objects, α = 1.0, dependency bound 5).
pub fn fig6(duration: SimDuration, seed: u64) -> Vec<StrategyBreakdown> {
    Strategy::ALL
        .iter()
        .map(|&strategy| {
            let result = ExperimentConfig {
                duration,
                workload: WorkloadKind::ParetoClusters {
                    objects: 2000,
                    cluster_size: 5,
                    alpha: 1.0,
                },
                cache: CacheKind::TCache {
                    dependency_bound: 5,
                    strategy,
                },
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            breakdown(None, strategy, &result)
        })
        .collect()
}

/// One row of Figure 7c / 7d: inconsistency ratio, hit ratio and database
/// load for one cache configuration on one realistic workload.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RealisticRow {
    /// Which topology the workload stands in for.
    pub workload: GraphKind,
    /// Dependency-list bound (Figure 7c) — `None` for TTL rows.
    pub dependency_bound: Option<usize>,
    /// Cache-entry TTL in seconds (Figure 7d) — `None` for T-Cache rows.
    pub ttl_secs: Option<u64>,
    /// Percentage of committed transactions that were inconsistent.
    pub inconsistency_pct: f64,
    /// Cache hit ratio.
    pub hit_ratio: f64,
    /// Reads per second the cache issued to the database.
    pub db_reads_per_sec: f64,
}

/// Figure 7c: T-Cache on the two realistic workloads as a function of the
/// dependency-list bound (0 through 5).
pub fn fig7c(duration: SimDuration, seed: u64) -> Vec<RealisticRow> {
    let mut rows = Vec::new();
    for kind in [GraphKind::RetailAffinity, GraphKind::SocialNetwork] {
        for bound in 0..=5usize {
            let result = ExperimentConfig {
                duration,
                workload: graph_workload(kind),
                cache: CacheKind::TCache {
                    dependency_bound: bound,
                    strategy: Strategy::Abort,
                },
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            rows.push(RealisticRow {
                workload: kind,
                dependency_bound: Some(bound),
                ttl_secs: None,
                inconsistency_pct: result.inconsistency_ratio() * 100.0,
                hit_ratio: result.hit_ratio(),
                db_reads_per_sec: result.db_reads_per_second(),
            });
        }
    }
    rows
}

/// The TTL values (in seconds) swept by Figure 7d, from effectively-infinite
/// down to aggressive expiry.
pub const FIG7D_TTLS: [u64; 9] = [6400, 3200, 1600, 800, 400, 200, 100, 50, 30];

/// Figure 7d: the TTL-limited baseline on the two realistic workloads as a
/// function of the entry TTL. `ttls` are the TTL values (seconds) to sweep;
/// pass [`FIG7D_TTLS`] for the paper's range or a scaled-down range for
/// short runs.
pub fn fig7d(duration: SimDuration, seed: u64, ttls: &[u64]) -> Vec<RealisticRow> {
    let mut rows = Vec::new();
    for kind in [GraphKind::RetailAffinity, GraphKind::SocialNetwork] {
        for &ttl in ttls {
            let result = ExperimentConfig {
                duration,
                workload: graph_workload(kind),
                cache: CacheKind::Ttl {
                    ttl: SimDuration::from_secs(ttl),
                },
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            rows.push(RealisticRow {
                workload: kind,
                dependency_bound: None,
                ttl_secs: Some(ttl),
                inconsistency_pct: result.inconsistency_ratio() * 100.0,
                hit_ratio: result.hit_ratio(),
                db_reads_per_sec: result.db_reads_per_second(),
            });
        }
    }
    rows
}

/// Figure 8: ABORT / EVICT / RETRY on the realistic workloads with
/// dependency lists bounded at 3.
pub fn fig8(duration: SimDuration, seed: u64) -> Vec<StrategyBreakdown> {
    let mut rows = Vec::new();
    for kind in [GraphKind::RetailAffinity, GraphKind::SocialNetwork] {
        for &strategy in &Strategy::ALL {
            let result = ExperimentConfig {
                duration,
                workload: graph_workload(kind),
                cache: CacheKind::TCache {
                    dependency_bound: 3,
                    strategy,
                },
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            rows.push(breakdown(Some(kind), strategy, &result));
        }
    }
    rows
}

/// One row of the headline comparison (abstract / §V-B): T-Cache with
/// dependency bound 3 versus the consistency-unaware cache.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct HeadlineRow {
    /// Which topology the workload stands in for.
    pub workload: GraphKind,
    /// Inconsistency ratio of the consistency-unaware cache (percent).
    pub baseline_inconsistency_pct: f64,
    /// Inconsistency ratio of T-Cache (percent).
    pub tcache_inconsistency_pct: f64,
    /// Percentage of the baseline's inconsistencies that T-Cache removed
    /// (detected and either aborted or repaired by read-throughs).
    pub detected_pct: f64,
    /// Relative increase of the consistent-commit rate over the baseline
    /// (percent).
    pub consistent_rate_increase_pct: f64,
}

/// The headline claim: with dependency lists of size 3 T-Cache detects
/// 43–70 % of inconsistencies and increases the consistent-transaction rate
/// by 33–58 %.
pub fn headline(duration: SimDuration, seed: u64) -> Vec<HeadlineRow> {
    [GraphKind::RetailAffinity, GraphKind::SocialNetwork]
        .into_iter()
        .map(|kind| {
            let baseline = ExperimentConfig {
                duration,
                workload: graph_workload(kind),
                cache: CacheKind::Plain,
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            let tcache = ExperimentConfig {
                duration,
                workload: graph_workload(kind),
                cache: CacheKind::TCache {
                    dependency_bound: 3,
                    strategy: Strategy::Retry,
                },
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            let baseline_consistent = baseline.consistent_commit_ratio().max(1e-9);
            let baseline_incons = baseline.inconsistency_ratio();
            let removed = if baseline_incons > 0.0 {
                (1.0 - tcache.inconsistency_ratio() / baseline_incons) * 100.0
            } else {
                0.0
            };
            HeadlineRow {
                workload: kind,
                baseline_inconsistency_pct: baseline_incons * 100.0,
                tcache_inconsistency_pct: tcache.inconsistency_ratio() * 100.0,
                detected_pct: removed,
                consistent_rate_increase_pct: (tcache.consistent_commit_ratio()
                    / baseline_consistent
                    - 1.0)
                    * 100.0,
            }
        })
        .collect()
}

/// One row of the invalidation-loss sweep (an extension beyond the paper:
/// how sensitive is T-Cache to the channel loss rate?).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DropSweepRow {
    /// Fraction of invalidations dropped.
    pub loss: f64,
    /// Inconsistency ratio of the plain cache (percent).
    pub plain_inconsistency_pct: f64,
    /// Inconsistency ratio of T-Cache (percent).
    pub tcache_inconsistency_pct: f64,
}

/// Extension experiment: sweep the invalidation loss rate and compare the
/// plain cache with T-Cache (dependency bound 3, RETRY).
pub fn drop_sweep(duration: SimDuration, seed: u64, losses: &[f64]) -> Vec<DropSweepRow> {
    losses
        .iter()
        .map(|&loss| {
            let base = ExperimentConfig {
                duration,
                workload: graph_workload(GraphKind::RetailAffinity),
                cache: CacheKind::Plain,
                invalidation_loss: loss,
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            let tcache = ExperimentConfig {
                duration,
                workload: graph_workload(GraphKind::RetailAffinity),
                cache: CacheKind::TCache {
                    dependency_bound: 3,
                    strategy: Strategy::Retry,
                },
                invalidation_loss: loss,
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            DropSweepRow {
                loss,
                plain_inconsistency_pct: base.inconsistency_ratio() * 100.0,
                tcache_inconsistency_pct: tcache.inconsistency_ratio() * 100.0,
            }
        })
        .collect()
}

/// The heterogeneous per-cache loss rates of the default multi-cache
/// experiment: four edge caches whose invalidation links range from
/// reliable to badly lossy.
pub const MULTI_CACHE_LOSSES: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

/// One row of the multi-cache experiment: one edge cache's outcome under
/// its own invalidation-loss rate, for the plain cache and for T-Cache.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MultiCacheRow {
    /// The cache server (rows are per cache, not per workload).
    pub cache: u32,
    /// Configured loss rate of this cache's invalidation channel.
    pub loss: f64,
    /// Inconsistency ratio of the consistency-unaware cache (percent).
    pub plain_inconsistency_pct: f64,
    /// Inconsistency ratio of T-Cache (percent).
    pub tcache_inconsistency_pct: f64,
    /// Percentage of T-Cache's read-only transactions aborted.
    pub tcache_aborted_pct: f64,
    /// T-Cache's hit ratio on this cache.
    pub tcache_hit_ratio: f64,
}

/// Aggregate view of one multi-cache comparison run.
#[derive(Debug, Clone, Serialize)]
pub struct MultiCacheFigure {
    /// Per-cache rows, ordered by `CacheId`.
    pub rows: Vec<MultiCacheRow>,
    /// The plain deployment's inconsistency ratio over all caches (percent).
    pub plain_aggregate_inconsistency_pct: f64,
    /// The T-Cache deployment's inconsistency ratio over all caches
    /// (percent).
    pub tcache_aggregate_inconsistency_pct: f64,
}

/// The multi-cache experiment: N edge caches over one database, each with an
/// independently seeded invalidation channel at its own loss rate (pass
/// [`MULTI_CACHE_LOSSES`] for the default four-cache setup). Reproduces the
/// inconsistency-vs-loss trend *per cache within a single deployment* and
/// compares the plain cache against T-Cache (dependency bound 5, ABORT).
pub fn multi_cache(duration: SimDuration, seed: u64, losses: &[f64]) -> MultiCacheFigure {
    let base = ExperimentConfig {
        duration,
        workload: WorkloadKind::PerfectClusters {
            objects: 1000,
            cluster_size: 5,
        },
        caches: CacheTopology::PerCacheLoss(losses.to_vec()),
        seed,
        ..ExperimentConfig::default()
    };
    let plain = ExperimentConfig {
        cache: CacheKind::Plain,
        ..base.clone()
    }
    .run();
    let tcache = ExperimentConfig {
        cache: CacheKind::TCache {
            dependency_bound: 5,
            strategy: Strategy::Abort,
        },
        ..base
    }
    .run();
    let rows = plain
        .per_cache
        .iter()
        .zip(&tcache.per_cache)
        .map(|(p, t)| {
            debug_assert_eq!(p.id, t.id);
            MultiCacheRow {
                cache: p.id.0,
                loss: p.loss,
                plain_inconsistency_pct: p.inconsistency_ratio() * 100.0,
                tcache_inconsistency_pct: t.inconsistency_ratio() * 100.0,
                tcache_aborted_pct: t.abort_ratio() * 100.0,
                tcache_hit_ratio: t.hit_ratio(),
            }
        })
        .collect();
    MultiCacheFigure {
        rows,
        plain_aggregate_inconsistency_pct: plain.inconsistency_ratio() * 100.0,
        tcache_aggregate_inconsistency_pct: tcache.inconsistency_ratio() * 100.0,
    }
}

fn graph_workload(kind: GraphKind) -> WorkloadKind {
    WorkloadKind::Graph {
        kind,
        source_nodes: 4000,
        sampled_nodes: 1000,
    }
}

/// The heterogeneous per-cache loss rates of the default live-plane
/// experiment (the same ladder the multi-cache figure sweeps).
pub const LIVE_PLANE_LOSSES: [f64; 4] = MULTI_CACHE_LOSSES;

/// One cache of the live-plane experiment: its inconsistency under its own
/// loss rate, measured on the live reactor stack and on the discrete-event
/// simulator — the cross-plane comparison row.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LivePlaneRow {
    /// The cache server.
    pub cache: u32,
    /// Configured loss rate of this cache's invalidation link.
    pub loss: f64,
    /// Plain-cache inconsistency on the live plane (percent).
    pub live_plain_inconsistency_pct: f64,
    /// Plain-cache inconsistency on the discrete-event plane (percent).
    pub sim_plain_inconsistency_pct: f64,
    /// T-Cache inconsistency on the live plane (percent).
    pub live_tcache_inconsistency_pct: f64,
    /// Invalidations this cache's live delivery task dropped.
    pub live_dropped: u64,
    /// Invalidations the discrete-event channel dropped.
    pub sim_dropped: u64,
}

/// Aggregate view of one live-plane experiment.
#[derive(Debug, Clone, Serialize)]
pub struct LivePlaneFigure {
    /// Per-cache cross-plane rows, ordered by `CacheId`.
    pub rows: Vec<LivePlaneRow>,
    /// Plain-cache inconsistency over all caches on the live plane
    /// (percent).
    pub live_aggregate_plain_pct: f64,
    /// Plain-cache inconsistency over all caches on the discrete-event
    /// plane (percent).
    pub sim_aggregate_plain_pct: f64,
    /// Read-only transactions per *wall-clock* second sustained by a
    /// free-running concurrent live run of the same configuration (driver,
    /// N client threads and the reactor all running flat out).
    pub live_read_txns_per_wall_sec: f64,
}

/// The live-plane experiment (ISSUE 5): the multi-cache
/// inconsistency-vs-loss trend reproduced on the *live* reactor stack — a
/// real `TCacheSystem`, reactor transport, loss applied by the per-cache
/// delivery tasks — next to the discrete-event plane's numbers for the
/// same configuration and seed. At zero delivery delay the lockstep live
/// rows must match the simulated ones exactly (same seeded loss streams,
/// same schedule); the figure is the repo's "one system measured two
/// ways" validation. A final free-running concurrent run measures the
/// wall-clock read throughput of the live stack.
pub fn live_plane(duration: SimDuration, seed: u64, losses: &[f64]) -> LivePlaneFigure {
    let base = ExperimentConfig {
        duration,
        workload: WorkloadKind::PerfectClusters {
            objects: 1000,
            cluster_size: 5,
        },
        cache: CacheKind::Plain,
        caches: CacheTopology::PerCacheLoss(losses.to_vec()),
        invalidation_delay: SimDuration::ZERO,
        seed,
        ..ExperimentConfig::default()
    };
    let live_plain = base
        .clone()
        .on_plane(ExecutionPlane::Live(LiveOptions::lockstep()))
        .run();
    let sim_plain = base.clone().on_plane(ExecutionPlane::DiscreteEvent).run();
    let live_tcache = ExperimentConfig {
        cache: CacheKind::TCache {
            dependency_bound: 5,
            strategy: Strategy::Abort,
        },
        ..base.clone()
    }
    .on_plane(ExecutionPlane::Live(LiveOptions::lockstep()))
    .run();

    let rows = live_plain
        .per_cache
        .iter()
        .zip(&sim_plain.per_cache)
        .zip(&live_tcache.per_cache)
        .map(|((live, sim), tcache)| {
            debug_assert_eq!(live.id, sim.id);
            LivePlaneRow {
                cache: live.id.0,
                loss: live.loss,
                live_plain_inconsistency_pct: live.inconsistency_ratio() * 100.0,
                sim_plain_inconsistency_pct: sim.inconsistency_ratio() * 100.0,
                live_tcache_inconsistency_pct: tcache.inconsistency_ratio() * 100.0,
                live_dropped: live.channel.dropped,
                sim_dropped: sim.channel.dropped,
            }
        })
        .collect();

    // Wall-clock throughput of the live stack under real concurrency: the
    // same configuration, free-running. The result's execution window
    // covers only the threads actually driving the system (schedule
    // construction and monitor replay excluded), so the trajectory rows
    // track the stack rather than the harness.
    let concurrent = base
        .on_plane(ExecutionPlane::Live(LiveOptions::concurrent()))
        .run();
    LivePlaneFigure {
        rows,
        live_aggregate_plain_pct: live_plain.inconsistency_ratio() * 100.0,
        sim_aggregate_plain_pct: sim_plain.inconsistency_ratio() * 100.0,
        live_read_txns_per_wall_sec: concurrent
            .read_txns_per_wall_sec()
            .expect("live runs report an execution window"),
    }
}

/// The pipe capacities swept by the backpressure experiment, small enough
/// that the default slow-cache setup (200 ms delivery delay at ~500
/// invalidations/s, so ~100 messages in flight) overflows the tight ones.
pub const BACKPRESSURE_CAPACITIES: [usize; 4] = [4, 16, 64, 256];

/// The overflow policies compared by the backpressure experiment.
pub const BACKPRESSURE_POLICIES: [OverflowPolicy; 3] = [
    OverflowPolicy::DropOldest,
    OverflowPolicy::DropNewest,
    OverflowPolicy::Block,
];

/// One row of the backpressure experiment: one overflow policy at one pipe
/// capacity (`None` = the unbounded reference pipe).
#[derive(Debug, Clone, Serialize)]
pub struct BackpressureRow {
    /// In-flight pipe capacity (`None` for the unbounded baseline).
    pub capacity: Option<usize>,
    /// The overflow policy (`"block"`, `"drop-newest"`, `"drop-oldest"`).
    pub policy: String,
    /// Percentage of committed transactions that observed inconsistent
    /// data.
    pub inconsistency_pct: f64,
    /// Invalidations lost to pipe overflow.
    pub overflowed: u64,
    /// Sends that stalled behind a full `Block` pipe.
    pub stalled: u64,
    /// Invalidations delivered to the cache.
    pub delivered: u64,
}

/// The slow-cache backpressure experiment (an extension beyond the paper):
/// a single plain cache behind a congested invalidation pipe — 200 ms
/// delivery delay, no loss, so roughly a hundred messages are in flight at
/// the paper's update rate — swept over pipe capacities per overflow
/// policy. Undersized pipes shed or delay invalidations, and the
/// inconsistency the cache serves rises as the capacity shrinks; `Block`
/// never loses a message but stalls the publisher instead, which is the
/// backpressure trade-off the live reactor plane exposes.
pub fn backpressure(
    duration: SimDuration,
    seed: u64,
    capacities: &[usize],
    policies: &[OverflowPolicy],
) -> Vec<BackpressureRow> {
    let base = ExperimentConfig {
        duration,
        workload: WorkloadKind::PerfectClusters {
            objects: 1000,
            cluster_size: 5,
        },
        cache: CacheKind::Plain,
        caches: CacheTopology::Single,
        invalidation_loss: 0.0,
        invalidation_delay: SimDuration::from_millis(200),
        seed,
        ..ExperimentConfig::default()
    };
    let row = |capacity: Option<usize>, policy: OverflowPolicy| -> BackpressureRow {
        let result = ExperimentConfig {
            pipe_capacity: capacity,
            overflow_policy: policy,
            ..base.clone()
        }
        .run();
        BackpressureRow {
            capacity,
            policy: policy.to_string(),
            inconsistency_pct: result.inconsistency_ratio() * 100.0,
            overflowed: result.channel.overflowed,
            stalled: result.channel.stalled,
            delivered: result.channel.delivered,
        }
    };
    // An unbounded pipe never engages any policy, so the baseline is
    // simulated once and replicated as each policy's reference row.
    let baseline = row(None, OverflowPolicy::Block);
    let mut rows = Vec::new();
    for &policy in policies {
        rows.push(BackpressureRow {
            policy: policy.to_string(),
            ..baseline.clone()
        });
        for &capacity in capacities {
            rows.push(row(Some(capacity), policy));
        }
    }
    rows
}

/// One row of the fault-tolerance experiment: one partition length under
/// one recovery policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FaultToleranceRow {
    /// Length of the injected partition, in milliseconds.
    pub partition_ms: u64,
    /// The recovery policy (`"none"` or `"gap-resync(...)"`).
    pub recovery: String,
    /// Inconsistent commits the faulted cache served over the whole run.
    pub inconsistent: u64,
    /// Inconsistent commits in time bins starting at or after the heal —
    /// the figure's headline: bounded with gap-triggered resync, lingering
    /// without.
    pub post_heal_inconsistent: u64,
    /// Read-only transactions the faulted cache served in pass-through
    /// (degraded) mode.
    pub degraded_txns: u64,
    /// Inconsistent commits among the degraded-window transactions (must
    /// stay zero: pass-through reads come straight from the database).
    pub degraded_inconsistent: u64,
    /// Sequence-number gaps the faulted cache detected.
    pub gaps_detected: u64,
    /// Invalidations the gaps skipped over.
    pub invalidations_missed: u64,
    /// Recoveries served by replaying the database's invalidation log.
    pub log_replays: u64,
    /// Recoveries that dropped the store because the log was truncated.
    pub snapshot_resyncs: u64,
}

/// The fault-tolerance experiment (an extension beyond the paper): a plain
/// cache on a *reliable* zero-delay link is partitioned from the backend
/// for a window of each configured length, next to an unfaulted control
/// cache, under both recovery policies. Without recovery the cache returns
/// from the partition with a silently stale store and keeps committing
/// inconsistent transactions after the heal; with sequence-numbered streams
/// and gap-triggered resync it replays the database's invalidation log on
/// reconnect (or falls back to a snapshot resync once the log has been
/// truncated) and post-heal inconsistency returns to the healthy baseline.
/// Partitions longer than the configured staleness budget degrade the
/// cache to pass-through reads, which are served by the backend and never
/// classified inconsistent.
///
/// The partition always starts at t = 1 s; callers must keep
/// `1 s + partition_ms` inside `duration` so a post-heal window exists.
pub fn fault_tolerance(
    duration: SimDuration,
    seed: u64,
    partitions_ms: &[u64],
    staleness_budget: SimDuration,
) -> Vec<FaultToleranceRow> {
    let policies = [
        RecoveryPolicy::None,
        RecoveryPolicy::GapResync { staleness_budget },
    ];
    let mut rows = Vec::new();
    for &partition_ms in partitions_ms {
        let from = SimTime::from_secs(1);
        let to = from + SimDuration::from_millis(partition_ms);
        for policy in policies {
            let result = ExperimentConfig {
                duration,
                workload: WorkloadKind::PerfectClusters {
                    objects: 1000,
                    cluster_size: 5,
                },
                cache: CacheKind::Plain,
                caches: CacheTopology::PerCacheLoss(vec![0.0, 0.0]),
                invalidation_loss: 0.0,
                invalidation_delay: SimDuration::ZERO,
                faults: FaultPlan::new().partition(CacheId(0), from, to),
                recovery: policy,
                timeseries_bin: SimDuration::from_millis(500),
                seed,
                ..ExperimentConfig::default()
            }
            .run();
            let faulted = &result.per_cache[0];
            // Faults fire before the first transaction at or after their
            // instant, so every read in a bin starting at or after the
            // heal executed post-heal. (The control cache only ever adds
            // consistent commits to these bins.)
            let post_heal_inconsistent = result
                .timeseries
                .iter()
                .filter(|&(t, _)| t >= to)
                .map(|(_, bin)| bin.inconsistent)
                .sum();
            rows.push(FaultToleranceRow {
                partition_ms,
                recovery: policy.to_string(),
                inconsistent: faulted.report.committed_inconsistent,
                post_heal_inconsistent,
                degraded_txns: faulted.lifecycle.pass_through_txns,
                degraded_inconsistent: faulted.degraded.committed_inconsistent,
                gaps_detected: faulted.lifecycle.gaps_detected,
                invalidations_missed: faulted.lifecycle.invalidations_missed,
                log_replays: faulted.lifecycle.log_replays,
                snapshot_resyncs: faulted.lifecycle.snapshot_resyncs,
            });
        }
    }
    rows
}

/// Number of caches the scenario experiments deploy.
pub const SCENARIO_CACHES: usize = 4;

/// One scenario's aggregate row: traffic, verdicts and modeled tail
/// latency over the whole deployment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioRow {
    /// The scenario's catalog name.
    pub scenario: String,
    /// Read-only transactions executed.
    pub reads: u64,
    /// Update transactions executed (committed + aborted).
    pub updates: u64,
    /// Committed read-only transactions that observed inconsistent data
    /// (percent).
    pub inconsistency_pct: f64,
    /// Read-only transactions aborted by the cache strategy (percent).
    pub abort_pct: f64,
    /// Reads served while a cache was degraded to pass-through (percent).
    pub degraded_pct: f64,
    /// Median modeled client latency (µs).
    pub p50_us: u64,
    /// 99th-percentile modeled client latency (µs).
    pub p99_us: u64,
    /// 99.9th-percentile modeled client latency (µs).
    pub p999_us: u64,
    /// Invalidations dropped by the delivery tasks.
    pub dropped: u64,
}

/// One cache of one scenario: its share of the traffic, its verdicts and
/// its own latency tail.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioCacheRow {
    /// The scenario's catalog name.
    pub scenario: String,
    /// The cache server.
    pub cache: u32,
    /// Read-only transactions this cache served.
    pub reads: u64,
    /// Inconsistency among this cache's committed reads (percent).
    pub inconsistency_pct: f64,
    /// Median modeled client latency at this cache (µs).
    pub p50_us: u64,
    /// 99th-percentile modeled client latency at this cache (µs).
    pub p99_us: u64,
    /// 99.9th-percentile modeled client latency at this cache (µs).
    pub p999_us: u64,
}

/// The scenario-engine experiment: the five-scenario catalog measured on
/// the live lockstep plane, plus the two-tier topology comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioFigure {
    /// One aggregate row per catalog scenario, in catalog order.
    pub rows: Vec<ScenarioRow>,
    /// Per-cache rows, grouped by scenario in catalog order.
    pub per_cache: Vec<ScenarioCacheRow>,
    /// Caches the database publishes to directly under the star topology.
    pub star_fanout: usize,
    /// Caches the database publishes to directly under the two-tier
    /// topology (its regional roots) — strictly lower than
    /// [`ScenarioFigure::star_fanout`] at equal deployment size.
    pub two_tier_fanout: usize,
    /// Aggregate inconsistency of the star-topology comparison run
    /// (percent).
    pub star_inconsistency_pct: f64,
    /// Aggregate inconsistency of the two-tier comparison run (percent).
    pub two_tier_inconsistency_pct: f64,
    /// Whether the two-tier run reproduced the star run's per-cache
    /// verdicts and drop counts exactly. With lossless regional parents
    /// each leaf sees the same invalidation sequence through its parent as
    /// it would directly, so the same seeded loss stream yields the same
    /// drops and verdicts — tree fan-out changes the publisher's work, not
    /// the leaves' consistency.
    pub two_tier_matches_star: bool,
}

/// The open-loop scenario engine (tentpole of the `scenarios` figure):
/// runs the five-scenario [`tcache_workload::catalog`] — hot-key storm,
/// flash crowd, diurnal curve, invalidation stampede, cache churn — on the
/// live lockstep plane over [`SCENARIO_CACHES`] caches, recording verdicts
/// and the deterministic modeled-latency histograms per cache and per
/// scenario. A second pair of runs compares the star invalidation topology
/// against a two-tier tree (two lossless regional parents relaying to four
/// leaves): the tree must cut the database's publisher fan-out while
/// leaving every leaf's verdicts untouched.
///
/// Everything here is deterministic: the same `(duration, seed)` returns
/// a bit-identical [`ScenarioFigure`], histogram quantiles included.
pub fn scenarios(duration: SimDuration, seed: u64) -> ScenarioFigure {
    use tcache_workload::LatencyHistogram;
    let specs = tcache_workload::catalog(duration, SCENARIO_CACHES as u32);
    let mut rows = Vec::with_capacity(specs.len());
    let mut per_cache = Vec::new();
    for spec in &specs {
        let result = ExperimentConfig {
            duration,
            caches: CacheTopology::Uniform(SCENARIO_CACHES),
            invalidation_delay: SimDuration::ZERO,
            scenario: Some(spec.clone()),
            seed,
            plane: ExecutionPlane::Live(LiveOptions::lockstep()),
            ..ExperimentConfig::default()
        }
        .run();
        let mut aggregate = LatencyHistogram::new();
        for column in &result.per_cache {
            aggregate.merge(&column.latency);
            per_cache.push(ScenarioCacheRow {
                scenario: spec.name().to_string(),
                cache: column.id.0,
                reads: column.report.read_only_total(),
                inconsistency_pct: column.inconsistency_ratio() * 100.0,
                p50_us: column.latency.p50().unwrap_or(0),
                p99_us: column.latency.p99().unwrap_or(0),
                p999_us: column.latency.p999().unwrap_or(0),
            });
        }
        let degraded: u64 = result
            .per_cache
            .iter()
            .map(|c| c.degraded.read_only_total())
            .sum();
        let reads = result.report.read_only_total();
        rows.push(ScenarioRow {
            scenario: spec.name().to_string(),
            reads,
            updates: result.report.updates_committed + result.report.updates_aborted,
            inconsistency_pct: result.inconsistency_ratio() * 100.0,
            abort_pct: result.abort_ratio() * 100.0,
            degraded_pct: if reads == 0 {
                0.0
            } else {
                degraded as f64 / reads as f64 * 100.0
            },
            p50_us: aggregate.p50().unwrap_or(0),
            p99_us: aggregate.p99().unwrap_or(0),
            p999_us: aggregate.p999().unwrap_or(0),
            dropped: result.channel.dropped,
        });
    }

    // Topology comparison: the storm scenario on six caches, star vs
    // two-tier. The parents (caches 0 and 1) keep lossless links so each
    // leaf's channel sees the identical message sequence either way;
    // only the leaves (2..6) drop, from their own seeded streams.
    let topology_losses = vec![0.0, 0.0, 0.2, 0.2, 0.2, 0.2];
    let base = ExperimentConfig {
        duration,
        caches: CacheTopology::PerCacheLoss(topology_losses),
        invalidation_delay: SimDuration::ZERO,
        scenario: Some(specs[0].clone()),
        seed,
        plane: ExecutionPlane::Live(LiveOptions::lockstep()),
        ..ExperimentConfig::default()
    };
    let star = base.clone().run();
    let parents = tcache::two_tier_parents(2, 2);
    let two_tier = ExperimentConfig {
        cache_parents: Some(parents.clone()),
        ..base
    }
    .run();
    let two_tier_matches_star = star
        .per_cache
        .iter()
        .zip(&two_tier.per_cache)
        .all(|(a, b)| a.report == b.report && a.channel.dropped == b.channel.dropped);

    ScenarioFigure {
        rows,
        per_cache,
        star_fanout: parents.len(),
        two_tier_fanout: parents.iter().filter(|p| p.is_none()).count(),
        star_inconsistency_pct: star.inconsistency_ratio() * 100.0,
        two_tier_inconsistency_pct: two_tier.inconsistency_ratio() * 100.0,
        two_tier_matches_star,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: SimDuration = SimDuration(3_000_000); // 3 s

    #[test]
    fn fault_tolerance_recovery_bounds_post_heal_inconsistency() {
        // 500 ms partition: the missed window fits the database's
        // invalidation log, so recovery replays it. 4 s partition: at
        // ~500 invalidations/s the log (capacity 1024) has been truncated
        // by heal time, forcing a snapshot resync.
        let rows = fault_tolerance(
            SimDuration::from_secs(8),
            7,
            &[500, 4000],
            SimDuration::from_millis(100),
        );
        assert_eq!(rows.len(), 4);
        let row = |ms: u64, resync: bool| {
            rows.iter()
                .find(|r| r.partition_ms == ms && (r.recovery != "no-recovery") == resync)
                .unwrap()
        };
        // Without recovery the cache comes back silently stale: post-heal
        // inconsistency lingers, and it grows with the partition length.
        let none_short = row(500, false);
        let none_long = row(4000, false);
        assert!(
            none_short.post_heal_inconsistent > 0,
            "without recovery the healed cache must keep serving stale data: {none_short:?}"
        );
        assert!(
            none_long.inconsistent > none_short.inconsistent,
            "inconsistency must grow with the partition length ({} vs {})",
            none_long.inconsistent,
            none_short.inconsistent
        );
        // The gap is *detected* (sequence numbers make it visible) but not
        // repaired under the no-recovery policy.
        assert!(none_short.gaps_detected > 0);
        assert!(none_short.invalidations_missed > 0);
        assert_eq!(none_short.log_replays, 0);
        assert_eq!(none_short.snapshot_resyncs, 0);
        assert_eq!(none_short.degraded_txns, 0, "no budget, never degrades");

        // With gap-triggered resync, post-heal inconsistency returns to
        // the healthy (zero-loss, zero-delay) baseline: zero.
        let resync_short = row(500, true);
        let resync_long = row(4000, true);
        for r in [resync_short, resync_long] {
            assert_eq!(
                r.post_heal_inconsistent, 0,
                "resync must restore the healthy baseline after the heal: {r:?}"
            );
            assert!(
                r.degraded_txns > 0,
                "a partition far past the 100 ms budget must degrade reads: {r:?}"
            );
            assert_eq!(
                r.degraded_inconsistent, 0,
                "degraded-window reads come from the backend and are never violations: {r:?}"
            );
        }
        // Short partition: the log still holds the missed window — replay.
        assert!(resync_short.log_replays >= 1, "{resync_short:?}");
        assert_eq!(resync_short.snapshot_resyncs, 0, "{resync_short:?}");
        // Long partition: the log was truncated — snapshot resync.
        assert!(resync_long.snapshot_resyncs >= 1, "{resync_long:?}");

        // The whole sweep is a pure function of the seed.
        let again = fault_tolerance(
            SimDuration::from_secs(8),
            7,
            &[500, 4000],
            SimDuration::from_millis(100),
        );
        assert_eq!(rows, again);
    }

    #[test]
    fn fig3_detection_improves_with_clustering() {
        // The α sweep uses the paper's 2000-object space, so it needs a
        // slightly longer run than the other quick tests before enough
        // stale entries accumulate to measure detection.
        let rows = fig3(SimDuration::from_secs(10), 7);
        assert_eq!(rows.len(), FIG3_ALPHAS.len());
        let lowest = rows.first().unwrap();
        let highest = rows.last().unwrap();
        assert!(
            highest.detected_pct > lowest.detected_pct + 20.0,
            "detection at α=4 ({:.1}%) must clearly exceed detection at α=1/32 ({:.1}%)",
            highest.detected_pct,
            lowest.detected_pct
        );
        assert!(highest.detected_pct > 60.0);
    }

    #[test]
    fn fig4_inconsistency_drops_after_clustering_starts() {
        let switch = SimTime::from_secs(6);
        let points = fig4(SimDuration::from_secs(12), switch, 7);
        assert!(points.len() >= 5);
        let before: f64 = points
            .iter()
            .filter(|p| p.time_secs < 6.0)
            .map(|p| p.inconsistent_rate)
            .sum::<f64>();
        let after: f64 = points
            .iter()
            .filter(|p| p.time_secs >= 8.0)
            .map(|p| p.inconsistent_rate)
            .sum::<f64>();
        let aborts_after: f64 = points
            .iter()
            .filter(|p| p.time_secs >= 8.0)
            .map(|p| p.aborted_rate)
            .sum::<f64>();
        assert!(
            after < before,
            "inconsistent commits must drop once accesses become clustered (before {before}, after {after})"
        );
        assert!(aborts_after > 0.0, "aborts appear once detection starts working");
    }

    #[test]
    fn fig6_evict_and_retry_reduce_undetected_inconsistency() {
        let rows = fig6(QUICK, 7);
        assert_eq!(rows.len(), 3);
        let abort = rows.iter().find(|r| r.strategy == Strategy::Abort).unwrap();
        let evict = rows.iter().find(|r| r.strategy == Strategy::Evict).unwrap();
        let retry = rows.iter().find(|r| r.strategy == Strategy::Retry).unwrap();
        assert!(evict.inconsistent_pct <= abort.inconsistent_pct + 1.0);
        assert!(retry.inconsistent_pct <= abort.inconsistent_pct + 1.0);
        // RETRY converts aborts into successful read-throughs.
        assert!(retry.aborted_pct < abort.aborted_pct + evict.aborted_pct);
        for r in &rows {
            let total = r.consistent_pct + r.inconsistent_pct + r.aborted_pct;
            assert!((total - 100.0).abs() < 1.0, "percentages sum to ~100, got {total}");
        }
    }

    #[test]
    fn fig7c_inconsistency_decreases_with_dependency_bound() {
        let rows = fig7c(QUICK, 7);
        assert_eq!(rows.len(), 12);
        for kind in [GraphKind::RetailAffinity, GraphKind::SocialNetwork] {
            let series: Vec<&RealisticRow> =
                rows.iter().filter(|r| r.workload == kind).collect();
            let at0 = series.iter().find(|r| r.dependency_bound == Some(0)).unwrap();
            let at3 = series.iter().find(|r| r.dependency_bound == Some(3)).unwrap();
            assert!(
                at3.inconsistency_pct < at0.inconsistency_pct,
                "{kind}: dependency lists must reduce inconsistency ({} vs {})",
                at3.inconsistency_pct,
                at0.inconsistency_pct
            );
            // Hit ratio is essentially unaffected by T-Cache.
            assert!((at3.hit_ratio - at0.hit_ratio).abs() < 0.1);
        }
    }

    #[test]
    fn fig7d_short_ttls_cost_hit_ratio() {
        let rows = fig7d(QUICK, 7, &[1000, 1]);
        assert_eq!(rows.len(), 4);
        for kind in [GraphKind::RetailAffinity, GraphKind::SocialNetwork] {
            let series: Vec<&RealisticRow> =
                rows.iter().filter(|r| r.workload == kind).collect();
            let long = series.iter().find(|r| r.ttl_secs == Some(1000)).unwrap();
            let short = series.iter().find(|r| r.ttl_secs == Some(1)).unwrap();
            assert!(short.hit_ratio < long.hit_ratio);
            assert!(short.db_reads_per_sec > long.db_reads_per_sec);
        }
    }

    #[test]
    fn fig8_and_headline_have_the_expected_shape() {
        let rows = fig8(QUICK, 7);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.workload.is_some());
            let total = r.consistent_pct + r.inconsistent_pct + r.aborted_pct;
            assert!((total - 100.0).abs() < 1.0);
        }
        let headline_rows = headline(QUICK, 7);
        assert_eq!(headline_rows.len(), 2);
        for h in &headline_rows {
            assert!(
                h.tcache_inconsistency_pct <= h.baseline_inconsistency_pct,
                "T-Cache must not increase inconsistency"
            );
            assert!(h.detected_pct > 0.0);
        }
    }

    #[test]
    fn multi_cache_inconsistency_tracks_per_cache_loss() {
        let figure = multi_cache(SimDuration::from_secs(6), 7, &MULTI_CACHE_LOSSES);
        assert_eq!(figure.rows.len(), 4);
        let reliable = &figure.rows[0];
        let lossiest = figure.rows.last().unwrap();
        assert_eq!(reliable.loss, 0.0);
        assert_eq!(lossiest.loss, 0.4);
        // Within one deployment, the cache behind the lossiest link commits
        // the most inconsistent transactions on the plain cache…
        assert!(
            lossiest.plain_inconsistency_pct > reliable.plain_inconsistency_pct,
            "lossiest {} vs reliable {}",
            lossiest.plain_inconsistency_pct,
            reliable.plain_inconsistency_pct
        );
        // …and T-Cache reduces it on every cache (small-sample tolerance).
        for row in &figure.rows {
            assert!(
                row.tcache_inconsistency_pct <= row.plain_inconsistency_pct + 0.5,
                "cache {}: tcache {} plain {}",
                row.cache,
                row.tcache_inconsistency_pct,
                row.plain_inconsistency_pct
            );
            assert!(row.tcache_hit_ratio > 0.5);
        }
        // T-Cache detects on the lossy caches, so aborts appear there.
        assert!(lossiest.tcache_aborted_pct > 0.0);
        // The aggregate sits between the best and worst cache.
        assert!(
            figure.plain_aggregate_inconsistency_pct >= reliable.plain_inconsistency_pct
                && figure.plain_aggregate_inconsistency_pct <= lossiest.plain_inconsistency_pct
        );
        assert!(
            figure.tcache_aggregate_inconsistency_pct
                <= figure.plain_aggregate_inconsistency_pct
        );
    }

    #[test]
    fn backpressure_inconsistency_grows_as_the_pipe_shrinks() {
        let rows = backpressure(
            SimDuration::from_secs(5),
            7,
            &[4, 256],
            &[OverflowPolicy::DropOldest, OverflowPolicy::Block],
        );
        assert_eq!(rows.len(), 6, "baseline + two capacities per policy");
        let find = |policy: &str, capacity: Option<usize>| {
            rows.iter()
                .find(|r| r.policy == policy && r.capacity == capacity)
                .unwrap()
        };
        let drop_base = find("drop-oldest", None);
        let drop_tight = find("drop-oldest", Some(4));
        // A four-slot pipe behind ~100 in-flight messages sheds most of the
        // stream and the cache turns measurably more inconsistent.
        assert!(drop_tight.overflowed > 0);
        assert_eq!(drop_base.overflowed, 0);
        assert!(
            drop_tight.inconsistency_pct > drop_base.inconsistency_pct,
            "shedding invalidations must raise inconsistency ({} vs {})",
            drop_tight.inconsistency_pct,
            drop_base.inconsistency_pct
        );
        // Block never loses a message — it stalls the publisher instead.
        let block_tight = find("block", Some(4));
        assert_eq!(block_tight.overflowed, 0);
        assert!(block_tight.stalled > 0);
        assert!(block_tight.delivered > drop_tight.delivered);
    }

    #[test]
    fn scenarios_run_the_catalog_and_cut_publisher_fanout() {
        let figure = scenarios(QUICK, 11);
        let names: Vec<&str> = figure.rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "hot_key_storm",
                "flash_crowd",
                "diurnal",
                "stampede",
                "cache_churn"
            ]
        );
        assert_eq!(figure.per_cache.len(), names.len() * SCENARIO_CACHES);
        for row in &figure.rows {
            assert!(row.reads > 0, "{} runs traffic", row.scenario);
            assert!(row.updates > 0, "{} commits updates", row.scenario);
            assert!(row.dropped > 0, "{} loses invalidations", row.scenario);
            assert!(
                row.p50_us > 0 && row.p50_us <= row.p99_us && row.p99_us <= row.p999_us,
                "latency quantiles are ordered: {row:?}"
            );
        }
        // The flash crowd triples the offered rate for a third of the run.
        let diurnal = figure.rows.iter().find(|r| r.scenario == "diurnal").unwrap();
        let crowd = figure
            .rows
            .iter()
            .find(|r| r.scenario == "flash_crowd")
            .unwrap();
        assert!(
            crowd.reads as f64 > diurnal.reads as f64 * 1.2,
            "flash crowd offers more reads ({} vs {})",
            crowd.reads,
            diurnal.reads
        );
        // The two-tier tree publishes to its regional roots only, without
        // changing any leaf's verdicts.
        assert!(figure.two_tier_fanout < figure.star_fanout);
        assert_eq!(figure.two_tier_fanout, 2);
        assert!(figure.two_tier_matches_star);
        // Bit-identical replay: same seed, same figure — histogram
        // quantiles, verdicts and fan-out numbers included.
        assert_eq!(figure, scenarios(QUICK, 11));
    }

    #[test]
    fn live_plane_reproduces_the_loss_trend_and_matches_the_simulator() {
        let figure = live_plane(SimDuration::from_secs(4), 7, &LIVE_PLANE_LOSSES);
        assert_eq!(figure.rows.len(), 4);
        let reliable = &figure.rows[0];
        let lossiest = figure.rows.last().unwrap();
        // The rising plain-cache inconsistency-vs-loss trend, measured on
        // the live reactor stack.
        assert!(
            lossiest.live_plain_inconsistency_pct > reliable.live_plain_inconsistency_pct,
            "live plain inconsistency must rise with loss ({} vs {})",
            lossiest.live_plain_inconsistency_pct,
            reliable.live_plain_inconsistency_pct
        );
        assert!(lossiest.live_plain_inconsistency_pct > 1.0);
        for row in &figure.rows {
            // At zero delivery delay the lockstep live plane and the
            // discrete-event plane share loss streams and schedule, so the
            // comparison rows agree exactly.
            assert_eq!(
                row.live_plain_inconsistency_pct, row.sim_plain_inconsistency_pct,
                "cache {}: cross-plane inconsistency must match exactly",
                row.cache
            );
            assert_eq!(row.live_dropped, row.sim_dropped, "cache {}", row.cache);
            // T-Cache on the live stack removes (almost) all of it: a
            // small absolute bound, not merely "no worse than plain" —
            // a live plane that stopped delivering dependency metadata
            // would fail here even though plain-relative checks pass.
            assert!(
                row.live_tcache_inconsistency_pct < 1.0,
                "cache {}: live tcache inconsistency must be near zero, got {} (plain {})",
                row.cache,
                row.live_tcache_inconsistency_pct,
                row.live_plain_inconsistency_pct
            );
        }
        assert_eq!(
            figure.live_aggregate_plain_pct,
            figure.sim_aggregate_plain_pct
        );
        assert!(figure.live_read_txns_per_wall_sec > 0.0);
    }

    #[test]
    fn drop_sweep_inconsistency_grows_with_loss() {
        let rows = drop_sweep(QUICK, 7, &[0.0, 0.4]);
        assert_eq!(rows.len(), 2);
        // Even with no loss the 50 ms delivery delay produces a trickle of
        // inconsistency, but heavy loss must make it clearly worse.
        assert!(rows[1].plain_inconsistency_pct > rows[0].plain_inconsistency_pct);
        assert!(rows[1].tcache_inconsistency_pct <= rows[1].plain_inconsistency_pct);
    }
}
