//! Experiment results and derived metrics.

use crate::timeseries::TimeSeries;
use tcache_cache::{CacheStatsSnapshot, LifecycleStatsSnapshot};
use tcache_db::stats::DbStatsSnapshot;
use tcache_monitor::MonitorReport;
use tcache_net::channel::ChannelStats;
use tcache_types::{CacheId, SimDuration};
use tcache_workload::LatencyHistogram;

/// Everything measured for one cache server of a (possibly multi-cache)
/// experiment run.
#[derive(Debug, Clone)]
pub struct CacheColumnResult {
    /// The cache server.
    pub id: CacheId,
    /// The configured loss rate of this cache's invalidation channel.
    pub loss: f64,
    /// The monitor's classification of the transactions this cache served.
    /// (Update counters are global and stay zero here.)
    pub report: MonitorReport,
    /// The subset of [`CacheColumnResult::report`] served while the cache
    /// was degraded to pass-through reads (empty unless a fault plan drove
    /// the cache past its staleness budget).
    pub degraded: MonitorReport,
    /// This cache's statistics.
    pub cache: CacheStatsSnapshot,
    /// This cache's channel statistics.
    pub channel: ChannelStats,
    /// Fault/recovery lifecycle counters: stream gaps detected, log
    /// replays, snapshot resyncs, crash/partition events observed.
    pub lifecycle: LifecycleStatsSnapshot,
    /// Modeled client-latency histogram of the reads this cache served.
    /// Empty unless the run was driven by a scenario
    /// ([`crate::ExperimentConfig::scenario`]), whose deterministic
    /// latency model fills it identically on both planes.
    pub latency: LatencyHistogram,
}

impl CacheColumnResult {
    /// The cache's inconsistency ratio (fraction of its committed read-only
    /// transactions that observed inconsistent data).
    pub fn inconsistency_ratio(&self) -> f64 {
        self.report.inconsistency_ratio()
    }

    /// The cache's hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Fraction of this cache's read-only transactions that were aborted.
    pub fn abort_ratio(&self) -> f64 {
        self.report.abort_ratio()
    }
}

/// Everything measured during one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// The consistency monitor's classification counts over all caches.
    pub report: MonitorReport,
    /// Cache-side statistics summed over all deployed caches.
    pub cache: CacheStatsSnapshot,
    /// Database-side statistics (reads served, updates committed, …).
    pub db: DbStatsSnapshot,
    /// Invalidation channel statistics summed over all per-cache channels.
    pub channel: ChannelStats,
    /// Per-cache measurements, indexed by `CacheId` (one entry per deployed
    /// cache; a single-cache run has exactly one).
    pub per_cache: Vec<CacheColumnResult>,
    /// Per-bin outcome time series (used by Figures 4 and 5).
    pub timeseries: TimeSeries,
    /// Wall-clock time the live plane spent *executing* the schedule
    /// (client threads + driver + reactor, excluding schedule
    /// construction, system build and monitor replay). `None` on the
    /// discrete-event plane, whose wall time measures the simulator, not
    /// the system.
    pub execution_wall: Option<std::time::Duration>,
}

impl ExperimentResult {
    /// The headline metric: the fraction of committed read-only transactions
    /// that observed inconsistent data.
    pub fn inconsistency_ratio(&self) -> f64 {
        self.report.inconsistency_ratio()
    }

    /// The cache hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Read load the cache placed on the database, in reads per simulated
    /// second (cache misses plus RETRY read-throughs).
    pub fn db_reads_per_second(&self) -> f64 {
        if self.duration == SimDuration::ZERO {
            0.0
        } else {
            self.cache.db_reads() as f64 / self.duration.as_secs_f64()
        }
    }

    /// Fraction of cache misses whose fetched entry storage refused to
    /// admit because an invalidation or a clear reached its stripe during
    /// the fetch (0.0 when nothing missed). Each refusal is one more miss
    /// later, never a stale hit.
    pub fn vetoed_admission_ratio(&self) -> f64 {
        if self.cache.misses == 0 {
            0.0
        } else {
            self.cache.admissions_vetoed as f64 / self.cache.misses as f64
        }
    }

    /// Read-only transaction throughput in transactions per second.
    pub fn read_txn_rate(&self) -> f64 {
        if self.duration == SimDuration::ZERO {
            0.0
        } else {
            self.report.read_only_total() as f64 / self.duration.as_secs_f64()
        }
    }

    /// Fraction of all read-only transactions that committed with
    /// consistent data.
    pub fn consistent_commit_ratio(&self) -> f64 {
        self.report.consistent_commit_ratio()
    }

    /// Fraction of all read-only transactions that were aborted.
    pub fn abort_ratio(&self) -> f64 {
        self.report.abort_ratio()
    }

    /// Fraction of potential inconsistencies that the cache detected
    /// (Figure 3's y-axis).
    pub fn detection_ratio(&self) -> f64 {
        self.report.detection_ratio()
    }

    /// Number of caches the run deployed.
    pub fn cache_count(&self) -> usize {
        self.per_cache.len()
    }

    /// The per-cache measurements for one cache server.
    pub fn cache_result(&self, id: CacheId) -> Option<&CacheColumnResult> {
        self.per_cache.iter().find(|c| c.id == id)
    }

    /// `(CacheId, inconsistency ratio)` for every deployed cache — the
    /// per-cache view of the headline metric.
    pub fn per_cache_inconsistency_ratios(&self) -> Vec<(CacheId, f64)> {
        self.per_cache
            .iter()
            .map(|c| (c.id, c.inconsistency_ratio()))
            .collect()
    }

    /// Read-only transactions per wall-clock second of live execution
    /// (`None` on the discrete-event plane, or if nothing ran).
    pub fn read_txns_per_wall_sec(&self) -> Option<f64> {
        let wall = self.execution_wall?.as_secs_f64();
        (wall > 0.0).then(|| self.report.read_only_total() as f64 / wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::SimDuration;

    fn sample() -> ExperimentResult {
        let report = MonitorReport {
            committed_consistent: 800,
            committed_inconsistent: 100,
            aborted_justified: 80,
            aborted_unnecessary: 20,
            ..MonitorReport::default()
        };
        let cache = CacheStatsSnapshot {
            reads: 5000,
            hits: 4500,
            misses: 500,
            retries: 10,
            admissions_vetoed: 50,
            ..CacheStatsSnapshot::default()
        };
        ExperimentResult {
            duration: SimDuration::from_secs(10),
            report,
            cache,
            db: DbStatsSnapshot::default(),
            channel: ChannelStats::default(),
            per_cache: vec![CacheColumnResult {
                id: CacheId(0),
                loss: 0.2,
                report,
                degraded: MonitorReport::default(),
                cache,
                channel: ChannelStats::default(),
                lifecycle: LifecycleStatsSnapshot::default(),
                latency: LatencyHistogram::new(),
            }],
            timeseries: TimeSeries::new(SimDuration::from_secs(1)),
            execution_wall: Some(std::time::Duration::from_secs(2)),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert!((r.inconsistency_ratio() - 100.0 / 900.0).abs() < 1e-9);
        assert!((r.hit_ratio() - 0.9).abs() < 1e-9);
        assert!((r.db_reads_per_second() - 51.0).abs() < 1e-9);
        assert!((r.vetoed_admission_ratio() - 0.1).abs() < 1e-9);
        assert!((r.read_txn_rate() - 100.0).abs() < 1e-9);
        assert!((r.consistent_commit_ratio() - 0.8).abs() < 1e-9);
        assert!((r.abort_ratio() - 0.1).abs() < 1e-9);
        assert!((r.detection_ratio() - 100.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn per_cache_accessors() {
        let r = sample();
        assert_eq!(r.cache_count(), 1);
        let column = r.cache_result(CacheId(0)).unwrap();
        assert!((column.inconsistency_ratio() - r.inconsistency_ratio()).abs() < 1e-9);
        assert!((column.hit_ratio() - 0.9).abs() < 1e-9);
        assert!((column.abort_ratio() - 0.1).abs() < 1e-9);
        assert_eq!(column.loss, 0.2);
        assert!(r.cache_result(CacheId(3)).is_none());
        let ratios = r.per_cache_inconsistency_ratios();
        assert_eq!(ratios.len(), 1);
        assert_eq!(ratios[0].0, CacheId(0));
    }

    #[test]
    fn wall_clock_throughput_is_derived_from_execution_time() {
        let r = sample();
        // 1000 read-only txns over 2 s of live execution.
        assert!((r.read_txns_per_wall_sec().unwrap() - 500.0).abs() < 1e-9);
        let mut r = sample();
        r.execution_wall = None;
        assert!(r.read_txns_per_wall_sec().is_none());
    }

    #[test]
    fn zero_duration_is_handled() {
        let mut r = sample();
        r.duration = SimDuration::ZERO;
        assert_eq!(r.db_reads_per_second(), 0.0);
        r.cache = CacheStatsSnapshot::default();
        assert_eq!(r.vetoed_admission_ratio(), 0.0);
        assert_eq!(r.read_txn_rate(), 0.0);
    }
}
