//! The experiment runner: one database column serving N edge caches.
//!
//! The paper's setup (§IV, Figure 2) wires a single cache; the harness
//! generalizes it to a [`CacheTopology`] of N caches over the same backend.
//! Each cache has its own invalidation link (a [`LinkStep`], independently
//! seeded from `(seed, CacheId)`, optionally with heterogeneous loss) and
//! its own read-only client population; the consistency monitor classifies
//! transactions both globally and per cache, since cache serializability
//! is a per-cache-server property.

use crate::plane::ExecutionPlane;
use crate::results::ExperimentResult;
use crate::schedule::Schedule;
use crate::timeseries::TimeSeries;
use std::sync::Arc;
use tcache_cache::EdgeCache;
use tcache_db::{Database, DatabaseConfig};
use tcache_monitor::ConsistencyMonitor;
use tcache_db::Invalidation;
use tcache_net::delivery::{DeliveryModel, DeliveryTask, LinkStep};
use tcache_net::fault::{FaultEvent, FaultKind, FaultPlan};
use tcache_net::pipe::OverflowPolicy;
use tcache_types::{
    cache_channel_seed, cache_delay_seed, CacheId, DependencyBound, ObjectId, RecoveryPolicy,
    SimDuration, SimTime, Strategy, Value,
};
use tcache_workload::graph::GraphKind;
use tcache_workload::{
    ChurnAction, DriftingClusters, ParetoClusters, PerfectClusters, PhaseShift,
    RandomWalkWorkload, ScenarioSpec, UniformRandom, WorkloadGenerator,
};

/// Which workload drives the clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Perfectly clustered synthetic accesses (§V-A1).
    PerfectClusters {
        /// Number of objects.
        objects: u64,
        /// Cluster size.
        cluster_size: u64,
    },
    /// Approximately clustered synthetic accesses with Pareto parameter α.
    ParetoClusters {
        /// Number of objects.
        objects: u64,
        /// Cluster size.
        cluster_size: u64,
        /// Pareto shape parameter.
        alpha: f64,
    },
    /// Uniformly random accesses.
    Uniform {
        /// Number of objects.
        objects: u64,
    },
    /// Perfect clusters whose boundaries drift over time (Figure 5).
    Drifting {
        /// Number of objects.
        objects: u64,
        /// Cluster size.
        cluster_size: u64,
        /// How often the clusters shift by one object.
        shift_every: SimDuration,
    },
    /// Uniform accesses that become perfectly clustered at `switch_at`
    /// (Figure 4).
    PhaseShift {
        /// Number of objects.
        objects: u64,
        /// Cluster size after the switch.
        cluster_size: u64,
        /// When accesses become clustered.
        switch_at: SimTime,
    },
    /// Random-walk transactions over a sampled graph topology (§V-B).
    Graph {
        /// Which topology the graph stands in for.
        kind: GraphKind,
        /// Nodes of the synthetic source graph before sampling.
        source_nodes: usize,
        /// Nodes retained by the random-walk sampler.
        sampled_nodes: usize,
    },
}

impl WorkloadKind {
    /// The paper's retail (Amazon-like) workload.
    pub fn retail() -> Self {
        WorkloadKind::Graph {
            kind: GraphKind::RetailAffinity,
            source_nodes: 4000,
            sampled_nodes: 1000,
        }
    }

    /// The paper's social-network (Orkut-like) workload.
    pub fn social() -> Self {
        WorkloadKind::Graph {
            kind: GraphKind::SocialNetwork,
            source_nodes: 4000,
            sampled_nodes: 1000,
        }
    }

    /// Builds the generator, using `seed` for any topology generation.
    pub fn build(&self, seed: u64) -> Box<dyn WorkloadGenerator> {
        match *self {
            WorkloadKind::PerfectClusters {
                objects,
                cluster_size,
            } => Box::new(PerfectClusters::new(objects, cluster_size, 5)),
            WorkloadKind::ParetoClusters {
                objects,
                cluster_size,
                alpha,
            } => Box::new(ParetoClusters::new(objects, cluster_size, 5, alpha)),
            WorkloadKind::Uniform { objects } => Box::new(UniformRandom::new(objects, 5)),
            WorkloadKind::Drifting {
                objects,
                cluster_size,
                shift_every,
            } => Box::new(DriftingClusters::new(objects, cluster_size, 5, shift_every)),
            WorkloadKind::PhaseShift {
                objects,
                cluster_size,
                switch_at,
            } => Box::new(PhaseShift::new(
                Box::new(UniformRandom::new(objects, 5)),
                Box::new(PerfectClusters::new(objects, cluster_size, 5)),
                switch_at,
            )),
            WorkloadKind::Graph {
                kind,
                source_nodes,
                sampled_nodes,
            } => Box::new(RandomWalkWorkload::paper_workload(
                kind,
                source_nodes,
                sampled_nodes,
                seed,
            )),
        }
    }
}

/// Which cache implementation serves the read-only clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// T-Cache with bounded dependency lists.
    TCache {
        /// Maximum dependency-list length.
        dependency_bound: usize,
        /// Reaction to detected inconsistencies.
        strategy: Strategy,
    },
    /// T-Cache with unbounded dependency lists (Theorem 1).
    Unbounded {
        /// Reaction to detected inconsistencies.
        strategy: Strategy,
    },
    /// The consistency-unaware baseline.
    Plain,
    /// The TTL-limited baseline of §V-B2.
    Ttl {
        /// Entry time-to-live.
        ttl: SimDuration,
    },
}

impl CacheKind {
    fn database_bound(&self) -> DependencyBound {
        match *self {
            CacheKind::TCache {
                dependency_bound, ..
            } => DependencyBound::Bounded(dependency_bound),
            CacheKind::Unbounded { .. } => DependencyBound::Unbounded,
            CacheKind::Plain | CacheKind::Ttl { .. } => DependencyBound::Bounded(0),
        }
    }

    /// Builds a cache of this kind with the given server id. Every cache of
    /// a multi-cache deployment must carry its real id — stats and
    /// violations from distinct caches must never be conflated.
    pub fn build(&self, id: CacheId, backend: Arc<Database>) -> EdgeCache {
        match *self {
            CacheKind::TCache {
                dependency_bound,
                strategy,
            } => EdgeCache::tcache(id, backend, dependency_bound, strategy),
            CacheKind::Unbounded { strategy } => EdgeCache::unbounded(id, backend, strategy),
            CacheKind::Plain => EdgeCache::plain(id, backend),
            CacheKind::Ttl { ttl } => EdgeCache::ttl_baseline(id, backend, ttl),
        }
    }
}

/// One edge-cache site of a [`CacheTopology::Weighted`] deployment: its
/// invalidation-link loss rate and the relative weight of its read-only
/// client population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSite {
    /// Loss rate of this cache's invalidation channel.
    pub loss: f64,
    /// Relative share of the aggregate read rate served by this cache's
    /// clients (weights are normalized over the deployment; 0 deploys the
    /// cache with no client population of its own).
    pub weight: f64,
}

impl CacheSite {
    /// A site with the given loss and client weight.
    ///
    /// # Panics
    /// Panics if `weight` is negative or not finite.
    pub fn new(loss: f64, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "client weight must be non-negative"
        );
        CacheSite { loss, weight }
    }
}

/// How many edge caches the experiment deploys and what their invalidation
/// links look like. All caches run the same [`CacheKind`] and share the
/// backend database; they differ in their channel's loss process and
/// (for [`CacheTopology::Weighted`]) in the size of their client
/// population.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheTopology {
    /// The paper's single-column setup: one cache whose channel uses the
    /// experiment-level `invalidation_loss`.
    Single,
    /// N identical caches, each with its own independently seeded channel
    /// at the experiment-level loss rate.
    Uniform(usize),
    /// One cache per entry, with heterogeneous per-cache loss rates.
    PerCacheLoss(Vec<f64>),
    /// One cache per entry with heterogeneous loss *and* per-cache client
    /// weights: cache `i` serves `weight_i / Σ weights` of the aggregate
    /// read rate, modelling geo-partitioned traffic instead of one evenly
    /// split client population.
    Weighted(Vec<CacheSite>),
}

impl CacheTopology {
    /// Number of caches deployed.
    ///
    /// # Panics
    /// Panics on an empty topology (`Uniform(0)` or an empty loss list).
    pub fn cache_count(&self) -> usize {
        let n = match self {
            CacheTopology::Single => 1,
            CacheTopology::Uniform(n) => *n,
            CacheTopology::PerCacheLoss(losses) => losses.len(),
            CacheTopology::Weighted(sites) => sites.len(),
        };
        assert!(n > 0, "an experiment needs at least one cache");
        n
    }

    /// The per-cache loss rates, with `default_loss` filling the uniform
    /// topologies.
    pub fn losses(&self, default_loss: f64) -> Vec<f64> {
        match self {
            CacheTopology::Single => vec![default_loss],
            CacheTopology::Uniform(n) => vec![default_loss; *n],
            CacheTopology::PerCacheLoss(losses) => losses.clone(),
            CacheTopology::Weighted(sites) => sites.iter().map(|s| s.loss).collect(),
        }
    }

    /// Each cache's normalized share of the aggregate read rate. Uniform
    /// topologies split evenly; [`CacheTopology::Weighted`] normalizes the
    /// configured weights.
    ///
    /// # Panics
    /// Panics if every weight of a weighted topology is zero.
    pub fn client_shares(&self) -> Vec<f64> {
        let n = self.cache_count();
        match self {
            CacheTopology::Weighted(sites) => {
                let total: f64 = sites.iter().map(|s| s.weight).sum();
                assert!(total > 0.0, "at least one cache needs client weight");
                sites.iter().map(|s| s.weight / total).collect()
            }
            _ => vec![1.0 / n as f64; n],
        }
    }
}

/// Full configuration of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Aggregate update-transaction rate (the paper uses 100 txn/s).
    pub update_rate: f64,
    /// Aggregate read-only transaction rate across all caches (the paper
    /// uses 500 txn/s); each cache's client population gets an equal share.
    pub read_rate: f64,
    /// The workload driving both client classes.
    pub workload: WorkloadKind,
    /// The cache under test.
    pub cache: CacheKind,
    /// How many caches are deployed and their per-cache channel loss.
    pub caches: CacheTopology,
    /// Fraction of invalidations dropped by the channel (the paper uses
    /// 0.2); per-cache rates in [`CacheTopology::PerCacheLoss`] override it.
    pub invalidation_loss: f64,
    /// One-way delivery delay of surviving invalidations.
    pub invalidation_delay: SimDuration,
    /// Capacity of each cache's invalidation link (`None` for the paper's
    /// unbounded link). On the discrete-event plane it bounds the messages
    /// in flight on the cache's [`LinkStep`]; on the live plane it bounds
    /// the cache's pipe, the queue in front of the step, which pushes back
    /// on the publisher.
    pub pipe_capacity: Option<usize>,
    /// What a full link does with an arriving invalidation.
    pub overflow_policy: OverflowPolicy,
    /// Deterministic schedule of injected faults (crashes, partitions,
    /// delay spikes). Empty by default; both execution planes walk the
    /// same plan with a cursor and apply due events before each operation.
    pub faults: FaultPlan,
    /// Optional open-loop scenario. When set, the scenario drives the
    /// transaction schedule instead of [`ExperimentConfig::workload`]:
    /// keys come from the scenario's deterministic Zipfian sampler, the
    /// offered read rate follows its load curves, reads are assigned to
    /// caches by its (possibly shifting) population weights, and its
    /// crash/restart churn is merged into the fault plan
    /// ([`ExperimentConfig::effective_faults`]). Pause/resume churn needs
    /// the live plane's pausable pipes.
    pub scenario: Option<ScenarioSpec>,
    /// Optional two-tier invalidation topology: `cache_parents[i]` names
    /// the regional parent cache leaf `i` subscribes through (`None` makes
    /// cache `i` a root the database publishes to directly). Live plane
    /// only — the tree is wired through the reactor's relay fan-out.
    pub cache_parents: Option<Vec<Option<CacheId>>>,
    /// How caches recover from invalidation-stream gaps and how long a cut
    /// off cache may serve its (possibly stale) store before degrading to
    /// pass-through reads. Applied to every deployed cache.
    pub recovery: RecoveryPolicy,
    /// Bin width of the outcome time series.
    pub timeseries_bin: SimDuration,
    /// Random seed (workload topology, arrivals, channel loss). Per-cache
    /// channel seeds are derived from `(seed, CacheId)`.
    pub seed: u64,
    /// Which backend executes the run: the discrete-event simulator (the
    /// default) or the live reactor stack (see [`crate::plane`]). The
    /// transaction schedule is identical on both.
    pub plane: ExecutionPlane,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            duration: SimDuration::from_secs(30),
            update_rate: 100.0,
            read_rate: 500.0,
            workload: WorkloadKind::ParetoClusters {
                objects: 2000,
                cluster_size: 5,
                alpha: 1.0,
            },
            cache: CacheKind::TCache {
                dependency_bound: 5,
                strategy: Strategy::Abort,
            },
            caches: CacheTopology::Single,
            invalidation_loss: 0.2,
            invalidation_delay: SimDuration::from_millis(50),
            pipe_capacity: None,
            overflow_policy: OverflowPolicy::Block,
            faults: FaultPlan::default(),
            scenario: None,
            cache_parents: None,
            recovery: RecoveryPolicy::None,
            timeseries_bin: SimDuration::from_secs(1),
            seed: 42,
            plane: ExecutionPlane::DiscreteEvent,
        }
    }
}

impl ExperimentConfig {
    /// Runs the experiment to completion on its configured
    /// [`ExecutionPlane`]. The same configuration (and thus the same
    /// transaction schedule) runs unchanged on either plane.
    pub fn run(self) -> ExperimentResult {
        match self.plane {
            ExecutionPlane::DiscreteEvent => Experiment::new(self).run(),
            ExecutionPlane::Live(options) => crate::plane::live::run(self, options),
        }
    }

    /// The same configuration, retargeted to another execution plane.
    pub fn on_plane(self, plane: ExecutionPlane) -> Self {
        ExperimentConfig { plane, ..self }
    }

    /// The fault plan both planes actually walk: the configured
    /// [`ExperimentConfig::faults`] with the scenario's crash/restart
    /// churn merged in (pause/resume churn stays outside the plan — it is
    /// applied through the live plane's pausable pipes instead).
    pub fn effective_faults(&self) -> FaultPlan {
        let mut plan = self.faults.clone();
        if let Some(spec) = &self.scenario {
            for event in spec.churn_events() {
                let kind = match event.action {
                    ChurnAction::Crash => FaultKind::Crash,
                    ChurnAction::Restart => FaultKind::Restart,
                    ChurnAction::Pause | ChurnAction::Resume => continue,
                };
                plan.push(FaultEvent {
                    at: event.at,
                    cache: CacheId(event.cache),
                    kind,
                });
            }
        }
        plan
    }
}

/// A fully wired discrete-event experiment, ready to run.
pub struct Experiment {
    pub(crate) config: ExperimentConfig,
    pub(crate) db: Arc<Database>,
    /// One cache per deployed column; `caches[i].id() == CacheId(i)`.
    pub(crate) caches: Vec<EdgeCache>,
    /// Configured loss rate of each cache's link (same indexing).
    pub(crate) losses: Vec<f64>,
    /// Each cache's invalidation link, driven on the virtual clock (same
    /// indexing).
    pub(crate) links: Vec<LinkStep<Invalidation>>,
    pub(crate) monitor: ConsistencyMonitor,
    pub(crate) timeseries: TimeSeries,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Experiment {
    /// Builds all components (database, caches, per-cache links,
    /// monitor) from the configuration and populates the database.
    ///
    /// # Panics
    /// Panics if the configured [`CacheTopology`] deploys zero caches, or
    /// if the configuration needs live-plane machinery the discrete plane
    /// lacks (pause/resume churn, a two-tier `cache_parents` tree).
    pub fn new(config: ExperimentConfig) -> Self {
        assert!(config.caches.cache_count() > 0);
        if let Some(spec) = &config.scenario {
            assert!(
                !spec.has_pause_churn(),
                "pause/resume churn needs the live plane's pausable pipes"
            );
        }
        assert!(
            config.cache_parents.is_none(),
            "two-tier topology needs the live plane's reactor fan-out"
        );
        let object_count = match &config.scenario {
            Some(spec) => spec.object_count(),
            None => config.workload.build(config.seed).object_count() as u64,
        };
        let db = Arc::new(Database::new(DatabaseConfig {
            dependency_bound: config.cache.database_bound(),
            ..DatabaseConfig::default()
        }));
        db.populate((0..object_count).map(|i| (ObjectId(i), Value::new(0))));
        let losses = config.caches.losses(config.invalidation_loss);
        let caches: Vec<EdgeCache> = (0..losses.len())
            .map(|i| {
                let cache = config.cache.build(CacheId(i as u32), Arc::clone(&db));
                cache.set_recovery_policy(config.recovery);
                cache
            })
            .collect();
        // Each cache's link is seeded from (seed, CacheId), so the loss
        // pattern a cache observes does not depend on how many other caches
        // are deployed or how events interleave.
        let pipe_capacity = config.pipe_capacity.unwrap_or(usize::MAX);
        let links = losses
            .iter()
            .enumerate()
            .map(|(i, &loss)| {
                let id = CacheId(i as u32);
                LinkStep::new(&DeliveryTask::new(
                    DeliveryModel::uniform(loss, config.invalidation_delay),
                    cache_channel_seed(config.seed, id),
                    cache_delay_seed(config.seed, id),
                ))
                .bounded(pipe_capacity, config.overflow_policy)
            })
            .collect();
        let timeseries = TimeSeries::new(config.timeseries_bin);
        Experiment {
            config,
            db,
            caches,
            losses,
            links,
            monitor: ConsistencyMonitor::new(),
            timeseries,
        }
    }

    /// The configuration this experiment was built from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Builds the transaction schedule and replays it against the
    /// discrete-event components, collecting the results.
    pub fn run(self) -> ExperimentResult {
        let schedule = Schedule::build(&self.config);
        crate::plane::discrete::execute(self, &schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            duration: SimDuration::from_secs(5),
            workload: WorkloadKind::PerfectClusters {
                objects: 500,
                cluster_size: 5,
            },
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn experiment_produces_traffic_at_the_configured_rates() {
        let result = quick_config().run();
        let reads = result.report.read_only_total() as f64;
        let updates = (result.report.updates_committed + result.report.updates_aborted) as f64;
        // 5 seconds at 500 and 100 txn/s respectively; allow generous slack.
        assert!((reads - 2500.0).abs() < 400.0, "read txns {reads}");
        assert!((updates - 500.0).abs() < 150.0, "update txns {updates}");
        assert!(result.hit_ratio() > 0.5);
        assert!(result.link.offered > 0);
        let loss = result.link.dropped as f64 / result.link.offered as f64;
        assert!((loss - 0.2).abs() < 0.05, "link loss {loss}");
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let a = quick_config().run();
        let b = quick_config().run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.cache, b.cache);
        let mut other = quick_config();
        other.seed = 7;
        let c = other.run();
        assert_ne!(a.report, c.report);
    }

    #[test]
    fn plain_cache_commits_inconsistent_transactions() {
        let mut config = quick_config();
        config.cache = CacheKind::Plain;
        let result = config.run();
        assert_eq!(result.report.aborted_total(), 0);
        assert!(
            result.report.committed_inconsistent > 0,
            "with 20% invalidation loss the consistency-unaware cache must commit some inconsistent transactions"
        );
    }

    #[test]
    fn tcache_detects_most_inconsistencies_on_clustered_workloads() {
        let plain = {
            let mut c = quick_config();
            c.cache = CacheKind::Plain;
            c.run()
        };
        let tcache = {
            let mut c = quick_config();
            c.cache = CacheKind::TCache {
                dependency_bound: 5,
                strategy: Strategy::Abort,
            };
            c.run()
        };
        assert!(
            tcache.inconsistency_ratio() < plain.inconsistency_ratio(),
            "T-Cache ({}) must reduce the inconsistency ratio below the plain cache ({})",
            tcache.inconsistency_ratio(),
            plain.inconsistency_ratio()
        );
        assert!(tcache.report.aborted_total() > 0);
    }

    #[test]
    fn reliable_channel_produces_no_inconsistencies() {
        let mut config = quick_config();
        config.invalidation_loss = 0.0;
        config.invalidation_delay = SimDuration::ZERO;
        let result = config.run();
        assert_eq!(
            result.report.committed_inconsistent, 0,
            "without loss or delay every committed transaction is consistent"
        );
        assert_eq!(result.link.dropped, 0);
    }

    #[test]
    fn multi_cache_run_reports_per_cache_and_aggregate_views() {
        let config = ExperimentConfig {
            caches: CacheTopology::PerCacheLoss(vec![0.0, 0.1, 0.2, 0.4]),
            ..quick_config()
        };
        let result = config.clone().run();
        assert_eq!(result.cache_count(), 4);

        // Per-cache read-only classifications partition the global report.
        let read_only_sum: u64 = result
            .per_cache
            .iter()
            .map(|c| c.report.read_only_total())
            .sum();
        assert_eq!(read_only_sum, result.report.read_only_total());
        let inconsistent_sum: u64 = result
            .per_cache
            .iter()
            .map(|c| c.report.committed_inconsistent)
            .sum();
        assert_eq!(inconsistent_sum, result.report.committed_inconsistent);

        // Link and cache stats aggregate across the caches.
        let offered_sum: u64 = result.per_cache.iter().map(|c| c.link.offered).sum();
        assert_eq!(offered_sum, result.link.offered);
        let reads_sum: u64 = result.per_cache.iter().map(|c| c.cache.reads).sum();
        assert_eq!(reads_sum, result.cache.reads);

        // Every cache sees its own configured loss rate on its own link.
        for column in &result.per_cache {
            let observed = column.link.dropped as f64 / column.link.offered as f64;
            assert!(
                (observed - column.loss).abs() < 0.07,
                "{}: observed loss {observed} configured {}",
                column.id,
                column.loss
            );
            // Each cache serves roughly its share of the read traffic.
            let share = column.report.read_only_total() as f64 / read_only_sum as f64;
            assert!((share - 0.25).abs() < 0.1, "{} share {share}", column.id);
        }

        // Multi-cache runs are reproducible for a fixed seed.
        let again = config.run();
        assert_eq!(result.report, again.report);
        for (a, b) in result.per_cache.iter().zip(&again.per_cache) {
            assert_eq!(a.report, b.report);
            assert_eq!(a.cache, b.cache);
            assert_eq!(a.link, b.link);
        }
    }

    #[test]
    fn weighted_topology_skews_read_traffic_per_cache() {
        let config = ExperimentConfig {
            caches: CacheTopology::Weighted(vec![
                CacheSite::new(0.2, 3.0),
                CacheSite::new(0.2, 1.0),
            ]),
            ..quick_config()
        };
        let result = config.clone().run();
        assert_eq!(result.cache_count(), 2);
        let total: u64 = result
            .per_cache
            .iter()
            .map(|c| c.report.read_only_total())
            .sum();
        let share0 = result.per_cache[0].report.read_only_total() as f64 / total as f64;
        assert!(
            (share0 - 0.75).abs() < 0.06,
            "cache 0 must serve ~75% of the reads, got {share0}"
        );
        // The aggregate rate is preserved: 5 s at 500 txn/s.
        assert!((total as f64 - 2500.0).abs() < 400.0, "total reads {total}");
        // Weighted runs stay deterministic.
        let again = config.run();
        assert_eq!(result.report, again.report);
    }

    #[test]
    fn zero_weight_caches_field_no_clients() {
        let result = ExperimentConfig {
            caches: CacheTopology::Weighted(vec![
                CacheSite::new(0.2, 1.0),
                CacheSite::new(0.2, 0.0),
            ]),
            ..quick_config()
        }
        .run();
        assert_eq!(result.per_cache[1].report.read_only_total(), 0);
        assert!(result.per_cache[0].report.read_only_total() > 0);
        // The idle cache still receives invalidations on its own link.
        assert!(result.per_cache[1].link.offered > 0);
    }

    #[test]
    #[should_panic(expected = "client weight")]
    fn all_zero_weights_panic() {
        let _ = CacheTopology::Weighted(vec![CacheSite::new(0.0, 0.0)]).client_shares();
    }

    #[test]
    fn bounded_pipes_overflow_and_are_observable() {
        // A tiny pipe behind a long delay: the in-flight backlog exceeds
        // the capacity and the policy's counters must surface it.
        let base = ExperimentConfig {
            invalidation_loss: 0.0,
            invalidation_delay: SimDuration::from_millis(200),
            pipe_capacity: Some(4),
            ..quick_config()
        };
        let dropped = ExperimentConfig {
            overflow_policy: OverflowPolicy::DropOldest,
            ..base.clone()
        }
        .run();
        assert!(dropped.link.overflowed > 0);
        assert_eq!(dropped.link.stalled, 0);
        let blocked = ExperimentConfig {
            overflow_policy: OverflowPolicy::Block,
            ..base
        }
        .run();
        assert_eq!(blocked.link.overflowed, 0);
        assert!(blocked.link.stalled > 0);
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn empty_topology_panics_at_construction() {
        let _ = Experiment::new(ExperimentConfig {
            caches: CacheTopology::Uniform(0),
            ..quick_config()
        });
    }

    #[test]
    fn uniform_topology_deploys_identical_caches() {
        let config = ExperimentConfig {
            caches: CacheTopology::Uniform(2),
            ..quick_config()
        };
        let result = config.run();
        assert_eq!(result.cache_count(), 2);
        for column in &result.per_cache {
            assert_eq!(column.loss, 0.2);
            assert!(column.report.read_only_total() > 0);
        }
        assert_eq!(
            result.per_cache_inconsistency_ratios().len(),
            2,
            "one headline ratio per cache"
        );
    }

    #[test]
    fn workload_kind_builders_produce_generators() {
        for kind in [
            WorkloadKind::PerfectClusters { objects: 100, cluster_size: 5 },
            WorkloadKind::ParetoClusters { objects: 100, cluster_size: 5, alpha: 1.0 },
            WorkloadKind::Uniform { objects: 100 },
            WorkloadKind::Drifting {
                objects: 100,
                cluster_size: 5,
                shift_every: SimDuration::from_secs(10),
            },
            WorkloadKind::PhaseShift {
                objects: 100,
                cluster_size: 5,
                switch_at: SimTime::from_secs(10),
            },
        ] {
            let mut generator = kind.build(1);
            assert_eq!(generator.object_count(), 100);
            let access = generator.generate(SimTime::ZERO, &mut StdRng::seed_from_u64(1));
            assert_eq!(access.len(), 5);
        }
        let retail = WorkloadKind::retail().build(1);
        assert_eq!(retail.object_count(), 1000);
        let social = WorkloadKind::social().build(1);
        assert_eq!(social.object_count(), 1000);
    }

    #[test]
    fn ttl_cache_lowers_hit_ratio() {
        let infinite = {
            let mut c = quick_config();
            c.cache = CacheKind::Plain;
            c.run()
        };
        let ttl = {
            let mut c = quick_config();
            c.cache = CacheKind::Ttl {
                ttl: SimDuration::from_millis(500),
            };
            c.run()
        };
        assert!(
            ttl.hit_ratio() < infinite.hit_ratio(),
            "a short TTL must reduce the hit ratio ({} vs {})",
            ttl.hit_ratio(),
            infinite.hit_ratio()
        );
        assert!(ttl.db_reads_per_second() > infinite.db_reads_per_second());
    }
}
