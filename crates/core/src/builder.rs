//! Builder for [`TCacheSystem`].

use crate::system::{SystemWiring, TCacheSystem};
use crate::transport::{DeliveryMode, TransportMode};
use std::sync::Arc;
use tcache_cache::EdgeCache;
use tcache_db::{Database, DatabaseConfig};
use tcache_net::delivery::DeliveryModel;
use tcache_net::pipe::OverflowPolicy;
use tcache_types::{
    CacheId, CachePolicyConfig, DependencyBound, RecoveryPolicy, SimDuration, Strategy,
};

/// Configures and builds a [`TCacheSystem`]: one database, one or more
/// edge caches, and the live invalidation plane between them (commit-path
/// upcalls into per-cache bounded pipes, one reactor thread running every
/// cache's loss / latency model — see [`crate::transport`]).
///
/// ```
/// use tcache::SystemBuilder;
/// use tcache_types::Strategy;
///
/// let system = SystemBuilder::new()
///     .dependency_bound(5)
///     .strategy(Strategy::Evict)
///     .invalidation_loss(0.2)
///     .invalidation_delay_millis(50)
///     .build();
/// assert_eq!(system.edge_cache().config().dependency_bound.limit(), 5);
/// ```
///
/// Multi-cache deployments host several edge caches over the same database,
/// each with its own independently seeded invalidation channel:
///
/// ```
/// use tcache::SystemBuilder;
///
/// let system = SystemBuilder::new()
///     .cache_loss_rates(vec![0.0, 0.1, 0.2, 0.4])
///     .build();
/// assert_eq!(system.cache_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemBuilder {
    dependency_bound: DependencyBound,
    strategy: Strategy,
    shards: usize,
    caches: usize,
    per_cache_loss: Option<Vec<f64>>,
    invalidation_loss: f64,
    invalidation_delay: SimDuration,
    seed: u64,
    delivery_models: Option<Vec<DeliveryModel>>,
    cache_policy: Option<CachePolicyConfig>,
    pipe_capacity: usize,
    overflow_policy: OverflowPolicy,
    recovery_policy: RecoveryPolicy,
    cache_parents: Option<Vec<Option<CacheId>>>,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            dependency_bound: DependencyBound::Bounded(3),
            strategy: Strategy::Retry,
            shards: 1,
            caches: 1,
            per_cache_loss: None,
            invalidation_loss: 0.0,
            invalidation_delay: SimDuration::ZERO,
            seed: 0,
            delivery_models: None,
            cache_policy: None,
            pipe_capacity: usize::MAX,
            overflow_policy: OverflowPolicy::Block,
            recovery_policy: RecoveryPolicy::None,
            cache_parents: None,
        }
    }
}

/// The parent map of a regular two-tier topology: `roots` root caches
/// (indices `0..roots`) followed by `roots × leaves_per_root` leaf caches
/// assigned to their parents round-robin — leaf `i` subscribes through
/// root `i % roots`. Feed the result to
/// [`SystemBuilder::cache_parents`]; the total cache count is
/// `roots + roots × leaves_per_root`.
pub fn two_tier_parents(roots: usize, leaves_per_root: usize) -> Vec<Option<CacheId>> {
    assert!(roots > 0, "a tree needs at least one root");
    let mut parents = vec![None; roots];
    for leaf in 0..roots * leaves_per_root {
        parents.push(Some(CacheId((leaf % roots) as u32)));
    }
    parents
}

impl SystemBuilder {
    /// Starts a builder with the defaults: dependency bound 3, RETRY
    /// strategy, a single shard, one cache behind an unbounded pipe, a
    /// reliable channel with no modeled delay.
    pub fn new() -> Self {
        SystemBuilder::default()
    }

    /// Bounds the dependency lists stored with every object.
    pub fn dependency_bound(mut self, bound: usize) -> Self {
        self.dependency_bound = DependencyBound::Bounded(bound);
        self
    }

    /// Uses unbounded dependency lists (the Theorem 1 configuration).
    pub fn unbounded_dependencies(mut self) -> Self {
        self.dependency_bound = DependencyBound::Unbounded;
        self
    }

    /// Chooses the reaction to detected inconsistencies.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Number of database shards (two-phase commit spans them).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "a database needs at least one shard");
        self.shards = shards;
        self
    }

    /// Number of edge caches hosted over the database. Every cache gets its
    /// own invalidation channel at the system-wide loss rate (use
    /// [`SystemBuilder::cache_loss_rates`] for heterogeneous links).
    ///
    /// # Panics
    /// Panics if `caches` is zero.
    pub fn caches(mut self, caches: usize) -> Self {
        assert!(caches > 0, "a system needs at least one cache");
        self.caches = caches;
        self.per_cache_loss = None;
        self
    }

    /// Deploys one cache per entry with the given per-cache invalidation
    /// loss rates (each clamped to `[0, 1]`), overriding
    /// [`SystemBuilder::caches`] and [`SystemBuilder::invalidation_loss`].
    ///
    /// # Panics
    /// Panics if `losses` is empty.
    pub fn cache_loss_rates(mut self, losses: Vec<f64>) -> Self {
        assert!(!losses.is_empty(), "a system needs at least one cache");
        self.caches = losses.len();
        self.per_cache_loss = Some(losses.into_iter().map(|l| l.clamp(0.0, 1.0)).collect());
        self
    }

    /// Fraction of invalidations lost by every cache's channel (clamped to
    /// `[0, 1]`).
    pub fn invalidation_loss(mut self, loss: f64) -> Self {
        self.invalidation_loss = loss.clamp(0.0, 1.0);
        self
    }

    /// One-way delay of invalidations, in milliseconds (default 0). The
    /// delay is a wall-clock latency: each invalidation lands that long
    /// after its cache's delivery task takes it, independently of the
    /// others in flight, so a delay holds back no message behind another.
    pub fn invalidation_delay_millis(mut self, millis: u64) -> Self {
        self.invalidation_delay = SimDuration::from_millis(millis);
        self
    }

    /// Seed for the channels' loss randomness; each cache's channel seed is
    /// derived from `(seed, CacheId)`, so runs are reproducible and a
    /// cache's loss pattern does not depend on how many caches are deployed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inert: a system always runs the reactor transport.
    /// **Benchmark-pinned** — `benchmark/src/spec.rs` (which PRs may not
    /// edit) calls it; it goes with the next flagged benchmark PR.
    pub fn transport(self, _mode: TransportMode) -> Self {
        self
    }

    /// Inert: delivery is always modeled in the reactor's per-cache tasks.
    /// **Benchmark-pinned** exactly like [`SystemBuilder::transport`].
    pub fn delivery(self, _mode: DeliveryMode) -> Self {
        self
    }

    /// Deploys one cache per entry with an explicit per-cache
    /// [`DeliveryModel`] (loss + latency, applied by the cache's reactor
    /// delivery task), overriding [`SystemBuilder::caches`] /
    /// [`SystemBuilder::cache_loss_rates`]. Without this knob each cache's
    /// model is derived from the configured loss rates and invalidation
    /// delay.
    ///
    /// # Panics
    /// Panics if `models` is empty.
    pub fn delivery_models(mut self, models: Vec<DeliveryModel>) -> Self {
        assert!(!models.is_empty(), "a system needs at least one cache");
        self.caches = models.len();
        self.per_cache_loss = None;
        self.delivery_models = Some(models);
        self
    }

    /// Overrides the cache policy wholesale (plain / TTL baselines, exotic
    /// strategy mixes), instead of deriving it from
    /// [`SystemBuilder::dependency_bound`] and
    /// [`SystemBuilder::strategy`]. The database's dependency bound follows
    /// the policy's.
    pub fn cache_policy(mut self, policy: CachePolicyConfig) -> Self {
        self.cache_policy = Some(policy);
        self
    }

    /// Bounds each cache's apply pipe to `capacity` in-flight
    /// invalidations; clamped to at least 1. The default is unbounded.
    pub fn pipe_capacity(mut self, capacity: usize) -> Self {
        self.pipe_capacity = capacity.max(1);
        self
    }

    /// What a full apply pipe does with an incoming invalidation: block
    /// the publisher, drop the newest or drop the oldest.
    /// `Block` is hard backpressure — a wedged cache behind a full pipe
    /// blocks the publishing thread until the cache drains (see
    /// [`TCacheSystem::pause_cache`](crate::TCacheSystem::pause_cache)).
    pub fn overflow_policy(mut self, policy: OverflowPolicy) -> Self {
        self.overflow_policy = policy;
        self
    }

    /// Sets every cache's recovery policy: how it reacts to gaps in its
    /// sequence-numbered invalidation stream, how long a partitioned cache
    /// may serve stale data before degrading to pass-through reads, and
    /// whether healing a partition resyncs from the invalidation log. The
    /// default, [`RecoveryPolicy::None`], keeps the historical behaviour
    /// (stale data persists until an invalidation or eviction removes it).
    pub fn recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery_policy = policy;
        self
    }

    /// Arranges the caches into a two-tier invalidation tree: entry `i`
    /// names the *root* cache that leaf cache `i` subscribes through
    /// (`None` makes cache `i` a root). The database then publishes each
    /// committed batch only to the roots, whose delivery tasks relay what
    /// they apply into their children's pipes — shrinking the root
    /// publisher's fan-out from "every cache" to "every root" (see
    /// [`two_tier_parents`] for the regular layout). The tree is one level
    /// deep (a parent must itself be a root).
    pub fn cache_parents(mut self, parents: Vec<Option<CacheId>>) -> Self {
        self.cache_parents = Some(parents);
        self
    }

    /// Builds the system, spawning its `tcache-reactor` thread (joined
    /// when the system is dropped).
    ///
    /// # Panics
    /// Panics if [`SystemBuilder::delivery_models`] does not cover every
    /// deployed cache or [`SystemBuilder::cache_parents`] is malformed.
    pub fn build(self) -> TCacheSystem {
        // The policy decides both the cache behaviour and the dependency
        // bound the database stores with every object.
        let policy = self.cache_policy.unwrap_or(match self.dependency_bound {
            DependencyBound::Bounded(k) => CachePolicyConfig::tcache(k, self.strategy),
            DependencyBound::Unbounded => CachePolicyConfig::unbounded(self.strategy),
        });
        let db = Arc::new(Database::new(DatabaseConfig {
            shards: self.shards,
            dependency_bound: policy.dependency_bound,
            ..DatabaseConfig::default()
        }));
        let losses = self
            .per_cache_loss
            .unwrap_or_else(|| vec![self.invalidation_loss; self.caches]);
        if let Some(models) = &self.delivery_models {
            // `caches()` / `cache_loss_rates()` after `delivery_models()`
            // can change the cache count out from under the models; fail
            // here with a clear message instead of deep in the wiring.
            assert_eq!(
                models.len(),
                losses.len(),
                "delivery_models must cover every deployed cache (models: {}, caches: {})",
                models.len(),
                losses.len()
            );
        }
        let caches: Vec<Arc<EdgeCache>> = (0..losses.len())
            .map(|i| {
                let cache = EdgeCache::new(CacheId(i as u32), Arc::clone(&db), policy);
                cache.set_recovery_policy(self.recovery_policy);
                Arc::new(cache)
            })
            .collect();
        // Each cache's loss / latency runs in its reactor task; without
        // explicit models the configured loss rates and delay become
        // per-cache uniform/constant models.
        let models = self.delivery_models.unwrap_or_else(|| {
            losses
                .iter()
                .map(|&loss| DeliveryModel::uniform(loss, self.invalidation_delay))
                .collect()
        });
        TCacheSystem::new(
            db,
            caches,
            SystemWiring {
                pipe_capacity: self.pipe_capacity,
                overflow_policy: self.overflow_policy,
                models,
                seed: self.seed,
                parents: self
                    .cache_parents
                    .map(|parents| {
                        parents
                            .into_iter()
                            .map(|p| p.map(|id| id.0 as usize))
                            .collect()
                    })
                    .unwrap_or_default(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::{ObjectId, Value};

    #[test]
    fn builder_configures_every_knob() {
        let system = SystemBuilder::new()
            .dependency_bound(4)
            .strategy(Strategy::Evict)
            .shards(3)
            .invalidation_loss(0.5)
            .invalidation_delay_millis(10)
            .seed(9)
            .build();
        assert_eq!(system.edge_cache().config().dependency_bound.limit(), 4);
        assert_eq!(system.edge_cache().config().strategy, Strategy::Evict);
        assert_eq!(system.database().config().shards, 3);
        system.populate((0..30).map(|i| (ObjectId(i), Value::new(0))));
        assert_eq!(system.database().object_count(), 30);
        system.update(&[ObjectId(0), ObjectId(7), ObjectId(14)]).unwrap();
    }

    #[test]
    fn unbounded_builder() {
        let system = SystemBuilder::new().unbounded_dependencies().build();
        assert!(system
            .edge_cache()
            .config()
            .dependency_bound
            .is_unbounded());
    }

    #[test]
    fn loss_is_clamped() {
        let builder = SystemBuilder::new().invalidation_loss(4.0);
        assert_eq!(builder.invalidation_loss, 1.0);
        let builder = SystemBuilder::new().cache_loss_rates(vec![4.0, -1.0]);
        assert_eq!(builder.per_cache_loss, Some(vec![1.0, 0.0]));
    }

    #[test]
    fn multi_cache_builders() {
        let system = SystemBuilder::new().caches(3).build();
        assert_eq!(system.cache_count(), 3);
        for (i, id) in system.cache_ids().enumerate() {
            assert_eq!(id, CacheId(i as u32));
            assert_eq!(system.cache(id).unwrap().id(), id);
        }
        let system = SystemBuilder::new()
            .cache_loss_rates(vec![0.1, 0.2])
            .build();
        assert_eq!(system.cache_count(), 2);
        // `caches` after `cache_loss_rates` resets to uniform loss.
        let system = SystemBuilder::new()
            .cache_loss_rates(vec![0.1, 0.2])
            .caches(5)
            .build();
        assert_eq!(system.cache_count(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = SystemBuilder::new().shards(0);
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn zero_caches_panics() {
        let _ = SystemBuilder::new().caches(0);
    }
}
