//! A single-process T-Cache deployment: database + N edge caches.

use crate::transport::{modeled_delivery_sink, ReactorPlane};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tcache_cache::{CacheStatsSnapshot, EdgeCache};
use tcache_db::stats::DbStatsSnapshot;
use tcache_db::Database;
use tcache_net::delivery::{DeliveryModel, DeliveryStatsSnapshot};
use tcache_net::pipe::{OverflowPolicy, PipeStatsSnapshot};
use tcache_net::reactor::ReactorStats;
use tcache_types::{
    CacheId, ObjectId, ReadOnlyOutcome, SimDuration, SimTime, TCacheError, TCacheResult, TxnId,
    Value, Version, VersionedObject,
};

/// How far the virtual clock advances per operation, in microseconds.
const TICK_MICROS: u64 = 1_000;

/// The outcome of a read-only transaction issued through
/// [`TCacheSystem::read_transaction`].
pub type ReadOutcome = ReadOnlyOutcome;

/// A single-process deployment of the full T-Cache stack.
///
/// The system owns a backend [`Database`], one or more [`EdgeCache`]s and an
/// asynchronous invalidation channel per cache (cache serializability is a
/// per-cache-server property, so every cache has its own independently
/// seeded, independently lossy link from the database). Every commit's
/// invalidations are offered to those links on the committing thread. A
/// link drops and delays per its cache's model in wall-clock time: one
/// reactor thread delivers whatever has a delay, a pause or a backlog to
/// wait behind — so a read can genuinely race an invalidation, as in a real
/// deployment — and a link with nothing to wait for applies the batch
/// before the commit returns; [`TCacheSystem::quiesce`] waits the in-flight
/// ones out. The virtual clock only stamps operations (every operation
/// advances it by 1 ms); it delivers nothing.
///
/// Read-only transactions address a specific cache via
/// [`TCacheSystem::read_transaction_on`]; the id-less methods serve the
/// first cache, which keeps single-cache deployments (the default) as simple
/// as before.
#[derive(Debug)]
pub struct TCacheSystem {
    db: Arc<Database>,
    /// `caches[i].id() == CacheId(i)` — indexed access is the hot path.
    caches: Vec<Arc<EdgeCache>>,
    /// Virtual time in microseconds. It orders nothing but itself, so
    /// `Relaxed` suffices.
    clock: AtomicU64,
    next_txn: AtomicU64,
    reactor: ReactorPlane,
    /// `parents[i]` is the cache index leaf `i` subscribes through in the
    /// two-tier topology; all-`None` in the flat star.
    parents: Vec<Option<usize>>,
}

/// How the builder wires a [`TCacheSystem`] together: pipe shape, per-cache
/// link models and the run seed the delivery tasks derive their RNG streams
/// from.
pub(crate) struct SystemWiring {
    pub(crate) pipe_capacity: usize,
    pub(crate) overflow_policy: OverflowPolicy,
    pub(crate) models: Vec<DeliveryModel>,
    pub(crate) seed: u64,
    /// `parents[i]` names the cache index leaf `i` subscribes through
    /// (two-tier fan-out); all-`None` is the flat star topology.
    pub(crate) parents: Vec<Option<usize>>,
}

/// One cache server's slice of a [`SystemStats`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheNodeStats {
    /// The cache server.
    pub id: CacheId,
    /// This cache's statistics.
    pub cache: CacheStatsSnapshot,
    /// This cache's apply-pipe counters.
    pub pipe: PipeStatsSnapshot,
    /// This cache's link counters — offered / dropped / delivered messages
    /// and total modeled delay, the same fields `tcache-sim`'s
    /// discrete-event plane reports for its links.
    pub delivery: DeliveryStatsSnapshot,
}

/// A combined statistics snapshot of the whole system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// Cache-side statistics summed over every cache.
    pub cache: CacheStatsSnapshot,
    /// Database-side statistics.
    pub db: DbStatsSnapshot,
    /// The per-cache breakdown, ordered by `CacheId`.
    pub per_cache: Vec<CacheNodeStats>,
}

impl TCacheSystem {
    pub(crate) fn new(
        db: Arc<Database>,
        caches: Vec<Arc<EdgeCache>>,
        wiring: SystemWiring,
    ) -> Self {
        assert!(!caches.is_empty(), "a system needs at least one cache");
        debug_assert_eq!(caches.len(), wiring.models.len());
        let parents = if wiring.parents.is_empty() {
            vec![None; caches.len()]
        } else {
            wiring.parents
        };
        assert_eq!(parents.len(), caches.len(), "one parent slot per cache");
        for (leaf, parent) in parents.iter().enumerate() {
            if let Some(p) = *parent {
                assert!(p < caches.len() && p != leaf, "parent index valid");
                assert!(
                    parents[p].is_none(),
                    "a parent must itself be a root (one-level tree)"
                );
            }
        }
        let reactor = ReactorPlane::new(
            &caches,
            wiring.pipe_capacity,
            wiring.overflow_policy,
            &wiring.models,
            wiring.seed,
            &parents,
        );
        // Wire the database's commit-path upcall (§IV) straight into each
        // *root* cache's link, which applies the cache's loss / latency
        // models; in the two-tier topology it also relays what it applies
        // to its children's links, so leaves never appear in the
        // publisher's fan-out list at all.
        for (index, cache) in caches.iter().enumerate() {
            if parents[index].is_some() {
                continue;
            }
            db.register_invalidation_upcall(
                cache.id(),
                modeled_delivery_sink(reactor.link(index), reactor.severed_flag(index)),
            );
        }
        TCacheSystem {
            db,
            caches,
            clock: AtomicU64::new(0),
            next_txn: AtomicU64::new(1),
            reactor,
            parents,
        }
    }

    /// Loads objects into the backend database at their initial version.
    pub fn populate(&self, objects: impl IntoIterator<Item = (ObjectId, Value)>) {
        self.db.populate(objects);
    }

    /// The backend database (for advanced use and inspection).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The first edge cache (the only one in single-cache deployments).
    pub fn edge_cache(&self) -> &EdgeCache {
        &self.caches[0]
    }

    /// The edge cache with the given id, if deployed.
    pub fn cache(&self, id: CacheId) -> Option<&EdgeCache> {
        self.caches.get(id.0 as usize).map(Arc::as_ref)
    }

    /// Number of edge caches this system hosts.
    pub fn cache_count(&self) -> usize {
        self.caches.len()
    }

    /// The deployed cache ids, in order.
    pub fn cache_ids(&self) -> impl Iterator<Item = CacheId> + '_ {
        self.caches.iter().map(|c| c.id())
    }

    /// The parent a cache subscribes through in the two-tier topology, or
    /// `None` if it is a root (every cache is a root in the flat star).
    pub fn cache_parent(&self, id: CacheId) -> Option<CacheId> {
        self.parents
            .get(id.0 as usize)
            .copied()
            .flatten()
            .map(|index| self.caches[index].id())
    }

    /// Number of sinks the database publishes each committed batch to —
    /// every cache in the flat star, only the root caches in the two-tier
    /// topology. This is the root publisher's fan-out, the quantity the
    /// tree exists to shrink.
    pub fn publisher_fanout(&self) -> usize {
        self.parents.iter().filter(|p| p.is_none()).count()
    }

    /// Relay sends dropped on the parent→leaf hop because a leaf's bounded
    /// pipe was full; zero under the default unbounded capacity (and
    /// always zero in the flat star, which has no relay hop).
    pub fn relay_overflows(&self) -> u64 {
        self.reactor.relay_overflows()
    }

    /// The current virtual time of the system.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.clock.load(Ordering::Relaxed))
    }

    /// Advances the virtual clock by `duration`. The clock only stamps
    /// operations (cache insert times, lifecycle transitions); it delivers
    /// nothing — invalidations travel in wall-clock time on the reactor
    /// plane, and [`TCacheSystem::quiesce`] is how a caller waits for them.
    pub fn advance_time(&self, duration: SimDuration) {
        self.clock.fetch_add(duration.as_micros(), Ordering::Relaxed);
    }

    /// Number of [`TCacheSystem::quiesce`] waits that timed out before the
    /// reactor settled.
    #[must_use]
    pub fn quiesce_timeouts(&self) -> u64 {
        self.reactor.quiesce_timeouts()
    }

    /// Waits until every unpaused cache's apply pipe is drained and its
    /// reactor task is idle (in-flight modeled delays included), returning
    /// whether the reactor settled before `timeout`; a `false` return is
    /// counted in [`TCacheSystem::quiesce_timeouts`].
    ///
    /// Always `Ok`: the `TCacheResult` wrapper is **benchmark-pinned**
    /// (`benchmark/src/engine.rs` calls `.expect(..)` on it) and goes with
    /// the next flagged benchmark PR.
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn quiesce(&self, timeout: Duration) -> TCacheResult<bool> {
        Ok(self.reactor.quiesce(timeout))
    }

    /// Looks up the index of a deployed cache.
    fn cache_index(&self, cache: CacheId) -> TCacheResult<usize> {
        let index = cache.0 as usize;
        if index >= self.caches.len() {
            return Err(TCacheError::UnknownCache(cache));
        }
        Ok(index)
    }

    /// Pauses one cache's reactor apply task, modelling a slow or wedged
    /// edge cache: its pipe backs up and the overflow policy takes over.
    ///
    /// The task stops applying at once, but it may already hold up to one
    /// drained batch (`DEFAULT_BATCH_BUDGET` = 64 messages) outside the
    /// pipe; only the backlog past that batch stays in the pipe.
    ///
    /// **Caution:** with a bounded pipe under [`OverflowPolicy::Block`],
    /// backpressure is *hard* — once the paused cache's pipe fills, the
    /// next commit blocks the committing thread inside
    /// [`TCacheSystem::update`] until the cache is resumed. Resume from
    /// another thread, or use a drop policy when wedging a cache on the
    /// thread that also publishes.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnknownCache`] if `cache` is not deployed, and
    /// [`TCacheError::InvalidCacheState`] if the cache is already paused
    /// or currently crashed (a crashed cache has no apply loop to wedge).
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn pause_cache(&self, cache: CacheId) -> TCacheResult<()> {
        let index = self.cache_index(cache)?;
        if self.caches[index].is_crashed() {
            return Err(TCacheError::InvalidCacheState {
                cache,
                operation: "pause",
                state: "crashed",
            });
        }
        if self.reactor.is_paused(index) {
            return Err(TCacheError::InvalidCacheState {
                cache,
                operation: "pause",
                state: "paused",
            });
        }
        self.reactor.set_paused(index, true);
        Ok(())
    }

    /// Resumes a cache paused by [`TCacheSystem::pause_cache`]; its apply
    /// task drains whatever backlog accumulated.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnknownCache`] if `cache` is not deployed,
    /// and [`TCacheError::InvalidCacheState`] if the cache was never paused.
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn resume_cache(&self, cache: CacheId) -> TCacheResult<()> {
        let index = self.cache_index(cache)?;
        if !self.reactor.is_paused(index) {
            return Err(TCacheError::InvalidCacheState {
                cache,
                operation: "resume",
                state: "running",
            });
        }
        self.reactor.set_paused(index, false);
        Ok(())
    }

    /// Crashes one cache at virtual time `now`: its local store is lost
    /// and its invalidation link is severed — publishes to it are
    /// discarded at once instead of entering its pipe, so a crashed cache
    /// can never block the commit path. The cache stays down until
    /// [`restart_cache`](TCacheSystem::restart_cache).
    ///
    /// # Errors
    /// Returns [`TCacheError::UnknownCache`] if `cache` is not deployed.
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn crash_cache(&self, cache: CacheId, now: SimTime) -> TCacheResult<()> {
        let index = self.cache_index(cache)?;
        self.reactor.set_severed(index, true);
        self.caches[index].crash(now);
        Ok(())
    }

    /// Restarts a crashed cache: the link is restored and the cache comes
    /// back cold, adopting the database's current invalidation-stream
    /// position (see [`EdgeCache::restart`]).
    ///
    /// # Errors
    /// Same conditions as [`TCacheSystem::crash_cache`].
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn restart_cache(&self, cache: CacheId) -> TCacheResult<()> {
        let index = self.cache_index(cache)?;
        self.caches[index].restart();
        self.reactor.set_severed(index, false);
        Ok(())
    }

    /// Partitions one cache from the database at virtual time `now`: its
    /// store stays intact and keeps serving (staling) reads, but its
    /// invalidation link is severed until
    /// [`heal_cache`](TCacheSystem::heal_cache).
    ///
    /// # Errors
    /// Same conditions as [`TCacheSystem::crash_cache`].
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn partition_cache(&self, cache: CacheId, now: SimTime) -> TCacheResult<()> {
        let index = self.cache_index(cache)?;
        self.reactor.set_severed(index, true);
        self.caches[index].disconnect(now);
        Ok(())
    }

    /// Heals a partitioned cache's link; under
    /// [`RecoveryPolicy`](tcache_types::RecoveryPolicy)`::GapResync` the
    /// cache resyncs from the database's invalidation log before resuming
    /// cached reads (see [`EdgeCache::reconnect`]).
    ///
    /// # Errors
    /// Same conditions as [`TCacheSystem::crash_cache`].
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn heal_cache(&self, cache: CacheId) -> TCacheResult<()> {
        let index = self.cache_index(cache)?;
        self.reactor.set_severed(index, false);
        self.caches[index].reconnect();
        Ok(())
    }

    /// Whether a cache's invalidation link is currently severed by a
    /// crash or partition.
    pub fn is_cache_severed(&self, cache: CacheId) -> bool {
        self.cache_index(cache)
            .is_ok_and(|index| self.reactor.is_severed(index))
    }

    /// Sets the delay surcharge added to every invalidation delivered to
    /// `cache` on top of its modeled latency (a fault-plan delay spike;
    /// [`SimDuration::ZERO`] clears it); the cache's delivery task sleeps
    /// it out in wall-clock time.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnknownCache`] if `cache` is not deployed.
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn set_cache_extra_delay(&self, cache: CacheId, extra: SimDuration) -> TCacheResult<()> {
        let index = self.cache_index(cache)?;
        self.reactor.set_extra_delay(index, extra);
        Ok(())
    }

    /// Whether a cache's reactor apply task is paused.
    pub fn is_cache_paused(&self, cache: CacheId) -> bool {
        self.cache_index(cache)
            .is_ok_and(|index| self.reactor.is_paused(index))
    }

    /// The reactor's counters. Always `Some`: the `Option` is
    /// **benchmark-pinned** (`benchmark/src/engine.rs` calls `.expect(..)`
    /// on it) and goes with the next flagged benchmark PR.
    #[must_use]
    pub fn reactor_stats(&self) -> Option<ReactorStats> {
        Some(self.reactor.reactor_stats())
    }

    /// Invalidations the live plane has applied to one cache so far, on the
    /// reactor thread or a committing one (`None` for an unknown cache).
    pub fn reactor_applied(&self, cache: CacheId) -> Option<u64> {
        self.cache_index(cache)
            .ok()
            .map(|index| self.reactor.delivery_stats(index).delivered)
    }

    /// Executes an update transaction that reads and rewrites every object
    /// in `objects` (bumping its numeric payload), returning the version the
    /// transaction installed. The commit itself offers the invalidations to
    /// every cache's link; they are delivered asynchronously, or before
    /// `update` returns when the link has nothing to wait for; only
    /// [`TCacheSystem::quiesce`] tells a caller they have all landed.
    ///
    /// # Errors
    /// Returns an error if any object is unknown or the database aborts the
    /// transaction.
    pub fn update(&self, objects: &[ObjectId]) -> TCacheResult<Version> {
        let txn = self.next_txn();
        let access: tcache_types::AccessSet = objects.iter().copied().collect();
        let commit = self.db.execute_update(txn, &access)?;
        self.advance_time(SimDuration::from_micros(TICK_MICROS));
        Ok(commit.version)
    }

    /// Executes an update transaction writing explicit values.
    ///
    /// # Errors
    /// Returns an error if any object is unknown or the database aborts the
    /// transaction.
    pub fn update_values(&self, writes: &[(ObjectId, Value)]) -> TCacheResult<Version> {
        let txn = self.next_txn();
        let records = writes
            .iter()
            .map(|(o, v)| tcache_types::WriteRecord::new(*o, v.clone()))
            .collect();
        let reads: Vec<ObjectId> = writes.iter().map(|(o, _)| *o).collect();
        let commit = self.db.execute_update_writes(txn, &reads, records)?;
        self.advance_time(SimDuration::from_micros(TICK_MICROS));
        Ok(commit.version)
    }

    /// Executes a read-only transaction through the given edge cache. The
    /// reads are checked against each other with the T-Cache violation
    /// predicates; a detected inconsistency is reported as
    /// [`ReadOutcome::Aborted`] (when the configured strategy cannot repair
    /// it locally).
    ///
    /// # Errors
    /// Returns an error if `cache` is not deployed or any object does not
    /// exist in the backend.
    pub fn read_transaction_on(
        &self,
        cache: CacheId,
        objects: &[ObjectId],
    ) -> TCacheResult<ReadOutcome> {
        self.read_transaction_as(cache, objects)
            .map(|(_, outcome)| outcome)
    }

    /// [`read_transaction_on`](TCacheSystem::read_transaction_on), also
    /// returning the id allocated for the transaction.
    fn read_transaction_as(
        &self,
        cache: CacheId,
        objects: &[ObjectId],
    ) -> TCacheResult<(TxnId, ReadOutcome)> {
        let server = self
            .cache(cache)
            .ok_or(TCacheError::UnknownCache(cache))?;
        let txn = self.next_txn();
        let now = self.now();
        let outcome = server.execute_transaction(now, txn, objects)?;
        self.advance_time(SimDuration::from_micros(TICK_MICROS));
        Ok((txn, outcome))
    }

    /// Executes a read-only transaction through the first edge cache.
    ///
    /// # Errors
    /// Returns an error if any object does not exist in the backend.
    pub fn read_transaction(&self, objects: &[ObjectId]) -> TCacheResult<ReadOutcome> {
        self.read_transaction_on(self.caches[0].id(), objects)
    }

    /// Reads a single object through the given cache (a one-read
    /// transaction).
    ///
    /// # Errors
    /// Returns an error if `cache` is not deployed or the object does not
    /// exist in the backend.
    pub fn read_on(&self, cache: CacheId, object: ObjectId) -> TCacheResult<VersionedObject> {
        match self.read_transaction_as(cache, &[object])? {
            (_, ReadOnlyOutcome::Committed(mut values)) => {
                Ok(values.pop().expect("single-read transaction returns one value"))
            }
            (txn, ReadOnlyOutcome::Aborted { violating_object }) => {
                Err(TCacheError::InconsistencyAbort {
                    txn,
                    violating_object,
                })
            }
        }
    }

    /// Reads a single object through the first cache.
    ///
    /// # Errors
    /// Returns an error if the object does not exist in the backend.
    pub fn read(&self, object: ObjectId) -> TCacheResult<VersionedObject> {
        self.read_on(self.caches[0].id(), object)
    }

    /// A combined statistics snapshot: aggregates over every cache plus the
    /// per-cache breakdown.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        let per_cache: Vec<CacheNodeStats> = self
            .caches
            .iter()
            .enumerate()
            .map(|(index, cache)| CacheNodeStats {
                id: cache.id(),
                cache: cache.stats(),
                pipe: self.reactor.pipe_stats(index),
                delivery: self.reactor.delivery_stats(index),
            })
            .collect();
        let mut cache_total = CacheStatsSnapshot::default();
        for node in &per_cache {
            cache_total.merge(node.cache);
        }
        SystemStats {
            cache: cache_total,
            db: self.db.stats(),
            per_cache,
        }
    }

    fn next_txn(&self) -> TxnId {
        TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }
}

impl Drop for TCacheSystem {
    /// Unregisters every cache's upcall. Each sink owns its cache's link,
    /// whose apply owns the cache, whose backend is the database that owns
    /// the sink — a reference cycle that would otherwise keep the database,
    /// the caches and everything they hold alive for good.
    fn drop(&mut self) {
        for cache in &self.caches {
            self.db.unregister_invalidation_upcall(cache.id());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::SystemBuilder;
    use std::sync::atomic::Ordering;
    use std::time::Duration;
    use tcache_types::{CacheId, ObjectId, SimDuration, Strategy, TCacheError, TxnId, Value};

    /// Generous: the reactor usually settles in microseconds.
    const SETTLE: Duration = Duration::from_secs(10);

    fn small_system(loss: f64) -> super::TCacheSystem {
        let system = SystemBuilder::new()
            .dependency_bound(3)
            .strategy(Strategy::Abort)
            .invalidation_loss(loss)
            .seed(7)
            .build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        system
    }

    fn multi_system(losses: &[f64]) -> super::TCacheSystem {
        let system = SystemBuilder::new()
            .dependency_bound(3)
            .strategy(Strategy::Abort)
            .cache_loss_rates(losses.to_vec())
            .seed(7)
            .build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        system
    }

    #[test]
    fn update_then_read_round_trip() {
        let system = small_system(0.0);
        let v1 = system.update(&[ObjectId(1), ObjectId(2)]).unwrap();
        let outcome = system
            .read_transaction(&[ObjectId(1), ObjectId(2)])
            .unwrap();
        let values = outcome.values().expect("committed");
        assert_eq!(values.len(), 2);
        assert!(values.iter().all(|v| v.version == v1));
        assert_eq!(system.read(ObjectId(1)).unwrap().version, v1);
        assert!(system.stats().db.updates_committed >= 1);
        assert!(system.now() > tcache_types::SimTime::ZERO);
        assert_eq!(system.cache_count(), 1);
    }

    #[test]
    fn dropping_the_system_frees_the_database_and_the_caches() {
        // Sink → link → apply closure → cache → database → sinks is a
        // reference cycle; the system's `Drop` must break it.
        let system = multi_system(&[0.0, 0.2]);
        let db = std::sync::Arc::downgrade(system.database());
        system.update(&[ObjectId(1)]).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        drop(system);
        assert!(db.upgrade().is_none(), "the dropped system leaked its database");
    }

    #[test]
    fn update_values_writes_explicit_payloads() {
        let system = small_system(0.0);
        system
            .update_values(&[(ObjectId(3), Value::new(99))])
            .unwrap();
        assert_eq!(system.read(ObjectId(3)).unwrap().value.numeric(), 99);
    }

    #[test]
    fn lossy_channel_leaves_stale_entries_that_tcache_detects() {
        // Loss of 100 % means no invalidation ever arrives; after warming the
        // cache and updating the pair, the mixed read must be detected.
        let system = small_system(1.0);
        system.read_transaction(&[ObjectId(1)]).unwrap(); // warm object 1 only
        system.update(&[ObjectId(1), ObjectId(2)]).unwrap();
        // Object 2 misses (fresh), object 1 is stale in the cache.
        let outcome = system
            .read_transaction(&[ObjectId(2), ObjectId(1)])
            .unwrap();
        assert!(outcome.is_aborted(), "the stale pair must be detected");
        assert!(system.read(ObjectId(2)).is_ok());

        // A lone read can only abort by joining a transaction already open
        // under its id: open one on the cache, key by key, under the id the
        // facade allocates next. The error names that id.
        let txn = TxnId(system.next_txn.load(Ordering::Relaxed));
        let cache = system.cache(CacheId(0)).unwrap();
        cache.read(system.now(), txn, ObjectId(2), false).unwrap();
        assert_eq!(
            system.read(ObjectId(1)).unwrap_err(),
            TCacheError::InconsistencyAbort {
                txn,
                violating_object: ObjectId(1),
            }
        );
        assert_eq!(cache.open_transactions(), 0);
    }

    #[test]
    fn unknown_objects_error() {
        let system = small_system(0.0);
        assert!(system.update(&[ObjectId(999)]).is_err());
        assert!(system.read(ObjectId(999)).is_err());
        assert!(system.read_transaction(&[ObjectId(999)]).is_err());
    }

    #[test]
    fn advance_time_only_stamps_and_quiesce_waits_for_delivery() {
        let system = small_system(0.0);
        system.read_transaction(&[ObjectId(5)]).unwrap();
        system.update(&[ObjectId(5)]).unwrap();
        let before = system.now();
        system.advance_time(SimDuration::from_secs(1));
        assert_eq!(system.now(), before + SimDuration::from_secs(1));
        assert!(system.quiesce(SETTLE).unwrap());
        // The cached copy was invalidated, so the next read misses and sees
        // the new version.
        let v = system.read(ObjectId(5)).unwrap();
        assert!(v.version > tcache_types::Version::INITIAL);
        assert!(system.stats().per_cache[0].delivery.offered >= 1);
    }

    #[test]
    fn a_quiesce_that_times_out_is_counted_and_a_settled_one_is_not() {
        let system = SystemBuilder::new()
            .invalidation_delay_millis(200)
            .seed(7)
            .build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        system.update(&[ObjectId(1)]).unwrap();
        // The invalidation is in flight on its 200 ms modeled delay.
        assert_eq!(system.quiesce(Duration::from_millis(1)), Ok(false));
        assert_eq!(system.quiesce_timeouts(), 1);
        assert_eq!(system.quiesce(SETTLE), Ok(true));
        assert_eq!(system.quiesce_timeouts(), 1);
    }

    #[test]
    fn multi_cache_system_serves_each_cache_independently() {
        let system = multi_system(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(system.cache_count(), 4);
        assert_eq!(
            system.cache_ids().collect::<Vec<_>>(),
            (0..4).map(CacheId).collect::<Vec<_>>()
        );
        let v = system.update(&[ObjectId(1)]).unwrap();
        for id in 0..4u32 {
            let got = system.read_on(CacheId(id), ObjectId(1)).unwrap();
            assert_eq!(got.version, v);
        }
        assert!(system.quiesce(SETTLE).unwrap());
        let stats = system.stats();
        assert_eq!(stats.per_cache.len(), 4);
        // Every link carried the invalidation.
        for node in &stats.per_cache {
            assert_eq!(node.delivery.offered, 1);
            assert_eq!(node.cache.reads, 1);
        }
        // Aggregates sum the per-cache views.
        assert_eq!(stats.cache.reads, 4);
        // Addressing an undeployed cache errors.
        assert_eq!(
            system.read_on(CacheId(9), ObjectId(1)).unwrap_err(),
            TCacheError::UnknownCache(CacheId(9))
        );
    }

    #[test]
    fn reactor_transport_round_trips_and_reports_pipe_stats() {
        let system = SystemBuilder::new()
            .dependency_bound(3)
            .strategy(Strategy::Abort)
            .caches(4)
            .seed(7)
            .build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        for id in 0..4u32 {
            system.read_on(CacheId(id), ObjectId(1)).unwrap();
        }
        let v = system.update(&[ObjectId(1), ObjectId(2)]).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        // The reactor applied the invalidations: every cache misses and
        // re-reads the new version.
        for id in 0..4u32 {
            assert_eq!(system.read_on(CacheId(id), ObjectId(1)).unwrap().version, v);
            assert!(system.reactor_applied(CacheId(id)).unwrap() >= 1);
        }
        let stats = system.stats();
        for node in &stats.per_cache {
            assert!(node.pipe.enqueued >= 1, "{}: {:?}", node.id, node.pipe);
            assert_eq!(node.pipe.overflow_dropped(), 0);
        }
        let reactor = system.reactor_stats().expect("always Some");
        assert_eq!(reactor.spawned, 4);
        assert!(reactor.wakes > 0);
        assert_eq!(system.quiesce_timeouts(), 0);
    }

    #[test]
    fn two_tier_fanout_reaches_each_leaf_exactly_once_through_its_parent() {
        use crate::builder::two_tier_parents;
        // Caches 0 and 1 are roots; leaves 2/4 subscribe through 0 and
        // leaves 3/5 through 1.
        let system = SystemBuilder::new()
            .caches(6)
            .cache_parents(two_tier_parents(2, 2))
            .seed(7)
            .build();
        assert_eq!(system.publisher_fanout(), 2, "DB publishes to roots only");
        assert_eq!(system.cache_parent(CacheId(0)), None);
        assert_eq!(system.cache_parent(CacheId(2)), Some(CacheId(0)));
        assert_eq!(system.cache_parent(CacheId(5)), Some(CacheId(1)));
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));

        system.update(&[ObjectId(1)]).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        let stats = system.stats();
        for node in &stats.per_cache {
            assert_eq!(
                node.delivery.delivered, 1,
                "cache {}: every cache sees the invalidation exactly once",
                node.id
            );
            assert_eq!(node.delivery.offered, 1, "cache {}", node.id);
            assert_eq!(node.delivery.dropped, 0, "cache {}", node.id);
        }
        assert_eq!(system.relay_overflows(), 0);

        // Severing parent 0 (crash) silences exactly its subtree {2, 4};
        // root 1's subtree keeps receiving.
        system.crash_cache(CacheId(0), system.now()).unwrap();
        system.update(&[ObjectId(2)]).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        let stats = system.stats();
        for node in &stats.per_cache {
            let expected = match node.id.0 {
                0 | 2 | 4 => 1,
                _ => 2,
            };
            assert_eq!(node.delivery.delivered, expected, "cache {}", node.id);
        }
        // Lifecycle counters: the crash is the parent's alone — the leaves
        // themselves never transitioned.
        assert_eq!(
            system.cache(CacheId(0)).unwrap().lifecycle_stats().crashes,
            1
        );
        for leaf in [2u32, 3, 4, 5] {
            assert_eq!(
                system
                    .cache(CacheId(leaf))
                    .unwrap()
                    .lifecycle_stats()
                    .crashes,
                0,
                "leaf {leaf}"
            );
        }

        // Restarting the parent heals the whole subtree.
        system.restart_cache(CacheId(0)).unwrap();
        system.update(&[ObjectId(3)]).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        let stats = system.stats();
        for node in &stats.per_cache {
            let expected = match node.id.0 {
                0 | 2 | 4 => 2,
                _ => 3,
            };
            assert_eq!(node.delivery.delivered, expected, "cache {}", node.id);
        }

        // The flat star at equal leaf count publishes to every cache.
        let star = SystemBuilder::new().caches(6).seed(7).build();
        assert_eq!(star.publisher_fanout(), 6);
        assert!(system.publisher_fanout() < star.publisher_fanout());
    }

    #[test]
    fn pause_cache_distinguishes_unknown_cache_from_missing_reactor() {
        let system = SystemBuilder::new().caches(2).build();
        assert!(system.pause_cache(CacheId(1)).is_ok());
        assert!(system.is_cache_paused(CacheId(1)));
        assert!(system.resume_cache(CacheId(1)).is_ok());
        assert!(!system.is_cache_paused(CacheId(1)));
        assert_eq!(
            system.pause_cache(CacheId(9)),
            Err(TCacheError::UnknownCache(CacheId(9)))
        );
        assert_eq!(
            system.resume_cache(CacheId(9)),
            Err(TCacheError::UnknownCache(CacheId(9)))
        );
    }

    #[test]
    fn pause_and_resume_report_state_errors() {
        let system = SystemBuilder::new().caches(2).build();
        // Resuming a never-paused cache is a state error, not a no-op.
        assert_eq!(
            system.resume_cache(CacheId(0)),
            Err(TCacheError::InvalidCacheState {
                cache: CacheId(0),
                operation: "resume",
                state: "running",
            })
        );
        // Double pause is a state error too.
        system.pause_cache(CacheId(0)).unwrap();
        assert_eq!(
            system.pause_cache(CacheId(0)),
            Err(TCacheError::InvalidCacheState {
                cache: CacheId(0),
                operation: "pause",
                state: "paused",
            })
        );
        system.resume_cache(CacheId(0)).unwrap();
        // A crashed cache has no apply loop to pause.
        system.crash_cache(CacheId(0), system.now()).unwrap();
        assert_eq!(
            system.pause_cache(CacheId(0)),
            Err(TCacheError::InvalidCacheState {
                cache: CacheId(0),
                operation: "pause",
                state: "crashed",
            })
        );
        system.restart_cache(CacheId(0)).unwrap();
        assert!(system.pause_cache(CacheId(0)).is_ok());
        system.resume_cache(CacheId(0)).unwrap();
    }

    #[test]
    fn crash_severs_the_link_and_restart_restores_it() {
        let system = SystemBuilder::new().caches(2).seed(7).build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        system.read_on(CacheId(0), ObjectId(1)).unwrap();

        system.crash_cache(CacheId(0), system.now()).unwrap();
        assert!(system.is_cache_severed(CacheId(0)));
        assert!(system.cache(CacheId(0)).unwrap().is_crashed());
        assert!(!system.is_cache_severed(CacheId(1)));

        // Updates while down are discarded at cache 0's link but delivered
        // to cache 1.
        let v = system.update(&[ObjectId(1)]).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        assert_eq!(system.read_on(CacheId(1), ObjectId(1)).unwrap().version, v);

        system.restart_cache(CacheId(0)).unwrap();
        assert!(!system.is_cache_severed(CacheId(0)));
        assert!(!system.cache(CacheId(0)).unwrap().is_crashed());
        // The restarted cold cache reads the current version.
        assert_eq!(system.read_on(CacheId(0), ObjectId(1)).unwrap().version, v);
        assert_eq!(
            system.cache(CacheId(0)).unwrap().lifecycle_stats().crashes,
            1
        );
    }

    #[test]
    fn a_crash_discards_what_is_in_flight_to_the_cache() {
        let system = SystemBuilder::new()
            .invalidation_delay_millis(20)
            .seed(7)
            .build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        let cache = system.cache(CacheId(0)).unwrap();
        let before = cache.last_applied_seq();
        system.update(&[ObjectId(1)]).unwrap();
        // The invalidation is 20 ms from landing when the cache goes down.
        system.crash_cache(CacheId(0), system.now()).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        assert_eq!(
            cache.last_applied_seq(),
            before,
            "a crashed cache applied an invalidation"
        );
        // Discarded at its deadline, and counted delivered there, as on the
        // discrete-event plane.
        assert_eq!(system.stats().per_cache[0].delivery.delivered, 1);
    }

    #[test]
    fn partition_and_heal_resync_under_gap_resync_policy() {
        let system = SystemBuilder::new()
            .caches(1)
            .recovery_policy(tcache_types::RecoveryPolicy::GapResync {
                staleness_budget: SimDuration::from_secs(3600),
            })
            .seed(7)
            .build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        system.read(ObjectId(1)).unwrap();

        system.partition_cache(CacheId(0), system.now()).unwrap();
        let v = system.update(&[ObjectId(1)]).unwrap();
        system.advance_time(SimDuration::from_secs(1));
        // Partitioned within budget: the stale local copy is still served.
        assert_eq!(
            system.read(ObjectId(1)).unwrap().version,
            tcache_types::Version::INITIAL
        );

        system.heal_cache(CacheId(0)).unwrap();
        // The reconnect replayed the invalidation log: the stale entry is
        // gone and the fresh version is read through.
        assert_eq!(system.read(ObjectId(1)).unwrap().version, v);
        let lifecycle = system.cache(CacheId(0)).unwrap().lifecycle_stats();
        assert_eq!(lifecycle.partitions, 1);
        assert_eq!(lifecycle.reconnects, 1);
        assert_eq!(lifecycle.log_replays, 1);
    }

    #[test]
    fn extra_delay_spikes_hold_back_delivery_until_they_are_slept_out() {
        let system = small_system(0.0);
        system.read_transaction(&[ObjectId(5)]).unwrap();
        // Spike cache 0's zero-delay link.
        let spike = SimDuration::from_millis(150);
        system.set_cache_extra_delay(CacheId(0), spike).unwrap();
        system.update(&[ObjectId(5)]).unwrap();
        // Still in flight: its deadline carries the surcharge, so the
        // reactor cannot settle yet.
        assert_eq!(system.quiesce(Duration::from_millis(1)), Ok(false));
        assert!(system.quiesce(SETTLE).unwrap());
        assert!(system.read(ObjectId(5)).unwrap().version > tcache_types::Version::INITIAL);
        let delivery = system.stats().per_cache[0].delivery;
        assert_eq!(delivery.delay_micros, spike.as_micros());

        // Clearing the spike restores the zero-delay link.
        system.set_cache_extra_delay(CacheId(0), SimDuration::ZERO).unwrap();
        system.update(&[ObjectId(5)]).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        let delivery = system.stats().per_cache[0].delivery;
        assert_eq!((delivery.delivered, delivery.delay_micros), (2, spike.as_micros()));
        assert_eq!(
            system.set_cache_extra_delay(CacheId(9), SimDuration::ZERO),
            Err(TCacheError::UnknownCache(CacheId(9)))
        );
    }

    #[test]
    fn heterogeneous_loss_hits_only_the_lossy_cache() {
        // Cache 0 has a perfect link, cache 1 loses everything. After an
        // update, cache 0's stale entry is invalidated while cache 1 keeps
        // serving the old version — per-cache isolation of the loss process.
        let system = multi_system(&[0.0, 1.0]);
        system.read_on(CacheId(0), ObjectId(1)).unwrap();
        system.read_on(CacheId(1), ObjectId(1)).unwrap();
        let v = system.update(&[ObjectId(1)]).unwrap();
        assert!(system.quiesce(SETTLE).unwrap());
        assert_eq!(system.read_on(CacheId(0), ObjectId(1)).unwrap().version, v);
        assert_eq!(
            system.read_on(CacheId(1), ObjectId(1)).unwrap().version,
            tcache_types::Version::INITIAL,
            "cache 1's invalidation was lost, its entry stays stale"
        );
        let stats = system.stats();
        assert_eq!(stats.per_cache[0].delivery.dropped, 0);
        assert_eq!(stats.per_cache[1].delivery.delivered, 0);
    }
}
