//! A single-process T-Cache deployment: database + N edge caches.

use crate::transport::{modeled_delivery_sink, DeliveryMode, ReactorPlane, RetryPolicy, TransportMode};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tcache_cache::{CacheStatsSnapshot, EdgeCache};
use tcache_db::stats::DbStatsSnapshot;
use tcache_db::Database;
use tcache_net::channel::ChannelStats;
use tcache_net::delivery::{DeliveryModel, DeliveryStatsSnapshot};
use tcache_net::fanout::InvalidationFanout;
use tcache_net::pipe::{OverflowPolicy, PipeStatsSnapshot};
use tcache_net::reactor::ReactorStats;
use tcache_types::{
    CacheId, ObjectId, ReadOnlyOutcome, SimDuration, SimTime, TCacheError, TCacheResult, TxnId,
    Value, Version, VersionedObject,
};

/// How long [`TCacheSystem::advance_time`] waits for the reactor to settle
/// before giving up (generous: the reactor usually drains in microseconds).
const ADVANCE_QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);

/// The outcome of a read-only transaction issued through
/// [`TCacheSystem::read_transaction`].
pub type ReadOutcome = ReadOnlyOutcome;

/// A single-process deployment of the full T-Cache stack.
///
/// The system owns a backend [`Database`], one or more [`EdgeCache`]s and an
/// asynchronous invalidation channel per cache (cache serializability is a
/// per-cache-server property, so every cache has its own independently
/// seeded, independently lossy pipe from the database). It drives a virtual
/// clock: every operation advances time by a small tick and delivers the
/// invalidations that have become due, so the asynchronous (and, if
/// configured, lossy) nature of the channels is preserved even in a single
/// process.
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
    fanout: Mutex<InvalidationFanout>,
    /// Virtual time in microseconds. It orders nothing but itself (the
    /// clocked fan-out has its own mutex), so `Relaxed` suffices.
    clock: AtomicU64,
    tick: SimDuration,
    next_txn: AtomicU64,
    mode: TransportMode,
    delivery: DeliveryMode,
    /// Present iff `mode == TransportMode::Reactor`.
    reactor: Option<ReactorPlane>,
    /// `parents[i]` is the cache index leaf `i` subscribes through in the
    /// two-tier topology; all-`None` in the flat star.
    parents: Vec<Option<usize>>,
}

/// How the builder wires a [`TCacheSystem`] together: transport and
/// delivery planes, pipe shape, per-cache link models and the run seed the
/// delivery tasks derive their RNG streams from.
pub(crate) struct SystemWiring {
    pub(crate) tick: SimDuration,
    pub(crate) mode: TransportMode,
    pub(crate) delivery: DeliveryMode,
    pub(crate) pipe_capacity: usize,
    pub(crate) overflow_policy: OverflowPolicy,
    pub(crate) models: Vec<DeliveryModel>,
    pub(crate) seed: u64,
    pub(crate) retry: RetryPolicy,
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
    /// This cache's invalidation-channel statistics. Under
    /// [`DeliveryMode::Modeled`] these are synthesized from the publisher
    /// and delivery-task counters (the discrete-event channels are idle),
    /// so the same fields describe the link on either delivery plane.
    pub channel: ChannelStats,
    /// This cache's apply-pipe counters (all zero in
    /// [`TransportMode::Threaded`], which has no pipes).
    pub pipe: PipeStatsSnapshot,
    /// This cache's delivery-task counters — offered / dropped / delivered
    /// messages and total modeled delay — nonzero only under
    /// [`TransportMode::Reactor`] (and only the delivered/offered columns
    /// move under [`DeliveryMode::Clocked`], where the task is a reliable
    /// pass-through).
    pub delivery: DeliveryStatsSnapshot,
}

/// A combined statistics snapshot of the whole system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// Cache-side statistics summed over every cache.
    pub cache: CacheStatsSnapshot,
    /// Database-side statistics.
    pub db: DbStatsSnapshot,
    /// Invalidation channel statistics summed over every per-cache channel.
    pub channel: ChannelStats,
    /// The per-cache breakdown, ordered by `CacheId`.
    pub per_cache: Vec<CacheNodeStats>,
}

impl TCacheSystem {
    pub(crate) fn new(
        db: Arc<Database>,
        caches: Vec<Arc<EdgeCache>>,
        fanout: InvalidationFanout,
        wiring: SystemWiring,
    ) -> Self {
        assert!(!caches.is_empty(), "a system needs at least one cache");
        debug_assert_eq!(caches.len(), fanout.cache_count());
        debug_assert_eq!(caches.len(), wiring.models.len());
        let parents = if wiring.parents.is_empty() {
            vec![None; caches.len()]
        } else {
            wiring.parents
        };
        assert_eq!(parents.len(), caches.len(), "one parent slot per cache");
        let two_tier = parents.iter().any(Option::is_some);
        if two_tier {
            assert_eq!(
                wiring.delivery,
                DeliveryMode::Modeled,
                "two-tier fan-out needs the modeled reactor pipeline"
            );
            for (leaf, parent) in parents.iter().enumerate() {
                if let Some(p) = *parent {
                    assert!(p < caches.len() && p != leaf, "parent index valid");
                    assert!(
                        parents[p].is_none(),
                        "a parent must itself be a root (one-level tree)"
                    );
                }
            }
        }
        let reactor = match wiring.mode {
            TransportMode::Threaded => None,
            TransportMode::Reactor => Some(ReactorPlane::new(
                &caches,
                wiring.pipe_capacity,
                wiring.overflow_policy,
                &wiring.models,
                wiring.seed,
                &parents,
            )),
        };
        if wiring.delivery == DeliveryMode::Modeled {
            // The live plane: wire the database's commit-path upcall (§IV)
            // straight into each *root* cache's delivery pipe. The reactor
            // task on the other end applies the cache's loss / latency
            // models; in the two-tier topology it also relays what it
            // applies into its children's pipes, so leaves never appear in
            // the publisher's fan-out list at all.
            let plane = reactor
                .as_ref()
                .expect("builder enforces Reactor transport for modeled delivery");
            for (index, cache) in caches.iter().enumerate() {
                if parents[index].is_some() {
                    continue;
                }
                db.register_reporting_invalidation_upcall(
                    cache.id(),
                    modeled_delivery_sink(
                        cache.id(),
                        plane.sender(index),
                        plane.severed_flag(index),
                        wiring.retry,
                    ),
                );
            }
        }
        TCacheSystem {
            db,
            caches,
            fanout: Mutex::new(fanout),
            clock: AtomicU64::new(0),
            tick: wiring.tick,
            next_txn: AtomicU64::new(1),
            mode: wiring.mode,
            delivery: wiring.delivery,
            reactor,
            parents,
        }
    }

    /// The transport mode this system was built with.
    pub fn transport_mode(&self) -> TransportMode {
        self.mode
    }

    /// The delivery mode this system was built with.
    pub fn delivery_mode(&self) -> DeliveryMode {
        self.delivery
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
        self.reactor.as_ref().map_or(0, |p| p.relay_overflows())
    }

    /// The current virtual time of the system.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.clock.load(Ordering::Relaxed))
    }

    /// Advances the virtual clock by `duration`, delivering every
    /// invalidation that becomes due on every cache's channel. Use this to
    /// model elapsed wall-clock time between transactions.
    ///
    /// Under [`TransportMode::Threaded`] the deliveries are applied
    /// synchronously on the calling thread. Under
    /// [`TransportMode::Reactor`] they are pushed down each cache's bounded
    /// pipe (applying its overflow policy — a full `Block` pipe blocks
    /// *here*, which is the backpressure landing on the committing client)
    /// and the call then waits for the reactor to settle, so unpaused
    /// caches observe the same state as in threaded mode. A paused cache's
    /// backlog is intentionally left in its pipe.
    pub fn advance_time(&self, duration: SimDuration) {
        let elapsed = duration.as_micros();
        let now = SimTime::from_micros(self.clock.fetch_add(elapsed, Ordering::Relaxed) + elapsed);
        // Modeled delivery never routes through the discrete-event fanout
        // (the commit path feeds the pipes directly and the delivery tasks
        // run the clock-free link models), so there is nothing to deliver
        // — skip the fanout lock on this per-operation path entirely.
        if self.delivery == DeliveryMode::Modeled {
            return;
        }
        let due = self.fanout.lock().due(now);
        match &self.reactor {
            None => {
                for (cache, invalidation) in due {
                    self.caches[cache.0 as usize].apply_invalidation(invalidation);
                }
            }
            Some(plane) => {
                // Nothing became due: nothing new entered any pipe, and
                // prior deliveries were quiesced by the advance that made
                // them — skip the per-pipe settle pass on this hot path.
                // (An unpaused cache still draining a backlog is covered by
                // the explicit `quiesce()` the pause workflow uses.)
                if due.is_empty() {
                    return;
                }
                for (cache, invalidation) in due {
                    plane.deliver(cache.0 as usize, invalidation);
                }
                if !plane.quiesce(ADVANCE_QUIESCE_TIMEOUT) {
                    // The reactor did not settle: reads may briefly observe
                    // state a threaded transport would have invalidated.
                    // Counted so operators and tests can detect it — see
                    // [`TCacheSystem::quiesce_timeouts`].
                    plane.record_quiesce_timeout();
                }
            }
        }
    }

    /// Number of [`TCacheSystem::advance_time`] calls whose quiesce wait
    /// timed out before the reactor settled (always 0 in threaded mode).
    /// Nonzero means the threaded-equivalence guarantee was briefly
    /// violated: a read may have seen an entry the reactor had not yet
    /// invalidated.
    #[must_use]
    pub fn quiesce_timeouts(&self) -> u64 {
        self.reactor.as_ref().map_or(0, |p| p.quiesce_timeouts())
    }

    /// Waits until every unpaused cache's apply pipe is drained and its
    /// reactor task is idle (in-flight modeled delays included), returning
    /// whether the reactor settled before `timeout`.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnsupportedTransport`] in
    /// [`TransportMode::Threaded`], which has no reactor to quiesce —
    /// distinguishing "nothing to wait for because deliveries are
    /// synchronous" from "the reactor settled" used to hide wiring bugs
    /// behind a silent `true`.
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn quiesce(&self, timeout: Duration) -> TCacheResult<bool> {
        match &self.reactor {
            None => Err(TCacheError::UnsupportedTransport {
                operation: "quiesce (no reactor under TransportMode::Threaded)",
            }),
            Some(plane) => Ok(plane.quiesce(timeout)),
        }
    }

    /// Looks up the index of a deployed cache.
    fn cache_index(&self, cache: CacheId) -> TCacheResult<usize> {
        let index = cache.0 as usize;
        if index >= self.caches.len() {
            return Err(TCacheError::UnknownCache(cache));
        }
        Ok(index)
    }

    /// The reactor plane, or the error naming the operation that needs it.
    fn fault_plane(&self, operation: &'static str) -> TCacheResult<&ReactorPlane> {
        self.reactor
            .as_ref()
            .ok_or(TCacheError::UnsupportedTransport { operation })
    }

    /// Pauses one cache's reactor apply task, modelling a slow or wedged
    /// edge cache: its pipe backs up and the overflow policy takes over.
    ///
    /// **Caution:** with a bounded pipe under [`OverflowPolicy::Block`],
    /// backpressure is *hard* — once the paused cache's pipe fills, the
    /// next delivery blocks the driving thread inside
    /// [`TCacheSystem::advance_time`] until the cache is resumed. Resume
    /// from another thread, or use a drop policy when wedging a cache on
    /// the thread that also publishes.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnsupportedTransport`] in
    /// [`TransportMode::Threaded`] (there is no apply task to pause),
    /// [`TCacheError::UnknownCache`] if `cache` is not deployed, and
    /// [`TCacheError::InvalidCacheState`] if the cache is already paused
    /// or currently crashed (a crashed cache has no apply loop to wedge).
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn pause_cache(&self, cache: CacheId) -> TCacheResult<()> {
        let plane = self.fault_plane("pause_cache (no reactor under TransportMode::Threaded)")?;
        let index = self.cache_index(cache)?;
        if self.caches[index].is_crashed() {
            return Err(TCacheError::InvalidCacheState {
                cache,
                operation: "pause",
                state: "crashed",
            });
        }
        if plane.is_paused(index) {
            return Err(TCacheError::InvalidCacheState {
                cache,
                operation: "pause",
                state: "paused",
            });
        }
        plane.set_paused(index, true);
        Ok(())
    }

    /// Resumes a cache paused by [`TCacheSystem::pause_cache`]; its apply
    /// task drains whatever backlog accumulated.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnsupportedTransport`] in
    /// [`TransportMode::Threaded`], [`TCacheError::UnknownCache`] if
    /// `cache` is not deployed, and [`TCacheError::InvalidCacheState`] if
    /// the cache was never paused.
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn resume_cache(&self, cache: CacheId) -> TCacheResult<()> {
        let plane = self.fault_plane("resume_cache (no reactor under TransportMode::Threaded)")?;
        let index = self.cache_index(cache)?;
        if !plane.is_paused(index) {
            return Err(TCacheError::InvalidCacheState {
                cache,
                operation: "resume",
                state: "running",
            });
        }
        plane.set_paused(index, false);
        Ok(())
    }

    /// Crashes one cache at virtual time `now`: its local store is lost
    /// and its invalidation link is severed — publishes to it are
    /// discarded (after the configured publish retries, if any) instead of
    /// entering its pipe, so a crashed cache can never block the commit
    /// path. The cache stays down until
    /// [`restart_cache`](TCacheSystem::restart_cache).
    ///
    /// # Errors
    /// Returns [`TCacheError::UnsupportedTransport`] in
    /// [`TransportMode::Threaded`] (the fault plane lives on the reactor's
    /// pipes) and [`TCacheError::UnknownCache`] if `cache` is not deployed.
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn crash_cache(&self, cache: CacheId, now: SimTime) -> TCacheResult<()> {
        let plane = self.fault_plane("crash_cache (no reactor under TransportMode::Threaded)")?;
        let index = self.cache_index(cache)?;
        plane.set_severed(index, true);
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
        let plane = self.fault_plane("restart_cache (no reactor under TransportMode::Threaded)")?;
        let index = self.cache_index(cache)?;
        self.caches[index].restart();
        plane.set_severed(index, false);
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
        let plane = self.fault_plane("partition_cache (no reactor under TransportMode::Threaded)")?;
        let index = self.cache_index(cache)?;
        plane.set_severed(index, true);
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
        let plane = self.fault_plane("heal_cache (no reactor under TransportMode::Threaded)")?;
        let index = self.cache_index(cache)?;
        plane.set_severed(index, false);
        self.caches[index].reconnect();
        Ok(())
    }

    /// Whether a cache's invalidation link is currently severed by a
    /// crash or partition (always `false` in threaded mode).
    pub fn is_cache_severed(&self, cache: CacheId) -> bool {
        self.reactor.as_ref().is_some_and(|p| {
            (cache.0 as usize) < self.caches.len() && p.is_severed(cache.0 as usize)
        })
    }

    /// Sets the delay surcharge added to every invalidation delivered to
    /// `cache` on top of its modeled latency (a fault-plan delay spike;
    /// [`SimDuration::ZERO`] clears it). Under [`DeliveryMode::Clocked`]
    /// the surcharge applies in the discrete-event channel's virtual time;
    /// under [`DeliveryMode::Modeled`] the cache's delivery task sleeps it
    /// out in wall-clock time.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnknownCache`] if `cache` is not deployed.
    #[must_use = "a fault-plane failure (unknown cache, wedged reactor) must be handled"]
    pub fn set_cache_extra_delay(&self, cache: CacheId, extra: SimDuration) -> TCacheResult<()> {
        let index = self.cache_index(cache)?;
        match self.delivery {
            DeliveryMode::Modeled => {
                let plane = self
                    .fault_plane("set_cache_extra_delay (modeled delivery without a reactor)")?;
                plane.set_extra_delay(index, extra);
            }
            DeliveryMode::Clocked => {
                self.fanout
                    .lock()
                    .channel_mut(cache)
                    .expect("index validated against the cache list")
                    .set_extra_delay(extra);
            }
        }
        Ok(())
    }

    /// Whether a cache's reactor apply task is paused (always `false` in
    /// threaded mode).
    pub fn is_cache_paused(&self, cache: CacheId) -> bool {
        self.reactor
            .as_ref()
            .is_some_and(|p| (cache.0 as usize) < self.caches.len() && p.is_paused(cache.0 as usize))
    }

    /// The reactor's counters, if the system runs in
    /// [`TransportMode::Reactor`].
    #[must_use]
    pub fn reactor_stats(&self) -> Option<ReactorStats> {
        self.reactor.as_ref().map(|p| p.reactor_stats())
    }

    /// Invalidations applied by one cache's reactor task so far (`None` in
    /// threaded mode or for an unknown cache).
    pub fn reactor_applied(&self, cache: CacheId) -> Option<u64> {
        self.reactor
            .as_ref()
            .filter(|_| (cache.0 as usize) < self.caches.len())
            .map(|p| p.applied(cache.0 as usize))
    }

    /// Executes an update transaction that reads and rewrites every object
    /// in `objects` (bumping its numeric payload), returning the version the
    /// transaction installed. Invalidations are published asynchronously on
    /// every cache's channel.
    ///
    /// # Errors
    /// Returns an error if any object is unknown or the database aborts the
    /// transaction.
    pub fn update(&self, objects: &[ObjectId]) -> TCacheResult<Version> {
        let txn = self.next_txn();
        let access: tcache_types::AccessSet = objects.iter().copied().collect();
        let commit = self.db.execute_update(txn, &access)?;
        self.broadcast(&commit);
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
        self.broadcast(&commit);
        Ok(commit.version)
    }

    /// Publishes a committed update's invalidations on every cache's
    /// channel. [`TCacheSystem::update`] does this automatically; call it
    /// directly for update transactions executed against
    /// [`TCacheSystem::database`] by hand.
    ///
    /// Under [`DeliveryMode::Modeled`] this is a no-op: the database's
    /// registered upcalls already pushed the batch into every cache's
    /// delivery pipe at commit time, so publishing it again here would
    /// deliver everything twice.
    pub fn publish_invalidations(&self, commit: &tcache_db::UpdateCommit) {
        if self.delivery == DeliveryMode::Modeled {
            return;
        }
        let now = self.now();
        self.fanout
            .lock()
            .broadcast(now, commit.invalidations.invalidations());
    }

    fn broadcast(&self, commit: &tcache_db::UpdateCommit) {
        self.publish_invalidations(commit);
        self.advance_time(self.tick);
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
        self.advance_time(self.tick);
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
    ///
    /// Under [`DeliveryMode::Modeled`] the per-cache [`ChannelStats`] view
    /// is synthesized from the publisher's and the delivery task's
    /// counters (`sent` = invalidations the commit path offered, `dropped`
    /// = loss-model drops in the reactor task, `delivered` = applications,
    /// overflow/stalls from the pipe's policy), so experiment plumbing
    /// reads the same link statistics on either delivery plane.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        // The idle discrete-event fanout is not even consulted in Modeled
        // mode; its channel view is synthesized below instead.
        let channel_stats = match self.delivery {
            DeliveryMode::Clocked => Some(self.fanout.lock().stats()),
            DeliveryMode::Modeled => None,
        };
        let publish_stats = (self.delivery == DeliveryMode::Modeled)
            .then(|| self.db.publish_stats());
        let per_cache: Vec<CacheNodeStats> = self
            .caches
            .iter()
            .enumerate()
            .map(|(index, cache)| {
                let delivery = self
                    .reactor
                    .as_ref()
                    .map(|p| p.delivery_stats(index))
                    .unwrap_or_default();
                let channel = match (&channel_stats, &publish_stats) {
                    (Some(channels), _) => {
                        let (channel_id, channel) = channels[index];
                        debug_assert_eq!(cache.id(), channel_id);
                        channel
                    }
                    (None, Some(publishes)) => {
                        if self.parents[index].is_some() {
                            // A two-tier leaf has no publisher upcall: its
                            // link is fed by the parent's relay, so `sent`
                            // is what the relay put into its pipe.
                            ChannelStats {
                                sent: delivery.offered,
                                dropped: delivery.dropped,
                                delivered: delivery.delivered,
                                overflowed: 0,
                                stalled: 0,
                            }
                        } else {
                            let publish = publishes
                                .iter()
                                .find(|(id, _)| *id == cache.id())
                                .map(|&(_, stats)| stats)
                                .unwrap_or_default();
                            ChannelStats {
                                // Severed publishes never reached the link.
                                sent: publish.invalidations.saturating_sub(publish.severed),
                                dropped: delivery.dropped,
                                delivered: delivery.delivered,
                                overflowed: publish.overflowed,
                                stalled: publish.stalled_publishes,
                            }
                        }
                    }
                    (None, None) => unreachable!("one channel source per delivery mode"),
                };
                CacheNodeStats {
                    id: cache.id(),
                    cache: cache.stats(),
                    channel,
                    pipe: self
                        .reactor
                        .as_ref()
                        .map(|p| p.pipe_stats(index))
                        .unwrap_or_default(),
                    delivery,
                }
            })
            .collect();
        let mut cache_total = CacheStatsSnapshot::default();
        let mut channel_total = ChannelStats::default();
        for node in &per_cache {
            cache_total.merge(node.cache);
            channel_total.merge(node.channel);
        }
        SystemStats {
            cache: cache_total,
            db: self.db.stats(),
            channel: channel_total,
            per_cache,
        }
    }

    fn next_txn(&self) -> TxnId {
        TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::SystemBuilder;
    use crate::transport::TransportMode;
    use std::sync::atomic::Ordering;
    use tcache_types::{CacheId, ObjectId, Strategy, TCacheError, TxnId, Value};

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
    fn advance_time_delivers_invalidations() {
        let system = small_system(0.0);
        system.read_transaction(&[ObjectId(5)]).unwrap();
        system.update(&[ObjectId(5)]).unwrap();
        system.advance_time(tcache_types::SimDuration::from_secs(1));
        // The cached copy was invalidated, so the next read misses and sees
        // the new version.
        let v = system.read(ObjectId(5)).unwrap();
        assert!(v.version > tcache_types::Version::INITIAL);
        assert!(system.stats().channel.sent >= 1);
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
        let stats = system.stats();
        assert_eq!(stats.per_cache.len(), 4);
        // Every channel carried the invalidation.
        for node in &stats.per_cache {
            assert_eq!(node.channel.sent, 1);
            assert_eq!(node.cache.reads, 1);
        }
        // Aggregates sum the per-cache views.
        assert_eq!(stats.cache.reads, 4);
        assert_eq!(stats.channel.sent, 4);
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
            .transport(TransportMode::Reactor)
            .seed(7)
            .build();
        assert_eq!(system.transport_mode(), TransportMode::Reactor);
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        for id in 0..4u32 {
            system.read_on(CacheId(id), ObjectId(1)).unwrap();
        }
        let v = system.update(&[ObjectId(1), ObjectId(2)]).unwrap();
        system.advance_time(tcache_types::SimDuration::from_secs(1));
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
        let reactor = system.reactor_stats().expect("reactor mode");
        assert_eq!(reactor.spawned, 4);
        assert!(reactor.wakes > 0);
        assert!(system.quiesce(std::time::Duration::from_secs(1)).unwrap());
        assert_eq!(system.quiesce_timeouts(), 0);
    }

    #[test]
    fn two_tier_fanout_reaches_each_leaf_exactly_once_through_its_parent() {
        use crate::builder::two_tier_parents;
        use crate::transport::DeliveryMode;
        // Caches 0 and 1 are roots; leaves 2/4 subscribe through 0 and
        // leaves 3/5 through 1.
        let system = SystemBuilder::new()
            .caches(6)
            .cache_parents(two_tier_parents(2, 2))
            .transport(TransportMode::Reactor)
            .delivery(DeliveryMode::Modeled)
            .invalidation_delay_millis(0)
            .seed(7)
            .build();
        assert_eq!(system.publisher_fanout(), 2, "DB publishes to roots only");
        assert_eq!(system.cache_parent(CacheId(0)), None);
        assert_eq!(system.cache_parent(CacheId(2)), Some(CacheId(0)));
        assert_eq!(system.cache_parent(CacheId(5)), Some(CacheId(1)));
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));

        system.update(&[ObjectId(1)]).unwrap();
        assert!(system.quiesce(std::time::Duration::from_secs(5)).unwrap());
        let stats = system.stats();
        for node in &stats.per_cache {
            assert_eq!(
                node.delivery.delivered, 1,
                "cache {}: every cache sees the invalidation exactly once",
                node.id
            );
            assert_eq!(node.channel.sent, 1, "cache {}", node.id);
            assert_eq!(node.channel.dropped, 0, "cache {}", node.id);
        }
        assert_eq!(system.relay_overflows(), 0);

        // Severing parent 0 (crash) silences exactly its subtree {2, 4};
        // root 1's subtree keeps receiving.
        system.crash_cache(CacheId(0), system.now()).unwrap();
        system.update(&[ObjectId(2)]).unwrap();
        assert!(system.quiesce(std::time::Duration::from_secs(5)).unwrap());
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
        assert!(system.quiesce(std::time::Duration::from_secs(5)).unwrap());
        let stats = system.stats();
        for node in &stats.per_cache {
            let expected = match node.id.0 {
                0 | 2 | 4 => 2,
                _ => 3,
            };
            assert_eq!(node.delivery.delivered, expected, "cache {}", node.id);
        }

        // The flat star at equal leaf count publishes to every cache.
        let star = SystemBuilder::new()
            .caches(6)
            .transport(TransportMode::Reactor)
            .delivery(DeliveryMode::Modeled)
            .invalidation_delay_millis(0)
            .seed(7)
            .build();
        assert_eq!(star.publisher_fanout(), 6);
        assert!(system.publisher_fanout() < star.publisher_fanout());
    }

    #[test]
    #[should_panic(expected = "two-tier fan-out needs the modeled reactor pipeline")]
    fn two_tier_requires_modeled_delivery() {
        let _ = SystemBuilder::new()
            .caches(3)
            .cache_parents(vec![None, Some(CacheId(0)), Some(CacheId(0))])
            .transport(TransportMode::Reactor)
            .build();
    }

    #[test]
    fn threaded_mode_has_no_reactor_surface() {
        let system = small_system(0.0);
        assert_eq!(system.transport_mode(), TransportMode::Threaded);
        assert_eq!(
            system.delivery_mode(),
            crate::transport::DeliveryMode::Clocked
        );
        assert!(system.reactor_stats().is_none());
        assert!(system.reactor_applied(CacheId(0)).is_none());
        // Threaded mode has neither apply tasks to pause nor a reactor to
        // quiesce, and says so instead of silently answering `false`/`true`.
        assert!(matches!(
            system.pause_cache(CacheId(0)),
            Err(TCacheError::UnsupportedTransport { .. })
        ));
        assert!(matches!(
            system.resume_cache(CacheId(0)),
            Err(TCacheError::UnsupportedTransport { .. })
        ));
        assert!(matches!(
            system.crash_cache(CacheId(0), system.now()),
            Err(TCacheError::UnsupportedTransport { .. })
        ));
        assert!(matches!(
            system.quiesce(std::time::Duration::from_millis(1)),
            Err(TCacheError::UnsupportedTransport { .. })
        ));
        assert!(!system.is_cache_severed(CacheId(0)));
        assert!(!system.is_cache_paused(CacheId(0)));
        assert_eq!(system.stats().per_cache[0].pipe, Default::default());
        assert_eq!(system.stats().per_cache[0].delivery, Default::default());
    }

    #[test]
    fn pause_cache_distinguishes_unknown_cache_from_missing_reactor() {
        let system = SystemBuilder::new()
            .caches(2)
            .transport(TransportMode::Reactor)
            .build();
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
        let system = SystemBuilder::new()
            .caches(2)
            .transport(TransportMode::Reactor)
            .build();
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
        let system = SystemBuilder::new()
            .caches(2)
            .transport(TransportMode::Reactor)
            .seed(7)
            .build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        system.read_on(CacheId(0), ObjectId(1)).unwrap();

        system.crash_cache(CacheId(0), system.now()).unwrap();
        assert!(system.is_cache_severed(CacheId(0)));
        assert!(system.cache(CacheId(0)).unwrap().is_crashed());
        assert!(!system.is_cache_severed(CacheId(1)));

        // Updates while down are discarded at cache 0's link but delivered
        // to cache 1.
        let v = system.update(&[ObjectId(1)]).unwrap();
        system.advance_time(tcache_types::SimDuration::from_secs(1));
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
    fn partition_and_heal_resync_under_gap_resync_policy() {
        let system = SystemBuilder::new()
            .caches(1)
            .transport(TransportMode::Reactor)
            .recovery_policy(tcache_types::RecoveryPolicy::GapResync {
                staleness_budget: tcache_types::SimDuration::from_secs(3600),
            })
            .seed(7)
            .build();
        system.populate((0..20).map(|i| (ObjectId(i), Value::new(0))));
        system.read(ObjectId(1)).unwrap();

        system.partition_cache(CacheId(0), system.now()).unwrap();
        let v = system.update(&[ObjectId(1)]).unwrap();
        system.advance_time(tcache_types::SimDuration::from_secs(1));
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
    fn extra_delay_spikes_apply_on_the_clocked_channel() {
        let system = small_system(0.0);
        system.read_transaction(&[ObjectId(5)]).unwrap();
        // Spike cache 0's delay far beyond the default tick cadence.
        system
            .set_cache_extra_delay(CacheId(0), tcache_types::SimDuration::from_secs(30))
            .unwrap();
        system.update(&[ObjectId(5)]).unwrap();
        system.advance_time(tcache_types::SimDuration::from_secs(1));
        // Still in flight: the spiked invalidation has not arrived.
        assert_eq!(
            system.read(ObjectId(5)).unwrap().version,
            tcache_types::Version::INITIAL
        );
        system.advance_time(tcache_types::SimDuration::from_secs(60));
        assert!(system.read(ObjectId(5)).unwrap().version > tcache_types::Version::INITIAL);
        assert_eq!(
            system.set_cache_extra_delay(CacheId(9), tcache_types::SimDuration::ZERO),
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
        system.advance_time(tcache_types::SimDuration::from_secs(1));
        assert_eq!(system.read_on(CacheId(0), ObjectId(1)).unwrap().version, v);
        assert_eq!(
            system.read_on(CacheId(1), ObjectId(1)).unwrap().version,
            tcache_types::Version::INITIAL,
            "cache 1's invalidation was lost, its entry stays stale"
        );
        let stats = system.stats();
        assert_eq!(stats.per_cache[0].channel.dropped, 0);
        assert_eq!(stats.per_cache[1].channel.delivered, 0);
    }
}
