//! The edge cache server.
//!
//! [`EdgeCache`] implements the full T-Cache protocol of §III-B and, through
//! [`CachePolicyConfig`], also the two baselines of the evaluation
//! (consistency-unaware cache and TTL-limited cache). It talks to the
//! backend [`Database`] only on cache misses and RETRY read-throughs, and
//! receives asynchronous invalidations through
//! [`EdgeCache::apply_invalidation`].
//!
//! # One read engine, two drivers
//!
//! Every read of every transaction goes through one private step
//! (`EdgeCache::read_step`): hit or miss, Equations 1 and 2 against the
//! transaction's `TxnRecord`, record, or the ABORT / EVICT / RETRY
//! reaction. What differs between the public entry points is only where
//! the record lives:
//!
//! * a whole-transaction call ([`EdgeCache::execute_transaction`],
//!   [`EdgeCache::execute_read_only`]) runs the step over a thread-local
//!   record;
//! * the §III-B call [`EdgeCache::read`] runs it over the record the
//!   `ShardedTransactionTable` stores between the calls of a
//!   transaction. While any such transaction is open
//!   (`open_records_hint() != 0`) whole-transaction calls use the table as
//!   well, so a client may mix the two interfaces under one `TxnId`.
//!
//! # Concurrency
//!
//! The cache is built for parallel clients. There is no global lock:
//!
//! * object storage is a [`ShardedCacheStorage`] — stripes keyed by
//!   `ObjectId` hash, each behind its own short-held lock, so hits on
//!   different objects proceed in parallel (including concurrently with
//!   invalidation upcalls);
//! * the transaction table is striped by `TxnId` hash, so different
//!   clients' transactions never contend;
//! * statistics are atomics.
//!
//! No code path holds two stripe locks at once, so the cache is
//! deadlock-free by construction. A call checks its transaction's record
//! *out* of the table (one map operation under the transaction stripe),
//! runs the step with no transaction stripe held — the step borrows the
//! cached entry under its object stripe, reads the backend and
//! mutates storage — and stores the record back afterwards. The protocol
//! itself is per-transaction sequential (one client drives one `TxnId`),
//! which is the only ordering the consistency predicates need.

use crate::consistency::{Violation, ViolationKind};
use crate::lifecycle::{
    LifecycleState, LifecycleStats, LifecycleStatsSnapshot, ObservedVec, ReadMode, ReadTxnLog,
};
use crate::stats::{CacheStats, CacheStatsSnapshot};
use crate::storage::{Admission, AdmitToken, ShardedCacheStorage};
use crate::txn_record::{ShardedTransactionTable, TxnRecord};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use tcache_db::{Database, Invalidation, InvalidationReplay};
use tcache_types::{
    CacheId, CachePolicyConfig, ObjectEntry, ObjectId, ReadOnlyOutcome, RecoveryPolicy,
    SimDuration, SimTime, Strategy, TCacheError, TCacheResult, TxnId, VersionedObject,
};

/// Lock-free mirror of the lifecycle state for the read fast path: healthy
/// reads check one atomic and never touch the lifecycle mutex.
const TAG_HEALTHY: u8 = 0;
const TAG_DISCONNECTED: u8 = 1;
const TAG_DEGRADED: u8 = 2;

/// Bound on pass-through validation rounds: each round re-reads every key's
/// version from the backend until the vector is stable across a full pass.
const PASS_THROUGH_VALIDATION_ROUNDS: usize = 8;

thread_local! {
    /// The record whole-transaction calls run on, one per client thread. It
    /// is cleared (not dropped) between transactions, so capacity spilled
    /// to the heap by a rare oversized transaction is kept — a warmed
    /// thread serves the common case (≤ 8 reads, cache hits) with **zero**
    /// heap allocations end to end.
    static LOCAL_RECORD: RefCell<TxnRecord> = RefCell::new(TxnRecord::default());
}

/// Receives the entry of every read the step serves (under the entry guard
/// on a hit, so it must not reenter the cache).
type ReadSink<'a> = &'a mut dyn FnMut(&ObjectEntry);

/// The one storage read path. Benchmark-pinned: the type survives only
/// because `benchmark/src/layers.rs` passes [`EdgeCache::read_path`] to
/// [`EdgeCache::with_read_path`]; it goes with the next flagged benchmark
/// PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheReadPath {
    /// Per-stripe mutexes: every operation locks the object's stripe.
    Locked,
}

/// The mutable lifecycle core, held behind one mutex: the state machine and
/// the recovery policy. Locked only on transitions, gap recovery and
/// non-healthy reads — never on the healthy read path.
#[derive(Debug)]
struct Lifecycle {
    state: LifecycleState,
    policy: RecoveryPolicy,
}

/// An edge cache server.
///
/// All methods take `&self`; internally the cache uses striped locks (see
/// the module docs), so it can be shared freely between many client threads
/// and the invalidation upcall.
#[derive(Debug)]
pub struct EdgeCache {
    id: CacheId,
    backend: Arc<Database>,
    config: CachePolicyConfig,
    storage: ShardedCacheStorage,
    txns: ShardedTransactionTable,
    stats: CacheStats,
    lifecycle: Mutex<Lifecycle>,
    state_tag: AtomicU8,
    /// Highest invalidation sequence number applied (0 = none yet).
    /// Invalidations for one cache are applied one delivery at a time on
    /// both planes (the live link serializes its task and its hand-offs);
    /// lifecycle transitions on other threads only ever adopt a newer
    /// position, and deliveries advance it with `fetch_max`.
    last_seq: AtomicU64,
    lifecycle_stats: LifecycleStats,
}

impl EdgeCache {
    /// Creates a cache with an explicit policy configuration.
    pub fn new(id: CacheId, backend: Arc<Database>, config: CachePolicyConfig) -> Self {
        EdgeCache {
            id,
            backend,
            config,
            storage: ShardedCacheStorage::with_default_stripes(None, config.ttl),
            txns: ShardedTransactionTable::new(),
            stats: CacheStats::new(),
            lifecycle: Mutex::new(Lifecycle {
                state: LifecycleState::Healthy,
                policy: RecoveryPolicy::None,
            }),
            state_tag: AtomicU8::new(TAG_HEALTHY),
            last_seq: AtomicU64::new(0),
            lifecycle_stats: LifecycleStats::default(),
        }
    }

    /// Creates a T-Cache with the given dependency bound and strategy.
    pub fn tcache(id: CacheId, backend: Arc<Database>, bound: usize, strategy: Strategy) -> Self {
        EdgeCache::new(id, backend, CachePolicyConfig::tcache(bound, strategy))
    }

    /// Creates the consistency-unaware baseline cache.
    pub fn plain(id: CacheId, backend: Arc<Database>) -> Self {
        EdgeCache::new(id, backend, CachePolicyConfig::plain())
    }

    /// Creates the TTL-limited baseline cache of §V-B2.
    pub fn ttl_baseline(id: CacheId, backend: Arc<Database>, ttl: SimDuration) -> Self {
        EdgeCache::new(id, backend, CachePolicyConfig::ttl_baseline(ttl))
    }

    /// Creates a T-Cache with unbounded dependency lists (Theorem 1).
    pub fn unbounded(id: CacheId, backend: Arc<Database>, strategy: Strategy) -> Self {
        EdgeCache::new(id, backend, CachePolicyConfig::unbounded(strategy))
    }

    /// Same as [`EdgeCache::new`]; the read path is ignored (there is one
    /// storage). Benchmark-pinned: exists only because
    /// `benchmark/src/layers.rs` (which this repository's PRs may not edit)
    /// builds its apply-replay cache with it; goes with the next flagged
    /// benchmark PR.
    pub fn with_read_path(
        id: CacheId,
        backend: Arc<Database>,
        config: CachePolicyConfig,
        _read_path: CacheReadPath,
    ) -> Self {
        EdgeCache::new(id, backend, config)
    }

    /// Always [`CacheReadPath::Locked`]. Benchmark-pinned: exists only to
    /// feed [`EdgeCache::with_read_path`] at that same call site.
    pub fn read_path(&self) -> CacheReadPath {
        CacheReadPath::Locked
    }

    /// The cache server's id.
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// The policy configuration in force.
    pub fn config(&self) -> CachePolicyConfig {
        self.config
    }

    /// The backend database this cache reads through to.
    pub fn backend(&self) -> &Arc<Database> {
        &self.backend
    }

    /// Performs one read of the transactional read-only interface:
    /// `read(txnID, key, lastOp)` (§III-B).
    ///
    /// Returns the value and version observed. When `last_op` is `true` the
    /// cache garbage-collects the transaction record after responding, and
    /// counts the transaction as committed.
    ///
    /// # Errors
    /// * [`TCacheError::InconsistencyAbort`] if the read (or an earlier read
    ///   of the same transaction) is detected to be inconsistent and the
    ///   strategy requires aborting.
    /// * [`TCacheError::UnknownObject`] if the object does not exist in the
    ///   backend database.
    ///
    /// Any error ends the transaction: its record is discarded.
    pub fn read(
        &self,
        now: SimTime,
        txn: TxnId,
        key: ObjectId,
        last_op: bool,
    ) -> TCacheResult<VersionedObject> {
        // The baselines check nothing, so they carry no record between
        // calls either.
        let local = !self.config.transactional;
        let mut served = None;
        self.run(now, txn, &[key], last_op, local, &mut |entry| {
            served = Some(entry.to_versioned());
        })?;
        Ok(served.expect("a read the step serves reaches the sink"))
    }

    /// Convenience wrapper running a whole read-only transaction over the
    /// given keys (the last key carries the `last_op` flag). A detected
    /// inconsistency is reported as [`ReadOnlyOutcome::Aborted`]; other
    /// errors (unknown objects, missing backend) are propagated.
    ///
    /// # Errors
    /// Propagates every error except [`TCacheError::InconsistencyAbort`].
    pub fn execute_transaction(
        &self,
        now: SimTime,
        txn: TxnId,
        keys: &[ObjectId],
    ) -> TCacheResult<ReadOnlyOutcome> {
        let mut values = Vec::with_capacity(keys.len());
        let aborted_on = self.run_whole(now, txn, keys, &mut |entry| {
            values.push(entry.to_versioned());
        })?;
        Ok(match aborted_on {
            None => ReadOnlyOutcome::Committed(values),
            Some(violating_object) => ReadOnlyOutcome::Aborted { violating_object },
        })
    }

    /// Runs a whole-transaction call; `Ok(Some(object))` reports an abort
    /// on `object`.
    ///
    /// The call runs on the thread-local record when the transaction table
    /// is quiet. With the open-record hint at zero no record can be stored
    /// for `txn` — only a *previous sequential call of the same client*
    /// could have left one, and that call raised the hint before returning
    /// — so the local record is observationally identical to a table
    /// record created and finished within this call.
    // lint: hot-path
    fn run_whole(
        &self,
        now: SimTime,
        txn: TxnId,
        keys: &[ObjectId],
        sink: ReadSink<'_>,
    ) -> TCacheResult<Option<ObjectId>> {
        if keys.is_empty() {
            return Ok(None);
        }
        let local = self.txns.open_records_hint() == 0;
        if local {
            self.stats.record_fastpath_txn();
        }
        match self.run(now, txn, keys, true, local, sink) {
            Ok(()) => Ok(None),
            Err(TCacheError::InconsistencyAbort {
                violating_object, ..
            }) => Ok(Some(violating_object)),
            Err(e) => Err(e),
        }
    }

    /// The driver under every entry point: runs the read step over `keys`
    /// on the thread-local record (`local`) or on the record the
    /// transaction table keeps for `txn`.
    ///
    /// The table branch is the one place a multi-call transaction ends:
    /// unless the step succeeded and more reads follow, the record is not
    /// stored back — so the last read, an abort and any other error all
    /// discard it and lower the hint the first call raised.
    // lint: hot-path
    fn run(
        &self,
        now: SimTime,
        txn: TxnId,
        keys: &[ObjectId],
        last_op: bool,
        local: bool,
        sink: ReadSink<'_>,
    ) -> TCacheResult<()> {
        // Hits are counted here and added to the shared statistics once per
        // call, whatever the outcome.
        let mut hits = 0u64;
        let mut steps = |rec: &mut TxnRecord| {
            let result = keys
                .iter()
                .try_for_each(|&key| self.read_step(now, rec, txn, key, &mut hits, sink));
            self.stats.record_hits(hits);
            result
        };
        if local {
            LOCAL_RECORD.with(|cell| {
                let mut rec = cell.borrow_mut();
                rec.clear();
                steps(&mut rec)
            })?;
        } else {
            let stored = self.txns.take(txn);
            let first = stored.is_none();
            if first {
                self.stats.record_promoted_txn();
            }
            let mut rec = stored.unwrap_or_default();
            let result = steps(&mut rec);
            if result.is_ok() && !last_op {
                self.txns.put(txn, rec, first);
            } else if !first {
                self.txns.finish();
            }
            result?;
        }
        if last_op {
            self.stats.record_commit();
        }
        Ok(())
    }

    /// One read of transaction `txn`, the whole of §III-B: serve `key` from
    /// the store or the backend, check it against `rec` with Equations 1
    /// and 2, record it and hand it to `sink` — or react to the violation
    /// with the configured strategy. An abort is reported as
    /// [`TCacheError::InconsistencyAbort`].
    ///
    /// On a hit the cached entry is *borrowed* under its storage stripe
    /// lock — no entry clone, no `Arc` refcount ping-pong. No transaction
    /// stripe is held here (see the module docs), so reading the backend
    /// and mutating storage below nest under no lock.
    // lint: hot-path
    fn read_step(
        &self,
        now: SimTime,
        rec: &mut TxnRecord,
        txn: TxnId,
        key: ObjectId,
        hits: &mut u64,
        sink: ReadSink<'_>,
    ) -> TCacheResult<()> {
        let hit = self
            .storage
            .with_entry(key, now, |entry| self.check_and_record(rec, entry, sink));
        let verdict = match hit {
            Ok(verdict) => {
                *hits += 1;
                verdict
            }
            Err(token) => {
                // The fresh entry is offered to storage on both verdicts.
                let fresh = self.fetch_from_backend(key)?;
                self.stats.record_miss();
                let verdict = self.check_and_record(rec, &fresh, sink);
                self.admit(fresh, now, token);
                verdict
            }
        };
        let Some(violation) = verdict else {
            return Ok(());
        };

        let (violating_object, evict) = match self.config.strategy {
            Strategy::Abort => (violation.violating_object, false),
            Strategy::Evict => (violation.violating_object, true),
            Strategy::Retry => {
                if violation.kind == ViolationKind::CurrentReadStale {
                    // The object being read is the stale one: treat the
                    // access as a miss and read through to the database.
                    if self.storage.remove(key) {
                        self.stats.record_eviction();
                    }
                    let token = self.storage.token(key);
                    let fresh = self.fetch_from_backend(key)?;
                    self.stats.record_retry();
                    let second = self.check_and_record(rec, &fresh, sink);
                    self.admit(fresh, now, token);
                    match second {
                        None => return Ok(()),
                        // The fresh copy exposes a violation that cannot be
                        // repaired locally (a previously returned object is
                        // stale): evict that object and abort.
                        Some(second) => (second.violating_object, true),
                    }
                } else {
                    // The stale object was already returned to the client
                    // earlier in this transaction: evict it and abort.
                    (violation.violating_object, true)
                }
            }
        };
        if evict && self.storage.remove(violating_object) {
            self.stats.record_eviction();
        }
        self.stats.record_abort();
        Err(TCacheError::InconsistencyAbort {
            txn,
            violating_object,
        })
    }

    /// Offers a fetched entry to storage under the token taken before the
    /// fetch, counting a refusal by the stripe's admission epoch.
    fn admit(&self, fresh: ObjectEntry, now: SimTime, token: AdmitToken) {
        if self.storage.insert(fresh, now, token) == Admission::Vetoed {
            self.stats.record_vetoed_admission();
        }
    }

    /// Checks `entry` against the transaction's previous reads and, when
    /// consistent, records it and hands it to `sink`. The baselines
    /// (`transactional == false`) serve every read unchecked.
    // lint: hot-path
    #[inline]
    fn check_and_record(
        &self,
        rec: &mut TxnRecord,
        entry: &ObjectEntry,
        sink: ReadSink<'_>,
    ) -> Option<Violation> {
        if self.config.transactional {
            let violation = rec.check_read(entry.id, entry.version, &entry.dependencies);
            if violation.is_some() {
                return violation;
            }
            rec.record_read(entry.id, entry.version, &entry.dependencies);
        }
        sink(entry);
        None
    }

    /// Applies one invalidation received from the database: the cached
    /// entry is evicted if (and only if) it is older than the invalidated
    /// version, so that reordered or duplicated invalidations are harmless.
    ///
    /// Sequenced invalidations (`seq != 0`) additionally advance the
    /// cache's stream position; a jump of more than one reveals lost
    /// invalidations (a *gap*) and — under
    /// [`RecoveryPolicy::GapResync`] — triggers an immediate resync from
    /// the database's invalidation log. Unsequenced invalidations
    /// (`seq == 0`, e.g. hand-built in tests) are exempt.
    ///
    /// Only the affected object's stripe is locked; reads of other objects
    /// proceed concurrently. This is the one-message case of
    /// [`EdgeCache::apply_invalidations`].
    pub fn apply_invalidation(&self, invalidation: Invalidation) {
        self.apply_invalidations(std::slice::from_ref(&invalidation));
    }

    /// Applies a batch of invalidations, in order, exactly as
    /// [`EdgeCache::apply_invalidation`] applied one at a time would.
    ///
    /// A batch that *continues the stream* — its first sequence number is
    /// the one after the last applied, and the rest follow contiguously, as
    /// every batch a loss-free link delivers does — cannot reveal a gap, so
    /// its storage invalidations run back to back, the stream position
    /// advances once, after them, and the applied / ignored counters are
    /// added once. Anything else (a gap, a duplicate, an unsequenced
    /// message) is applied message by message.
    pub fn apply_invalidations(&self, batch: &[Invalidation]) {
        let Some(first) = batch.first() else {
            return;
        };
        let continues = first.seq != 0
            && first.seq == self.last_seq.load(Ordering::Relaxed) + 1
            && batch.windows(2).all(|pair| pair[1].seq == pair[0].seq + 1);
        if !continues {
            for &invalidation in batch {
                self.apply_one(invalidation);
            }
            return;
        }
        let applied = batch
            .iter()
            .filter(|inv| self.storage.invalidate(inv.object, inv.new_version))
            .count() as u64;
        // `fetch_max`, as in `observe_stream_position`: a restart on another
        // thread may have adopted a newer position meanwhile.
        self.last_seq
            .fetch_max(first.seq + batch.len() as u64 - 1, Ordering::Relaxed);
        self.stats
            .record_invalidations(applied, batch.len() as u64 - applied);
    }

    /// One invalidation with full gap handling.
    fn apply_one(&self, invalidation: Invalidation) {
        if invalidation.seq != 0 {
            self.observe_stream_position(invalidation.seq);
        }
        let applied = self
            .storage
            .invalidate(invalidation.object, invalidation.new_version);
        self.stats
            .record_invalidations(u64::from(applied), u64::from(!applied));
    }

    /// Advances the stream position to `seq`, detecting gaps on the way.
    fn observe_stream_position(&self, seq: u64) {
        let prev = self.last_seq.load(Ordering::Relaxed);
        if seq <= prev {
            // Duplicate or reordered-older delivery: the position already
            // covers it.
            return;
        }
        if seq > prev + 1 {
            self.lifecycle_stats
                .gaps_detected
                .fetch_add(1, Ordering::Relaxed);
            self.lifecycle_stats
                .invalidations_missed
                .fetch_add(seq - prev - 1, Ordering::Relaxed);
            let lifecycle = self.lifecycle.lock();
            if lifecycle.policy.resyncs() && lifecycle.state == LifecycleState::Healthy {
                // Resync catches the store up past `seq`; the current
                // invalidation is then applied again harmlessly.
                self.resync();
                return;
            }
        }
        // Deliveries to one cache are serialized, but `restart` / `reconnect`
        // run on the fault-injecting thread and may adopt a newer position
        // while a delivery that was in flight since before the link was
        // severed lands here once it is restored (a severed cache's own
        // deliveries are discarded): `fetch_max` keeps the position from
        // rewinding.
        self.last_seq.fetch_max(seq, Ordering::Relaxed);
    }

    /// Catches the local store up with the backend: replays the database's
    /// invalidation log from the last applied sequence number, or — when
    /// the log no longer retains that suffix — drops the store entirely
    /// (every later read then refetches the current version, i.e. a
    /// versioned snapshot resync).
    fn resync(&self) {
        let after = self.last_seq.load(Ordering::Relaxed);
        match self.backend.replay_invalidations(after) {
            InvalidationReplay::Replayed(invalidations) => {
                if invalidations.is_empty() {
                    return;
                }
                self.lifecycle_stats
                    .log_replays
                    .fetch_add(1, Ordering::Relaxed);
                self.lifecycle_stats
                    .replayed_invalidations
                    .fetch_add(invalidations.len() as u64, Ordering::Relaxed);
                let mut latest = after;
                for inv in &invalidations {
                    self.storage.invalidate(inv.object, inv.new_version);
                    latest = latest.max(inv.seq);
                }
                debug_assert!(
                    latest >= after,
                    "log replay rewound the stream position: {after} -> {latest}"
                );
                self.last_seq.store(latest, Ordering::Relaxed);
            }
            InvalidationReplay::Truncated { latest } => {
                self.lifecycle_stats
                    .snapshot_resyncs
                    .fetch_add(1, Ordering::Relaxed);
                self.storage.clear();
                debug_assert!(
                    latest >= after,
                    "snapshot resync rewound the stream position: {after} -> {latest}"
                );
                self.last_seq.store(latest, Ordering::Relaxed);
            }
        }
    }

    /// Sets the recovery policy governing gap handling, staleness budgets
    /// and reconnect resyncs. Defaults to [`RecoveryPolicy::None`].
    pub fn set_recovery_policy(&self, policy: RecoveryPolicy) {
        self.lifecycle.lock().policy = policy;
    }

    /// The recovery policy in force.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.lifecycle.lock().policy
    }

    /// The cache's current lifecycle state.
    pub fn lifecycle_state(&self) -> LifecycleState {
        self.lifecycle.lock().state
    }

    /// `true` while the cache is down after a [`crash`](EdgeCache::crash)
    /// (until [`restart`](EdgeCache::restart)).
    pub fn is_crashed(&self) -> bool {
        self.lifecycle_state().is_crashed()
    }

    /// A snapshot of the lifecycle counters (gaps, resyncs, faults).
    #[must_use]
    pub fn lifecycle_stats(&self) -> LifecycleStatsSnapshot {
        self.lifecycle_stats.snapshot()
    }

    /// The highest invalidation sequence number applied (0 = none yet).
    pub fn last_applied_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Relaxed)
    }

    /// Crashes the cache: the local store is lost and the invalidation
    /// stream is severed until [`restart`](EdgeCache::restart).
    pub fn crash(&self, now: SimTime) {
        let mut lifecycle = self.lifecycle.lock();
        self.storage.clear();
        self.lifecycle_stats.crashes.fetch_add(1, Ordering::Relaxed);
        lifecycle.state = LifecycleState::Disconnected {
            since: now,
            crashed: true,
        };
        self.state_tag.store(TAG_DISCONNECTED, Ordering::Release);
    }

    /// Restarts a crashed cache. The store is cold (dropped at crash time),
    /// which is trivially consistent with the backend, so the cache adopts
    /// the backend's current stream position and resumes healthy.
    pub fn restart(&self) {
        let mut lifecycle = self.lifecycle.lock();
        self.last_seq
            .store(self.backend.invalidation_latest_seq(), Ordering::Relaxed);
        lifecycle.state = LifecycleState::Healthy;
        self.state_tag.store(TAG_HEALTHY, Ordering::Release);
    }

    /// Partitions the cache from the database: the local store stays
    /// intact and keeps serving (staling) reads, but invalidations no
    /// longer arrive. No-op unless the cache is healthy.
    pub fn disconnect(&self, now: SimTime) {
        let mut lifecycle = self.lifecycle.lock();
        if lifecycle.state != LifecycleState::Healthy {
            return;
        }
        self.lifecycle_stats
            .partitions
            .fetch_add(1, Ordering::Relaxed);
        lifecycle.state = LifecycleState::Disconnected {
            since: now,
            crashed: false,
        };
        self.state_tag.store(TAG_DISCONNECTED, Ordering::Release);
    }

    /// Heals a partition. Under [`RecoveryPolicy::GapResync`] the cache
    /// first resyncs (log replay, or snapshot resync when the log has been
    /// truncated) so it returns to service consistent; under
    /// [`RecoveryPolicy::None`] it simply resumes with whatever staleness
    /// it accumulated. No-op when the cache is already healthy.
    pub fn reconnect(&self) {
        let mut lifecycle = self.lifecycle.lock();
        if lifecycle.state == LifecycleState::Healthy {
            return;
        }
        self.lifecycle_stats
            .reconnects
            .fetch_add(1, Ordering::Relaxed);
        if lifecycle.policy.resyncs() {
            self.resync();
        }
        lifecycle.state = LifecycleState::Healthy;
        self.state_tag.store(TAG_HEALTHY, Ordering::Release);
    }

    /// Runs a whole read-only transaction through the lifecycle-aware
    /// entry point: healthy (and within-budget disconnected) caches serve
    /// from the local store via the regular T-Cache path; a cache whose
    /// staleness budget has run out degrades to pass-through reads against
    /// the backend database. Returns what the transaction observed, so the
    /// caller can feed the consistency monitor and attribute the result to
    /// the serving path.
    ///
    /// # Errors
    /// Propagates every error except [`TCacheError::InconsistencyAbort`],
    /// which is reported as `committed: false`.
    pub fn execute_read_only(
        &self,
        now: SimTime,
        txn: TxnId,
        keys: &[ObjectId],
    ) -> TCacheResult<ReadTxnLog> {
        match self.read_mode(now) {
            ReadMode::Cached => {
                let mut observed = ObservedVec::new();
                let aborted_on = self.run_whole(now, txn, keys, &mut |entry| {
                    observed.push((entry.id, entry.version));
                })?;
                Ok(ReadTxnLog {
                    observed,
                    committed: aborted_on.is_none(),
                    mode: ReadMode::Cached,
                })
            }
            ReadMode::PassThrough => self.execute_pass_through(keys),
        }
    }

    /// Decides which path serves a read-only transaction arriving `now`,
    /// degrading a disconnected cache whose staleness budget has expired.
    fn read_mode(&self, now: SimTime) -> ReadMode {
        if self.state_tag.load(Ordering::Acquire) == TAG_HEALTHY {
            return ReadMode::Cached;
        }
        let mut lifecycle = self.lifecycle.lock();
        match lifecycle.state {
            LifecycleState::Healthy => ReadMode::Cached,
            LifecycleState::Degraded { .. } => ReadMode::PassThrough,
            LifecycleState::Disconnected { since, crashed } => {
                match lifecycle.policy.staleness_budget() {
                    Some(budget) if now > since + budget => {
                        lifecycle.state = LifecycleState::Degraded { crashed };
                        self.state_tag.store(TAG_DEGRADED, Ordering::Release);
                        ReadMode::PassThrough
                    }
                    // Within budget, or no recovery machinery configured:
                    // keep serving (possibly stale) local data.
                    _ => ReadMode::Cached,
                }
            }
        }
    }

    /// The degraded path: every key is read directly from the backend,
    /// bypassing the local store, then the version vector is validated by
    /// re-reading until stable (bounded rounds). Under the planes'
    /// lockstep pacing no update runs concurrently, so the first
    /// validation pass succeeds and the result is serializable by
    /// construction.
    fn execute_pass_through(&self, keys: &[ObjectId]) -> TCacheResult<ReadTxnLog> {
        self.lifecycle_stats
            .pass_through_txns
            .fetch_add(1, Ordering::Relaxed);
        let mut observed = ObservedVec::new();
        for &key in keys {
            let entry = self.backend.read_entry(key)?;
            observed.push((key, entry.version));
        }
        for _ in 0..PASS_THROUGH_VALIDATION_ROUNDS {
            let mut changed = false;
            for (key, version) in observed.iter_mut() {
                let fresh = self.backend.peek_entry(*key)?.version;
                if fresh != *version {
                    *version = fresh;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.stats.record_commit();
        Ok(ReadTxnLog {
            observed,
            committed: true,
            mode: ReadMode::PassThrough,
        })
    }

    /// A snapshot of the cache's statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.stats.snapshot()
    }

    /// Number of objects currently cached.
    pub fn cached_objects(&self) -> usize {
        self.storage.len()
    }

    /// Returns `true` if `key` is currently cached (ignoring TTL).
    pub fn contains(&self, key: ObjectId) -> bool {
        self.storage.contains(key)
    }

    /// Number of read-only transactions with live records (diagnostics).
    pub fn open_transactions(&self) -> usize {
        self.txns.len()
    }

    /// Approximate memory used by cached entries, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.storage.footprint_bytes()
    }

    /// Reads an entry from the backend, re-bounding its dependency list to
    /// the cache's own bound (relevant when the cache is configured with a
    /// smaller bound than the database).
    fn fetch_from_backend(&self, key: ObjectId) -> TCacheResult<ObjectEntry> {
        let mut entry = self.backend.read_entry(key)?;
        let limit = self.config.dependency_bound.limit();
        if entry.dependencies.len() > limit {
            entry.dependencies = Arc::new(entry.dependencies.rebounded(limit));
        }
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_db::DatabaseConfig;
    use tcache_types::{AccessSet, Value, Version};

    fn setup(bound: usize, strategy: Strategy) -> (Arc<Database>, EdgeCache) {
        let db = Arc::new(Database::new(DatabaseConfig::with_bound(bound)));
        db.populate((0..100).map(|i| (ObjectId(i), Value::new(0))));
        let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), bound, strategy);
        (db, cache)
    }

    /// Builds the paper's canonical inconsistency: objects 1 and 2 are
    /// updated together, the cache holds a fresh copy of object 1 but a
    /// stale copy of object 2 (its invalidation was "lost").
    fn build_stale_pair(db: &Arc<Database>, cache: &EdgeCache) {
        let now = SimTime::ZERO;
        // Warm the cache with the initial versions of both objects.
        cache.read(now, TxnId(1000), ObjectId(1), false).unwrap();
        cache.read(now, TxnId(1000), ObjectId(2), true).unwrap();
        // Update both objects at the database.
        let access: AccessSet = vec![1u64, 2].into();
        let commit = db.execute_update(TxnId(1), &access).unwrap();
        // Deliver only the invalidation for object 1; the one for object 2
        // is lost.
        for inv in commit.invalidations.iter() {
            if inv.object == ObjectId(1) {
                cache.apply_invalidation(*inv);
            }
        }
    }

    #[test]
    fn cache_hit_and_miss_accounting() {
        let (_db, cache) = setup(3, Strategy::Abort);
        let now = SimTime::ZERO;
        cache.read(now, TxnId(1), ObjectId(5), true).unwrap();
        cache.read(now, TxnId(2), ObjectId(5), true).unwrap();
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.txns_committed, 2);
        assert_eq!(cache.cached_objects(), 1);
        assert!(cache.contains(ObjectId(5)));
        assert!(cache.footprint_bytes() > 0);
        assert_eq!(cache.id(), CacheId(0));
        assert_eq!(cache.backend().object_count(), 100);
    }

    #[test]
    fn last_op_garbage_collects_the_transaction_record() {
        let (_db, cache) = setup(3, Strategy::Abort);
        let now = SimTime::ZERO;
        cache.read(now, TxnId(7), ObjectId(1), false).unwrap();
        assert_eq!(cache.open_transactions(), 1);
        cache.read(now, TxnId(7), ObjectId(2), true).unwrap();
        assert_eq!(cache.open_transactions(), 0);
    }

    #[test]
    fn unknown_object_propagates_error() {
        let (_db, cache) = setup(3, Strategy::Abort);
        let err = cache
            .read(SimTime::ZERO, TxnId(1), ObjectId(999), true)
            .unwrap_err();
        assert_eq!(err, TCacheError::UnknownObject(ObjectId(999)));
    }

    /// Advance of `fastpath_txns` / `promoted_txns` over ten whole-transaction
    /// calls.
    fn ten_whole_txns(cache: &EdgeCache, first_txn: u64) -> (u64, u64) {
        let before = cache.stats();
        for t in 0..10 {
            cache
                .execute_transaction(SimTime::ZERO, TxnId(first_txn + t), &[ObjectId(1), ObjectId(2)])
                .unwrap();
        }
        let after = cache.stats();
        (
            after.fastpath_txns - before.fastpath_txns,
            after.promoted_txns - before.promoted_txns,
        )
    }

    #[test]
    fn failed_read_discards_the_record_and_reopens_the_local_path() {
        let (_db, cache) = setup(3, Strategy::Abort);
        let now = SimTime::ZERO;
        cache.read(now, TxnId(1), ObjectId(1), false).unwrap();
        assert_eq!(cache.open_transactions(), 1);
        assert_eq!(ten_whole_txns(&cache, 100), (0, 10), "an open record raises the gate");
        // The transaction's second read fails with a non-abort error: that
        // ends it like an abort would.
        assert_eq!(
            cache.read(now, TxnId(1), ObjectId(999), true).unwrap_err(),
            TCacheError::UnknownObject(ObjectId(999))
        );
        assert_eq!(cache.open_transactions(), 0);
        assert_eq!(ten_whole_txns(&cache, 200), (10, 0));
    }

    #[test]
    fn failed_whole_transaction_on_the_table_discards_its_record() {
        let (_db, cache) = setup(3, Strategy::Abort);
        let now = SimTime::ZERO;
        // An open key-by-key transaction routes whole-transaction calls
        // through the table.
        cache.read(now, TxnId(1), ObjectId(1), false).unwrap();
        assert!(cache
            .execute_transaction(now, TxnId(2), &[ObjectId(1), ObjectId(999)])
            .is_err());
        assert!(cache
            .execute_read_only(now, TxnId(3), &[ObjectId(2), ObjectId(999)])
            .is_err());
        assert_eq!(cache.open_transactions(), 1, "only transaction 1 is still open");
        cache.read(now, TxnId(1), ObjectId(2), true).unwrap();
        assert_eq!(cache.open_transactions(), 0);
        assert_eq!(ten_whole_txns(&cache, 100), (10, 0));
    }

    #[test]
    fn whole_transaction_call_joins_an_open_key_by_key_transaction() {
        let (db, cache) = setup(3, Strategy::Abort);
        build_stale_pair(&db, &cache);
        let now = SimTime::from_secs(1);
        // The client starts key by key and finishes with a whole-transaction
        // call under the same id: the raised gate routes the call to the
        // stored record, so the stale object 2 is checked against read 1.
        cache.read(now, TxnId(2), ObjectId(1), false).unwrap();
        let outcome = cache
            .execute_transaction(now, TxnId(2), &[ObjectId(2)])
            .unwrap();
        assert!(outcome.is_aborted());
        assert_eq!(cache.open_transactions(), 0);
    }

    #[test]
    fn baselines_keep_no_record_between_calls() {
        let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
        db.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
        let cache = EdgeCache::plain(CacheId(0), Arc::clone(&db));
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(1), false).unwrap();
        assert_eq!(cache.open_transactions(), 0);
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(2), true).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.txns_committed, stats.promoted_txns), (1, 0));
    }

    #[test]
    fn abort_strategy_detects_stale_pair() {
        let (db, cache) = setup(3, Strategy::Abort);
        build_stale_pair(&db, &cache);
        let now = SimTime::from_secs(1);
        // Read object 1 (fresh, a miss because it was invalidated) then
        // object 2 (stale hit): the dependency list of object 1 names
        // object 2 at the new version, so Equation 1 fires on the second read.
        cache.read(now, TxnId(2), ObjectId(1), false).unwrap();
        let err = cache.read(now, TxnId(2), ObjectId(2), true).unwrap_err();
        assert!(matches!(
            err,
            TCacheError::InconsistencyAbort {
                violating_object: ObjectId(2),
                ..
            }
        ));
        let s = cache.stats();
        assert_eq!(s.txns_aborted, 1);
        assert_eq!(cache.open_transactions(), 0);
        // ABORT leaves the stale entry in place.
        assert!(cache.contains(ObjectId(2)));
    }

    #[test]
    fn abort_strategy_detects_stale_current_read_in_reverse_order() {
        let (db, cache) = setup(3, Strategy::Abort);
        build_stale_pair(&db, &cache);
        let now = SimTime::from_secs(1);
        // Reading the stale object 2 first succeeds (nothing to compare
        // against), then the fresh object 1 arrives with dependencies that
        // flag object 2 — Equation 1 fires with object 2 as the violator.
        cache.read(now, TxnId(2), ObjectId(2), false).unwrap();
        let err = cache.read(now, TxnId(2), ObjectId(1), true).unwrap_err();
        assert!(matches!(
            err,
            TCacheError::InconsistencyAbort {
                violating_object: ObjectId(2),
                ..
            }
        ));
    }

    #[test]
    fn evict_strategy_removes_the_stale_entry() {
        let (db, cache) = setup(3, Strategy::Evict);
        build_stale_pair(&db, &cache);
        let now = SimTime::from_secs(1);
        cache.read(now, TxnId(2), ObjectId(1), false).unwrap();
        let err = cache.read(now, TxnId(2), ObjectId(2), true).unwrap_err();
        assert!(matches!(err, TCacheError::InconsistencyAbort { .. }));
        assert!(
            !cache.contains(ObjectId(2)),
            "EVICT removes the violating entry"
        );
        assert_eq!(cache.stats().evictions, 1);
        // The next transaction over the same objects misses on object 2,
        // fetches the fresh version, and commits.
        let outcome = cache
            .execute_transaction(now, TxnId(3), &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert!(outcome.is_committed());
    }

    #[test]
    fn retry_strategy_reads_through_and_commits() {
        let (db, cache) = setup(3, Strategy::Retry);
        build_stale_pair(&db, &cache);
        let now = SimTime::from_secs(1);
        // Object 1 is read fresh; reading stale object 2 triggers Equation 2
        // via object 1's dependency list? No: object 1's dependencies flag a
        // *previous* read only after object 2 is read. Order the reads so
        // the stale object is read second: the check fires as Equation 1
        // (previous read stale) — RETRY cannot repair that. So instead read
        // the stale object *last* in a fresh transaction where object 1's
        // dependency list makes object 2's staleness a CurrentReadStale.
        cache.read(now, TxnId(2), ObjectId(1), false).unwrap();
        // Reading object 2 now: its cached version is older than the version
        // expected by object 1's dependency list → Equation 2 → read-through.
        let v = cache.read(now, TxnId(2), ObjectId(2), true).unwrap();
        let fresh = db.peek_entry(ObjectId(2)).unwrap();
        assert_eq!(v.version, fresh.version, "RETRY returned the fresh version");
        let s = cache.stats();
        // Two committed transactions: the cache-warming one plus this one.
        assert_eq!(s.txns_committed, 2);
        assert_eq!(s.txns_aborted, 0);
        assert_eq!(s.retries, 1);
        // The fresh copy replaced the stale one.
        assert_eq!(
            cache.backend().peek_entry(ObjectId(2)).unwrap().version,
            fresh.version
        );
        assert!(cache.contains(ObjectId(2)));
    }

    #[test]
    fn retry_strategy_aborts_when_previous_read_is_stale() {
        let (db, cache) = setup(3, Strategy::Retry);
        build_stale_pair(&db, &cache);
        let now = SimTime::from_secs(1);
        // Read the stale object 2 first (returned to the client), then the
        // fresh object 1: the violation is on a previously returned object,
        // which RETRY cannot repair — it evicts and aborts.
        cache.read(now, TxnId(2), ObjectId(2), false).unwrap();
        let err = cache.read(now, TxnId(2), ObjectId(1), true).unwrap_err();
        assert!(matches!(
            err,
            TCacheError::InconsistencyAbort {
                violating_object: ObjectId(2),
                ..
            }
        ));
        assert!(!cache.contains(ObjectId(2)), "stale entry evicted");
        assert_eq!(cache.stats().txns_aborted, 1);
    }

    #[test]
    fn execute_transaction_reports_aborts_as_outcome() {
        let (db, cache) = setup(3, Strategy::Abort);
        build_stale_pair(&db, &cache);
        let outcome = cache
            .execute_transaction(SimTime::from_secs(1), TxnId(2), &[ObjectId(1), ObjectId(2)])
            .unwrap();
        match outcome {
            ReadOnlyOutcome::Aborted { violating_object } => {
                assert_eq!(violating_object, ObjectId(2))
            }
            ReadOnlyOutcome::Committed(_) => panic!("expected abort"),
        }
        // Unknown objects still propagate as errors.
        assert!(cache
            .execute_transaction(SimTime::ZERO, TxnId(3), &[ObjectId(1), ObjectId(999)])
            .is_err());
        // Empty transactions commit trivially.
        let empty = cache
            .execute_transaction(SimTime::ZERO, TxnId(4), &[])
            .unwrap();
        assert!(empty.is_committed());
    }

    #[test]
    fn plain_cache_never_detects_anything() {
        let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
        db.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
        let cache = EdgeCache::plain(CacheId(0), Arc::clone(&db));
        build_stale_pair(&db, &cache);
        let outcome = cache
            .execute_transaction(SimTime::from_secs(1), TxnId(2), &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert!(
            outcome.is_committed(),
            "the consistency-unaware cache commits the inconsistent transaction"
        );
        // And the stale version is what the client saw.
        let values = outcome.values().unwrap();
        assert_eq!(values[1].version, Version::INITIAL);
    }

    #[test]
    fn ttl_cache_expires_entries_and_rereads_fresh_data() {
        let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
        db.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
        let cache = EdgeCache::ttl_baseline(CacheId(0), Arc::clone(&db), SimDuration::from_secs(30));
        build_stale_pair(&db, &cache);
        // Within the TTL the stale value is still served…
        let outcome = cache
            .execute_transaction(SimTime::from_secs(10), TxnId(2), &[ObjectId(2)])
            .unwrap();
        assert_eq!(outcome.values().unwrap()[0].version, Version::INITIAL);
        // …after the TTL the entry expires and the fresh version is fetched.
        let outcome = cache
            .execute_transaction(SimTime::from_secs(40), TxnId(3), &[ObjectId(2)])
            .unwrap();
        assert!(outcome.values().unwrap()[0].version > Version::INITIAL);
        assert!(cache.stats().misses >= 2);
    }

    #[test]
    fn unbounded_cache_detects_the_paper_example() {
        let db = Arc::new(Database::new(DatabaseConfig::unbounded()));
        db.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
        let cache = EdgeCache::unbounded(CacheId(0), Arc::clone(&db), Strategy::Abort);
        build_stale_pair(&db, &cache);
        let outcome = cache
            .execute_transaction(SimTime::from_secs(1), TxnId(2), &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert!(outcome.is_aborted());
        assert!(cache.config().dependency_bound.is_unbounded());
    }

    #[test]
    fn invalidations_are_idempotent_and_order_insensitive() {
        let (db, cache) = setup(3, Strategy::Abort);
        let now = SimTime::ZERO;
        cache.read(now, TxnId(1), ObjectId(1), true).unwrap();
        let c1 = db.execute_update(TxnId(10), &vec![1u64].into()).unwrap();
        let c2 = db.execute_update(TxnId(11), &vec![1u64].into()).unwrap();
        // Deliver the newer invalidation first, then the older one.
        cache.apply_invalidation(c2.invalidations.invalidations()[0]);
        // Entry evicted; re-read caches the fresh version.
        cache.read(now, TxnId(2), ObjectId(1), true).unwrap();
        cache.apply_invalidation(c1.invalidations.invalidations()[0]);
        // The stale invalidation must not evict the newer cached entry.
        assert!(cache.contains(ObjectId(1)));
        let s = cache.stats();
        assert_eq!(s.invalidations_applied, 1);
        assert_eq!(s.invalidations_ignored, 1);
    }

    #[test]
    fn crash_clears_store_and_restart_adopts_stream_position() {
        let (db, cache) = setup(3, Strategy::Abort);
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(1), true).unwrap();
        assert_eq!(cache.cached_objects(), 1);

        cache.crash(SimTime::from_secs(1));
        assert_eq!(cache.cached_objects(), 0, "crash drops the store");
        assert!(cache.is_crashed());
        assert_eq!(cache.lifecycle_state().name(), "crashed");

        // Updates committed while the cache is down are logged at the db.
        db.execute_update(TxnId(10), &vec![1u64].into()).unwrap();
        db.execute_update(TxnId(11), &vec![2u64].into()).unwrap();

        cache.restart();
        assert!(!cache.is_crashed());
        assert_eq!(cache.lifecycle_state(), LifecycleState::Healthy);
        assert_eq!(
            cache.last_applied_seq(),
            db.invalidation_latest_seq(),
            "a cold store adopts the backend's current stream position"
        );
        assert_eq!(cache.lifecycle_stats().crashes, 1);
        // The restarted cache reads fresh data.
        let log = cache
            .execute_read_only(SimTime::from_secs(2), TxnId(2), &[ObjectId(1)])
            .unwrap();
        assert!(log.committed);
        assert_eq!(log.mode, ReadMode::Cached);
        assert!(log.observed[0].1 > Version::INITIAL);
    }

    #[test]
    fn gap_without_recovery_policy_is_counted_but_not_repaired() {
        let (db, cache) = setup(3, Strategy::Abort);
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(1), true).unwrap();

        let c1 = db.execute_update(TxnId(10), &vec![1u64].into()).unwrap();
        cache.apply_invalidation(c1.invalidations.invalidations()[0]);
        assert_eq!(cache.last_applied_seq(), 1);

        // Lose seq 2, deliver seq 3.
        let _lost = db.execute_update(TxnId(11), &vec![1u64].into()).unwrap();
        let c3 = db.execute_update(TxnId(12), &vec![1u64].into()).unwrap();
        cache.apply_invalidation(c3.invalidations.invalidations()[0]);

        let stats = cache.lifecycle_stats();
        assert_eq!(stats.gaps_detected, 1);
        assert_eq!(stats.invalidations_missed, 1);
        assert_eq!(stats.log_replays, 0);
        assert_eq!(cache.last_applied_seq(), 3);
    }

    #[test]
    fn gap_triggers_inline_log_replay_under_gap_resync() {
        let (db, cache) = setup(3, Strategy::Abort);
        cache.set_recovery_policy(RecoveryPolicy::GapResync {
            staleness_budget: SimDuration::from_millis(100),
        });
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(1), true).unwrap();
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(2), true).unwrap();

        let c1 = db.execute_update(TxnId(10), &vec![1u64].into()).unwrap();
        cache.apply_invalidation(c1.invalidations.invalidations()[0]);

        // Object 2's invalidation (seq 2) is lost; seq 3 arrives and the
        // gap triggers a replay that also invalidates object 2.
        let _lost = db.execute_update(TxnId(11), &vec![2u64].into()).unwrap();
        let c3 = db.execute_update(TxnId(12), &vec![1u64].into()).unwrap();
        cache.apply_invalidation(c3.invalidations.invalidations()[0]);

        let stats = cache.lifecycle_stats();
        assert_eq!(stats.gaps_detected, 1);
        assert_eq!(stats.log_replays, 1);
        assert_eq!(stats.replayed_invalidations, 2);
        assert_eq!(stats.snapshot_resyncs, 0);
        assert_eq!(cache.last_applied_seq(), 3);
        // The stale copy of object 2 was removed by the replay, so the
        // next read fetches the fresh version.
        let log = cache
            .execute_read_only(SimTime::from_secs(1), TxnId(2), &[ObjectId(2)])
            .unwrap();
        assert!(log.observed[0].1 > Version::INITIAL);
    }

    #[test]
    fn truncated_log_forces_snapshot_resync_on_reconnect() {
        let mut config = DatabaseConfig::with_bound(3);
        config.invalidation_log_capacity = 2;
        let db = Arc::new(Database::new(config));
        db.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
        let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), 3, Strategy::Abort);
        cache.set_recovery_policy(RecoveryPolicy::GapResync {
            staleness_budget: SimDuration::from_millis(100),
        });
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(1), true).unwrap();

        cache.disconnect(SimTime::from_secs(1));
        // Far more updates than the log retains.
        for i in 0..5 {
            db.execute_update(TxnId(10 + i), &vec![1u64, 2].into()).unwrap();
        }
        cache.reconnect();

        let stats = cache.lifecycle_stats();
        assert_eq!(stats.partitions, 1);
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.log_replays, 0);
        assert_eq!(stats.snapshot_resyncs, 1, "log truncated: full resync");
        assert_eq!(cache.cached_objects(), 0, "snapshot resync drops the store");
        assert_eq!(cache.last_applied_seq(), db.invalidation_latest_seq());
        assert_eq!(cache.lifecycle_state(), LifecycleState::Healthy);
    }

    #[test]
    fn partition_preserves_stale_entries_and_reconnect_replays() {
        let (db, cache) = setup(3, Strategy::Abort);
        cache.set_recovery_policy(RecoveryPolicy::GapResync {
            staleness_budget: SimDuration::from_secs(10),
        });
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(1), true).unwrap();

        cache.disconnect(SimTime::from_secs(1));
        db.execute_update(TxnId(10), &vec![1u64].into()).unwrap();

        // Within the staleness budget the partitioned cache serves the
        // stale local copy.
        let log = cache
            .execute_read_only(SimTime::from_secs(2), TxnId(2), &[ObjectId(1)])
            .unwrap();
        assert_eq!(log.mode, ReadMode::Cached);
        assert_eq!(log.observed[0].1, Version::INITIAL, "stale within budget");

        cache.reconnect();
        let stats = cache.lifecycle_stats();
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.log_replays, 1);
        // The replay invalidated the stale entry; the next read is fresh.
        let log = cache
            .execute_read_only(SimTime::from_secs(3), TxnId(3), &[ObjectId(1)])
            .unwrap();
        assert_eq!(log.mode, ReadMode::Cached);
        assert!(log.observed[0].1 > Version::INITIAL);
    }

    #[test]
    fn exhausted_staleness_budget_degrades_to_pass_through() {
        let (db, cache) = setup(3, Strategy::Abort);
        cache.set_recovery_policy(RecoveryPolicy::GapResync {
            staleness_budget: SimDuration::from_millis(500),
        });
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(1), true).unwrap();

        cache.disconnect(SimTime::from_secs(1));
        db.execute_update(TxnId(10), &vec![1u64].into()).unwrap();

        // Past the budget the cache degrades: reads bypass the (stale)
        // store and observe the backend's current version.
        let log = cache
            .execute_read_only(SimTime::from_secs(2), TxnId(2), &[ObjectId(1)])
            .unwrap();
        assert_eq!(log.mode, ReadMode::PassThrough);
        assert!(log.committed);
        assert!(log.observed[0].1 > Version::INITIAL, "pass-through is fresh");
        assert!(matches!(
            cache.lifecycle_state(),
            LifecycleState::Degraded { crashed: false }
        ));
        assert_eq!(cache.lifecycle_stats().pass_through_txns, 1);

        // Reconnect resyncs and readmits cached reads.
        cache.reconnect();
        let log = cache
            .execute_read_only(SimTime::from_secs(3), TxnId(3), &[ObjectId(1)])
            .unwrap();
        assert_eq!(log.mode, ReadMode::Cached);
        assert!(log.observed[0].1 > Version::INITIAL);
    }

    #[test]
    fn no_recovery_policy_never_degrades() {
        let (db, cache) = setup(3, Strategy::Abort);
        cache.read(SimTime::ZERO, TxnId(1), ObjectId(1), true).unwrap();
        cache.disconnect(SimTime::from_secs(1));
        db.execute_update(TxnId(10), &vec![1u64].into()).unwrap();

        // However long the partition, RecoveryPolicy::None keeps serving
        // stale local data — the "without recovery" axis of the figure.
        let log = cache
            .execute_read_only(SimTime::from_secs(3600), TxnId(2), &[ObjectId(1)])
            .unwrap();
        assert_eq!(log.mode, ReadMode::Cached);
        assert_eq!(log.observed[0].1, Version::INITIAL);
        assert_eq!(cache.lifecycle_stats().pass_through_txns, 0);

        cache.reconnect();
        assert_eq!(cache.lifecycle_stats().log_replays, 0, "no resync");
        // The stale entry survives reconnection (still unrepaired until an
        // invalidation or eviction arrives).
        let log = cache
            .execute_read_only(SimTime::from_secs(3601), TxnId(3), &[ObjectId(1)])
            .unwrap();
        assert_eq!(log.observed[0].1, Version::INITIAL);
    }

    #[test]
    fn execute_read_only_reports_aborts_with_partial_observations() {
        let (db, cache) = setup(3, Strategy::Abort);
        build_stale_pair(&db, &cache);
        let log = cache
            .execute_read_only(SimTime::from_secs(1), TxnId(2), &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert!(!log.committed);
        assert_eq!(log.mode, ReadMode::Cached);
        assert_eq!(log.observed.len(), 1, "the aborting read observes nothing");
        // Unknown objects still propagate as errors.
        assert!(cache
            .execute_read_only(SimTime::ZERO, TxnId(3), &[ObjectId(999)])
            .is_err());
    }

    #[test]
    fn zero_bound_tcache_behaves_like_plain_for_detection() {
        let (db, cache) = {
            let db = Arc::new(Database::new(DatabaseConfig::with_bound(0)));
            db.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
            let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), 0, Strategy::Abort);
            (db, cache)
        };
        build_stale_pair(&db, &cache);
        let outcome = cache
            .execute_transaction(SimTime::from_secs(1), TxnId(2), &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert!(
            outcome.is_committed(),
            "without dependency information nothing can be detected"
        );
    }
}
