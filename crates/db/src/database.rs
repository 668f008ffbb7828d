//! The database façade: the public entry point of the backend store.
//!
//! [`Database`] combines one versioned store, one lock table, the version
//! clock and the dependency aggregation into the single-column backend used
//! throughout the evaluation. Update transactions are executed with
//! [`Database::execute_update`] (the evaluation's read-modify-write shape)
//! or [`Database::execute_update_writes`] (explicit read and write sets);
//! caches serve misses with [`Database::read_entry`].
//!
//! A commit is one pass under strict two-phase locking: dedupe the access
//! set, lock every object (no-wait), read each once under its lock, assign
//! the version, aggregate only the head of the dependency lists
//! ([`AggregatedDependencies`]), install and release — and then sequence,
//! log and publish the invalidations. A 5-key
//! update allocates its five dependency lists and the three vectors of its
//! [`UpdateCommit`], nothing else (`tests/commit_allocs.rs` pins it).

use crate::commit::{self, Access, TxnObject, TxnObjects};
use crate::dependency_update::AggregatedDependencies;
use crate::invalidation::{Invalidation, InvalidationBatch};
use crate::locks::LockTable;
use crate::log::{InvalidationLog, InvalidationReplay};
use crate::publisher::{InvalidationPublisher, ReportingSink};
use crate::stats::{DbStats, DbStatsSnapshot};
use crate::store::VersionedStore;
use crate::version_clock::VersionClock;
use tcache_types::{
    AccessSet, CacheId, DependencyBound, ObjectEntry, ObjectId, TCacheResult, TxnId, Value,
    Version, WriteRecord,
};

/// Configuration of the backend database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseConfig {
    /// Bound on the dependency lists stored with objects (§III-A).
    pub dependency_bound: DependencyBound,
    /// Invalidations retained by the in-memory log for replay after a cache
    /// detects a sequence gap. A recovering cache whose gap is older than
    /// the retained suffix falls back to a snapshot resync.
    pub invalidation_log_capacity: usize,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            dependency_bound: DependencyBound::default(),
            invalidation_log_capacity: 1024,
        }
    }
}

impl DatabaseConfig {
    /// Convenience constructor matching the paper's experiments: the given
    /// dependency-list bound.
    pub fn with_bound(bound: usize) -> Self {
        DatabaseConfig {
            dependency_bound: DependencyBound::Bounded(bound),
            ..DatabaseConfig::default()
        }
    }

    /// The unbounded configuration of Theorem 1.
    pub fn unbounded() -> Self {
        DatabaseConfig {
            dependency_bound: DependencyBound::Unbounded,
            ..DatabaseConfig::default()
        }
    }
}

/// The result of a committed update transaction.
#[derive(Debug, Clone)]
pub struct UpdateCommit {
    /// The transaction id.
    pub txn: TxnId,
    /// The version assigned to the transaction (installed on every write).
    pub version: Version,
    /// `(object, version observed before the update)` for every read.
    pub reads: Vec<(ObjectId, Version)>,
    /// `(object, new version)` for every written object.
    pub written: Vec<(ObjectId, Version)>,
    /// Invalidations to be delivered (asynchronously, unreliably) to caches.
    pub invalidations: InvalidationBatch,
}

/// The transactional backend key-value store.
#[derive(Debug)]
pub struct Database {
    store: VersionedStore,
    locks: LockTable,
    clock: VersionClock,
    stats: DbStats,
    config: DatabaseConfig,
    publisher: InvalidationPublisher,
    log: InvalidationLog,
}

impl Database {
    /// Creates an empty database with the given configuration.
    pub fn new(config: DatabaseConfig) -> Self {
        Database {
            store: VersionedStore::new(),
            locks: LockTable::new(),
            clock: VersionClock::new(),
            stats: DbStats::new(),
            config,
            publisher: InvalidationPublisher::new(),
            log: InvalidationLog::new(config.invalidation_log_capacity),
        }
    }

    /// Registers a cache's invalidation upcall (§IV): after every committed
    /// update, the batch of invalidations is fanned out to every registered
    /// cache. The per-cache delivery pipe (its loss and delay) sits between
    /// this upcall and the cache — see `tcache-net`. The upcall reports what
    /// its pipe did with each batch, so publish-side backpressure shows up
    /// in [`Database::publish_stats`] and commit latency can be attributed
    /// to slow pipes.
    pub fn register_invalidation_upcall(&self, cache: CacheId, sink: ReportingSink) {
        self.publisher.register(cache, sink);
    }

    /// Removes a cache's invalidation upcall; returns `true` if one existed.
    pub fn unregister_invalidation_upcall(&self, cache: CacheId) -> bool {
        self.publisher.unregister(cache)
    }

    /// Per-cache publication statistics: batches and invalidations
    /// published, overflow and stalls reported by the sinks, and the time
    /// commits spent inside each cache's upcall.
    #[must_use]
    pub fn publish_stats(&self) -> Vec<(CacheId, crate::publisher::PublishStats)> {
        self.publisher.publish_stats()
    }

    /// The configuration the database was built with.
    pub fn config(&self) -> DatabaseConfig {
        self.config
    }

    /// Loads objects at their initial version (outside any transaction).
    pub fn populate(&self, objects: impl IntoIterator<Item = (ObjectId, Value)>) {
        for (id, value) in objects {
            self.store.insert_initial(id, value);
        }
    }

    /// Number of objects stored.
    pub fn object_count(&self) -> usize {
        self.store.len()
    }

    /// Serves a single-object read on behalf of a cache miss, returning the
    /// value, version and dependency list (§III-B: caches "read from the
    /// database not only the object's value, but also its version and the
    /// dependency list").
    ///
    /// # Errors
    /// Returns [`tcache_types::TCacheError::UnknownObject`] if the object
    /// does not exist.
    pub fn read_entry(&self, id: ObjectId) -> TCacheResult<ObjectEntry> {
        self.stats.record_single_read();
        self.store.get(id)
    }

    /// Reads an entry without counting it as externally generated load
    /// (used by tests and by the monitor when auditing).
    pub fn peek_entry(&self, id: ObjectId) -> TCacheResult<ObjectEntry> {
        self.store.get(id)
    }

    /// Executes the evaluation's standard update transaction over an access
    /// set: every distinct object in the set is read and then written back
    /// with its value bumped ("update transactions first read all objects
    /// from the database, and then update all objects", §V-B1). Each object
    /// is read once, under the transaction's exclusive lock: the bumped
    /// value, the observed version and the inherited dependency list all
    /// come from that one read.
    ///
    /// # Errors
    /// Propagates concurrency-control aborts and unknown-object errors.
    pub fn execute_update(&self, txn: TxnId, access: &AccessSet) -> TCacheResult<UpdateCommit> {
        let mut objects = TxnObjects::new();
        for &id in access.objects() {
            if objects.iter().all(|o| o.id() != id) {
                objects.push(TxnObject::new(id, Access::Bump));
            }
        }
        self.commit_update(txn, objects)
    }

    /// Executes an update transaction with an explicit read set and write
    /// set. Objects in `writes` that are missing from `reads` are read
    /// implicitly (their old dependency lists still flow into the
    /// aggregation); objects only in `reads` are locked shared and not
    /// written. An object written twice installs its last value.
    ///
    /// # Errors
    /// Returns an error if any object is unknown or a lock is refused; in
    /// that case nothing is installed.
    pub fn execute_update_writes(
        &self,
        txn: TxnId,
        reads: &[ObjectId],
        writes: Vec<WriteRecord>,
    ) -> TCacheResult<UpdateCommit> {
        // The accessed objects in access order: all reads, then all writes.
        let mut objects = TxnObjects::new();
        for &id in reads {
            if objects.iter().all(|o| o.id() != id) {
                objects.push(TxnObject::new(id, Access::Read));
            }
        }
        for w in writes {
            match objects.iter_mut().find(|o| o.id() == w.object) {
                Some(object) => object.set_access(Access::Write(w.value)),
                None => objects.push(TxnObject::new(w.object, Access::Write(w.value))),
            }
        }
        self.commit_update(txn, objects)
    }

    /// The commit shared by both update shapes, one pass under strict
    /// two-phase locking: lock and read every object, assign the version,
    /// aggregate the dependency lists' head, install and release, then
    /// sequence, log and publish the invalidations.
    fn commit_update(&self, txn: TxnId, mut objects: TxnObjects) -> TCacheResult<UpdateCommit> {
        if let Err(e) = commit::lock_and_read(&self.locks, &self.store, txn, &mut objects) {
            self.stats.record_update_abort();
            return Err(e);
        }
        self.stats.record_update_reads(objects.len() as u64);
        let reads: Vec<(ObjectId, Version)> = objects
            .iter()
            .map(|o| (o.id(), o.observed().version))
            .collect();

        // The transaction version: larger than every observed version.
        let version = self.clock.assign(reads.iter().map(|&(_, v)| v));

        // Aggregate dependency lists per §III-A: written objects enter at
        // the transaction's version, read-only ones at the version read.
        let agg = AggregatedDependencies::aggregate(
            objects.iter().map(|o| {
                let entry = o.observed();
                let entered = if o.access().writes() { version } else { entry.version };
                (o.id(), entered, &*entry.dependencies)
            }),
            self.config.dependency_bound.limit(),
        );

        let writes = objects.iter().filter(|o| o.access().writes()).count();
        let mut written = Vec::with_capacity(writes);
        commit::install_and_release(
            &self.locks,
            &self.store,
            txn,
            &objects,
            version,
            |id| agg.list_for(id),
            |id| written.push((id, version)),
        );
        self.stats.record_update_commit(written.len() as u64);
        let mut invalidations: InvalidationBatch = written
            .iter()
            .map(|&(o, v)| Invalidation::new(o, v, txn))
            .collect();
        // Stamp stream positions and retain the batch for replay before
        // fanning it out, so every published invalidation is already
        // sequenced and recoverable.
        self.log.record(&mut invalidations);
        self.stats.record_invalidations(invalidations.len() as u64);
        self.publisher.publish(&invalidations);
        Ok(UpdateCommit {
            txn,
            version,
            reads,
            written,
            invalidations,
        })
    }

    /// A snapshot of the database load counters.
    #[must_use]
    pub fn stats(&self) -> DbStatsSnapshot {
        self.stats.snapshot()
    }

    /// The newest invalidation sequence number the database has published
    /// (0 before the first committed update). A cache restarting with a
    /// cold store adopts this as its stream position: everything older is
    /// irrelevant because misses re-fetch current versions.
    pub fn invalidation_latest_seq(&self) -> u64 {
        self.log.latest_seq()
    }

    /// Replays every invalidation with a sequence number greater than
    /// `after_seq`, or reports that the log has been truncated past that
    /// point (the caller must snapshot-resync instead).
    pub fn replay_invalidations(&self, after_seq: u64) -> InvalidationReplay {
        self.log.replay_after(after_seq)
    }

    /// Number of objects currently locked. Zero whenever no transaction is
    /// mid-commit — the invariant the crash-during-commit tests pin down.
    pub fn locked_objects(&self) -> usize {
        self.locks.locked_objects()
    }

    /// The configured dependency bound.
    pub fn dependency_bound(&self) -> DependencyBound {
        self.config.dependency_bound
    }

    /// Approximate memory footprint of all stored entries in bytes
    /// (value payloads plus dependency lists).
    pub fn footprint_bytes(&self) -> usize {
        self.store.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::TCacheError;

    fn db_with(objects: u64, bound: usize) -> Database {
        let db = Database::new(DatabaseConfig::with_bound(bound));
        db.populate((0..objects).map(|i| (ObjectId(i), Value::new(0))));
        db
    }

    #[test]
    fn populate_and_read() {
        let db = db_with(10, 3);
        assert_eq!(db.object_count(), 10);
        let e = db.read_entry(ObjectId(4)).unwrap();
        assert_eq!(e.version, Version::INITIAL);
        assert_eq!(db.stats().single_reads, 1);
        assert!(db.read_entry(ObjectId(99)).is_err());
        assert_eq!(db.config(), DatabaseConfig::with_bound(3));
    }

    #[test]
    fn update_bumps_values_and_versions() {
        let db = db_with(10, 3);
        let access: AccessSet = vec![1u64, 2, 3].into();
        let commit = db.execute_update(TxnId(1), &access).unwrap();
        assert_eq!(commit.written.len(), 3);
        assert!(commit.version > Version::INITIAL);
        for &(o, v) in &commit.written {
            let e = db.peek_entry(o).unwrap();
            assert_eq!(e.version, v);
            assert_eq!(e.value.numeric(), 1);
        }
        // Stats reflect the commit.
        let s = db.stats();
        assert_eq!(s.updates_committed, 1);
        assert_eq!(s.objects_written, 3);
        assert_eq!(s.invalidations_published, 3);
        assert_eq!(s.update_reads, 3);
    }

    #[test]
    fn repeated_access_set_objects_are_deduplicated() {
        let db = db_with(5, 3);
        let access: AccessSet = vec![1u64, 1, 2, 2, 2].into();
        let commit = db.execute_update(TxnId(1), &access).unwrap();
        assert_eq!(commit.written.len(), 2);
    }

    #[test]
    fn dependency_lists_cross_reference_co_written_objects() {
        let db = db_with(10, 5);
        let access: AccessSet = vec![1u64, 2, 3].into();
        let commit = db.execute_update(TxnId(1), &access).unwrap();
        let e1 = db.peek_entry(ObjectId(1)).unwrap();
        assert_eq!(e1.dependencies.version_of(ObjectId(2)), Some(commit.version));
        assert_eq!(e1.dependencies.version_of(ObjectId(3)), Some(commit.version));
        assert!(!e1.dependencies.contains(ObjectId(1)));
    }

    #[test]
    fn dependency_lists_are_bounded() {
        let db = db_with(20, 2);
        let access: AccessSet = vec![1u64, 2, 3, 4, 5, 6].into();
        db.execute_update(TxnId(1), &access).unwrap();
        for i in 1..=6u64 {
            assert!(db.peek_entry(ObjectId(i)).unwrap().dependencies.len() <= 2);
        }
    }

    #[test]
    fn dependencies_are_inherited_across_transactions() {
        let db = db_with(10, 5);
        // txn 1 links objects 1 and 2.
        db.execute_update(TxnId(1), &vec![1u64, 2].into()).unwrap();
        // txn 2 links objects 2 and 3; object 3 must inherit the dependency
        // on object 1 from object 2's list.
        db.execute_update(TxnId(2), &vec![2u64, 3].into()).unwrap();
        let e3 = db.peek_entry(ObjectId(3)).unwrap();
        assert!(e3.dependencies.contains(ObjectId(2)));
        assert!(e3.dependencies.contains(ObjectId(1)), "transitive dependency inherited");
    }

    #[test]
    fn versions_strictly_increase_across_transactions() {
        let db = db_with(5, 3);
        let c1 = db.execute_update(TxnId(1), &vec![1u64].into()).unwrap();
        let c2 = db.execute_update(TxnId(2), &vec![1u64].into()).unwrap();
        let c3 = db.execute_update(TxnId(3), &vec![2u64].into()).unwrap();
        assert!(c1.version < c2.version);
        assert!(c2.version < c3.version);
        assert_eq!(db.peek_entry(ObjectId(1)).unwrap().version, c2.version);
    }

    #[test]
    fn explicit_read_write_sets() {
        let db = db_with(10, 5);
        // Read object 5 (without writing it), write objects 1 and 2.
        let commit = db
            .execute_update_writes(
                TxnId(1),
                &[ObjectId(5)],
                vec![
                    WriteRecord::new(ObjectId(1), Value::new(100)),
                    WriteRecord::new(ObjectId(2), Value::new(200)),
                ],
            )
            .unwrap();
        assert_eq!(commit.reads.len(), 3, "reads cover the read set plus implicit write reads");
        assert_eq!(commit.written.len(), 2);
        assert_eq!(db.peek_entry(ObjectId(1)).unwrap().value.numeric(), 100);
        // Object 5 is not written, keeps its initial version…
        assert_eq!(db.peek_entry(ObjectId(5)).unwrap().version, Version::INITIAL);
        // …but the written objects depend on it at the observed version.
        let e1 = db.peek_entry(ObjectId(1)).unwrap();
        assert_eq!(e1.dependencies.version_of(ObjectId(5)), Some(Version::INITIAL));
    }

    #[test]
    fn committed_updates_fan_out_to_registered_upcalls() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let db = db_with(10, 3);
        let counts: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for (i, count) in counts.iter().enumerate() {
            let count = Arc::clone(count);
            db.register_invalidation_upcall(
                CacheId(i as u32),
                Box::new(move |batch| {
                    count.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    crate::publisher::SinkReport::default()
                }),
            );
        }
        db.execute_update(TxnId(1), &vec![1u64, 2, 3].into()).unwrap();
        assert_eq!(counts[0].load(Ordering::Relaxed), 3);
        assert_eq!(counts[1].load(Ordering::Relaxed), 3);
        let registered: Vec<CacheId> = db.publish_stats().iter().map(|&(c, _)| c).collect();
        assert_eq!(registered, vec![CacheId(0), CacheId(1)]);
        // An aborted update publishes nothing.
        let _ = db.execute_update(TxnId(2), &vec![99u64].into());
        assert_eq!(counts[0].load(Ordering::Relaxed), 3);
        assert!(db.unregister_invalidation_upcall(CacheId(1)));
        db.execute_update(TxnId(3), &vec![4u64].into()).unwrap();
        assert_eq!(counts[0].load(Ordering::Relaxed), 4);
        assert_eq!(counts[1].load(Ordering::Relaxed), 3);
    }

    #[test]
    fn invalidations_are_sequenced_and_replayable() {
        let db = db_with(10, 3);
        assert_eq!(db.invalidation_latest_seq(), 0);
        let c1 = db.execute_update(TxnId(1), &vec![2u64, 1].into()).unwrap();
        let c2 = db.execute_update(TxnId(2), &vec![3u64].into()).unwrap();
        // Each batch occupies a contiguous stream window, in commit order,
        // stamped in the transaction's access order.
        let stamped = |c: &UpdateCommit| -> Vec<(u64, u64)> {
            c.invalidations.iter().map(|i| (i.object.as_u64(), i.seq)).collect()
        };
        assert_eq!(stamped(&c1), vec![(2, 1), (1, 2)]);
        assert_eq!(stamped(&c2), vec![(3, 3)]);
        assert_eq!(db.invalidation_latest_seq(), 3);
        match db.replay_invalidations(1) {
            crate::log::InvalidationReplay::Replayed(invs) => {
                assert_eq!(invs.iter().map(|i| i.seq).collect::<Vec<_>>(), vec![2, 3]);
            }
            other => panic!("expected replay, got {other:?}"),
        }
        assert_eq!(db.locked_objects(), 0, "no locks held after commits");
    }

    #[test]
    fn truncated_log_reports_snapshot_resync() {
        let config = DatabaseConfig {
            invalidation_log_capacity: 2,
            ..DatabaseConfig::with_bound(3)
        };
        let db = Database::new(config);
        db.populate((0..8).map(|i| (ObjectId(i), Value::new(0))));
        for t in 0..4u64 {
            db.execute_update(TxnId(t), &vec![t, t + 1].into()).unwrap();
        }
        assert_eq!(db.invalidation_latest_seq(), 8);
        assert_eq!(
            db.replay_invalidations(0),
            crate::log::InvalidationReplay::Truncated { latest: 8 }
        );
        match db.replay_invalidations(6) {
            crate::log::InvalidationReplay::Replayed(invs) => assert_eq!(invs.len(), 2),
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn unknown_object_aborts_and_counts() {
        let db = db_with(2, 3);
        let err = db
            .execute_update(TxnId(1), &vec![0u64, 99].into())
            .unwrap_err();
        assert_eq!(err, TCacheError::UnknownObject(ObjectId(99)));
        assert_eq!(db.stats().updates_aborted, 1);
        assert_eq!(db.stats().updates_committed, 0);
    }

    /// A refused lock and an unknown object each abort holding no lock,
    /// and neither consumes a version or a stream position: the next
    /// commit's version is one more than the last commit's and the
    /// invalidation stream has not moved.
    #[test]
    fn aborts_hold_no_lock_and_consume_no_version_or_sequence() {
        use crate::locks::LockMode;
        let db = db_with(4, 3);
        let first = db.execute_update(TxnId(1), &vec![0u64].into()).unwrap();
        let seq = db.invalidation_latest_seq();

        // A lock held by a dangling transaction refuses the update.
        db.locks
            .try_lock(TxnId(99), [(ObjectId(2), LockMode::Exclusive)])
            .unwrap();
        let refused = db.execute_update(TxnId(2), &vec![1u64, 2].into());
        assert!(matches!(
            refused,
            Err(TCacheError::UpdateAborted {
                reason: tcache_types::ConflictReason::LockConflict,
                ..
            })
        ));
        assert_eq!(db.locked_objects(), 1, "only the dangling lock");
        assert_eq!(db.invalidation_latest_seq(), seq);
        db.locks.release(TxnId(99), [ObjectId(2)]);
        let second = db.execute_update(TxnId(3), &vec![1u64].into()).unwrap();
        assert_eq!(second.version.as_u64(), first.version.as_u64() + 1);
        let seq = db.invalidation_latest_seq();

        // An unknown object aborts after every lock was granted.
        let unknown = db.execute_update(TxnId(4), &vec![1u64, 77].into());
        assert_eq!(unknown.unwrap_err(), TCacheError::UnknownObject(ObjectId(77)));
        assert_eq!(db.locked_objects(), 0);
        assert_eq!(db.invalidation_latest_seq(), seq);
        let third = db.execute_update(TxnId(5), &vec![1u64].into()).unwrap();
        assert_eq!(third.version.as_u64(), second.version.as_u64() + 1);
        assert_eq!(db.stats().updates_aborted, 2);
    }

    #[test]
    fn unbounded_config_keeps_every_dependency() {
        let db = Database::new(DatabaseConfig::unbounded());
        db.populate((0..30).map(|i| (ObjectId(i), Value::new(0))));
        let access: AccessSet = (0..20u64).collect::<Vec<_>>().into();
        db.execute_update(TxnId(1), &access).unwrap();
        let e = db.peek_entry(ObjectId(0)).unwrap();
        assert_eq!(e.dependencies.len(), 19);
    }

    #[test]
    fn stats_classify_reads_by_path() {
        let db = db_with(10, 3);
        db.read_entry(ObjectId(1)).unwrap();
        db.peek_entry(ObjectId(1)).unwrap();
        db.execute_update(TxnId(1), &vec![2u64, 3].into()).unwrap();
        let snap = db.stats();
        // The miss read counts as a single read, the peek as nothing, and
        // the update's one read per object under its locks as update
        // reads: that read is the existence check, so there is no second,
        // prepare-time probe per object.
        assert_eq!(snap.single_reads, 1);
        assert_eq!(snap.update_reads, 2);
        assert_eq!(snap.total_reads(), 3);
        // Benchmark-pinned and never counted.
        assert_eq!(snap.read_path, crate::stats::ReadPathStatsSnapshot::default());
    }

    #[test]
    fn footprint_reflects_dependency_storage() {
        let db = db_with(10, 5);
        let before = db.footprint_bytes();
        db.execute_update(TxnId(1), &vec![0u64, 1, 2, 3, 4].into()).unwrap();
        assert!(db.footprint_bytes() > before);
    }
}
