//! A database shard: owns a partition of the object space and participates
//! in two-phase commit.
//!
//! Each shard has its own [`VersionedStore`] and lock table. The coordinator
//! (in [`crate::twopc`]) drives the `prepare` / `commit` / `abort` protocol;
//! a shard votes *yes* on prepare only if it can lock every touched object
//! it owns.
//!
//! Read-only accesses take the store's read path: on the default
//! [`ReadPath::Optimistic`] a read is a seqlock-validated snapshot that
//! never touches the lock table at all (validation replaces the shared
//! lock), while [`ReadPath::Locked`] reproduces the historical behaviour of
//! a short-lived shared lock per read. Write locking is identical in both
//! modes.

use crate::locks::{LockMode, LockTable};
use crate::store::{HistoricalVersion, ReadPath, VersionedStore};
use parking_lot::Mutex;
use tcache_types::{
    DependencyList, IdMap, ObjectEntry, ObjectId, TCacheError, TCacheResult, TxnId, Value, Version,
};

/// A single write staged during the prepare phase.
#[derive(Debug, Clone)]
pub struct PreparedWrite {
    /// The object to overwrite.
    pub object: ObjectId,
    /// The new value.
    pub value: Value,
    /// The version to install (the transaction's version).
    pub version: Version,
    /// The dependency list to install alongside.
    pub dependencies: DependencyList,
}

/// The vote a shard casts during the prepare phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// The shard locked everything and staged the writes.
    Yes,
    /// The shard could not lock an object; the transaction must abort.
    No,
}

/// A shard of the backend database.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    store: VersionedStore,
    locks: LockTable,
    prepared: Mutex<IdMap<TxnId, Vec<PreparedWrite>>>,
}

impl Shard {
    /// Creates an empty shard on the default optimistic read path.
    /// `history_depth` is forwarded to the store.
    pub fn new(index: usize, history_depth: usize) -> Self {
        Shard::with_read_path(index, history_depth, ReadPath::default())
    }

    /// Creates an empty shard whose store serves reads on an explicit
    /// [`ReadPath`] (see [`VersionedStore::with_read_path`]).
    pub fn with_read_path(index: usize, history_depth: usize, read_path: ReadPath) -> Self {
        Shard {
            index,
            store: VersionedStore::with_read_path(history_depth, read_path),
            locks: LockTable::new(),
            prepared: Mutex::new(IdMap::default()),
        }
    }

    /// The shard's position within the database.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of objects currently locked on this shard. Zero whenever no
    /// transaction is between prepare and commit/abort here.
    pub fn locked_objects(&self) -> usize {
        self.locks.locked_objects()
    }

    /// Direct access to the underlying store (reads, populate).
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// Inserts an object at its initial version (population phase, outside
    /// of any transaction).
    pub fn populate(&self, id: ObjectId, value: Value) {
        self.store.insert_initial(id, value);
    }

    /// Reads the current entry for an object owned by this shard on the
    /// store's configured read path, without registering in the lock
    /// table. This is the surface behind every cache miss
    /// ([`Database::read_entry`]) and every update transaction's
    /// pre-prepare reads: on [`ReadPath::Optimistic`] it is a non-blocking
    /// bucket snapshot; on [`ReadPath::Locked`] it blocks on the store's
    /// single lock (but still never touches the 2PL table — the observed
    /// versions are what update transactions later re-validate under their
    /// exclusive locks, and read-only traffic needs no table entry at
    /// all).
    ///
    /// [`Database::read_entry`]: crate::database::Database::read_entry
    pub fn read_entry(&self, id: ObjectId) -> TCacheResult<ObjectEntry> {
        self.store.get(id)
    }

    /// Reads the current entry for an object on behalf of transaction
    /// `txn`, honouring the lock table when the store is in
    /// [`ReadPath::Locked`] mode.
    ///
    /// On [`ReadPath::Optimistic`] this is [`Shard::read_entry`] — the
    /// snapshot is validated against the bucket sequence instead of a
    /// shared lock, so the read is invisible to the lock table. On
    /// [`ReadPath::Locked`] the historical behaviour is kept: a short
    /// shared lock held for the duration of the copy (failing no-wait if a
    /// writer holds the object exclusively). Either way, update
    /// transactions re-acquire exclusive locks at prepare time, which is
    /// where write-write conflicts are decided.
    pub fn read(&self, txn: TxnId, id: ObjectId) -> TCacheResult<ObjectEntry> {
        if self.store.read_path() == ReadPath::Optimistic {
            return self.read_entry(id);
        }
        self.locks.try_lock_all(txn, &[id], LockMode::Shared)?;
        let result = self.store.get(id);
        // Reads release immediately; update transactions re-acquire
        // exclusive locks at prepare time.
        self.locks.release_all(txn);
        result
    }

    /// Reads one specific version of an object from the store's retained
    /// history (or the current entry if it matches). Never takes a lock-
    /// table lock: the lookup is a single bucket snapshot, so the current
    /// entry and the history are observed coherently even against a racing
    /// install. Surfaced as [`Database::read_version`] for audits.
    ///
    /// Returns `None` if the object is unknown or the version is not
    /// retained (see [`VersionedStore::read_version`]).
    ///
    /// [`Database::read_version`]: crate::database::Database::read_version
    pub fn read_version(&self, id: ObjectId, version: Version) -> Option<HistoricalVersion> {
        self.store.read_version(id, version)
    }

    /// Phase one of two-phase commit: lock the written objects exclusively
    /// and stage the writes. Returns the shard's vote.
    ///
    /// Locks are acquired *before* the existence check so the check cannot
    /// race with concurrent writers, and every acquired lock is released on
    /// the `Vote::No` path — a shard that votes no never leaves partial
    /// locks behind.
    pub fn prepare(&self, txn: TxnId, writes: Vec<PreparedWrite>) -> Vote {
        let objects: Vec<ObjectId> = writes.iter().map(|w| w.object).collect();
        if self
            .locks
            .try_lock_all(txn, &objects, LockMode::Exclusive)
            .is_err()
        {
            // try_lock_all is all-or-nothing: a conflict grants nothing.
            return Vote::No;
        }
        if objects.iter().any(|&o| !self.store.contains(o)) {
            self.locks.release_all(txn);
            return Vote::No;
        }
        self.prepared.lock().insert(txn, writes);
        Vote::Yes
    }

    /// Phase two (success): install every staged write and release locks.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnknownTransaction`] if the transaction never
    /// prepared at this shard.
    pub fn commit(&self, txn: TxnId) -> TCacheResult<Vec<(ObjectId, Version)>> {
        let writes = self
            .prepared
            .lock()
            .remove(&txn)
            .ok_or(TCacheError::UnknownTransaction(txn))?;
        let mut installed = Vec::with_capacity(writes.len());
        for w in writes {
            self.store
                .install(w.object, w.value, w.version, w.dependencies, txn)?;
            installed.push((w.object, w.version));
        }
        self.locks.release_all(txn);
        Ok(installed)
    }

    /// Phase two (failure): discard staged writes and release locks.
    /// Aborting a transaction that never prepared here is a no-op.
    pub fn abort(&self, txn: TxnId) {
        self.prepared.lock().remove(&txn);
        self.locks.release_all(txn);
    }

    /// Number of transactions currently in the prepared state
    /// (diagnostics / tests).
    pub fn prepared_count(&self) -> usize {
        self.prepared.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(o: u64, val: u64, ver: u64) -> PreparedWrite {
        PreparedWrite {
            object: ObjectId(o),
            value: Value::new(val),
            version: Version(ver),
            dependencies: DependencyList::bounded(3),
        }
    }

    fn shard_with(n: u64) -> Shard {
        let s = Shard::new(0, 0);
        for i in 0..n {
            s.populate(ObjectId(i), Value::new(0));
        }
        s
    }

    #[test]
    fn prepare_commit_installs_writes() {
        let s = shard_with(3);
        assert_eq!(s.index(), 0);
        let vote = s.prepare(TxnId(1), vec![write(0, 7, 1), write(1, 8, 1)]);
        assert_eq!(vote, Vote::Yes);
        assert_eq!(s.prepared_count(), 1);
        let installed = s.commit(TxnId(1)).unwrap();
        assert_eq!(installed.len(), 2);
        assert_eq!(s.store().get(ObjectId(0)).unwrap().value.numeric(), 7);
        assert_eq!(s.store().get(ObjectId(0)).unwrap().version, Version(1));
        assert_eq!(s.prepared_count(), 0);
    }

    #[test]
    fn prepare_conflicting_transactions_vote_no() {
        let s = shard_with(3);
        assert_eq!(s.prepare(TxnId(1), vec![write(0, 1, 1)]), Vote::Yes);
        assert_eq!(s.prepare(TxnId(2), vec![write(0, 2, 2)]), Vote::No);
        // After commit the object is free again.
        s.commit(TxnId(1)).unwrap();
        assert_eq!(s.prepare(TxnId(2), vec![write(0, 2, 2)]), Vote::Yes);
    }

    #[test]
    fn abort_discards_staged_writes_and_releases_locks() {
        let s = shard_with(2);
        assert_eq!(s.prepare(TxnId(1), vec![write(0, 9, 5)]), Vote::Yes);
        s.abort(TxnId(1));
        assert_eq!(s.prepared_count(), 0);
        assert_eq!(s.store().get(ObjectId(0)).unwrap().value.numeric(), 0);
        assert_eq!(s.prepare(TxnId(2), vec![write(0, 2, 2)]), Vote::Yes);
        // Aborting an unknown transaction is a no-op.
        s.abort(TxnId(42));
    }

    #[test]
    fn commit_without_prepare_errors() {
        let s = shard_with(1);
        assert_eq!(
            s.commit(TxnId(5)).unwrap_err(),
            TCacheError::UnknownTransaction(TxnId(5))
        );
    }

    #[test]
    fn prepare_unknown_object_votes_no() {
        let s = shard_with(1);
        assert_eq!(s.prepare(TxnId(1), vec![write(99, 1, 1)]), Vote::No);
    }

    #[test]
    fn rejected_prepare_leaks_no_partial_locks() {
        // A prepare touching an existing and a missing object votes no; the
        // lock it already acquired on the existing object must be released,
        // so a subsequent transaction can lock and commit it.
        let s = shard_with(2);
        assert_eq!(
            s.prepare(TxnId(1), vec![write(0, 5, 1), write(99, 5, 1)]),
            Vote::No
        );
        assert_eq!(s.prepared_count(), 0, "nothing may be staged after a no vote");
        assert_eq!(
            s.prepare(TxnId(2), vec![write(0, 7, 2), write(1, 7, 2)]),
            Vote::Yes,
            "the rejected prepare must not leave object 0 locked"
        );
        s.commit(TxnId(2)).unwrap();
        assert_eq!(s.store().get(ObjectId(0)).unwrap().value.numeric(), 7);
        // The original transaction holds nothing either: aborting it is a
        // no-op and it can start over cleanly.
        s.abort(TxnId(1));
        assert_eq!(s.prepare(TxnId(1), vec![write(1, 9, 3)]), Vote::Yes);
        s.abort(TxnId(1));
    }

    #[test]
    fn read_returns_entry_and_releases_lock() {
        let s = shard_with(1);
        let e = s.read(TxnId(1), ObjectId(0)).unwrap();
        assert_eq!(e.version, Version::INITIAL);
        // The read leaves no lock behind, so an exclusive prepare succeeds.
        assert_eq!(s.prepare(TxnId(2), vec![write(0, 1, 1)]), Vote::Yes);
        assert!(s.read(TxnId(3), ObjectId(55)).is_err());
    }

    #[test]
    fn optimistic_read_never_registers_in_lock_table() {
        let s = shard_with(1);
        s.read(TxnId(1), ObjectId(0)).unwrap();
        assert_eq!(
            s.locks.locked_objects(),
            0,
            "optimistic reads are invisible to the lock table"
        );
        // Even while another transaction holds the exclusive lock, an
        // optimistic read is served (it reads the last committed state).
        assert_eq!(s.prepare(TxnId(2), vec![write(0, 1, 1)]), Vote::Yes);
        let e = s.read(TxnId(3), ObjectId(0)).unwrap();
        assert_eq!(e.version, Version::INITIAL, "staged write not yet visible");
        s.commit(TxnId(2)).unwrap();
        assert_eq!(s.read(TxnId(3), ObjectId(0)).unwrap().version, Version(1));
    }

    #[test]
    fn locked_read_path_takes_and_releases_shared_lock() {
        let s = Shard::with_read_path(0, 0, ReadPath::Locked);
        s.populate(ObjectId(0), Value::new(0));
        s.read(TxnId(1), ObjectId(0)).unwrap();
        assert_eq!(s.locks.locked_objects(), 0, "released after the copy");
        assert_eq!(s.store().read_path(), ReadPath::Locked);
        // A reader that cannot get the shared lock aborts (no-wait): hold
        // the exclusive lock through a dangling prepare.
        assert_eq!(s.prepare(TxnId(2), vec![write(0, 1, 1)]), Vote::Yes);
        assert!(s.read(TxnId(3), ObjectId(0)).is_err());
        s.abort(TxnId(2));
    }

    #[test]
    fn read_version_serves_history_without_locks() {
        let s = Shard::new(0, 4);
        s.populate(ObjectId(0), Value::new(0));
        assert_eq!(s.prepare(TxnId(1), vec![write(0, 7, 1)]), Vote::Yes);
        s.commit(TxnId(1)).unwrap();
        assert_eq!(s.prepare(TxnId(2), vec![write(0, 8, 2)]), Vote::Yes);
        s.commit(TxnId(2)).unwrap();
        let old = s.read_version(ObjectId(0), Version(1)).unwrap();
        assert_eq!(old.value.numeric(), 7);
        assert_eq!(old.installed_by, Some(TxnId(1)));
        let cur = s.read_version(ObjectId(0), Version(2)).unwrap();
        assert_eq!(cur.value.numeric(), 8);
        assert!(s.read_version(ObjectId(0), Version(9)).is_none());
        assert_eq!(s.locks.locked_objects(), 0);
    }
}
