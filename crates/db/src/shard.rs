//! A database shard: owns a partition of the object space and participates
//! in two-phase commit.
//!
//! Each shard has its own [`VersionedStore`] and lock table, and no other
//! per-transaction state: the coordinator (in [`crate::twopc`]) runs phase
//! one by locking a transaction's objects at every participating shard
//! ([`Shard::lock`] — no-wait, all or nothing per shard) and then reading
//! each object once under its lock; phase two installs the writes in the
//! store and releases exactly the objects it locked ([`Shard::release`]).
//! A shard whose lock request is refused, or whose object turns out not to
//! exist, is the "no" vote; the lock table is the only record that a
//! transaction is in flight here.
//!
//! Reads outside update transactions ([`Shard::read_entry`]) never touch
//! the lock table: they copy the committed entry under the store's bucket
//! lock.

use crate::locks::{LockMode, LockTable};
use crate::store::{HistoricalVersion, VersionedStore};
use tcache_types::{ObjectEntry, ObjectId, TCacheResult, TxnId, Value, Version};

/// A shard of the backend database.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    store: VersionedStore,
    locks: LockTable,
}

impl Shard {
    /// Creates an empty shard. `history_depth` is forwarded to the store.
    pub fn new(index: usize, history_depth: usize) -> Self {
        Shard {
            index,
            store: VersionedStore::new(history_depth),
            locks: LockTable::new(),
        }
    }

    /// The shard's position within the database.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of objects currently locked on this shard. Zero whenever no
    /// transaction is between its lock and its release here.
    pub fn locked_objects(&self) -> usize {
        self.locks.locked_objects()
    }

    /// Direct access to the underlying store (reads, installs, populate).
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// Inserts an object at its initial version (population phase, outside
    /// of any transaction).
    pub fn populate(&self, id: ObjectId, value: Value) {
        self.store.insert_initial(id, value);
    }

    /// Reads the current entry for an object owned by this shard, under
    /// its store bucket's shared lock and without registering in the lock
    /// table.
    ///
    /// This is the surface behind every cache miss
    /// ([`Database::read_entry`]) and behind every update transaction's
    /// read — which the coordinator issues only once the transaction holds
    /// its lock on the object, so the entry an update reads is the entry
    /// it overwrites and nothing needs re-validating later. Read-only
    /// traffic needs no table entry at all.
    ///
    /// [`Database::read_entry`]: crate::database::Database::read_entry
    pub fn read_entry(&self, id: ObjectId) -> TCacheResult<ObjectEntry> {
        self.store.get(id)
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

    /// Phase one at this shard: locks every `(object, mode)` it is asked
    /// for on behalf of `txn`, no-wait and all or nothing — a refusal
    /// grants nothing, so a shard that votes no holds nothing.
    ///
    /// # Errors
    /// Returns [`TCacheError::UpdateAborted`](tcache_types::TCacheError::UpdateAborted)
    /// if any lock is held in a conflicting mode by another transaction.
    pub fn lock<I>(&self, txn: TxnId, requests: I) -> TCacheResult<()>
    where
        I: IntoIterator<Item = (ObjectId, LockMode)>,
        I::IntoIter: Clone,
    {
        self.locks.try_lock(txn, requests)
    }

    /// Releases `txn`'s locks on exactly `objects` (the end of phase two,
    /// or an abort after phase one).
    pub fn release(&self, txn: TxnId, objects: impl IntoIterator<Item = ObjectId>) {
        self.locks.release(txn, objects);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::{DependencyList, TCacheError};

    fn shard_with(n: u64) -> Shard {
        let s = Shard::new(0, 0);
        for i in 0..n {
            s.populate(ObjectId(i), Value::new(0));
        }
        s
    }

    /// Phase one for a transaction writing `objects`: exclusive locks.
    fn lock_writes(s: &Shard, txn: u64, objects: &[u64]) -> TCacheResult<()> {
        s.lock(
            TxnId(txn),
            objects
                .iter()
                .map(|&o| (ObjectId(o), LockMode::Exclusive))
                .collect::<Vec<_>>(),
        )
    }

    /// Phase two: install `(object, value)` writes at `version`, release.
    fn install_and_release(s: &Shard, txn: u64, writes: &[(u64, u64)], version: u64) {
        for &(o, value) in writes {
            s.store()
                .install(
                    ObjectId(o),
                    Value::new(value),
                    Version(version),
                    DependencyList::bounded(3),
                    TxnId(txn),
                )
                .unwrap();
        }
        s.release(TxnId(txn), writes.iter().map(|&(o, _)| ObjectId(o)));
    }

    #[test]
    fn prepare_commit_installs_writes() {
        let s = shard_with(3);
        assert_eq!(s.index(), 0);
        lock_writes(&s, 1, &[0, 1]).unwrap();
        assert_eq!(s.locked_objects(), 2);
        // The read under the lock is the existence check.
        assert_eq!(s.read_entry(ObjectId(0)).unwrap().version, Version::INITIAL);
        install_and_release(&s, 1, &[(0, 7), (1, 8)], 1);
        assert_eq!(s.store().get(ObjectId(0)).unwrap().value.numeric(), 7);
        assert_eq!(s.store().get(ObjectId(0)).unwrap().version, Version(1));
        assert_eq!(s.locked_objects(), 0);
    }

    #[test]
    fn prepare_conflicting_transactions_vote_no() {
        let s = shard_with(3);
        lock_writes(&s, 1, &[0]).unwrap();
        assert!(matches!(
            lock_writes(&s, 2, &[0]),
            Err(TCacheError::UpdateAborted { txn: TxnId(2), .. })
        ));
        // After commit the object is free again.
        install_and_release(&s, 1, &[(0, 1)], 1);
        lock_writes(&s, 2, &[0]).unwrap();
    }

    #[test]
    fn abort_discards_staged_writes_and_releases_locks() {
        let s = shard_with(2);
        lock_writes(&s, 1, &[0]).unwrap();
        // Aborting after phase one is releasing without installing.
        s.release(TxnId(1), [ObjectId(0)]);
        assert_eq!(s.locked_objects(), 0);
        assert_eq!(s.store().get(ObjectId(0)).unwrap().value.numeric(), 0);
        lock_writes(&s, 2, &[0]).unwrap();
        // Releasing for a transaction that holds nothing is a no-op.
        s.release(TxnId(42), [ObjectId(0)]);
        assert_eq!(s.locked_objects(), 1);
    }

    #[test]
    fn prepare_unknown_object_votes_no() {
        let s = shard_with(1);
        // The lock table knows nothing of existence; the read under the
        // lock does, and the transaction then releases what it took.
        lock_writes(&s, 1, &[0, 99]).unwrap();
        assert_eq!(
            s.read_entry(ObjectId(99)).unwrap_err(),
            TCacheError::UnknownObject(ObjectId(99))
        );
        s.release(TxnId(1), [ObjectId(0), ObjectId(99)]);
        assert_eq!(s.locked_objects(), 0);
    }

    #[test]
    fn rejected_prepare_leaks_no_partial_locks() {
        // A lock request touching a free and a held object is refused; the
        // free one must not stay locked, so a later transaction can lock
        // and commit it.
        let s = shard_with(2);
        lock_writes(&s, 9, &[1]).unwrap();
        assert!(lock_writes(&s, 1, &[0, 1]).is_err());
        assert_eq!(s.locked_objects(), 1, "only transaction 9's lock");
        lock_writes(&s, 2, &[0]).unwrap();
        install_and_release(&s, 2, &[(0, 7)], 2);
        assert_eq!(s.store().get(ObjectId(0)).unwrap().value.numeric(), 7);
        // The refused transaction holds nothing either: it can start over
        // cleanly once object 1 is free.
        s.release(TxnId(9), [ObjectId(1)]);
        lock_writes(&s, 1, &[1]).unwrap();
        s.release(TxnId(1), [ObjectId(1)]);
        assert_eq!(s.locked_objects(), 0);
    }

    #[test]
    fn read_returns_entry_and_releases_lock() {
        let s = shard_with(1);
        let e = s.read_entry(ObjectId(0)).unwrap();
        assert_eq!(e.version, Version::INITIAL);
        // The read leaves no lock behind, so an exclusive lock succeeds.
        lock_writes(&s, 2, &[0]).unwrap();
        assert!(s.read_entry(ObjectId(55)).is_err());
    }

    #[test]
    fn read_entry_never_registers_in_lock_table() {
        let s = shard_with(1);
        s.read_entry(ObjectId(0)).unwrap();
        assert_eq!(
            s.locks.locked_objects(),
            0,
            "reads are invisible to the lock table"
        );
        // Even while another transaction holds the exclusive lock, a read
        // is served (it reads the last committed state).
        lock_writes(&s, 2, &[0]).unwrap();
        let e = s.read_entry(ObjectId(0)).unwrap();
        assert_eq!(e.version, Version::INITIAL, "nothing installed yet");
        install_and_release(&s, 2, &[(0, 1)], 1);
        assert_eq!(s.read_entry(ObjectId(0)).unwrap().version, Version(1));
    }

    #[test]
    fn read_version_serves_history_without_locks() {
        let s = Shard::new(0, 4);
        s.populate(ObjectId(0), Value::new(0));
        lock_writes(&s, 1, &[0]).unwrap();
        install_and_release(&s, 1, &[(0, 7)], 1);
        lock_writes(&s, 2, &[0]).unwrap();
        install_and_release(&s, 2, &[(0, 8)], 2);
        let old = s.read_version(ObjectId(0), Version(1)).unwrap();
        assert_eq!(old.value.numeric(), 7);
        assert_eq!(old.installed_by, Some(TxnId(1)));
        let cur = s.read_version(ObjectId(0), Version(2)).unwrap();
        assert_eq!(cur.value.numeric(), 8);
        assert!(s.read_version(ObjectId(0), Version(9)).is_none());
        assert_eq!(s.locks.locked_objects(), 0);
    }
}
