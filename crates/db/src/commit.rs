//! The commit of an update transaction, under strict two-phase locking.
//!
//! An update transaction is a handful of distinct objects (`TxnObject`,
//! in access order), each read and possibly written (`Access`). Its commit
//! runs in two steps over the database's one lock table and one store:
//!
//! 1. `lock_and_read`: lock every object — written ones exclusively,
//!    read-only ones shared — in one no-wait, all-or-nothing `try_lock`; a
//!    refusal aborts the transaction holding nothing. Then read each object
//!    once, under its lock; that read is also the existence check, and an
//!    unknown object releases everything and aborts.
//! 2. `install_and_release`: install the writes in access order, then
//!    release every object the transaction locked.
//!
//! Locking *before* reading is what makes the reads worth building on: the
//! entry a transaction reads is the entry it overwrites, so the version it
//! derives from it (§III-A) is larger than the version it replaces, and
//! two updaters of one object can never both read the same old version —
//! the second cannot lock until the first has installed and released. No
//! re-validation is needed afterwards and no separate existence probe.
//!
//! Read-only traffic (cache misses) never touches the lock table: it
//! copies the entry under the store's bucket lock (see [`crate::store`]), a
//! snapshot of committed state that an install in progress never tears.

use crate::locks::{LockMode, LockTable};
use crate::store::VersionedStore;
use smallvec::SmallVec;
use tcache_types::{DependencyList, ObjectEntry, ObjectId, TCacheResult, TxnId, Value, Version};

/// What an update transaction does with one object it accesses. Every
/// access reads the object; all but [`Access::Read`] also write it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Access {
    /// Read only: the object is locked shared.
    Read,
    /// Read, then write back the value read with its payload bumped (the
    /// evaluation's read-modify-write).
    Bump,
    /// Read, then write this value.
    Write(Value),
}

impl Access {
    /// Whether the access writes the object.
    pub(crate) fn writes(&self) -> bool {
        !matches!(self, Access::Read)
    }

    fn lock_mode(&self) -> LockMode {
        if self.writes() {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    }
}

/// One distinct object an update transaction accesses.
#[derive(Debug, Clone)]
pub(crate) struct TxnObject {
    id: ObjectId,
    access: Access,
    /// The entry read under the transaction's lock, once locked and read.
    read: Option<ObjectEntry>,
}

impl TxnObject {
    /// An object the transaction accesses, not yet read.
    pub(crate) fn new(id: ObjectId, access: Access) -> Self {
        TxnObject {
            id,
            access,
            read: None,
        }
    }

    /// The object.
    pub(crate) fn id(&self) -> ObjectId {
        self.id
    }

    /// What the transaction does with it.
    pub(crate) fn access(&self) -> &Access {
        &self.access
    }

    /// Replaces what the transaction does with it (before it is locked).
    pub(crate) fn set_access(&mut self, access: Access) {
        self.access = access;
    }

    /// The entry the transaction read under its lock.
    ///
    /// # Panics
    /// Panics before [`lock_and_read`] succeeded.
    pub(crate) fn observed(&self) -> &ObjectEntry {
        self.read
            .as_ref()
            .expect("a transaction's objects are read under their locks first")
    }

    /// The value the install writes.
    fn new_value(&self) -> Value {
        match &self.access {
            Access::Bump => self.observed().value.bump(),
            Access::Write(value) => value.clone(),
            Access::Read => unreachable!("read-only objects are not installed"),
        }
    }
}

/// A transaction's objects; inline up to eight, the evaluation's update
/// transactions touch five.
pub(crate) type TxnObjects = SmallVec<[TxnObject; 8]>;

/// Locks `objects` for `txn` and then reads each once under its lock (see
/// the module docs). `objects` must be distinct.
///
/// # Errors
/// * [`TCacheError::UpdateAborted`](tcache_types::TCacheError::UpdateAborted)
///   with [`ConflictReason::LockConflict`](tcache_types::ConflictReason::LockConflict)
///   if a lock is held by another transaction (no-wait);
/// * [`TCacheError::UnknownObject`](tcache_types::TCacheError::UnknownObject)
///   if an object does not exist.
///
/// Either way the transaction holds no lock afterwards.
pub(crate) fn lock_and_read(
    locks: &LockTable,
    store: &VersionedStore,
    txn: TxnId,
    objects: &mut [TxnObject],
) -> TCacheResult<()> {
    locks.try_lock(txn, objects.iter().map(|o| (o.id, o.access.lock_mode())))?;
    let read = objects.iter_mut().try_for_each(|o| {
        o.read = Some(store.get(o.id)?);
        Ok(())
    });
    if read.is_err() {
        locks.release(txn, objects.iter().map(|o| o.id));
    }
    read
}

/// Installs each written object of `objects` — in access order, at
/// `version`, with the dependency list `list_for` gives it, reporting it to
/// `installed` — and then releases every object `txn` locked.
///
/// # Panics
/// Panics if `objects` were not locked and read by `txn`.
pub(crate) fn install_and_release(
    locks: &LockTable,
    store: &VersionedStore,
    txn: TxnId,
    objects: &[TxnObject],
    version: Version,
    list_for: impl Fn(ObjectId) -> DependencyList,
    mut installed: impl FnMut(ObjectId),
) {
    for object in objects.iter().filter(|o| o.access.writes()) {
        store
            .install(object.id, object.new_value(), version, list_for(object.id))
            .expect("an object read under its lock still exists");
        installed(object.id);
    }
    locks.release(txn, objects.iter().map(|o| o.id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::{ConflictReason, TCacheError};

    /// A lock table and a store holding objects `0..objects` at their
    /// initial version.
    fn database(objects: u64) -> (LockTable, VersionedStore) {
        let store = VersionedStore::new();
        for i in 0..objects {
            store.insert_initial(ObjectId(i), Value::new(0));
        }
        (LockTable::new(), store)
    }

    fn bumps(ids: &[u64]) -> TxnObjects {
        ids.iter()
            .map(|&i| TxnObject::new(ObjectId(i), Access::Bump))
            .collect()
    }

    /// Both steps at `version`; returns the objects installed, in order.
    fn run(
        (locks, store): &(LockTable, VersionedStore),
        txn: u64,
        objects: &mut [TxnObject],
        version: u64,
    ) -> TCacheResult<Vec<u64>> {
        lock_and_read(locks, store, TxnId(txn), objects)?;
        let mut installed = Vec::new();
        install_and_release(
            locks,
            store,
            TxnId(txn),
            objects,
            Version(version),
            |_| DependencyList::bounded(3),
            |id| installed.push(id.as_u64()),
        );
        Ok(installed)
    }

    fn version_of((_, store): &(LockTable, VersionedStore), id: u64) -> Version {
        store.get(ObjectId(id)).unwrap().version
    }

    /// Installs run in access order, so the database's invalidation log
    /// stamps its sequence numbers in that order too.
    #[test]
    fn installs_run_in_access_order() {
        let db = database(8);
        let mut objects = bumps(&[3, 0, 1, 2]);
        objects.push(TxnObject::new(ObjectId(4), Access::Read));
        objects.push(TxnObject::new(ObjectId(5), Access::Write(Value::new(50))));
        assert_eq!(run(&db, 1, &mut objects, 1).unwrap(), vec![3, 0, 1, 2, 5]);
        assert_eq!(version_of(&db, 4), Version::INITIAL, "read, not written");
        let written = db.1.get(ObjectId(5)).unwrap();
        assert_eq!(written.value.numeric(), 50);
        assert_eq!(db.1.get(ObjectId(3)).unwrap().value.numeric(), 1, "bumped");
        assert_eq!(db.0.locked_objects(), 0);
    }

    #[test]
    fn read_only_objects_are_locked_shared() {
        let db = &database(4);
        let (locks, store) = db;
        let mut reader = TxnObjects::new();
        reader.push(TxnObject::new(ObjectId(0), Access::Read));
        reader.push(TxnObject::new(ObjectId(1), Access::Bump));
        lock_and_read(locks, store, TxnId(1), &mut reader).unwrap();
        // Another reader of object 0 is admitted; a writer is refused.
        let mut other_reader = TxnObjects::new();
        other_reader.push(TxnObject::new(ObjectId(0), Access::Read));
        lock_and_read(locks, store, TxnId(2), &mut other_reader).unwrap();
        let mut writer = bumps(&[0]);
        assert!(lock_and_read(locks, store, TxnId(3), &mut writer).is_err());
        let no_deps = |_| DependencyList::bounded(3);
        install_and_release(locks, store, TxnId(1), &reader, Version(1), no_deps, |_| {});
        install_and_release(
            locks,
            store,
            TxnId(2),
            &other_reader,
            Version(2),
            no_deps,
            |_| {},
        );
        assert_eq!(locks.locked_objects(), 0);
        assert_eq!(run(db, 3, &mut writer, 3).unwrap(), vec![0]);
    }

    /// A refused lock aborts with the lock table's own reason, installs
    /// nothing and leaves none of the transaction's other objects locked.
    #[test]
    fn lock_refusal_aborts_holding_nothing() {
        let db = &database(4);
        let (locks, _) = db;
        // Hold a lock on object 1 through a dangling transaction.
        locks
            .try_lock(TxnId(9), [(ObjectId(1), LockMode::Exclusive)])
            .unwrap();
        let err = run(db, 2, &mut bumps(&[0, 1]), 2).unwrap_err();
        assert_eq!(
            err,
            TCacheError::UpdateAborted {
                txn: TxnId(2),
                reason: ConflictReason::LockConflict,
            }
        );
        assert_eq!(version_of(db, 0), Version::INITIAL);
        assert_eq!(locks.locked_objects(), 1, "only transaction 9's lock");
        // Object 0 is not left locked: a fresh transaction commits it.
        run(db, 3, &mut bumps(&[0]), 3).unwrap();
        // Release the dangling lock and object 1 commits too.
        locks.release(TxnId(9), [ObjectId(1)]);
        run(db, 4, &mut bumps(&[1]), 4).unwrap();
        assert_eq!(locks.locked_objects(), 0);
    }

    /// A lock request touching a free and a held object is refused; the
    /// free one must not stay locked, and the refused transaction can start
    /// over cleanly once the held one is free.
    #[test]
    fn refused_lock_leaks_no_partial_locks() {
        let db = &database(2);
        let (locks, store) = db;
        locks
            .try_lock(TxnId(9), [(ObjectId(1), LockMode::Exclusive)])
            .unwrap();
        assert!(lock_and_read(locks, store, TxnId(1), &mut bumps(&[0, 1])).is_err());
        assert_eq!(locks.locked_objects(), 1, "only transaction 9's lock");
        let mut write = vec![TxnObject::new(ObjectId(0), Access::Write(Value::new(7)))];
        assert_eq!(run(db, 2, &mut write, 2).unwrap(), vec![0]);
        assert_eq!(store.get(ObjectId(0)).unwrap().value.numeric(), 7);
        locks.release(TxnId(9), [ObjectId(1)]);
        assert_eq!(run(db, 1, &mut bumps(&[1]), 3).unwrap(), vec![1]);
        assert_eq!(locks.locked_objects(), 0);
    }

    #[test]
    fn unknown_object_rejects_commit() {
        let db = database(2);
        let err = run(&db, 1, &mut bumps(&[0, 77, 1]), 1).unwrap_err();
        assert_eq!(err, TCacheError::UnknownObject(ObjectId(77)));
        assert_eq!(db.0.locked_objects(), 0, "every lock released");
        assert_eq!(version_of(&db, 0), Version::INITIAL);
    }

    #[test]
    #[should_panic(expected = "read under their locks first")]
    fn install_before_lock_and_read_panics() {
        let (locks, store) = database(2);
        install_and_release(
            &locks,
            &store,
            TxnId(1),
            &bumps(&[0]),
            Version(1),
            |_| DependencyList::bounded(3),
            |_| {},
        );
    }

    #[test]
    fn empty_write_set_commits_trivially() {
        let db = database(2);
        assert!(run(&db, 1, &mut [], 1).unwrap().is_empty());
        assert_eq!(db.0.locked_objects(), 0);
    }

    /// A cache miss's read never registers in the lock table, and is served
    /// even while an updater holds the object exclusively: it sees the last
    /// committed state.
    #[test]
    fn read_entry_never_registers_in_lock_table() {
        let db = &database(1);
        let (locks, store) = db;
        store.get(ObjectId(0)).unwrap();
        assert_eq!(
            locks.locked_objects(),
            0,
            "reads are invisible to the lock table"
        );
        let mut writer = bumps(&[0]);
        lock_and_read(locks, store, TxnId(2), &mut writer).unwrap();
        assert_eq!(version_of(db, 0), Version::INITIAL, "nothing installed yet");
        let no_deps = |_| DependencyList::bounded(3);
        install_and_release(locks, store, TxnId(2), &writer, Version(1), no_deps, |_| {});
        assert_eq!(version_of(db, 0), Version(1));
        assert_eq!(locks.locked_objects(), 0);
    }
}
