//! Two-phase commit across shards, under strict two-phase locking.
//!
//! An update transaction is a handful of distinct objects (`TxnObject`,
//! in access order), each read and possibly written (`Access`). The
//! coordinator runs the two phases over the shards those objects live on —
//! the *participants* — always in shard order:
//!
//! 1. `Coordinator::prepare`: at every participant, lock the
//!    transaction's objects there — written ones exclusively, read-only
//!    ones shared — no-wait and all or nothing. A refusal anywhere
//!    releases what the earlier participants granted and aborts the
//!    transaction. Once every participant holds its locks, each object is
//!    read once, under its lock; that read is also the existence check,
//!    and an unknown object releases everything and aborts.
//! 2. `Coordinator::commit`: at every participant, install the writes
//!    (in access order) and release exactly the objects locked there.
//!
//! Locking *before* reading is what makes the reads worth building on: the
//! entry a transaction reads is the entry it overwrites, so the version it
//! derives from it (§III-A) is larger than the version it replaces, and
//! two updaters of one object can never both read the same old version —
//! the second cannot lock until the first has installed and released. No
//! re-validation is needed afterwards and no existence probe at prepare
//! time. With a single shard this degenerates to ordinary atomic commit,
//! matching the paper's single-column experimental setup, but the protocol
//! is fully general.
//!
//! Read-only traffic (cache misses) never touches the lock tables: it
//! copies the entry under the store's bucket lock (see [`crate::store`]), a
//! snapshot of committed state that an install in progress never tears.

use crate::locks::LockMode;
use crate::shard::Shard;
use smallvec::SmallVec;
use std::sync::Arc;
use tcache_types::{
    ConflictReason, DependencyList, ObjectEntry, ObjectId, TCacheError, TCacheResult, TxnId, Value,
    Version,
};

/// Routes objects to shards by hashing the object id.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Creates a router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a database needs at least one shard");
        ShardRouter { shards }
    }

    /// Returns the index of the shard owning `object`.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        // Objects are numbered densely in the workloads; simple modulo
        // spreads clusters across shards which is the adversarial case for
        // 2PC (most transactions span several shards).
        (object.as_u64() % self.shards as u64) as usize
    }

    /// Number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }
}

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
    shard: usize,
    access: Access,
    /// The entry read under the transaction's lock, once prepared.
    read: Option<ObjectEntry>,
}

impl TxnObject {
    /// The object.
    pub(crate) fn id(&self) -> ObjectId {
        self.id
    }

    /// What the transaction does with it.
    pub(crate) fn access(&self) -> &Access {
        &self.access
    }

    /// Replaces what the transaction does with it (before prepare).
    pub(crate) fn set_access(&mut self, access: Access) {
        self.access = access;
    }

    /// The entry the transaction read under its lock.
    ///
    /// # Panics
    /// Panics before [`Coordinator::prepare`] succeeded.
    pub(crate) fn observed(&self) -> &ObjectEntry {
        self.read
            .as_ref()
            .expect("a transaction's objects are read in phase one")
    }

    /// The value phase two installs.
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

/// The shards `objects` live on, ascending, each once. Computed on the fly
/// — a transaction touches a handful of objects — so a commit allocates no
/// participant list.
fn participants(objects: &[TxnObject]) -> impl Iterator<Item = usize> + '_ {
    let mut after = None;
    std::iter::from_fn(move || {
        let next = objects
            .iter()
            .map(|o| o.shard)
            .filter(|&s| after.is_none_or(|a| s > a))
            .min()?;
        after = Some(next);
        Some(next)
    })
}

/// The objects of `objects` on `shard`, in access order.
fn on_shard(objects: &[TxnObject], shard: usize) -> impl Iterator<Item = &TxnObject> + Clone {
    objects.iter().filter(move |o| o.shard == shard)
}

/// The two-phase-commit coordinator.
#[derive(Debug)]
pub struct Coordinator {
    shards: Vec<Arc<Shard>>,
    router: ShardRouter,
}

impl Coordinator {
    /// Creates a coordinator over the given shards.
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<Arc<Shard>>) -> Self {
        let router = ShardRouter::new(shards.len());
        Coordinator { shards, router }
    }

    /// The router used to place objects.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Access to a shard by index.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn shard(&self, index: usize) -> &Arc<Shard> {
        &self.shards[index]
    }

    /// Returns the shard owning `object`.
    pub fn shard_for(&self, object: ObjectId) -> &Arc<Shard> {
        &self.shards[self.router.shard_of(object)]
    }

    /// A transaction object for `id`, routed to its shard, not yet read.
    pub(crate) fn object(&self, id: ObjectId, access: Access) -> TxnObject {
        TxnObject {
            id,
            shard: self.router.shard_of(id),
            access,
            read: None,
        }
    }

    /// Phase one: locks `objects` at every participant, in shard order,
    /// then reads each under its lock (see the module docs). `objects`
    /// must be distinct.
    ///
    /// # Errors
    /// * [`TCacheError::UpdateAborted`] with
    ///   [`ConflictReason::PrepareRejected`] if a participant refuses a
    ///   lock (no-wait);
    /// * [`TCacheError::UnknownObject`] if an object does not exist.
    ///
    /// Either way the transaction holds no lock afterwards.
    pub(crate) fn prepare(&self, txn: TxnId, objects: &mut [TxnObject]) -> TCacheResult<()> {
        for shard in participants(objects) {
            let requests = on_shard(objects, shard).map(|o| (o.id, o.access.lock_mode()));
            if self.shards[shard].lock(txn, requests).is_err() {
                for granted in participants(objects).take_while(|&s| s < shard) {
                    self.release_at(txn, objects, granted);
                }
                return Err(TCacheError::UpdateAborted {
                    txn,
                    reason: ConflictReason::PrepareRejected,
                });
            }
        }
        let mut unknown = None;
        for object in objects.iter_mut() {
            match self.shards[object.shard].read_entry(object.id) {
                Ok(entry) => object.read = Some(entry),
                Err(e) => {
                    unknown = Some(e);
                    break;
                }
            }
        }
        match unknown {
            None => Ok(()),
            Some(e) => {
                for shard in participants(objects) {
                    self.release_at(txn, objects, shard);
                }
                Err(e)
            }
        }
    }

    /// Phase two: at every participant, in shard order, installs each
    /// written object — in access order, at `version`, with the dependency
    /// list `list_for` gives it, reporting it to `installed` — and then
    /// releases exactly the objects locked there.
    ///
    /// # Panics
    /// Panics if `objects` were not prepared by `txn`.
    pub(crate) fn commit(
        &self,
        txn: TxnId,
        objects: &[TxnObject],
        version: Version,
        list_for: impl Fn(ObjectId) -> DependencyList,
        mut installed: impl FnMut(ObjectId),
    ) {
        for shard in participants(objects) {
            let store = self.shards[shard].store();
            for object in on_shard(objects, shard).filter(|o| o.access.writes()) {
                store
                    .install(
                        object.id,
                        object.new_value(),
                        version,
                        list_for(object.id),
                        txn,
                    )
                    .expect("an object read under its lock still exists");
                installed(object.id);
            }
            self.release_at(txn, objects, shard);
        }
    }

    fn release_at(&self, txn: TxnId, objects: &[TxnObject], shard: usize) {
        self.shards[shard].release(txn, on_shard(objects, shard).map(|o| o.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coordinator(shards: usize, objects: u64) -> Coordinator {
        let shards: Vec<Arc<Shard>> = (0..shards).map(|i| Arc::new(Shard::new(i, 0))).collect();
        let coord = Coordinator::new(shards);
        for i in 0..objects {
            coord
                .shard_for(ObjectId(i))
                .populate(ObjectId(i), Value::new(0));
        }
        coord
    }

    fn bumps(coord: &Coordinator, ids: &[u64]) -> TxnObjects {
        ids.iter()
            .map(|&i| coord.object(ObjectId(i), Access::Bump))
            .collect()
    }

    /// Both phases at `version`; returns the objects installed, in order.
    fn run(
        coord: &Coordinator,
        txn: u64,
        objects: &mut [TxnObject],
        version: u64,
    ) -> TCacheResult<Vec<u64>> {
        coord.prepare(TxnId(txn), objects)?;
        let mut installed = Vec::new();
        coord.commit(
            TxnId(txn),
            objects,
            Version(version),
            |_| DependencyList::bounded(3),
            |id| installed.push(id.as_u64()),
        );
        Ok(installed)
    }

    fn locked(coord: &Coordinator) -> usize {
        coord.shards.iter().map(|s| s.locked_objects()).sum()
    }

    #[test]
    fn router_is_stable_and_covers_all_shards() {
        let r = ShardRouter::new(4);
        assert_eq!(r.shard_count(), 4);
        for i in 0..100 {
            assert_eq!(r.shard_of(ObjectId(i)), r.shard_of(ObjectId(i)));
            assert!(r.shard_of(ObjectId(i)) < 4);
        }
        let hit: std::collections::HashSet<_> = (0..100).map(|i| r.shard_of(ObjectId(i))).collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    fn multi_shard_commit_installs_everywhere() {
        let coord = coordinator(3, 9);
        let mut objects = bumps(&coord, &[0, 1, 2]);
        assert_eq!(run(&coord, 1, &mut objects, 1).unwrap(), vec![0, 1, 2]);
        for i in 0..3u64 {
            let e = coord
                .shard_for(ObjectId(i))
                .store()
                .get(ObjectId(i))
                .unwrap();
            assert_eq!(e.version, Version(1));
            assert_eq!(e.value.numeric(), 1, "bumped from the value read");
        }
        assert_eq!(locked(&coord), 0);
    }

    #[test]
    fn single_shard_transactions_have_one_participant() {
        let coord = coordinator(3, 9);
        // Objects 0, 3, 6 all map to shard 0 with modulo routing.
        let objects = bumps(&coord, &[0, 3, 6]);
        assert_eq!(participants(&objects).collect::<Vec<_>>(), vec![0]);
        let objects = bumps(&coord, &[5, 3, 1, 0]);
        assert_eq!(participants(&objects).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn installs_run_in_shard_order_then_access_order() {
        let coord = coordinator(2, 8);
        let mut objects = bumps(&coord, &[3, 0, 1, 2]);
        objects.push(coord.object(ObjectId(4), Access::Read));
        objects.push(coord.object(ObjectId(5), Access::Write(Value::new(50))));
        assert_eq!(
            run(&coord, 1, &mut objects, 1).unwrap(),
            vec![0, 2, 3, 1, 5]
        );
        let read_only = coord
            .shard_for(ObjectId(4))
            .store()
            .get(ObjectId(4))
            .unwrap();
        assert_eq!(read_only.version, Version::INITIAL, "read, not written");
        let written = coord
            .shard_for(ObjectId(5))
            .store()
            .get(ObjectId(5))
            .unwrap();
        assert_eq!(written.value.numeric(), 50);
        assert_eq!(locked(&coord), 0);
    }

    #[test]
    fn read_only_objects_are_locked_shared() {
        let coord = coordinator(1, 4);
        let mut reader = TxnObjects::new();
        reader.push(coord.object(ObjectId(0), Access::Read));
        reader.push(coord.object(ObjectId(1), Access::Bump));
        coord.prepare(TxnId(1), &mut reader).unwrap();
        // Another reader of object 0 is admitted; a writer is refused.
        let mut other_reader = TxnObjects::new();
        other_reader.push(coord.object(ObjectId(0), Access::Read));
        coord.prepare(TxnId(2), &mut other_reader).unwrap();
        let mut writer = bumps(&coord, &[0]);
        assert!(coord.prepare(TxnId(3), &mut writer).is_err());
        coord.commit(
            TxnId(1),
            &reader,
            Version(1),
            |_| DependencyList::bounded(3),
            |_| {},
        );
        coord.commit(
            TxnId(2),
            &other_reader,
            Version(2),
            |_| DependencyList::bounded(3),
            |_| {},
        );
        assert_eq!(locked(&coord), 0);
        assert_eq!(run(&coord, 3, &mut writer, 3).unwrap(), vec![0]);
    }

    #[test]
    fn prepare_rejection_aborts_everywhere() {
        let coord = coordinator(2, 4);
        // Hold a lock on object 1 (shard 1) through a dangling phase one.
        coord
            .shard_for(ObjectId(1))
            .lock(TxnId(9), [(ObjectId(1), LockMode::Exclusive)])
            .unwrap();
        // A transaction touching objects 0 (shard 0) and 1 (shard 1) must
        // fail and leave shard 0 untouched and unlocked.
        let err = run(&coord, 2, &mut bumps(&coord, &[0, 1]), 2).unwrap_err();
        assert!(matches!(
            err,
            TCacheError::UpdateAborted {
                reason: ConflictReason::PrepareRejected,
                ..
            }
        ));
        assert_eq!(
            coord
                .shard_for(ObjectId(0))
                .store()
                .get(ObjectId(0))
                .unwrap()
                .version,
            Version::INITIAL
        );
        assert_eq!(coord.shard(0).locked_objects(), 0);
        // Shard 0 must not be left locked: a fresh transaction succeeds.
        run(&coord, 3, &mut bumps(&coord, &[0]), 3).unwrap();
        // Release the dangling lock and verify object 1 commits too.
        coord
            .shard_for(ObjectId(1))
            .release(TxnId(9), [ObjectId(1)]);
        run(&coord, 4, &mut bumps(&coord, &[1]), 4).unwrap();
        assert_eq!(locked(&coord), 0);
    }

    #[test]
    fn unknown_object_rejects_commit() {
        let coord = coordinator(2, 2);
        let err = run(&coord, 1, &mut bumps(&coord, &[0, 77, 1]), 1).unwrap_err();
        assert_eq!(err, TCacheError::UnknownObject(ObjectId(77)));
        assert_eq!(locked(&coord), 0, "every lock released");
        assert_eq!(
            coord
                .shard_for(ObjectId(0))
                .store()
                .get(ObjectId(0))
                .unwrap()
                .version,
            Version::INITIAL
        );
    }

    #[test]
    #[should_panic(expected = "read in phase one")]
    fn commit_before_prepare_panics() {
        let coord = coordinator(1, 2);
        let objects = bumps(&coord, &[0]);
        coord.commit(
            TxnId(1),
            &objects,
            Version(1),
            |_| DependencyList::bounded(3),
            |_| {},
        );
    }

    #[test]
    fn empty_write_set_commits_trivially() {
        let coord = coordinator(2, 2);
        assert_eq!(participants(&[]).count(), 0);
        assert!(run(&coord, 1, &mut [], 1).unwrap().is_empty());
        assert_eq!(locked(&coord), 0);
    }
}
