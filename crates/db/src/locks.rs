//! Per-object lock table with two-phase locking.
//!
//! The backend database of the paper is a transactional store; this lock
//! table provides the concurrency control for update transactions. It
//! implements strict two-phase locking with a **no-wait** policy: a
//! transaction that cannot acquire a lock immediately is aborted
//! (deadlock avoidance without a waits-for graph).
//!
//! An update transaction locks everything it accesses *before* it reads
//! anything, in one `try_lock`: its written objects exclusively and, for
//! [`Database::execute_update_writes`], its read-only objects shared. It
//! holds them until its writes are installed and then releases exactly the
//! objects it locked — one lookup each, never a scan of the table. Cache
//! misses never register here: they copy the committed entry under the
//! store's bucket lock (see [`crate::store`]).
//!
//! [`Database::execute_update_writes`]: crate::database::Database::execute_update_writes

use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use tcache_types::{ConflictReason, IdMap, IdSet, ObjectId, TCacheError, TCacheResult, TxnId};

/// The mode in which a lock is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

#[derive(Debug, Default)]
struct ObjectLock {
    /// Transactions holding a shared lock.
    shared: IdSet<TxnId>,
    /// Transaction holding the exclusive lock, if any.
    exclusive: Option<TxnId>,
}

impl ObjectLock {
    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none()
    }

    fn can_grant(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => match self.exclusive {
                Some(holder) => holder == txn,
                None => true,
            },
            LockMode::Exclusive => {
                let only_self_shared =
                    self.shared.is_empty() || (self.shared.len() == 1 && self.shared.contains(&txn));
                let exclusive_ok = self.exclusive.is_none_or(|holder| holder == txn);
                only_self_shared && exclusive_ok
            }
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                if self.exclusive != Some(txn) {
                    self.shared.insert(txn);
                }
            }
            LockMode::Exclusive => {
                self.shared.remove(&txn);
                self.exclusive = Some(txn);
            }
        }
    }

    fn release(&mut self, txn: TxnId) {
        self.shared.remove(&txn);
        if self.exclusive == Some(txn) {
            self.exclusive = None;
        }
    }
}

/// A lock table keyed by object id.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: Mutex<IdMap<ObjectId, ObjectLock>>,
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Attempts to acquire every `(object, mode)` lock in `requests` for
    /// `txn`, atomically. Either all locks are granted or none are
    /// (no partial acquisition), and on failure the transaction is expected
    /// to abort (no-wait policy).
    ///
    /// Lock upgrades (shared → exclusive by the same transaction) are
    /// allowed when no other transaction holds the shared lock.
    ///
    /// # Errors
    /// Returns [`TCacheError::UpdateAborted`] with
    /// [`ConflictReason::LockConflict`] if any lock is unavailable.
    pub fn try_lock<I>(&self, txn: TxnId, requests: I) -> TCacheResult<()>
    where
        I: IntoIterator<Item = (ObjectId, LockMode)>,
        I::IntoIter: Clone,
    {
        let requests = requests.into_iter();
        let mut table = self.locks.lock();
        // First pass: check every lock can be granted.
        for (o, mode) in requests.clone() {
            if let Some(lock) = table.get(&o) {
                if !lock.can_grant(txn, mode) {
                    return Err(TCacheError::UpdateAborted {
                        txn,
                        reason: ConflictReason::LockConflict,
                    });
                }
            }
        }
        // Second pass: grant them all.
        for (o, mode) in requests {
            table.entry(o).or_default().grant(txn, mode);
        }
        Ok(())
    }

    /// Releases `txn`'s locks on `objects` (objects it does not hold are
    /// skipped); an object nobody holds any more leaves the table.
    pub fn release(&self, txn: TxnId, objects: impl IntoIterator<Item = ObjectId>) {
        let mut table = self.locks.lock();
        for o in objects {
            if let Entry::Occupied(mut lock) = table.entry(o) {
                lock.get_mut().release(txn);
                if lock.get().is_free() {
                    lock.remove();
                }
            }
        }
    }

    /// Returns `true` if `txn` currently holds a lock on `object` in a mode
    /// at least as strong as `mode`.
    pub fn holds(&self, txn: TxnId, object: ObjectId, mode: LockMode) -> bool {
        let table = self.locks.lock();
        match table.get(&object) {
            None => false,
            Some(lock) => match mode {
                LockMode::Shared => {
                    lock.shared.contains(&txn) || lock.exclusive == Some(txn)
                }
                LockMode::Exclusive => lock.exclusive == Some(txn),
            },
        }
    }

    /// Number of objects with at least one lock held (diagnostics).
    pub fn locked_objects(&self) -> usize {
        self.locks.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(ids: &[u64], mode: LockMode) -> Vec<(ObjectId, LockMode)> {
        ids.iter().map(|&i| (ObjectId(i), mode)).collect()
    }

    #[test]
    fn exclusive_locks_conflict() {
        let t = LockTable::new();
        t.try_lock(TxnId(1), all(&[1, 2], LockMode::Exclusive))
            .unwrap();
        let err = t
            .try_lock(TxnId(2), all(&[2, 3], LockMode::Exclusive))
            .unwrap_err();
        assert!(matches!(
            err,
            TCacheError::UpdateAborted { txn: TxnId(2), .. }
        ));
        // Non-overlapping set is fine.
        t.try_lock(TxnId(2), all(&[3, 4], LockMode::Exclusive))
            .unwrap();
    }

    #[test]
    fn shared_locks_are_compatible() {
        let t = LockTable::new();
        t.try_lock(TxnId(1), all(&[1], LockMode::Shared)).unwrap();
        t.try_lock(TxnId(2), all(&[1], LockMode::Shared)).unwrap();
        assert!(t.holds(TxnId(1), ObjectId(1), LockMode::Shared));
        assert!(t.holds(TxnId(2), ObjectId(1), LockMode::Shared));
        // Exclusive now conflicts with the two shared holders.
        assert!(t
            .try_lock(TxnId(3), all(&[1], LockMode::Exclusive))
            .is_err());
    }

    #[test]
    fn failed_acquisition_grants_nothing() {
        let t = LockTable::new();
        t.try_lock(TxnId(1), all(&[2], LockMode::Exclusive))
            .unwrap();
        // Txn 2 wants objects 1 and 2; 2 is taken, so 1 must not be locked either.
        assert!(t
            .try_lock(TxnId(2), all(&[1, 2], LockMode::Exclusive))
            .is_err());
        assert!(!t.holds(TxnId(2), ObjectId(1), LockMode::Shared));
        assert!(t.try_lock(TxnId(3), all(&[1], LockMode::Exclusive)).is_ok());
    }

    #[test]
    fn lock_upgrade_by_same_transaction() {
        let t = LockTable::new();
        t.try_lock(TxnId(1), all(&[1], LockMode::Shared)).unwrap();
        t.try_lock(TxnId(1), all(&[1], LockMode::Exclusive))
            .unwrap();
        assert!(t.holds(TxnId(1), ObjectId(1), LockMode::Exclusive));
        // Another transaction's shared lock blocks the upgrade.
        t.try_lock(TxnId(2), all(&[2], LockMode::Shared)).unwrap();
        t.try_lock(TxnId(3), all(&[2], LockMode::Shared)).unwrap();
        assert!(t
            .try_lock(TxnId(2), all(&[2], LockMode::Exclusive))
            .is_err());
    }

    #[test]
    fn release_frees_locks() {
        let t = LockTable::new();
        t.try_lock(TxnId(1), all(&[1, 2, 3], LockMode::Exclusive))
            .unwrap();
        assert_eq!(t.locked_objects(), 3);
        t.release(TxnId(1), [1, 2, 3].map(ObjectId));
        assert_eq!(t.locked_objects(), 0);
        t.try_lock(TxnId(2), all(&[1, 2, 3], LockMode::Exclusive))
            .unwrap();
    }

    #[test]
    fn exclusive_holder_can_reacquire_shared() {
        let t = LockTable::new();
        t.try_lock(TxnId(1), all(&[1], LockMode::Exclusive))
            .unwrap();
        t.try_lock(TxnId(1), all(&[1], LockMode::Shared)).unwrap();
        assert!(t.holds(TxnId(1), ObjectId(1), LockMode::Exclusive));
        // Other readers still conflict.
        assert!(t.try_lock(TxnId(2), all(&[1], LockMode::Shared)).is_err());
    }

    #[test]
    fn mixed_modes_are_granted_together_or_not_at_all() {
        let t = LockTable::new();
        let writes_1_reads_2 = [
            (ObjectId(1), LockMode::Exclusive),
            (ObjectId(2), LockMode::Shared),
        ];
        t.try_lock(TxnId(1), writes_1_reads_2).unwrap();
        assert!(t.holds(TxnId(1), ObjectId(1), LockMode::Exclusive));
        assert!(t.holds(TxnId(1), ObjectId(2), LockMode::Shared));
        // Another reader of 2 coexists; a writer of 2 or a reader of 1 not.
        t.try_lock(TxnId(2), all(&[2], LockMode::Shared)).unwrap();
        assert!(t.try_lock(TxnId(3), writes_1_reads_2).is_err());
        assert!(t
            .try_lock(TxnId(3), all(&[3, 2], LockMode::Exclusive))
            .is_err());
        assert!(
            !t.holds(TxnId(3), ObjectId(3), LockMode::Shared),
            "nothing granted"
        );
    }

    #[test]
    fn release_frees_exactly_the_named_objects() {
        let t = LockTable::new();
        t.try_lock(TxnId(1), all(&[1, 2], LockMode::Exclusive))
            .unwrap();
        t.try_lock(TxnId(2), all(&[3], LockMode::Shared)).unwrap();
        t.try_lock(TxnId(1), all(&[3], LockMode::Shared)).unwrap();
        t.release(TxnId(1), [ObjectId(1), ObjectId(3), ObjectId(9)]);
        assert!(!t.holds(TxnId(1), ObjectId(1), LockMode::Shared));
        assert!(
            t.holds(TxnId(1), ObjectId(2), LockMode::Exclusive),
            "not named: kept"
        );
        assert!(
            t.holds(TxnId(2), ObjectId(3), LockMode::Shared),
            "another holder's lock"
        );
        assert_eq!(t.locked_objects(), 2);
        // Releasing what a transaction does not hold changes nothing.
        t.release(TxnId(7), [ObjectId(2), ObjectId(3)]);
        assert_eq!(t.locked_objects(), 2);
    }

    #[test]
    fn holds_on_unknown_object_is_false() {
        let t = LockTable::new();
        assert!(!t.holds(TxnId(1), ObjectId(1), LockMode::Shared));
    }
}
