//! Per-object lock table with two-phase locking.
//!
//! The backend database of the paper is a transactional store; this lock
//! table provides the concurrency control for update transactions. It
//! implements strict two-phase locking with a **no-wait** policy: a
//! transaction that cannot acquire a lock immediately is aborted
//! (deadlock avoidance without a waits-for graph).
//!
//! Since the store grew its optimistic read path (see [`crate::store`]),
//! the shared mode is only exercised by [`ReadPath::Locked`] deployments:
//! optimistic readers validate their snapshots against the store's bucket
//! sequences instead of registering here, so the table's normal population
//! is exclusively write locks held between prepare and commit/abort.
//!
//! [`ReadPath::Locked`]: crate::store::ReadPath::Locked

use parking_lot::Mutex;
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

    /// Attempts to acquire `mode` locks on every object in `objects` for
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
    pub fn try_lock_all(
        &self,
        txn: TxnId,
        objects: &[ObjectId],
        mode: LockMode,
    ) -> TCacheResult<()> {
        let mut table = self.locks.lock();
        // First pass: check every lock can be granted.
        for &o in objects {
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
        for &o in objects {
            table.entry(o).or_default().grant(txn, mode);
        }
        Ok(())
    }

    /// Releases every lock held by `txn`.
    pub fn release_all(&self, txn: TxnId) {
        let mut table = self.locks.lock();
        table.retain(|_, lock| {
            lock.release(txn);
            !lock.is_free()
        });
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

    fn objs(ids: &[u64]) -> Vec<ObjectId> {
        ids.iter().map(|&i| ObjectId(i)).collect()
    }

    #[test]
    fn exclusive_locks_conflict() {
        let t = LockTable::new();
        t.try_lock_all(TxnId(1), &objs(&[1, 2]), LockMode::Exclusive)
            .unwrap();
        let err = t
            .try_lock_all(TxnId(2), &objs(&[2, 3]), LockMode::Exclusive)
            .unwrap_err();
        assert!(matches!(err, TCacheError::UpdateAborted { txn: TxnId(2), .. }));
        // Non-overlapping set is fine.
        t.try_lock_all(TxnId(2), &objs(&[3, 4]), LockMode::Exclusive)
            .unwrap();
    }

    #[test]
    fn shared_locks_are_compatible() {
        let t = LockTable::new();
        t.try_lock_all(TxnId(1), &objs(&[1]), LockMode::Shared).unwrap();
        t.try_lock_all(TxnId(2), &objs(&[1]), LockMode::Shared).unwrap();
        assert!(t.holds(TxnId(1), ObjectId(1), LockMode::Shared));
        assert!(t.holds(TxnId(2), ObjectId(1), LockMode::Shared));
        // Exclusive now conflicts with the two shared holders.
        assert!(t
            .try_lock_all(TxnId(3), &objs(&[1]), LockMode::Exclusive)
            .is_err());
    }

    #[test]
    fn failed_acquisition_grants_nothing() {
        let t = LockTable::new();
        t.try_lock_all(TxnId(1), &objs(&[2]), LockMode::Exclusive).unwrap();
        // Txn 2 wants objects 1 and 2; 2 is taken, so 1 must not be locked either.
        assert!(t
            .try_lock_all(TxnId(2), &objs(&[1, 2]), LockMode::Exclusive)
            .is_err());
        assert!(!t.holds(TxnId(2), ObjectId(1), LockMode::Shared));
        assert!(t
            .try_lock_all(TxnId(3), &objs(&[1]), LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn lock_upgrade_by_same_transaction() {
        let t = LockTable::new();
        t.try_lock_all(TxnId(1), &objs(&[1]), LockMode::Shared).unwrap();
        t.try_lock_all(TxnId(1), &objs(&[1]), LockMode::Exclusive).unwrap();
        assert!(t.holds(TxnId(1), ObjectId(1), LockMode::Exclusive));
        // Another transaction's shared lock blocks the upgrade.
        t.try_lock_all(TxnId(2), &objs(&[2]), LockMode::Shared).unwrap();
        t.try_lock_all(TxnId(3), &objs(&[2]), LockMode::Shared).unwrap();
        assert!(t
            .try_lock_all(TxnId(2), &objs(&[2]), LockMode::Exclusive)
            .is_err());
    }

    #[test]
    fn release_frees_locks() {
        let t = LockTable::new();
        t.try_lock_all(TxnId(1), &objs(&[1, 2, 3]), LockMode::Exclusive)
            .unwrap();
        assert_eq!(t.locked_objects(), 3);
        t.release_all(TxnId(1));
        assert_eq!(t.locked_objects(), 0);
        t.try_lock_all(TxnId(2), &objs(&[1, 2, 3]), LockMode::Exclusive)
            .unwrap();
    }

    #[test]
    fn exclusive_holder_can_reacquire_shared() {
        let t = LockTable::new();
        t.try_lock_all(TxnId(1), &objs(&[1]), LockMode::Exclusive).unwrap();
        t.try_lock_all(TxnId(1), &objs(&[1]), LockMode::Shared).unwrap();
        assert!(t.holds(TxnId(1), ObjectId(1), LockMode::Exclusive));
        // Other readers still conflict.
        assert!(t
            .try_lock_all(TxnId(2), &objs(&[1]), LockMode::Shared)
            .is_err());
    }

    #[test]
    fn holds_on_unknown_object_is_false() {
        let t = LockTable::new();
        assert!(!t.holds(TxnId(1), ObjectId(1), LockMode::Shared));
    }
}
