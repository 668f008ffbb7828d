//! Per-transaction read records kept by the cache.
//!
//! "To implement this interface, the cache maintains a record of each
//! transaction with its read values, their versions, and their dependency
//! lists" (§III-B). The consistency predicates only ever consult two
//! reductions of that history, so a [`TxnRecord`] stores exactly those and
//! owns no dependency list:
//!
//! * `expected` — for every object, the **largest** version any previous
//!   read requires it to be at (the union of observed `(key, version)`
//!   pairs and every dependency-list entry seen so far);
//! * `observed_floor` — for every object the transaction returned to the
//!   client, the **smallest** version it observed.
//!
//! With these, checking a new read against the whole transaction
//! ([`TxnRecord::check_read`]) costs O(|depList| of the current read)
//! while reporting exactly the violations of the full predicate scan in
//! [`crate::consistency::check_read`] (the maps are precisely the
//! maxima/minima that scan reduces to; a proptest below pins it). Both
//! maps are inline small-vectors with linear scans — read sets are small —
//! so a record of up to [`READS_INLINE`] reads never touches the heap.
//!
//! [`ShardedTransactionTable`] keeps the record of a transaction that
//! spans several client calls for the transaction's whole life, striped by
//! `TxnId` hash so different clients rarely contend on one lock; each call
//! checks and updates the record in place under its stripe's lock.

use crate::consistency::{pick_worse, Violation, ViolationKind};
use crate::stripe::Striped;
use smallvec::SmallVec;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicUsize, Ordering};
use tcache_types::{DependencyList, IdMap, ObjectId, TxnId, Version};

/// Inline capacity of the observed-floor map: a transaction with at most
/// this many distinct objects read never heap-allocates it.
const READS_INLINE: usize = 8;
/// Inline capacity of the expectation map. Expectations come from reads
/// *and* their dependency entries, so this is sized larger.
const EXPECTED_INLINE: usize = 16;

type VersionMap<const N: usize> = SmallVec<[(ObjectId, Version); N]>;

/// The record of one in-progress read-only transaction.
#[derive(Debug, Default)]
pub(crate) struct TxnRecord {
    /// Max version each object is expected at, per previous reads'
    /// observations and dependency lists.
    expected: VersionMap<EXPECTED_INLINE>,
    /// Min version actually observed per object already returned.
    observed_floor: VersionMap<READS_INLINE>,
}

impl TxnRecord {
    /// Resets the record for reuse. Spilled heap capacity (from a rare
    /// oversized transaction) is kept, so a thread-local record stops
    /// allocating once warmed.
    pub(crate) fn clear(&mut self) {
        self.expected.clear();
        self.observed_floor.clear();
    }

    /// Checks a prospective read of `key` at `version` carrying `deps`
    /// against everything this transaction has already observed, in
    /// O(|deps|). Returns the same verdict as running
    /// [`crate::consistency::check_read`] over the full read set:
    /// Equation 2 (current read stale) takes precedence, and among multiple
    /// candidates the one with the largest version gap is reported.
    // lint: hot-path
    pub(crate) fn check_read(
        &self,
        key: ObjectId,
        version: Version,
        deps: &DependencyList,
    ) -> Option<Violation> {
        // Equation 2: some earlier read expects `key` at a newer version.
        // `expected` holds the max requirement, which is exactly the
        // worst-gap candidate the full scan would report.
        if let Some(required) = get(&self.expected, key) {
            if required > version {
                return Some(Violation {
                    violating_object: key,
                    observed_version: version,
                    expected_version: required,
                    kind: ViolationKind::CurrentReadStale,
                });
            }
        }

        // Equation 1: the current read's expectations show that an object
        // already returned to the client is stale. Candidates come from the
        // current version itself (a re-read of `key`) and from the current
        // dependency list; `observed_floor` holds the min observed version,
        // which maximises the gap per object. An entry never depends on
        // itself, so `key` is skipped in `deps`.
        let mut worst = None;
        let mut consider = |object: ObjectId, expected: Version| {
            if let Some(floor) = get(&self.observed_floor, object) {
                if expected > floor {
                    worst = pick_worse(
                        worst,
                        Violation {
                            violating_object: object,
                            observed_version: floor,
                            expected_version: expected,
                            kind: ViolationKind::PreviousReadStale,
                        },
                    );
                }
            }
        };
        consider(key, version);
        for entry in deps.iter() {
            if entry.object != key {
                consider(entry.object, entry.version);
            }
        }
        worst
    }

    /// Records a completed read, updating the two maps. The dependency
    /// list is only borrowed.
    // lint: hot-path
    pub(crate) fn record_read(&mut self, object: ObjectId, version: Version, deps: &DependencyList) {
        // The observed pair itself is an expectation for later reads, and
        // so is every entry of its dependency list.
        fold(&mut self.expected, object, version, Version::max);
        for entry in deps.iter() {
            fold(&mut self.expected, entry.object, entry.version, Version::max);
        }
        fold(&mut self.observed_floor, object, version, Version::min);
    }
}

#[inline]
fn get(map: &[(ObjectId, Version)], key: ObjectId) -> Option<Version> {
    map.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

/// Sets `map[object]` to `pick(old, version)`, inserting `version` if the
/// object is new.
#[inline]
fn fold<const N: usize>(
    map: &mut VersionMap<N>,
    object: ObjectId,
    version: Version,
    pick: impl Fn(Version, Version) -> Version,
) {
    match map.iter_mut().find(|(k, _)| *k == object) {
        Some((_, v)) => *v = pick(*v, version),
        None => map.push((object, version)),
    }
}

/// Number of stripes of the transaction table.
const TXN_STRIPES: usize = 16;

/// Where the record of a transaction that spans several client calls
/// (`read(txn, key, last_op = false)`) lives for the transaction's whole
/// life, striped by `TxnId` hash. Each call is one
/// [`with_record`](ShardedTransactionTable::with_record): one lock of
/// `txn`'s stripe and one probe, with the read step run on the stored
/// record *in place* while the stripe is held — no check-out.
///
/// **Lock order: txn stripe → object stripe or DB bucket.** The step
/// nests storage stripes and database bucket locks under the transaction
/// stripe; nothing that runs under an object-stripe lock or a DB bucket
/// lock (hit borrows, invalidation applies, the database's upcalls)
/// calls into this table, so the order has no reverse edge and no cycle.
///
/// One client drives one `TxnId`, one call at a time (§III-B), but the
/// calls may come from any thread: the record follows the id, not the
/// thread. Concurrent calls for the *same* id serialize on its stripe,
/// each seeing every read the previous ones recorded, so a stored record
/// and its hint raise stay one-to-one.
#[derive(Debug)]
pub(crate) struct ShardedTransactionTable {
    stripes: Striped<IdMap<TxnId, TxnRecord>>,
    /// Number of records stored in the stripes, changed only under the
    /// stripe lock that inserts or removes the record. Zero means "no
    /// multi-call transaction is in progress anywhere", which is what lets
    /// a whole-transaction call run on a local record: a stored record for
    /// its txn id could only have been left by a *previous sequential call
    /// of the same client*, and that call raised this counter before
    /// returning.
    open_hint: AtomicUsize,
}

impl ShardedTransactionTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        ShardedTransactionTable {
            stripes: Striped::new(TXN_STRIPES, IdMap::default),
            open_hint: AtomicUsize::new(0),
        }
    }

    /// Runs one call of `txn` under its stripe's lock: `step` gets the
    /// stored record, or — on the transaction's first call, flagged by the
    /// `bool` — a fresh one. The transaction stays open, its record stored
    /// and the hint raised, only if `step` succeeds and `last_op` is
    /// false; the last read, an abort and any other error end it, removing
    /// a stored record and lowering the hint.
    // lint: hot-path
    pub(crate) fn with_record<E>(
        &self,
        txn: TxnId,
        last_op: bool,
        step: impl FnOnce(&mut TxnRecord, bool) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut stripe = self.stripes.stripe_for(txn.as_u64()).lock();
        match stripe.entry(txn) {
            Entry::Occupied(mut stored) => {
                let result = step(stored.get_mut(), false);
                if result.is_err() || last_op {
                    stored.remove();
                    self.open_hint.fetch_sub(1, Ordering::Release);
                }
                result
            }
            Entry::Vacant(slot) => {
                let mut record = TxnRecord::default();
                let result = step(&mut record, true);
                if result.is_ok() && !last_op {
                    slot.insert(record);
                    self.open_hint.fetch_add(1, Ordering::Release);
                }
                result
            }
        }
    }

    /// The open-transaction hint. Zero is a sound "table is quiet" signal;
    /// non-zero merely routes whole-transaction calls through the table.
    pub(crate) fn open_records_hint(&self) -> usize {
        self.open_hint.load(Ordering::Acquire)
    }

    /// Number of records currently stored (summed one stripe at a time).
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn deplist(pairs: &[(u64, u64)]) -> DependencyList {
        let mut d = DependencyList::unbounded();
        for &(k, v) in pairs {
            d.record(ObjectId(k), Version(v));
        }
        d
    }

    #[test]
    fn check_flags_stale_current_read() {
        let mut record = TxnRecord::default();
        // Read o1@5 whose deps expect o2 at >= 4.
        record.record_read(ObjectId(1), Version(5), &deplist(&[(2, 4)]));
        let empty = deplist(&[]);
        let v = record
            .check_read(ObjectId(2), Version(2), &empty)
            .expect("stale current read detected");
        assert_eq!(v.kind, ViolationKind::CurrentReadStale);
        assert_eq!(v.violating_object, ObjectId(2));
        assert_eq!(v.expected_version, Version(4));
        assert_eq!(v.observed_version, Version(2));
        // A fresh-enough read passes, and so does anything on a cleared
        // record.
        assert!(record.check_read(ObjectId(2), Version(4), &empty).is_none());
        record.clear();
        assert!(record.check_read(ObjectId(2), Version(0), &empty).is_none());
    }

    #[test]
    fn check_flags_stale_previous_read() {
        let mut record = TxnRecord::default();
        record.record_read(ObjectId(2), Version(2), &deplist(&[]));
        let v = record
            .check_read(ObjectId(1), Version(5), &deplist(&[(2, 4)]))
            .expect("stale previous read detected");
        assert_eq!(v.kind, ViolationKind::PreviousReadStale);
        assert_eq!(v.violating_object, ObjectId(2));
        assert_eq!(v.observed_version, Version(2));
        assert_eq!(v.expected_version, Version(4));
    }

    /// One call of `txn` on `t` that records a read of `key` and fails if
    /// `fail`; returns whether the call found no stored record.
    fn call(t: &ShardedTransactionTable, txn: u64, key: u64, last_op: bool, fail: bool) -> bool {
        let mut fresh = false;
        let result = t.with_record(TxnId(txn), last_op, |record, first| {
            fresh = first;
            record.record_read(ObjectId(key), Version(1), &deplist(&[]));
            if fail {
                Err(())
            } else {
                Ok(())
            }
        });
        assert_eq!(result.is_err(), fail);
        fresh
    }

    #[test]
    fn table_stores_records_between_calls_and_tracks_the_hint() {
        let t = ShardedTransactionTable::new();
        assert_eq!((t.len(), t.open_records_hint()), (0, 0));
        for i in 0..40u64 {
            assert!(call(&t, i, i, false, false), "first call: nothing stored");
        }
        assert_eq!((t.len(), t.open_records_hint()), (40, 40));

        // A later call sees the stored record, updated in place, and
        // raises nothing.
        assert!(!call(&t, 7, 70, false, false));
        let seen = t.with_record(TxnId(7), false, |record, _| {
            match record.check_read(ObjectId(7), Version(0), &deplist(&[])) {
                Some(_) => Ok(()),
                None => Err(()),
            }
        });
        assert!(seen.is_ok(), "the first call's read is in the record");
        assert_eq!((t.len(), t.open_records_hint()), (40, 40));

        // The last read removes the record and lowers the hint; the id then
        // starts fresh.
        assert!(!call(&t, 7, 7, true, false));
        assert_eq!((t.len(), t.open_records_hint()), (39, 39));
        assert!(call(&t, 7, 7, true, false), "a one-call transaction");
        assert_eq!((t.len(), t.open_records_hint()), (39, 39));

        // A failing call ends the transaction too, stored or not.
        assert!(!call(&t, 8, 8, false, true));
        assert!(call(&t, 1000, 8, false, true));
        assert_eq!((t.len(), t.open_records_hint()), (38, 38));
    }
}

#[cfg(test)]
mod equivalence_proptests {
    //! The incremental O(deps) check must agree with the full predicate
    //! scan of [`crate::consistency::check_read`] on detection verdicts.

    use super::tests::deplist;
    use super::*;
    use crate::consistency::check_read as full_check;
    use proptest::prelude::*;
    use tcache_types::{ReadRecord, ReadSet};

    proptest! {
        /// For random transactions — up to 12 reads, so both inline maps
        /// spill — the incremental check and the full scan agree on
        /// whether a violation exists, on its staleness kind, and on the
        /// reported gap.
        #[test]
        fn incremental_check_matches_full_scan(
            reads in prop::collection::vec(
                ((0u64..24, 0u64..12), prop::collection::vec((0u64..24, 0u64..12), 0..4)),
                0..12,
            ),
            key in 0u64..24,
            ver in 0u64..12,
            cur_deps in prop::collection::vec((0u64..24, 0u64..12), 0..4),
        ) {
            let mut record = TxnRecord::default();
            let mut read_set = ReadSet::new();
            for ((k, v), deps) in reads {
                let deps = deplist(&deps);
                record.record_read(ObjectId(k), Version(v), &deps);
                read_set.push(ReadRecord::new(ObjectId(k), Version(v), deps));
            }
            // The dependency list of a real entry never contains the entry
            // itself; mirror that invariant here.
            let cur_deps: Vec<(u64, u64)> =
                cur_deps.into_iter().filter(|&(k, _)| k != key).collect();
            let deps = deplist(&cur_deps);

            let fast = record.check_read(ObjectId(key), Version(ver), &deps);
            let slow = full_check(&read_set, ObjectId(key), Version(ver), &deps);
            match (fast, slow) {
                (None, None) => {}
                (Some(f), Some(s)) => {
                    // Both report a worst-gap violation. For
                    // CurrentReadStale that pins the whole verdict; for
                    // PreviousReadStale several objects may tie on the gap
                    // and the two scans visit them in different orders, so
                    // only the gap — what the strategies act on — is
                    // compared.
                    let gap = |v: &Violation| {
                        v.expected_version.as_u64() - v.observed_version.as_u64()
                    };
                    prop_assert_eq!(f.kind, s.kind);
                    prop_assert_eq!(gap(&f), gap(&s));
                    if f.kind == ViolationKind::CurrentReadStale {
                        prop_assert_eq!(f, s);
                    }
                }
                (f, s) => prop_assert!(false, "verdicts differ: fast {f:?} vs slow {s:?}"),
            }
        }
    }
}
