//! The two drivers of the cache's read engine must be indistinguishable.
//!
//! A whole-transaction call ([`EdgeCache::execute_read_only`]) runs the
//! read step on a thread-local record; the §III-B interface
//! ([`EdgeCache::read`], key by key) runs the same step, in place, on the
//! record the transaction table keeps for the transaction's whole life. This test prepares two
//! identical caches holding stale entries (updates whose invalidations were
//! withheld), runs one key list through each driver, and requires the same
//! observed versions, the same verdict, the same statistics — apart from
//! the two counters that say which driver ran — and the same cached set,
//! for each of ABORT, EVICT and RETRY.

use proptest::prelude::*;
use std::sync::Arc;
use tcache_cache::{CacheStatsSnapshot, EdgeCache};
use tcache_db::{Database, DatabaseConfig};
use tcache_types::{
    AccessSet, CacheId, CachePolicyConfig, ObjectId, SimTime, Strategy, TCacheError, TxnId, Value,
    Version,
};

/// Enough objects that a twelve-key transaction, repeats included, often
/// reads more than eight of them and spills the record's inline capacity.
const OBJECTS: u64 = 16;
const BOUND: usize = 5;
/// Outside the key range: read by an unrelated transaction that is left
/// open to route whole-transaction calls through the table.
const BYSTANDER: ObjectId = ObjectId(OBJECTS);

/// One update: the objects it writes and, per position, whether the
/// invalidation for that object is withheld from the caches.
type Update = (Vec<u64>, u32);

/// Two caches over one database, warmed with every object and then left
/// stale by `updates` in exactly the same way.
fn prepare(strategy: Strategy, updates: &[Update], gate_raised: bool) -> [EdgeCache; 2] {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(BOUND)));
    db.populate((0..=OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    let caches = [0, 1].map(|id| {
        EdgeCache::new(
            CacheId(id),
            Arc::clone(&db),
            CachePolicyConfig::tcache(BOUND, strategy),
        )
    });
    let all: Vec<ObjectId> = (0..OBJECTS).map(ObjectId).collect();
    for cache in &caches {
        cache
            .execute_transaction(SimTime::ZERO, TxnId(1), &all)
            .expect("warm-up");
    }
    for (i, (objects, withheld)) in updates.iter().enumerate() {
        let mut objects = objects.clone();
        objects.sort_unstable();
        objects.dedup();
        let access: AccessSet = objects.clone().into();
        let commit = db
            .execute_update(TxnId(100 + i as u64), &access)
            .expect("update");
        for inv in commit.invalidations.iter() {
            let position = objects
                .iter()
                .position(|&o| ObjectId(o) == inv.object)
                .expect("invalidation of a written object");
            if withheld & (1 << position) == 0 {
                for cache in &caches {
                    cache.apply_invalidation(*inv);
                }
            }
        }
    }
    if gate_raised {
        for cache in &caches {
            cache
                .read(SimTime::ZERO, TxnId(2), BYSTANDER, false)
                .expect("bystander read");
        }
    }
    caches
}

/// What a driver reports: the versions observed, in order, and the verdict.
type Observed = (Vec<(ObjectId, Version)>, bool);

fn whole(cache: &EdgeCache, now: SimTime, txn: TxnId, keys: &[ObjectId]) -> Observed {
    let log = cache
        .execute_read_only(now, txn, keys)
        .expect("no key is unknown");
    (log.observed.to_vec(), log.committed)
}

fn key_by_key(cache: &EdgeCache, now: SimTime, txn: TxnId, keys: &[ObjectId]) -> Observed {
    let mut observed = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        match cache.read(now, txn, key, i + 1 == keys.len()) {
            Ok(value) => observed.push((key, value.version)),
            Err(TCacheError::InconsistencyAbort { txn: aborted, .. }) => {
                assert_eq!(aborted, txn);
                return (observed, false);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    (observed, true)
}

/// The snapshot without the two counters that name the driver.
fn driver_blind(mut stats: CacheStatsSnapshot) -> CacheStatsSnapshot {
    stats.fastpath_txns = 0;
    stats.promoted_txns = 0;
    stats
}

proptest! {
    #[test]
    fn whole_transaction_and_key_by_key_reads_agree(
        updates in prop::collection::vec(
            (prop::collection::vec(0u64..OBJECTS, 1..4), 0u32..8),
            1..10,
        ),
        keys in prop::collection::vec(0u64..OBJECTS, 0..13),
        gate in 0u32..2,
    ) {
        let keys: Vec<ObjectId> = keys.into_iter().map(ObjectId).collect();
        let gate_raised = gate == 1;
        let now = SimTime::from_secs(1);
        let txn = TxnId(1_000);

        for strategy in [Strategy::Abort, Strategy::Evict, Strategy::Retry] {
            let [a, b] = prepare(strategy, &updates, gate_raised);
            let (before_a, before_b) = (a.stats(), b.stats());
            prop_assert_eq!(before_a, before_b);

            let from_whole = whole(&a, now, txn, &keys);
            let from_reads = key_by_key(&b, now, txn, &keys);
            prop_assert_eq!(&from_whole, &from_reads, "{:?}", strategy);

            let (after_a, after_b) = (a.stats(), b.stats());
            prop_assert_eq!(driver_blind(after_a), driver_blind(after_b), "{:?}", strategy);
            for object in (0..=OBJECTS).map(ObjectId) {
                prop_assert_eq!(a.contains(object), b.contains(object), "{:?} {}", strategy, object);
            }
            // Neither driver leaves a record behind, whatever the verdict.
            prop_assert_eq!(a.open_transactions(), usize::from(gate_raised));
            prop_assert_eq!(b.open_transactions(), usize::from(gate_raised));

            // The two runs really went through different drivers: the
            // whole-transaction call stays off the table while it is quiet,
            // the key-by-key transaction always begins in it.
            let started = u64::from(!keys.is_empty());
            let local = if gate_raised { 0 } else { started };
            prop_assert_eq!(after_a.fastpath_txns - before_a.fastpath_txns, local);
            prop_assert_eq!(after_a.promoted_txns - before_a.promoted_txns, started - local);
            prop_assert_eq!(after_b.fastpath_txns, before_b.fastpath_txns);
            prop_assert_eq!(after_b.promoted_txns - before_b.promoted_txns, started);
        }
    }
}
