//! Admission under a concurrent committer: readers keep missing while a
//! committer updates objects and applies each commit's invalidations.
//!
//! A miss fetches from the database with no lock held, so an invalidation
//! can land between the fetch and the insert. The storage's per-stripe
//! admission epoch must refuse every such insert. The committer is the only
//! writer, so each time it has applied a commit's invalidations every
//! stored entry must equal the database head: it checks all objects then,
//! and once more after everything has quiesced. An admitted stale version
//! would break the check until the object's next invalidation.
//!
//! The race has to actually occur for the test to mean anything, so the run
//! continues until the cache has counted a vetoed admission. To make that
//! quick even on one CPU — where the race needs a reader preempted between
//! its miss and its insert — nearly every read is a miss: the cache is the
//! TTL baseline and each reader's clock moves a TTL per read, so an entry
//! has expired by the time its reader returns to it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcache_cache::EdgeCache;
use tcache_db::{Database, DatabaseConfig};
use tcache_types::{CacheId, ObjectId, SimDuration, SimTime, TxnId, Value};

const OBJECTS: u64 = 64;
const READERS: u64 = 2;
/// Commits the committer performs at least, vetoes or not.
const MIN_COMMITS: u64 = 5_000;
/// Upper bound on the run if no veto has been observed yet.
const DEADLINE: Duration = Duration::from_secs(20);

/// Asserts that every object the cache stores is at the database head.
/// Reading at time zero serves whatever is stored, however old (entry ages
/// saturate at zero); a miss just fetches the head.
fn assert_cache_at_head(cache: &EdgeCache, db: &Database, txn_ids: &AtomicU64) {
    for id in (0..OBJECTS).map(ObjectId).filter(|&id| cache.contains(id)) {
        let txn = TxnId(txn_ids.fetch_add(1, Ordering::Relaxed));
        let served = cache.read(SimTime::ZERO, txn, id, true).unwrap();
        let head = db.peek_entry(id).unwrap().version;
        assert_eq!(served.version, head, "{id:?} caches a stale version");
    }
}

/// Stops the readers when the committer finishes — or panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn readers_missing_under_a_committer_never_cache_a_stale_version() {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
    db.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    let cache = EdgeCache::ttl_baseline(CacheId(0), Arc::clone(&db), SimDuration::from_secs(1));
    let txn_ids = AtomicU64::new(1);
    let committer_done = AtomicBool::new(false);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for r in 0..READERS {
            let (cache, txn_ids, committer_done) = (&cache, &txn_ids, &committer_done);
            scope.spawn(move || {
                let mut reads = 0u64;
                while !committer_done.load(Ordering::Acquire) {
                    let key = ObjectId((r * 7 + reads * 13) % OBJECTS);
                    let txn = TxnId(txn_ids.fetch_add(1, Ordering::Relaxed));
                    let now = SimTime::from_secs(2 + reads);
                    cache.execute_transaction(now, txn, &[key]).unwrap();
                    reads += 1;
                }
            });
        }
        let _stop = StopOnDrop(&committer_done);
        let mut round = 0u64;
        while round < MIN_COMMITS
            || (cache.stats().admissions_vetoed == 0 && started.elapsed() < DEADLINE)
        {
            let first = round % OBJECTS;
            let access = vec![first, (first + 17) % OBJECTS].into();
            let txn = TxnId(txn_ids.fetch_add(1, Ordering::Relaxed));
            let commit = db.execute_update(txn, &access).unwrap();
            cache.apply_invalidations(commit.invalidations.invalidations());
            assert_cache_at_head(&cache, &db, &txn_ids);
            round += 1;
        }
    });

    assert_cache_at_head(&cache, &db, &txn_ids);
    let stats = cache.stats();
    assert!(
        stats.admissions_vetoed > 0,
        "no fetch raced an invalidation in {:?}: {stats:?}",
        started.elapsed()
    );
}
