//! Concurrency stress tests for the striped [`EdgeCache`].
//!
//! The cache used to serialize everything behind one mutex; these tests pin
//! down that the striped-lock rewrite misses no violation under parallel
//! load. The scenario is the paper's canonical stale pair, replicated many
//! times: objects `2i`/`2i+1` are updated together, the invalidation for
//! the odd object is "lost", so the cache holds a fresh even object (after
//! re-fetch) and a stale odd one. Any transaction reading both **must**
//! abort — a commit would be a missed violation — and a sequential
//! single-threaded replay (the old single-lock behaviour) must reach the
//! same verdicts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tcache_cache::EdgeCache;
use tcache_db::{Database, DatabaseConfig, UpdateCommit};
use tcache_types::{CacheId, ObjectId, SimTime, Strategy, TCacheError, TxnId, Value};

const PAIRS: u64 = 64;
/// Objects `2 * PAIRS ..` are never written together with a pair object:
/// reading one next to a pair cannot raise a violation of its own.
const EXTRAS: u64 = 32;
const THREADS: u64 = 8;
const TXNS_PER_THREAD: u64 = 500;

/// Builds a database + cache where every pair (2i, 2i+1) is a stale pair:
/// the even object's invalidation was delivered, the odd one's was lost.
/// Returns the commits so tests can replay invalidations.
fn build_stale_pairs(cache: &EdgeCache, db: &Arc<Database>) -> Vec<UpdateCommit> {
    let now = SimTime::ZERO;
    let mut commits = Vec::new();
    for i in 0..PAIRS {
        let (even, odd) = (ObjectId(2 * i), ObjectId(2 * i + 1));
        // Warm both objects at their initial versions.
        cache.read(now, TxnId(500_000 + i), even, false).unwrap();
        cache.read(now, TxnId(500_000 + i), odd, true).unwrap();
        // Update the pair; deliver only the even object's invalidation.
        let commit = db
            .execute_update(TxnId(600_000 + i), &vec![even.as_u64(), odd.as_u64()].into())
            .unwrap();
        for inv in commit.invalidations.iter() {
            if inv.object == even {
                cache.apply_invalidation(*inv);
            }
        }
        commits.push(commit);
    }
    commits
}

fn setup(strategy: Strategy) -> (Arc<Database>, Arc<EdgeCache>, Vec<UpdateCommit>) {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(5)));
    db.populate((0..2 * PAIRS + EXTRAS).map(|i| (ObjectId(i), Value::new(0))));
    let cache = Arc::new(EdgeCache::tcache(CacheId(0), Arc::clone(&db), 5, strategy));
    let commits = build_stale_pairs(&cache, &db);
    (db, cache, commits)
}

/// The transaction mix one worker runs; returns (committed, aborted) counts
/// for the pair transactions only.
fn run_mix(
    cache: &EdgeCache,
    thread: u64,
    txns: u64,
    txn_ids: &AtomicU64,
    commits: &[UpdateCommit],
) -> (u64, u64) {
    let now = SimTime::from_secs(1);
    let mut committed = 0;
    let mut aborted = 0;
    for i in 0..txns {
        let txn = TxnId(txn_ids.fetch_add(1, Ordering::Relaxed));
        let pair = (thread * 31 + i) % PAIRS;
        let (even, odd) = (ObjectId(2 * pair), ObjectId(2 * pair + 1));
        match i % 4 {
            // Pair transactions in both orders: every one must detect the
            // stale odd object.
            0 => match cache.execute_transaction(now, txn, &[even, odd]).unwrap() {
                o if o.is_committed() => committed += 1,
                _ => aborted += 1,
            },
            1 => match cache.execute_transaction(now, txn, &[odd, even]).unwrap() {
                o if o.is_committed() => committed += 1,
                _ => aborted += 1,
            },
            // Single-object transactions always commit (nothing to compare
            // against) and keep the storage stripes busy.
            2 => {
                let outcome = cache.execute_transaction(now, txn, &[even]).unwrap();
                assert!(outcome.is_committed(), "single reads cannot violate");
            }
            // Replay invalidations concurrently: old news for the even
            // object, still-lost news for the odd one is NOT delivered, so
            // the stale pair stays stale.
            _ => {
                for inv in commits[pair as usize].invalidations.iter() {
                    if inv.object == even {
                        cache.apply_invalidation(*inv);
                    }
                }
            }
        }
    }
    (committed, aborted)
}

#[test]
fn concurrent_mix_misses_no_violation_vs_sequential_oracle() {
    // Concurrent run over the striped cache.
    let (_db, cache, commits) = setup(Strategy::Abort);
    let txn_ids = Arc::new(AtomicU64::new(1_000_000));
    let commits = Arc::new(commits);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let txn_ids = Arc::clone(&txn_ids);
            let commits = Arc::clone(&commits);
            std::thread::spawn(move || run_mix(&cache, t, TXNS_PER_THREAD, &txn_ids, &commits))
        })
        .collect();
    let mut concurrent_committed = 0;
    let mut concurrent_aborted = 0;
    for h in handles {
        let (c, a) = h.join().unwrap();
        concurrent_committed += c;
        concurrent_aborted += a;
    }

    // No missed violation: every pair transaction saw the stale odd object
    // and must have aborted.
    assert_eq!(
        concurrent_committed, 0,
        "a committed pair transaction means the striped cache missed a violation"
    );
    assert_eq!(concurrent_aborted, THREADS * TXNS_PER_THREAD / 2);
    assert_eq!(cache.open_transactions(), 0, "all records garbage-collected");

    // Sequential oracle: the same mix replayed single-threaded (the old
    // single-lock execution order is some interleaving; any sequential
    // order is a witness) reaches the same verdicts.
    let (_db2, oracle, oracle_commits) = setup(Strategy::Abort);
    let oracle_ids = AtomicU64::new(1_000_000);
    let mut oracle_committed = 0;
    let mut oracle_aborted = 0;
    for t in 0..THREADS {
        let (c, a) = run_mix(&oracle, t, TXNS_PER_THREAD, &oracle_ids, &oracle_commits);
        oracle_committed += c;
        oracle_aborted += a;
    }
    assert_eq!(oracle_committed, concurrent_committed);
    assert_eq!(oracle_aborted, concurrent_aborted);

    // Both caches counted every abort and the concurrent invalidation
    // replays never evicted the newer entries (idempotence under threads).
    assert_eq!(cache.stats().txns_aborted, oracle.stats().txns_aborted);
    assert_eq!(
        cache.stats().invalidations_applied,
        oracle.stats().invalidations_applied
    );
}

#[test]
fn concurrent_retry_repairs_current_read_violations() {
    // With RETRY, pair transactions ordered (fresh-even, stale-odd) are
    // repaired by a read-through and must commit with matching versions;
    // ordered (stale-odd, fresh-even) they abort. Run both shapes from many
    // threads at once.
    let (db, cache, _commits) = setup(Strategy::Retry);
    let txn_ids = Arc::new(AtomicU64::new(2_000_000));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let db = Arc::clone(&db);
            let txn_ids = Arc::clone(&txn_ids);
            std::thread::spawn(move || {
                let now = SimTime::from_secs(1);
                for i in 0..200u64 {
                    let pair = (t * 17 + i) % PAIRS;
                    let (even, odd) = (ObjectId(2 * pair), ObjectId(2 * pair + 1));
                    let txn = TxnId(txn_ids.fetch_add(1, Ordering::Relaxed));
                    let outcome = cache.execute_transaction(now, txn, &[even, odd]).unwrap();
                    if let Some(values) = outcome.values() {
                        // A committed repair must return a consistent pair:
                        // both versions current in the database.
                        let fresh_even = db.peek_entry(even).unwrap().version;
                        let fresh_odd = db.peek_entry(odd).unwrap().version;
                        assert_eq!(values[0].version, fresh_even);
                        assert_eq!(values[1].version, fresh_odd);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = cache.stats();
    assert!(stats.retries > 0, "the stale pairs must force read-throughs");
    assert_eq!(cache.open_transactions(), 0);
}

/// Miss-storm against the database read path: every commit's
/// invalidations are applied synchronously from the writer threads (an
/// aggressive upcall wiring), so readers keep missing and re-fetching
/// through [`Database::read_entry`] while installs race them. Every
/// re-fetched entry must be a committed snapshot — its version can never
/// go backwards for the same reader — and the database must count the
/// re-fetches as single reads, apart from the updates' own reads.
#[test]
fn miss_storm_under_concurrent_updates_reads_coherent_snapshots() {
    const UPDATES: u64 = 2_000;
    const READERS: u64 = 4;
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
    db.populate((0..2 * PAIRS).map(|i| (ObjectId(i), Value::new(0))));
    let cache = Arc::new(EdgeCache::tcache(
        CacheId(0),
        Arc::clone(&db),
        3,
        Strategy::Abort,
    ));
    // Synchronous upcall: commits evict/refresh cached entries from the
    // writer thread, concurrently with the readers' fetches.
    {
        let cache = Arc::clone(&cache);
        db.register_invalidation_upcall(
            CacheId(0),
            Box::new(move |batch| {
                for inv in batch.iter() {
                    cache.apply_invalidation(*inv);
                }
                tcache_db::SinkReport::default()
            }),
        );
    }

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let cache = Arc::clone(&cache);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let now = SimTime::ZERO;
                let mut floors = vec![0u64; (2 * PAIRS) as usize];
                let mut txn = 3_000_000 + r * 1_000_000;
                let mut rounds = 0u64;
                while !done.load(Ordering::Relaxed) || rounds < 200 {
                    let obj = (rounds * 7 + r) % (2 * PAIRS);
                    txn += 1;
                    // Single-read transactions: no cross-object predicate,
                    // so nothing aborts — this isolates the fetch path.
                    let v = cache
                        .read(now, TxnId(txn), ObjectId(obj), true)
                        .expect("backend reachable");
                    assert!(
                        v.version.0 >= floors[obj as usize],
                        "reader {r} saw o{obj} go backwards"
                    );
                    floors[obj as usize] = v.version.0;
                    rounds += 1;
                }
            })
        })
        .collect();

    for i in 0..UPDATES {
        let pair = i % PAIRS;
        db.execute_update(
            TxnId(7_000_000 + i),
            &vec![2 * pair, 2 * pair + 1].into(),
        )
        .unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().expect("no reader saw an incoherent snapshot");
    }

    let stats = cache.stats();
    assert!(stats.misses > 0, "invalidations must have forced re-fetches");
    let db_stats = db.stats();
    assert_eq!(
        db_stats.single_reads,
        stats.db_reads(),
        "every miss and read-through is one database read"
    );
    assert_eq!(
        db_stats.update_reads,
        2 * UPDATES,
        "each update reads its two objects once, under its locks"
    );
}

/// `true` if the next whole-transaction call on `cache` runs on the
/// thread-local record, i.e. the open-record gate is down.
fn next_whole_txn_takes_the_fast_path(cache: &EdgeCache, txn: TxnId) -> bool {
    let before = cache.stats().fastpath_txns;
    cache
        .execute_transaction(SimTime::ZERO, txn, &[ObjectId(0)])
        .unwrap();
    cache.stats().fastpath_txns == before + 1
}

/// Overlapping calls under one `TxnId` — a client that misuses the
/// interface — must not leak the open-record hint: once the transaction's
/// last read has run, whole-transaction calls take the fast path again.
/// Calls under one id serialize on its stripe, so the first call stores the
/// record and raises the hint once, and every later call finds it.
#[test]
fn overlapping_calls_under_one_txn_id_do_not_leak_the_gate() {
    const ROUNDS: u64 = 5;
    const CALLERS: u64 = 4;
    const CALLS: u64 = 2_000;
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(5)));
    db.populate((0..16).map(|i| (ObjectId(i), Value::new(0))));
    let cache = Arc::new(EdgeCache::tcache(CacheId(0), Arc::clone(&db), 5, Strategy::Abort));
    for round in 0..ROUNDS {
        let txn = TxnId(round);
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..CALLS {
                        let key = ObjectId((c * 5 + i) % 16);
                        cache.read(SimTime::ZERO, txn, key, false).unwrap();
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
        cache.read(SimTime::ZERO, txn, ObjectId(0), true).unwrap();
        assert_eq!(cache.open_transactions(), 0);
        assert!(
            next_whole_txn_takes_the_fast_path(&cache, TxnId(1_000 + round)),
            "round {round}: the open-record gate stayed raised with no record open"
        );
    }
}

/// A transaction's record belongs to its id, not to the thread that
/// began it: a client whose calls land on different threads (a session
/// moved between workers) is still checked against everything it read.
#[test]
fn a_transaction_continued_on_another_thread_is_still_checked() {
    let (_db, cache, _commits) = setup(Strategy::Abort);
    let now = SimTime::from_secs(1);
    let txn = TxnId(42);
    let (fresh, stale) = (ObjectId(0), ObjectId(1));
    let first = Arc::clone(&cache);
    std::thread::spawn(move || first.read(now, txn, fresh, false).unwrap())
        .join()
        .unwrap();
    let last = Arc::clone(&cache);
    let verdict = std::thread::spawn(move || last.read(now, txn, stale, true))
        .join()
        .unwrap();
    assert!(
        matches!(
            verdict,
            Err(TCacheError::InconsistencyAbort {
                violating_object,
                ..
            }) if violating_object == stale
        ),
        "the second thread's read must be checked against the first's: {verdict:?}"
    );
    assert_eq!(cache.open_transactions(), 0);
}

/// The lock order **txn stripe → object stripe or DB bucket** under load.
/// Four threads each keep several key-by-key transactions open over stale
/// pairs (with an extra object read in between, often a miss), one thread
/// commits updates of the extra objects whose invalidations a synchronous
/// upcall applies from inside the commit, and one thread issues
/// whole-transaction calls over the same objects. Everything must finish
/// within the wall-clock bound (a deadlock would not), every pair
/// transaction must abort, and afterwards no record is open and the gate
/// is down.
#[test]
fn key_by_key_transactions_invalidations_and_whole_calls_keep_the_lock_order() {
    const KEY_BY_KEY_THREADS: u64 = 4;
    const OPEN_AT_ONCE: u64 = 4;
    const ROUNDS: u64 = 1_000;
    const UPDATES: u64 = 10_000;
    const BOUND: Duration = Duration::from_secs(120);

    let (db, cache, _commits) = setup(Strategy::Abort);
    {
        let cache = Arc::clone(&cache);
        db.register_invalidation_upcall(
            CacheId(0),
            Box::new(move |batch| {
                cache.apply_invalidations(batch.invalidations());
                tcache_db::SinkReport::default()
            }),
        );
    }
    let extra = |n: u64| ObjectId(2 * PAIRS + n % EXTRAS);
    let pair = |n: u64| (ObjectId(2 * (n % PAIRS)), ObjectId(2 * (n % PAIRS) + 1));
    let now = SimTime::from_secs(1);
    let txn_ids = Arc::new(AtomicU64::new(10_000_000));
    let key_by_key_done = Arc::new(AtomicU64::new(0));
    let (done_tx, done_rx) = mpsc::channel::<(&'static str, u64)>();

    for t in 0..KEY_BY_KEY_THREADS {
        let (cache, txn_ids, done, done_tx) = (
            Arc::clone(&cache),
            Arc::clone(&txn_ids),
            Arc::clone(&key_by_key_done),
            done_tx.clone(),
        );
        std::thread::spawn(move || {
            let mut aborted = 0;
            for round in 0..ROUNDS {
                let txns: Vec<(TxnId, u64)> = (0..OPEN_AT_ONCE)
                    .map(|j| {
                        let txn = TxnId(txn_ids.fetch_add(1, Ordering::Relaxed));
                        (txn, t * 7 + round * OPEN_AT_ONCE + j)
                    })
                    .collect();
                for &(txn, n) in &txns {
                    cache.read(now, txn, pair(n).0, false).unwrap();
                }
                for &(txn, n) in &txns {
                    cache.read(now, txn, extra(n + t), false).unwrap();
                }
                for &(txn, n) in &txns {
                    match cache.read(now, txn, pair(n).1, true) {
                        Err(TCacheError::InconsistencyAbort { .. }) => aborted += 1,
                        other => panic!("stale pair {n} not detected: {other:?}"),
                    }
                }
            }
            done.fetch_add(1, Ordering::Release);
            done_tx.send(("key-by-key", aborted)).unwrap();
        });
    }
    {
        let (db, done_tx) = (Arc::clone(&db), done_tx.clone());
        std::thread::spawn(move || {
            for i in 0..UPDATES {
                let object = extra(i).as_u64();
                db.execute_update(TxnId(20_000_000 + i), &vec![object].into())
                    .unwrap();
            }
            done_tx.send(("updates", UPDATES)).unwrap();
        });
    }
    {
        let (cache, txn_ids, done) = (
            Arc::clone(&cache),
            Arc::clone(&txn_ids),
            Arc::clone(&key_by_key_done),
        );
        std::thread::spawn(move || {
            let mut aborted = 0;
            let mut n = 0;
            while done.load(Ordering::Acquire) < KEY_BY_KEY_THREADS {
                let (fresh, stale) = pair(n);
                let txn = TxnId(txn_ids.fetch_add(1, Ordering::Relaxed));
                let outcome = cache
                    .execute_transaction(now, txn, &[fresh, extra(n), stale])
                    .unwrap();
                assert!(outcome.is_aborted(), "stale pair {n} not detected");
                aborted += 1;
                n += 1;
            }
            done_tx.send(("whole", aborted)).unwrap();
        });
    }

    let deadline = Instant::now() + BOUND;
    let mut key_by_key_aborted = 0;
    for _ in 0..KEY_BY_KEY_THREADS + 2 {
        let left = deadline.saturating_duration_since(Instant::now());
        let (who, count) = done_rx
            .recv_timeout(left)
            .unwrap_or_else(|e| panic!("workers did not finish within {BOUND:?} ({e}): a deadlock or a panic"));
        if who == "key-by-key" {
            key_by_key_aborted += count;
        }
    }
    assert_eq!(key_by_key_aborted, KEY_BY_KEY_THREADS * ROUNDS * OPEN_AT_ONCE);
    assert_eq!(cache.open_transactions(), 0, "every record was removed");
    assert!(
        next_whole_txn_takes_the_fast_path(&cache, TxnId(30_000_000)),
        "the open-record gate is down once no record is open"
    );
}
