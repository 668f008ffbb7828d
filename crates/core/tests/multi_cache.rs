//! Multi-cache deployment tests: isolation between cache servers and
//! per-cache violation counts validated against a sequential oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use tcache::SystemBuilder;
use tcache_cache::EdgeCache;
use tcache_db::{Database, DatabaseConfig};
use tcache_monitor::{ConsistencyMonitor, MonitorReport};
use tcache_net::delivery::{run_delivery, DeliveryCounters, DeliveryModel, DeliveryTask};
use tcache_net::reactor::Reactor;
use tcache_net::{bounded_pipe, LossModel, OverflowPolicy, UNBOUNDED};
use tcache_types::{
    cache_channel_seed, cache_delay_seed, CacheId, ObjectId, SimDuration, SimTime, Strategy,
    TCacheError, TransactionRecord, TxnId, Value, Version,
};

const OBJECTS: u64 = 50;

/// One read-only transaction's observed `(object, version)` pairs plus
/// whether it committed.
type Observation = (Vec<(ObjectId, Version)>, bool);

/// An invalidation addressed to cache A must never mutate cache B's entries,
/// even while both caches are being read concurrently.
#[test]
fn invalidations_addressed_to_one_cache_never_mutate_another() {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
    db.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    let caches: Vec<Arc<EdgeCache>> = (0..4)
        .map(|i| {
            Arc::new(EdgeCache::tcache(
                CacheId(i),
                Arc::clone(&db),
                3,
                Strategy::Abort,
            ))
        })
        .collect();
    // Warm every cache with every object at the initial version.
    for cache in &caches {
        for o in 0..OBJECTS {
            cache
                .read(SimTime::ZERO, TxnId(1 + o), ObjectId(o), true)
                .unwrap();
        }
    }
    // Commit updates so there are real invalidations to address.
    let mut invalidations = Vec::new();
    for round in 0..20u64 {
        let base = (round * 2) % (OBJECTS - 1);
        let commit = db
            .execute_update(TxnId(10_000 + round), &vec![base, base + 1].into())
            .unwrap();
        invalidations.extend(commit.invalidations.iter().copied());
    }

    // Reader threads hammer caches 1..3 while cache 0 receives every
    // invalidation; the other caches must keep serving their (stale) warmed
    // entries untouched.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = caches[1..]
        .iter()
        .map(|cache| {
            let cache = Arc::clone(cache);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut txn = 1_000_000 + u64::from(cache.id().0) * 1_000_000;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let key = ObjectId(txn % OBJECTS);
                    txn += 1;
                    // Single-object reads never abort; stale is fine here.
                    cache.read(SimTime::ZERO, TxnId(txn), key, true).unwrap();
                }
            })
        })
        .collect();
    for inv in &invalidations {
        caches[0].apply_invalidation(*inv);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for reader in readers {
        reader.join().unwrap();
    }

    // Cache 0 evicted the stale entries…
    assert!(caches[0].stats().invalidations_applied > 0);
    // …while caches 1..3 never saw an invalidation and still hold every
    // object at the initial version.
    for cache in &caches[1..] {
        let stats = cache.stats();
        assert_eq!(stats.invalidations_applied, 0, "{}", cache.id());
        assert_eq!(stats.invalidations_ignored, 0, "{}", cache.id());
        for o in 0..OBJECTS {
            let v = cache
                .read(SimTime::ZERO, TxnId(90_000_000 + o), ObjectId(o), true)
                .unwrap();
            assert_eq!(
                v.version,
                Version::INITIAL,
                "{} must still hold the warmed entry for o{o}",
                cache.id()
            );
        }
    }
}

/// The live pipeline end to end: each cache registers an invalidation
/// upcall with the database that feeds its own reliable pipe; committed
/// updates fan out to every cache's receiver, and the per-cache
/// *loss* is applied by that cache's reactor delivery task (seeded from
/// `(run_seed, CacheId)`), so a lossy link affects only its own cache.
#[test]
fn live_transport_fans_out_via_database_upcalls() {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
    db.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    let losses = [LossModel::None, LossModel::Uniform(1.0)];
    let mut reactor = Reactor::new();
    let timer = reactor.timer();
    let counters: Vec<Arc<DeliveryCounters>> = losses
        .iter()
        .enumerate()
        .map(|(i, &loss)| {
            let cache = CacheId(i as u32);
            let (tx, rx) = bounded_pipe(UNBOUNDED, OverflowPolicy::Block);
            db.register_invalidation_upcall(
                cache,
                Box::new(move |batch| {
                    let sent = tx.send_batch(batch.iter().copied());
                    tcache_db::SinkReport {
                        enqueued: sent.enqueued,
                        ..tcache_db::SinkReport::default()
                    }
                }),
            );
            let task = DeliveryTask::new(
                DeliveryModel {
                    loss,
                    latency: tcache_net::LatencyModel::Constant(SimDuration::ZERO),
                },
                cache_channel_seed(9, cache),
                cache_delay_seed(9, cache),
            );
            let task_counters = Arc::clone(&task.counters);
            reactor.spawn(run_delivery(rx, timer.clone(), task, |_| {}));
            task_counters
        })
        .collect();
    for round in 0..10u64 {
        db.execute_update(TxnId(round + 1), &vec![round, round + 1].into())
            .unwrap();
    }
    db.unregister_invalidation_upcall(CacheId(0));
    db.unregister_invalidation_upcall(CacheId(1));
    reactor.run(); // Senders dropped: tasks drain and complete.

    // The reliable cache's task applied every invalidation; the fully lossy
    // one dropped all of them — the loss process is per cache, not shared.
    assert_eq!(counters[0].snapshot().delivered, 20);
    assert_eq!(counters[1].snapshot().delivered, 0);
    assert_eq!(counters[1].snapshot().dropped, 20);
    // Applying the delivered invalidations is exactly the cache upcall loop.
    let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), 3, Strategy::Abort);
    cache.read(SimTime::ZERO, TxnId(100), ObjectId(0), true).unwrap();
    let commit = db
        .execute_update(TxnId(101), &vec![0u64].into())
        .unwrap();
    for inv in commit.invalidations.iter() {
        cache.apply_invalidation(*inv);
    }
    assert_eq!(cache.stats().invalidations_applied, 1);
}

/// Drives a 4-cache system with heterogeneous loss through a deterministic
/// script, classifying every read-only transaction online with per-cache
/// attribution, then replays each cache's observations through a fresh
/// monitor sequentially. The per-cache counts must match the oracle exactly.
#[test]
fn per_cache_violation_counts_match_a_sequential_oracle() {
    let system = SystemBuilder::new()
        .dependency_bound(3)
        .strategy(Strategy::Abort)
        .cache_loss_rates(vec![0.0, 0.3, 0.6, 1.0])
        .seed(42)
        .build();
    system.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    let cache_ids: Vec<CacheId> = system.cache_ids().collect();

    let mut online = ConsistencyMonitor::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut next_txn = 1u64;
    // Per cache: the (reads, committed) observations in execution order.
    let mut observations: Vec<Vec<Observation>> = vec![Vec::new(); cache_ids.len()];
    let mut updates: Vec<TransactionRecord> = Vec::new();

    for _ in 0..400 {
        // One update over a random adjacent pair (pairs create the
        // dependency links the violation predicates key off).
        let base = rng.gen_range(0..OBJECTS - 1);
        let txn = TxnId(1_000_000 + next_txn);
        next_txn += 1;
        let commit = system
            .database()
            .execute_update(txn, &vec![base, base + 1].into())
            .unwrap();
        updates.push(TransactionRecord::update_committed(
            txn,
            commit.reads.clone(),
            commit.written.clone(),
            system.now(),
        ));
        online.record_update_commit(updates.last().unwrap());
        // The commit published into every cache's pipe (committing against
        // the database by hand captures the commit record). Let each link
        // deliver or drop it before the reads, so the script is a pure
        // function of the seeds.
        assert!(system.quiesce(Duration::from_secs(10)).unwrap());

        // Each cache serves one 2-object read-only transaction.
        for (idx, &cache_id) in cache_ids.iter().enumerate() {
            let cache = system.cache(cache_id).unwrap();
            let read_base = rng.gen_range(0..OBJECTS - 1);
            let keys = [ObjectId(read_base), ObjectId(read_base + 1)];
            let txn = TxnId(1_000_000 + next_txn);
            next_txn += 1;
            let now = system.now();
            let mut observed = Vec::with_capacity(keys.len());
            let mut committed = true;
            for (i, &key) in keys.iter().enumerate() {
                match cache.read(now, txn, key, i + 1 == keys.len()) {
                    Ok(v) => observed.push((v.id, v.version)),
                    Err(TCacheError::InconsistencyAbort { .. }) => {
                        committed = false;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            online.record_read_only_from(cache_id, &observed, committed);
            observations[idx].push((observed, committed));
        }
        system.advance_time(SimDuration::from_millis(10));
    }

    // The lossy caches must actually have produced violations or aborts,
    // otherwise the oracle comparison is vacuous.
    let lossiest = online.cache_report(CacheId(3));
    assert!(
        lossiest.committed_inconsistent + lossiest.aborted_total() > 0,
        "the 100%-loss cache must trip the predicates: {lossiest:?}"
    );
    // With the ABORT strategy violations surface as aborts; a reliable link
    // must trip far fewer of them than the link that loses everything.
    let violations =
        |r: &MonitorReport| r.committed_inconsistent + r.aborted_total();
    let reliable = online.cache_report(CacheId(0));
    assert!(
        violations(&reliable) < violations(&lossiest),
        "a reliable link must yield fewer violations ({} vs {})",
        violations(&reliable),
        violations(&lossiest)
    );

    // Sequential oracle: per cache, replay the full update history and then
    // that cache's observations in order through a fresh monitor. Verdicts
    // are stable under later updates, so feeding all updates first is
    // equivalent to the interleaved online order.
    for (idx, &cache_id) in cache_ids.iter().enumerate() {
        let mut oracle = ConsistencyMonitor::new();
        for update in &updates {
            oracle.record_update_commit(update);
        }
        for (reads, committed) in &observations[idx] {
            oracle.record_read_only(reads, *committed);
        }
        let expected = oracle.report();
        let actual = online.cache_report(cache_id);
        let strip_updates = |r: MonitorReport| MonitorReport {
            updates_committed: 0,
            updates_aborted: 0,
            ..r
        };
        assert_eq!(
            strip_updates(expected),
            actual,
            "{cache_id}: online per-cache counts must match the sequential oracle"
        );
    }

    // The per-cache reports partition the global one.
    let global = online.report();
    let summed: u64 = online
        .per_cache_reports()
        .map(|(_, r)| r.read_only_total())
        .sum();
    assert_eq!(summed, global.read_only_total());
}
