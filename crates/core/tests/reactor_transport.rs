//! Live-plane integration tests: per-cache isolation under one reactor
//! thread, backpressure semantics of the bounded apply pipes, and the
//! per-cache loss / latency models running in the delivery tasks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tcache::{two_tier_parents, SystemBuilder, TCacheSystem};
use tcache_net::delivery::DEFAULT_BATCH_BUDGET;
use tcache_net::pipe::OverflowPolicy;
use tcache_types::{CacheId, ObjectId, SimDuration, Strategy, TxnId, Value, Version};

const OBJECTS: u64 = 50;

fn reactor_system(losses: &[f64], capacity: usize, policy: OverflowPolicy) -> TCacheSystem {
    let system = SystemBuilder::new()
        .dependency_bound(3)
        .strategy(Strategy::Abort)
        .cache_loss_rates(losses.to_vec())
        .pipe_capacity(capacity)
        .overflow_policy(policy)
        .seed(9)
        .build();
    system.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    system
}

/// One reactor thread hosting four caches: an invalidation that only
/// cache 0's link delivers must never mutate caches 1..3, even while
/// reader threads hammer them concurrently.
#[test]
fn reactor_hosts_four_caches_with_per_cache_isolation() {
    // Cache 0 has a perfect link; caches 1..3 lose every invalidation in
    // their delivery tasks, so the only applications target cache 0.
    let system = Arc::new(reactor_system(
        &[0.0, 1.0, 1.0, 1.0],
        tcache_net::pipe::UNBOUNDED,
        OverflowPolicy::Block,
    ));
    assert_eq!(system.cache_count(), 4);

    // Warm every cache with every object at the initial version.
    for id in 0..4u32 {
        for o in 0..OBJECTS {
            system.read_on(CacheId(id), ObjectId(o)).unwrap();
        }
    }

    // Reader threads hammer caches 1..3 while updates invalidate cache 0
    // through the reactor.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (1..4u32)
        .map(|id| {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = ObjectId(n % OBJECTS);
                    n += 1;
                    system.read_on(CacheId(id), key).unwrap();
                }
            })
        })
        .collect();

    for round in 0..20u64 {
        let base = (round * 2) % (OBJECTS - 1);
        system.update(&[ObjectId(base), ObjectId(base + 1)]).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().unwrap();
    }
    assert!(system.quiesce(Duration::from_secs(5)).unwrap());

    let stats = system.stats();
    // Cache 0's reactor task applied the invalidations…
    assert!(stats.per_cache[0].cache.invalidations_applied > 0);
    assert!(system.reactor_applied(CacheId(0)).unwrap() > 0);
    // …while caches 1..3 never saw one and still hold every warmed entry.
    for id in 1..4u32 {
        let node = &stats.per_cache[id as usize];
        assert_eq!(node.cache.invalidations_applied, 0, "cache {id}");
        // The loss model runs *after* the pipe: everything the commit path
        // enqueued was offered to the task, and the task dropped all of it.
        assert_eq!(node.pipe.enqueued, 40, "cache {id}");
        assert_eq!(node.delivery.offered, 40, "cache {id}");
        assert_eq!(node.delivery.dropped, node.delivery.offered, "cache {id}");
        assert_eq!(system.reactor_applied(CacheId(id)).unwrap(), 0);
        for o in 0..OBJECTS {
            let v = system.read_on(CacheId(id), ObjectId(o)).unwrap();
            assert_eq!(
                v.version,
                Version::INITIAL,
                "cache {id} must still hold the warmed entry for o{o}"
            );
        }
    }
    // One reactor thread hosted all four tasks.
    let reactor = system.reactor_stats().unwrap();
    assert_eq!(reactor.spawned, 4);
}

/// A stalled (paused) reactor task must never block commits when its pipe
/// sheds load with `DropOldest`: updates keep committing at full speed, the
/// overflow counters advance, and the backlog stays bounded by the pipe
/// capacity.
#[test]
fn stalled_reactor_task_never_blocks_commits_under_drop_oldest() {
    let capacity = 4usize;
    let system = reactor_system(&[0.0, 0.0], capacity, OverflowPolicy::DropOldest);
    // Warm cache 0 so invalidations have entries to hit.
    for o in 0..OBJECTS {
        system.read_on(CacheId(0), ObjectId(o)).unwrap();
    }
    assert!(system.quiesce(Duration::from_secs(5)).unwrap());
    let applied_before = system.reactor_applied(CacheId(0)).unwrap();

    system.pause_cache(CacheId(0)).unwrap();
    assert!(system.is_cache_paused(CacheId(0)));

    // 100 updates × 2 invalidations each flow at cache 0's wedged pipe.
    // Under DropOldest none of them may block the committing thread.
    let started = std::time::Instant::now();
    for round in 0..100u64 {
        let base = round % (OBJECTS - 1);
        system.update(&[ObjectId(base), ObjectId(base + 1)]).unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "commits must not stall behind the paused cache"
    );
    assert_eq!(system.stats().db.updates_committed, 100);

    // The paused cache's pipe overflowed and its backlog is capped.
    let pipe = system.stats().per_cache[0].pipe;
    assert!(
        pipe.evicted > 0,
        "DropOldest must have evicted pending messages: {pipe:?}"
    );
    assert!(pipe.enqueued - pipe.evicted - pipe.received <= capacity as u64);
    // Quiescence skips the paused cache, so the system still settles.
    assert!(system.quiesce(Duration::from_secs(5)).unwrap());
    // Cache 1 (unpaused) applied everything its own pipe did not shed.
    let unpaused = system.stats().per_cache[1];
    assert_eq!(unpaused.pipe.enqueued, 200);
    assert_eq!(unpaused.delivery.delivered + unpaused.pipe.evicted, 200);

    // Resuming drains the bounded backlog: what survived the pause is at
    // most a full pipe plus the one batch the task had already drained out
    // of it when the pause took hold.
    system.resume_cache(CacheId(0)).unwrap();
    assert!(system.quiesce(Duration::from_secs(5)).unwrap());
    let applied_after = system.reactor_applied(CacheId(0)).unwrap();
    assert!(
        applied_after > applied_before,
        "the resumed task must apply its remaining backlog"
    );
    assert!(applied_after - applied_before <= (capacity + DEFAULT_BATCH_BUDGET) as u64);
    let pipe = system.stats().per_cache[0].pipe;
    assert_eq!(pipe.enqueued - pipe.evicted, pipe.received);
}

/// A root relays to its leaf with a send that never waits, so a full leaf
/// pipe loses relayed invalidations under every policy: refused under
/// `Block`, rejected under `DropNewest`, evicting a pending one under
/// `DropOldest`. `relay_overflows` must count each of them — under the drop
/// policies exactly the leaf pipe's own overflow count.
#[test]
fn relay_overflows_count_what_a_full_leaf_pipe_loses_under_every_policy() {
    for policy in [
        OverflowPolicy::Block,
        OverflowPolicy::DropNewest,
        OverflowPolicy::DropOldest,
    ] {
        let system = SystemBuilder::new()
            .caches(2)
            .cache_parents(two_tier_parents(1, 1))
            .pipe_capacity(2)
            .overflow_policy(policy)
            .build();
        system.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
        system.pause_cache(CacheId(1)).unwrap();
        // The root's own two-slot pipe drops too under the drop policies:
        // left to a starved reactor thread it could keep just two of the
        // commits, which fit the leaf's pipe and overflow nothing. Draining
        // the root after each commit makes every one of them a relay.
        for round in 0..200u64 {
            system.update(&[ObjectId(round % OBJECTS)]).unwrap();
            assert!(system.quiesce(Duration::from_secs(5)).unwrap());
        }
        assert_eq!(system.stats().per_cache[0].pipe.overflow_dropped(), 0);
        let leaf = system.stats().per_cache[1].pipe;
        assert!(system.relay_overflows() > 0, "{policy}: {leaf:?}");
        if policy == OverflowPolicy::Block {
            assert_eq!(leaf.overflow_dropped(), 0, "{policy}: refused, not dropped");
        } else {
            assert_eq!(
                system.relay_overflows(),
                leaf.rejected + leaf.evicted,
                "{policy}: {leaf:?}"
            );
        }
    }
}

/// The publish-side attribution path end to end: a cache registers an
/// invalidation upcall backed by a bounded pipe, commits
/// publish through it on the committing thread, and
/// `Database::publish_stats` attributes the pipe's overflow and the time
/// commits spent publishing — per cache.
#[test]
fn commit_path_publish_stats_attribute_slow_pipes_per_cache() {
    use std::future::Future;
    use std::task::{Context, Waker};
    use tcache_db::{Database, DatabaseConfig, SinkReport};
    use tcache_net::{bounded_pipe, PipeReceiver, UNBOUNDED};

    // Everything queued, drained synchronously: one poll of the batch
    // receive with a waker nobody listens to.
    let queued = |rx: &PipeReceiver<tcache_db::Invalidation>| {
        let mut out = Vec::new();
        let _ = std::pin::pin!(rx.recv_batch_async(&mut out, usize::MAX))
            .poll(&mut Context::from_waker(Waker::noop()));
        out.len()
    };

    let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
    db.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));

    // Cache 0: healthy unbounded pipe. Cache 1: a two-slot pipe that sheds
    // the oldest pending message — the "slow cache" whose losses must show
    // up in the publisher's books.
    let mut receivers = Vec::new();
    for (i, capacity) in [(0u32, UNBOUNDED), (1u32, 2)] {
        let (tx, rx) = bounded_pipe(capacity, OverflowPolicy::DropOldest);
        receivers.push(rx);
        db.register_invalidation_upcall(
            CacheId(i),
            Box::new(move |batch| {
                let sent = tx.send_batch(batch.iter().copied());
                SinkReport {
                    enqueued: sent.enqueued,
                    overflowed: sent.overflowed,
                    ..SinkReport::default()
                }
            }),
        );
    }
    // Nobody drains cache 1's pipe while ten 3-object commits publish.
    for round in 0..10u64 {
        let base = round % (OBJECTS - 2);
        db.execute_update(TxnId(round + 1), &vec![base, base + 1, base + 2].into())
            .unwrap();
    }

    let stats = db.publish_stats();
    assert_eq!(stats.len(), 2);
    let healthy = stats[0].1;
    let slow = stats[1].1;
    assert_eq!(healthy.batches, 10);
    assert_eq!(healthy.invalidations, 30);
    assert_eq!(healthy.enqueued, 30);
    assert_eq!(healthy.overflowed, 0);
    // The slow cache enqueued everything but evicted all except the last
    // two — 28 invalidations lost to overflow, attributed to that cache.
    assert_eq!(slow.enqueued, 30);
    assert_eq!(slow.overflowed, 28);
    assert!(slow.publish_nanos > 0, "publish time is accounted");
    assert_eq!(queued(&receivers[1]), 2);
    assert_eq!(queued(&receivers[0]), 30);
}

/// Delivery end to end through the system facade: commits publish
/// through the database's upcalls straight into the reactor pipes, the
/// delivery tasks apply per-cache seeded loss, and `SystemStats` reports
/// each link's counters.
#[test]
fn modeled_delivery_applies_per_cache_loss_in_the_reactor() {
    let system = SystemBuilder::new()
        .dependency_bound(3)
        .strategy(Strategy::Abort)
        .cache_loss_rates(vec![0.0, 1.0])
        .seed(9)
        .build();
    system.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));

    // Warm both caches, then update: cache 0's entry must be invalidated,
    // cache 1's (100% loss in its delivery task) must stay stale.
    system.read_on(CacheId(0), ObjectId(1)).unwrap();
    system.read_on(CacheId(1), ObjectId(1)).unwrap();
    let v = system.update(&[ObjectId(1)]).unwrap();
    assert!(system.quiesce(Duration::from_secs(5)).unwrap());
    assert_eq!(system.read_on(CacheId(0), ObjectId(1)).unwrap().version, v);
    assert_eq!(
        system.read_on(CacheId(1), ObjectId(1)).unwrap().version,
        Version::INITIAL,
        "cache 1's delivery task drops everything, its entry stays stale"
    );

    let stats = system.stats();
    // Both caches' links were offered the send, cache 0 delivered it,
    // cache 1's dropped it.
    let link = |cache: usize| {
        let d = stats.per_cache[cache].delivery;
        (d.offered, d.dropped, d.delivered)
    };
    assert_eq!(link(0), (1, 0, 1));
    assert_eq!(link(1), (1, 1, 0));
    // The database publisher fed the pipes on the commit path.
    let publishes = system.database().publish_stats();
    assert_eq!(publishes.len(), 2);
    assert!(publishes.iter().all(|(_, p)| p.batches == 1 && p.enqueued == 1));
}

/// Modeled delivery with a nonzero constant latency: the update returns
/// before the invalidation lands (asynchrony is real), and quiescing waits
/// the in-flight modeled delay out, which shows up in the delay counters.
#[test]
fn modeled_delivery_sleeps_the_configured_latency() {
    use tcache_net::delivery::DeliveryModel;
    let system = SystemBuilder::new()
        .dependency_bound(3)
        .delivery_models(vec![DeliveryModel::uniform(
            0.0,
            SimDuration::from_millis(30),
        )])
        .seed(9)
        .build();
    system.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    system.read_on(CacheId(0), ObjectId(1)).unwrap();
    let started = std::time::Instant::now();
    system.update(&[ObjectId(1)]).unwrap();
    assert!(system.quiesce(Duration::from_secs(5)).unwrap());
    assert!(
        started.elapsed() >= Duration::from_millis(30),
        "quiesce must wait out the modeled in-flight delay"
    );
    let delivery = system.stats().per_cache[0].delivery;
    assert_eq!(delivery.delivered, 1);
    assert_eq!(delivery.delay_micros, 30_000);
}
