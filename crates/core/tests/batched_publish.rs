//! The live commit → invalidate path after batching: a commit's whole
//! invalidation batch enters each cache's pipe in one `send_batch`, and the
//! publisher's books (`Database::publish_stats`, what `tbench` reports as
//! `db.publish_stalled` / `db.publish_overflowed`) must still mean what
//! they meant when every invalidation was sent on its own.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tcache::{DeliveryMode, SystemBuilder, TCacheSystem, TransportMode};
use tcache_net::pipe::OverflowPolicy;
use tcache_types::{CacheId, ObjectId, Strategy, Value, Version};

const OBJECTS: u64 = 50;

fn live_system(caches: usize, capacity: usize, policy: OverflowPolicy) -> TCacheSystem {
    let system = SystemBuilder::new()
        .dependency_bound(3)
        .strategy(Strategy::Abort)
        .cache_loss_rates(vec![0.0; caches])
        .invalidation_delay_millis(0)
        .transport(TransportMode::Reactor)
        .delivery(DeliveryMode::Modeled)
        .pipe_capacity(capacity)
        .overflow_policy(policy)
        .seed(9)
        .build();
    system.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    system
}

/// A severed (partitioned) cache gets nothing — not one message of a
/// multi-invalidation batch enters its pipe — while its healthy sibling
/// gets the whole batch, and the publisher attributes the discard.
#[test]
fn severed_cache_still_receives_nothing() {
    let system = live_system(2, tcache_net::pipe::UNBOUNDED, OverflowPolicy::Block);
    system.read_on(CacheId(0), ObjectId(1)).unwrap();
    system.read_on(CacheId(1), ObjectId(1)).unwrap();
    system.partition_cache(CacheId(1), system.now()).unwrap();

    let v = system
        .update(&[ObjectId(1), ObjectId(2), ObjectId(3)])
        .unwrap();
    assert!(system.quiesce(Duration::from_secs(5)).unwrap());

    let stats = system.stats();
    assert_eq!(stats.per_cache[0].pipe.enqueued, 3, "the whole batch, once");
    assert_eq!(stats.per_cache[0].delivery.delivered, 3);
    assert_eq!(stats.per_cache[1].pipe.enqueued, 0, "nothing entered the severed pipe");
    assert_eq!(system.read_on(CacheId(0), ObjectId(1)).unwrap().version, v);
    assert_eq!(
        system.read_on(CacheId(1), ObjectId(1)).unwrap().version,
        Version::INITIAL,
        "the partitioned cache keeps serving its stale entry"
    );

    let publishes = system.database().publish_stats();
    assert_eq!((publishes[0].1.batches, publishes[0].1.enqueued), (1, 3));
    assert_eq!((publishes[1].1.batches, publishes[1].1.enqueued), (1, 0));
    assert_eq!(publishes[1].1.severed, 3);
    assert_eq!(publishes[0].1.stalled_publishes + publishes[1].1.stalled_publishes, 0);
}

/// A `Block` pipe smaller than the traffic still pushes back on the commit
/// path, and the stall is still reported per publish: with cache 0's apply
/// task paused its two-slot pipe fills, the committing thread blocks inside
/// the batched send, and only resuming the cache lets it through. Nothing
/// is lost on the way.
#[test]
fn block_stall_is_still_reported_to_the_publisher() {
    const UPDATES: u64 = 20;
    let system = Arc::new(live_system(1, 2, OverflowPolicy::Block));
    system.pause_cache(CacheId(0)).unwrap();

    let committer = {
        let system = Arc::clone(&system);
        std::thread::spawn(move || {
            for round in 0..UPDATES {
                let base = round % (OBJECTS - 2);
                system
                    .update(&[ObjectId(base), ObjectId(base + 1), ObjectId(base + 2)])
                    .unwrap();
            }
        })
    };
    // The pipe counts the stall as the committing thread parks on it; only
    // then is the cache resumed, so the stall is certain, not a race.
    let deadline = Instant::now() + Duration::from_secs(60);
    while system.stats().per_cache[0].pipe.stalled_sends == 0 {
        assert!(Instant::now() < deadline, "the paused cache's pipe never filled");
        std::thread::yield_now();
    }
    system.resume_cache(CacheId(0)).unwrap();
    committer.join().unwrap();
    assert!(system.quiesce(Duration::from_secs(30)).unwrap());

    let (_, publish) = system.database().publish_stats()[0];
    assert_eq!(publish.batches, UPDATES);
    assert_eq!(publish.invalidations, 3 * UPDATES);
    assert_eq!(publish.enqueued, 3 * UPDATES, "Block loses nothing");
    assert_eq!(publish.overflowed, 0);
    assert!(
        publish.stalled_publishes >= 1 && publish.stalled_publishes <= UPDATES,
        "stalls are counted per publish, not per invalidation: {publish:?}"
    );
    let node = &system.stats().per_cache[0];
    assert_eq!(node.pipe.enqueued, 3 * UPDATES);
    assert_eq!(node.delivery.delivered, 3 * UPDATES);
    assert!(node.pipe.stall_micros > 0 || node.pipe.stalled_sends > 0);
}
