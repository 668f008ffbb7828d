//! Commit-time hand-off through the facade: a commit applies its own
//! invalidations whenever the cache's link has nothing to wait for, and
//! only then.
//!
//! `pipe.direct` is the one place a handed-off invalidation differs from a
//! delivered one, so it is what these tests watch. A link starts out on the
//! queue path (its delivery task has not polled yet), hence every test
//! first commits until `direct` moves; nothing after that depends on
//! timing except where a test says so.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcache::{two_tier_parents, SystemBuilder, TCacheSystem};
use tcache_types::{CacheId, ObjectId, SimDuration, Value};

const OBJECTS: u64 = 64;
const SETTLE: Duration = Duration::from_secs(60);

fn populated(builder: SystemBuilder) -> TCacheSystem {
    let system = builder.seed(11).build();
    system.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    system
}

/// Every cache's `pipe.direct`, in cache order.
fn direct(system: &TCacheSystem) -> Vec<u64> {
    system
        .stats()
        .per_cache
        .iter()
        .map(|node| node.pipe.direct)
        .collect()
}

/// Commits single-key updates until one of them is handed off to every one
/// of `caches` at once: from then on each of those links' tasks is waiting
/// with nothing queued, and stays so while this thread is the only
/// committer.
fn commit_until_handed_off(system: &TCacheSystem, caches: &[usize]) {
    let deadline = Instant::now() + SETTLE;
    loop {
        let before = direct(system);
        system.update(&[ObjectId(0)]).unwrap();
        let after = direct(system);
        if caches.iter().all(|&c| after[c] == before[c] + 1) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "links {caches:?} never took a hand-off: {after:?}"
        );
        std::thread::yield_now();
    }
}

/// The rule is sticky — it holds for the millionth commit in a row exactly
/// as for the first after a lull — and that is what makes a loss-free cache
/// read-your-writes fresh for a single client: 50 000 update → read rounds
/// on a default system, beside a thread keeping the other core busy, every
/// one handed off, none waking the reactor, every read seeing the version
/// the update just installed. (Queued through the reactor, the same loop
/// reads a stale version almost at once: the invalidation lands a thread
/// hand-over after `update` returns, the read a few hundred nanoseconds
/// after.)
#[test]
fn every_commit_in_a_row_is_handed_off_and_read_back_fresh() {
    let system = populated(SystemBuilder::new());
    let stop = Arc::new(AtomicBool::new(false));
    let sibling = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        })
    };
    commit_until_handed_off(&system, &[0]);
    let wakes = system.reactor_stats().unwrap().wakes;
    let mut handed_off = direct(&system)[0];
    for round in 0..50_000u64 {
        let keys = [ObjectId(round % OBJECTS), ObjectId((round + 1) % OBJECTS)];
        let version = system.update(&keys).unwrap();
        handed_off += keys.len() as u64;
        assert_eq!(
            direct(&system)[0],
            handed_off,
            "round {round} took the queue"
        );
        let outcome = system.read_transaction_on(CacheId(0), &keys).unwrap();
        let values = outcome
            .values()
            .expect("a fresh cache has nothing to abort on");
        assert!(
            values.iter().all(|value| value.version == version),
            "round {round}: read {values:?} after installing {version:?}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    sibling.join().unwrap();
    assert_eq!(
        system.reactor_stats().unwrap().wakes,
        wakes,
        "no commit woke the reactor"
    );
    assert_eq!(
        system
            .cache(CacheId(0))
            .unwrap()
            .lifecycle_stats()
            .gaps_detected,
        0
    );
    let node = system.stats().per_cache[0];
    assert_eq!(node.pipe.enqueued, node.delivery.delivered);
    assert_eq!(node.delivery.offered, node.pipe.received);
}

/// A paused cache, a cache behind a delay spike and a severed cache are
/// never handed to, while their healthy sibling is; and once each has what
/// it was waiting for, its link returns to hand-off.
#[test]
fn a_link_with_something_to_wait_for_is_never_handed_off_to() {
    const PAUSED: usize = 0;
    const SPIKED: usize = 1;
    const SEVERED: usize = 2;
    const HEALTHY: usize = 3;
    let system = populated(SystemBuilder::new().caches(4));
    commit_until_handed_off(&system, &[PAUSED, SPIKED, SEVERED, HEALTHY]);
    assert!(system.quiesce(SETTLE).unwrap());

    let spike = SimDuration::from_millis(2);
    system.pause_cache(CacheId(PAUSED as u32)).unwrap();
    system
        .set_cache_extra_delay(CacheId(SPIKED as u32), spike)
        .unwrap();
    system
        .partition_cache(CacheId(SEVERED as u32), system.now())
        .unwrap();
    let before = system.stats();
    let started = Instant::now();
    const UPDATES: u64 = 5;
    for round in 0..UPDATES {
        system
            .update(&[ObjectId(round), ObjectId(round + 1)])
            .unwrap();
    }
    let sent = 2 * UPDATES;
    // Quiesce skips the paused cache and waits the spiked one's sleeps out.
    assert!(system.quiesce(SETTLE).unwrap());
    assert!(started.elapsed() >= Duration::from_micros(sent * spike.as_micros()));
    let after = system.stats();
    let moved = |pick: fn(&tcache::CacheNodeStats) -> u64, cache: usize| {
        pick(&after.per_cache[cache]) - pick(&before.per_cache[cache])
    };
    for cache in [PAUSED, SPIKED, SEVERED] {
        assert_eq!(
            moved(|n| n.pipe.direct, cache),
            0,
            "cache {cache} was handed off to"
        );
    }
    assert_eq!(moved(|n| n.pipe.direct, HEALTHY), sent);
    assert_eq!(moved(|n| n.delivery.delivered, HEALTHY), sent);
    assert_eq!(
        moved(|n| n.pipe.enqueued, PAUSED),
        sent,
        "a paused link queues"
    );
    assert_eq!(moved(|n| n.delivery.delivered, PAUSED), 0);
    assert_eq!(moved(|n| n.delivery.delivered, SPIKED), sent);
    assert_eq!(
        moved(|n| n.delivery.delay_micros, SPIKED),
        sent * spike.as_micros()
    );
    assert_eq!(
        moved(|n| n.pipe.enqueued, SEVERED),
        0,
        "a severed link is offered nothing"
    );

    system.resume_cache(CacheId(PAUSED as u32)).unwrap();
    system
        .set_cache_extra_delay(CacheId(SPIKED as u32), SimDuration::ZERO)
        .unwrap();
    system.heal_cache(CacheId(SEVERED as u32)).unwrap();
    assert!(system.quiesce(SETTLE).unwrap());
    assert_eq!(
        system.stats().per_cache[PAUSED].delivery.delivered,
        after.per_cache[PAUSED].delivery.delivered + sent
    );
    commit_until_handed_off(&system, &[PAUSED, SPIKED, SEVERED, HEALTHY]);
}

/// Two-tier: a root served on the committing thread relays to each of its
/// leaves exactly once, and the relay is itself an offer — nested, parent
/// pipe then child pipe — so the leaves are served on that thread too.
#[test]
fn a_handed_off_root_relays_to_each_leaf_exactly_once() {
    let system = populated(
        SystemBuilder::new()
            .caches(3)
            .cache_parents(two_tier_parents(1, 2)),
    );
    assert_eq!(system.publisher_fanout(), 1);
    commit_until_handed_off(&system, &[0, 1, 2]);
    let wakes = system.reactor_stats().unwrap().wakes;
    let before = system.stats();
    let mut sent = 0u64;
    for round in 0..1_000u64 {
        let keys: Vec<ObjectId> = (0..1 + round % 3)
            .map(|k| ObjectId((round + k) % OBJECTS))
            .collect();
        system.update(&keys).unwrap();
        sent += keys.len() as u64;
    }
    // Nothing to wait for: every cache already has every invalidation.
    let after = system.stats();
    for (cache, (was, now)) in before.per_cache.iter().zip(&after.per_cache).enumerate() {
        assert_eq!(now.pipe.direct - was.pipe.direct, sent, "cache {cache}");
        assert_eq!(
            now.delivery.delivered - was.delivery.delivered,
            sent,
            "cache {cache}"
        );
        assert_eq!(now.pipe.enqueued, now.delivery.delivered, "cache {cache}");
        assert_eq!(now.channel.sent, now.channel.delivered, "cache {cache}");
    }
    assert_eq!(system.reactor_stats().unwrap().wakes, wakes);
    assert_eq!(system.relay_overflows(), 0);
    let latest = system.database().invalidation_latest_seq();
    for id in system.cache_ids() {
        assert_eq!(system.cache(id).unwrap().last_applied_seq(), latest, "{id}");
    }
}
