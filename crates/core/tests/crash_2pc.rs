//! Crash faults racing the database's commit: a cache crashing (and
//! restarting) while updates lock, install and release must never leak a
//! lock or leave a transaction unresolved. The cache fault plane lives
//! entirely on the invalidation side — severed links discard publishes —
//! so the commit path has nothing to wait on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tcache::{SystemBuilder, TCacheSystem, TransportMode};
use tcache_net::pipe::OverflowPolicy;
use tcache_types::{CacheId, ObjectId, SimTime, Strategy, Value};

const OBJECTS: u64 = 40;

fn faulty_system(caches: usize) -> Arc<TCacheSystem> {
    let system = SystemBuilder::new()
        .dependency_bound(3)
        .strategy(Strategy::Abort)
        .caches(caches)
        .transport(TransportMode::Reactor)
        .pipe_capacity(2)
        .overflow_policy(OverflowPolicy::Block)
        .seed(11)
        .build();
    system.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    Arc::new(system)
}

/// One updater thread racing one crash/restart churn thread. The pipe is a
/// two-slot `Block` pipe — the hard-backpressure configuration — so if a
/// crashed cache's deliveries could still block the commit path, this test
/// would wedge. Every transaction must resolve and every lock must be
/// released.
#[test]
fn crash_between_prepare_and_commit_resolves_and_leaks_no_locks() {
    let system = faulty_system(1);
    // Warm the cache so invalidations have entries to chase.
    for o in 0..OBJECTS {
        system.read(ObjectId(o)).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let flips = Arc::new(AtomicU64::new(0));
    let churn = {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&stop);
        let flips = Arc::clone(&flips);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                system.crash_cache(CacheId(0), SimTime::ZERO).unwrap();
                std::thread::yield_now();
                system.restart_cache(CacheId(0)).unwrap();
                flips.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    // The 400 commits take about a millisecond: without this wait they can
    // all land before the churn thread is first scheduled (one run in five
    // or so when the test binary runs alone), racing nothing.
    while flips.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }

    let mut committed = 0u64;
    for round in 0..400u64 {
        // Multi-object updates hold several locks between their reads and
        // their installs — the window the crash churn races.
        let base = round % (OBJECTS - 2);
        system
            .update(&[ObjectId(base), ObjectId(base + 1), ObjectId(base + 2)])
            .unwrap();
        committed += 1;
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    let flips = flips.load(Ordering::Relaxed);

    assert_eq!(committed, 400, "every update transaction resolved");
    assert_eq!(system.stats().db.updates_committed, 400);
    assert_eq!(
        system.database().locked_objects(),
        0,
        "no lock survives the crash churn"
    );
    assert!(flips > 0, "the churn thread actually crashed the cache");
    // Leave the system healthy for teardown.
    if system.cache(CacheId(0)).unwrap().is_crashed() {
        system.restart_cache(CacheId(0)).unwrap();
    }
}

/// The 8-thread stress variant: four updater threads, two crash-churn
/// threads (over two different caches), and two reader threads hammering
/// the remaining healthy caches — all with two-slot `Block` pipes.
#[test]
fn eight_thread_crash_stress_keeps_the_database_consistent() {
    let system = faulty_system(4);
    for id in 0..4u32 {
        for o in 0..OBJECTS {
            system.read_on(CacheId(id), ObjectId(o)).unwrap();
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let total_commits = Arc::new(AtomicU64::new(0));

    let churners: Vec<_> = [CacheId(0), CacheId(1)]
        .into_iter()
        .map(|id| {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&stop);
            // Test-only churn pacing on wall time.
            #[allow(clippy::disallowed_methods)]
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    system.crash_cache(id, SimTime::ZERO).unwrap();
                    std::thread::sleep(Duration::from_micros(100));
                    system.restart_cache(id).unwrap();
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
        })
        .collect();

    let readers: Vec<_> = [CacheId(2), CacheId(3)]
        .into_iter()
        .map(|id| {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    system.read_on(id, ObjectId(n % OBJECTS)).unwrap();
                    n += 1;
                }
            })
        })
        .collect();

    let updaters: Vec<_> = (0..4u64)
        .map(|lane| {
            let system = Arc::clone(&system);
            let total = Arc::clone(&total_commits);
            std::thread::spawn(move || {
                for round in 0..150u64 {
                    let base = (lane * 7 + round) % (OBJECTS - 1);
                    // Concurrent updaters can collide on locks; a
                    // `LockConflict` abort is the no-wait policy working,
                    // not a fault — retry until this lane's update lands.
                    loop {
                        match system.update(&[ObjectId(base), ObjectId(base + 1)]) {
                            Ok(_) => break,
                            Err(tcache_types::TCacheError::UpdateAborted { .. }) => {
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected update error: {e}"),
                        }
                    }
                    total.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    for updater in updaters {
        updater.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for thread in churners.into_iter().chain(readers) {
        thread.join().unwrap();
    }

    assert_eq!(total_commits.load(Ordering::Relaxed), 600);
    assert_eq!(system.stats().db.updates_committed, 600);
    assert_eq!(system.database().locked_objects(), 0, "no leaked locks");
    // Consistent means no committed write was lost: each of the 600
    // updates bumped two objects, and the updaters' objects overlap, so a
    // bump computed from a read another updater had already overwritten
    // would show here as a missing unit.
    let db = system.database();
    let bumps: u64 = (0..OBJECTS)
        .map(|o| db.peek_entry(ObjectId(o)).unwrap().value.numeric())
        .sum();
    assert_eq!(bumps, 2 * 600, "every committed bump survived");
    // Restart anything still down so teardown sees a healthy system.
    for id in [CacheId(0), CacheId(1)] {
        if system.cache(id).unwrap().is_crashed() {
            system.restart_cache(id).unwrap();
        }
    }
    assert!(system.quiesce(Duration::from_secs(10)).unwrap());
}
