//! Concurrent updaters of the same objects must not lose writes.
//!
//! The commit locks every object it writes *before* reading it (strict
//! two-phase locking, `commit.rs`), so of two updaters racing on one object
//! the second cannot read until the first has installed: every committed
//! update's bump lands on top of the previous one, and versions installed
//! on an object only ever grow. Before the one-pass commit the reads ran
//! ahead of the locks and four threads lost tens of thousands of writes.
//!
//! Aborts are the no-wait policy working and are retried; every scenario
//! runs under a watchdog so a leaked lock (an updater spinning on aborts
//! forever) fails the test instead of hanging it.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use tcache_db::{Database, DatabaseConfig};
use tcache_types::{AccessSet, ObjectId, TCacheError, TxnId, Value, Version};

const THREADS: u64 = 4;
const COMMITS_PER_THREAD: u64 = 20_000;
const WATCHDOG: Duration = Duration::from_secs(300);
/// The two contended objects.
const HOT: [ObjectId; 2] = [ObjectId(4), ObjectId(5)];

fn within_watchdog<R: Send + 'static>(
    what: &str,
    scenario: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(scenario());
    });
    finished
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{what}: hung or panicked"))
}

/// Each thread commits `COMMITS_PER_THREAD` updates of both hot objects
/// (half of the threads name them in the other order), retrying aborts,
/// and after each commit reads both objects back: neither may carry a
/// version below the one this thread just installed. Returns the aborts
/// seen.
fn hammer() -> u64 {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
    db.populate((0..8).map(|i| (ObjectId(i), Value::new(0))));
    let updaters: Vec<_> = (0..THREADS)
        .map(|lane| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let access: AccessSet = if lane % 2 == 0 {
                    HOT.iter().copied().collect()
                } else {
                    HOT.iter().rev().copied().collect()
                };
                let mut aborts = 0u64;
                let mut txn = lane << 40;
                for _ in 0..COMMITS_PER_THREAD {
                    let commit = loop {
                        txn += 1;
                        match db.execute_update(TxnId(txn), &access) {
                            Ok(commit) => break commit,
                            Err(TCacheError::UpdateAborted { .. }) => {
                                aborts += 1;
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected update error: {e}"),
                        }
                    };
                    assert_eq!(commit.written.len(), 2);
                    for object in HOT {
                        let seen = db.peek_entry(object).unwrap().version;
                        assert!(
                            seen >= commit.version,
                            "{object} read back at {seen} after this updater installed {}",
                            commit.version
                        );
                    }
                    assert!(commit.reads.iter().all(|&(_, v)| v < commit.version));
                }
                aborts
            })
        })
        .collect();
    let aborts = updaters.into_iter().map(|u| u.join().unwrap()).sum();

    let committed = THREADS * COMMITS_PER_THREAD;
    for object in HOT {
        let entry = db.peek_entry(object).unwrap();
        assert_eq!(
            entry.value.numeric(),
            committed,
            "{object}: {} of {committed} committed bumps survived",
            entry.value.numeric()
        );
        assert!(entry.version > Version::INITIAL);
    }
    let stats = db.stats();
    assert_eq!(stats.updates_committed, committed);
    assert_eq!(stats.updates_aborted, aborts);
    assert_eq!(
        stats.update_reads,
        2 * committed,
        "aborted attempts read nothing"
    );
    assert_eq!(db.locked_objects(), 0, "no lock survives the storm");
    aborts
}

#[test]
fn four_updaters_of_two_objects_lose_no_write_on_one_shard() {
    within_watchdog("one store", hammer);
}
