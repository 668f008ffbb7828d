//! Allocation pin for the commit path.
//!
//! A counting global allocator (per-thread counters, so the test harness's
//! other threads cannot interfere) pins what a warmed 5-key
//! `Database::execute_update` on a bare database allocates:
//! the five written objects' dependency lists (one `Arc` each; a bound-3
//! list is stored inline) and the `reads`, `written` and `invalidations`
//! vectors of the `UpdateCommit` — 8 in all. Everything else (the access
//! set's dedupe, the locks, the reads, the head aggregation, the installs,
//! the log append) runs on inline buffers and warmed capacity. The commit
//! before the one-pass rewrite made 22.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tcache_db::{Database, DatabaseConfig};
use tcache_types::{AccessSet, ObjectId, TxnId, Value};

/// Forwards to the system allocator, counting allocations per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

const OBJECTS: u64 = 1_000;
/// Dependency lists (5) + `reads` + `written` + `invalidations`.
const PINNED: u64 = 8;

/// A clustered 5-key access set, as the evaluation's update transactions.
fn access(txn: u64) -> AccessSet {
    let base = (txn * 7) % (OBJECTS - 5);
    (base..base + 5).map(ObjectId).collect()
}

#[test]
fn warmed_five_key_commit_allocates_at_most_eight_times() {
    let db = Database::new(DatabaseConfig::default());
    db.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    // Warm up: the lock table's and the invalidation log's capacity, and
    // every object's first non-initial dependency list.
    let mut txn = 0u64;
    for _ in 0..2_000 {
        txn += 1;
        db.execute_update(TxnId(txn), &access(txn)).unwrap();
    }

    let mut worst = 0;
    for _ in 0..256 {
        txn += 1;
        let access = access(txn);
        let before = allocations_on_this_thread();
        let commit = db.execute_update(TxnId(txn), &access).unwrap();
        let allocated = allocations_on_this_thread() - before;
        assert_eq!(commit.written.len(), 5);
        worst = worst.max(allocated);
        drop(commit);
    }
    assert!(
        worst <= PINNED,
        "a warmed 5-key commit made {worst} heap allocations (pinned at {PINNED})"
    );
    assert_eq!(db.locked_objects(), 0);
}
