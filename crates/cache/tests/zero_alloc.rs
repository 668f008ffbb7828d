//! Allocation regression test for the cached read fast path.
//!
//! A counting global allocator (per-thread counters, so the test harness's
//! other threads cannot interfere) pins the tentpole guarantee: once the
//! cache and the thread-local scratch are warm, a 3-read cache-hit
//! read-only transaction through [`EdgeCache::execute_read_only`] performs
//! **zero** heap allocations end to end — and so does a 5-read
//! transaction driven key by key through [`EdgeCache::read`], whose record
//! lives in the transaction table. CI runs this suite in release mode; the
//! guarantee is structural (inline small-buffers, borrowed entries, reused
//! scratch and table capacity), so it holds in debug builds too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tcache_cache::EdgeCache;
use tcache_db::{Database, DatabaseConfig};
use tcache_types::{CacheId, ObjectId, SimTime, Strategy, TxnId, Value};

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

#[test]
fn cached_three_read_txn_is_allocation_free() {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(4)));
    db.populate((0..16).map(|i| (ObjectId(i), Value::new(0))));
    let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), 4, Strategy::Abort);
    let now = SimTime::ZERO;
    let keys = [ObjectId(1), ObjectId(2), ObjectId(3)];

    // Warm up: the first transactions miss (database fetch + insert) and
    // initialize the thread-local fast-path scratch.
    for t in 0..4u64 {
        let log = cache
            .execute_read_only(now, TxnId(100 + t), &keys)
            .expect("warmup transaction");
        assert!(log.committed);
    }

    let before = allocations_on_this_thread();
    for t in 0..64u64 {
        let log = cache
            .execute_read_only(now, TxnId(1000 + t), &keys)
            .expect("cached read-only transaction");
        assert!(log.committed);
        assert_eq!(log.observed.len(), 3);
    }
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(
        allocated, 0,
        "cached 3-read fast path performed {allocated} heap allocations over 64 transactions"
    );
}

#[test]
fn cached_five_read_key_by_key_txn_is_allocation_free() {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(4)));
    db.populate((0..16).map(|i| (ObjectId(i), Value::new(0))));
    let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), 4, Strategy::Abort);
    let now = SimTime::ZERO;
    let keys = [1, 2, 3, 4, 5].map(ObjectId);
    let run = |txn: TxnId| {
        for (i, &key) in keys.iter().enumerate() {
            let last_op = i + 1 == keys.len();
            let read = cache.read(now, txn, key, last_op).expect("cached read");
            assert_eq!(read.id, key);
        }
    };

    // Warm up: the first transactions miss, and the first transaction seen
    // on each of the table's stripes sizes that stripe's map. Enough ids
    // that every stripe has seen one.
    for t in 0..256u64 {
        run(TxnId(100 + t));
    }

    let before = allocations_on_this_thread();
    for t in 0..64u64 {
        run(TxnId(10_000 + t));
    }
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(
        allocated, 0,
        "cached 5-read key-by-key transactions performed {allocated} heap allocations over 64 transactions"
    );
    assert_eq!(cache.open_transactions(), 0);
}

#[test]
fn promoted_multi_call_txns_still_work_under_the_counting_allocator() {
    // Sanity: the table driver coexists with the fast path and both
    // classify reads identically; this multi-call transaction forces a
    // table record.
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(4)));
    db.populate((0..8).map(|i| (ObjectId(i), Value::new(0))));
    let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), 4, Strategy::Abort);
    let now = SimTime::ZERO;

    let txn = TxnId(7);
    let v1 = cache.read(now, txn, ObjectId(1), false).expect("read 1");
    let v2 = cache.read(now, txn, ObjectId(2), true).expect("read 2");
    assert_eq!(v1.id, ObjectId(1));
    assert_eq!(v2.id, ObjectId(2));

    // After the promoted transaction finished, single-shot transactions
    // are fast-path eligible again.
    let log = cache
        .execute_read_only(now, TxnId(8), &[ObjectId(1), ObjectId(2)])
        .expect("single-shot transaction");
    assert!(log.committed);
    let stats = cache.stats();
    assert!(stats.fastpath_txns >= 1, "fast path served the single-shot txn");
    assert!(stats.promoted_txns >= 1, "multi-call txn was promoted");
}
