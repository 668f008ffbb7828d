//! Cache-side statistics: hit ratio, aborts, database load generated.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone counters describing one cache server's behaviour.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    retries: AtomicU64,
    invalidations_applied: AtomicU64,
    invalidations_ignored: AtomicU64,
    evictions: AtomicU64,
    admissions_vetoed: AtomicU64,
    txns_committed: AtomicU64,
    txns_aborted: AtomicU64,
    fastpath_txns: AtomicU64,
    promoted_txns: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Client read operations served (hits + misses, excluding retries).
    pub reads: u64,
    /// Reads served from the cache without contacting the database.
    pub hits: u64,
    /// Reads that had to fetch the object from the database.
    pub misses: u64,
    /// Additional database fetches triggered by the RETRY strategy.
    pub retries: u64,
    /// Invalidations that evicted a cached entry.
    pub invalidations_applied: u64,
    /// Invalidations ignored (object absent or already newer).
    pub invalidations_ignored: u64,
    /// Entries evicted by the EVICT / RETRY strategies.
    pub evictions: u64,
    /// Fetched entries storage refused because an invalidation or a clear
    /// reached their stripe during the fetch (the entry may have been
    /// stale; the object's next read misses again).
    pub admissions_vetoed: u64,
    /// Read-only transactions that completed all their reads.
    pub txns_committed: u64,
    /// Read-only transactions aborted after an inconsistency was detected.
    pub txns_aborted: u64,
    /// Whole-transaction calls (`execute_transaction`,
    /// `execute_read_only`) that ran on the calling thread's local record
    /// (no transaction-table traffic).
    pub fastpath_txns: u64,
    /// Transactions begun in the transaction table: the first `read()` of
    /// a key-by-key transaction, or a whole-transaction call that arrived
    /// while some key-by-key transaction was open on this cache.
    pub promoted_txns: u64,
}

impl CacheStatsSnapshot {
    /// Fraction of reads served without contacting the database
    /// (1.0 when no reads have been issued).
    pub fn hit_ratio(&self) -> f64 {
        if self.reads == 0 {
            1.0
        } else {
            self.hits as f64 / self.reads as f64
        }
    }

    /// Total load this cache placed on the database (misses plus
    /// read-through retries).
    pub fn db_reads(&self) -> u64 {
        self.misses + self.retries
    }

    /// Fraction of completed transactions that were aborted.
    pub fn abort_ratio(&self) -> f64 {
        let total = self.txns_committed + self.txns_aborted;
        if total == 0 {
            0.0
        } else {
            self.txns_aborted as f64 / total as f64
        }
    }

    /// Accumulates another cache's counters into this one (used to build
    /// the aggregate view over a multi-cache deployment).
    pub fn merge(&mut self, other: CacheStatsSnapshot) {
        self.reads += other.reads;
        self.hits += other.hits;
        self.misses += other.misses;
        self.retries += other.retries;
        self.invalidations_applied += other.invalidations_applied;
        self.invalidations_ignored += other.invalidations_ignored;
        self.evictions += other.evictions;
        self.admissions_vetoed += other.admissions_vetoed;
        self.txns_committed += other.txns_committed;
        self.txns_aborted += other.txns_aborted;
        self.fastpath_txns += other.fastpath_txns;
        self.promoted_txns += other.promoted_txns;
    }

    /// Fraction of transactions that ran on a transaction-table record
    /// instead of a thread-local one (0.0 when no transaction started).
    pub fn promotion_rate(&self) -> f64 {
        let total = self.fastpath_txns + self.promoted_txns;
        if total == 0 {
            0.0
        } else {
            self.promoted_txns as f64 / total as f64
        }
    }
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Records `n` reads served from the cache (a client call adds its
    /// hits once, not one shared write per key).
    pub fn record_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a read that required a database fetch.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a read-through performed by the RETRY strategy.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `applied` invalidations that evicted an entry and `ignored`
    /// ones that had no effect (a delivered batch adds its counts once).
    pub fn record_invalidations(&self, applied: u64, ignored: u64) {
        if applied != 0 {
            self.invalidations_applied
                .fetch_add(applied, Ordering::Relaxed);
        }
        if ignored != 0 {
            self.invalidations_ignored
                .fetch_add(ignored, Ordering::Relaxed);
        }
    }

    /// Records a strategy-driven eviction.
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fetched entry refused by its stripe's admission epoch.
    pub fn record_vetoed_admission(&self) {
        self.admissions_vetoed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a committed read-only transaction.
    pub fn record_commit(&self) {
        self.txns_committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an aborted read-only transaction.
    pub fn record_abort(&self) {
        self.txns_aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a whole-transaction call run on the local record.
    pub fn record_fastpath_txn(&self) {
        self.fastpath_txns.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a transaction begun in the transaction table.
    pub fn record_promoted_txn(&self) {
        self.promoted_txns.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters. `reads` is derived from the two
    /// counters it is the sum of, so `hits + misses == reads` holds in
    /// every snapshot, however the loads interleave with running reads.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        CacheStatsSnapshot {
            reads: hits + misses,
            hits,
            misses,
            retries: self.retries.load(Ordering::Relaxed),
            invalidations_applied: self.invalidations_applied.load(Ordering::Relaxed),
            invalidations_ignored: self.invalidations_ignored.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admissions_vetoed: self.admissions_vetoed.load(Ordering::Relaxed),
            txns_committed: self.txns_committed.load(Ordering::Relaxed),
            txns_aborted: self.txns_aborted.load(Ordering::Relaxed),
            fastpath_txns: self.fastpath_txns.load(Ordering::Relaxed),
            promoted_txns: self.promoted_txns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_ratios() {
        let s = CacheStats::new();
        s.record_hits(3);
        s.record_miss();
        s.record_retry();
        s.record_invalidations(1, 0);
        s.record_invalidations(0, 1);
        s.record_eviction();
        s.record_vetoed_admission();
        s.record_commit();
        s.record_commit();
        s.record_abort();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 4);
        assert_eq!(snap.hits, 3);
        assert_eq!(snap.misses, 1);
        assert!((snap.hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(snap.db_reads(), 2);
        assert!((snap.abort_ratio() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(snap.invalidations_applied, 1);
        assert_eq!(snap.invalidations_ignored, 1);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.admissions_vetoed, 1);
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = CacheStatsSnapshot {
            reads: 10,
            hits: 8,
            misses: 2,
            retries: 1,
            invalidations_applied: 3,
            invalidations_ignored: 1,
            evictions: 2,
            admissions_vetoed: 5,
            txns_committed: 4,
            txns_aborted: 1,
            fastpath_txns: 3,
            promoted_txns: 1,
        };
        let mut total = a;
        total.merge(a);
        assert_eq!(total.reads, 20);
        assert_eq!(total.hits, 16);
        assert_eq!(total.db_reads(), 6);
        assert_eq!(total.admissions_vetoed, 10);
        assert_eq!(total.txns_committed, 8);
        assert_eq!(total.txns_aborted, 2);
        assert_eq!(total.fastpath_txns, 6);
        assert_eq!(total.promoted_txns, 2);
        assert!((total.promotion_rate() - 0.25).abs() < 1e-9);
        assert!((total.hit_ratio() - a.hit_ratio()).abs() < 1e-9);
    }

    #[test]
    fn reads_equal_hits_plus_misses_in_every_concurrent_snapshot() {
        use std::sync::atomic::AtomicBool;
        let stats = CacheStats::new();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..200_000u64 {
                    if i % 3 == 0 {
                        stats.record_miss();
                    } else {
                        stats.record_hits(1 + i % 5);
                    }
                }
                done.store(true, Ordering::Release);
            });
            let mut last = 0;
            while !done.load(Ordering::Acquire) {
                let snap = stats.snapshot();
                assert_eq!(snap.hits + snap.misses, snap.reads);
                assert!(snap.reads >= last, "reads went backwards");
                last = snap.reads;
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.hits + snap.misses, snap.reads);
        assert!(snap.misses > 0 && snap.hits > snap.misses);
    }

    #[test]
    fn empty_stats_have_defined_ratios() {
        let snap = CacheStats::new().snapshot();
        assert_eq!(snap.hit_ratio(), 1.0);
        assert_eq!(snap.abort_ratio(), 0.0);
        assert_eq!(snap.db_reads(), 0);
        assert_eq!(snap, CacheStatsSnapshot::default());
    }
}
