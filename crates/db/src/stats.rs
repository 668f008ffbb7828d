//! Database-side statistics.
//!
//! The evaluation cares about the *load on the backend database* — the
//! number of reads it serves (cache misses plus update-transaction reads)
//! and the rate of committed update transactions. The counters here are
//! atomics so any component holding a reference to the database can sample
//! them cheaply.

use std::sync::atomic::{AtomicU64, Ordering};

/// Read-path counters that nothing counts any more: every store read runs
/// under its bucket's lock (see [`crate::store`]), so there is no path to
/// classify and every field is always zero.
///
/// **Benchmark-pinned** — `benchmark/src/run.rs` (which PRs may not edit)
/// reads these three fields of [`DbStatsSnapshot::read_path`] for its
/// `db.optimistic_hit_ratio` and `db.lock_fallbacks` metrics; the struct
/// goes with the next flagged benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadPathStatsSnapshot {
    /// Always zero.
    pub optimistic_hits: u64,
    /// Always zero.
    pub lock_fallbacks: u64,
    /// Always zero.
    pub locked_reads: u64,
}

/// Monotone counters describing the load placed on the database.
#[derive(Debug, Default)]
pub struct DbStats {
    single_reads: AtomicU64,
    update_reads: AtomicU64,
    updates_committed: AtomicU64,
    updates_aborted: AtomicU64,
    objects_written: AtomicU64,
    invalidations_published: AtomicU64,
}

/// A point-in-time copy of [`DbStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DbStatsSnapshot {
    /// Single-object reads served (cache misses and read-throughs).
    pub single_reads: u64,
    /// Reads performed on behalf of update transactions.
    pub update_reads: u64,
    /// Update transactions committed.
    pub updates_committed: u64,
    /// Update transactions aborted by concurrency control.
    pub updates_aborted: u64,
    /// Objects written by committed update transactions.
    pub objects_written: u64,
    /// Invalidation records published.
    pub invalidations_published: u64,
    /// Always zero; benchmark-pinned (see [`ReadPathStatsSnapshot`]).
    pub read_path: ReadPathStatsSnapshot,
}

impl DbStatsSnapshot {
    /// Total read operations served by the database.
    pub fn total_reads(&self) -> u64 {
        self.single_reads + self.update_reads
    }
}

impl DbStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        DbStats::default()
    }

    /// Records a single-object read served for a cache.
    pub fn record_single_read(&self) {
        self.single_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` reads performed by an update transaction.
    pub fn record_update_reads(&self, n: u64) {
        self.update_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a committed update transaction that wrote `objects` objects.
    pub fn record_update_commit(&self, objects: u64) {
        self.updates_committed.fetch_add(1, Ordering::Relaxed);
        self.objects_written.fetch_add(objects, Ordering::Relaxed);
    }

    /// Records an aborted update transaction.
    pub fn record_update_abort(&self) {
        self.updates_aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` published invalidations.
    pub fn record_invalidations(&self, n: u64) {
        self.invalidations_published.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> DbStatsSnapshot {
        DbStatsSnapshot {
            single_reads: self.single_reads.load(Ordering::Relaxed),
            update_reads: self.update_reads.load(Ordering::Relaxed),
            updates_committed: self.updates_committed.load(Ordering::Relaxed),
            updates_aborted: self.updates_aborted.load(Ordering::Relaxed),
            objects_written: self.objects_written.load(Ordering::Relaxed),
            invalidations_published: self.invalidations_published.load(Ordering::Relaxed),
            read_path: ReadPathStatsSnapshot::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = DbStats::new();
        s.record_single_read();
        s.record_single_read();
        s.record_update_reads(5);
        s.record_update_commit(5);
        s.record_update_abort();
        s.record_invalidations(5);
        let snap = s.snapshot();
        assert_eq!(snap.single_reads, 2);
        assert_eq!(snap.update_reads, 5);
        assert_eq!(snap.total_reads(), 7);
        assert_eq!(snap.updates_committed, 1);
        assert_eq!(snap.updates_aborted, 1);
        assert_eq!(snap.objects_written, 5);
        assert_eq!(snap.invalidations_published, 5);
    }

    #[test]
    fn default_snapshot_is_zero() {
        let snap = DbStats::default().snapshot();
        assert_eq!(snap, DbStatsSnapshot::default());
        assert_eq!(snap.total_reads(), 0);
    }
}
