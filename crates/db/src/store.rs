//! The versioned object store, with an optimistic (seqlock) read path.
//!
//! Stores, for every object, its latest value, version and dependency list
//! (§III-A), plus an optional bounded multi-version history used by audits
//! and tests (the protocol itself only ever needs the latest version).
//!
//! # Read-path concurrency
//!
//! The store serves every cache miss and every update-transaction read, so
//! its read path sits directly on the end-to-end latency of the system.
//! Two read paths are available, selected by [`ReadPath`] at construction:
//!
//! * [`ReadPath::Optimistic`] (the default) — the object space is split
//!   over [`BUCKETS`] buckets, each guarded by a per-bucket **sequence
//!   counter** (seqlock-style) next to its lock. Writers bump the sequence
//!   to an odd value before mutating and back to even after, under the
//!   bucket's exclusive lock. Readers snapshot entries *without blocking*:
//!   they check the sequence (odd means a writer is inside the critical
//!   section — back off without touching the lock's cache line), take the
//!   bucket's read side only if it is immediately available (`try_read`,
//!   never sleeping behind a writer), and copy the entry (a couple of
//!   refcount bumps). A reader retries only when a writer holds the
//!   bucket; after [`MAX_OPTIMISTIC_ATTEMPTS`] such collisions it falls
//!   back to the blocking lock, so progress is guaranteed even under a
//!   write storm. Keeping objects and history in one bucket under one
//!   guard makes every snapshot coherent across both maps.
//! * [`ReadPath::Locked`] — the pre-seqlock layout, kept as the comparison
//!   baseline (see `bench_hotpath`'s `db_read_path` sweep) and as a
//!   conservative fallback: a single bucket whose `RwLock` every read
//!   acquires, exactly the historical lock-per-read behaviour.
//!
//! A design note on what the sequence does and does not do here. In a
//! classical seqlock the data is read unsynchronized, so the sequence
//! re-check is what rules out torn reads. Safe Rust cannot copy
//! `Arc`-carrying entries outside any synchronization (a concurrently
//! dropped allocation could be resurrected — that needs epoch/hazard
//! reclamation machinery), so the optimistic path copies under a
//! *non-blocking* read guard instead: coherence comes from the guard, and
//! a successful `try_read` snapshot is never discarded. The sequence
//! provides the two things the guard cannot: a writer-activity signal
//! readers poll without contending on the lock word, and race telemetry —
//! a sequence that moved across a snapshot means a writer committed while
//! the reader was copying, counted in
//! [`ReadPathStatsSnapshot::optimistic_races`].
//!
//! Writers are unchanged in either mode: installs take the bucket's
//! exclusive lock (they are additionally serialized per object by the
//! two-phase-commit lock table in [`crate::locks`]). What the optimistic
//! path removes is the reader's *blocking* lock acquisition and (via
//! [`crate::shard::Shard`]) the lock-table traffic — the same
//! read-then-validate shape that TransEdge uses to scale edge reads
//! without coordination, at bucket rather than object granularity.
//!
//! Every read is classified in [`ReadPathStatsSnapshot`]: optimistic hits,
//! retries, races and lock fallbacks (or plain locked reads in
//! [`ReadPath::Locked`] mode), surfaced through `DbStats` so experiments
//! can report how often readers actually collided with writers.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tcache_types::{
    seeding, DependencyList, IdMap, ObjectEntry, ObjectId, TCacheError, TCacheResult, TxnId,
    Value, Version,
};

/// Number of seqlock buckets the optimistic store splits the object space
/// over (a power of two; the bucket of an object is a splitmix64 hash of
/// its id, so densely numbered and shard-strided object ids spread evenly).
pub const BUCKETS: usize = 32;

/// How many optimistic snapshot attempts a reader makes before falling back
/// to the blocking bucket lock.
pub const MAX_OPTIMISTIC_ATTEMPTS: u32 = 8;

/// Which read path [`VersionedStore`] serves snapshots on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// Lock-per-read over a single bucket: the historical layout, kept as
    /// the measured baseline and conservative fallback.
    Locked,
    /// Seqlock-validated non-blocking reads over [`BUCKETS`] buckets with
    /// bounded retries and a lock fallback (the default).
    #[default]
    Optimistic,
}

/// One historical version of an object, retained for auditing.
///
/// The dependency list is shared (`Arc`) with the live entry that installed
/// it, so keeping history costs no dependency-list copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoricalVersion {
    /// The version installed.
    pub version: Version,
    /// The value installed.
    pub value: Value,
    /// The dependency list installed with it.
    pub dependencies: Arc<DependencyList>,
    /// The transaction that installed it, if any (`None` for the initial
    /// populate).
    pub installed_by: Option<TxnId>,
}

/// Read-path counters, all atomics so readers record them without locks.
#[derive(Debug, Default)]
struct ReadPathStats {
    optimistic_hits: AtomicU64,
    optimistic_retries: AtomicU64,
    optimistic_races: AtomicU64,
    lock_fallbacks: AtomicU64,
    locked_reads: AtomicU64,
}

/// A point-in-time copy of the store's read-path counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadPathStatsSnapshot {
    /// Snapshots served optimistically (non-blocking read, no fallback).
    pub optimistic_hits: u64,
    /// Attempts backed off because a writer held the bucket (sequence odd
    /// or `try_read` refused); each hit or fallback may have been preceded
    /// by several retries.
    pub optimistic_retries: u64,
    /// Snapshots across which the bucket sequence moved — a writer
    /// committed while the reader was copying. The snapshot itself is
    /// still coherent (it was taken under the read guard); this counts how
    /// often readers and writers genuinely overlapped.
    pub optimistic_races: u64,
    /// Reads that exhausted [`MAX_OPTIMISTIC_ATTEMPTS`] and took the
    /// blocking bucket lock.
    pub lock_fallbacks: u64,
    /// Reads served under the blocking lock in [`ReadPath::Locked`] mode.
    pub locked_reads: u64,
}

impl ReadPathStatsSnapshot {
    /// Merges another snapshot into this one (summing every counter);
    /// used to aggregate per-shard stores into database-wide totals.
    pub fn merge(&mut self, other: ReadPathStatsSnapshot) {
        self.optimistic_hits += other.optimistic_hits;
        self.optimistic_retries += other.optimistic_retries;
        self.optimistic_races += other.optimistic_races;
        self.lock_fallbacks += other.lock_fallbacks;
        self.locked_reads += other.locked_reads;
    }
}

impl ReadPathStats {
    fn snapshot(&self) -> ReadPathStatsSnapshot {
        ReadPathStatsSnapshot {
            optimistic_hits: self.optimistic_hits.load(Ordering::Relaxed),
            optimistic_retries: self.optimistic_retries.load(Ordering::Relaxed),
            optimistic_races: self.optimistic_races.load(Ordering::Relaxed),
            lock_fallbacks: self.lock_fallbacks.load(Ordering::Relaxed),
            locked_reads: self.locked_reads.load(Ordering::Relaxed),
        }
    }
}

/// The data of one bucket: the live entries plus their retained history,
/// under one lock (and one sequence) so a snapshot covering both maps is
/// coherent.
#[derive(Debug, Default)]
struct BucketData {
    objects: IdMap<ObjectId, ObjectEntry>,
    history: IdMap<ObjectId, Vec<HistoricalVersion>>,
}

/// One seqlock bucket: the sequence counter is even while the data is
/// stable and odd while a writer is inside the critical section.
#[derive(Debug, Default)]
struct Bucket {
    seq: AtomicU64,
    data: RwLock<BucketData>,
}

impl Bucket {
    /// Runs `op` on a coherent snapshot of the bucket without ever
    /// blocking behind a writer; returns `None` if a writer holds the
    /// bucket (sequence odd, or the read side not immediately available).
    ///
    /// On success the second element reports whether the sequence moved
    /// across the snapshot — a writer committed while `op` ran. The
    /// snapshot is coherent regardless (it was taken under the read
    /// guard); the movement is surfaced as race telemetry only.
    fn try_optimistic<T>(&self, op: &impl Fn(&BucketData) -> T) -> Option<(T, bool)> {
        let before = self.seq.load(Ordering::Acquire);
        if before & 1 == 1 {
            // A writer is inside the critical section: back off without
            // contending on the lock word.
            return None;
        }
        let guard = self.data.try_read()?;
        let out = op(&guard);
        drop(guard);
        let raced = self.seq.load(Ordering::Acquire) != before;
        Some((out, raced))
    }
}

/// Thread-safe versioned object store.
///
/// All mutating operations take `&self`; the store shards its maps over
/// seqlock buckets (see the module docs) so it can be shared between the
/// database façade, the shards and the live-mode threads, with readers
/// that never block behind writers on the default [`ReadPath::Optimistic`].
#[derive(Debug)]
pub struct VersionedStore {
    buckets: Box<[Bucket]>,
    /// How many historical versions to retain per object (0 disables the
    /// history entirely).
    history_depth: usize,
    read_path: ReadPath,
    stats: ReadPathStats,
}

impl VersionedStore {
    /// Creates an empty store that keeps `history_depth` past versions per
    /// object for auditing, on the default [`ReadPath::Optimistic`].
    pub fn new(history_depth: usize) -> Self {
        VersionedStore::with_read_path(history_depth, ReadPath::default())
    }

    /// Creates an empty store on an explicit read path.
    /// [`ReadPath::Locked`] reproduces the historical single-lock layout
    /// (one bucket, blocking reads); [`ReadPath::Optimistic`] is the
    /// bucketed seqlock layout.
    pub fn with_read_path(history_depth: usize, read_path: ReadPath) -> Self {
        let buckets = match read_path {
            ReadPath::Locked => 1,
            ReadPath::Optimistic => BUCKETS,
        };
        VersionedStore {
            buckets: (0..buckets).map(|_| Bucket::default()).collect(),
            history_depth,
            read_path,
            stats: ReadPathStats::default(),
        }
    }

    /// The read path this store serves snapshots on.
    pub fn read_path(&self) -> ReadPath {
        self.read_path
    }

    /// A snapshot of the read-path counters (optimistic hits, retries,
    /// fallbacks, locked reads).
    pub fn read_path_stats(&self) -> ReadPathStatsSnapshot {
        self.stats.snapshot()
    }

    fn bucket(&self, id: ObjectId) -> &Bucket {
        // splitmix64 mix so shard-strided ids (shard routing is `id % n`)
        // still spread over all buckets.
        let h = seeding::derive_stream_seed(id.as_u64(), 0);
        &self.buckets[(h as usize) & (self.buckets.len() - 1)]
    }

    /// Serves a read of `id`'s bucket on the configured path: optimistic
    /// snapshot-validate-retry with a bounded-lock fallback, or a plain
    /// blocking read in [`ReadPath::Locked`] mode.
    ///
    /// `op` must be a pure read: on the optimistic path it can run several
    /// times (discarded attempts) before one result is returned.
    fn read_with<T>(&self, id: ObjectId, op: impl Fn(&BucketData) -> T) -> T {
        let bucket = self.bucket(id);
        if self.read_path == ReadPath::Optimistic {
            for _ in 0..MAX_OPTIMISTIC_ATTEMPTS {
                if let Some((out, raced)) = bucket.try_optimistic(&op) {
                    self.stats.optimistic_hits.fetch_add(1, Ordering::Relaxed);
                    if raced {
                        self.stats.optimistic_races.fetch_add(1, Ordering::Relaxed);
                    }
                    return out;
                }
                self.stats.optimistic_retries.fetch_add(1, Ordering::Relaxed);
                std::hint::spin_loop();
            }
            self.stats.lock_fallbacks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.locked_reads.fetch_add(1, Ordering::Relaxed);
        }
        op(&bucket.data.read())
    }

    /// Runs `op` under `id`'s bucket's exclusive lock with the seqlock
    /// critical-section protocol: sequence odd while the data is unstable.
    fn write_with<T>(&self, id: ObjectId, op: impl FnOnce(&mut BucketData) -> T) -> T {
        let bucket = self.bucket(id);
        let mut guard = bucket.data.write();
        let entered = bucket.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(
            entered & 1,
            0,
            "seqlock entered odd: another writer inside the critical section \
             despite the exclusive lock"
        );
        let out = op(&mut guard);
        let exited = bucket.seq.fetch_add(1, Ordering::Release);
        debug_assert_eq!(
            exited,
            entered + 1,
            "seqlock sequence moved inside the critical section"
        );
        out
    }

    /// Inserts an object at [`Version::INITIAL`] with an empty dependency
    /// list, replacing any previous entry.
    pub fn insert_initial(&self, id: ObjectId, value: Value) {
        let entry = ObjectEntry::initial(id, value.clone());
        let dependencies = Arc::clone(&entry.dependencies);
        let history_depth = self.history_depth;
        self.write_with(id, move |data| {
            data.objects.insert(id, entry);
            if history_depth > 0 {
                data.history.insert(
                    id,
                    vec![HistoricalVersion {
                        version: Version::INITIAL,
                        value,
                        dependencies,
                        installed_by: None,
                    }],
                );
            }
        });
    }

    /// Returns a copy of the current entry for `id`.
    ///
    /// The copy is cheap: the value blob and the dependency list are shared
    /// by reference count with the stored entry. On the optimistic path the
    /// snapshot is taken under a non-blocking guard — the entry returned is
    /// exactly one committed state, never a mix of two installs — and a
    /// writer committing mid-snapshot is counted as an optimistic race.
    pub fn get(&self, id: ObjectId) -> TCacheResult<ObjectEntry> {
        self.read_with(id, |data| data.objects.get(&id).cloned())
            .ok_or(TCacheError::UnknownObject(id))
    }

    /// Returns the current version of `id` without copying the value.
    pub fn version_of(&self, id: ObjectId) -> TCacheResult<Version> {
        self.read_with(id, |data| data.objects.get(&id).map(|e| e.version))
            .ok_or(TCacheError::UnknownObject(id))
    }

    /// Returns `true` if the object exists.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.read_with(id, |data| data.objects.contains_key(&id))
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.data.read().objects.len()).sum()
    }

    /// Returns `true` if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.data.read().objects.is_empty())
    }

    /// Installs a new version of an object (value, version and dependency
    /// list), recording the previous version into the history.
    ///
    /// Concurrent installs of the *same* object must be externally
    /// serialized (the two-phase-commit path holds the object's exclusive
    /// lock from [`crate::locks`] from before it reads the object until
    /// after the install); the store itself only guarantees that each
    /// install is atomic with respect to readers. One bucket lookup; the
    /// replaced dependency list is dropped after the bucket lock is
    /// released.
    ///
    /// # Errors
    /// Returns [`TCacheError::UnknownObject`] if the object was never
    /// populated; committed writes may only touch existing objects in this
    /// reproduction (the workloads never insert brand-new objects
    /// mid-experiment).
    pub fn install(
        &self,
        id: ObjectId,
        value: Value,
        version: Version,
        dependencies: impl Into<Arc<DependencyList>>,
        installed_by: TxnId,
    ) -> TCacheResult<()> {
        let dependencies = dependencies.into();
        let bucket = self.bucket(id);
        let mut guard = bucket.data.write();
        let data = &mut *guard;
        // One lookup: an unknown object is rejected before the seqlock
        // critical section is entered, so failed installs never force
        // readers to retry.
        let Some(entry) = data.objects.get_mut(&id) else {
            return Err(TCacheError::UnknownObject(id));
        };
        let entered = bucket.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(
            entered & 1,
            0,
            "seqlock entered odd: another writer inside the critical section \
             despite the exclusive lock"
        );
        entry.version = version;
        let replaced = if self.history_depth > 0 {
            let replaced = std::mem::replace(&mut entry.dependencies, Arc::clone(&dependencies));
            entry.value = value.clone();
            let versions = data.history.entry(id).or_default();
            versions.push(HistoricalVersion {
                version,
                value,
                dependencies,
                installed_by: Some(installed_by),
            });
            if versions.len() > self.history_depth {
                let excess = versions.len() - self.history_depth;
                versions.drain(0..excess);
            }
            replaced
        } else {
            entry.value = value;
            std::mem::replace(&mut entry.dependencies, dependencies)
        };
        let exited = bucket.seq.fetch_add(1, Ordering::Release);
        debug_assert_eq!(
            exited,
            entered + 1,
            "seqlock sequence moved inside the critical section"
        );
        drop(guard);
        // The replaced list is freed (if this was its last holder) outside
        // the bucket lock, so readers never wait on a deallocation.
        drop(replaced);
        Ok(())
    }

    /// Returns the retained history of an object (oldest first). Empty if
    /// history is disabled or the object is unknown.
    pub fn history(&self, id: ObjectId) -> Vec<HistoricalVersion> {
        self.read_with(id, |data| data.history.get(&id).cloned())
            .unwrap_or_default()
    }

    /// Reads one specific version of `id`: the current entry if `version`
    /// matches it, otherwise the retained history. The lookup is a single
    /// bucket snapshot, so the current entry and the history are observed
    /// coherently.
    ///
    /// Returns `None` if the object is unknown or the version was never
    /// installed / is no longer retained.
    pub fn read_version(&self, id: ObjectId, version: Version) -> Option<HistoricalVersion> {
        self.read_with(id, |data| {
            if let Some(h) = data
                .history
                .get(&id)
                .and_then(|versions| versions.iter().rev().find(|h| h.version == version))
            {
                return Some(h.clone());
            }
            data.objects.get(&id).and_then(|e| {
                (e.version == version).then(|| HistoricalVersion {
                    version: e.version,
                    value: e.value.clone(),
                    dependencies: Arc::clone(&e.dependencies),
                    installed_by: None,
                })
            })
        })
    }

    /// All object ids currently stored (in unspecified order).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.buckets
            .iter()
            .flat_map(|b| b.data.read().objects.keys().copied().collect::<Vec<_>>())
            .collect()
    }

    /// Total approximate memory footprint of all entries, in bytes; used to
    /// report the storage overhead of dependency lists.
    pub fn footprint_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                b.data
                    .read()
                    .objects
                    .values()
                    .map(ObjectEntry::size_bytes)
                    .sum::<usize>()
            })
            .sum()
    }
}

impl Default for VersionedStore {
    fn default() -> Self {
        VersionedStore::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(n: u64, history: usize) -> VersionedStore {
        let s = VersionedStore::new(history);
        for i in 0..n {
            s.insert_initial(ObjectId(i), Value::new(0));
        }
        s
    }

    #[test]
    fn populate_and_get() {
        let s = store_with(5, 0);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert!(s.contains(ObjectId(3)));
        assert!(!s.contains(ObjectId(99)));
        let e = s.get(ObjectId(3)).unwrap();
        assert_eq!(e.version, Version::INITIAL);
        assert!(e.dependencies.is_empty());
        assert_eq!(s.version_of(ObjectId(3)).unwrap(), Version::INITIAL);
        assert_eq!(s.object_ids().len(), 5);
    }

    #[test]
    fn unknown_object_errors() {
        let s = store_with(1, 0);
        assert_eq!(
            s.get(ObjectId(9)).unwrap_err(),
            TCacheError::UnknownObject(ObjectId(9))
        );
        assert!(s.version_of(ObjectId(9)).is_err());
        assert!(s
            .install(
                ObjectId(9),
                Value::new(1),
                Version(1),
                DependencyList::bounded(1),
                TxnId(1)
            )
            .is_err());
    }

    #[test]
    fn install_replaces_value_version_and_deps() {
        let s = store_with(2, 0);
        let mut deps = DependencyList::bounded(3);
        deps.record(ObjectId(1), Version(7));
        s.install(ObjectId(0), Value::new(42), Version(7), deps.clone(), TxnId(1))
            .unwrap();
        let e = s.get(ObjectId(0)).unwrap();
        assert_eq!(e.value.numeric(), 42);
        assert_eq!(e.version, Version(7));
        assert_eq!(*e.dependencies, deps);
    }

    #[test]
    fn history_is_recorded_and_bounded() {
        let s = store_with(1, 3);
        for v in 1..=5u64 {
            s.install(
                ObjectId(0),
                Value::new(v),
                Version(v),
                DependencyList::bounded(1),
                TxnId(v),
            )
            .unwrap();
        }
        let h = s.history(ObjectId(0));
        assert_eq!(h.len(), 3, "history is trimmed to its depth");
        assert_eq!(h.last().unwrap().version, Version(5));
        assert_eq!(h.first().unwrap().version, Version(3));
        assert_eq!(h.last().unwrap().installed_by, Some(TxnId(5)));
    }

    #[test]
    fn history_disabled_returns_empty() {
        let s = store_with(1, 0);
        s.install(
            ObjectId(0),
            Value::new(1),
            Version(1),
            DependencyList::bounded(1),
            TxnId(1),
        )
        .unwrap();
        assert!(s.history(ObjectId(0)).is_empty());
    }

    #[test]
    fn footprint_grows_with_dependencies() {
        let s = store_with(1, 0);
        let before = s.footprint_bytes();
        let mut deps = DependencyList::bounded(5);
        for i in 0..5 {
            deps.record(ObjectId(i), Version(i));
        }
        s.install(ObjectId(0), Value::new(0), Version(1), deps, TxnId(1))
            .unwrap();
        assert!(s.footprint_bytes() > before);
    }

    #[test]
    fn default_store_is_empty() {
        let s = VersionedStore::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.read_path(), ReadPath::Optimistic);
    }

    #[test]
    fn locked_mode_reproduces_legacy_layout() {
        let s = VersionedStore::with_read_path(0, ReadPath::Locked);
        assert_eq!(s.read_path(), ReadPath::Locked);
        for i in 0..10 {
            s.insert_initial(ObjectId(i), Value::new(i));
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.get(ObjectId(7)).unwrap().value.numeric(), 7);
        let stats = s.read_path_stats();
        assert_eq!(stats.locked_reads, 1, "locked mode counts blocking reads");
        assert_eq!(stats.optimistic_hits, 0);
    }

    #[test]
    fn optimistic_reads_count_as_hits() {
        let s = store_with(8, 0);
        for i in 0..8 {
            s.get(ObjectId(i)).unwrap();
        }
        let stats = s.read_path_stats();
        assert_eq!(stats.optimistic_hits, 8);
        assert_eq!(stats.lock_fallbacks, 0);
        assert_eq!(stats.locked_reads, 0);
    }

    #[test]
    fn read_version_finds_current_and_historical() {
        let s = store_with(1, 4);
        for v in 1..=3u64 {
            s.install(
                ObjectId(0),
                Value::new(v * 10),
                Version(v),
                DependencyList::bounded(1),
                TxnId(v),
            )
            .unwrap();
        }
        // Current version.
        let cur = s.read_version(ObjectId(0), Version(3)).unwrap();
        assert_eq!(cur.value.numeric(), 30);
        assert_eq!(cur.installed_by, Some(TxnId(3)), "served from history");
        // Historical version.
        let old = s.read_version(ObjectId(0), Version(1)).unwrap();
        assert_eq!(old.value.numeric(), 10);
        assert_eq!(old.installed_by, Some(TxnId(1)));
        // Never installed / unknown object.
        assert!(s.read_version(ObjectId(0), Version(9)).is_none());
        assert!(s.read_version(ObjectId(99), Version(1)).is_none());
    }

    #[test]
    fn read_version_without_history_serves_only_current() {
        let s = store_with(1, 0);
        s.install(
            ObjectId(0),
            Value::new(5),
            Version(2),
            DependencyList::bounded(1),
            TxnId(1),
        )
        .unwrap();
        let cur = s.read_version(ObjectId(0), Version(2)).unwrap();
        assert_eq!(cur.value.numeric(), 5);
        assert_eq!(cur.installed_by, None, "no history: installer unknown");
        assert!(s.read_version(ObjectId(0), Version::INITIAL).is_none());
    }

    #[test]
    fn failed_install_does_not_disturb_readers() {
        let s = store_with(1, 0);
        let before = s.read_path_stats();
        assert!(s
            .install(
                ObjectId(42),
                Value::new(1),
                Version(1),
                DependencyList::bounded(1),
                TxnId(1)
            )
            .is_err());
        s.get(ObjectId(0)).unwrap();
        let after = s.read_path_stats();
        assert_eq!(
            after.optimistic_retries, before.optimistic_retries,
            "a rejected install must not bump the sequence"
        );
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = ReadPathStatsSnapshot {
            optimistic_hits: 1,
            optimistic_retries: 2,
            optimistic_races: 5,
            lock_fallbacks: 3,
            locked_reads: 4,
        };
        a.merge(ReadPathStatsSnapshot {
            optimistic_hits: 10,
            optimistic_retries: 20,
            optimistic_races: 50,
            lock_fallbacks: 30,
            locked_reads: 40,
        });
        assert_eq!(a.optimistic_hits, 11);
        assert_eq!(a.optimistic_retries, 22);
        assert_eq!(a.optimistic_races, 55);
        assert_eq!(a.lock_fallbacks, 33);
        assert_eq!(a.locked_reads, 44);
    }
}
