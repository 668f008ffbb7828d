//! The versioned object store.
//!
//! Stores, for every object, its latest value, version and dependency list
//! (§III-A), plus an optional bounded multi-version history used by audits
//! and tests (the protocol itself only ever needs the latest version).
//!
//! # Concurrency
//!
//! The object space is split over [`BUCKETS`] buckets, each one `RwLock`
//! over the bucket's live entries *and* their retained history. A read runs
//! under the bucket's shared lock for as long as it copies what it needs (a
//! couple of reference-count bumps), so every snapshot is exactly one
//! committed state, coherent across the entry and the history. An install
//! takes the bucket's exclusive lock; installs of one object are
//! additionally serialized by the two-phase-commit lock table in
//! [`crate::locks`], which reads never touch.

use parking_lot::RwLock;
use std::sync::Arc;
use tcache_types::{
    seeding, DependencyList, IdMap, ObjectEntry, ObjectId, TCacheError, TCacheResult, TxnId, Value,
    Version,
};

/// Number of buckets the store splits the object space over (a power of
/// two; the bucket of an object is a splitmix64 hash of its id, so densely
/// numbered and shard-strided object ids spread evenly).
pub const BUCKETS: usize = 32;

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

/// The data of one bucket: the live entries plus their retained history,
/// under one lock so a snapshot covering both maps is coherent.
#[derive(Debug, Default)]
struct Bucket {
    objects: IdMap<ObjectId, ObjectEntry>,
    history: IdMap<ObjectId, Vec<HistoricalVersion>>,
}

/// Thread-safe versioned object store.
///
/// All mutating operations take `&self`; the store shards its maps over
/// locked buckets (see the module docs) so it can be shared between the
/// database façade, the shards and the live-mode threads.
#[derive(Debug)]
pub struct VersionedStore {
    buckets: Box<[RwLock<Bucket>]>,
    /// How many historical versions to retain per object (0 disables the
    /// history entirely).
    history_depth: usize,
}

impl VersionedStore {
    /// Creates an empty store that keeps `history_depth` past versions per
    /// object for auditing.
    pub fn new(history_depth: usize) -> Self {
        VersionedStore {
            buckets: (0..BUCKETS).map(|_| RwLock::default()).collect(),
            history_depth,
        }
    }

    fn bucket(&self, id: ObjectId) -> &RwLock<Bucket> {
        // splitmix64 mix so shard-strided ids (shard routing is `id % n`)
        // still spread over all buckets.
        let h = seeding::derive_stream_seed(id.as_u64(), 0);
        &self.buckets[(h as usize) & (BUCKETS - 1)]
    }

    /// Runs `op` under `id`'s bucket's shared lock.
    fn read<T>(&self, id: ObjectId, op: impl FnOnce(&Bucket) -> T) -> T {
        op(&self.bucket(id).read())
    }

    /// Inserts an object at [`Version::INITIAL`] with an empty dependency
    /// list, replacing any previous entry.
    pub fn insert_initial(&self, id: ObjectId, value: Value) {
        let entry = ObjectEntry::initial(id, value.clone());
        let dependencies = Arc::clone(&entry.dependencies);
        let mut bucket = self.bucket(id).write();
        bucket.objects.insert(id, entry);
        if self.history_depth > 0 {
            bucket.history.insert(
                id,
                vec![HistoricalVersion {
                    version: Version::INITIAL,
                    value,
                    dependencies,
                    installed_by: None,
                }],
            );
        }
    }

    /// Returns a copy of the current entry for `id`.
    ///
    /// The copy is cheap: the value blob and the dependency list are shared
    /// by reference count with the stored entry. It is taken under the
    /// bucket's shared lock, so it is exactly one committed state, never a
    /// mix of two installs.
    pub fn get(&self, id: ObjectId) -> TCacheResult<ObjectEntry> {
        self.read(id, |bucket| bucket.objects.get(&id).cloned())
            .ok_or(TCacheError::UnknownObject(id))
    }

    /// Returns the current version of `id` without copying the value.
    pub fn version_of(&self, id: ObjectId) -> TCacheResult<Version> {
        self.read(id, |bucket| bucket.objects.get(&id).map(|e| e.version))
            .ok_or(TCacheError::UnknownObject(id))
    }

    /// Returns `true` if the object exists.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.read(id, |bucket| bucket.objects.contains_key(&id))
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.read().objects.len()).sum()
    }

    /// Returns `true` if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.read().objects.is_empty())
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
        let mut guard = self.bucket(id).write();
        let bucket = &mut *guard;
        // One lookup: an unknown object is rejected before anything is
        // mutated.
        let Some(entry) = bucket.objects.get_mut(&id) else {
            return Err(TCacheError::UnknownObject(id));
        };
        entry.version = version;
        let replaced = if self.history_depth > 0 {
            let replaced = std::mem::replace(&mut entry.dependencies, Arc::clone(&dependencies));
            entry.value = value.clone();
            let versions = bucket.history.entry(id).or_default();
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
        drop(guard);
        // The replaced list is freed (if this was its last holder) outside
        // the bucket lock, so readers never wait on a deallocation.
        drop(replaced);
        Ok(())
    }

    /// Returns the retained history of an object (oldest first). Empty if
    /// history is disabled or the object is unknown.
    pub fn history(&self, id: ObjectId) -> Vec<HistoricalVersion> {
        self.read(id, |bucket| bucket.history.get(&id).cloned())
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
        self.read(id, |bucket| {
            if let Some(h) = bucket
                .history
                .get(&id)
                .and_then(|versions| versions.iter().rev().find(|h| h.version == version))
            {
                return Some(h.clone());
            }
            bucket.objects.get(&id).and_then(|e| {
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
            .flat_map(|b| b.read().objects.keys().copied().collect::<Vec<_>>())
            .collect()
    }

    /// Total approximate memory footprint of all entries, in bytes; used to
    /// report the storage overhead of dependency lists.
    pub fn footprint_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                b.read()
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
        s.install(
            ObjectId(0),
            Value::new(42),
            Version(7),
            deps.clone(),
            TxnId(1),
        )
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

    /// A rejected install leaves every observable unchanged — and leaves
    /// its bucket unlocked, so the next install and read go through.
    #[test]
    fn failed_install_does_not_disturb_readers() {
        let s = store_with(4, 2);
        let mut deps = DependencyList::bounded(2);
        deps.record(ObjectId(1), Version(3));
        s.install(ObjectId(0), Value::new(9), Version(3), deps, TxnId(3))
            .unwrap();
        let observe = |s: &VersionedStore| {
            let mut ids = s.object_ids();
            ids.sort_unstable();
            let per_object: Vec<_> = (0..5u64)
                .map(ObjectId)
                .map(|id| {
                    (
                        s.get(id),
                        s.version_of(id),
                        s.contains(id),
                        s.history(id),
                        s.read_version(id, Version::INITIAL),
                        s.read_version(id, Version(3)),
                    )
                })
                .collect();
            (s.len(), s.footprint_bytes(), ids, per_object)
        };
        let before = observe(&s);
        assert!(s
            .install(
                ObjectId(4),
                Value::new(1),
                Version(4),
                DependencyList::bounded(1),
                TxnId(4)
            )
            .is_err());
        assert_eq!(observe(&s), before, "a rejected install changes nothing");
        s.install(
            ObjectId(0),
            Value::new(10),
            Version(5),
            DependencyList::bounded(1),
            TxnId(5),
        )
        .unwrap();
        assert_eq!(s.version_of(ObjectId(0)).unwrap(), Version(5));
    }
}
