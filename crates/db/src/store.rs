//! The versioned object store.
//!
//! Stores, for every object, its latest value, version and dependency list
//! (§III-A); the protocol never needs an older version.
//!
//! # Concurrency
//!
//! The object space is split over [`BUCKETS`] buckets, each one `RwLock`
//! over the bucket's entries. A read runs under the bucket's shared lock
//! for as long as it copies what it needs (a couple of reference-count
//! bumps), so every snapshot is exactly one committed state. An install
//! takes the bucket's exclusive lock; installs of one object are
//! additionally serialized by the commit's lock table in [`crate::locks`],
//! which reads never touch.

use parking_lot::RwLock;
use std::sync::Arc;
use tcache_types::{
    seeding, DependencyList, IdMap, ObjectEntry, ObjectId, TCacheError, TCacheResult, Value,
    Version,
};

/// Number of buckets the store splits the object space over (a power of
/// two; the bucket of an object is a splitmix64 hash of its id, so any
/// regular stride of object ids still spreads evenly).
pub const BUCKETS: usize = 32;

/// Thread-safe versioned object store.
///
/// All mutating operations take `&self`; the store splits its map over
/// locked buckets (see the module docs) so it can be shared between the
/// database façade and the live-mode threads.
#[derive(Debug)]
pub struct VersionedStore {
    buckets: Box<[RwLock<IdMap<ObjectId, ObjectEntry>>]>,
}

impl VersionedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        VersionedStore {
            buckets: (0..BUCKETS).map(|_| RwLock::default()).collect(),
        }
    }

    fn bucket(&self, id: ObjectId) -> &RwLock<IdMap<ObjectId, ObjectEntry>> {
        let h = seeding::derive_stream_seed(id.as_u64(), 0);
        &self.buckets[(h as usize) & (BUCKETS - 1)]
    }

    /// Inserts an object at [`Version::INITIAL`] with an empty dependency
    /// list, replacing any previous entry.
    pub fn insert_initial(&self, id: ObjectId, value: Value) {
        let entry = ObjectEntry::initial(id, value);
        self.bucket(id).write().insert(id, entry);
    }

    /// Returns a copy of the current entry for `id`.
    ///
    /// The copy is cheap: the value blob and the dependency list are shared
    /// by reference count with the stored entry. It is taken under the
    /// bucket's shared lock, so it is exactly one committed state, never a
    /// mix of two installs.
    pub fn get(&self, id: ObjectId) -> TCacheResult<ObjectEntry> {
        self.bucket(id)
            .read()
            .get(&id)
            .cloned()
            .ok_or(TCacheError::UnknownObject(id))
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.read().len()).sum()
    }

    /// Returns `true` if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.read().is_empty())
    }

    /// Installs a new version of an object (value, version and dependency
    /// list).
    ///
    /// Concurrent installs of the *same* object must be externally
    /// serialized (the commit holds the object's exclusive lock from
    /// [`crate::locks`] from before it reads the object until after the
    /// install); the store itself only guarantees that each install is
    /// atomic with respect to readers. One bucket lookup; the replaced
    /// dependency list is dropped after the bucket lock is released.
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
    ) -> TCacheResult<()> {
        let dependencies = dependencies.into();
        let mut bucket = self.bucket(id).write();
        // One lookup: an unknown object is rejected before anything is
        // mutated.
        let Some(entry) = bucket.get_mut(&id) else {
            return Err(TCacheError::UnknownObject(id));
        };
        entry.version = version;
        entry.value = value;
        let replaced = std::mem::replace(&mut entry.dependencies, dependencies);
        drop(bucket);
        // The replaced list is freed (if this was its last holder) outside
        // the bucket lock, so readers never wait on a deallocation.
        drop(replaced);
        Ok(())
    }

    /// Total approximate memory footprint of all entries, in bytes; used to
    /// report the storage overhead of dependency lists.
    pub fn footprint_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.read().values().map(ObjectEntry::size_bytes).sum::<usize>())
            .sum()
    }
}

impl Default for VersionedStore {
    fn default() -> Self {
        VersionedStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(n: u64) -> VersionedStore {
        let s = VersionedStore::new();
        for i in 0..n {
            s.insert_initial(ObjectId(i), Value::new(0));
        }
        s
    }

    #[test]
    fn populate_and_get() {
        let s = store_with(5);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        let e = s.get(ObjectId(3)).unwrap();
        assert_eq!(e.version, Version::INITIAL);
        assert!(e.dependencies.is_empty());
        assert!(s.get(ObjectId(99)).is_err());
    }

    #[test]
    fn unknown_object_errors() {
        let s = store_with(1);
        assert_eq!(
            s.get(ObjectId(9)).unwrap_err(),
            TCacheError::UnknownObject(ObjectId(9))
        );
        assert!(s
            .install(ObjectId(9), Value::new(1), Version(1), DependencyList::bounded(1))
            .is_err());
    }

    #[test]
    fn install_replaces_value_version_and_deps() {
        let s = store_with(2);
        let mut deps = DependencyList::bounded(3);
        deps.record(ObjectId(1), Version(7));
        s.install(ObjectId(0), Value::new(42), Version(7), deps.clone())
            .unwrap();
        let e = s.get(ObjectId(0)).unwrap();
        assert_eq!(e.value.numeric(), 42);
        assert_eq!(e.version, Version(7));
        assert_eq!(*e.dependencies, deps);
    }

    #[test]
    fn footprint_grows_with_dependencies() {
        let s = store_with(1);
        let before = s.footprint_bytes();
        let mut deps = DependencyList::bounded(5);
        for i in 0..5 {
            deps.record(ObjectId(i), Version(i));
        }
        s.install(ObjectId(0), Value::new(0), Version(1), deps)
            .unwrap();
        assert!(s.footprint_bytes() > before);
    }

    #[test]
    fn default_store_is_empty() {
        let s = VersionedStore::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    /// A rejected install leaves every observable unchanged — and leaves
    /// its bucket unlocked, so the next install and read go through.
    #[test]
    fn failed_install_does_not_disturb_readers() {
        let s = store_with(4);
        let mut deps = DependencyList::bounded(2);
        deps.record(ObjectId(1), Version(3));
        s.install(ObjectId(0), Value::new(9), Version(3), deps)
            .unwrap();
        let observe = |s: &VersionedStore| {
            let per_object: Vec<_> = (0..5u64).map(|i| s.get(ObjectId(i))).collect();
            (s.len(), s.footprint_bytes(), per_object)
        };
        let before = observe(&s);
        assert!(s
            .install(ObjectId(4), Value::new(1), Version(4), DependencyList::bounded(1))
            .is_err());
        assert_eq!(observe(&s), before, "a rejected install changes nothing");
        s.install(ObjectId(0), Value::new(10), Version(5), DependencyList::bounded(1))
            .unwrap();
        assert_eq!(s.get(ObjectId(0)).unwrap().version, Version(5));
    }
}
