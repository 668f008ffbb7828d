//! The versioned store held to a naive reference model, and raced.
//!
//! [`VersionedStore`] splits the object space over locked buckets. None of
//! that may be observable: the store must behave like a plain entry map.
//! Three layers pin that down:
//!
//! 1. a property test applying random install / get / len / footprint
//!    sequences to the store and to [`Model`], comparing every observable
//!    after every operation;
//! 2. a property test running concurrent readers against a writer,
//!    checking every observation is a committed snapshot and the
//!    per-object version sequences are monotone (an untorn, valid read
//!    schedule), and the final state against the model;
//! 3. an 8-thread stress test against a sequential replay into the model,
//!    plus a regression test that a reader racing a writer on one object
//!    never observes a torn `ObjectEntry` (value / version /
//!    dependency-list mismatch).

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tcache_db::VersionedStore;
use tcache_types::{
    seeding, DependencyList, ObjectEntry, ObjectId, TCacheError, TCacheResult, Value, Version,
};

const OBJECTS: u64 = 16;

/// The reference: an entry map, kept in the most direct way the store's
/// contract allows.
struct Model {
    entries: BTreeMap<ObjectId, ObjectEntry>,
}

impl Model {
    fn populated() -> Model {
        let entries = (0..OBJECTS)
            .map(|i| (ObjectId(i), ObjectEntry::initial(ObjectId(i), Value::new(0))))
            .collect();
        Model { entries }
    }

    fn install(
        &mut self,
        id: ObjectId,
        value: Value,
        version: Version,
        deps: DependencyList,
    ) -> TCacheResult<()> {
        let entry = self
            .entries
            .get_mut(&id)
            .ok_or(TCacheError::UnknownObject(id))?;
        entry.value = value;
        entry.version = version;
        entry.dependencies = Arc::new(deps);
        Ok(())
    }

    fn get(&self, id: ObjectId) -> TCacheResult<ObjectEntry> {
        self.entries
            .get(&id)
            .cloned()
            .ok_or(TCacheError::UnknownObject(id))
    }

    fn footprint_bytes(&self) -> usize {
        self.entries.values().map(ObjectEntry::size_bytes).sum()
    }
}

/// Builds the deterministic entry installed as version `v` of `obj`:
/// the value and the dependency list are both functions of `(obj, v)`, so
/// any mix-up between two installs is detectable from a single snapshot.
fn install_payload(obj: u64, v: u64) -> (Value, DependencyList) {
    let value = Value::new(v * 1_000 + obj);
    let mut deps = DependencyList::bounded(1);
    deps.record(ObjectId(obj), Version(v));
    (value, deps)
}

/// Asserts one snapshot is exactly one committed state of `obj`: either the
/// initial populate or an install produced by [`install_payload`].
fn assert_untorn(entry: &ObjectEntry, obj: u64) {
    if entry.version == Version::INITIAL {
        assert_eq!(entry.value.numeric(), 0, "initial value for o{obj}");
        assert!(entry.dependencies.is_empty(), "initial deps for o{obj}");
    } else {
        let v = entry.version.0;
        assert_eq!(
            entry.value.numeric(),
            v * 1_000 + obj,
            "torn entry: o{obj} version {v} carries a foreign value"
        );
        assert_eq!(
            entry.dependencies.version_of(ObjectId(obj)),
            Some(Version(v)),
            "torn entry: o{obj} version {v} carries a foreign dependency list"
        );
    }
}

fn populated() -> VersionedStore {
    let s = VersionedStore::new();
    for i in 0..OBJECTS {
        s.insert_initial(ObjectId(i), Value::new(0));
    }
    s
}

/// Asserts the store's final state equals the model's, object by object.
fn assert_matches_model(store: &VersionedStore, model: &Model) {
    assert_eq!(store.len(), model.entries.len());
    for i in 0..OBJECTS {
        let id = ObjectId(i);
        assert_eq!(store.get(id), model.get(id), "o{i} diverged from the model");
    }
}

/// Runs `readers` reader threads over `store` while `writer` (run on the
/// calling thread) installs entries; every snapshot is checked untorn and
/// per-object versions are checked monotone per reader.
fn race(store: &Arc<VersionedStore>, readers: usize, writer: impl FnOnce()) {
    let done = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            let store = Arc::clone(store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut floors = vec![Version::INITIAL; OBJECTS as usize];
                let mut rounds = 0u64;
                while !done.load(Ordering::Relaxed) || rounds < 100 {
                    let obj = (rounds + r as u64) % OBJECTS;
                    let entry = store.get(ObjectId(obj)).expect("populated");
                    assert_untorn(&entry, obj);
                    assert!(
                        entry.version >= floors[obj as usize],
                        "reader {r} saw o{obj} go backwards: {:?} after {:?}",
                        entry.version,
                        floors[obj as usize]
                    );
                    floors[obj as usize] = entry.version;
                    rounds += 1;
                }
            })
        })
        .collect();
    writer();
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join()
            .expect("reader panicked (torn or non-monotone read)");
    }
}

proptest! {
    /// The same random operation sequence applied to the store and to the
    /// model yields identical observables, operation by operation and in
    /// the final state. Object ids reach past the populated range, so
    /// unknown objects (rejected installs included) are exercised too.
    #[test]
    fn random_ops_match_the_reference_model(
        ops in prop::collection::vec((0u32..4, 0u64..OBJECTS + 2, 1u64..500), 1..120),
    ) {
        let store = populated();
        let mut model = Model::populated();
        let mut next_version = 1u64;
        for &(kind, obj, val) in &ops {
            let id = ObjectId(obj);
            match kind {
                0 => {
                    let v = Version(next_version);
                    next_version += 1;
                    let mut deps = DependencyList::bounded(2);
                    deps.record(ObjectId(val % OBJECTS), v);
                    let got = store.install(id, Value::new(val), v, deps.clone());
                    let want = model.install(id, Value::new(val), v, deps);
                    prop_assert_eq!(got, want);
                }
                1 => prop_assert_eq!(store.get(id), model.get(id)),
                2 => prop_assert_eq!(store.len(), model.entries.len()),
                _ => prop_assert_eq!(store.footprint_bytes(), model.footprint_bytes()),
            }
        }
        prop_assert_eq!(store.len(), model.entries.len());
        prop_assert_eq!(store.is_empty(), model.entries.is_empty());
        prop_assert_eq!(store.footprint_bytes(), model.footprint_bytes());
        for i in 0..OBJECTS + 2 {
            let id = ObjectId(i);
            prop_assert_eq!(store.get(id), model.get(id));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent readers against a writer: every snapshot must be a
    /// committed state (untorn) and every reader's per-object version
    /// sequence must be monotone. The store then ends where a sequential
    /// replay into the model ends.
    #[test]
    fn concurrent_version_sequences_are_untorn_and_monotone(
        seed in 0u64..1_000_000,
        installs in 200u64..600,
    ) {
        let store = Arc::new(populated());
        let mut model = Model::populated();
        let installs: Vec<(u64, u64)> = (0..installs)
            .map(|i| (seeding::derive_stream_seed(seed, i) % OBJECTS, i + 1))
            .collect();
        race(&store, 3, || {
            for &(obj, v) in &installs {
                let (value, deps) = install_payload(obj, v);
                store
                    .install(ObjectId(obj), value, Version(v), deps)
                    .expect("populated");
            }
        });
        for &(obj, v) in &installs {
            let (value, deps) = install_payload(obj, v);
            model.install(ObjectId(obj), value, Version(v), deps).unwrap();
        }
        assert_matches_model(&store, &model);
    }
}

/// 8 threads (2 writers over disjoint object halves, 6 readers) against a
/// sequential replay: the final store state must equal a single-threaded
/// replay of both writers' install sequences into the model, and no reader
/// may ever see a torn or non-monotone snapshot (checked inside [`race`]'s
/// readers).
#[test]
fn eight_thread_stress_matches_sequential_oracle() {
    const INSTALLS_PER_WRITER: u64 = 4_000;
    const HALF: u64 = OBJECTS / 2;
    let store = Arc::new(populated());

    // Writer w installs versions into objects [w * HALF, (w + 1) * HALF),
    // so installs of one object are serialized (as the commit's lock table
    // guarantees in the real database) while buckets still see concurrent
    // writers.
    let writes = |w: u64| (0..INSTALLS_PER_WRITER).map(move |i| (w * HALF + i % HALF, i + 1));
    race(&store, 6, || {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for (obj, v) in writes(w) {
                        let (value, deps) = install_payload(obj, v);
                        store
                            .install(ObjectId(obj), value, Version(v), deps)
                            .expect("populated");
                    }
                })
            })
            .collect();
        for (w, h) in writers.into_iter().enumerate() {
            h.join().unwrap_or_else(|_| panic!("writer {w}"));
        }
    });

    let mut model = Model::populated();
    for (obj, v) in (0..2u64).flat_map(writes) {
        let (value, deps) = install_payload(obj, v);
        model
            .install(ObjectId(obj), value, Version(v), deps)
            .unwrap();
    }
    assert_matches_model(&store, &model);
}

/// Regression test for the store's core read guarantee: a reader racing a
/// writer on the *same* object never observes a torn `ObjectEntry` — the
/// value, version and dependency list always belong to one single install.
#[test]
fn reader_racing_writer_never_observes_torn_entry() {
    const INSTALLS: u64 = 30_000;
    let store = Arc::new(VersionedStore::new());
    store.insert_initial(ObjectId(0), Value::new(0));

    let done = Arc::new(AtomicBool::new(false));
    // One snapshot count per reader, visible to the writer: whether the
    // readers raced it must not depend on how the threads were scheduled.
    let snapshots: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let readers: Vec<_> = snapshots
        .iter()
        .map(|snapshots| {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            let snapshots = Arc::clone(snapshots);
            std::thread::spawn(move || {
                let mut floor = Version::INITIAL;
                while !done.load(Ordering::Relaxed) {
                    let entry = store.get(ObjectId(0)).expect("populated");
                    // Value and dependency list must match the version: a
                    // torn read mixing install i and install i+1 fails here.
                    assert_untorn(&entry, 0);
                    assert!(entry.version >= floor, "version went backwards");
                    floor = entry.version;
                    snapshots.fetch_add(1, Ordering::Relaxed);
                }
                snapshots.load(Ordering::Relaxed)
            })
        })
        .collect();

    // The writer starts once every reader has taken its first snapshot and
    // keeps installing until each has taken a few more under it.
    const RACED: u64 = 4;
    while snapshots.iter().any(|s| s.load(Ordering::Relaxed) == 0) {
        std::thread::yield_now();
    }
    let at_start: Vec<u64> = snapshots
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    let all_raced = || {
        snapshots
            .iter()
            .zip(&at_start)
            .all(|(s, &start)| s.load(Ordering::Relaxed) >= start + RACED)
    };
    let mut installed = 0u64;
    while installed < INSTALLS || !all_raced() {
        installed += 1;
        let (value, deps) = install_payload(0, installed);
        store
            .install(ObjectId(0), value, Version(installed), deps)
            .unwrap();
        if installed > INSTALLS {
            // Only a starved reader is missing: give it the core.
            std::thread::yield_now();
        }
    }
    done.store(true, Ordering::Relaxed);
    let total: u64 = readers
        .into_iter()
        .map(|h| h.join().expect("no torn read"))
        .sum();
    assert!(
        total >= 3 * (1 + RACED),
        "readers actually raced the writer"
    );
    assert_eq!(store.get(ObjectId(0)).unwrap().version, Version(installed));
}
