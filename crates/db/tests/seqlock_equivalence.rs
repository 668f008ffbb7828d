//! Equivalence and race tests for the optimistic (seqlock) read path.
//!
//! The seqlock store must be *observationally equivalent* to the historical
//! lock-per-read store: the same installs produce the same entries, the
//! same histories and — under concurrency — only version sequences the
//! locked store could also produce (committed snapshots, monotone per
//! object, never torn). Three layers pin that down:
//!
//! 1. a differential property test applying random operation sequences to
//!    both stores and comparing every observable;
//! 2. a property test running concurrent readers against a writer on *both*
//!    stores, checking every observation is a committed snapshot and the
//!    per-object version sequences are monotone (the definition of an
//!    untorn, valid read schedule);
//! 3. an 8-thread stress test against a sequential oracle, plus a
//!    regression test that a reader racing a writer on one object can
//!    never observe a torn `ObjectEntry` (value / version / dependency-list
//!    mismatch).

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tcache_db::{ReadPath, VersionedStore};
use tcache_types::{seeding, DependencyList, ObjectId, TxnId, Value, Version};

const OBJECTS: u64 = 16;

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
fn assert_untorn(entry: &tcache_types::ObjectEntry, obj: u64) {
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

fn populated(read_path: ReadPath, history: usize) -> VersionedStore {
    let s = VersionedStore::with_read_path(history, read_path);
    for i in 0..OBJECTS {
        s.insert_initial(ObjectId(i), Value::new(0));
    }
    s
}

/// Runs `readers` reader threads over `store` while `writer` (run on the
/// calling thread) installs entries; every snapshot is checked untorn and
/// per-object versions are checked monotone per reader.
fn race(
    store: &Arc<VersionedStore>,
    readers: usize,
    writer: impl FnOnce(&VersionedStore),
) {
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
                floors
            })
        })
        .collect();
    writer(store);
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("reader panicked (torn or non-monotone read)");
    }
}

proptest! {
    /// Differential property test: the same random operation sequence
    /// applied to the locked and to the optimistic store yields identical
    /// observables, operation by operation and in the final state.
    #[test]
    fn random_ops_match_between_locked_and_optimistic(
        ops in prop::collection::vec((0u32..6, 0u64..OBJECTS + 2, 1u64..500), 1..120),
    ) {
        let locked = populated(ReadPath::Locked, 3);
        let optimistic = populated(ReadPath::Optimistic, 3);
        let mut next_version = 1u64;
        for &(kind, obj, val) in &ops {
            let id = ObjectId(obj);
            match kind {
                0 => {
                    // Install the same new version into both stores.
                    let v = Version(next_version);
                    next_version += 1;
                    let mut deps = DependencyList::bounded(2);
                    deps.record(ObjectId(val % OBJECTS), v);
                    let a = locked.install(id, Value::new(val), v, deps.clone(), TxnId(val));
                    let b = optimistic.install(id, Value::new(val), v, deps, TxnId(val));
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
                1 => prop_assert_eq!(locked.get(id), optimistic.get(id)),
                2 => prop_assert_eq!(locked.version_of(id), optimistic.version_of(id)),
                3 => prop_assert_eq!(locked.contains(id), optimistic.contains(id)),
                4 => prop_assert_eq!(locked.history(id), optimistic.history(id)),
                _ => {
                    let v = Version(val % next_version);
                    prop_assert_eq!(
                        locked.read_version(id, v),
                        optimistic.read_version(id, v)
                    );
                }
            }
        }
        // Final observable state is identical.
        prop_assert_eq!(locked.len(), optimistic.len());
        prop_assert_eq!(locked.footprint_bytes(), optimistic.footprint_bytes());
        let mut a = locked.object_ids();
        let mut b = optimistic.object_ids();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        for i in 0..OBJECTS {
            prop_assert_eq!(locked.get(ObjectId(i)), optimistic.get(ObjectId(i)));
            prop_assert_eq!(locked.history(ObjectId(i)), optimistic.history(ObjectId(i)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent readers against a writer, on both stores: every snapshot
    /// must be a committed state (untorn) and every reader's per-object
    /// version sequence must be monotone — i.e. the seqlock store admits
    /// exactly the observable version sequences of the lock-based store.
    /// Both stores then agree on the final state.
    #[test]
    fn concurrent_version_sequences_are_valid_on_both_paths(
        seed in 0u64..1_000_000,
        installs in 200u64..600,
    ) {
        let mut finals = Vec::new();
        for read_path in [ReadPath::Locked, ReadPath::Optimistic] {
            let store = Arc::new(populated(read_path, 0));
            race(&store, 3, |store| {
                for i in 0..installs {
                    let obj = seeding::derive_stream_seed(seed, i) % OBJECTS;
                    let v = i + 1;
                    let (value, deps) = install_payload(obj, v);
                    store
                        .install(ObjectId(obj), value, Version(v), deps, TxnId(v))
                        .expect("populated");
                }
            });
            finals.push(
                (0..OBJECTS)
                    .map(|i| store.get(ObjectId(i)).expect("populated"))
                    .collect::<Vec<_>>(),
            );
        }
        prop_assert_eq!(&finals[0], &finals[1], "both paths end in the same state");
    }
}

/// 8 threads (2 writers over disjoint object halves, 6 readers) against a
/// sequential oracle: the final store state must equal a single-threaded
/// replay of both writers' install sequences, and no reader may ever see a
/// torn or non-monotone snapshot (checked inside [`race`]'s readers).
#[test]
fn eight_thread_stress_matches_sequential_oracle() {
    const INSTALLS_PER_WRITER: u64 = 4_000;
    let store = Arc::new(populated(ReadPath::Optimistic, 0));

    // Writer w installs versions into objects [w * OBJECTS/2, (w+1) * OBJECTS/2),
    // so installs of one object are serialized (as the 2PC lock table
    // guarantees in the real database) while buckets still see concurrent
    // writers.
    let writer = |store: Arc<VersionedStore>, w: u64| {
        std::thread::spawn(move || {
            let half = OBJECTS / 2;
            for i in 0..INSTALLS_PER_WRITER {
                let obj = w * half + i % half;
                let v = i + 1;
                let (value, deps) = install_payload(obj, v);
                store
                    .install(ObjectId(obj), value, Version(v), deps, TxnId(v))
                    .expect("populated");
            }
        })
    };

    race(&store, 6, |store_ref| {
        let w0 = writer(Arc::clone(&store), 0);
        let w1 = writer(Arc::clone(&store), 1);
        w0.join().expect("writer 0");
        w1.join().expect("writer 1");
        let _ = store_ref; // writers share the same store through the Arc
    });

    // Sequential oracle: replay both writers' sequences single-threaded.
    let oracle = populated(ReadPath::Locked, 0);
    for w in 0..2u64 {
        let half = OBJECTS / 2;
        for i in 0..INSTALLS_PER_WRITER {
            let obj = w * half + i % half;
            let v = i + 1;
            let (value, deps) = install_payload(obj, v);
            oracle
                .install(ObjectId(obj), value, Version(v), deps, TxnId(v))
                .unwrap();
        }
    }
    for i in 0..OBJECTS {
        assert_eq!(
            store.get(ObjectId(i)).unwrap(),
            oracle.get(ObjectId(i)).unwrap(),
            "object {i} diverged from the sequential oracle"
        );
    }

    let stats = store.read_path_stats();
    assert!(stats.optimistic_hits > 0, "readers used the optimistic path");
    assert_eq!(stats.locked_reads, 0, "no blocking reads in optimistic mode");
}

/// Regression test for the seqlock path's core guarantee: a reader racing
/// a writer on the *same* object never observes a torn `ObjectEntry` — the
/// value, version and dependency list always belong to one single install.
#[test]
fn reader_racing_writer_never_observes_torn_entry() {
    const INSTALLS: u64 = 30_000;
    let store = Arc::new(VersionedStore::new(0));
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
    let at_start: Vec<u64> = snapshots.iter().map(|s| s.load(Ordering::Relaxed)).collect();
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
            .install(ObjectId(0), value, Version(installed), deps, TxnId(installed))
            .unwrap();
        if installed > INSTALLS {
            // Only a starved reader is missing: give it the core.
            std::thread::yield_now();
        }
    }
    done.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().expect("no torn read")).sum();
    assert!(total >= 3 * (1 + RACED), "readers actually raced the writer");
    assert_eq!(store.get(ObjectId(0)).unwrap().version, Version(installed));

    let stats = store.read_path_stats();
    assert_eq!(
        stats.optimistic_hits + stats.lock_fallbacks,
        total + 1, // + the final assertion's read above
        "every snapshot is classified exactly once"
    );
}
