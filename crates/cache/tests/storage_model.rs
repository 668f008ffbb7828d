//! A randomized oracle for the cache's one storage.
//!
//! [`ShardedCacheStorage`] (slab LRU, incremental footprint, striped
//! mutexes) is held to a deliberately naive reference — per stripe a
//! recency `Vec`, an entry map and a floor map — by two tests (a third
//! pins that an unbounded storage, whose hits skip the recency list, is
//! indistinguishable from one whose capacity never binds):
//!
//! 1. a property test driving random op sequences through both in
//!    lockstep and comparing every return value and every aggregate;
//! 2. an 8-thread stress test over one shared storage whose per-thread
//!    (disjoint-key) op logs are replayed against the sequential
//!    reference.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use tcache_cache::storage::ShardedCacheStorage;
use tcache_types::{
    DependencyList, ObjectEntry, ObjectId, SimDuration, SimTime, TtlConfig, Value, Version,
};

const STRIPES: usize = 4;

fn obj(id: u64, version: u64) -> ObjectEntry {
    ObjectEntry::new(
        ObjectId(id),
        Value::new(version),
        Version(version),
        DependencyList::bounded(3),
    )
}

/// One stripe of the reference: `recency` runs from least to most
/// recently used.
#[derive(Default)]
struct RefStripe {
    recency: Vec<ObjectId>,
    entries: HashMap<ObjectId, (ObjectEntry, SimTime)>,
    floors: HashMap<ObjectId, Version>,
}

impl RefStripe {
    fn touch(&mut self, id: ObjectId) {
        self.recency.retain(|&other| other != id);
        self.recency.push(id);
    }

    fn remove(&mut self, id: ObjectId) -> bool {
        self.recency.retain(|&other| other != id);
        self.entries.remove(&id).is_some()
    }

    fn get(&mut self, id: ObjectId, now: SimTime, ttl: TtlConfig) -> Option<ObjectEntry> {
        let (entry, inserted_at) = self.entries.get(&id)?.clone();
        if ttl
            .lifetime()
            .is_some_and(|life| now.since(inserted_at) > life)
        {
            self.remove(id);
            return None;
        }
        self.touch(id);
        Some(entry)
    }

    fn insert(&mut self, entry: ObjectEntry, now: SimTime, cap: Option<usize>) -> Option<ObjectId> {
        let id = entry.id;
        let vetoed = self
            .floors
            .get(&id)
            .is_some_and(|&floor| entry.version < floor);
        let buried = self
            .entries
            .get(&id)
            .is_some_and(|(e, _)| e.version > entry.version);
        if vetoed || buried {
            return None;
        }
        self.entries.insert(id, (entry, now));
        self.touch(id);
        let victim = *self.recency.first()?;
        (cap.is_some_and(|cap| self.entries.len() > cap) && self.remove(victim)).then_some(victim)
    }

    fn invalidate(&mut self, id: ObjectId, newer_than: Version) -> bool {
        let floor = self.floors.entry(id).or_insert(newer_than);
        *floor = (*floor).max(newer_than);
        self.entries
            .get(&id)
            .is_some_and(|(e, _)| e.version < newer_than)
            && self.remove(id)
    }
}

/// One storage operation, decoded from the generated `(selector, key,
/// version)` triple.
enum Op {
    Insert(ObjectEntry),
    Get(ObjectId),
    Invalidate(ObjectId, Version),
    Remove(ObjectId),
    Peek(ObjectId),
}

/// What an operation returned, for comparison.
#[derive(Debug, PartialEq)]
enum Observed {
    Evicted(Option<ObjectId>),
    Entry(Option<ObjectEntry>),
    Flag(bool),
    Peek(bool, Option<Version>),
}

fn decode(selector: u64, id: u64, version: u64) -> (ObjectId, Op) {
    let key = ObjectId(id);
    let op = match selector {
        0..=2 => Op::Insert(obj(id, version)),
        3 | 4 => Op::Get(key),
        5 => Op::Invalidate(key, Version(version)),
        6 => Op::Remove(key),
        _ => Op::Peek(key),
    };
    (key, op)
}

fn run_real(storage: &ShardedCacheStorage, op: &Op, now: SimTime) -> Observed {
    match op {
        Op::Insert(entry) => Observed::Evicted(storage.insert(entry.clone(), now)),
        Op::Get(id) => Observed::Entry(storage.get(*id, now)),
        Op::Invalidate(id, version) => Observed::Flag(storage.invalidate(*id, *version)),
        Op::Remove(id) => Observed::Flag(storage.remove(*id)),
        Op::Peek(id) => Observed::Peek(storage.contains(*id), storage.cached_version(*id)),
    }
}

fn run_reference(
    stripe: &mut RefStripe,
    op: &Op,
    now: SimTime,
    cap: Option<usize>,
    ttl: TtlConfig,
) -> Observed {
    match op {
        Op::Insert(entry) => Observed::Evicted(stripe.insert(entry.clone(), now, cap)),
        Op::Get(id) => Observed::Entry(stripe.get(*id, now, ttl)),
        Op::Invalidate(id, version) => Observed::Flag(stripe.invalidate(*id, *version)),
        Op::Remove(id) => Observed::Flag(stripe.remove(*id)),
        Op::Peek(id) => {
            let version = stripe.entries.get(id).map(|(e, _)| e.version);
            Observed::Peek(version.is_some(), version)
        }
    }
}

proptest! {
    /// Random op sequences (inserts, TTL-sensitive gets, invalidations,
    /// removes, clears) produce the reference's observable behaviour op by
    /// op: same return values, same eviction victims, same len/footprint
    /// after every step. Sequences stay far below `REBALANCE_INTERVAL`
    /// inserts, so the even per-stripe split of the capacity holds
    /// throughout.
    #[test]
    fn random_ops_match_the_reference(
        ops in prop::collection::vec((0u64..8, 0u64..24, 1u64..8, 0u64..100), 1..200),
        capacity_choice in 0u32..3,
    ) {
        let capacity = match capacity_choice {
            0 => None,
            1 => Some(8),
            _ => Some(16),
        };
        let per_stripe = capacity.map(|c: usize| c.div_ceil(STRIPES).max(1));
        let ttl = TtlConfig::Limited(SimDuration::from_secs(30));
        let real = ShardedCacheStorage::new(STRIPES, capacity, ttl);
        let mut reference: Vec<RefStripe> = (0..STRIPES).map(|_| RefStripe::default()).collect();
        for &(selector, id, version, now_secs) in &ops {
            let now = SimTime::from_secs(now_secs);
            let (key, op) = decode(selector, id, version);
            let stripe = &mut reference[real.stripe_index_of(key)];
            prop_assert_eq!(
                run_real(&real, &op, now),
                run_reference(stripe, &op, now, per_stripe, ttl),
                "selector {} on o{} v{} at {}s diverged", selector, id, version, now_secs
            );
            if matches!(op, Op::Peek(_)) && version == 1 {
                // Rare full clear (entries + admission floors).
                real.clear();
                reference.iter_mut().for_each(|s| *s = RefStripe::default());
            }
            let entries = || reference.iter().flat_map(|s| s.entries.values());
            prop_assert_eq!(real.len(), entries().count());
            prop_assert_eq!(
                real.footprint_bytes(),
                entries().map(|(e, _)| e.size_bytes()).sum::<usize>()
            );
        }
        // Full final-state sweep over the key universe.
        for id in (0..24u64).map(ObjectId) {
            let stripe = &reference[real.stripe_index_of(id)];
            prop_assert_eq!(
                real.cached_version(id),
                stripe.entries.get(&id).map(|(e, _)| e.version)
            );
        }
    }
}

proptest! {
    /// Recency is unobservable without a capacity bound that binds: the
    /// same op sequence against an unbounded storage (whose hits leave the
    /// LRU list alone) and against one whose capacity exceeds the key
    /// universe on every stripe (whose hits relink it) returns the same
    /// values op by op. Sequences stay below `REBALANCE_INTERVAL` inserts.
    #[test]
    fn unbounded_storage_matches_one_whose_capacity_never_binds(
        ops in prop::collection::vec((0u64..8, 0u64..24, 1u64..8, 0u64..100), 1..300),
    ) {
        let ttl = TtlConfig::Limited(SimDuration::from_secs(30));
        let unbounded = ShardedCacheStorage::new(STRIPES, None, ttl);
        // 24 keys per stripe: room for the whole universe on any one stripe.
        let roomy = ShardedCacheStorage::new(STRIPES, Some(24 * STRIPES), ttl);
        for &(selector, id, version, now_secs) in &ops {
            let now = SimTime::from_secs(now_secs);
            let (_, op) = decode(selector, id, version);
            prop_assert_eq!(
                run_real(&unbounded, &op, now),
                run_real(&roomy, &op, now),
                "selector {} on o{} v{} at {}s diverged", selector, id, version, now_secs
            );
            prop_assert_eq!(unbounded.len(), roomy.len());
            prop_assert_eq!(unbounded.footprint_bytes(), roomy.footprint_bytes());
        }
        prop_assert_eq!(unbounded.rebalance_budgets(), 0);
    }
}

/// Eight threads hammer one shared storage with deterministic per-thread
/// op scripts over *disjoint* key ranges (so each thread's results are
/// sequentially determined even under full concurrency), then every
/// thread's log is replayed against a fresh sequential reference. Any
/// lost invalidation, resurrected entry or cross-key interference shows up
/// as a divergence.
#[test]
fn eight_thread_stress_matches_sequential_reference() {
    const THREADS: u64 = 8;
    const OPS: u64 = 5_000;
    let shared = Arc::new(ShardedCacheStorage::new(STRIPES, None, TtlConfig::Infinite));
    let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let shared = Arc::clone(&shared);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                let mut log = Vec::with_capacity(OPS as usize);
                for _ in 0..OPS {
                    // xorshift64: deterministic, seeded per thread.
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let id = t * 1_000 + state % 16; // Disjoint per thread.
                    let (_, op) = decode((state >> 16) % 8, id, 1 + (state >> 8) % 64);
                    let observed = run_real(&shared, &op, SimTime::ZERO);
                    log.push((op, observed));
                }
                log
            })
        })
        .collect();
    for handle in handles {
        // Disjoint keys + unbounded capacity mean the other threads cannot
        // have influenced this thread's observations, and with no capacity
        // stripes do not interact: one reference stripe replays the log.
        let mut reference = RefStripe::default();
        for (at, (op, observed)) in handle.join().unwrap().into_iter().enumerate() {
            let expected = run_reference(
                &mut reference,
                &op,
                SimTime::ZERO,
                None,
                TtlConfig::Infinite,
            );
            assert_eq!(
                expected, observed,
                "op {at} diverged from the sequential reference"
            );
        }
    }
}
