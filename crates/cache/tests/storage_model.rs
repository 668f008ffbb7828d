//! A randomized oracle for the cache's one storage.
//!
//! [`ShardedCacheStorage`] (slab LRU on bounded stripes only, incremental
//! footprint, per-stripe admission epochs, striped mutexes) is held to a
//! deliberately naive reference — per stripe a recency `Vec`, an entry map
//! and an epoch counter — by two tests (a third pins that an unbounded
//! storage, which keeps no recency list at all, is indistinguishable from
//! one whose capacity never binds):
//!
//! 1. a property test driving random op sequences through both in
//!    lockstep and comparing every return value and every aggregate;
//! 2. an 8-thread stress test over one shared storage whose per-thread
//!    (disjoint-key) op logs are replayed against the sequential
//!    reference.
//!
//! A `Get` that misses keeps the admission token it was handed; a later
//! `Admit` of the same object inserts under that token, the way a miss's
//! fetch does, so invalidations and clears in between must veto it.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use tcache_cache::storage::{Admission, AdmitToken, ShardedCacheStorage};
use tcache_types::{
    DependencyList, ObjectEntry, ObjectId, SimDuration, SimTime, TtlConfig, Value, Version,
};

const STRIPES: usize = 4;

/// Op selectors `decode` understands.
const SELECTORS: u64 = 9;

fn obj(id: u64, version: u64) -> ObjectEntry {
    ObjectEntry::new(
        ObjectId(id),
        Value::new(version),
        Version(version),
        DependencyList::bounded(3),
    )
}

/// One stripe of the reference: `recency` runs from least to most
/// recently used; `pending` holds the epoch each outstanding miss saw.
#[derive(Default)]
struct RefStripe {
    recency: Vec<ObjectId>,
    entries: HashMap<ObjectId, (ObjectEntry, SimTime)>,
    epoch: u64,
    pending: HashMap<ObjectId, u64>,
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
        let hit = self.entries.get(&id).cloned().filter(|(_, inserted_at)| {
            ttl.lifetime()
                .is_none_or(|life| now.since(*inserted_at) <= life)
        });
        match hit {
            Some((entry, _)) => {
                self.touch(id);
                Some(entry)
            }
            None => {
                self.remove(id);
                self.pending.insert(id, self.epoch);
                None
            }
        }
    }

    /// Inserts under the epoch `seen`.
    fn insert(
        &mut self,
        entry: ObjectEntry,
        now: SimTime,
        cap: Option<usize>,
        seen: u64,
    ) -> Admission {
        let id = entry.id;
        if seen != self.epoch {
            return Admission::Vetoed;
        }
        if self
            .entries
            .get(&id)
            .is_some_and(|(e, _)| e.version > entry.version)
        {
            return Admission::Superseded;
        }
        self.entries.insert(id, (entry, now));
        self.touch(id);
        let victim = self.recency[0];
        let evicted = (cap.is_some_and(|cap| self.entries.len() > cap) && self.remove(victim))
            .then_some(victim);
        Admission::Installed(evicted)
    }

    /// Inserts under the token the object's last miss saw, or — when
    /// there is none — under the current epoch (a fetch with nothing in
    /// between).
    fn admit(&mut self, entry: ObjectEntry, now: SimTime, cap: Option<usize>) -> Admission {
        let seen = self.pending.remove(&entry.id).unwrap_or(self.epoch);
        self.insert(entry, now, cap, seen)
    }

    fn invalidate(&mut self, id: ObjectId, newer_than: Version) -> bool {
        self.epoch += 1;
        self.entries
            .get(&id)
            .is_some_and(|(e, _)| e.version < newer_than)
            && self.remove(id)
    }

    /// Drops the entries, keeps the outstanding misses (their fetches are
    /// still in flight) and bumps the epoch so they are refused.
    fn clear(&mut self) {
        self.recency.clear();
        self.entries.clear();
        self.epoch += 1;
    }
}

/// One storage operation, decoded from the generated `(selector, key,
/// version)` triple.
enum Op {
    Insert(ObjectEntry),
    Admit(ObjectEntry),
    Get(ObjectId),
    Invalidate(ObjectId, Version),
    Remove(ObjectId),
    Peek(ObjectId),
}

/// What an operation returned, for comparison.
#[derive(Debug, PartialEq)]
enum Observed {
    Admission(Admission),
    Entry(Option<ObjectEntry>),
    Flag(bool),
    Peek(bool, Option<Version>),
}

fn decode(selector: u64, id: u64, version: u64) -> (ObjectId, Op) {
    let key = ObjectId(id);
    let op = match selector {
        0 | 1 => Op::Insert(obj(id, version)),
        2 | 3 => Op::Admit(obj(id, version)),
        4 | 5 => Op::Get(key),
        6 => Op::Invalidate(key, Version(version)),
        7 => Op::Remove(key),
        _ => Op::Peek(key),
    };
    (key, op)
}

/// The real storage (possibly shared) plus the tokens this driver's
/// outstanding misses were handed.
struct Real {
    storage: Arc<ShardedCacheStorage>,
    pending: HashMap<ObjectId, AdmitToken>,
}

impl Real {
    fn new(storage: ShardedCacheStorage) -> Self {
        Real::on(Arc::new(storage))
    }

    fn on(storage: Arc<ShardedCacheStorage>) -> Self {
        Real {
            storage,
            pending: HashMap::new(),
        }
    }

    fn run(&mut self, op: &Op, now: SimTime) -> Observed {
        let storage = &self.storage;
        match op {
            Op::Insert(entry) => {
                let token = storage.token(entry.id);
                Observed::Admission(storage.insert(entry.clone(), now, token))
            }
            Op::Admit(entry) => {
                let token = self
                    .pending
                    .remove(&entry.id)
                    .unwrap_or_else(|| storage.token(entry.id));
                Observed::Admission(storage.insert(entry.clone(), now, token))
            }
            Op::Get(id) => match storage.with_entry(*id, now, Clone::clone) {
                Ok(entry) => Observed::Entry(Some(entry)),
                Err(token) => {
                    self.pending.insert(*id, token);
                    Observed::Entry(None)
                }
            },
            Op::Invalidate(id, version) => Observed::Flag(storage.invalidate(*id, *version)),
            Op::Remove(id) => Observed::Flag(storage.remove(*id)),
            Op::Peek(id) => Observed::Peek(storage.contains(*id), storage.cached_version(*id)),
        }
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
        Op::Insert(entry) => {
            let epoch = stripe.epoch;
            Observed::Admission(stripe.insert(entry.clone(), now, cap, epoch))
        }
        Op::Admit(entry) => Observed::Admission(stripe.admit(entry.clone(), now, cap)),
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
    /// Random op sequences (inserts, admits under a miss's token,
    /// TTL-sensitive gets, invalidations, removes, clears) produce the
    /// reference's observable behaviour op by op: same return values, same
    /// eviction victims, same vetoes, same len/footprint after every step.
    /// Sequences stay far below `REBALANCE_INTERVAL` inserts, so the even
    /// per-stripe split of the capacity holds throughout.
    #[test]
    fn random_ops_match_the_reference(
        ops in prop::collection::vec((0u64..SELECTORS, 0u64..24, 1u64..8, 0u64..100), 1..200),
        capacity_choice in 0u32..3,
    ) {
        let capacity = match capacity_choice {
            0 => None,
            1 => Some(8),
            _ => Some(16),
        };
        let per_stripe = capacity.map(|c: usize| c.div_ceil(STRIPES).max(1));
        let ttl = TtlConfig::Limited(SimDuration::from_secs(30));
        let mut real = Real::new(ShardedCacheStorage::new(STRIPES, capacity, ttl));
        let mut reference: Vec<RefStripe> = (0..STRIPES).map(|_| RefStripe::default()).collect();
        for &(selector, id, version, now_secs) in &ops {
            let now = SimTime::from_secs(now_secs);
            let (key, op) = decode(selector, id, version);
            let stripe = &mut reference[real.storage.stripe_index_of(key)];
            prop_assert_eq!(
                real.run(&op, now),
                run_reference(stripe, &op, now, per_stripe, ttl),
                "selector {} on o{} v{} at {}s diverged", selector, id, version, now_secs
            );
            if matches!(op, Op::Peek(_)) && version == 1 {
                // Rare full clear: outstanding misses must be refused.
                real.storage.clear();
                reference.iter_mut().for_each(RefStripe::clear);
            }
            let entries = || reference.iter().flat_map(|s| s.entries.values());
            prop_assert_eq!(real.storage.len(), entries().count());
            prop_assert_eq!(
                real.storage.footprint_bytes(),
                entries().map(|(e, _)| e.size_bytes()).sum::<usize>()
            );
        }
        // Full final-state sweep over the key universe.
        for id in (0..24u64).map(ObjectId) {
            let stripe = &reference[real.storage.stripe_index_of(id)];
            prop_assert_eq!(
                real.storage.cached_version(id),
                stripe.entries.get(&id).map(|(e, _)| e.version)
            );
        }
    }
}

proptest! {
    /// Recency is unobservable without a capacity bound that binds: the
    /// same op sequence against an unbounded storage (which keeps no LRU
    /// list — its hits, inserts and removes never touch one) and against
    /// one whose capacity exceeds the key universe on every stripe (which
    /// keeps and relinks it) returns the same values op by op. Sequences
    /// stay below `REBALANCE_INTERVAL` inserts.
    #[test]
    fn unbounded_storage_matches_one_whose_capacity_never_binds(
        ops in prop::collection::vec((0u64..SELECTORS, 0u64..24, 1u64..8, 0u64..100), 1..300),
    ) {
        let ttl = TtlConfig::Limited(SimDuration::from_secs(30));
        let mut unbounded = Real::new(ShardedCacheStorage::new(STRIPES, None, ttl));
        // 24 keys per stripe: room for the whole universe on any one stripe.
        let mut roomy = Real::new(ShardedCacheStorage::new(STRIPES, Some(24 * STRIPES), ttl));
        for &(selector, id, version, now_secs) in &ops {
            let now = SimTime::from_secs(now_secs);
            let (_, op) = decode(selector, id, version);
            prop_assert_eq!(
                unbounded.run(&op, now),
                roomy.run(&op, now),
                "selector {} on o{} v{} at {}s diverged", selector, id, version, now_secs
            );
            prop_assert_eq!(unbounded.storage.len(), roomy.storage.len());
            prop_assert_eq!(
                unbounded.storage.footprint_bytes(),
                roomy.storage.footprint_bytes()
            );
        }
        prop_assert_eq!(unbounded.storage.rebalance_budgets(), 0);
    }
}

/// Eight threads hammer one shared storage with deterministic per-thread
/// op scripts over *disjoint* key ranges, then every thread's log is
/// replayed against a fresh sequential reference. Keys are disjoint but
/// stripes are shared, so another thread's invalidation may bump the epoch
/// between a thread's miss and its admit: an observed veto the reference
/// would not have issued is accepted (the conservative veto) and the
/// reference drops that insert too. Everything else must match exactly —
/// in particular the storage never admits what the reference refuses, and
/// any lost invalidation, resurrected entry or cross-key interference shows
/// up as a divergence.
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
                let mut real = Real::on(shared);
                barrier.wait();
                let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                let mut log = Vec::with_capacity(OPS as usize);
                for _ in 0..OPS {
                    // xorshift64: deterministic, seeded per thread.
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let id = t * 1_000 + state % 16; // Disjoint per thread.
                    let (_, op) = decode((state >> 16) % SELECTORS, id, 1 + (state >> 8) % 64);
                    let observed = real.run(&op, SimTime::ZERO);
                    log.push((op, observed));
                }
                log
            })
        })
        .collect();
    for handle in handles {
        // Disjoint keys + unbounded capacity: only the shared epochs let
        // the other threads influence this thread's observations.
        let mut reference: Vec<RefStripe> = (0..STRIPES).map(|_| RefStripe::default()).collect();
        for (at, (op, observed)) in handle.join().unwrap().into_iter().enumerate() {
            let key = match &op {
                Op::Insert(entry) | Op::Admit(entry) => entry.id,
                Op::Get(id) | Op::Invalidate(id, _) | Op::Remove(id) | Op::Peek(id) => *id,
            };
            let stripe = &mut reference[shared.stripe_index_of(key)];
            if observed == Observed::Admission(Admission::Vetoed) {
                if matches!(op, Op::Admit(_)) {
                    stripe.pending.remove(&key);
                }
                continue;
            }
            let expected = run_reference(stripe, &op, SimTime::ZERO, None, TtlConfig::Infinite);
            assert_eq!(
                expected, observed,
                "op {at} diverged from the sequential reference"
            );
        }
    }
}
