//! In-memory cache storage with optional capacity-based LRU eviction and
//! TTL expiry.
//!
//! The paper's prototype "does not address the issue of cache eviction when
//! running out of memory" — in the experiments everything fits. The storage
//! nonetheless supports a capacity bound with LRU eviction so the library is
//! usable outside the evaluation; the harness simply leaves the capacity
//! unlimited.
//!
//! Two layers live here:
//!
//! * [`CacheStorage`] — a single-threaded store whose recency order is an
//!   intrusive doubly-linked list over slab indices, so a hit's touch,
//!   `insert` and `remove` are all O(1) — the previous `Vec<ObjectId>`
//!   recency order made every hit O(n) — and which a hit on an unbounded
//!   store does not touch at all;
//! * [`ShardedCacheStorage`] — N independently locked [`CacheStorage`]
//!   stripes, keyed by `ObjectId` hash, so cache hits on different objects
//!   proceed in parallel. This is the structure [`crate::EdgeCache`] uses.

use crate::entry::CacheEntry;
use crate::stripe::Striped;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use tcache_types::{IdMap, ObjectEntry, ObjectId, SimTime, TtlConfig, Version};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct LruNode {
    id: ObjectId,
    prev: usize,
    next: usize,
}

/// An intrusive doubly-linked recency list over a slab. The front is the
/// least recently used entry; every operation is O(1).
#[derive(Debug, Default)]
struct LruQueue {
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruQueue {
    fn new() -> Self {
        LruQueue {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Appends `id` as the most recently used entry, returning its slot.
    fn push_back(&mut self, id: ObjectId) -> usize {
        let node = LruNode {
            id,
            prev: self.tail,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        if self.tail != NIL {
            self.nodes[self.tail].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        slot
    }

    /// Unlinks `slot` and recycles it.
    fn remove(&mut self, slot: usize) {
        let LruNode { prev, next, .. } = self.nodes[slot];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.free.push(slot);
    }

    /// Moves `slot` to the most recently used position.
    fn touch(&mut self, slot: usize) {
        if self.tail == slot {
            return;
        }
        let id = self.nodes[slot].id;
        self.remove(slot);
        let new_slot = self.push_back(id);
        debug_assert_eq!(new_slot, slot, "recycled slot keeps its index");
    }

    /// The least recently used entry, if any.
    fn front(&self) -> Option<ObjectId> {
        if self.head == NIL {
            None
        } else {
            Some(self.nodes[self.head].id)
        }
    }
}

#[derive(Debug)]
struct Stored {
    entry: CacheEntry,
    slot: usize,
}

/// One stripe of the cache's object storage (single-threaded; wrap it in
/// [`ShardedCacheStorage`] for concurrent use).
#[derive(Debug)]
pub struct CacheStorage {
    entries: IdMap<ObjectId, Stored>,
    lru: LruQueue,
    capacity: Option<usize>,
    ttl: TtlConfig,
    /// Incrementally maintained sum of entry sizes, so footprint queries do
    /// not walk the map.
    footprint: usize,
    /// Per-object minimum admissible version, raised by every invalidation
    /// (present or not). This is what keeps the *striped* cache correct: an
    /// invalidation that arrives while the object is uncached must still
    /// veto a racing fetcher's about-to-land stale insert — the old
    /// global-mutex cache serialized fetch+insert+invalidation, the striped
    /// one records the knowledge instead. One `(ObjectId, Version)` pair
    /// per invalidated object; bounded by the object universe.
    floors: IdMap<ObjectId, Version>,
}

impl CacheStorage {
    /// Creates storage with unlimited capacity and no TTL.
    pub fn unlimited() -> Self {
        CacheStorage::new(None, TtlConfig::Infinite)
    }

    /// Creates storage with an optional capacity bound and a TTL policy.
    pub fn new(capacity: Option<usize>, ttl: TtlConfig) -> Self {
        CacheStorage {
            entries: IdMap::default(),
            lru: LruQueue::new(),
            capacity,
            ttl,
            footprint: 0,
            floors: IdMap::default(),
        }
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The TTL policy in force.
    pub fn ttl(&self) -> TtlConfig {
        self.ttl
    }

    /// Looks up an object, returning a copy that shares its value blob and
    /// dependency list with the stored entry (refcount bumps, no deep copy);
    /// see [`CacheStorage::with_entry`].
    pub fn get(&mut self, id: ObjectId, now: SimTime) -> Option<ObjectEntry> {
        self.with_entry(id, now, Clone::clone)
    }

    /// Runs `f` against the cached entry **without cloning it**: the borrow
    /// lives only for the duration of the call (under the caller's stripe
    /// lock in [`ShardedCacheStorage`]); `None` means a miss. An expired
    /// entry is removed and reported as a miss. This is the one hit body:
    /// one map lookup, and the hit refreshes the object's LRU position only
    /// when a capacity bound exists — recency is read by capacity eviction
    /// and budget rebalancing alone, and a stripe is bounded or unbounded
    /// for life, so on an unbounded stripe the relinking is unobservable.
    // lint: hot-path
    pub fn with_entry<R>(
        &mut self,
        id: ObjectId,
        now: SimTime,
        f: impl FnOnce(&ObjectEntry) -> R,
    ) -> Option<R> {
        let stored = self.entries.get(&id)?;
        if stored.entry.is_expired(self.ttl, now) {
            self.remove(id);
            return None;
        }
        if self.capacity.is_some() {
            self.lru.touch(stored.slot);
        }
        Some(f(&stored.entry.entry))
    }

    /// Looks up an object without refreshing LRU or applying TTL
    /// (diagnostics and tests).
    pub fn peek(&self, id: ObjectId) -> Option<&CacheEntry> {
        self.entries.get(&id).map(|s| &s.entry)
    }

    /// Inserts (or refreshes) an object, evicting the LRU entry if the
    /// capacity bound is exceeded. Returns the evicted object, if any.
    ///
    /// An insert carrying an **older** version than the cached entry — or
    /// than the invalidation floor recorded for the object — is ignored.
    /// This is what makes the striped cache's miss path safe under
    /// concurrency: a thread that read version `v` from the backend may
    /// race with an invalidation for `v+1` (applied while the object was
    /// cached *or not*) and with a re-fetch of `v+1` by another thread;
    /// without the guard its late insert would (re)install the stale entry
    /// after the invalidation has already passed, poisoning the cache
    /// permanently under an infinite TTL. (The single-lock cache this
    /// replaced serialized fetch+insert+invalidation, so the case could not
    /// arise.) Equal versions refresh the entry and its TTL timestamp.
    pub fn insert(&mut self, entry: ObjectEntry, now: SimTime) -> Option<ObjectId> {
        let id = entry.id;
        if self.floors.get(&id).is_some_and(|&floor| entry.version < floor) {
            // An invalidation already superseded this version; admitting it
            // would resurrect data the database told us is stale.
            return None;
        }
        let size = entry.size_bytes();
        let cached = CacheEntry::new(entry, now);
        match self.entries.get_mut(&id) {
            Some(stored) if stored.entry.entry.version > cached.entry.version => {
                // Stale insert racing a newer entry: keep the newer one.
                return None;
            }
            Some(stored) => {
                self.footprint = self.footprint - stored.entry.entry.size_bytes() + size;
                stored.entry = cached;
                let slot = stored.slot;
                self.lru.touch(slot);
            }
            None => {
                let slot = self.lru.push_back(id);
                self.entries.insert(id, Stored { entry: cached, slot });
                self.footprint += size;
            }
        }
        if let Some(cap) = self.capacity {
            if self.entries.len() > cap {
                let victim = self.lru.front();
                if let Some(v) = victim {
                    self.remove(v);
                    return Some(v);
                }
            }
        }
        None
    }

    /// Removes an object from the cache (invalidation or strategy-driven
    /// eviction). Returns `true` if it was present.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        match self.entries.remove(&id) {
            Some(stored) => {
                self.footprint -= stored.entry.entry.size_bytes();
                self.lru.remove(stored.slot);
                true
            }
            None => false,
        }
    }

    /// Removes the object only if its cached version is older than
    /// `newer_than`. Returns `true` if an entry was removed.
    ///
    /// This is the invalidation path: an invalidation for version `v` must
    /// not evict a cache entry that is already at `v` or newer (which can
    /// happen when invalidations are reordered). Whether or not the object
    /// is currently cached, the invalidation raises the object's admission
    /// floor so a concurrently in-flight fetch of an older version cannot
    /// be inserted after the fact (see [`CacheStorage::insert`]).
    pub fn invalidate(&mut self, id: ObjectId, newer_than: Version) -> bool {
        let floor = self.floors.entry(id).or_insert(newer_than);
        *floor = (*floor).max(newer_than);
        match self.entries.get(&id) {
            Some(s) if s.entry.entry.version < newer_than => self.remove(id),
            _ => false,
        }
    }

    /// Drops every cached entry and every recorded admission floor — a
    /// cache crash (the store is lost) or a snapshot resync (everything
    /// held is suspect). Dropping the floors is safe because both events
    /// leave the store empty: every subsequent read misses to the backend
    /// and fetches a current version, at or above any floor ever recorded.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lru = LruQueue::new();
        self.footprint = 0;
        self.floors.clear();
    }

    /// The version currently cached for `id`, ignoring TTL.
    pub fn cached_version(&self, id: ObjectId) -> Option<Version> {
        self.entries.get(&id).map(|s| s.entry.entry.version)
    }

    /// All cached object ids (unspecified order).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.entries.keys().copied().collect()
    }

    /// Approximate memory footprint in bytes of the cached entries (O(1):
    /// maintained incrementally).
    pub fn footprint_bytes(&self) -> usize {
        self.footprint
    }
}

impl Default for CacheStorage {
    fn default() -> Self {
        CacheStorage::unlimited()
    }
}

/// Number of stripes used by [`ShardedCacheStorage::with_default_stripes`];
/// a power of two so stripe selection is a mask.
pub const DEFAULT_STRIPES: usize = 16;

/// How many inserts a capacity-bounded [`ShardedCacheStorage`] admits
/// between automatic budget rebalances (see
/// [`ShardedCacheStorage::rebalance_budgets`]).
pub const REBALANCE_INTERVAL: u64 = 1024;

/// Concurrent cache storage: N [`CacheStorage`] stripes keyed by object-id
/// hash, each behind its own short-held mutex.
///
/// All methods take `&self`; each call touches exactly one stripe
/// (aggregate queries like [`ShardedCacheStorage::len`] visit each stripe
/// in turn, never two at once), so the structure is deadlock-free by
/// construction and reads of different objects contend only when they
/// hash to the same stripe.
#[derive(Debug)]
pub struct ShardedCacheStorage {
    stripes: Striped<CacheStorage>,
    /// `true` when a capacity bound is configured (rebalancing applies).
    bounded: bool,
    /// Inserts since construction; every [`REBALANCE_INTERVAL`]-th insert
    /// triggers a budget rebalance on bounded storage.
    inserts: AtomicU64,
}

impl ShardedCacheStorage {
    /// Creates sharded storage with [`DEFAULT_STRIPES`] stripes.
    pub fn with_default_stripes(capacity: Option<usize>, ttl: TtlConfig) -> Self {
        ShardedCacheStorage::new(DEFAULT_STRIPES, capacity, ttl)
    }

    /// Creates sharded storage with `stripes` stripes (rounded up to a
    /// power of two). A total `capacity` is split evenly across stripes
    /// (`ceil(capacity / stripes)`, at least 1, per stripe).
    ///
    /// Because eviction is local to a stripe, the capacity is enforced per
    /// stripe, not globally: the aggregate entry count can exceed
    /// `capacity` by up to one entry per stripe when the split does not
    /// divide evenly (worst case `capacity + stripes - 1`). Callers that
    /// need a byte- or entry-exact budget should size `capacity` with that
    /// slack in mind. A skewed key distribution additionally shifts the
    /// budget between stripes over time; see
    /// [`ShardedCacheStorage::rebalance_budgets`].
    ///
    /// # Panics
    /// Panics if `stripes` is zero.
    pub fn new(stripes: usize, capacity: Option<usize>, ttl: TtlConfig) -> Self {
        // Build the stripes first and derive the per-stripe capacity from
        // the *actual* stripe count, so the split can never drift from
        // Striped's rounding policy.
        let mut stripes = Striped::new(stripes, || CacheStorage::new(None, ttl));
        if let Some(capacity) = capacity {
            let per_stripe = capacity.div_ceil(stripes.len()).max(1);
            for stripe in stripes.iter_mut() {
                stripe.get_mut().capacity = Some(per_stripe);
            }
        }
        ShardedCacheStorage {
            stripes,
            bounded: capacity.is_some(),
            inserts: AtomicU64::new(0),
        }
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe index `id` routes to.
    pub fn stripe_index_of(&self, id: ObjectId) -> usize {
        self.stripes.index_for(id.as_u64())
    }

    fn stripe(&self, id: ObjectId) -> &Mutex<CacheStorage> {
        self.stripes.stripe_for(id.as_u64())
    }

    /// Looks up an object, returning a shared copy; see
    /// [`CacheStorage::get`].
    pub fn get(&self, id: ObjectId, now: SimTime) -> Option<ObjectEntry> {
        self.with_entry(id, now, Clone::clone)
    }

    /// Runs `f` against the cached entry **without cloning it** (the borrow
    /// lives for the duration of the call, under the stripe lock); `None`
    /// means a miss. See [`CacheStorage::with_entry`].
    ///
    /// `f` must not call back into this storage (it runs under the stripe
    /// lock).
    // lint: hot-path
    pub fn with_entry<R>(
        &self,
        id: ObjectId,
        now: SimTime,
        f: impl FnOnce(&ObjectEntry) -> R,
    ) -> Option<R> {
        self.stripe(id).lock().with_entry(id, now, f)
    }

    /// Inserts (or refreshes) an object; see [`CacheStorage::insert`].
    /// On capacity-bounded storage, every [`REBALANCE_INTERVAL`]-th insert
    /// also rebalances the per-stripe budgets.
    pub fn insert(&self, entry: ObjectEntry, now: SimTime) -> Option<ObjectId> {
        let evicted = self.stripe(entry.id).lock().insert(entry, now);
        if self.bounded {
            let n = self.inserts.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(REBALANCE_INTERVAL) {
                self.rebalance_budgets();
            }
        }
        evicted
    }

    /// Removes an object, returning `true` if it was present.
    pub fn remove(&self, id: ObjectId) -> bool {
        self.stripe(id).lock().remove(id)
    }

    /// Applies an invalidation; see [`CacheStorage::invalidate`].
    pub fn invalidate(&self, id: ObjectId, newer_than: Version) -> bool {
        self.stripe(id).lock().invalidate(id, newer_than)
    }

    /// Clears every stripe (entries and admission floors); see
    /// [`CacheStorage::clear`]. Stripes are cleared one at a time, never
    /// holding two locks.
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            stripe.lock().clear();
        }
    }

    /// Returns `true` if `id` is currently cached (ignoring TTL).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.stripe(id).lock().peek(id).is_some()
    }

    /// The version currently cached for `id`, ignoring TTL.
    pub fn cached_version(&self, id: ObjectId) -> Option<Version> {
        self.stripe(id).lock().cached_version(id)
    }

    /// Total number of cached objects (sums the stripes; approximate under
    /// concurrent mutation).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// Returns `true` if nothing is cached in any stripe.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.lock().is_empty())
    }

    /// Approximate memory footprint of all cached entries, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().footprint_bytes())
            .sum()
    }

    /// Per-stripe `(len, capacity)` pairs (diagnostics and rebalance
    /// tests). Stripes are sampled one at a time.
    pub fn stripe_budgets(&self) -> Vec<(usize, Option<usize>)> {
        self.stripes
            .iter()
            .map(|s| {
                let stripe = s.lock();
                (stripe.len(), stripe.capacity)
            })
            .collect()
    }

    /// Installs a rebalanced capacity, evicting LRU entries if a racing
    /// insert pushed the stripe past the shrunken budget (rebalancing
    /// never *plans* forced evictions, but samples and installation are
    /// separate lock acquisitions, so the stripe may have grown between
    /// them).
    fn set_stripe_capacity(&self, at: usize, capacity: usize) {
        let mut stripe = self.stripes.stripe_at(at).lock();
        stripe.capacity = Some(capacity);
        while stripe.len() > capacity {
            let Some(victim) = stripe.lru.front() else { break };
            stripe.remove(victim);
        }
    }

    /// Rebalances the per-stripe entry budgets: stripes with spare
    /// capacity donate half their slack to stripes that are evicting
    /// (at or over their budget), preserving the total budget exactly.
    ///
    /// The even split chosen at construction evicts early under a skewed
    /// key distribution — a hot stripe hits its ceiling while cold
    /// stripes sit on unused budget. Bounded storage runs this
    /// automatically every [`REBALANCE_INTERVAL`] inserts; it is public
    /// so deployments with known skew phases can trigger it eagerly.
    ///
    /// Returns the number of budget units moved (0 when storage is
    /// unbounded, nothing is saturated, or nothing has slack). Each
    /// stripe is locked at most twice, one at a time — never two locks
    /// held together.
    pub fn rebalance_budgets(&self) -> usize {
        let budgets = self.stripe_budgets();
        let Some(caps) = budgets
            .iter()
            .map(|&(_, c)| c)
            .collect::<Option<Vec<usize>>>()
        else {
            return 0; // Unbounded: nothing to rebalance.
        };
        let lens: Vec<usize> = budgets.iter().map(|&(l, _)| l).collect();
        let takers: Vec<usize> = (0..caps.len()).filter(|&i| lens[i] >= caps[i]).collect();
        if takers.is_empty() {
            return 0;
        }
        // Donors give half their slack, never dropping below their current
        // occupancy (no forced evictions) or below one entry.
        let mut pool = 0usize;
        let mut new_caps = caps.clone();
        for i in 0..caps.len() {
            let slack = caps[i].saturating_sub(lens[i]);
            let donation = (slack / 2).min(caps[i].saturating_sub(lens[i].max(1)));
            if donation > 0 {
                new_caps[i] -= donation;
                pool += donation;
            }
        }
        if pool == 0 {
            return 0;
        }
        let moved = pool;
        // Round-robin the pooled budget over the saturated stripes so the
        // distribution is deterministic and even.
        let mut turn = 0usize;
        while pool > 0 {
            new_caps[takers[turn % takers.len()]] += 1;
            pool -= 1;
            turn += 1;
        }
        debug_assert_eq!(
            new_caps.iter().sum::<usize>(),
            caps.iter().sum::<usize>(),
            "rebalancing must preserve the total budget"
        );
        for (i, &cap) in new_caps.iter().enumerate() {
            if cap != caps[i] {
                self.set_stripe_capacity(i, cap);
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::{SimDuration, Value};

    fn obj(i: u64, v: u64) -> ObjectEntry {
        ObjectEntry::new(
            ObjectId(i),
            Value::new(v),
            Version(v),
            tcache_types::DependencyList::bounded(3),
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut s = CacheStorage::unlimited();
        assert!(s.is_empty());
        s.insert(obj(1, 1), SimTime::ZERO);
        assert_eq!(s.len(), 1);
        let got = s.get(ObjectId(1), SimTime::ZERO).unwrap();
        assert_eq!(got.version, Version(1));
        assert!(s.remove(ObjectId(1)));
        assert!(!s.remove(ObjectId(1)));
        assert!(s.get(ObjectId(1), SimTime::ZERO).is_none());
    }

    #[test]
    fn clear_drops_entries_floors_and_footprint() {
        let mut s = CacheStorage::unlimited();
        s.insert(obj(1, 1), SimTime::ZERO);
        s.insert(obj(2, 1), SimTime::ZERO);
        s.invalidate(ObjectId(3), Version(5));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.footprint_bytes(), 0);
        // The floor for object 3 is gone: an old version is admissible
        // again (the post-clear store only ever sees fresh fetches, so
        // this cannot resurrect stale data in practice).
        s.insert(obj(3, 2), SimTime::ZERO);
        assert_eq!(s.cached_version(ObjectId(3)), Some(Version(2)));

        let sharded = ShardedCacheStorage::with_default_stripes(None, TtlConfig::Infinite);
        sharded.insert(obj(1, 1), SimTime::ZERO);
        sharded.insert(obj(20, 1), SimTime::ZERO);
        sharded.clear();
        assert!(sharded.is_empty());
        assert_eq!(sharded.footprint_bytes(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut s = CacheStorage::new(Some(2), TtlConfig::Infinite);
        s.insert(obj(1, 1), SimTime::ZERO);
        s.insert(obj(2, 1), SimTime::ZERO);
        // Touch object 1 so object 2 becomes the LRU victim.
        s.get(ObjectId(1), SimTime::ZERO);
        let evicted = s.insert(obj(3, 1), SimTime::ZERO);
        assert_eq!(evicted, Some(ObjectId(2)));
        assert!(s.peek(ObjectId(1)).is_some());
        assert!(s.peek(ObjectId(2)).is_none());
        assert!(s.peek(ObjectId(3)).is_some());
    }

    #[test]
    fn eviction_follows_full_recency_order() {
        let mut s = CacheStorage::new(Some(3), TtlConfig::Infinite);
        s.insert(obj(1, 1), SimTime::ZERO);
        s.insert(obj(2, 1), SimTime::ZERO);
        s.insert(obj(3, 1), SimTime::ZERO);
        // Recency now 1 < 2 < 3. Touch 1 → 2 < 3 < 1. Touch 3 → 2 < 1 < 3.
        s.get(ObjectId(1), SimTime::ZERO);
        s.get(ObjectId(3), SimTime::ZERO);
        assert_eq!(s.insert(obj(4, 1), SimTime::ZERO), Some(ObjectId(2)));
        assert_eq!(s.insert(obj(5, 1), SimTime::ZERO), Some(ObjectId(1)));
        assert_eq!(s.insert(obj(6, 1), SimTime::ZERO), Some(ObjectId(3)));
        // Re-inserting an existing object refreshes instead of growing.
        assert_eq!(s.insert(obj(4, 2), SimTime::ZERO), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut s = CacheStorage::new(Some(1), TtlConfig::Infinite);
        assert_eq!(s.insert(obj(1, 1), SimTime::ZERO), None);
        assert_eq!(s.insert(obj(2, 1), SimTime::ZERO), Some(ObjectId(1)));
        assert_eq!(s.insert(obj(3, 1), SimTime::ZERO), Some(ObjectId(2)));
        assert_eq!(s.len(), 1);
        assert!(s.peek(ObjectId(3)).is_some());
        // Refreshing the only entry evicts nothing.
        assert_eq!(s.insert(obj(3, 2), SimTime::ZERO), None);
        assert_eq!(s.cached_version(ObjectId(3)), Some(Version(2)));
    }

    #[test]
    fn removing_and_reinserting_recycles_lru_slots() {
        let mut s = CacheStorage::new(Some(2), TtlConfig::Infinite);
        for round in 0..100u64 {
            s.insert(obj(round % 5, round), SimTime::ZERO);
            if round % 3 == 0 {
                s.remove(ObjectId(round % 5));
            }
            assert!(s.len() <= 2);
        }
        // The slab's free list keeps the queue compact: at most
        // capacity + 1 slots were ever needed simultaneously.
        assert!(s.lru.nodes.len() <= 3, "slots: {}", s.lru.nodes.len());
    }

    #[test]
    fn invalidation_while_uncached_vetoes_a_racing_stale_insert() {
        // The miss-path race: a fetcher read v1 from the backend, then an
        // invalidation for v2 arrives while nothing is cached (a no-op
        // eviction), then the fetcher's insert lands. The insert must be
        // rejected so the next read misses and fetches v2.
        let mut s = CacheStorage::unlimited();
        assert!(!s.invalidate(ObjectId(1), Version(2)), "nothing cached to evict");
        assert_eq!(s.insert(obj(1, 1), SimTime::ZERO), None);
        assert!(s.peek(ObjectId(1)).is_none(), "stale insert must be vetoed");
        // The current version (and anything newer) is admissible.
        s.insert(obj(1, 2), SimTime::ZERO);
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(2)));
        // Floors are monotone: a reordered older invalidation changes nothing.
        assert!(!s.invalidate(ObjectId(1), Version(1)));
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(2)));
    }

    #[test]
    fn stale_insert_never_buries_a_newer_entry() {
        let mut s = CacheStorage::unlimited();
        s.insert(obj(1, 5), SimTime::ZERO);
        // A racing thread's late insert of an older version is ignored…
        assert_eq!(s.insert(obj(1, 3), SimTime::from_secs(1)), None);
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(5)));
        // …an equal version refreshes (value + TTL timestamp)…
        s.insert(obj(1, 5), SimTime::from_secs(2));
        assert_eq!(s.peek(ObjectId(1)).unwrap().inserted_at, SimTime::from_secs(2));
        // …and a newer version replaces.
        s.insert(obj(1, 6), SimTime::from_secs(3));
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(6)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ttl_expiry_is_a_miss_and_removes_the_entry() {
        let ttl = TtlConfig::Limited(SimDuration::from_secs(10));
        let mut s = CacheStorage::new(None, ttl);
        assert_eq!(s.ttl(), ttl);
        s.insert(obj(1, 1), SimTime::ZERO);
        assert!(s.get(ObjectId(1), SimTime::from_secs(5)).is_some());
        assert!(s.get(ObjectId(1), SimTime::from_secs(11)).is_none());
        assert!(s.peek(ObjectId(1)).is_none(), "expired entry is dropped");
    }

    #[test]
    fn invalidate_only_removes_older_versions() {
        let mut s = CacheStorage::unlimited();
        s.insert(obj(1, 5), SimTime::ZERO);
        // An old (reordered) invalidation must not evict a newer entry.
        assert!(!s.invalidate(ObjectId(1), Version(5)));
        assert!(!s.invalidate(ObjectId(1), Version(3)));
        assert!(s.peek(ObjectId(1)).is_some());
        // A strictly newer version evicts.
        assert!(s.invalidate(ObjectId(1), Version(6)));
        assert!(s.peek(ObjectId(1)).is_none());
        // Invalidating an absent object is a no-op.
        assert!(!s.invalidate(ObjectId(9), Version(1)));
    }

    #[test]
    fn cached_version_and_ids() {
        let mut s = CacheStorage::unlimited();
        s.insert(obj(1, 4), SimTime::ZERO);
        s.insert(obj(2, 7), SimTime::ZERO);
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(4)));
        assert_eq!(s.cached_version(ObjectId(9)), None);
        let mut ids = s.object_ids();
        ids.sort();
        assert_eq!(ids, vec![ObjectId(1), ObjectId(2)]);
        assert!(s.footprint_bytes() > 0);
    }

    #[test]
    fn footprint_tracks_inserts_replacements_and_removals() {
        let mut s = CacheStorage::unlimited();
        assert_eq!(s.footprint_bytes(), 0);
        s.insert(obj(1, 1), SimTime::ZERO);
        let one = s.footprint_bytes();
        assert!(one > 0);
        s.insert(obj(2, 1), SimTime::ZERO);
        assert_eq!(s.footprint_bytes(), 2 * one);
        // Replacing an entry with a bigger payload adjusts, not adds.
        let big = ObjectEntry::new(
            ObjectId(1),
            Value::from_bytes(vec![0u8; 100]),
            Version(2),
            tcache_types::DependencyList::bounded(3),
        );
        let big_size = big.size_bytes();
        s.insert(big, SimTime::ZERO);
        assert_eq!(s.footprint_bytes(), one + big_size);
        s.remove(ObjectId(1));
        s.remove(ObjectId(2));
        assert_eq!(s.footprint_bytes(), 0);
    }

    #[test]
    fn reinsert_refreshes_value_and_timestamp() {
        let ttl = TtlConfig::Limited(SimDuration::from_secs(10));
        let mut s = CacheStorage::new(None, ttl);
        s.insert(obj(1, 1), SimTime::ZERO);
        s.insert(obj(1, 2), SimTime::from_secs(8));
        // Entry re-inserted at t=8s survives until t=18s.
        let e = s.get(ObjectId(1), SimTime::from_secs(15)).unwrap();
        assert_eq!(e.version, Version(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sharded_storage_mirrors_single_stripe_semantics() {
        let s = ShardedCacheStorage::new(8, None, TtlConfig::Infinite);
        assert_eq!(s.stripe_count(), 8);
        assert!(s.is_empty());
        for i in 0..100 {
            s.insert(obj(i, i + 1), SimTime::ZERO);
        }
        assert_eq!(s.len(), 100);
        assert!(s.contains(ObjectId(42)));
        assert_eq!(s.cached_version(ObjectId(42)), Some(Version(43)));
        assert!(s.footprint_bytes() > 0);
        assert!(s.get(ObjectId(42), SimTime::ZERO).is_some());
        assert!(s.invalidate(ObjectId(42), Version(100)));
        assert!(!s.contains(ObjectId(42)));
        assert!(s.remove(ObjectId(41)));
        assert_eq!(s.len(), 98);
    }

    #[test]
    fn sharded_storage_is_safe_under_concurrent_mixed_load() {
        use std::sync::Arc;
        let s = Arc::new(ShardedCacheStorage::with_default_stripes(
            Some(64),
            TtlConfig::Infinite,
        ));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let id = (t * 31 + i) % 128;
                        match i % 4 {
                            0 => {
                                s.insert(obj(id, i + 1), SimTime::ZERO);
                            }
                            1 => {
                                s.get(ObjectId(id), SimTime::ZERO);
                            }
                            2 => {
                                s.invalidate(ObjectId(id), Version(i));
                            }
                            _ => {
                                s.remove(ObjectId(id));
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Capacity is enforced per stripe (64 split over 16 stripes = 4
        // each); with an even split the total cannot exceed the bound.
        assert!(s.len() <= 64);
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn zero_stripes_panics() {
        let _ = ShardedCacheStorage::new(0, None, TtlConfig::Infinite);
    }

    /// Regression test for the even-split eviction problem: a key
    /// distribution skewed onto one stripe used to evict at the stripe's
    /// even share (4 of 64) while the other 15 stripes sat on unused
    /// budget. Rebalancing must donate that slack to the hot stripe —
    /// without ever growing the total budget.
    #[test]
    fn skewed_load_donates_budget_to_the_hot_stripe() {
        let s = ShardedCacheStorage::new(16, Some(64), TtlConfig::Infinite);
        let hot = s.stripe_index_of(ObjectId(0));
        // 40 distinct keys that all route to the hot stripe.
        let keys: Vec<u64> = (0..100_000u64)
            .filter(|&k| s.stripe_index_of(ObjectId(k)) == hot)
            .take(40)
            .collect();
        assert_eq!(keys.len(), 40);
        let even_share = 64usize.div_ceil(16);
        let total_before: usize = s.stripe_budgets().iter().map(|b| b.1.unwrap()).sum();
        for (i, &k) in keys.iter().enumerate() {
            s.insert(obj(k, 1), SimTime::ZERO);
            // "Periodic": what the insert counter does every
            // REBALANCE_INTERVAL inserts, forced here so the test
            // doesn't need a thousand warm-up inserts.
            if i % 8 == 7 {
                s.rebalance_budgets();
            }
        }
        let budgets = s.stripe_budgets();
        let total_after: usize = budgets.iter().map(|b| b.1.unwrap()).sum();
        assert_eq!(total_after, total_before, "budget must be conserved");
        assert!(
            budgets[hot].1.unwrap() > even_share,
            "the hot stripe must receive donated budget, got {:?}",
            budgets[hot]
        );
        assert!(
            budgets[hot].0 > even_share,
            "the hot stripe must hold more than its even split, got {:?}",
            budgets[hot]
        );
        assert!(
            budgets.iter().all(|b| b.1.unwrap() >= 1),
            "donors never drop below one entry"
        );
        // Unbounded storage has nothing to move.
        let unbounded = ShardedCacheStorage::new(16, None, TtlConfig::Infinite);
        assert_eq!(unbounded.rebalance_budgets(), 0);
    }
}
