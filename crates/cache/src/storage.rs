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
//! * [`CacheStorage`] — a single-threaded store. A capacity-bounded one
//!   keeps recency as an intrusive doubly-linked list over slab indices
//!   (every touch, insert and remove O(1)); an unbounded one keeps none.
//! * [`ShardedCacheStorage`] — N independently locked [`CacheStorage`]
//!   stripes, keyed by `ObjectId` hash, so cache hits on different objects
//!   proceed in parallel. This is the structure [`crate::EdgeCache`] uses.
//!
//! A miss fetches from the backend with no lock held, so an invalidation
//! can land before the fetched entry does. Each stripe therefore has an
//! *admission epoch*, bumped by every invalidation and every clear; a miss
//! returns it as an [`AdmitToken`] and [`CacheStorage::insert`] admits only
//! if it is unchanged. The veto is conservative (an invalidation of another
//! object on the stripe also refuses): it costs a later miss, never a stale
//! hit.

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
        let slot = self.free.pop().unwrap_or(self.nodes.len());
        if slot == self.nodes.len() {
            self.nodes.push(node);
        } else {
            self.nodes[slot] = node;
        }
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
        (self.head != NIL).then(|| self.nodes[self.head].id)
    }
}

#[derive(Debug)]
struct Stored {
    entry: CacheEntry,
    /// The entry's LRU node; [`NIL`] on an unbounded stripe.
    slot: usize,
}

/// The admission epoch a miss saw on its stripe; valid only for inserting
/// the entry fetched for that same object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitToken(u64);

/// What an insert did with the entry it was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Installed or refreshed, evicting the capacity bound's LRU victim.
    Installed(Option<ObjectId>),
    /// Refused: the cached entry is newer.
    Superseded,
    /// Refused: the stripe's epoch moved since the token was taken.
    Vetoed,
}

/// One stripe of the cache's object storage (single-threaded; wrap it in
/// [`ShardedCacheStorage`] for concurrent use).
#[derive(Debug)]
pub struct CacheStorage {
    entries: IdMap<ObjectId, Stored>,
    /// Recency order; empty unless `capacity` is set.
    lru: LruQueue,
    capacity: Option<usize>,
    ttl: TtlConfig,
    /// Incrementally maintained sum of entry sizes, so footprint queries do
    /// not walk the map.
    footprint: usize,
    /// Admission epoch (see the module docs).
    epoch: u64,
}

impl CacheStorage {
    /// Creates storage with an optional capacity bound and a TTL policy.
    pub fn new(capacity: Option<usize>, ttl: TtlConfig) -> Self {
        CacheStorage {
            entries: IdMap::default(),
            lru: LruQueue::new(),
            capacity,
            ttl,
            footprint: 0,
            epoch: 0,
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

    /// The current admission epoch, for an insert that did not start from
    /// a miss (see [`CacheStorage::with_entry`]).
    pub fn token(&self) -> AdmitToken {
        AdmitToken(self.epoch)
    }

    /// Runs `f` against the cached entry **without cloning it**: the borrow
    /// lives only for the duration of the call (under the caller's stripe
    /// lock in [`ShardedCacheStorage`]). A miss returns the admission token
    /// to insert the fetched entry with. An expired entry is removed and
    /// reported as a miss. This is the one hit body: one map lookup, and
    /// the hit refreshes the object's LRU position only when a capacity
    /// bound exists — recency is read by capacity eviction and budget
    /// rebalancing alone, and a stripe is bounded or unbounded for life.
    // lint: hot-path
    pub fn with_entry<R>(
        &mut self,
        id: ObjectId,
        now: SimTime,
        f: impl FnOnce(&ObjectEntry) -> R,
    ) -> Result<R, AdmitToken> {
        let Some(stored) = self.entries.get(&id) else {
            return Err(self.token());
        };
        if stored.entry.is_expired(self.ttl, now) {
            self.remove(id);
            return Err(self.token());
        }
        if self.capacity.is_some() {
            self.lru.touch(stored.slot);
        }
        Ok(f(&stored.entry.entry))
    }

    /// Looks up an object without refreshing LRU or applying TTL
    /// (diagnostics and tests).
    pub fn peek(&self, id: ObjectId) -> Option<&CacheEntry> {
        self.entries.get(&id).map(|s| &s.entry)
    }

    /// Admits an entry fetched after `token` was taken, evicting the LRU
    /// entry if the capacity bound is exceeded. Refused if the stripe's
    /// epoch moved since (an invalidation or a clear in between may have
    /// superseded the fetch) or if the cached entry is newer (a concurrent
    /// reader installed a later version first); an equal version refreshes
    /// the entry and its TTL timestamp.
    pub fn insert(&mut self, entry: ObjectEntry, now: SimTime, token: AdmitToken) -> Admission {
        if token != self.token() {
            return Admission::Vetoed;
        }
        let id = entry.id;
        let size = entry.size_bytes();
        let bounded = self.capacity.is_some();
        // Plain probes, not `entries.entry(id)`: with it, hits measured ~8%
        // slower on tbench `read_hot` (it reserves on every vacant probe).
        match self.entries.get_mut(&id) {
            Some(stored) => {
                if stored.entry.entry.version > entry.version {
                    return Admission::Superseded;
                }
                self.footprint = self.footprint - stored.entry.entry.size_bytes() + size;
                stored.entry = CacheEntry::new(entry, now);
                if bounded {
                    self.lru.touch(stored.slot);
                }
            }
            None => {
                let slot = if bounded { self.lru.push_back(id) } else { NIL };
                self.entries.insert(id, Stored {
                    entry: CacheEntry::new(entry, now),
                    slot,
                });
                self.footprint += size;
            }
        }
        let victim = self
            .capacity
            .filter(|&cap| self.entries.len() > cap)
            .and_then(|_| self.lru.front());
        if let Some(victim) = victim {
            self.remove(victim);
        }
        Admission::Installed(victim)
    }

    /// Drops a removed entry's footprint and LRU node.
    fn unlink(&mut self, stored: &Stored) {
        self.footprint -= stored.entry.entry.size_bytes();
        if self.capacity.is_some() {
            self.lru.remove(stored.slot);
        }
    }

    /// Removes an object from the cache (strategy-driven eviction). Returns
    /// `true` if it was present.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        match self.entries.remove(&id) {
            Some(stored) => {
                self.unlink(&stored);
                true
            }
            None => false,
        }
    }

    /// Applies an invalidation with one map probe: removes the object if
    /// its cached version is older than `newer_than` (reordered or
    /// duplicated invalidations leave a newer entry alone), and bumps the
    /// admission epoch so a fetch in flight cannot land. Returns `true` if
    /// an entry was removed.
    pub fn invalidate(&mut self, id: ObjectId, newer_than: Version) -> bool {
        self.epoch += 1;
        match self.entries.remove(&id) {
            Some(stored) if stored.entry.entry.version < newer_than => {
                self.unlink(&stored);
                true
            }
            Some(newer) => {
                // A reordered or duplicated invalidation: keep the entry.
                self.entries.insert(id, newer);
                false
            }
            None => false,
        }
    }

    /// Drops every cached entry — a cache crash or a snapshot resync — and
    /// bumps the admission epoch: a fetch that started before may be stale,
    /// and the invalidation that would correct it is never sent again.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lru = LruQueue::new();
        self.footprint = 0;
        self.epoch += 1;
    }

    /// The version currently cached for `id`, ignoring TTL.
    pub fn cached_version(&self, id: ObjectId) -> Option<Version> {
        self.entries.get(&id).map(|s| s.entry.entry.version)
    }

    /// Approximate memory footprint in bytes of the cached entries (O(1):
    /// maintained incrementally).
    pub fn footprint_bytes(&self) -> usize {
        self.footprint
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

    /// The stripe index `id` routes to.
    pub fn stripe_index_of(&self, id: ObjectId) -> usize {
        self.stripes.index_for(id.as_u64())
    }

    fn stripe(&self, id: ObjectId) -> &Mutex<CacheStorage> {
        self.stripes.stripe_for(id.as_u64())
    }

    /// Looks up an object, returning a copy that shares its value blob and
    /// dependency list with the stored entry (refcount bumps, no deep copy).
    pub fn get(&self, id: ObjectId, now: SimTime) -> Option<ObjectEntry> {
        self.with_entry(id, now, Clone::clone).ok()
    }

    /// The admission epoch of `id`'s stripe, for an insert that did not
    /// start from a miss; see [`CacheStorage::token`].
    pub fn token(&self, id: ObjectId) -> AdmitToken {
        self.stripe(id).lock().token()
    }

    /// Runs `f` against the cached entry **without cloning it** (the borrow
    /// lives for the duration of the call, under the stripe lock); a miss
    /// returns the admission token for the fetched entry. See
    /// [`CacheStorage::with_entry`].
    ///
    /// `f` must not call back into this storage (it runs under the stripe
    /// lock).
    // lint: hot-path
    pub fn with_entry<R>(
        &self,
        id: ObjectId,
        now: SimTime,
        f: impl FnOnce(&ObjectEntry) -> R,
    ) -> Result<R, AdmitToken> {
        self.stripe(id).lock().with_entry(id, now, f)
    }

    /// Admits an entry fetched after `token` was taken; see
    /// [`CacheStorage::insert`]. On capacity-bounded storage, every
    /// [`REBALANCE_INTERVAL`]-th insert also rebalances the per-stripe
    /// budgets.
    pub fn insert(&self, entry: ObjectEntry, now: SimTime, token: AdmitToken) -> Admission {
        let admission = self.stripe(entry.id).lock().insert(entry, now, token);
        if self.bounded {
            let n = self.inserts.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(REBALANCE_INTERVAL) {
                self.rebalance_budgets();
            }
        }
        admission
    }

    /// Removes an object, returning `true` if it was present.
    pub fn remove(&self, id: ObjectId) -> bool {
        self.stripe(id).lock().remove(id)
    }

    /// Applies an invalidation; see [`CacheStorage::invalidate`].
    pub fn invalidate(&self, id: ObjectId, newer_than: Version) -> bool {
        self.stripe(id).lock().invalidate(id, newer_than)
    }

    /// Clears every stripe and bumps its admission epoch; see
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

    impl CacheStorage {
        fn unlimited() -> Self {
            CacheStorage::new(None, TtlConfig::Infinite)
        }

        fn get(&mut self, id: ObjectId, now: SimTime) -> Option<ObjectEntry> {
            self.with_entry(id, now, Clone::clone).ok()
        }

        /// Inserts with a token taken just before: no fetch to veto.
        fn put(&mut self, entry: ObjectEntry, now: SimTime) -> Admission {
            self.insert(entry, now, self.token())
        }
    }

    impl ShardedCacheStorage {
        fn put(&self, entry: ObjectEntry, now: SimTime) -> Admission {
            let token = self.token(entry.id);
            self.insert(entry, now, token)
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut s = CacheStorage::unlimited();
        assert!(s.is_empty());
        s.put(obj(1, 1), SimTime::ZERO);
        assert_eq!(s.len(), 1);
        let got = s.get(ObjectId(1), SimTime::ZERO).unwrap();
        assert_eq!(got.version, Version(1));
        assert!(s.remove(ObjectId(1)));
        assert!(!s.remove(ObjectId(1)));
        assert!(s.get(ObjectId(1), SimTime::ZERO).is_none());
    }

    #[test]
    fn clear_drops_entries_and_footprint() {
        let mut s = CacheStorage::new(Some(4), TtlConfig::Infinite);
        s.put(obj(1, 1), SimTime::ZERO);
        s.put(obj(2, 1), SimTime::ZERO);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.footprint_bytes(), 0);
        assert_eq!(s.lru.front(), None);
        // A fetch that starts after the clear is admitted as usual.
        s.put(obj(3, 2), SimTime::ZERO);
        assert_eq!(s.cached_version(ObjectId(3)), Some(Version(2)));

        let sharded = ShardedCacheStorage::with_default_stripes(None, TtlConfig::Infinite);
        sharded.put(obj(1, 1), SimTime::ZERO);
        sharded.put(obj(20, 1), SimTime::ZERO);
        sharded.clear();
        assert!(sharded.is_empty());
        assert_eq!(sharded.footprint_bytes(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut s = CacheStorage::new(Some(2), TtlConfig::Infinite);
        s.put(obj(1, 1), SimTime::ZERO);
        s.put(obj(2, 1), SimTime::ZERO);
        // Touch object 1 so object 2 becomes the LRU victim.
        s.get(ObjectId(1), SimTime::ZERO);
        let evicted = s.put(obj(3, 1), SimTime::ZERO);
        assert_eq!(evicted, Admission::Installed(Some(ObjectId(2))));
        assert!(s.peek(ObjectId(1)).is_some());
        assert!(s.peek(ObjectId(2)).is_none());
        assert!(s.peek(ObjectId(3)).is_some());
    }

    #[test]
    fn eviction_follows_full_recency_order() {
        let mut s = CacheStorage::new(Some(3), TtlConfig::Infinite);
        s.put(obj(1, 1), SimTime::ZERO);
        s.put(obj(2, 1), SimTime::ZERO);
        s.put(obj(3, 1), SimTime::ZERO);
        // Recency now 1 < 2 < 3. Touch 1 → 2 < 3 < 1. Touch 3 → 2 < 1 < 3.
        s.get(ObjectId(1), SimTime::ZERO);
        s.get(ObjectId(3), SimTime::ZERO);
        let installed = |victim| Admission::Installed(Some(ObjectId(victim)));
        assert_eq!(s.put(obj(4, 1), SimTime::ZERO), installed(2));
        assert_eq!(s.put(obj(5, 1), SimTime::ZERO), installed(1));
        assert_eq!(s.put(obj(6, 1), SimTime::ZERO), installed(3));
        // Re-inserting an existing object refreshes instead of growing.
        assert_eq!(s.put(obj(4, 2), SimTime::ZERO), Admission::Installed(None));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut s = CacheStorage::new(Some(1), TtlConfig::Infinite);
        let installed = |victim: Option<u64>| Admission::Installed(victim.map(ObjectId));
        assert_eq!(s.put(obj(1, 1), SimTime::ZERO), installed(None));
        assert_eq!(s.put(obj(2, 1), SimTime::ZERO), installed(Some(1)));
        assert_eq!(s.put(obj(3, 1), SimTime::ZERO), installed(Some(2)));
        assert_eq!(s.len(), 1);
        assert!(s.peek(ObjectId(3)).is_some());
        // Refreshing the only entry evicts nothing.
        assert_eq!(s.put(obj(3, 2), SimTime::ZERO), installed(None));
        assert_eq!(s.cached_version(ObjectId(3)), Some(Version(2)));
    }

    #[test]
    fn removing_and_reinserting_recycles_lru_slots() {
        let mut s = CacheStorage::new(Some(2), TtlConfig::Infinite);
        for round in 0..100u64 {
            s.put(obj(round % 5, round), SimTime::ZERO);
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
    fn unbounded_stripes_keep_no_lru_nodes() {
        let mut s = CacheStorage::unlimited();
        for round in 0..100u64 {
            s.put(obj(round % 5, round), SimTime::ZERO);
            s.get(ObjectId(round % 7), SimTime::ZERO);
            if round % 3 == 0 {
                s.invalidate(ObjectId(round % 5), Version(round + 1));
            }
        }
        assert!(!s.is_empty());
        assert!(s.lru.nodes.is_empty() && s.lru.front().is_none());
    }

    #[test]
    fn invalidation_while_uncached_vetoes_a_racing_stale_insert() {
        // The miss-path race: a fetcher misses and reads v1 from the
        // backend, then an invalidation for v2 arrives while nothing is
        // cached (a no-op eviction), then the fetcher's insert lands. The
        // insert must be refused so the next read misses and fetches v2.
        let mut s = CacheStorage::unlimited();
        let token = s
            .with_entry(ObjectId(1), SimTime::ZERO, |_| ())
            .unwrap_err();
        assert!(
            !s.invalidate(ObjectId(1), Version(2)),
            "nothing cached to evict"
        );
        assert_eq!(s.insert(obj(1, 1), SimTime::ZERO, token), Admission::Vetoed);
        assert!(s.peek(ObjectId(1)).is_none(), "stale insert must be vetoed");
        // So is a fetch of another object on the stripe (the conservative
        // veto)…
        let token = s.token();
        s.invalidate(ObjectId(2), Version(9));
        assert_eq!(s.insert(obj(1, 2), SimTime::ZERO, token), Admission::Vetoed);
        // …while a fetch that starts after the invalidation is admitted.
        s.put(obj(1, 2), SimTime::ZERO);
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(2)));
        // A reordered older invalidation leaves the newer entry alone.
        assert!(!s.invalidate(ObjectId(1), Version(1)));
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(2)));
    }

    /// A fetch that started before a crash or snapshot resync must not
    /// land afterwards: the invalidation it missed is never sent again.
    #[test]
    fn a_fetch_straddling_a_clear_is_refused() {
        let mut s = CacheStorage::unlimited();
        s.put(obj(1, 1), SimTime::ZERO);
        let token = s
            .with_entry(ObjectId(2), SimTime::ZERO, |_| ())
            .unwrap_err();
        s.clear();
        assert_eq!(s.insert(obj(2, 1), SimTime::ZERO, token), Admission::Vetoed);
        assert!(s.is_empty());
    }

    /// The same race across threads: the fetcher takes its token from a
    /// miss, the other thread clears the sharded storage, the fetcher's
    /// insert is refused.
    #[test]
    fn a_fetch_straddling_a_clear_on_another_thread_is_refused() {
        let s = ShardedCacheStorage::with_default_stripes(None, TtlConfig::Infinite);
        let missed = std::sync::Barrier::new(2);
        let cleared = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                missed.wait();
                s.clear();
                cleared.wait();
            });
            let token = s
                .with_entry(ObjectId(7), SimTime::ZERO, |_| ())
                .unwrap_err();
            missed.wait();
            cleared.wait();
            assert_eq!(s.insert(obj(7, 1), SimTime::ZERO, token), Admission::Vetoed);
        });
        assert!(!s.contains(ObjectId(7)));
    }

    #[test]
    fn stale_insert_never_buries_a_newer_entry() {
        let mut s = CacheStorage::unlimited();
        s.put(obj(1, 5), SimTime::ZERO);
        // A racing thread's late insert of an older version is ignored…
        assert_eq!(
            s.put(obj(1, 3), SimTime::from_secs(1)),
            Admission::Superseded
        );
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(5)));
        // …an equal version refreshes (value + TTL timestamp)…
        s.put(obj(1, 5), SimTime::from_secs(2));
        assert_eq!(
            s.peek(ObjectId(1)).unwrap().inserted_at,
            SimTime::from_secs(2)
        );
        // …and a newer version replaces.
        s.put(obj(1, 6), SimTime::from_secs(3));
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(6)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ttl_expiry_is_a_miss_and_removes_the_entry() {
        let ttl = TtlConfig::Limited(SimDuration::from_secs(10));
        let mut s = CacheStorage::new(None, ttl);
        s.put(obj(1, 1), SimTime::ZERO);
        assert!(s.get(ObjectId(1), SimTime::from_secs(5)).is_some());
        assert!(s.get(ObjectId(1), SimTime::from_secs(11)).is_none());
        assert!(s.peek(ObjectId(1)).is_none(), "expired entry is dropped");
    }

    #[test]
    fn invalidate_only_removes_older_versions() {
        let mut s = CacheStorage::unlimited();
        s.put(obj(1, 5), SimTime::ZERO);
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
        s.put(obj(1, 4), SimTime::ZERO);
        s.put(obj(2, 7), SimTime::ZERO);
        assert_eq!(s.cached_version(ObjectId(1)), Some(Version(4)));
        assert_eq!(s.cached_version(ObjectId(9)), None);
        let mut ids: Vec<ObjectId> = s.entries.keys().copied().collect();
        ids.sort();
        assert_eq!(ids, vec![ObjectId(1), ObjectId(2)]);
        assert!(s.footprint_bytes() > 0);
    }

    #[test]
    fn footprint_tracks_inserts_replacements_and_removals() {
        let mut s = CacheStorage::unlimited();
        assert_eq!(s.footprint_bytes(), 0);
        s.put(obj(1, 1), SimTime::ZERO);
        let one = s.footprint_bytes();
        assert!(one > 0);
        s.put(obj(2, 1), SimTime::ZERO);
        assert_eq!(s.footprint_bytes(), 2 * one);
        // Replacing an entry with a bigger payload adjusts, not adds.
        let big = ObjectEntry::new(
            ObjectId(1),
            Value::from_bytes(vec![0u8; 100]),
            Version(2),
            tcache_types::DependencyList::bounded(3),
        );
        let big_size = big.size_bytes();
        s.put(big, SimTime::ZERO);
        assert_eq!(s.footprint_bytes(), one + big_size);
        s.remove(ObjectId(1));
        s.remove(ObjectId(2));
        assert_eq!(s.footprint_bytes(), 0);
    }

    #[test]
    fn reinsert_refreshes_value_and_timestamp() {
        let ttl = TtlConfig::Limited(SimDuration::from_secs(10));
        let mut s = CacheStorage::new(None, ttl);
        s.put(obj(1, 1), SimTime::ZERO);
        s.put(obj(1, 2), SimTime::from_secs(8));
        // Entry re-inserted at t=8s survives until t=18s.
        let e = s.get(ObjectId(1), SimTime::from_secs(15)).unwrap();
        assert_eq!(e.version, Version(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn sharded_storage_mirrors_single_stripe_semantics() {
        let s = ShardedCacheStorage::new(8, None, TtlConfig::Infinite);
        assert_eq!(s.stripe_budgets().len(), 8);
        assert!(s.is_empty());
        for i in 0..100 {
            s.put(obj(i, i + 1), SimTime::ZERO);
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
                                s.put(obj(id, i + 1), SimTime::ZERO);
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
            s.put(obj(k, 1), SimTime::ZERO);
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
