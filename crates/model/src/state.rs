//! The explicit model state and its transition function.
//!
//! [`ModelState`] is a canonical, hashable snapshot of the whole closed
//! system: backend store (versions, dependency lists, invalidation log),
//! every cache (lifecycle, stream position, store, in-flight queue,
//! lifecycle counters) and every scripted transaction's record. The
//! transition function [`ModelState::apply`] mirrors the implementation
//! *line by line* — `Database::execute_update`,
//! `EdgeCache::apply_invalidation` / `resync`, the lifecycle entry points
//! and the cache's read step with its `TxnRecord` incremental consistency
//! check (the one record and one step every read of the real cache runs,
//! whole-transaction call or key by key) — so that the differential bridge
//! can replay any model trace against the real stack and demand exact
//! agreement on every observable.
//!
//! Versions are plain `u64`s: the backend's version clock assigns
//! `max(clock, observed) + 1` and the model commits updates one at a time,
//! so versions are simply `1, 2, 3, …` in commit order, matching the real
//! `VersionClock` deterministically.

use crate::config::ModelConfig;
use std::collections::{BTreeMap, VecDeque};
use tcache_types::ProtocolAction;

/// An ordered dependency list mirroring `tcache_types::DependencyList`
/// (most-recent-first entries, dedup by object keeping the max version).
///
/// Order matters: the implementation reports the *worst-gap* violating
/// object, breaking ties by iteration order, so a set-shaped model would
/// diverge from the real cache on which object a violation names.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelDeps {
    entries: Vec<(u64, u64)>,
}

impl ModelDeps {
    /// The empty list.
    pub fn new() -> Self {
        ModelDeps::default()
    }

    /// Entries, most recent first.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, u64)> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mirrors `DependencyList::record`: dedup by object keeping the max
    /// version, move to the most-recent position.
    pub fn record(&mut self, object: u64, version: u64) {
        let merged = match self.entries.iter().position(|&(o, _)| o == object) {
            Some(idx) => {
                let (_, existing) = self.entries.remove(idx);
                existing.max(version)
            }
            None => version,
        };
        self.entries.insert(0, (object, merged));
    }

    /// Mirrors `DependencyList::merge`: record the other list's entries
    /// from least- to most-recent.
    pub fn merge(&mut self, other: &ModelDeps) {
        for &(object, version) in other.entries.iter().rev() {
            self.record(object, version);
        }
    }

    /// Mirrors `AggregatedDependencies::list_for` under an unbounded
    /// bound: the list without `key` itself.
    pub fn without(&self, key: u64) -> ModelDeps {
        ModelDeps {
            entries: self
                .entries
                .iter()
                .filter(|&&(o, _)| o != key)
                .copied()
                .collect(),
        }
    }

    /// Mirrors re-bounding on cache install (`DependencyList::rebounded`):
    /// keep the `limit` most recent entries.
    pub fn rebounded(&self, limit: usize) -> ModelDeps {
        ModelDeps {
            entries: self.entries.iter().take(limit).copied().collect(),
        }
    }
}

/// One sequenced invalidation as it appears in the backend log and in
/// cache in-flight queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelInvalidation {
    /// Stream position (1-based; the model never emits unsequenced
    /// invalidations).
    pub seq: u64,
    /// The invalidated object.
    pub object: u64,
    /// The version installed by the committing update.
    pub version: u64,
    /// Index of the committing update in the configuration.
    pub update: usize,
}

/// Mirror of `InvalidationReplay` for the model's backend log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelReplay {
    /// The suffix after the requested position, fully retained.
    Replayed(Vec<ModelInvalidation>),
    /// The suffix is no longer retained; only the latest position is known.
    Truncated {
        /// The newest sequence number ever issued.
        latest: u64,
    },
}

/// The backend database's state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DbState {
    /// Current version per object (index = object id).
    pub versions: Vec<u64>,
    /// Dependency list stored per object.
    pub deps: Vec<ModelDeps>,
    /// The version clock (last version assigned).
    pub clock: u64,
    /// Retained suffix of the invalidation log (oldest first).
    pub log: VecDeque<ModelInvalidation>,
    /// Newest sequence number ever issued (0 = none).
    pub latest_seq: u64,
}

impl DbState {
    fn initial(objects: u64) -> Self {
        DbState {
            versions: vec![0; objects as usize],
            deps: vec![ModelDeps::new(); objects as usize],
            clock: 0,
            log: VecDeque::new(),
            latest_seq: 0,
        }
    }

    /// Mirrors `InvalidationLog::replay_after`.
    pub fn replay_after(&self, after_seq: u64) -> ModelReplay {
        if after_seq >= self.latest_seq {
            return ModelReplay::Replayed(Vec::new());
        }
        match self.log.front() {
            Some(oldest) if oldest.seq <= after_seq + 1 => ModelReplay::Replayed(
                self.log
                    .iter()
                    .filter(|inv| inv.seq > after_seq)
                    .copied()
                    .collect(),
            ),
            _ => ModelReplay::Truncated {
                latest: self.latest_seq,
            },
        }
    }
}

/// Mirror of `LifecycleState` with time in logical ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheStatus {
    /// Connected and serving.
    Healthy,
    /// Link severed (partition or crash); `since` is the clock tick the
    /// disconnect happened at.
    Disconnected {
        /// Clock value when the link was severed.
        since: u64,
        /// Whether the disconnect was a crash (store lost).
        crashed: bool,
    },
    /// Staleness budget exhausted: serving pass-through reads.
    Degraded {
        /// Whether the underlying disconnect was a crash.
        crashed: bool,
    },
}

impl CacheStatus {
    /// The same tag `LifecycleState::name` reports (compared by the
    /// bridge).
    pub fn name(&self) -> &'static str {
        match self {
            CacheStatus::Healthy => "healthy",
            CacheStatus::Disconnected { crashed: true, .. } => "crashed",
            CacheStatus::Disconnected { crashed: false, .. } => "disconnected",
            CacheStatus::Degraded { .. } => "degraded",
        }
    }

    /// `true` for crash-originated disconnects.
    pub fn is_crashed(&self) -> bool {
        matches!(
            self,
            CacheStatus::Disconnected { crashed: true, .. } | CacheStatus::Degraded { crashed: true }
        )
    }
}

/// One cache entry: the cached version and its (re-bounded) dependency
/// list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreEntry {
    /// The cached version.
    pub version: u64,
    /// The dependency list installed with it.
    pub deps: ModelDeps,
}

/// One edge cache's state, including the lifecycle counters the bridge
/// compares against `LifecycleStatsSnapshot`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheState {
    /// Lifecycle status.
    pub status: CacheStatus,
    /// Highest invalidation sequence number applied (`last_applied_seq`).
    pub last_seq: u64,
    /// The local store: object → entry.
    pub store: BTreeMap<u64, StoreEntry>,
    /// Invalidations published to this cache but not yet delivered
    /// (oldest first). Severing the link clears the queue.
    pub pending: VecDeque<ModelInvalidation>,
    /// Mirror of `LifecycleStats::gaps_detected`.
    pub gaps_detected: u64,
    /// Mirror of `LifecycleStats::invalidations_missed`.
    pub invalidations_missed: u64,
    /// Mirror of `LifecycleStats::log_replays`.
    pub log_replays: u64,
    /// Mirror of `LifecycleStats::replayed_invalidations`.
    pub replayed_invalidations: u64,
    /// Mirror of `LifecycleStats::snapshot_resyncs`.
    pub snapshot_resyncs: u64,
    /// Mirror of `LifecycleStats::pass_through_txns`.
    pub pass_through_txns: u64,
    /// Mirror of `LifecycleStats::crashes`.
    pub crashes: u64,
    /// Mirror of `LifecycleStats::partitions`.
    pub partitions: u64,
    /// Mirror of `LifecycleStats::reconnects`.
    pub reconnects: u64,
}

impl CacheState {
    fn initial() -> Self {
        CacheState {
            status: CacheStatus::Healthy,
            last_seq: 0,
            store: BTreeMap::new(),
            pending: VecDeque::new(),
            gaps_detected: 0,
            invalidations_missed: 0,
            log_replays: 0,
            replayed_invalidations: 0,
            snapshot_resyncs: 0,
            pass_through_txns: 0,
            crashes: 0,
            partitions: 0,
            reconnects: 0,
        }
    }
}

/// The serving mode a read-only transaction latched at its first step,
/// mirroring `ReadMode` (decided once per transaction in
/// `EdgeCache::execute_read_only`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnMode {
    /// Served from the local store through the regular (checked) path.
    Cached,
    /// Served directly from the backend (degraded cache).
    PassThrough,
}

/// How a read-only transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnOutcome {
    /// All scripted reads completed.
    Committed,
    /// The consistency check aborted the transaction at `violating_object`.
    Aborted {
        /// The object the violation names (compared against the
        /// implementation's `InconsistencyAbort`).
        violating_object: u64,
    },
}

/// One scripted read-only transaction's record, mirroring the two maps of
/// the cache's `TxnRecord` (as ordered maps, so states hash canonically).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TxnState {
    /// Next script position to execute.
    pub next_key: usize,
    /// Serving mode, latched at the first step.
    pub mode: Option<TxnMode>,
    /// Set when the transaction finished.
    pub outcome: Option<TxnOutcome>,
    /// `(object, version)` pairs returned to the client, in read order.
    pub observed: Vec<(u64, u64)>,
    /// Max version each object is expected at (`TxnRecord::expected`).
    pub expected: BTreeMap<u64, u64>,
    /// Min version observed per returned object
    /// (`TxnRecord::observed_floor`).
    pub floor: BTreeMap<u64, u64>,
}

impl TxnState {
    fn initial() -> Self {
        TxnState {
            next_key: 0,
            mode: None,
            outcome: None,
            observed: Vec::new(),
            expected: BTreeMap::new(),
            floor: BTreeMap::new(),
        }
    }

    /// `true` once the transaction committed or aborted.
    pub fn finished(&self) -> bool {
        self.outcome.is_some()
    }
}

/// The violation the model's consistency check reports (mirror of the
/// cache's `Violation`, reduced to what the ABORT strategy uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModelViolation {
    violating_object: u64,
    observed_version: u64,
    expected_version: u64,
}

/// Mirrors `consistency::pick_worse`: keep the larger expected−observed
/// gap, ties to the incumbent.
fn pick_worse(current: Option<ModelViolation>, candidate: ModelViolation) -> Option<ModelViolation> {
    match current {
        None => Some(candidate),
        Some(existing) => {
            let existing_gap = existing.expected_version - existing.observed_version;
            let candidate_gap = candidate.expected_version - candidate.observed_version;
            if candidate_gap > existing_gap {
                Some(candidate)
            } else {
                Some(existing)
            }
        }
    }
}

/// The complete model state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// Backend database.
    pub db: DbState,
    /// Edge caches, indexed like [`ModelConfig::caches`].
    pub caches: Vec<CacheState>,
    /// Scripted read-only transactions, indexed like
    /// [`ModelConfig::reads`].
    pub txns: Vec<TxnState>,
    /// `(update index, version)` for every committed update, in commit
    /// order. Together with the configuration this determines the full
    /// (untruncated) invalidation stream.
    pub committed: Vec<(usize, u64)>,
    /// The logical clock (number of [`ProtocolAction::Tick`]s applied).
    pub clock: u64,
    /// Crashes consumed from the fault budget.
    pub crashes_used: u32,
    /// Partitions consumed from the fault budget.
    pub partitions_used: u32,
    /// Drops consumed from the fault budget.
    pub drops_used: u32,
}

impl ModelState {
    /// The initial state of `config`: empty caches, cold log, version 0
    /// everywhere.
    pub fn initial(config: &ModelConfig) -> Self {
        ModelState {
            db: DbState::initial(config.objects),
            caches: config.caches.iter().map(|_| CacheState::initial()).collect(),
            txns: config.reads.iter().map(|_| TxnState::initial()).collect(),
            committed: Vec::new(),
            clock: 0,
            crashes_used: 0,
            partitions_used: 0,
            drops_used: 0,
        }
    }

    /// `true` when `update` has already committed.
    pub fn update_committed(&self, update: usize) -> bool {
        self.committed.iter().any(|&(u, _)| u == update)
    }

    /// Reconstructs the full (never truncated) invalidation stream from
    /// the committed-update history: sequence numbers are issued in commit
    /// order, one per written object in write-set order — exactly how
    /// `InvalidationLog::record` stamps them.
    pub fn full_stream(&self, config: &ModelConfig) -> Vec<ModelInvalidation> {
        let mut stream = Vec::new();
        let mut seq = 0;
        for &(update, version) in &self.committed {
            for &object in &config.updates[update] {
                seq += 1;
                stream.push(ModelInvalidation {
                    seq,
                    object,
                    version,
                    update,
                });
            }
        }
        stream
    }

    /// Whether `action` is applicable in this state. Single source of
    /// truth: [`ModelState::enabled`] enumerates candidates and filters
    /// through this, and [`ModelState::apply`] rejects actions it returns
    /// `false` for.
    pub fn is_enabled(&self, config: &ModelConfig, action: ProtocolAction) -> bool {
        match action {
            ProtocolAction::UpdateCommit { update } => {
                update < config.updates.len() && !self.update_committed(update)
            }
            ProtocolAction::Deliver { cache, index } => {
                cache < self.caches.len()
                    && self.caches[cache].status == CacheStatus::Healthy
                    && index < self.caches[cache].pending.len()
                    && index < config.faults.reorder_window
            }
            ProtocolAction::DropInvalidation { cache, index } => {
                self.drops_used < config.faults.drops
                    && cache < self.caches.len()
                    && self.caches[cache].status == CacheStatus::Healthy
                    && index < self.caches[cache].pending.len()
                    && index < config.faults.reorder_window
            }
            ProtocolAction::ReadStep { txn } => {
                txn < self.txns.len()
                    && !self.txns[txn].finished()
                    && !self.caches[config.reads[txn].cache].status.is_crashed()
            }
            ProtocolAction::Crash { cache } => {
                self.crashes_used < config.faults.crashes
                    && cache < self.caches.len()
                    && self.caches[cache].status == CacheStatus::Healthy
            }
            ProtocolAction::Restart { cache } => {
                cache < self.caches.len() && self.caches[cache].status.is_crashed()
            }
            ProtocolAction::Partition { cache } => {
                self.partitions_used < config.faults.partitions
                    && cache < self.caches.len()
                    && self.caches[cache].status == CacheStatus::Healthy
            }
            ProtocolAction::Reconnect { cache } => {
                cache < self.caches.len()
                    && matches!(
                        self.caches[cache].status,
                        CacheStatus::Disconnected { crashed: false, .. }
                            | CacheStatus::Degraded { crashed: false }
                    )
            }
            ProtocolAction::Tick => self.clock < u64::from(config.faults.ticks),
        }
    }

    /// Enumerates every enabled action in a fixed, deterministic order
    /// (updates, read steps, then per cache deliveries / drops / faults,
    /// then the clock tick).
    pub fn enabled(&self, config: &ModelConfig) -> Vec<ProtocolAction> {
        let mut actions = Vec::new();
        for update in 0..config.updates.len() {
            actions.push(ProtocolAction::UpdateCommit { update });
        }
        for txn in 0..config.reads.len() {
            actions.push(ProtocolAction::ReadStep { txn });
        }
        for cache in 0..self.caches.len() {
            for index in 0..config.faults.reorder_window {
                actions.push(ProtocolAction::Deliver { cache, index });
            }
            for index in 0..config.faults.reorder_window {
                actions.push(ProtocolAction::DropInvalidation { cache, index });
            }
            actions.push(ProtocolAction::Crash { cache });
            actions.push(ProtocolAction::Restart { cache });
            actions.push(ProtocolAction::Partition { cache });
            actions.push(ProtocolAction::Reconnect { cache });
        }
        actions.push(ProtocolAction::Tick);
        actions.retain(|&a| self.is_enabled(config, a));
        actions
    }

    /// Applies `action`, returning the successor state, or `None` when the
    /// action is not enabled (used by trace replay and minimization to
    /// reject invalid candidate traces).
    pub fn apply(&self, config: &ModelConfig, action: ProtocolAction) -> Option<ModelState> {
        if !self.is_enabled(config, action) {
            return None;
        }
        let mut next = self.clone();
        match action {
            ProtocolAction::UpdateCommit { update } => next.commit_update(config, update),
            ProtocolAction::Deliver { cache, index } => {
                let inv = next.caches[cache].pending.remove(index).expect("enabled");
                next.apply_invalidation(config, cache, inv);
            }
            ProtocolAction::DropInvalidation { cache, index } => {
                next.caches[cache].pending.remove(index).expect("enabled");
                next.drops_used += 1;
            }
            ProtocolAction::ReadStep { txn } => next.read_step(config, txn),
            ProtocolAction::Crash { cache } => {
                let c = &mut next.caches[cache];
                c.store.clear();
                c.pending.clear();
                c.crashes += 1;
                c.status = CacheStatus::Disconnected {
                    since: next.clock,
                    crashed: true,
                };
                next.crashes_used += 1;
            }
            ProtocolAction::Restart { cache } => {
                let latest = next.db.latest_seq;
                let c = &mut next.caches[cache];
                c.last_seq = latest;
                c.status = CacheStatus::Healthy;
            }
            ProtocolAction::Partition { cache } => {
                let c = &mut next.caches[cache];
                c.partitions += 1;
                c.pending.clear();
                c.status = CacheStatus::Disconnected {
                    since: next.clock,
                    crashed: false,
                };
                next.partitions_used += 1;
            }
            ProtocolAction::Reconnect { cache } => {
                next.caches[cache].reconnects += 1;
                if config.recovery.resyncs() {
                    next.resync(cache);
                }
                next.caches[cache].status = CacheStatus::Healthy;
            }
            ProtocolAction::Tick => next.clock += 1,
        }
        Some(next)
    }

    /// Mirrors `Database::execute_update_writes` for an update whose read
    /// and write sets are both the configured write set, followed by
    /// `InvalidationLog::record` and the publish fan-out (enqueue to every
    /// healthy cache).
    fn commit_update(&mut self, config: &ModelConfig, update: usize) {
        let writes = &config.updates[update];
        // Version clock: max(clock, observed) + 1; observed versions never
        // exceed the clock, so this is clock + 1.
        let version = self.db.clock + 1;
        self.db.clock = version;

        // Aggregate dependencies: inherited lists first (older info), the
        // access set last (newest), written objects at the new version.
        let mut full = ModelDeps::new();
        for &object in writes {
            full.merge(&self.db.deps[object as usize]);
        }
        for &object in writes {
            full.record(object, version);
        }
        for &object in writes {
            self.db.deps[object as usize] = full.without(object);
            self.db.versions[object as usize] = version;
        }

        // Sequenced invalidations: stamped from latest + 1 in write-set
        // order, recorded in the ring buffer, fanned out to every cache
        // whose link is up.
        for &object in writes {
            self.db.latest_seq += 1;
            let inv = ModelInvalidation {
                seq: self.db.latest_seq,
                object,
                version,
                update,
            };
            self.db.log.push_back(inv);
            while self.db.log.len() > config.log_capacity {
                self.db.log.pop_front();
            }
            for cache in &mut self.caches {
                if cache.status == CacheStatus::Healthy {
                    cache.pending.push_back(inv);
                }
            }
        }
        self.committed.push((update, version));
    }

    /// Mirrors `EdgeCache::apply_invalidation`.
    fn apply_invalidation(&mut self, config: &ModelConfig, cache: usize, inv: ModelInvalidation) {
        self.observe_stream_position(config, cache, inv.seq);
        self.invalidate_store(cache, inv.object, inv.version);
    }

    /// Mirrors `ShardedCacheStorage::invalidate`: evict iff the cached
    /// entry is older than the invalidated version.
    fn invalidate_store(&mut self, cache: usize, object: u64, version: u64) {
        let store = &mut self.caches[cache].store;
        if store.get(&object).is_some_and(|e| e.version < version) {
            store.remove(&object);
        }
    }

    /// Mirrors `EdgeCache::observe_stream_position`.
    fn observe_stream_position(&mut self, config: &ModelConfig, cache: usize, seq: u64) {
        let prev = self.caches[cache].last_seq;
        if seq <= prev {
            return;
        }
        if seq > prev + 1 {
            self.caches[cache].gaps_detected += 1;
            self.caches[cache].invalidations_missed += seq - prev - 1;
            if config.recovery.resyncs() && self.caches[cache].status == CacheStatus::Healthy {
                self.resync(cache);
                return;
            }
        }
        self.caches[cache].last_seq = seq;
    }

    /// Mirrors `EdgeCache::resync`.
    fn resync(&mut self, cache: usize) {
        let after = self.caches[cache].last_seq;
        match self.db.replay_after(after) {
            ModelReplay::Replayed(invalidations) => {
                if invalidations.is_empty() {
                    return;
                }
                self.caches[cache].log_replays += 1;
                self.caches[cache].replayed_invalidations += invalidations.len() as u64;
                let mut latest = after;
                for inv in &invalidations {
                    self.invalidate_store(cache, inv.object, inv.version);
                    latest = latest.max(inv.seq);
                }
                self.caches[cache].last_seq = latest;
            }
            ModelReplay::Truncated { latest } => {
                self.caches[cache].snapshot_resyncs += 1;
                self.caches[cache].store.clear();
                self.caches[cache].last_seq = latest;
            }
        }
    }

    /// Mirrors `EdgeCache::read_mode`, including the degrade transition it
    /// performs as a side effect.
    fn read_mode(&mut self, config: &ModelConfig, cache: usize) -> TxnMode {
        match self.caches[cache].status {
            CacheStatus::Healthy => TxnMode::Cached,
            CacheStatus::Degraded { .. } => TxnMode::PassThrough,
            CacheStatus::Disconnected { since, crashed } => {
                match config.recovery.staleness_budget() {
                    Some(budget) if self.clock > since + budget => {
                        self.caches[cache].status = CacheStatus::Degraded { crashed };
                        TxnMode::PassThrough
                    }
                    _ => TxnMode::Cached,
                }
            }
        }
    }

    /// One step of a scripted read-only transaction. Mirrors
    /// `EdgeCache::execute_read_only`: the mode is decided when the
    /// transaction starts; a pass-through transaction is one synchronous
    /// backend round, so its single step executes the whole script.
    fn read_step(&mut self, config: &ModelConfig, txn: usize) {
        let script = &config.reads[txn];
        let cache = script.cache;
        let mode = match self.txns[txn].mode {
            Some(mode) => mode,
            None => {
                let mode = self.read_mode(config, cache);
                self.txns[txn].mode = Some(mode);
                mode
            }
        };
        match mode {
            TxnMode::PassThrough => {
                // Pass-through: every scripted key read straight from the
                // backend. The model is sequential, so the implementation's
                // validation rounds are stable on the first pass.
                self.caches[cache].pass_through_txns += 1;
                let keys = script.keys.clone();
                for key in keys {
                    let version = self.db.versions[key as usize];
                    self.txns[txn].observed.push((key, version));
                }
                self.txns[txn].next_key = script.keys.len();
                self.txns[txn].outcome = Some(TxnOutcome::Committed);
            }
            TxnMode::Cached => {
                let key = script.keys[self.txns[txn].next_key];
                let last_op = self.txns[txn].next_key + 1 == script.keys.len();
                // `EdgeCache::read_step`: local hit, or backend read
                // installed with the dependency list re-bounded to the
                // cache's policy.
                let entry = match self.caches[cache].store.get(&key) {
                    Some(entry) => entry.clone(),
                    None => {
                        let limit = config.caches[cache].dependency_limit();
                        let entry = StoreEntry {
                            version: self.db.versions[key as usize],
                            deps: self.db.deps[key as usize].rebounded(limit),
                        };
                        self.caches[cache].store.insert(key, entry.clone());
                        entry
                    }
                };
                if !config.caches[cache].transactional() {
                    let t = &mut self.txns[txn];
                    t.observed.push((key, entry.version));
                    t.next_key += 1;
                    if last_op {
                        t.outcome = Some(TxnOutcome::Committed);
                    }
                    return;
                }
                match self.check_read(txn, key, &entry) {
                    Some(violation) => {
                        // Strategy::Abort — the record is discarded; what
                        // was already returned stays observed.
                        self.txns[txn].outcome = Some(TxnOutcome::Aborted {
                            violating_object: violation.violating_object,
                        });
                    }
                    None => {
                        let t = &mut self.txns[txn];
                        raise(&mut t.expected, key, entry.version);
                        for &(object, version) in entry.deps.iter() {
                            raise(&mut t.expected, object, version);
                        }
                        lower(&mut t.floor, key, entry.version);
                        t.observed.push((key, entry.version));
                        t.next_key += 1;
                        if last_op {
                            t.outcome = Some(TxnOutcome::Committed);
                        }
                    }
                }
            }
        }
    }

    /// Mirrors `TxnRecord::check_read`: Equation 2 (current read stale)
    /// first, then the worst-gap Equation 1 candidate.
    fn check_read(&self, txn: usize, key: u64, entry: &StoreEntry) -> Option<ModelViolation> {
        let t = &self.txns[txn];
        if let Some(&required) = t.expected.get(&key) {
            if required > entry.version {
                return Some(ModelViolation {
                    violating_object: key,
                    observed_version: entry.version,
                    expected_version: required,
                });
            }
        }
        let mut worst: Option<ModelViolation> = None;
        if let Some(&floor) = t.floor.get(&key) {
            if entry.version > floor {
                worst = pick_worse(
                    worst,
                    ModelViolation {
                        violating_object: key,
                        observed_version: floor,
                        expected_version: entry.version,
                    },
                );
            }
        }
        for &(object, version) in entry.deps.iter() {
            if object == key {
                continue;
            }
            if let Some(&floor) = t.floor.get(&object) {
                if version > floor {
                    worst = pick_worse(
                        worst,
                        ModelViolation {
                            violating_object: object,
                            observed_version: floor,
                            expected_version: version,
                        },
                    );
                }
            }
        }
        worst
    }
}

fn raise(map: &mut BTreeMap<u64, u64>, object: u64, version: u64) {
    let slot = map.entry(object).or_insert(version);
    *slot = (*slot).max(version);
}

fn lower(map: &mut BTreeMap<u64, u64>, object: u64, version: u64) {
    let slot = map.entry(object).or_insert(version);
    *slot = (*slot).min(version);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CachePolicyKind, FaultBudget, ModelRecovery, ReadScript};

    fn tiny() -> ModelConfig {
        ModelConfig {
            name: "tiny",
            objects: 2,
            caches: vec![CachePolicyKind::TCacheUnbounded],
            updates: vec![vec![0, 1]],
            reads: vec![ReadScript {
                cache: 0,
                keys: vec![0, 1],
            }],
            recovery: ModelRecovery::GapResync {
                staleness_budget: 1,
            },
            log_capacity: 4,
            faults: FaultBudget::none(),
        }
    }

    fn apply_all(config: &ModelConfig, trace: &[ProtocolAction]) -> ModelState {
        let mut state = ModelState::initial(config);
        for &action in trace {
            state = state.apply(config, action).expect("action enabled");
        }
        state
    }

    #[test]
    fn update_commit_installs_versions_deps_and_invalidations() {
        let config = tiny();
        let state = apply_all(&config, &[ProtocolAction::UpdateCommit { update: 0 }]);
        assert_eq!(state.db.versions, vec![1, 1]);
        assert_eq!(state.db.latest_seq, 2);
        assert_eq!(state.db.log.len(), 2);
        // Each written object's list contains the *other* written object.
        assert_eq!(state.db.deps[0].iter().collect::<Vec<_>>(), vec![&(1, 1)]);
        assert_eq!(state.db.deps[1].iter().collect::<Vec<_>>(), vec![&(0, 1)]);
        // Both invalidations are in flight to the (healthy) cache.
        assert_eq!(state.caches[0].pending.len(), 2);
        assert_eq!(state.committed, vec![(0, 1)]);
    }

    #[test]
    fn interleaved_joint_update_aborts_tcache_read() {
        // read o0@0 · update {o0,o1}@1 · read o1@1 → Eq1: o1's dependency
        // list expects o0@1, but the transaction returned o0@0.
        let config = tiny();
        let state = apply_all(
            &config,
            &[
                ProtocolAction::ReadStep { txn: 0 },
                ProtocolAction::UpdateCommit { update: 0 },
                ProtocolAction::ReadStep { txn: 0 },
            ],
        );
        assert_eq!(
            state.txns[0].outcome,
            Some(TxnOutcome::Aborted {
                violating_object: 0
            })
        );
        assert_eq!(state.txns[0].observed, vec![(0, 0)]);
    }

    #[test]
    fn clean_execution_commits_with_consistent_reads() {
        let config = tiny();
        let state = apply_all(
            &config,
            &[
                ProtocolAction::UpdateCommit { update: 0 },
                ProtocolAction::ReadStep { txn: 0 },
                ProtocolAction::ReadStep { txn: 0 },
            ],
        );
        assert_eq!(state.txns[0].outcome, Some(TxnOutcome::Committed));
        assert_eq!(state.txns[0].observed, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn gap_triggers_resync_and_catches_the_store_up() {
        // Warm the cache at version 0, commit, drop the first invalidation
        // and deliver the second: the gap resyncs from the log, so the
        // stale o0 entry is evicted and the position reaches the head.
        let mut config = tiny();
        config.faults.drops = 1;
        config.faults.reorder_window = 2;
        let state = apply_all(
            &config,
            &[
                ProtocolAction::ReadStep { txn: 0 },
                ProtocolAction::UpdateCommit { update: 0 },
                ProtocolAction::DropInvalidation { cache: 0, index: 0 },
                ProtocolAction::Deliver { cache: 0, index: 0 },
            ],
        );
        let cache = &state.caches[0];
        assert_eq!(cache.gaps_detected, 1);
        assert_eq!(cache.log_replays, 1);
        assert_eq!(cache.last_seq, 2);
        assert!(!cache.store.contains_key(&0), "stale entry must be gone");
    }

    #[test]
    fn truncated_log_forces_snapshot_resync() {
        let mut config = tiny();
        config.log_capacity = 1;
        config.faults.drops = 1;
        config.faults.reorder_window = 2;
        let state = apply_all(
            &config,
            &[
                ProtocolAction::ReadStep { txn: 0 },
                ProtocolAction::UpdateCommit { update: 0 },
                ProtocolAction::DropInvalidation { cache: 0, index: 0 },
                ProtocolAction::Deliver { cache: 0, index: 0 },
            ],
        );
        let cache = &state.caches[0];
        assert_eq!(cache.snapshot_resyncs, 1);
        assert!(cache.store.is_empty(), "snapshot resync drops the store");
        assert_eq!(cache.last_seq, 2);
    }

    #[test]
    fn partition_tick_degrade_pass_through() {
        let mut config = tiny();
        config.faults.partitions = 1;
        config.faults.ticks = 2;
        let state = apply_all(
            &config,
            &[
                ProtocolAction::Partition { cache: 0 },
                ProtocolAction::Tick,
                ProtocolAction::Tick,
                ProtocolAction::UpdateCommit { update: 0 },
                ProtocolAction::ReadStep { txn: 0 },
            ],
        );
        assert_eq!(state.caches[0].status, CacheStatus::Degraded { crashed: false });
        assert_eq!(state.caches[0].pass_through_txns, 1);
        // Pass-through reads observe the backend's current versions.
        assert_eq!(state.txns[0].observed, vec![(0, 1), (1, 1)]);
        assert_eq!(state.txns[0].outcome, Some(TxnOutcome::Committed));
    }

    #[test]
    fn crash_clears_store_and_restart_adopts_stream_head() {
        let mut config = tiny();
        config.faults.crashes = 1;
        let state = apply_all(
            &config,
            &[
                ProtocolAction::ReadStep { txn: 0 },
                ProtocolAction::Crash { cache: 0 },
                ProtocolAction::UpdateCommit { update: 0 },
                ProtocolAction::Restart { cache: 0 },
            ],
        );
        let cache = &state.caches[0];
        assert!(cache.store.is_empty());
        assert_eq!(cache.last_seq, 2);
        assert_eq!(cache.status, CacheStatus::Healthy);
        assert_eq!(cache.crashes, 1);
        // The commit while crashed never reached the in-flight queue.
        assert!(cache.pending.is_empty());
    }

    #[test]
    fn enabled_actions_are_deterministic_and_guarded() {
        let config = tiny();
        let state = ModelState::initial(&config);
        let enabled = state.enabled(&config);
        assert_eq!(
            enabled,
            vec![
                ProtocolAction::UpdateCommit { update: 0 },
                ProtocolAction::ReadStep { txn: 0 },
            ]
        );
        // Applying a disabled action is rejected.
        assert!(state
            .apply(&config, ProtocolAction::Deliver { cache: 0, index: 0 })
            .is_none());
    }
}
