//! `EdgeCache::apply_invalidations` against one-at-a-time application.
//!
//! A delivered batch that continues the invalidation stream is applied
//! with one position update and one counter update; anything else falls
//! back to per-message handling. Either way the cache must end up exactly
//! where folding `apply_invalidation` over the same messages leaves it.
//! Two caches over one database receive the same random stream — runs
//! that continue the stream, gaps, duplicates and unsequenced messages,
//! cut into random batches — one message at a time and one batch at a
//! time, under both recovery policies (a gap resyncs from the database's
//! log, or from a snapshot once a small log has truncated). After every
//! batch their stores, stream positions and counters must agree.

use proptest::prelude::*;
use std::sync::Arc;
use tcache_cache::EdgeCache;
use tcache_db::{Database, DatabaseConfig, Invalidation};
use tcache_types::{
    CacheId, ObjectId, RecoveryPolicy, SimDuration, SimTime, Strategy as CacheStrategy, TxnId,
    Value,
};

const OBJECTS: u64 = 12;
const UPDATES: u64 = 40;

/// A populated database, with no update committed yet.
fn database(log_capacity: usize) -> Arc<Database> {
    let db = Arc::new(Database::new(DatabaseConfig {
        invalidation_log_capacity: log_capacity,
        ..DatabaseConfig::with_bound(3)
    }));
    db.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    db
}

/// Commits `UPDATES` 1–3-object updates and returns every invalidation
/// they published, in stream order (`stream[s - 1].seq == s`).
fn commit_updates(db: &Database) -> Vec<Invalidation> {
    let mut stream = Vec::new();
    for t in 0..UPDATES {
        let keys: Vec<u64> = (0..1 + t % 3).map(|k| (t * 5 + k * 7) % OBJECTS).collect();
        let commit = db.execute_update(TxnId(t + 1), &keys.into()).unwrap();
        stream.extend(commit.invalidations.iter().copied());
    }
    stream
}

fn cache(db: &Arc<Database>, id: u32, policy: RecoveryPolicy) -> EdgeCache {
    let cache = EdgeCache::tcache(CacheId(id), Arc::clone(db), 3, CacheStrategy::Abort);
    cache.set_recovery_policy(policy);
    cache
}

fn read(cache: &EdgeCache, txn: u64, object: u64) {
    cache
        .execute_transaction(SimTime::ZERO, TxnId(txn), &[ObjectId(object)])
        .unwrap();
}

/// Everything an applied invalidation can change.
fn state(
    cache: &EdgeCache,
) -> (
    Vec<bool>,
    u64,
    u64,
    u64,
    tcache_cache::LifecycleStatsSnapshot,
) {
    let stats = cache.stats();
    (
        (0..OBJECTS).map(|o| cache.contains(ObjectId(o))).collect(),
        cache.last_applied_seq(),
        stats.invalidations_applied,
        stats.invalidations_ignored,
        cache.lifecycle_stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batch_apply_matches_one_at_a_time(
        resyncs in 0u32..2,
        small_log in 0u32..2,
        steps in prop::collection::vec((0u32..7, 1u64..4, 0u32..2, 0u64..OBJECTS), 1..40),
    ) {
        let db = database(if small_log == 1 { 6 } else { 1024 });
        let policy = if resyncs == 1 {
            RecoveryPolicy::GapResync { staleness_budget: SimDuration::from_secs(1) }
        } else {
            RecoveryPolicy::None
        };
        let (one_at_a_time, batched) = (cache(&db, 0, policy), cache(&db, 1, policy));
        // Both caches hold every object at its initial version, which the
        // updates then supersede.
        for o in 0..OBJECTS {
            read(&one_at_a_time, o, o);
            read(&batched, o, o);
        }
        let stream = commit_updates(&db);

        let latest = stream.len() as u64;
        let mut cursor = 0u64;
        let mut batch: Vec<Invalidation> = Vec::new();
        let mut txn = 1_000u64;
        let last = steps.len() - 1;
        for (i, (kind, size, joins, reread)) in steps.into_iter().enumerate() {
            match kind {
                // Continue the stream.
                0..=2 => {
                    for _ in 0..size {
                        if cursor < latest {
                            cursor += 1;
                            batch.push(stream[cursor as usize - 1]);
                        }
                    }
                }
                // Skip `size` messages (a gap), then deliver one.
                3 => {
                    cursor = (cursor + size).min(latest - 1);
                    cursor += 1;
                    batch.push(stream[cursor as usize - 1]);
                }
                // A duplicate of an earlier message.
                4 => batch.push(stream[cursor.saturating_sub(size) as usize]),
                // A message from the future, then the stream resumes.
                5 => batch.push(stream[(cursor + size).min(latest - 1) as usize]),
                // Unsequenced.
                _ => {
                    let like = stream[(size * 11 + reread) as usize % stream.len()];
                    batch.push(Invalidation::new(like.object, like.new_version, like.txn));
                }
            }
            if joins == 1 && i != last {
                continue;
            }
            for &invalidation in &batch {
                one_at_a_time.apply_invalidation(invalidation);
            }
            batched.apply_invalidations(&batch);
            batch.clear();
            prop_assert_eq!(state(&batched), state(&one_at_a_time));
            // Refill one object so later invalidations have something to
            // evict (or to find already newer).
            txn += 1;
            read(&one_at_a_time, txn, reread);
            read(&batched, txn, reread);
        }
        prop_assert_eq!(batched.stats(), one_at_a_time.stats());
    }
}
