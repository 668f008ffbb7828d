//! Inner layers timed from outside: the tape replayed against each layer's
//! public functions, one layer at a time.

use crate::engine::median;
use crate::hist::Hist;
use crate::spec::{WorkloadSpec, TXN_KEYS};
use crate::tape::{Op, OpKind};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::Instant;
use tcache::cache::EdgeCache;
use tcache::db::{Database, Invalidation};
use tcache::net::delivery::{DeliveryCounters, DeliveryModel, DeliveryTask, DEFAULT_BATCH_BUDGET};
use tcache::net::pipe::{bounded_pipe, OverflowPolicy, UNBOUNDED};
use tcache::net::{run_delivery, Reactor};
use tcache::types::{AccessSet, CacheId, ObjectId, SimTime, TxnId, Value, Version};
use tcache::TCacheSystem;

/// Tape ops of the relevant kind each replay covers.
const REPLAY_OPS: usize = 100_000;
/// Calls too short to time one by one are timed in chunks of this many.
const CHUNK: usize = 16;
/// Transaction ids of the replays, clear of the facade's and the client's.
const REPLAY_TXN_BASE: u64 = 1 << 61;

pub struct LayerTimes {
    pub cache_execute_txn_p50_ns: f64,
    pub db_read_entry_ns: f64,
    pub db_execute_update_p50_ns: f64,
    pub cache_apply_invalidation_ns: f64,
    pub net_plane_ns_per_msg: f64,
    pub net_pipe_send_ns: f64,
}

fn ops_of(tape: &[Op], kind: OpKind) -> impl Iterator<Item = &Op> {
    tape.iter()
        .filter(move |op| op.kind == kind)
        .take(REPLAY_OPS)
}

/// Median over chunks of the mean time of one call, for calls of tens of
/// nanoseconds where a clock read per call would dominate.
fn chunked_ns<I>(items: &[I], mut call: impl FnMut(&I)) -> f64 {
    let means: Vec<f64> = items
        .chunks(CHUNK)
        .map(|chunk| {
            let started = Instant::now();
            for item in chunk {
                call(item);
            }
            started.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    median(&means)
}

pub fn replay(spec: &WorkloadSpec, system: &TCacheSystem, tape: &[Op]) -> LayerTimes {
    // cache: whole read transactions on the run's own warmed first cache.
    let cache = system.edge_cache();
    let mut execute_txn = Hist::new();
    for (i, op) in ops_of(tape, OpKind::Read).enumerate() {
        let keys = op.object_ids();
        let started = Instant::now();
        let outcome =
            cache.execute_transaction(SimTime::ZERO, TxnId(REPLAY_TXN_BASE + i as u64), &keys);
        execute_txn.record(started.elapsed().as_nanos() as u64);
        black_box(outcome.expect("objects exist"));
    }

    // db: single-object reads over the same keys.
    let db = system.database();
    let read_keys: Vec<ObjectId> = ops_of(tape, OpKind::Read)
        .flat_map(|op| op.object_ids())
        .collect();
    let db_read_entry_ns = chunked_ns(&read_keys, |&key| {
        black_box(db.read_entry(key).expect("object exists"));
    });

    // db: the tape's updates on a bare, identically populated database
    // with no sinks registered, so nothing is published.
    let bare = Arc::new(Database::new(db.config()));
    bare.populate((0..spec.objects).map(|i| (ObjectId(i), Value::new(0))));
    // cache: a cache over the bare database, warmed before the updates so
    // the invalidations below find what a live cache would hold.
    let edge = system.edge_cache();
    let apply_cache = EdgeCache::with_read_path(
        CacheId(0),
        Arc::clone(&bare),
        edge.config(),
        edge.read_path(),
    );
    for cluster in 0..spec.objects / TXN_KEYS as u64 {
        let keys: [ObjectId; TXN_KEYS] =
            std::array::from_fn(|i| ObjectId(cluster * TXN_KEYS as u64 + i as u64));
        apply_cache
            .execute_transaction(SimTime::ZERO, TxnId(REPLAY_TXN_BASE), &keys)
            .expect("objects exist");
    }
    let mut execute_update = Hist::new();
    let mut invalidations: Vec<Invalidation> = Vec::new();
    for (i, op) in ops_of(tape, OpKind::Update).enumerate() {
        let access = AccessSet::new(op.object_ids().to_vec());
        let started = Instant::now();
        let commit = bare.execute_update(TxnId(i as u64 + 1), &access);
        execute_update.record(started.elapsed().as_nanos() as u64);
        invalidations.extend(
            commit
                .expect("single writer never aborts")
                .invalidations
                .iter(),
        );
    }
    let cache_apply_invalidation_ns = chunked_ns(&invalidations, |&invalidation| {
        apply_cache.apply_invalidation(invalidation);
    });

    let (net_plane_ns_per_msg, net_pipe_send_ns) = net_plane(spec, invalidations.len().max(CHUNK));

    LayerTimes {
        cache_execute_txn_p50_ns: execute_txn.quantile(0.5),
        db_read_entry_ns,
        db_execute_update_p50_ns: execute_update.quantile(0.5),
        cache_apply_invalidation_ns,
        net_plane_ns_per_msg,
        net_pipe_send_ns,
    }
}

/// The bare plane: one pipe and one delivery task per deployed cache on one
/// reactor thread, applying nothing. Returns (wall time from first send to
/// last delivery per message, time inside `send` per message).
fn net_plane(spec: &WorkloadSpec, messages: usize) -> (f64, f64) {
    let capacity = spec.pipe_capacity.unwrap_or(UNBOUNDED);
    let mut reactor = Reactor::new();
    let timer = reactor.timer();
    let mut senders = Vec::new();
    let mut counters = Vec::new();
    for index in 0..spec.caches() {
        let (tx, rx) = bounded_pipe::<Invalidation>(capacity, OverflowPolicy::Block);
        let delivered = Arc::new(DeliveryCounters::default());
        reactor.spawn(run_delivery(
            rx,
            timer.clone(),
            DeliveryTask {
                model: DeliveryModel::reliable(),
                loss_seed: index as u64,
                delay_seed: index as u64,
                counters: Arc::clone(&delivered),
                paused: Arc::new(AtomicBool::new(false)),
                extra_delay_micros: Arc::new(AtomicU64::new(0)),
                batch_budget: DEFAULT_BATCH_BUDGET,
            },
            |invalidation| {
                black_box(invalidation);
            },
        ));
        senders.push(tx);
        counters.push(delivered);
    }
    let thread = std::thread::spawn(move || reactor.run());

    let started = Instant::now();
    let mut send_ns = 0u64;
    for seq in 1..=messages as u64 {
        let invalidation = Invalidation::with_seq(ObjectId(seq), Version(seq), TxnId(seq), seq);
        let send_started = Instant::now();
        for tx in &senders {
            tx.send(invalidation).expect("delivery task is alive");
        }
        send_ns += send_started.elapsed().as_nanos() as u64;
    }
    while counters.iter().any(|c| c.processed() < messages as u64) {
        std::thread::yield_now();
    }
    let wall_ns = started.elapsed().as_nanos() as f64;
    // Dropping every sender ends the delivery tasks, which ends the reactor.
    drop(senders);
    thread.join().expect("reactor thread");
    let total = (messages * spec.caches()) as f64;
    (wall_ns / total, send_ns as f64 / total)
}
