//! Compile-surface guard for the repository benchmark.
//!
//! `benchmark/` (tbench) is its own workspace, so `cargo test` here never
//! builds it — yet the driver builds it against these crates after every
//! PR, and PRs may not edit it. This test makes the facade calls tbench
//! makes, with the same types in the same positions, so a simplification
//! that breaks one fails tier-1 instead of the benchmark run. The call
//! sites it mirrors:
//!
//! * `benchmark/src/spec.rs` `build_system`: `use tcache::prelude::*`,
//!   `SystemBuilder::new().transport(TransportMode::Reactor)
//!   .delivery(DeliveryMode::Modeled).invalidation_delay_millis(0)
//!   .cache_loss_rates(..).seed(..)`, then `.pipe_capacity(..)
//!   .overflow_policy(OverflowPolicy::Block)`, `.build()`, `populate`;
//! * `benchmark/src/engine.rs`: `quiesce(..).expect(..)`,
//!   `reactor_stats().expect(..)`, `quiesce_timeouts()`,
//!   `database().publish_stats()` (`stalled_publishes`, `overflowed`),
//!   `cache(id)…last_applied_seq()`;
//! * `benchmark/src/layers.rs`: `edge_cache()`,
//!   `EdgeCache::with_read_path(id, db, edge.config(), edge.read_path())`;
//! * `benchmark/src/engine.rs` `Counters::read`: `stats().db` as a
//!   `tcache::db::stats::DbStatsSnapshot`;
//! * `benchmark/src/run.rs`: `cache(id).expect(..).last_applied_seq()`
//!   against `database().invalidation_latest_seq()`, and
//!   `db.read_path.{optimistic_hits, lock_fallbacks, locked_reads}`;
//! * `benchmark/src/layers.rs` `net_plane`: `bounded_pipe::<Invalidation>(
//!   UNBOUNDED | 4096, OverflowPolicy::Block)`, `Reactor::{new, timer,
//!   spawn, run}`, `run_delivery` with the seven-field `DeliveryTask { .. }`
//!   literal, `DeliveryModel::reliable()`, `DEFAULT_BATCH_BUDGET`,
//!   `DeliveryCounters::processed()` and `tx.send(inv).expect(..)`;
//! * `benchmark/src/engine.rs` `Counters::read` and `benchmark/src/run.rs`:
//!   `PipeStatsSnapshot::{merge, overflow_dropped}` and its fields
//!   `enqueued`, `received`, `batched_polls`, `coalesced_wakeups`,
//!   `stall_micros`; `ReactorStats::{polls, wakes, spin_recoveries}`;
//!   `DeliveryStatsSnapshot::merge` and its fields `offered`, `dropped`,
//!   `delivered`.
//!
//! Changing any of these needs a flagged PR that edits `benchmark/` first.
//!
//! Leftovers that exist *only* because of those call sites, to delete in
//! that flagged PR (each is documented as benchmark-pinned where it lives):
//!
//! * `CacheReadPath { Locked }` + `EdgeCache::{with_read_path, read_path}`
//!   (PR 18);
//! * `TransportMode { Reactor }` + `DeliveryMode { Modeled }` and the inert
//!   `SystemBuilder::{transport, delivery}` shims (PR 22);
//! * the `TCacheResult` around `TCacheSystem::quiesce` (always `Ok`; PR 22);
//! * `ReadPathStatsSnapshot` and `DbStatsSnapshot::read_path` (always zero:
//!   every store read runs under its bucket lock, nothing classifies it);
//! * the `Option` around `TCacheSystem::reactor_stats` (always `Some`;
//!   PR 22).

use std::sync::Arc;
use std::time::Duration;
use tcache::cache::EdgeCache;
use tcache::prelude::*;
use tcache::types::CacheId;

#[test]
fn the_facade_calls_tbench_makes_compile_and_behave() {
    let builder = SystemBuilder::new()
        .transport(TransportMode::Reactor)
        .delivery(DeliveryMode::Modeled)
        .invalidation_delay_millis(0)
        .cache_loss_rates(vec![0.0, 0.4])
        .seed(7)
        .pipe_capacity(4096)
        .overflow_policy(OverflowPolicy::Block);
    let system: TCacheSystem = builder.build();
    system.populate((0..8u64).map(|i| (ObjectId(i), Value::new(0))));

    for _ in 0..4 {
        system
            .update(&[ObjectId(0), ObjectId(1)])
            .expect("update commits");
    }
    let settled: bool = system
        .quiesce(Duration::from_secs(10))
        .expect("reactor transport supports quiesce");
    assert!(settled);
    let _ = system.reactor_stats().expect("reactor transport");
    assert_eq!(system.quiesce_timeouts(), 0u64);
    let publish = system.database().publish_stats();
    let stalled: u64 = publish.iter().map(|(_, p)| p.stalled_publishes).sum();
    let overflowed: u64 = publish.iter().map(|(_, p)| p.overflowed).sum();
    assert_eq!((stalled, overflowed), (0, 0));

    // The loss-free cache has applied the whole stream.
    let applied: u64 = system
        .cache(CacheId(0))
        .expect("deployed")
        .last_applied_seq();
    assert_eq!(applied, system.database().invalidation_latest_seq());

    // The database counters the run reads, read-path leftovers included.
    system.read(ObjectId(2)).expect("object exists");
    let db: tcache::db::stats::DbStatsSnapshot = system.stats().db;
    assert!(db.single_reads > 0);
    let read_path: [u64; 3] = [
        db.read_path.optimistic_hits,
        db.read_path.lock_fallbacks,
        db.read_path.locked_reads,
    ];
    assert_eq!(read_path, [0, 0, 0], "benchmark-pinned, never counted");

    // The per-layer replay builds a second cache shaped like the first.
    let edge: &EdgeCache = system.edge_cache();
    let replay = EdgeCache::with_read_path(
        CacheId(0),
        Arc::clone(system.database()),
        edge.config(),
        edge.read_path(),
    );
    assert_eq!(replay.config(), edge.config());
}

/// The bare net plane tbench times (`layers.rs::net_plane`): one pipe and
/// one delivery task per cache on one reactor thread, fed by per-message
/// `send`s, then the counters `engine.rs` / `run.rs` read off a system.
#[test]
fn the_net_plane_calls_tbench_makes_compile_and_behave() {
    use std::hint::black_box;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use tcache::db::Invalidation;
    use tcache::net::delivery::{
        DeliveryCounters, DeliveryModel, DeliveryStatsSnapshot, DeliveryTask, DEFAULT_BATCH_BUDGET,
    };
    use tcache::net::pipe::{bounded_pipe, PipeStatsSnapshot, UNBOUNDED};
    use tcache::net::reactor::ReactorStats;
    use tcache::net::{run_delivery, Reactor};
    use tcache::types::{TxnId, Version};

    const MESSAGES: u64 = 64;
    let mut reactor = Reactor::new();
    let timer = reactor.timer();
    let mut senders = Vec::new();
    let mut counters = Vec::new();
    for (index, capacity) in [UNBOUNDED, 4096].into_iter().enumerate() {
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
    for seq in 1..=MESSAGES {
        let invalidation = Invalidation::with_seq(ObjectId(seq), Version(seq), TxnId(seq), seq);
        for tx in &senders {
            tx.send(invalidation).expect("delivery task is alive");
        }
    }
    while counters.iter().any(|c| c.processed() < MESSAGES) {
        std::thread::yield_now();
    }
    // Dropping every sender ends the delivery tasks, which ends the reactor.
    drop(senders);
    thread.join().expect("reactor thread");

    // The counters a run reads, merged over caches as `Counters::read` does.
    let system = SystemBuilder::new()
        .cache_loss_rates(vec![0.0, 0.0])
        .pipe_capacity(4096)
        .overflow_policy(OverflowPolicy::Block)
        .build();
    system.populate((0..4u64).map(|i| (ObjectId(i), Value::new(0))));
    system
        .update(&[ObjectId(0), ObjectId(1)])
        .expect("update commits");
    assert!(system
        .quiesce(Duration::from_secs(10))
        .expect("reactor transport"));
    let stats = system.stats();
    let mut pipe = PipeStatsSnapshot::default();
    let mut delivery = DeliveryStatsSnapshot::default();
    for node in &stats.per_cache {
        pipe.merge(node.pipe);
        delivery.merge(node.delivery);
    }
    let read: [u64; 6] = [
        pipe.enqueued,
        pipe.received,
        pipe.batched_polls,
        pipe.coalesced_wakeups,
        pipe.stall_micros,
        pipe.overflow_dropped(),
    ];
    assert_eq!((read[0], read[1], read[5]), (4, 4, 0));
    assert_eq!(
        [delivery.offered, delivery.dropped, delivery.delivered],
        [4, 0, 4]
    );
    let reactor: ReactorStats = system.reactor_stats().expect("reactor transport");
    let _: [u64; 3] = [reactor.polls, reactor.wakes, reactor.spin_recoveries];
}

/// The `transport` / `delivery` builder calls tbench makes select nothing:
/// there is one live plane, and a builder that never heard of them builds
/// the same system with the same always-`Ok` / always-`Some` surface.
#[test]
fn the_benchmark_pinned_shims_are_inert() {
    assert_eq!(
        SystemBuilder::new()
            .transport(TransportMode::Reactor)
            .delivery(DeliveryMode::Modeled),
        SystemBuilder::new()
    );
    let system = SystemBuilder::new().build();
    assert!(system.reactor_stats().is_some());
    assert_eq!(system.quiesce(Duration::from_secs(10)), Ok(true));
}
