//! Hot-path throughput measurement with a machine-readable trail.
//!
//! Runs the hit-heavy read workload of the `concurrent_reads` criterion
//! bench standalone, measures single-thread latency and 1/2/4/8-thread
//! aggregate throughput plus multi-cache scaling (1/2/4 caches over one
//! shared database, one thread per cache), compares the two invalidation
//! planes (thread-per-cache vs one reactor thread multiplexing every
//! cache's pipe), records the inconsistency-vs-pipe-capacity sweep, prints
//! the tables, and writes `BENCH_hotpath.json` into the current directory
//! so future changes have a perf trajectory to compare against.
//!
//! Every throughput row is the **minimum of `rounds` repetitions** (the
//! most conservative round — a history row can only improve when the code
//! actually gets faster), printed alongside the spread
//! `(max - min) / min` so noisy rows are visible at a glance. The
//! `read txn fast path` table exercises the allocation-free
//! single-shot read path ([`EdgeCache::execute_read_only`]) and reports
//! allocations per transaction (counted by this binary's own global
//! allocator), ns per read and the table-promotion rate.
//!
//! Also runs the cross-plane comparison (the `figures::live_plane`
//! experiment: the inconsistency-vs-loss trend on the live reactor stack
//! versus the discrete-event simulator, plus the live stack's wall-clock
//! read throughput) and appends a git-SHA-stamped summary row to
//! `BENCH_history.jsonl`, printing the delta against the previous row —
//! the commit-over-commit perf trajectory.
//!
//! Flags:
//! * `--quick` — one short round (CI smoke; still writes the JSON);
//! * `--out <path>` — where to write the JSON (default `BENCH_hotpath.json`);
//! * `--history <path>` — where to append the history row (default
//!   `BENCH_history.jsonl`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tcache_cache::EdgeCache;
use tcache_db::{Database, DatabaseConfig, Invalidation};
use tcache_net::delivery::DEFAULT_BATCH_BUDGET;
use tcache_net::pipe::{bounded_pipe, OverflowPolicy, UNBOUNDED};
use tcache_net::reactor::Reactor;
use tcache_bench::{git_short_sha, history_comparison};
use tcache_sim::figures::{backpressure, live_plane, LIVE_PLANE_LOSSES};
use tcache_types::{
    AccessSet, CacheId, ObjectId, RecoveryPolicy, SimDuration, SimTime, Strategy, TxnId, Value,
    Version,
};

const OBJECTS: u64 = 1024;
const READS_PER_TXN: u64 = 3;

/// Forwards to the system allocator, counting allocations per thread so the
/// `read txn fast path` row can report allocations per transaction without
/// other threads' activity bleeding into the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Min/max over repeated measurement rounds. The minimum is the reported
/// value; the spread quantifies run-to-run noise next to every row.
struct Measured {
    min: f64,
    max: f64,
}

impl Measured {
    fn spread_pct(&self) -> f64 {
        if self.min > 0.0 {
            (self.max - self.min) / self.min * 100.0
        } else {
            0.0
        }
    }
}

/// Runs `measure` `rounds` times and folds the samples into a [`Measured`].
fn repeat(rounds: u64, mut measure: impl FnMut() -> f64) -> Measured {
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for _ in 0..rounds {
        let sample = measure();
        min = min.min(sample);
        max = max.max(sample);
    }
    Measured { min, max }
}

fn warmed_db() -> Arc<Database> {
    let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
    db.populate((0..OBJECTS).map(|i| (ObjectId(i), Value::new(0))));
    for i in 0..200u64 {
        let base = (i * 5) % (OBJECTS - 2);
        let access: AccessSet = vec![base, base + 1, base + 2].into();
        db.execute_update(TxnId(i + 1), &access).unwrap();
    }
    db
}

fn warmed_caches(db: &Arc<Database>, count: u32) -> Vec<Arc<EdgeCache>> {
    (0..count)
        .map(|c| {
            let cache = Arc::new(EdgeCache::tcache(
                CacheId(c),
                Arc::clone(db),
                3,
                Strategy::Abort,
            ));
            for i in 0..OBJECTS {
                cache
                    .read(SimTime::ZERO, TxnId(1_000_000 + i), ObjectId(i), true)
                    .unwrap();
            }
            cache
        })
        .collect()
}

fn warmed_cache() -> Arc<EdgeCache> {
    warmed_caches(&warmed_db(), 1).pop().expect("one cache")
}

/// Runs `txns_per_thread` hit transactions on each of `threads` threads, all
/// hammering the same cache; returns aggregate transactions per second.
fn measure(cache: &Arc<EdgeCache>, threads: u64, txns_per_thread: u64, seed: &AtomicU64) -> f64 {
    let shared: Vec<Arc<EdgeCache>> =
        (0..threads).map(|_| Arc::clone(cache)).collect();
    measure_threads(&shared, txns_per_thread, seed)
}

/// Runs `txns_per_thread` hit transactions on one thread per entry of
/// `caches` (the same cache repeated measures thread scaling, distinct
/// caches over one database measure cache scaling); returns aggregate
/// transactions per second.
fn measure_threads(caches: &[Arc<EdgeCache>], txns_per_thread: u64, seed: &AtomicU64) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = caches
        .iter()
        .enumerate()
        .map(|(t, cache)| {
            let cache = Arc::clone(cache);
            let base_txn = seed.fetch_add(txns_per_thread + 1, Ordering::Relaxed);
            std::thread::spawn(move || {
                for i in 0..txns_per_thread {
                    let txn = TxnId(base_txn + i);
                    let base = (t as u64 * 131 + i * 3) % (OBJECTS - 2);
                    let keys = [ObjectId(base), ObjectId(base + 1), ObjectId(base + 2)];
                    let outcome = cache
                        .execute_transaction(SimTime::ZERO, txn, &keys)
                        .expect("backend reachable");
                    std::hint::black_box(outcome);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    (caches.len() as u64 * txns_per_thread) as f64 / elapsed
}

/// Monotone version source shared by every invalidation-plane measurement,
/// so each plane and each round applies strictly fresh versions — the
/// caches' version guards never degrade a later measurement into ignored
/// no-ops.
static NEXT_INV_VERSION: AtomicU64 = AtomicU64::new(1_000_000);

/// One invalidation per message over a freshly reserved version range, so
/// every apply does real work (miss-floor bookkeeping, eviction of the
/// entry) regardless of what previous measurements applied.
fn invalidation_stream(count: u64) -> impl Iterator<Item = Invalidation> {
    let base = NEXT_INV_VERSION.fetch_add(count, Ordering::Relaxed);
    (0..count).map(move |i| {
        Invalidation::new(
            ObjectId(i % OBJECTS),
            Version(base + i),
            TxnId(base + i),
        )
    })
}

/// Thread-per-cache invalidation plane — the historical design this PR's
/// reactor replaces: each cache gets its own unbounded `crossbeam-channel`
/// queue and its own dedicated apply thread; the main thread publishes
/// `msgs_per_cache` invalidations to every queue. Returns aggregate applied
/// invalidations per second.
fn measure_threaded_plane(caches: &[Arc<EdgeCache>], msgs_per_cache: u64) -> f64 {
    let start = Instant::now();
    let mut senders = Vec::new();
    let handles: Vec<_> = caches
        .iter()
        .map(|cache| {
            let (tx, rx) = crossbeam_channel::unbounded::<Invalidation>();
            senders.push(tx);
            let cache = Arc::clone(cache);
            std::thread::spawn(move || {
                while let Ok(inv) = rx.recv() {
                    cache.apply_invalidation(inv);
                }
            })
        })
        .collect();
    for tx in &senders {
        for inv in invalidation_stream(msgs_per_cache) {
            let _ = tx.send(inv);
        }
    }
    drop(senders);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    (caches.len() as u64 * msgs_per_cache) as f64 / elapsed
}

/// Reactor invalidation plane: the same pipes, but every cache's apply loop
/// is an async task and one reactor thread multiplexes all of them, each
/// draining up to `batch_budget` invalidations per wakeup
/// ([`tcache_net::pipe::PipeReceiver::recv_batch_async`]). Returns
/// aggregate applied invalidations per second.
fn measure_reactor_plane(
    caches: &[Arc<EdgeCache>],
    msgs_per_cache: u64,
    batch_budget: usize,
) -> f64 {
    let start = Instant::now();
    let mut reactor = Reactor::new();
    let mut senders = Vec::new();
    for cache in caches {
        let (tx, rx) = bounded_pipe::<Invalidation>(UNBOUNDED, OverflowPolicy::Block);
        senders.push(tx);
        let cache = Arc::clone(cache);
        reactor.spawn(async move {
            let mut batch = Vec::with_capacity(batch_budget);
            loop {
                let drain = rx.recv_batch_async(&mut batch, batch_budget).await;
                if drain.drained == 0 {
                    break;
                }
                for inv in batch.drain(..) {
                    cache.apply_invalidation(inv);
                }
            }
        });
    }
    let thread = std::thread::spawn(move || reactor.run());
    // Producer mirrors the consumer's batching: invalidations stream from
    // the backend in sequenced runs, so they are enqueued in windows of
    // `batch_budget` (one pipe lock + at most one wakeup per window).
    let mut chunk = Vec::with_capacity(batch_budget);
    for tx in &senders {
        for inv in invalidation_stream(msgs_per_cache) {
            chunk.push(inv);
            if chunk.len() == batch_budget {
                let _ = tx.send_batch(chunk.drain(..));
            }
        }
        let _ = tx.send_batch(chunk.drain(..));
    }
    drop(senders);
    thread.join().unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    (caches.len() as u64 * msgs_per_cache) as f64 / elapsed
}

/// Healthy-path cost of the recovery plane: applies `count` consecutively
/// sequenced invalidations to a freshly warmed cache under the given
/// recovery policy and returns invalidations per second. The stream has no
/// gaps, so the gap-resync policy never actually resyncs — what this
/// measures is the steady-state bookkeeping every sequenced apply pays
/// (one relaxed load/store pair on the sequence tracker).
fn measure_recovery_overhead(policy: RecoveryPolicy, count: u64) -> f64 {
    let cache = warmed_cache();
    cache.set_recovery_policy(policy);
    let base = NEXT_INV_VERSION.fetch_add(count, Ordering::Relaxed);
    let start = Instant::now();
    for i in 0..count {
        cache.apply_invalidation(Invalidation::with_seq(
            ObjectId(i % OBJECTS),
            Version(base + i),
            TxnId(base + i),
            i + 1,
        ));
    }
    count as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_hotpath.json");
    let mut history = String::from("BENCH_history.jsonl");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                if let Some(path) = args.next() {
                    out = path;
                }
            }
            "--history" => {
                if let Some(path) = args.next() {
                    history = path;
                }
            }
            _ => {}
        }
    }

    let txns_per_thread: u64 = if quick { 2_000 } else { 50_000 };
    let rounds = if quick { 1 } else { 3 };
    let cache = warmed_cache();
    let seed = AtomicU64::new(10_000_000);

    println!(
        "hot path: {READS_PER_TXN}-read hit transactions over {OBJECTS} cached objects \
         ({txns_per_thread} txns/thread, min of {rounds})"
    );
    println!(
        "host parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:>8} {:>16} {:>14} {:>10} {:>9}",
        "threads", "txn/s", "ns/read", "speedup", "spread"
    );

    let mut results: Vec<(u64, f64)> = Vec::new();
    for &threads in &[1u64, 2, 4, 8] {
        let sample = repeat(rounds, || measure(&cache, threads, txns_per_thread, &seed));
        results.push((threads, sample.min));
        let single = results[0].1;
        println!(
            "{threads:>8} {:>16.0} {:>14.1} {:>9.2}x {:>8.1}%",
            sample.min,
            1e9 / (sample.min * READS_PER_TXN as f64),
            sample.min / single,
            sample.spread_pct()
        );
    }

    // Multi-cache scaling: N independent edge caches over one shared
    // database, one client thread per cache. Each cache has its own striped
    // storage and transaction table, so this measures how much of the hot
    // path is genuinely cache-local versus shared-backend.
    println!("\ncache scaling: one thread per cache, {txns_per_thread} txns/thread");
    println!("{:>8} {:>16} {:>10} {:>9}", "caches", "txn/s", "speedup", "spread");
    let db = warmed_db();
    let mut cache_scaling: Vec<(u32, f64)> = Vec::new();
    for &cache_count in &[1u32, 2, 4] {
        let caches = warmed_caches(&db, cache_count);
        let sample = repeat(rounds, || measure_threads(&caches, txns_per_thread, &seed));
        cache_scaling.push((cache_count, sample.min));
        let single_cache = cache_scaling[0].1;
        println!(
            "{cache_count:>8} {:>16.0} {:>9.2}x {:>8.1}%",
            sample.min,
            sample.min / single_cache,
            sample.spread_pct()
        );
    }

    // Invalidation-plane comparison: 4 caches fed msgs_per_cache
    // invalidations each, applied by 4 dedicated threads (threaded plane)
    // versus 4 async tasks multiplexed on one reactor thread.
    let plane_caches = warmed_caches(&warmed_db(), 4);
    let msgs_per_cache: u64 = if quick { 20_000 } else { 200_000 };
    let threaded_plane = repeat(rounds, || measure_threaded_plane(&plane_caches, msgs_per_cache));
    let reactor_plane = repeat(rounds, || {
        measure_reactor_plane(&plane_caches, msgs_per_cache, DEFAULT_BATCH_BUDGET)
    });
    println!(
        "\ninvalidation plane: 4 caches x {msgs_per_cache} invalidations \
         (reactor batch budget {DEFAULT_BATCH_BUDGET}, min of {rounds})\n\
         {:>12} {:>16} {:>9}\n{:>12} {:>16.0} {:>8.1}%\n{:>12} {:>16.0} {:>8.1}%\n\
         {:>12} {:>15.2}x",
        "plane",
        "inv/s",
        "spread",
        "threaded",
        threaded_plane.min,
        threaded_plane.spread_pct(),
        "reactor",
        reactor_plane.min,
        reactor_plane.spread_pct(),
        "ratio",
        reactor_plane.min / threaded_plane.min
    );

    // Reactor batch sweep: budget x cache count. Budget 1 is the old
    // one-message-per-wakeup loop; the sweep shows how much of the
    // reactor/threaded gap batch dequeue closes and where it saturates.
    let sweep_msgs: u64 = if quick { 10_000 } else { 100_000 };
    println!(
        "\nreactor batch sweep: {sweep_msgs} invalidations/cache (min of {rounds})"
    );
    println!("{:>8} {:>8} {:>16} {:>9}", "budget", "caches", "inv/s", "spread");
    let mut reactor_batch_rows: Vec<(usize, u32, f64)> = Vec::new();
    for &budget in &[1usize, 16, 64] {
        for &cache_count in &[2u32, 4, 8] {
            let sweep_caches = warmed_caches(&warmed_db(), cache_count);
            let sample =
                repeat(rounds, || measure_reactor_plane(&sweep_caches, sweep_msgs, budget));
            println!(
                "{budget:>8} {cache_count:>8} {:>16.0} {:>8.1}%",
                sample.min,
                sample.spread_pct()
            );
            reactor_batch_rows.push((budget, cache_count, sample.min));
        }
    }

    // Read-transaction fast path: the allocation-free single-shot path
    // through `execute_read_only` on one thread — the tentpole regime
    // (<= 8 reads, all hits, no open multi-call transaction). Allocations
    // per transaction are counted by this binary's global allocator on the
    // measuring thread; the promotion rate is the fraction of transactions
    // that had to be promoted into the sharded table (0 here: every txn is
    // single-shot).
    let fp_txns: u64 = if quick { 20_000 } else { 500_000 };
    let fp_db = warmed_db();
    let fp_cache = warmed_caches(&fp_db, 1).pop().expect("one cache");
    let fp_stats_before = fp_cache.stats();
    let mut fp = Measured { min: f64::INFINITY, max: 0.0 };
    let mut fp_allocs_per_txn = 0.0f64;
    for _ in 0..rounds {
        let base_txn = seed.fetch_add(fp_txns + 2, Ordering::Relaxed);
        // One throwaway transaction warms the thread-local scratch.
        let warm = fp_cache
            .execute_read_only(
                SimTime::ZERO,
                TxnId(base_txn),
                &[ObjectId(0), ObjectId(1), ObjectId(2)],
            )
            .expect("warm txn");
        std::hint::black_box(warm);
        let allocs_before = allocations_on_this_thread();
        let start = Instant::now();
        for i in 0..fp_txns {
            let base = (i * 3) % (OBJECTS - 2);
            let keys = [ObjectId(base), ObjectId(base + 1), ObjectId(base + 2)];
            let log = fp_cache
                .execute_read_only(SimTime::ZERO, TxnId(base_txn + 1 + i), &keys)
                .expect("hit transaction");
            std::hint::black_box(log);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let allocs = allocations_on_this_thread() - allocs_before;
        let sample = fp_txns as f64 / elapsed;
        if sample < fp.min {
            fp_allocs_per_txn = allocs as f64 / fp_txns as f64;
        }
        fp.min = fp.min.min(sample);
        fp.max = fp.max.max(sample);
    }
    let fp_stats = fp_cache.stats();
    let fp_fast = fp_stats.fastpath_txns - fp_stats_before.fastpath_txns;
    let fp_promoted = fp_stats.promoted_txns - fp_stats_before.promoted_txns;
    let fp_promotion_rate = if fp_fast + fp_promoted == 0 {
        0.0
    } else {
        fp_promoted as f64 / (fp_fast + fp_promoted) as f64
    };
    println!(
        "\nread txn fast path: single thread, {fp_txns} x {READS_PER_TXN}-read hit \
         txns via execute_read_only (min of {rounds})\n\
         {:>16} {:>12} {:>12} {:>12} {:>9}\n\
         {:>16.0} {:>12.1} {:>12.4} {:>11.2}% {:>8.1}%",
        "txn/s",
        "ns/read",
        "allocs/txn",
        "promoted",
        "spread",
        fp.min,
        1e9 / (fp.min * READS_PER_TXN as f64),
        fp_allocs_per_txn,
        fp_promotion_rate * 100.0,
        fp.spread_pct()
    );

    // Recovery-plane overhead on the healthy path: a single thread applies
    // a gapless sequenced invalidation stream with the recovery plane off
    // (RecoveryPolicy::None) and on (GapResync) — the delta is the
    // steady-state cost the fault-tolerance machinery charges every apply.
    let recovery_msgs = msgs_per_cache * 4;
    let apply_none_sample =
        repeat(rounds, || measure_recovery_overhead(RecoveryPolicy::None, recovery_msgs));
    let apply_resync_sample = repeat(rounds, || {
        measure_recovery_overhead(
            RecoveryPolicy::GapResync {
                staleness_budget: SimDuration::from_millis(100),
            },
            recovery_msgs,
        )
    });
    let (apply_none, apply_resync) = (apply_none_sample.min, apply_resync_sample.min);
    println!(
        "\nrecovery overhead: {recovery_msgs} gapless sequenced invalidations, one thread \
         (min of {rounds})\n\
         {:>12} {:>16} {:>9}\n{:>12} {:>16.0} {:>8.1}%\n{:>12} {:>16.0} {:>8.1}%\n\
         {:>12} {:>15.1}%",
        "policy",
        "inv/s",
        "spread",
        "none",
        apply_none,
        apply_none_sample.spread_pct(),
        "gap-resync",
        apply_resync,
        apply_resync_sample.spread_pct(),
        "overhead",
        (apply_none / apply_resync - 1.0) * 100.0
    );

    // Inconsistency vs pipe capacity (DropOldest), from the sim harness's
    // backpressure figure with small parameters.
    let bp_secs = if quick { 2 } else { 10 };
    let bp_rows = backpressure(
        SimDuration::from_secs(bp_secs),
        42,
        &[4, 256],
        &[tcache_net::pipe::OverflowPolicy::DropOldest],
    );
    println!("\nbackpressure (drop-oldest, {bp_secs}s sim): capacity -> inconsistency");
    for row in &bp_rows {
        let capacity = row
            .capacity
            .map_or_else(|| "unbounded".to_string(), |c| c.to_string());
        println!("{capacity:>12} {:>7.2}%", row.inconsistency_pct);
    }

    // Cross-plane comparison: the same seeded schedule on the live reactor
    // stack versus the discrete-event simulator (plus the live stack's
    // free-running wall-clock read throughput).
    let lp_secs = if quick { 2 } else { 8 };
    let lp = live_plane(SimDuration::from_secs(lp_secs), 42, &LIVE_PLANE_LOSSES);
    println!(
        "\nlive plane ({lp_secs}s schedule): loss -> plain inconsistency (live / sim)"
    );
    for row in &lp.rows {
        println!(
            "{:>12} {:>7.2}% {:>7.2}%",
            row.loss, row.live_plain_inconsistency_pct, row.sim_plain_inconsistency_pct
        );
    }
    println!(
        "{:>12} {:>16.0} txn/s wall-clock (concurrent clients)",
        "live reads", lp.live_read_txns_per_wall_sec
    );

    let single = results[0].1;
    let fields: Vec<String> = results
        .iter()
        .map(|(t, tps)| format!("    \"threads_{t}_txn_per_sec\": {tps:.1}"))
        .collect();
    let cache_fields: Vec<String> = cache_scaling
        .iter()
        .map(|(c, tps)| format!("    \"caches_{c}_txn_per_sec\": {tps:.1}"))
        .collect();
    let single_cache = cache_scaling[0].1;
    let backpressure_fields: Vec<String> = bp_rows
        .iter()
        .map(|row| {
            let capacity = row
                .capacity
                .map_or_else(|| "unbounded".to_string(), |c| c.to_string());
            format!(
                "    \"cap_{capacity}_inconsistency_pct\": {:.3}",
                row.inconsistency_pct
            )
        })
        .collect();
    let reactor_batch_fields: Vec<String> = reactor_batch_rows
        .iter()
        .map(|&(budget, caches, inv_per_sec)| {
            format!(
                "      {{ \"batch_budget\": {budget}, \"caches\": {caches}, \
                 \"inv_per_sec\": {inv_per_sec:.1} }}"
            )
        })
        .collect();
    let live_plane_rows: Vec<String> = lp
        .rows
        .iter()
        .map(|row| {
            format!(
                "      {{ \"loss\": {}, \"live_plain_inconsistency_pct\": {:.3}, \
                 \"sim_plain_inconsistency_pct\": {:.3}, \"live_dropped\": {}, \
                 \"sim_dropped\": {} }}",
                row.loss,
                row.live_plain_inconsistency_pct,
                row.sim_plain_inconsistency_pct,
                row.live_dropped,
                row.sim_dropped
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"hotpath_concurrent_reads\",\n  \"objects\": {OBJECTS},\n  \
         \"reads_per_txn\": {READS_PER_TXN},\n  \"txns_per_thread\": {txns_per_thread},\n  \
         \"host_threads\": {},\n  \"results\": {{\n{}\n  }},\n  \
         \"cache_scaling\": {{\n{}\n  }},\n  \
         \"invalidation_plane\": {{\n    \"caches\": 4,\n    \
         \"msgs_per_cache\": {msgs_per_cache},\n    \
         \"batch_budget\": {DEFAULT_BATCH_BUDGET},\n    \
         \"threaded_inv_per_sec\": {:.1},\n    \
         \"reactor_inv_per_sec\": {:.1}\n  }},\n  \
         \"reactor_batch\": {{\n    \"msgs_per_cache\": {sweep_msgs},\n    \
         \"rows\": [\n{}\n    ]\n  }},\n  \
         \"read_txn_fastpath\": {{\n    \"txns\": {fp_txns},\n    \
         \"txn_per_sec\": {:.1},\n    \
         \"ns_per_read\": {:.1},\n    \
         \"allocs_per_txn\": {fp_allocs_per_txn:.4},\n    \
         \"promotion_rate\": {fp_promotion_rate:.4}\n  }},\n  \
         \"recovery_overhead\": {{\n    \"msgs\": {recovery_msgs},\n    \
         \"apply_none_inv_per_sec\": {apply_none:.1},\n    \
         \"apply_gap_resync_inv_per_sec\": {apply_resync:.1}\n  }},\n  \
         \"backpressure_drop_oldest\": {{\n{}\n  }},\n  \
         \"live_plane\": {{\n    \"schedule_secs\": {lp_secs},\n    \
         \"live_read_txns_per_wall_sec\": {:.1},\n    \
         \"live_aggregate_plain_pct\": {:.3},\n    \
         \"sim_aggregate_plain_pct\": {:.3},\n    \"rows\": [\n{}\n    ]\n  }},\n  \
         \"single_thread_ns_per_read\": {:.1},\n  \"speedup_4_threads\": {:.3},\n  \
         \"speedup_4_caches\": {:.3}\n}}\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fields.join(",\n"),
        cache_fields.join(",\n"),
        threaded_plane.min,
        reactor_plane.min,
        reactor_batch_fields.join(",\n"),
        fp.min,
        1e9 / (fp.min * READS_PER_TXN as f64),
        backpressure_fields.join(",\n"),
        lp.live_read_txns_per_wall_sec,
        lp.live_aggregate_plain_pct,
        lp.sim_aggregate_plain_pct,
        live_plane_rows.join(",\n"),
        1e9 / (single * READS_PER_TXN as f64),
        results.iter().find(|(t, _)| *t == 4).map_or(0.0, |(_, tps)| tps / single),
        cache_scaling
            .iter()
            .find(|(c, _)| *c == 4)
            .map_or(0.0, |(_, tps)| tps / single_cache),
    );
    std::fs::write(&out, json).expect("write BENCH_hotpath.json");
    println!("wrote {out}");

    // The tracked trajectory: one git-SHA-stamped summary row per run,
    // appended to the history file, with a delta report against the
    // previous row. Quick (CI smoke) runs use shorter measurements, so the
    // row records which regime produced it; compare like with like.
    let current: Vec<(&str, f64)> = vec![
        ("quick", u64::from(quick) as f64),
        ("threads_1_txn_per_sec", results[0].1),
        (
            "threads_4_txn_per_sec",
            results.iter().find(|(t, _)| *t == 4).map_or(0.0, |&(_, tps)| tps),
        ),
        (
            "caches_4_txn_per_sec",
            cache_scaling.iter().find(|(c, _)| *c == 4).map_or(0.0, |&(_, tps)| tps),
        ),
        ("threaded_inv_per_sec", threaded_plane.min),
        ("reactor_inv_per_sec", reactor_plane.min),
        ("live_read_txns_per_wall_sec", lp.live_read_txns_per_wall_sec),
        ("fastpath_txn_per_sec", fp.min),
        ("fastpath_allocs_per_txn", fp_allocs_per_txn),
    ];
    // Compare like with like: --quick rows measure far fewer iterations
    // than full runs, so the baseline is the most recent previous row of
    // the *same* regime, not merely the last row.
    let regime = u64::from(quick) as f64;
    let previous = std::fs::read_to_string(&history).ok().and_then(|contents| {
        contents
            .lines()
            .rev()
            .find(|line| {
                tcache_bench::parse_flat_numbers(line)
                    .iter()
                    .any(|(key, value)| key == "quick" && *value == regime)
            })
            .map(String::from)
    });
    let sha = git_short_sha();
    let row = format!(
        "{{\"sha\": \"{sha}\", {}}}\n",
        current
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut file| file.write_all(row.as_bytes()))
        .expect("append bench history row");
    println!("\nappended {history} row for {sha}");
    match previous.as_deref().and_then(|prev| history_comparison(prev, &current)) {
        Some(report) => println!("{report}"),
        None => println!(
            "(no previous {} history row to compare against)",
            if quick { "quick" } else { "full-run" }
        ),
    }
}
