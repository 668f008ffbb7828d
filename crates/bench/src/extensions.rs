//! Experiments beyond the paper's single-column setup: loss sweeps,
//! multi-cache deployments, the live reactor plane, backpressure, the
//! scenario engine and fault tolerance. The ones CI runs with `--quick`
//! assert the properties they demonstrate, so a regression fails loudly.

use crate::{pct, RunOptions};
use tcache_net::pipe::OverflowPolicy;
use tcache_sim::figures::{
    self, BACKPRESSURE_CAPACITIES, BACKPRESSURE_POLICIES, LIVE_PLANE_LOSSES, SCENARIO_CACHES,
};
use tcache_types::SimDuration;

/// Sensitivity of the plain cache and of T-Cache to the invalidation loss
/// rate.
pub(crate) fn drop_sweep(options: &RunOptions) {
    let duration = options.duration(30, 5);
    let losses = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];
    println!("Extension — inconsistency vs invalidation loss (retail workload, k = 3, RETRY)");
    println!(
        "simulated duration per point: {duration}, seed {}",
        options.seed
    );
    println!(
        "{:>8} {:>16} {:>16}",
        "loss", "plain incons.", "tcache incons."
    );
    for row in figures::drop_sweep(duration, options.seed, &losses) {
        println!(
            "{:>8.2} {:>16} {:>16}",
            row.loss,
            pct(row.plain_inconsistency_pct),
            pct(row.tcache_inconsistency_pct)
        );
    }
}

/// Four edge caches over one database, each with its own independently
/// seeded invalidation channel at a heterogeneous loss rate. Prints the
/// per-cache inconsistency-vs-loss trend for the plain cache and T-Cache,
/// plus the deployment-wide aggregates.
pub(crate) fn multi_cache(options: &RunOptions) {
    let duration = options.duration(30, 5);
    println!("Multi-cache deployment — per-cache inconsistency vs link loss (k = 5, ABORT)");
    println!("simulated duration: {duration}, seed {}", options.seed);
    println!(
        "{:>8} {:>8} {:>16} {:>16} {:>14} {:>10}",
        "cache", "loss", "plain incons.", "tcache incons.", "tcache abort", "hit ratio"
    );
    let figure = figures::multi_cache(duration, options.seed, &figures::MULTI_CACHE_LOSSES);
    for row in &figure.rows {
        println!(
            "{:>8} {:>8.2} {:>16} {:>16} {:>14} {:>10.3}",
            row.cache,
            row.loss,
            pct(row.plain_inconsistency_pct),
            pct(row.tcache_inconsistency_pct),
            pct(row.tcache_aborted_pct),
            row.tcache_hit_ratio,
        );
    }
    println!(
        "aggregate over all caches: plain {} → tcache {}",
        pct(figure.plain_aggregate_inconsistency_pct),
        pct(figure.tcache_aggregate_inconsistency_pct),
    );
}

/// The slow-cache backpressure experiment: inconsistency as a function of
/// the invalidation-pipe capacity, per overflow policy.
///
/// A single consistency-unaware cache sits behind a congested invalidation
/// pipe (200 ms delivery delay, no loss — roughly a hundred messages in
/// flight at the paper's update rate). Sweeping the pipe capacity shows the
/// trade-off the live reactor plane exposes: undersized pipes with a drop
/// policy shed invalidations and the served inconsistency rises; `Block`
/// pipes lose nothing but stall the publisher (commit-path backpressure).
/// `--quick` also sweeps fewer capacities.
pub(crate) fn backpressure(options: &RunOptions) {
    let duration = options.duration(30, 4);
    let (capacities, policies): (&[usize], &[OverflowPolicy]) = if options.quick {
        (&[4, 256], &BACKPRESSURE_POLICIES)
    } else {
        (&BACKPRESSURE_CAPACITIES, &BACKPRESSURE_POLICIES)
    };

    println!(
        "backpressure: plain cache, 200 ms delivery delay, no loss, {}s run (seed {})",
        duration.as_secs_f64(),
        options.seed
    );
    println!(
        "{:>12} {:>10} {:>15} {:>12} {:>10} {:>10}",
        "policy", "capacity", "inconsistency", "overflowed", "stalled", "delivered"
    );
    let rows = figures::backpressure(duration, options.seed, capacities, policies);
    for row in &rows {
        let capacity = row
            .capacity
            .map_or_else(|| "unbounded".to_string(), |c| c.to_string());
        println!(
            "{:>12} {:>10} {:>15} {:>12} {:>10} {:>10}",
            row.policy,
            capacity,
            pct(row.inconsistency_pct),
            row.overflowed,
            row.stalled,
            row.delivered
        );
    }

    let tightest_drop = rows
        .iter()
        .filter(|r| r.policy != "block" && r.capacity.is_some())
        .min_by_key(|r| r.capacity)
        .expect("at least one bounded drop row");
    assert!(
        tightest_drop.overflowed > 0,
        "the tightest drop-policy pipe must overflow"
    );
    let block_rows: Vec<_> = rows.iter().filter(|r| r.policy == "block").collect();
    assert!(
        block_rows.iter().all(|r| r.overflowed == 0),
        "block pipes must not lose messages"
    );
    assert!(
        block_rows
            .iter()
            .any(|r| r.capacity.is_some() && r.stalled > 0),
        "bounded block pipes must stall the publisher"
    );
}

/// The live execution plane experiment: the inconsistency-vs-loss trend
/// reproduced on the real reactor stack, validated against the
/// discrete-event simulator row by row.
///
/// Four edge caches with loss rates from reliable to badly lossy run the
/// same seeded schedule twice: once on the live plane (real `TCacheSystem`,
/// reactor transport, loss applied by the per-cache delivery tasks) and
/// once on the discrete-event plane. At zero delivery delay the lockstep
/// live rows must match the simulated rows *exactly* — same seeded loss
/// streams, same schedule — which is asserted below so CI fails loudly if
/// the planes drift apart. A final free-running concurrent run reports the
/// wall-clock read throughput of the live stack.
pub(crate) fn live_plane(options: &RunOptions) {
    let duration = options.duration(20, 3);

    println!(
        "live plane: 4 caches, plain + t-cache, zero delivery delay, {}s schedule (seed {})",
        duration.as_secs_f64(),
        options.seed
    );
    let figure = figures::live_plane(duration, options.seed, &LIVE_PLANE_LOSSES);

    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "cache", "loss", "live plain", "sim plain", "live t-cache", "live drops", "sim drops"
    );
    for row in &figure.rows {
        println!(
            "{:>6} {:>6} {:>14} {:>14} {:>14} {:>12} {:>12}",
            row.cache,
            row.loss,
            pct(row.live_plain_inconsistency_pct),
            pct(row.sim_plain_inconsistency_pct),
            pct(row.live_tcache_inconsistency_pct),
            row.live_dropped,
            row.sim_dropped
        );
    }
    println!(
        "aggregate plain inconsistency: live {} / sim {}",
        pct(figure.live_aggregate_plain_pct),
        pct(figure.sim_aggregate_plain_pct)
    );
    println!(
        "concurrent live read throughput: {:.0} txn/s wall-clock",
        figure.live_read_txns_per_wall_sec
    );

    let reliable = &figure.rows[0];
    let lossiest = figure.rows.last().expect("at least one cache");
    assert!(
        lossiest.live_plain_inconsistency_pct > reliable.live_plain_inconsistency_pct,
        "live plain-cache inconsistency must rise with loss"
    );
    for row in &figure.rows {
        assert_eq!(
            row.live_plain_inconsistency_pct, row.sim_plain_inconsistency_pct,
            "cache {}: the live and discrete-event planes must agree exactly at zero delay",
            row.cache
        );
        assert_eq!(
            row.live_dropped, row.sim_dropped,
            "cache {}: both planes must drop the same seeded messages",
            row.cache
        );
    }
    assert!(figure.live_read_txns_per_wall_sec > 0.0);
}

/// The open-loop scenario engine experiment: the five-scenario catalog —
/// hot-key storm, flash crowd, diurnal curve, invalidation stampede,
/// cache churn — executed on the live lockstep plane, with modeled client
/// latency quantiles (p50/p99/p999) per scenario and per cache, plus the
/// star-vs-two-tier invalidation topology comparison.
///
/// The whole figure is a deterministic function of `(duration, seed)`: it
/// is computed **twice** and the two `ScenarioFigure`s must be
/// bit-identical — verdicts, drop counts and histogram quantiles — so CI
/// fails loudly if replay determinism regresses. The two-tier tree must
/// also cut the database's publisher fan-out without changing any leaf's
/// verdicts.
pub(crate) fn scenarios(options: &RunOptions) {
    let duration = options.duration(20, 3);

    println!(
        "scenario engine: 5-scenario catalog, {SCENARIO_CACHES} caches, live lockstep plane, \
         {}s schedule (seed {})",
        duration.as_secs_f64(),
        options.seed
    );
    let figure = figures::scenarios(duration, options.seed);
    let replay = figures::scenarios(duration, options.seed);
    assert_eq!(
        figure, replay,
        "the scenario engine must be bit-identical under replay (same seed, same figure)"
    );

    println!(
        "{:>14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scenario",
        "reads",
        "updates",
        "incons",
        "abort",
        "degraded",
        "p50us",
        "p99us",
        "p999us",
        "dropped"
    );
    for row in &figure.rows {
        println!(
            "{:>14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            row.scenario,
            row.reads,
            row.updates,
            pct(row.inconsistency_pct),
            pct(row.abort_pct),
            pct(row.degraded_pct),
            row.p50_us,
            row.p99_us,
            row.p999_us,
            row.dropped
        );
    }
    println!("\nper-cache latency tails:");
    println!(
        "{:>14} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scenario", "cache", "reads", "incons", "p50us", "p99us", "p999us"
    );
    for row in &figure.per_cache {
        println!(
            "{:>14} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
            row.scenario,
            row.cache,
            row.reads,
            pct(row.inconsistency_pct),
            row.p50_us,
            row.p99_us,
            row.p999_us
        );
    }
    println!(
        "\ninvalidation topology: star publishes to {} caches, two-tier to {} roots \
         (inconsistency {} vs {}, leaf verdicts identical: {})",
        figure.star_fanout,
        figure.two_tier_fanout,
        pct(figure.star_inconsistency_pct),
        pct(figure.two_tier_inconsistency_pct),
        figure.two_tier_matches_star
    );

    for row in &figure.rows {
        assert!(
            row.reads > 0,
            "{}: scenarios must generate traffic",
            row.scenario
        );
        assert!(
            row.p50_us <= row.p99_us && row.p99_us <= row.p999_us,
            "{}: latency quantiles must be ordered",
            row.scenario
        );
        assert!(
            row.p999_us > 0,
            "{}: the latency histograms must be populated",
            row.scenario
        );
    }
    assert!(
        figure.two_tier_fanout < figure.star_fanout,
        "the two-tier tree must cut the database's publisher fan-out \
         ({} vs {})",
        figure.two_tier_fanout,
        figure.star_fanout
    );
    assert!(
        figure.two_tier_matches_star,
        "lossless regional parents must leave every leaf's verdicts and drops unchanged"
    );
}

/// The fault-tolerance experiment: post-heal inconsistency as a function of
/// partition length, with and without gap-triggered recovery.
///
/// A plain cache on a reliable zero-delay link is partitioned from the
/// backend for a window of each swept length (next to an unfaulted control
/// cache). Without recovery the cache comes back silently stale and keeps
/// committing inconsistent transactions after the heal; with
/// sequence-numbered invalidation streams and gap-triggered resync the
/// cache replays the database's invalidation log on reconnect (or performs
/// a snapshot resync once the log has been truncated) and post-heal
/// inconsistency returns to the healthy baseline. Partitions outlasting
/// the staleness budget degrade the cache to pass-through reads, which are
/// never inconsistent. `--quick` also sweeps fewer partition lengths.
pub(crate) fn fault_tolerance(options: &RunOptions) {
    let duration = options.duration(30, 8);
    let partitions_ms: &[u64] = if options.quick {
        &[500, 4000]
    } else {
        &[500, 1000, 2000, 4000, 8000]
    };
    let budget = SimDuration::from_millis(100);

    println!(
        "fault tolerance: plain cache, zero loss/delay, partition at t=1s, \
         staleness budget {budget}, {}s run (seed {})",
        duration.as_secs_f64(),
        options.seed
    );
    println!(
        "{:>8} {:>30} {:>8} {:>10} {:>9} {:>6} {:>8} {:>8} {:>9}",
        "part",
        "recovery",
        "incons",
        "post-heal",
        "degraded",
        "gaps",
        "missed",
        "replays",
        "snapshots"
    );
    let rows = figures::fault_tolerance(duration, options.seed, partitions_ms, budget);
    for row in &rows {
        println!(
            "{:>6}ms {:>30} {:>8} {:>10} {:>9} {:>6} {:>8} {:>8} {:>9}",
            row.partition_ms,
            row.recovery,
            row.inconsistent,
            row.post_heal_inconsistent,
            row.degraded_txns,
            row.gaps_detected,
            row.invalidations_missed,
            row.log_replays,
            row.snapshot_resyncs
        );
    }

    let none_rows: Vec<_> = rows
        .iter()
        .filter(|r| r.recovery == "no-recovery")
        .collect();
    let resync_rows: Vec<_> = rows
        .iter()
        .filter(|r| r.recovery != "no-recovery")
        .collect();
    assert!(
        none_rows.iter().all(|r| r.post_heal_inconsistent > 0),
        "without recovery the healed cache must keep serving stale data"
    );
    assert!(
        none_rows.last().unwrap().inconsistent > none_rows.first().unwrap().inconsistent,
        "inconsistency must grow with the partition length"
    );
    assert!(
        resync_rows.iter().all(|r| r.post_heal_inconsistent == 0),
        "gap-triggered resync must restore the healthy baseline after the heal"
    );
    assert!(
        resync_rows.last().unwrap().snapshot_resyncs > 0,
        "the longest partition must outlive the invalidation log and force a snapshot resync"
    );
    assert!(
        rows.iter().all(|r| r.degraded_inconsistent == 0),
        "degraded-window reads come from the backend and are never violations"
    );
}
