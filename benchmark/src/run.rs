//! One benchmark run of one workload: set-up, measured phase(s), checks,
//! classification, and the metrics by name.

use crate::classify::Classification;
use crate::engine::{
    median, peak_rss_mb, prepare, quartiles, Client, Counters, Phase, Prepared, SliceStat, Stop,
};
use crate::hist::Hist;
use crate::layers::{self, LayerTimes};
use crate::spec::{WorkloadSpec, END_TO_END, PER_LAYER, TAPE_LEN, TXN_KEYS};
use crate::trace::{self, NoTrace, SpanBuf, SpanName};
use std::path::PathBuf;
use std::time::Duration;
use tcache::types::{CacheId, ObjectId};
use tcache::TCacheSystem;

/// An untraced run sets up this many times before the measured phase and
/// as many times after it; `setup_s` is the lower quartile of them all. The
/// host runs the same code at two speeds (see `QUIET_SHARE`) and a burst of
/// set-ups falls into one of its phases; two bursts half a minute apart
/// rarely both fall into a slow one.
const SETUP_REPS: usize = 8;

/// The timing metrics are read from the fastest 1/`QUIET_SHARE` of a
/// phase's slices. The shared host alternates, every few seconds, between
/// two speeds 1.5x apart whatever the program does (a single-threaded loop
/// over 64 KiB shows the same two modes), so a median over all slices is
/// one mode or the other depending on which filled more of the run; the
/// fastest 1/32 (0.8 s of a 25 s run) is the fast mode whenever the run
/// met it at all.
const QUIET_SHARE: usize = 32;

/// Throughput and median latencies over the quiet slices of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    pub ops_per_s: f64,
    pub read_p50_ns: f64,
    pub update_p50_ns: f64,
    /// How many slices were selected.
    pub slices: u64,
}

/// Selects the fastest 1/`QUIET_SHARE` of `slices` (at least one) by
/// throughput and takes the median of each column over them.
pub fn quiet_window(slices: &[SliceStat]) -> Quiet {
    let mut fastest = slices.to_vec();
    fastest.sort_by(|a, b| {
        b.ops_per_s
            .partial_cmp(&a.ops_per_s)
            .expect("no NaN timings")
    });
    fastest.truncate((slices.len() / QUIET_SHARE).max(1));
    let column = |of: fn(&SliceStat) -> f64| median(&fastest.iter().map(of).collect::<Vec<f64>>());
    Quiet {
        ops_per_s: column(|slice| slice.ops_per_s),
        read_p50_ns: column(|slice| slice.read_p50_ns),
        update_p50_ns: column(|slice| slice.update_p50_ns),
        slices: fastest.len() as u64,
    }
}

/// Spans the traced phase can record: half a tape pass of the workloads
/// that record two spans per op. The buffer is 32 MiB and the file it is
/// written to about 110 MB per workload, which is what bounds it.
const SPAN_CAPACITY: usize = TAPE_LEN;

/// `--quick` divides every op count by this.
const QUICK_DIVISOR: u64 = 20;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Measure for this long instead of for the workload's fixed op count.
    pub seconds: Option<f64>,
    pub quick: bool,
    /// Also run the traced phase and the layer replays, and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub traced: bool,
    /// Where the traced run writes its spans and layer metrics.
    pub out_dir: PathBuf,
}

/// One metric as measured. `samples` is how many observations are behind
/// it, 0 where that has no meaning.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

fn plain(name: &'static str, value: f64) -> Reading {
    sampled(name, value, 0)
}

fn sampled(name: &'static str, value: f64, samples: u64) -> Reading {
    Reading {
        name,
        value,
        samples,
    }
}

pub struct Outcome {
    pub workload: &'static str,
    /// Hash of the op tape: equal hashes mean equal inputs.
    pub tape_hash: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Transactions of each kind among `attempted`.
    pub read_txns: u64,
    pub update_txns: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in table order.
    pub metrics: Vec<Reading>,
    pub failures: Vec<String>,
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

pub fn run_workload(spec: &'static WorkloadSpec, options: &RunOptions) -> Outcome {
    let reps = if options.traced { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(2 * reps);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..reps {
        // The previous system goes first: two reactors would share the cores.
        drop(prepared.take());
        let next = prepare(spec, options.seed);
        setups.push(next.setup_s);
        prepared = Some(next);
    }
    let prepared = prepared.expect("at least one set-up");
    let tape_hash = prepared.tape.hash();
    let system = &prepared.system;
    let tape = &prepared.tape.ops;

    let divisor = if options.quick { QUICK_DIVISOR } else { 1 };
    let budget = options
        .seconds
        .map(|s| if options.traced { s / 2.0 } else { s });
    let pass = TAPE_LEN as u64 / divisor;
    let main_stop = Stop {
        max_ops: match (budget, options.traced) {
            (Some(_), _) => u64::MAX,
            (None, true) => pass,
            (None, false) => spec.ops / divisor,
        },
        deadline: budget.map(Duration::from_secs_f64),
    };

    let mut client = Client::new(spec, system, tape);
    let main = client.run_phase(main_stop, &mut NoTrace);
    let rss_mb = peak_rss_mb();
    client.log.close();

    let traced = options.traced.then(|| {
        let mut spans = SpanBuf::new(SPAN_CAPACITY);
        // Root and transaction, plus one span per key when the client
        // issues the reads itself.
        let spans_per_op = if spec.interactive { 2 + TXN_KEYS } else { 2 };
        let stop = Stop {
            max_ops: pass.min((SPAN_CAPACITY / spans_per_op) as u64),
            deadline: budget.map(Duration::from_secs_f64),
        };
        let phase = client.run_phase(stop, &mut spans);
        let layer_times = layers::replay(spec, system, tape);
        (phase, spans, layer_times)
    });

    let mut failures = Vec::new();
    check_counters(spec, &main, &mut failures);
    check_final_state(spec, system, &client.head, &mut failures);
    let classification = client
        .log
        .classify(tape, &client.initial_head, spec.caches());
    check_quality(spec, &classification, &mut failures);

    let metrics = match &traced {
        None => {
            drop(client);
            drop(prepared);
            setups.extend((0..reps).map(|_| prepare(spec, options.seed).setup_s));
            end_to_end(&setups, &main, rss_mb, &classification)
        }
        Some((phase, spans, layer_times)) => {
            let path = options.out_dir.join(format!("{}.spans.jsonl", spec.name));
            if let Err(error) = trace::write_jsonl(&path, &spans.spans) {
                failures.push(format!("writing {}: {error}", path.display()));
            }
            per_layer(&prepared, &main, phase, spans, layer_times, &classification)
        }
    };
    debug_assert!(metrics.iter().all(|reading| reading.value.is_finite()));
    Outcome {
        workload: spec.name,
        tape_hash,
        correct: failures.is_empty(),
        attempted: main.ops,
        failed: main.tally.failed,
        read_txns: main.tally.read_txns,
        update_txns: main.tally.update_txns,
        metrics,
        failures,
    }
}

/// Checks on the measured phase's counters.
fn check_counters(spec: &WorkloadSpec, main: &Phase, failures: &mut Vec<String>) {
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(
        main.settled,
        "the reactor did not drain within the quiesce timeout".into(),
    );
    let reads = main.delta(|c| c.cache.reads);
    let hits = main.delta(|c| c.cache.hits);
    let misses = main.delta(|c| c.cache.misses);
    check(
        hits + misses == reads,
        format!("hits {hits} + misses {misses} != reads {reads}"),
    );
    let committed = main.delta(|c| c.db.updates_committed);
    check(
        committed == main.tally.updates_committed,
        format!(
            "db committed {committed} updates, the client saw {} of {} commit",
            main.tally.updates_committed, main.tally.update_txns
        ),
    );
    // After the quiesce every message a pipe accepted was either dropped by
    // the link model or applied (absolute counters: nothing is in flight).
    check(
        main.after.pipe.enqueued == main.after.delivery.dropped + main.after.delivery.delivered,
        format!(
            "pipes enqueued {} but tasks dropped {} + delivered {}",
            main.after.pipe.enqueued, main.after.delivery.dropped, main.after.delivery.delivered
        ),
    );
    // The link model must lose what the workload configured.
    for (index, (&loss, (before, after))) in spec
        .cache_loss
        .iter()
        .zip(
            main.before
                .per_cache_delivery
                .iter()
                .zip(&main.after.per_cache_delivery),
        )
        .enumerate()
    {
        let offered = after.offered - before.offered;
        let observed = ratio(after.dropped - before.dropped, offered);
        check(
            offered < 10_000 || (observed - loss).abs() < 0.02,
            format!("cache{index} lost {observed:.4} of its invalidations, configured {loss}"),
        );
    }
}

/// After the final quiesce a loss-free cache has applied the whole stream,
/// and a fresh read of any object through it returns the database's head
/// version, which is also what the client's mirror says.
fn check_final_state(
    spec: &WorkloadSpec,
    system: &TCacheSystem,
    head: &[u64],
    failures: &mut Vec<String>,
) {
    let db = system.database();
    let latest = db.invalidation_latest_seq();
    let mut stale = 0u64;
    for (index, &loss) in spec.cache_loss.iter().enumerate() {
        if loss != 0.0 {
            continue;
        }
        let id = CacheId(index as u32);
        let applied = system.cache(id).expect("deployed").last_applied_seq();
        if applied != latest {
            failures.push(format!(
                "cache{index} applied up to seq {applied}, db published {latest}"
            ));
        }
        for (object, &version) in head.iter().enumerate() {
            let object = ObjectId(object as u64);
            let through_cache = system.read_on(id, object).map(|v| v.version.0);
            let at_db = db.peek_entry(object).map(|e| e.version.0);
            if through_cache != Ok(version) || at_db != Ok(version) {
                stale += 1;
            }
        }
    }
    if stale > 0 {
        failures.push(format!(
            "{stale} fresh reads did not return the database's head version"
        ));
    }
}

fn check_quality(spec: &WorkloadSpec, classification: &Classification, failures: &mut Vec<String>) {
    if classification.unknown_versions > 0 {
        failures.push(format!(
            "{} logged reads saw a version no logged update installed",
            classification.unknown_versions
        ));
    }
    for (index, (&loss, report)) in spec
        .cache_loss
        .iter()
        .zip(&classification.per_cache)
        .enumerate()
    {
        let inconsistency = report.inconsistency_ratio();
        if loss == 0.0 && inconsistency > 0.01 {
            failures.push(format!(
                "loss-free cache{index} committed {inconsistency:.4} inconsistent transactions"
            ));
        }
    }
}

fn end_to_end(
    setups: &[f64],
    main: &Phase,
    rss_mb: f64,
    classification: &Classification,
) -> Vec<Reading> {
    let tally = &main.tally;
    let db_reads = main.delta(|c| c.cache.misses + c.cache.retries);
    let committed = classification.report.committed_total();
    let quiet = quiet_window(&main.slices);
    let readings = vec![
        sampled("setup_s", quartiles(setups).0, setups.len() as u64),
        sampled("ops_per_s", quiet.ops_per_s, quiet.slices),
        sampled("read_p50_ns", quiet.read_p50_ns, quiet.slices),
        sampled("update_p50_ns", quiet.update_p50_ns, quiet.slices),
        sampled(
            "db_reads_per_read_txn",
            ratio(db_reads, tally.read_txns),
            tally.read_txns,
        ),
        sampled(
            "consistent_commit_ratio",
            1.0 - classification.report.inconsistency_ratio(),
            committed,
        ),
        sampled(
            "read_commit_ratio",
            1.0 - ratio(tally.aborted, tally.read_txns),
            tally.read_txns,
        ),
        plain("peak_rss_mb", rss_mb),
    ];
    debug_assert_eq!(readings.len(), END_TO_END.len());
    readings
}

#[allow(clippy::too_many_lines)]
fn per_layer(
    prepared: &Prepared,
    main: &Phase,
    traced: &Phase,
    spans: &SpanBuf,
    times: &LayerTimes,
    classification: &Classification,
) -> Vec<Reading> {
    let system = &prepared.system;
    let tally = &main.tally;
    let d = |counter: fn(&Counters) -> u64| main.delta(counter);
    let fastpath = d(|c| c.cache.fastpath_txns);
    let promoted = d(|c| c.cache.promoted_txns);
    let applied = d(|c| c.cache.invalidations_applied);
    let ignored = d(|c| c.cache.invalidations_ignored);
    let optimistic = d(|c| c.db.read_path.optimistic_hits);
    let fallbacks = d(|c| c.db.read_path.lock_fallbacks);
    let locked = d(|c| c.db.read_path.locked_reads);
    let db_aborted = d(|c| c.db.updates_aborted);
    let db_committed = d(|c| c.db.updates_committed);
    let received = d(|c| c.pipe.received);
    let kilo = |count: u64, per: u64| ratio(count, per) * 1e3;

    // Span durations of the traced phase, per facade call.
    let mut read_txn = Hist::new();
    let mut update = Hist::new();
    for span in &spans.spans {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        if span.name == SpanName::CoreReadTxn as u8 {
            read_txn.record(duration);
        } else if span.name == SpanName::CoreUpdate as u8 {
            update.record(duration);
        }
    }
    let read_txn_p50 = read_txn.quantile(0.5);
    let update_p50 = update.quantile(0.5);
    let untraced_rate = quiet_window(&main.slices).ops_per_s;
    let slice_rates: Vec<f64> = main.slices.iter().map(|slice| slice.ops_per_s).collect();
    let (q1, all_slices_rate, q3) = quartiles(&slice_rates);
    let lag_samples = tally.lag_ns.len();
    let cache_ratio = |index: usize| {
        classification
            .per_cache
            .get(index)
            .map_or(0.0, |report| report.inconsistency_ratio())
    };

    let readings = vec![
        plain("workload.gen_ns_per_op", prepared.tape.gen_ns_per_op),
        sampled("core.read_txn.p50_ns", read_txn_p50, read_txn.len()),
        plain(
            "core.read_overhead_ns",
            read_txn_p50 - times.cache_execute_txn_p50_ns,
        ),
        sampled("core.update.p50_ns", update_p50, update.len()),
        sampled("core.update.p99_ns", update.quantile(0.99), update.len()),
        plain(
            "core.update_overhead_ns",
            update_p50 - times.db_execute_update_p50_ns,
        ),
        plain("core.final_quiesce_ms", main.quiesce_ms),
        plain("core.quiesce_timeouts", d(|c| c.quiesce_timeouts) as f64),
        plain("cache.execute_txn.p50_ns", times.cache_execute_txn_p50_ns),
        plain(
            "cache.hit_ratio",
            ratio(d(|c| c.cache.hits), d(|c| c.cache.reads)),
        ),
        plain("cache.fastpath_share", ratio(fastpath, fastpath + promoted)),
        plain(
            "cache.retries_per_ktxn",
            kilo(d(|c| c.cache.retries), tally.read_txns),
        ),
        plain(
            "cache.evictions_per_ktxn",
            kilo(d(|c| c.cache.evictions), tally.read_txns),
        ),
        plain("cache.gaps_detected", d(|c| c.gaps_detected) as f64),
        plain(
            "cache.apply_invalidation_ns",
            times.cache_apply_invalidation_ns,
        ),
        plain(
            "cache.inval_ignored_ratio",
            ratio(ignored, applied + ignored),
        ),
        plain(
            "cache.footprint_bytes",
            system
                .cache_ids()
                .map(|id| system.cache(id).expect("deployed").footprint_bytes())
                .sum::<usize>() as f64,
        ),
        plain("db.read_entry_ns", times.db_read_entry_ns),
        plain("db.single_reads", d(|c| c.db.single_reads) as f64),
        plain(
            "db.optimistic_hit_ratio",
            ratio(optimistic, optimistic + fallbacks + locked),
        ),
        plain("db.lock_fallbacks", fallbacks as f64),
        plain("db.execute_update.p50_ns", times.db_execute_update_p50_ns),
        plain(
            "db.updates_aborted_ratio",
            ratio(db_aborted, db_aborted + db_committed),
        ),
        plain(
            "db.invalidations_published",
            d(|c| c.db.invalidations_published) as f64,
        ),
        plain("db.publish_stalled", d(|c| c.publish_stalled) as f64),
        plain("db.publish_overflowed", d(|c| c.publish_overflowed) as f64),
        plain(
            "db.footprint_bytes",
            system.database().footprint_bytes() as f64,
        ),
        plain("net.plane_ns_per_msg", times.net_plane_ns_per_msg),
        plain("net.pipe_send_ns", times.net_pipe_send_ns),
        plain(
            "net.pipe_mean_drain",
            ratio(received, d(|c| c.pipe.batched_polls)),
        ),
        plain(
            "net.pipe_coalesced_wakeup_ratio",
            ratio(d(|c| c.pipe.coalesced_wakeups), d(|c| c.pipe.enqueued)),
        ),
        plain(
            "net.reactor_polls_per_msg",
            ratio(d(|c| c.reactor.polls), received),
        ),
        plain(
            "net.reactor_spin_recovery_ratio",
            ratio(d(|c| c.reactor.spin_recoveries), d(|c| c.reactor.wakes)),
        ),
        plain(
            "net.pipe_stall_us_per_kupdate",
            kilo(d(|c| c.pipe.stall_micros), tally.update_txns),
        ),
        plain(
            "net.pipe_overflow_dropped",
            d(|c| c.pipe.overflow_dropped()) as f64,
        ),
        plain(
            "net.delivery_dropped_ratio",
            ratio(d(|c| c.delivery.dropped), d(|c| c.delivery.offered)),
        ),
        sampled(
            "net.inval_lag.p99_us",
            tally.lag_ns.quantile(0.99) / 1e3,
            lag_samples,
        ),
        plain(
            "net.inval_lag.max_outstanding",
            tally.lag.max_outstanding as f64,
        ),
        plain(
            "monitor.update_ingest_per_s",
            classification.update_ingest_per_s,
        ),
        plain(
            "monitor.read_classify_per_s",
            classification.read_classify_per_s,
        ),
        plain(
            "monitor.committed_inconsistent",
            classification.report.committed_inconsistent as f64,
        ),
        plain("monitor.inconsistency_ratio.cache0", cache_ratio(0)),
        plain("monitor.inconsistency_ratio.cache1", cache_ratio(1)),
        plain("monitor.inconsistency_ratio.cache2", cache_ratio(2)),
        plain("monitor.inconsistency_ratio.cache3", cache_ratio(3)),
        plain(
            "trace.overhead_ratio",
            1.0 - quiet_window(&traced.slices).ops_per_s / untraced_rate,
        ),
        plain("trace.spans", spans.spans.len() as f64),
        plain("ops_per_s.iqr_ratio", (q3 - q1) / all_slices_rate),
        sampled(
            "e2e.read_p99_ns",
            tally.read_ns.quantile(0.99),
            tally.read_ns.len(),
        ),
        sampled(
            "e2e.inval_lag_p50_us",
            tally.lag_ns.quantile(0.5) / 1e3,
            lag_samples,
        ),
        plain(
            "e2e.inconsistency_ratio",
            classification.report.inconsistency_ratio(),
        ),
        plain("e2e.abort_ratio", ratio(tally.aborted, tally.read_txns)),
        plain("e2e.failed_ops_ratio", ratio(tally.failed, main.ops)),
    ];
    debug_assert_eq!(readings.len(), PER_LAYER.len());
    readings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_quiet_window_is_the_fastest_share() {
        // Two slices per share: throughput 1, 2, ..., latencies falling as
        // it rises.
        let count = 2 * QUIET_SHARE as u32;
        let slices: Vec<SliceStat> = (1..=count)
            .map(|i| SliceStat {
                ops_per_s: f64::from(i),
                read_p50_ns: f64::from(100 - i),
                update_p50_ns: f64::from(1000 - i),
            })
            .collect();
        let quiet = quiet_window(&slices);
        let top = f64::from(count) - 0.5;
        assert_eq!(
            quiet,
            Quiet {
                ops_per_s: top,
                read_p50_ns: 100.0 - top,
                update_p50_ns: 1000.0 - top,
                slices: 2,
            }
        );
        // Fewer slices than the share: the single fastest one.
        assert_eq!(quiet_window(&slices[..5]).ops_per_s, 5.0);
        assert_eq!(quiet_window(&[]).slices, 0);
    }
}
