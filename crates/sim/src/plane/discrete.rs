//! The discrete-event execution plane.
//!
//! Replays a pre-built [`Schedule`] against the simulated components in
//! virtual time: every transaction executes at its scheduled instant, each
//! cache's link ([`tcache_net::delivery::LinkStep`], the same link model
//! the live plane drives in wall-clock time) drops and delays its
//! invalidations, and deliveries that became due are applied before each
//! event. A `DeliverInvalidations` event is scheduled at the earliest
//! deadline across the links after every commit. Workload generation is
//! factored out into the schedule so the live plane can execute the
//! identical script.
//!
//! The configured [`FaultPlan`] is walked with a cursor: every event due by
//! the current instant fires after pending deliveries are applied and
//! before the transaction executes, mirroring the live plane (which
//! quiesces deliveries after each commit and applies faults before each
//! operation). A severed link — crash or partition — stops *publication*
//! to that cache's link, and deliveries that reach a severed cache are
//! discarded rather than applied (still counted `delivered`), exactly like
//! the live plane's apply.

use crate::event::{Event, EventQueue};
use crate::experiment::Experiment;
use crate::plane::ScenarioLatency;
use crate::results::{CacheColumnResult, ExperimentResult};
use crate::schedule::{Schedule, ScheduledTxn};
use tcache_cache::{CacheStatsSnapshot, ReadMode};
use tcache_monitor::ReadPhase;
use tcache_net::delivery::{DeliveryStatsSnapshot, LinkStep};
use tcache_net::fault::{FaultCursor, FaultEvent, FaultKind, FaultPlan};
use tcache_types::{CacheId, SimTime, TransactionRecord};
use tcache_workload::LatencyHistogram;

/// Executes `schedule` on the experiment's discrete-event components and
/// collects the results.
pub(crate) fn execute(mut exp: Experiment, schedule: &Schedule) -> ExperimentResult {
    let end = SimTime::ZERO + exp.config.duration;
    // Pre-load every scheduled transaction; the queue's insertion-order
    // tie-breaking reproduces the historical arrival interleaving because
    // the schedule is already in event order. Delivery events join the
    // queue dynamically as updates broadcast, exactly as before.
    let mut queue = EventQueue::new();
    for op in &schedule.ops {
        let event = match op.target {
            None => Event::UpdateTransaction,
            Some(cache) => Event::ReadOnlyTransaction(cache),
        };
        queue.schedule(op.at, event);
    }

    // The scenario's crash/restart churn rides the fault plan; its
    // deterministic latency model fills the per-cache histograms.
    let faults = exp.config.effective_faults();
    let latency_model = ScenarioLatency::from_config(&exp.config);
    let mut latency: Vec<LatencyHistogram> = vec![LatencyHistogram::new(); exp.caches.len()];
    let mut fault_cursor = FaultCursor::new();
    let mut severed = vec![false; exp.caches.len()];

    let mut cursor = 0usize;
    while let Some((now, event)) = queue.pop() {
        if now > end {
            break;
        }
        // Deliver every invalidation due by now before serving clients,
        // then fire the fault events that have become due.
        deliver_due(&mut exp, now, &severed);
        apply_due_faults(&mut exp, &faults, &mut fault_cursor, &mut severed, now);
        match event {
            Event::DeliverInvalidations => {}
            Event::UpdateTransaction => {
                let op = &schedule.ops[cursor];
                cursor += 1;
                debug_assert!(op.is_update());
                run_update(&mut exp, now, op, &mut queue, &severed);
            }
            Event::ReadOnlyTransaction(cache) => {
                let op = &schedule.ops[cursor];
                cursor += 1;
                debug_assert_eq!(op.target, Some(cache));
                run_read_only(&mut exp, now, cache, op, &latency_model, &mut latency);
            }
        }
    }
    // Fire whatever the plan still schedules inside the run's duration
    // (e.g. a heal after the last transaction), so final lifecycle states
    // and counters match the plan rather than the traffic pattern.
    apply_due_faults(&mut exp, &faults, &mut fault_cursor, &mut severed, end);

    let per_cache: Vec<CacheColumnResult> = exp
        .caches
        .iter()
        .zip(&exp.links)
        .zip(&exp.losses)
        .zip(latency)
        .map(|(((cache, link), &loss), latency)| {
            CacheColumnResult {
                id: cache.id(),
                loss,
                report: exp.monitor.cache_report(cache.id()),
                degraded: exp.monitor.phase_report(cache.id(), ReadPhase::Degraded),
                cache: cache.stats(),
                link: link.stats(),
                lifecycle: cache.lifecycle_stats(),
                latency,
            }
        })
        .collect();
    let mut cache_total = CacheStatsSnapshot::default();
    let mut link_total = DeliveryStatsSnapshot::default();
    for column in &per_cache {
        cache_total.merge(column.cache);
        link_total.merge(column.link);
    }
    ExperimentResult {
        duration: exp.config.duration,
        report: exp.monitor.report(),
        cache: cache_total,
        db: exp.db.stats(),
        link: link_total,
        per_cache,
        timeseries: exp.timeseries,
        execution_wall: None,
    }
}

fn deliver_due(exp: &mut Experiment, now: SimTime, severed: &[bool]) {
    for ((link, cache), &cut) in exp.links.iter_mut().zip(&exp.caches).zip(severed) {
        // A severed cache's deliveries are discarded, like the live
        // plane's apply skipping a severed cache.
        link.deliver_due(now, usize::MAX, |invalidation| {
            if !cut {
                cache.apply_invalidation(invalidation);
            }
        });
    }
}

/// Fires every fault event due by `now`, in plan order.
fn apply_due_faults(
    exp: &mut Experiment,
    plan: &FaultPlan,
    cursor: &mut FaultCursor,
    severed: &mut [bool],
    now: SimTime,
) {
    for &FaultEvent { at, cache, kind } in cursor.due(plan, now) {
        let index = cache.0 as usize;
        match kind {
            FaultKind::Crash => {
                severed[index] = true;
                exp.caches[index].crash(at);
            }
            FaultKind::Restart => {
                exp.caches[index].restart();
                severed[index] = false;
            }
            FaultKind::PartitionStart => {
                severed[index] = true;
                exp.caches[index].disconnect(at);
            }
            FaultKind::PartitionEnd => {
                exp.caches[index].reconnect();
                severed[index] = false;
            }
            FaultKind::DelaySpike(extra) => exp.links[index].set_extra_delay(extra),
        }
    }
}

fn run_update(
    exp: &mut Experiment,
    now: SimTime,
    op: &ScheduledTxn,
    queue: &mut EventQueue,
    severed: &[bool],
) {
    match exp.db.execute_update(op.txn, &op.access) {
        Ok(commit) => {
            let record = TransactionRecord::update_committed(
                op.txn,
                commit.reads.clone(),
                commit.written.clone(),
                now,
            );
            exp.monitor.record_update_commit(&record);
            // Fan out per cache, skipping severed links: a crashed or
            // partitioned cache receives nothing, exactly like the live
            // plane's publisher discarding sends toward a severed link.
            // Per-cache links draw from independent RNG streams, so
            // skipping one cache never perturbs another's loss pattern.
            for (link, &cut) in exp.links.iter_mut().zip(severed) {
                if !cut {
                    link.admit(now, commit.invalidations.iter().copied());
                }
            }
            if let Some(at) = exp.links.iter().filter_map(LinkStep::next_deadline).min() {
                queue.schedule(at, Event::DeliverInvalidations);
            }
        }
        Err(_) => {
            exp.monitor.record_update_abort();
        }
    }
}

fn run_read_only(
    exp: &mut Experiment,
    now: SimTime,
    cache: CacheId,
    op: &ScheduledTxn,
    latency_model: &Option<ScenarioLatency>,
    latency: &mut [LatencyHistogram],
) {
    let server = &exp.caches[cache.0 as usize];
    let log = server
        .execute_read_only(now, op.txn, op.access.objects())
        .unwrap_or_else(|e| panic!("unexpected cache error during experiment: {e}"));
    let degraded = matches!(log.mode, ReadMode::PassThrough);
    let phase = if degraded {
        ReadPhase::Degraded
    } else {
        ReadPhase::Healthy
    };
    if let Some(model) = latency_model {
        model.record(&mut latency[cache.0 as usize], now, op.txn, degraded);
    }
    let class = exp
        .monitor
        .record_read_only_in_phase(cache, phase, &log.observed, log.committed);
    exp.timeseries.record(now, class);
}
