//! The live execution plane: the same experiment on the real stack.
//!
//! Instead of simulating components in virtual time, this plane builds a
//! real `TCacheSystem` and drives it with real threads:
//!
//! * the **driver thread** walks the schedule, committing every update
//!   transaction against the backend database; the database's §IV upcalls
//!   push the invalidations into each cache's pipe at commit time;
//! * one **client thread per cache** executes that cache's read-only
//!   transactions (the schedule already sized each population from
//!   `CacheTopology::client_shares`);
//! * the **reactor thread** runs every cache's delivery task, which
//!   drives the cache's link step ([`tcache_net::delivery::LinkStep`]) in
//!   wall-clock time, seeded from `(seed, CacheId)` exactly like the
//!   discrete-event plane's steps; a link with nothing to wait for is
//!   served on the committing thread instead.
//!
//! Classification is deferred: threads log what each transaction observed,
//! and after the run the log is replayed through a fresh monitor, each
//! transaction classified in place. Monitor verdicts are stable under later
//! updates (a read's verdict depends only on its observed versions and the
//! update history), so replay order only needs every observed version
//! recorded before the read that saw it — schedule order under lockstep,
//! updates-then-reads under concurrent pacing, where a read can race ahead
//! of the driver and observe a version the schedule says is "later" (the
//! `ingest_differential` proptest in the monitor crate pins that the two
//! orders give the same verdicts and reports).

use super::{LiveOptions, LivePacing, ScenarioLatency};
use crate::experiment::{CacheKind, ExperimentConfig};
use crate::results::{CacheColumnResult, ExperimentResult};
use crate::schedule::Schedule;
use crate::timeseries::TimeSeries;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcache::{SystemBuilder, TCacheSystem};
use tcache_cache::{CacheStatsSnapshot, ObservedVec, ReadMode};
use tcache_monitor::{ConsistencyMonitor, ReadPhase};
use tcache_net::delivery::{DeliveryModel, DeliveryStatsSnapshot};
use tcache_net::fault::{FaultCursor, FaultEvent, FaultKind};
use tcache_types::{
    CacheId, CachePolicyConfig, ObjectId, SimTime, TransactionRecord, Value,
};
use tcache_workload::{ChurnAction, ChurnEvent, LatencyHistogram};

/// How long a lockstep step waits for the reactor to settle before giving
/// up determinism for that step (generous; the reactor usually settles in
/// microseconds at zero delay).
const LOCKSTEP_QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);

/// What one read-only transaction observed, logged for deferred replay.
struct ReadLog {
    /// Index of the transaction in the schedule.
    index: usize,
    observed: ObservedVec,
    committed: bool,
    /// Which path served it: cached (healthy) or pass-through (degraded).
    mode: ReadMode,
}

/// What one update transaction did, logged for deferred replay.
struct UpdateLog {
    index: usize,
    /// `None` if the database aborted the transaction.
    record: Option<TransactionRecord>,
}

/// Runs `config` on the live plane and collects the results in the same
/// shape the discrete-event plane produces.
///
/// # Panics
/// Panics if the configured topology deploys zero caches or a worker
/// thread dies.
pub(crate) fn run(config: ExperimentConfig, options: LiveOptions) -> ExperimentResult {
    let schedule = Arc::new(Schedule::build(&config));
    let losses = config.caches.losses(config.invalidation_loss);
    let policy = cache_policy(&config.cache);
    let models: Vec<DeliveryModel> = losses
        .iter()
        .map(|&loss| DeliveryModel::uniform(loss, config.invalidation_delay))
        .collect();
    let mut builder = SystemBuilder::new()
        .cache_policy(policy)
        .delivery_models(models)
        .overflow_policy(config.overflow_policy)
        .recovery_policy(config.recovery)
        .seed(config.seed);
    if let Some(capacity) = config.pipe_capacity {
        builder = builder.pipe_capacity(capacity);
    }
    if let Some(parents) = &config.cache_parents {
        assert_eq!(
            parents.len(),
            losses.len(),
            "cache_parents must name every deployed cache"
        );
        builder = builder.cache_parents(parents.clone());
    }
    let system = Arc::new(builder.build());
    system.populate((0..schedule.object_count).map(|i| (ObjectId(i), Value::new(0))));

    let lockstep = options.pacing == LivePacing::Lockstep;
    let pace = (options.pacing == LivePacing::Concurrent && options.time_scale > 0.0)
        .then_some(options.time_scale);
    let started = Instant::now();

    // One client thread per cache. Jobs are schedule indices; under
    // lockstep each job is acknowledged so the driver can serialize the
    // schedule, under concurrent pacing the clients free-run.
    let cache_count = losses.len();
    let latency_model = ScenarioLatency::from_config(&config);
    let mut job_senders = Vec::with_capacity(cache_count);
    let mut done_receivers = Vec::with_capacity(cache_count);
    let mut clients = Vec::with_capacity(cache_count);
    for cache_index in 0..cache_count {
        let (job_tx, job_rx) = mpsc::channel::<usize>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        job_senders.push(job_tx);
        done_receivers.push(done_rx);
        let system = Arc::clone(&system);
        let schedule = Arc::clone(&schedule);
        let latency_model = latency_model.clone();
        let cache_id = CacheId(cache_index as u32);
        clients.push(
            std::thread::Builder::new()
                .name(format!("tcache-client-{cache_index}"))
                .spawn(move || {
                    let mut log: Vec<ReadLog> = Vec::new();
                    let mut latency = LatencyHistogram::new();
                    let cache = system.cache(cache_id).expect("cache is deployed");
                    while let Ok(index) = job_rx.recv() {
                        let op = &schedule.ops[index];
                        if let Some(scale) = pace {
                            pace_until(started, op.at, scale);
                        }
                        let txn = cache
                            .execute_read_only(op.at, op.txn, op.access.objects())
                            .unwrap_or_else(|e| {
                                panic!("unexpected cache error during experiment: {e}")
                            });
                        if let Some(model) = &latency_model {
                            let degraded = matches!(txn.mode, ReadMode::PassThrough);
                            model.record(&mut latency, op.at, op.txn, degraded);
                        }
                        log.push(ReadLog {
                            index,
                            observed: txn.observed,
                            committed: txn.committed,
                            mode: txn.mode,
                        });
                        if lockstep {
                            // The driver is blocked on this acknowledgement;
                            // it disappearing means the run is being torn
                            // down, which only happens on a panic there.
                            let _ = done_tx.send(());
                        }
                    }
                    (log, latency)
                })
                .expect("spawn client thread"),
        );
    }

    // The driver: updates commit here, reads are dispatched to their
    // cache's client. Fault events due by each operation's scheduled time
    // fire before the operation — after the previous update's lockstep
    // quiesce, so pending deliveries are applied first, exactly like the
    // discrete plane delivering due messages before firing faults.
    let faults = config.effective_faults();
    let mut fault_cursor = FaultCursor::new();
    // Pause/resume churn stays outside the fault plan: it drives the
    // reactor's pausable pipes (a paused cache's backlog queues; nothing
    // is lost), which only this plane has.
    let pauses: Vec<ChurnEvent> = config
        .scenario
        .as_ref()
        .map(|spec| {
            spec.churn_events()
                .iter()
                .copied()
                .filter(|e| matches!(e.action, ChurnAction::Pause | ChurnAction::Resume))
                .collect()
        })
        .unwrap_or_default();
    let mut pause_cursor = 0usize;
    let mut update_log: Vec<UpdateLog> = Vec::new();
    for (index, op) in schedule.ops.iter().enumerate() {
        while pause_cursor < pauses.len() && pauses[pause_cursor].at <= op.at {
            apply_pause(&system, &pauses[pause_cursor], lockstep);
            pause_cursor += 1;
        }
        for event in fault_cursor.due(&faults, op.at) {
            apply_fault(&system, event);
        }
        match op.target {
            None => {
                if let Some(scale) = pace {
                    pace_until(started, op.at, scale);
                }
                let record = match system.database().execute_update(op.txn, &op.access) {
                    Ok(commit) => Some(TransactionRecord::update_committed(
                        op.txn,
                        commit.reads.clone(),
                        commit.written.clone(),
                        op.at,
                    )),
                    Err(_) => None,
                };
                update_log.push(UpdateLog { index, record });
                if lockstep {
                    // Settle the reactor so every surviving invalidation is
                    // applied before the next transaction observes the
                    // caches — the live analogue of the discrete plane
                    // delivering due messages before each event. A timeout
                    // here would silently void the determinism the
                    // lockstep plane exists to provide, so it is fatal.
                    let settled = system
                        .quiesce(LOCKSTEP_QUIESCE_TIMEOUT)
                        .expect("quiesce never errs");
                    assert!(
                        settled,
                        "lockstep quiesce timed out after an update commit; \
                         the run is no longer deterministic"
                    );
                }
            }
            Some(cache) => {
                let cache_index = cache.0 as usize;
                job_senders[cache_index]
                    .send(index)
                    .expect("client thread is alive");
                if lockstep {
                    done_receivers[cache_index]
                        .recv()
                        .expect("client thread acknowledges");
                }
            }
        }
    }
    drop(job_senders);
    // Fire whatever the plan still schedules inside the run's duration
    // (e.g. a heal after the last transaction), so final lifecycle states
    // match the plan rather than the traffic pattern.
    let end = SimTime::ZERO + config.duration;
    while pause_cursor < pauses.len() && pauses[pause_cursor].at <= end {
        apply_pause(&system, &pauses[pause_cursor], lockstep);
        pause_cursor += 1;
    }
    for event in fault_cursor.due(&faults, end) {
        apply_fault(&system, event);
    }
    let mut read_logs: Vec<ReadLog> = Vec::new();
    let mut latency_columns: Vec<LatencyHistogram> = Vec::with_capacity(cache_count);
    for client in clients {
        let (log, latency) = client.join().expect("client thread panicked");
        read_logs.extend(log);
        latency_columns.push(latency);
    }
    // Wait out every in-flight delivery (modeled delays included)
    // so the final statistics and cache states are settled. Only the
    // lockstep plane turns a timeout into a failure (its contract is
    // determinism); a free-running run just reports what settled.
    let settled = system
        .quiesce(LOCKSTEP_QUIESCE_TIMEOUT)
        .expect("quiesce never errs");
    assert!(
        !lockstep || settled,
        "lockstep final quiesce timed out; statistics would be incomplete"
    );
    // Execution ends here: everything after is classification bookkeeping,
    // kept out of the wall-clock figure so throughput rows track the live
    // stack rather than the monitor.
    let execution_wall = started.elapsed();

    let (monitor, timeseries) = replay(
        &schedule,
        &config,
        options.pacing,
        update_log,
        read_logs,
    );
    let report = monitor.report();

    let stats = system.stats();
    let per_cache: Vec<CacheColumnResult> = stats
        .per_cache
        .iter()
        .zip(&losses)
        .zip(latency_columns)
        .map(|((node, &loss), latency)| CacheColumnResult {
            id: node.id,
            loss,
            report: monitor.cache_report(node.id),
            degraded: monitor.phase_report(node.id, ReadPhase::Degraded),
            cache: node.cache,
            link: node.delivery,
            lifecycle: system
                .cache(node.id)
                .expect("cache is deployed")
                .lifecycle_stats(),
            latency,
        })
        .collect();
    let mut cache_total = CacheStatsSnapshot::default();
    let mut link_total = DeliveryStatsSnapshot::default();
    for column in &per_cache {
        cache_total.merge(column.cache);
        link_total.merge(column.link);
    }
    ExperimentResult {
        duration: config.duration,
        report,
        cache: cache_total,
        db: system.database().stats(),
        link: link_total,
        per_cache,
        timeseries,
        execution_wall: Some(execution_wall),
    }
}

/// Replays the execution log through a fresh monitor, classifying each
/// transaction as it is replayed and recording each read into the time
/// series at its scheduled time. Under lockstep the log replays in schedule
/// order (the discrete plane's interleaving); under concurrent pacing
/// updates replay first so every version a racing read observed is already
/// in the history.
fn replay(
    schedule: &Schedule,
    config: &ExperimentConfig,
    pacing: LivePacing,
    update_log: Vec<UpdateLog>,
    read_logs: Vec<ReadLog>,
) -> (ConsistencyMonitor, TimeSeries) {
    enum Entry {
        Update(Option<TransactionRecord>),
        Read(ObservedVec, bool, ReadMode),
    }
    let mut slots: Vec<Option<Entry>> = Vec::with_capacity(schedule.ops.len());
    slots.resize_with(schedule.ops.len(), || None);
    for update in update_log {
        slots[update.index] = Some(Entry::Update(update.record));
    }
    for read in read_logs {
        slots[read.index] = Some(Entry::Read(read.observed, read.committed, read.mode));
    }

    let mut monitor = ConsistencyMonitor::new();
    let mut timeseries = TimeSeries::new(config.timeseries_bin);
    let mut record = |index: usize, entry: &Entry| match entry {
        Entry::Update(Some(record)) => monitor.record_update_commit(record),
        Entry::Update(None) => monitor.record_update_abort(),
        Entry::Read(observed, committed, mode) => {
            let op = &schedule.ops[index];
            let cache = op.target.expect("read entries carry a target cache");
            let phase = match mode {
                ReadMode::Cached => ReadPhase::Healthy,
                ReadMode::PassThrough => ReadPhase::Degraded,
            };
            let class = monitor.record_read_only_in_phase(cache, phase, observed, *committed);
            timeseries.record(op.at, class);
        }
    };
    let entries = || {
        slots
            .iter()
            .enumerate()
            .map(|(index, slot)| (index, slot.as_ref().expect("every scheduled txn executed")))
    };
    match pacing {
        LivePacing::Lockstep => entries().for_each(|(index, entry)| record(index, entry)),
        LivePacing::Concurrent => {
            for pass_reads in [false, true] {
                entries()
                    .filter(|(_, entry)| matches!(entry, Entry::Read(..)) == pass_reads)
                    .for_each(|(index, entry)| record(index, entry));
            }
        }
    }
    (monitor, timeseries)
}

/// Applies one scheduled fault event through the system's fault surface.
///
/// # Panics
/// Panics if the plan names an unknown cache (the plan is validated
/// against the deployed topology by construction of the experiment).
fn apply_fault(system: &TCacheSystem, event: &FaultEvent) {
    let FaultEvent { at, cache, kind } = *event;
    match kind {
        FaultKind::Crash => system.crash_cache(cache, at),
        FaultKind::Restart => system.restart_cache(cache),
        FaultKind::PartitionStart => system.partition_cache(cache, at),
        FaultKind::PartitionEnd => system.heal_cache(cache),
        FaultKind::DelaySpike(extra) => system.set_cache_extra_delay(cache, extra),
    }
    .expect("fault plan names a deployed cache");
}

/// Applies one pause/resume churn event through the system's pausable
/// pipes. A resume under lockstep quiesces immediately: the paused cache's
/// queued backlog drains on the reactor's own wall-clock schedule, and
/// determinism requires it fully applied before the next transaction
/// observes the cache.
///
/// # Panics
/// Panics if the scenario names an unknown cache or pairs its events
/// inconsistently (pausing a paused cache, resuming a running one).
fn apply_pause(system: &TCacheSystem, event: &ChurnEvent, lockstep: bool) {
    let cache = CacheId(event.cache);
    match event.action {
        ChurnAction::Pause => system
            .pause_cache(cache)
            .expect("scenario pauses a deployed, running cache"),
        ChurnAction::Resume => {
            system
                .resume_cache(cache)
                .expect("scenario resumes a paused cache");
            if lockstep {
                let settled = system
                    .quiesce(LOCKSTEP_QUIESCE_TIMEOUT)
                    .expect("quiesce never errs");
                assert!(
                    settled,
                    "lockstep quiesce timed out draining a resumed cache's backlog"
                );
            }
        }
        ChurnAction::Crash | ChurnAction::Restart => {
            unreachable!("crash churn is routed through the fault plan")
        }
    }
}

/// Sleeps until the wall-clock instant `at` maps to under `scale` seconds
/// of wall time per simulated second.
fn pace_until(started: Instant, at: SimTime, scale: f64) {
    let target = started + Duration::from_secs_f64(at.as_secs_f64() * scale);
    let now = Instant::now();
    if target > now {
        // Pacing is the one place simulated time is *meant* to map onto
        // wall time, so a real sleep is the correct primitive.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(target - now);
    }
}

/// The `TCacheSystem` cache policy equivalent of a harness [`CacheKind`].
fn cache_policy(kind: &CacheKind) -> CachePolicyConfig {
    match *kind {
        CacheKind::TCache {
            dependency_bound,
            strategy,
        } => CachePolicyConfig::tcache(dependency_bound, strategy),
        CacheKind::Unbounded { strategy } => CachePolicyConfig::unbounded(strategy),
        CacheKind::Plain => CachePolicyConfig::plain(),
        CacheKind::Ttl { ttl } => CachePolicyConfig::ttl_baseline(ttl),
    }
}
