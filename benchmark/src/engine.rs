//! Set-up, the closed-loop client, and the measured phases of a run.

use crate::classify::ClassLog;
use crate::hist::Hist;
use crate::lag::LagRing;
use crate::spec::{build_system, WorkloadSpec, READ_SAMPLE_STRIDE, TAPE_LEN, TXN_KEYS};
use crate::tape::{self, Op, OpKind, Tape};
use crate::trace::{SpanId, SpanName, Tracer};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tcache::cache::{CacheStatsSnapshot, EdgeCache};
use tcache::db::stats::DbStatsSnapshot;
use tcache::net::delivery::DeliveryStatsSnapshot;
use tcache::net::pipe::PipeStatsSnapshot;
use tcache::net::reactor::ReactorStats;
use tcache::types::{CacheId, ObjectId, SimTime, TCacheError, TxnId};
use tcache::{ReadOutcome, TCacheSystem};

/// Interactive transactions take their ids from here up; the facade counts
/// up from 1, so the two ranges never meet.
const INTERACTIVE_TXN_BASE: u64 = 1 << 62;

/// Outstanding lag stamps the client tracks at once.
const LAG_RING_CAPACITY: usize = 1024;

/// How long the end of a phase waits for the reactor to drain.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);

/// A built, populated, warmed system with its tape.
pub struct Prepared {
    pub system: TCacheSystem,
    pub tape: Tape,
    /// Build + populate + tape generation + warm-up.
    pub setup_s: f64,
}

pub fn prepare(spec: &WorkloadSpec, seed: u64) -> Prepared {
    let started = Instant::now();
    let system = build_system(spec, seed);
    let tape = tape::generate(spec, seed);
    warm_up(spec, &system);
    Prepared {
        system,
        tape,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

/// One update of every cluster, then one read of every cluster on every
/// cache: the measured run starts from full caches whose entries already
/// carry dependency lists. Without the updates a read-mostly run spends its
/// whole length drifting from never-updated objects (empty lists, cheap
/// checks) towards updated ones, and its throughput depends on its length.
fn warm_up(spec: &WorkloadSpec, system: &TCacheSystem) {
    let clusters = spec.objects / TXN_KEYS as u64;
    let keys_of = |cluster: u64| -> [ObjectId; TXN_KEYS] {
        std::array::from_fn(|i| ObjectId(cluster * TXN_KEYS as u64 + i as u64))
    };
    for cluster in 0..clusters {
        system
            .update(&keys_of(cluster))
            .expect("warm-up updates populated objects");
    }
    let settled = system
        .quiesce(QUIESCE_TIMEOUT)
        .expect("reactor transport supports quiesce");
    assert!(settled, "warm-up invalidations did not drain");
    for cluster in 0..clusters {
        let keys = keys_of(cluster);
        for cache in 0..spec.caches() {
            system
                .read_transaction_on(CacheId(cache as u32), &keys)
                .expect("warm-up reads populated objects");
        }
    }
}

/// When a phase ends: after `max_ops` ops, or at the first slice boundary
/// past `deadline`, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub max_ops: u64,
    pub deadline: Option<Duration>,
}

/// Every counter the system exposes, read at a phase boundary.
pub struct Counters {
    pub cache: CacheStatsSnapshot,
    pub db: DbStatsSnapshot,
    pub pipe: PipeStatsSnapshot,
    pub delivery: DeliveryStatsSnapshot,
    pub per_cache_delivery: Vec<DeliveryStatsSnapshot>,
    pub reactor: ReactorStats,
    pub publish_stalled: u64,
    pub publish_overflowed: u64,
    pub gaps_detected: u64,
    pub quiesce_timeouts: u64,
}

impl Counters {
    pub fn read(system: &TCacheSystem) -> Counters {
        let stats = system.stats();
        let mut pipe = PipeStatsSnapshot::default();
        let mut delivery = DeliveryStatsSnapshot::default();
        for node in &stats.per_cache {
            pipe.merge(node.pipe);
            delivery.merge(node.delivery);
        }
        let publish = system.database().publish_stats();
        Counters {
            cache: stats.cache,
            db: stats.db,
            pipe,
            delivery,
            per_cache_delivery: stats.per_cache.iter().map(|n| n.delivery).collect(),
            reactor: system.reactor_stats().expect("reactor transport"),
            publish_stalled: publish.iter().map(|(_, p)| p.stalled_publishes).sum(),
            publish_overflowed: publish.iter().map(|(_, p)| p.overflowed).sum(),
            gaps_detected: system
                .cache_ids()
                .map(|id| {
                    system
                        .cache(id)
                        .expect("deployed")
                        .lifecycle_stats()
                        .gaps_detected
                })
                .sum(),
            quiesce_timeouts: system.quiesce_timeouts(),
        }
    }
}

/// What the client counted and timed during one phase.
pub struct Tally {
    pub read_txns: u64,
    pub update_txns: u64,
    pub updates_committed: u64,
    pub aborted: u64,
    pub failed: u64,
    pub read_ns: Hist,
    pub update_ns: Hist,
    pub lag_ns: Hist,
    pub lag: LagRing,
}

impl Tally {
    fn new() -> Self {
        Tally {
            read_txns: 0,
            update_txns: 0,
            updates_committed: 0,
            aborted: 0,
            failed: 0,
            read_ns: Hist::new(),
            update_ns: Hist::new(),
            lag_ns: Hist::new(),
            lag: LagRing::new(LAG_RING_CAPACITY),
        }
    }
}

/// One slice of a phase: its throughput and the median latency of the
/// transactions timed inside it (0 when none was).
#[derive(Debug, Clone, Copy)]
pub struct SliceStat {
    pub ops_per_s: f64,
    pub read_p50_ns: f64,
    pub update_p50_ns: f64,
}

/// What one measured phase produced.
pub struct Phase {
    pub ops: u64,
    pub tally: Tally,
    pub slices: Vec<SliceStat>,
    /// The final wait for the reactor to drain, and whether it did.
    pub quiesce_ms: f64,
    pub settled: bool,
    pub before: Counters,
    pub after: Counters,
}

impl Phase {
    /// How far a counter moved over the phase.
    pub fn delta(&self, counter: impl Fn(&Counters) -> u64) -> u64 {
        counter(&self.after) - counter(&self.before)
    }
}

/// The single closed-loop client: replays the tape, times what it samples,
/// mirrors the per-object head version and feeds the classification log.
pub struct Client<'a> {
    spec: &'a WorkloadSpec,
    system: &'a TCacheSystem,
    caches: Vec<&'a EdgeCache>,
    /// The caches whose applied position defines "the invalidation
    /// arrived": those that lose none.
    loss_free: Vec<&'a EdgeCache>,
    tape: &'a [Op],
    clock: Instant,
    /// Ops executed so far over all phases; the tape index is its low bits.
    pos: u64,
    interactive_txns: u64,
    /// Version of every object as the single writer last installed it, and
    /// as set-up left it.
    pub head: Vec<u64>,
    pub initial_head: Vec<u64>,
    pub log: ClassLog,
    tally: Tally,
    /// Latencies of the slice in progress; each slice's end moves them into
    /// the tally.
    slice_read_ns: Hist,
    slice_update_ns: Hist,
}

impl<'a> Client<'a> {
    pub fn new(spec: &'a WorkloadSpec, system: &'a TCacheSystem, tape: &'a [Op]) -> Self {
        assert_eq!(tape.len(), TAPE_LEN);
        let caches: Vec<&EdgeCache> = system
            .cache_ids()
            .map(|id| system.cache(id).expect("deployed"))
            .collect();
        let loss_free = caches
            .iter()
            .zip(spec.cache_loss)
            .filter(|(_, &loss)| loss == 0.0)
            .map(|(cache, _)| *cache)
            .collect();
        let head: Vec<u64> = (0..spec.objects)
            .map(|object| {
                let entry = system.database().peek_entry(ObjectId(object));
                entry.expect("populated object").version.0
            })
            .collect();
        Client {
            spec,
            system,
            caches,
            loss_free,
            tape,
            clock: Instant::now(),
            pos: 0,
            interactive_txns: 0,
            initial_head: head.clone(),
            head,
            log: ClassLog::new(),
            tally: Tally::new(),
            slice_read_ns: Hist::new(),
            slice_update_ns: Hist::new(),
        }
    }

    /// Runs whole slices until `stop`, then waits for the reactor to drain.
    pub fn run_phase<T: Tracer>(&mut self, stop: Stop, tracer: &mut T) -> Phase {
        self.tally = Tally::new();
        let before = Counters::read(self.system);
        let slice_ops = self.spec.slice_ops;
        let mut slices = Vec::new();
        let mut ops = 0u64;
        let started = Instant::now();
        while ops < stop.max_ops {
            let n = slice_ops.min(stop.max_ops - ops);
            let slice_started = Instant::now();
            for _ in 0..n {
                self.run_op(tracer);
            }
            let seconds = slice_started.elapsed().as_secs_f64();
            slices.push(SliceStat {
                ops_per_s: n as f64 / seconds,
                read_p50_ns: self.slice_read_ns.quantile(0.5),
                update_p50_ns: self.slice_update_ns.quantile(0.5),
            });
            self.slice_read_ns.drain_into(&mut self.tally.read_ns);
            self.slice_update_ns.drain_into(&mut self.tally.update_ns);
            ops += n;
            if stop.deadline.is_some_and(|d| started.elapsed() >= d) {
                break;
            }
        }
        let quiesce_started = Instant::now();
        let settled = self
            .system
            .quiesce(QUIESCE_TIMEOUT)
            .expect("reactor transport supports quiesce");
        let quiesce_ms = quiesce_started.elapsed().as_secs_f64() * 1e3;
        // Whatever is still stamped would now measure the quiesce wait.
        self.tally.lag.clear();
        Phase {
            ops,
            tally: std::mem::replace(&mut self.tally, Tally::new()),
            slices,
            quiesce_ms,
            settled,
            before,
            after: Counters::read(self.system),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    #[inline]
    fn run_op<T: Tracer>(&mut self, tracer: &mut T) {
        let index = (self.pos as usize) & (TAPE_LEN - 1);
        let op = self.tape[index];
        let keys = op.object_ids();
        let root = tracer.begin(SpanName::Op, self.pos, crate::trace::NO_SPAN);
        match op.kind {
            OpKind::Read if self.spec.interactive => {
                self.interactive_read(index, &op, &keys, tracer, root)
            }
            OpKind::Read => self.facade_read(index, &op, &keys, tracer, root),
            OpKind::Update => self.update(index, &keys, tracer, root),
        }
        self.pos += 1;
        if !self.tally.lag.is_empty() {
            self.check_lag();
        }
        tracer.end(root);
    }

    /// A read transaction through `TCacheSystem::read_transaction_on`.
    #[inline]
    fn facade_read<T: Tracer>(
        &mut self,
        index: usize,
        op: &Op,
        keys: &[ObjectId; TXN_KEYS],
        tracer: &mut T,
        root: SpanId,
    ) {
        let sampled = self.tally.read_txns.is_multiple_of(READ_SAMPLE_STRIDE);
        self.tally.read_txns += 1;
        let span = tracer.begin(SpanName::CoreReadTxn, self.pos, root);
        let started = sampled.then(Instant::now);
        let outcome = self
            .system
            .read_transaction_on(CacheId(u32::from(op.cache)), keys);
        if let Some(started) = started {
            self.slice_read_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        tracer.end(span);
        match outcome {
            Ok(ReadOutcome::Committed(values)) => {
                if sampled {
                    let mut versions = [0u64; TXN_KEYS];
                    for (slot, value) in versions.iter_mut().zip(&values) {
                        *slot = value.version.0;
                    }
                    self.log.push_read(index, versions);
                }
                black_box(values);
            }
            Ok(ReadOutcome::Aborted { .. }) => self.tally.aborted += 1,
            Err(_) => self.tally.failed += 1,
        }
    }

    /// A read transaction key by key through `EdgeCache::read`, the paper's
    /// `read(txnID, key, lastOp)` interface.
    #[inline]
    fn interactive_read<T: Tracer>(
        &mut self,
        index: usize,
        op: &Op,
        keys: &[ObjectId; TXN_KEYS],
        tracer: &mut T,
        root: SpanId,
    ) {
        let sampled = self.tally.read_txns.is_multiple_of(READ_SAMPLE_STRIDE);
        self.tally.read_txns += 1;
        let cache = self.caches[op.cache as usize];
        let txn = TxnId(INTERACTIVE_TXN_BASE + self.interactive_txns);
        self.interactive_txns += 1;
        let now = SimTime::from_micros(self.pos);
        let span = tracer.begin(SpanName::CoreReadTxn, self.pos, root);
        let started = sampled.then(Instant::now);
        let mut versions = [0u64; TXN_KEYS];
        let mut outcome = Ok(());
        for (i, &key) in keys.iter().enumerate() {
            let read_span = tracer.begin(SpanName::CacheRead, self.pos, span);
            let read = cache.read(now, txn, key, i + 1 == TXN_KEYS);
            tracer.end(read_span);
            match read {
                Ok(value) => versions[i] = value.version.0,
                Err(error) => {
                    outcome = Err(error);
                    break;
                }
            }
        }
        if let Some(started) = started {
            self.slice_read_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        tracer.end(span);
        match outcome {
            Ok(()) => {
                if sampled {
                    self.log.push_read(index, versions);
                }
            }
            Err(TCacheError::InconsistencyAbort { .. }) => self.tally.aborted += 1,
            Err(_) => self.tally.failed += 1,
        }
    }

    #[inline]
    fn update<T: Tracer>(
        &mut self,
        index: usize,
        keys: &[ObjectId; TXN_KEYS],
        tracer: &mut T,
        root: SpanId,
    ) {
        self.tally.update_txns += 1;
        let span = tracer.begin(SpanName::CoreUpdate, self.pos, root);
        let started = Instant::now();
        let result = self.system.update(keys);
        let returned = Instant::now();
        tracer.end(span);
        match result {
            Ok(version) => {
                self.slice_update_ns
                    .record(returned.duration_since(started).as_nanos() as u64);
                self.tally.updates_committed += 1;
                for key in keys {
                    self.head[key.0 as usize] = version.0;
                }
                self.log.push_update(index, version);
                if self
                    .tally
                    .updates_committed
                    .is_multiple_of(self.spec.lag_stamp_stride)
                {
                    let seq = self.system.database().invalidation_latest_seq();
                    let commit_ns = returned.duration_since(self.clock).as_nanos() as u64;
                    self.tally.lag.stamp(seq, commit_ns);
                }
            }
            Err(_) => self.tally.failed += 1,
        }
    }

    /// Retires the stamps every loss-free cache has applied: one atomic
    /// load per such cache, and the clock only when something retires.
    #[inline]
    fn check_lag(&mut self) {
        let applied = self
            .loss_free
            .iter()
            .map(|cache| cache.last_applied_seq())
            .min()
            .unwrap_or(u64::MAX);
        if self
            .tally
            .lag
            .oldest_seq()
            .is_some_and(|seq| seq <= applied)
        {
            let now_ns = self.now_ns();
            let Tally { lag, lag_ns, .. } = &mut self.tally;
            lag.retire(applied, now_ns, |ns| lag_ns.record(ns));
        }
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile by linear interpolation
/// between order statistics.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let at = |q: f64| {
        let rank = q * (sorted.len() - 1) as f64;
        let low = rank.floor() as usize;
        let high = rank.ceil() as usize;
        sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use crate::trace::NoTrace;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn a_short_phase_counts_every_op_and_mirrors_the_head() {
        for spec in &WORKLOADS {
            let prepared = prepare(spec, 3);
            let mut client = Client::new(spec, &prepared.system, &prepared.tape.ops);
            let phase = client.run_phase(
                Stop {
                    max_ops: 6_000,
                    deadline: None,
                },
                &mut NoTrace,
            );
            assert_eq!(phase.ops, 6_000, "{}", spec.name);
            assert_eq!(phase.tally.read_txns + phase.tally.update_txns, 6_000);
            assert_eq!(phase.tally.failed, 0);
            assert!(phase.settled);
            assert_eq!(
                phase.after.db.updates_committed - phase.before.db.updates_committed,
                phase.tally.updates_committed
            );
            for (object, &version) in client.head.iter().enumerate() {
                let entry = prepared
                    .system
                    .database()
                    .peek_entry(ObjectId(object as u64))
                    .unwrap();
                assert_eq!(entry.version.0, version, "{} object {object}", spec.name);
            }
        }
    }
}
