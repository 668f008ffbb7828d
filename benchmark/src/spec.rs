//! The benchmark's fixed definitions: the four workloads, the one place a
//! `TCacheSystem` is constructed, and the metric tables `BENCHMARK.json`
//! mirrors.

use tcache::prelude::*;

/// Ops on a tape; the run replays it cyclically. A power of two so the tape
/// index is a mask of the op counter.
pub const TAPE_LEN: usize = 1 << 20;

/// Every `READ_SAMPLE_STRIDE`-th read transaction is timed and (while the
/// classification log is open) logged. Must be coprime with every
/// workload's mix period and cache count, or the sample would cover only
/// some caches or only some positions of the mix.
pub const READ_SAMPLE_STRIDE: u64 = 7;

/// Objects per cluster and accesses per transaction (the paper's 5 / 5).
pub const TXN_KEYS: usize = 5;

/// One benchmark workload. Fields are the input properties the system's
/// behaviour depends on; nothing here names a code path of the system.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// `PerfectClusters::new(objects, 5, 5)` generates the keys.
    pub objects: u64,
    /// The mix repeats every `reads + updates` ops: first the reads, then
    /// the updates.
    pub reads: u64,
    pub updates: u64,
    /// One cache per entry, with that invalidation loss rate.
    pub cache_loss: &'static [f64],
    /// Bounded `Block` pipes of this capacity; `None` keeps the builder's
    /// unbounded default.
    pub pipe_capacity: Option<usize>,
    /// Read transactions go key by key through `EdgeCache::read` (the
    /// paper's §III-B interface) instead of the facade's whole-transaction
    /// call.
    pub interactive: bool,
    /// Op count of a fixed-length run (no `--seconds`).
    pub ops: u64,
    /// The measured run is cut into slices of this many ops, about 25 ms
    /// each; the timing metrics are read from the fastest of them.
    pub slice_ops: u64,
    /// Every n-th committed update is stamped for lag measurement.
    pub lag_stamp_stride: u64,
}

impl WorkloadSpec {
    pub fn period(&self) -> u64 {
        self.reads + self.updates
    }

    pub fn caches(&self) -> usize {
        self.cache_loss.len()
    }
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "read_hot",
        why: "1 cache, 20k objects, 199 reads : 1 update: >=99% hits on the fast path, so the cache hit path and the facade's per-call overhead do nearly all the work; db and net idle.",
        objects: 20_000,
        reads: 199,
        updates: 1,
        cache_loss: &[0.0],
        pipe_capacity: None,
        interactive: false,
        ops: 24_000_000,
        slice_ops: 20_000,
        lag_stamp_stride: 1,
    },
    WorkloadSpec {
        name: "churn_miss",
        why: "1 cache, 1k objects, 1 read : 1 update: half the objects a read touches were just invalidated, so db reads, cache inserts, commits and the single pipe share the work.",
        objects: 1_000,
        reads: 1,
        updates: 1,
        cache_loss: &[0.0],
        pipe_capacity: None,
        interactive: false,
        ops: 4_000_000,
        slice_ops: 8_000,
        lag_stamp_stride: 16,
    },
    WorkloadSpec {
        name: "fanout_write",
        why: "4 caches behind bounded Block pipes, 1 read : 4 updates: commit, publish x4, pipe, reactor and apply dominate, reads are a trickle; the bounded pipes keep the loop closed.",
        objects: 20_000,
        reads: 1,
        updates: 4,
        cache_loss: &[0.0, 0.0, 0.0, 0.0],
        pipe_capacity: Some(4096),
        interactive: false,
        ops: 1_500_000,
        slice_ops: 3_000,
        lag_stamp_stride: 16,
    },
    WorkloadSpec {
        name: "lossy_edge",
        why: "The paper's experiment: 4 caches losing 0/10/20/40% of invalidations, 5 reads : 1 update, key-by-key reads via the transaction table; only here are aborts and inconsistency non-trivial.",
        objects: 2_000,
        reads: 5,
        updates: 1,
        cache_loss: &[0.0, 0.1, 0.2, 0.4],
        pipe_capacity: None,
        interactive: true,
        ops: 4_000_000,
        slice_ops: 5_000,
        lag_stamp_stride: 16,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The only place the benchmark constructs a system: the configuration
/// ROADMAP keeps (reactor transport, modeled delivery, zero modeled delay),
/// builder defaults for everything a workload does not vary (read paths,
/// strategy RETRY, dependency bound 3).
pub fn build_system(spec: &WorkloadSpec, seed: u64) -> TCacheSystem {
    let mut builder = SystemBuilder::new()
        .transport(TransportMode::Reactor)
        .delivery(DeliveryMode::Modeled)
        .invalidation_delay_millis(0)
        .cache_loss_rates(spec.cache_loss.to_vec())
        .seed(seed);
    if let Some(capacity) = spec.pipe_capacity {
        builder = builder
            .pipe_capacity(capacity)
            .overflow_policy(OverflowPolicy::Block);
    }
    let system = builder.build();
    system.populate((0..spec.objects).map(|i| (ObjectId(i), Value::new(0))));
    system
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric as `BENCHMARK.json` declares it. `bound` is the share of the
/// reference value by which an end-to-end metric may get worse; per-layer
/// metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The two quality ratios are reported as
/// their complements (share of consistent commits, share of committed read
/// transactions) so that they are never 0 and a relative bound of 0.005
/// equals the absolute 0.005 the issue asks for.
///
/// The three timing metrics are read from the fastest 1/32 of the run's
/// slices and `setup_s` from the lower quartile of its set-ups
/// (`run::QUIET_SHARE`, `run::SETUP_REPS`): the shared host runs unchanged
/// code at two speeds 1.5x apart, in phases of seconds to minutes, and a
/// median over the whole run reports whichever phase filled more of it.
/// Their bounds stay at the contract's maximum because that selection
/// cannot help a run the slow phase covers entirely.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "op/s", Higher, 0.25),
    e2e("read_p50_ns", "ns", Lower, 0.25),
    e2e("update_p50_ns", "ns", Lower, 0.25),
    e2e("db_reads_per_read_txn", "count", Lower, 0.03),
    e2e("consistent_commit_ratio", "ratio", Higher, 0.005),
    e2e("read_commit_ratio", "ratio", Higher, 0.005),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single-layer metrics, prefixed with the crate they describe. `e2e.*`
/// are user-visible quantities that cannot carry a bound: between
/// same-code runs the read p99 spreads by 0.2 and the invalidation lag
/// (a reactor wake-up when the plane idles) moves 2.6x with the host's
/// state, and the three ratios are 0 on most workloads (their complements
/// are end-to-end metrics).
pub const PER_LAYER: &[MetricDef] = &[
    layer("workload.gen_ns_per_op", "ns", Lower),
    layer("core.read_txn.p50_ns", "ns", Lower),
    layer("core.read_overhead_ns", "ns", Lower),
    layer("core.update.p50_ns", "ns", Lower),
    layer("core.update.p99_ns", "ns", Lower),
    layer("core.update_overhead_ns", "ns", Lower),
    layer("core.final_quiesce_ms", "ms", Lower),
    layer("core.quiesce_timeouts", "count", Lower),
    layer("cache.execute_txn.p50_ns", "ns", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.fastpath_share", "ratio", Higher),
    layer("cache.retries_per_ktxn", "count", Lower),
    layer("cache.evictions_per_ktxn", "count", Lower),
    layer("cache.gaps_detected", "count", Lower),
    layer("cache.apply_invalidation_ns", "ns", Lower),
    layer("cache.inval_ignored_ratio", "ratio", Lower),
    layer("cache.footprint_bytes", "bytes", Lower),
    layer("db.read_entry_ns", "ns", Lower),
    layer("db.single_reads", "count", Lower),
    layer("db.optimistic_hit_ratio", "ratio", Higher),
    layer("db.lock_fallbacks", "count", Lower),
    layer("db.execute_update.p50_ns", "ns", Lower),
    layer("db.updates_aborted_ratio", "ratio", Lower),
    layer("db.invalidations_published", "count", Lower),
    layer("db.publish_stalled", "count", Lower),
    layer("db.publish_overflowed", "count", Lower),
    layer("db.footprint_bytes", "bytes", Lower),
    layer("net.plane_ns_per_msg", "ns", Lower),
    layer("net.pipe_send_ns", "ns", Lower),
    layer("net.pipe_mean_drain", "count", Higher),
    layer("net.pipe_coalesced_wakeup_ratio", "ratio", Higher),
    layer("net.reactor_polls_per_msg", "count", Lower),
    layer("net.reactor_spin_recovery_ratio", "ratio", Higher),
    layer("net.pipe_stall_us_per_kupdate", "us", Lower),
    layer("net.pipe_overflow_dropped", "count", Lower),
    layer("net.delivery_dropped_ratio", "ratio", Lower),
    layer("net.inval_lag.p99_us", "us", Lower),
    layer("net.inval_lag.max_outstanding", "count", Lower),
    layer("monitor.update_ingest_per_s", "1/s", Higher),
    layer("monitor.read_classify_per_s", "1/s", Higher),
    layer("monitor.committed_inconsistent", "count", Lower),
    layer("monitor.inconsistency_ratio.cache0", "ratio", Lower),
    layer("monitor.inconsistency_ratio.cache1", "ratio", Lower),
    layer("monitor.inconsistency_ratio.cache2", "ratio", Lower),
    layer("monitor.inconsistency_ratio.cache3", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("ops_per_s.iqr_ratio", "ratio", Lower),
    layer("e2e.read_p99_ns", "ns", Lower),
    layer("e2e.inval_lag_p50_us", "us", Lower),
    layer("e2e.inconsistency_ratio", "ratio", Lower),
    layer("e2e.abort_ratio", "ratio", Lower),
    layer("e2e.failed_ops_ratio", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn sampling_strides_are_coprime_with_mix_period_and_cache_count() {
        for spec in &WORKLOADS {
            assert_eq!(gcd(READ_SAMPLE_STRIDE, spec.period()), 1, "{}", spec.name);
            assert_eq!(
                gcd(READ_SAMPLE_STRIDE, spec.caches() as u64),
                1,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn workloads_are_well_formed() {
        for spec in &WORKLOADS {
            assert!(workload(spec.name).is_some());
            assert!(spec.objects % TXN_KEYS as u64 == 0);
            assert!(spec.slice_ops > 0 && spec.ops % spec.slice_ops == 0);
            assert!(
                spec.caches() >= 1 && spec.caches() <= 4,
                "cache0..cache3 metrics"
            );
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for def in END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
