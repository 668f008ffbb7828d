//! Per-cache invalidation upcall registry.
//!
//! "On startup, the cache registers an upcall that can be used by the
//! database to report invalidations; after each update transaction, the
//! database asynchronously sends invalidations to the cache for all objects
//! that were modified" (§IV). With several edge caches, the database fans
//! every committed update's invalidation batch out to *all* registered
//! caches; each cache's delivery pipe then drops or delays messages
//! independently (that unreliability lives in `tcache-net`, not here).
//!
//! Because publication runs on the committing transaction's thread, a slow
//! or full pipe behind an upcall stretches commit latency. Every upcall
//! therefore reports what its pipe did with the batch ([`SinkReport`]), and
//! the registry times every fan-out and accumulates per-cache
//! [`PublishStats`]: how long publication took, and how many messages a
//! bounded pipe overflowed or stalled on. That is the attribution trail for
//! "commits are slow because cache X's invalidation pipe is backed up".

use crate::invalidation::InvalidationBatch;
use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tcache_types::CacheId;

/// An upcall receiving every published invalidation batch for one cache
/// and reporting what its delivery pipe did with it, so overflow and
/// stalls can be attributed to the publishing side.
pub type ReportingSink = Box<dyn Fn(&InvalidationBatch) -> SinkReport + Send + Sync>;

/// What one sink call did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkReport {
    /// Invalidations actually enqueued onto the cache's pipe.
    pub enqueued: u64,
    /// Invalidations lost because the pipe was at capacity.
    pub overflowed: u64,
    /// Whether the send had to wait for pipe capacity (backpressure into
    /// the commit path).
    pub stalled: bool,
    /// Invalidations discarded because the cache's link was severed
    /// (crashed or partitioned) when the batch was published.
    pub severed: u64,
}

/// Monotone per-cache publication counters.
#[derive(Debug, Default)]
struct PublishCounters {
    batches: AtomicU64,
    invalidations: AtomicU64,
    enqueued: AtomicU64,
    overflowed: AtomicU64,
    stalled_publishes: AtomicU64,
    publish_nanos: AtomicU64,
    severed: AtomicU64,
}

/// A point-in-time copy of one cache's publication counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PublishStats {
    /// Batches published to this cache's upcall.
    pub batches: u64,
    /// Invalidations offered to the upcall (batch sizes summed).
    pub invalidations: u64,
    /// Invalidations the upcall reported as enqueued on the pipe.
    pub enqueued: u64,
    /// Invalidations the upcall reported as lost to pipe overflow.
    pub overflowed: u64,
    /// Publishes during which the pipe exerted backpressure (stalled).
    pub stalled_publishes: u64,
    /// Total wall-clock time, in nanoseconds, of the fan-outs this cache
    /// took part in — from the first sink call of a publish to the end of
    /// the last — i.e. the commit latency publication added while the
    /// cache was registered. Every cache of a fan-out is charged the whole
    /// of it; which pipe was the slow one is told by `stalled_publishes`
    /// and `overflowed`.
    pub publish_nanos: u64,
    /// Invalidations dropped at the publisher because the cache's link was
    /// severed (crash or partition).
    pub severed: u64,
}

impl PublishCounters {
    fn record(&self, batch_len: u64, report: SinkReport) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.invalidations.fetch_add(batch_len, Ordering::Relaxed);
        self.enqueued.fetch_add(report.enqueued, Ordering::Relaxed);
        // The fault counters are zero on all but a vanishing share of
        // publishes; a branch is cheaper than an atomic add of zero.
        for (counter, delta) in [
            (&self.overflowed, report.overflowed),
            (&self.stalled_publishes, u64::from(report.stalled)),
            (&self.severed, report.severed),
        ] {
            if delta != 0 {
                counter.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> PublishStats {
        PublishStats {
            batches: self.batches.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            overflowed: self.overflowed.load(Ordering::Relaxed),
            stalled_publishes: self.stalled_publishes.load(Ordering::Relaxed),
            publish_nanos: self.publish_nanos.load(Ordering::Relaxed),
            severed: self.severed.load(Ordering::Relaxed),
        }
    }
}

struct Registration {
    cache: CacheId,
    sink: ReportingSink,
    counters: Arc<PublishCounters>,
}

/// Registry of per-cache invalidation upcalls.
///
/// Registration order is preserved and publication iterates it
/// deterministically. A sink must not call back into the publisher (the
/// registry lock is held, shared, while sinks run).
#[derive(Default)]
pub struct InvalidationPublisher {
    sinks: RwLock<Vec<Registration>>,
}

impl fmt::Debug for InvalidationPublisher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InvalidationPublisher")
            .field("registered", &self.registered_caches())
            .finish()
    }
}

impl InvalidationPublisher {
    /// Creates an empty registry.
    pub fn new() -> Self {
        InvalidationPublisher::default()
    }

    /// Registers `cache`'s upcall; the registry accumulates the
    /// [`SinkReport`] of every call into the cache's [`PublishStats`]. A
    /// second registration for the same cache replaces the first (a cache
    /// re-registering after a restart) but keeps its accumulated stats.
    pub fn register(&self, cache: CacheId, sink: ReportingSink) {
        let mut sinks = self.sinks.write();
        if let Some(slot) = sinks.iter_mut().find(|r| r.cache == cache) {
            slot.sink = sink;
        } else {
            sinks.push(Registration {
                cache,
                sink,
                counters: Arc::new(PublishCounters::default()),
            });
        }
    }

    /// Removes `cache`'s upcall; returns `true` if one was registered.
    pub fn unregister(&self, cache: CacheId) -> bool {
        let mut sinks = self.sinks.write();
        let before = sinks.len();
        sinks.retain(|r| r.cache != cache);
        sinks.len() != before
    }

    /// The caches currently registered, in registration order.
    pub fn registered_caches(&self) -> Vec<CacheId> {
        self.sinks.read().iter().map(|r| r.cache).collect()
    }

    /// Per-cache publication statistics, in registration order.
    pub fn publish_stats(&self) -> Vec<(CacheId, PublishStats)> {
        self.sinks
            .read()
            .iter()
            .map(|r| (r.cache, r.counters.snapshot()))
            .collect()
    }

    /// Fans one batch out to every registered cache. Empty batches are not
    /// published (an update that installed nothing invalidates nothing).
    ///
    /// The fan-out is timed once — two clock reads per publish, whatever
    /// the number of caches — and the time added to every cache's
    /// `publish_nanos`. Each cache's other counters are recorded right
    /// after its sink is done with the batch (applied it on this thread,
    /// or enqueued it and fired the wake-up), so a cache's bookkeeping
    /// never sits in front of its own invalidations.
    pub fn publish(&self, batch: &InvalidationBatch) {
        if batch.is_empty() {
            return;
        }
        let batch_len = batch.len() as u64;
        let sinks = self.sinks.read();
        let start = Instant::now();
        for registration in sinks.iter() {
            let report = (registration.sink)(batch);
            registration.counters.record(batch_len, report);
        }
        // Accumulate nanoseconds: a sub-microsecond fan-out must still
        // leave a nonzero trace after many publishes.
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        for registration in sinks.iter() {
            registration
                .counters
                .publish_nanos
                .fetch_add(nanos, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invalidation::Invalidation;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use tcache_types::{ObjectId, TxnId, Version};

    fn batch(n: u64) -> InvalidationBatch {
        (0..n)
            .map(|i| Invalidation::new(ObjectId(i), Version(1), TxnId(1)))
            .collect()
    }

    fn counting_sink(counter: &Arc<AtomicU64>) -> ReportingSink {
        let counter = Arc::clone(counter);
        Box::new(move |b: &InvalidationBatch| {
            counter.fetch_add(b.len() as u64, Ordering::Relaxed);
            SinkReport {
                enqueued: b.len() as u64,
                ..SinkReport::default()
            }
        })
    }

    #[test]
    fn publish_fans_out_to_every_registered_cache() {
        let publisher = InvalidationPublisher::new();
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        publisher.register(CacheId(0), counting_sink(&a));
        publisher.register(CacheId(1), counting_sink(&b));
        assert_eq!(publisher.registered_caches(), vec![CacheId(0), CacheId(1)]);
        publisher.publish(&batch(3));
        assert_eq!(a.load(Ordering::Relaxed), 3);
        assert_eq!(b.load(Ordering::Relaxed), 3);
        // Empty batches are suppressed.
        publisher.publish(&InvalidationBatch::default());
        assert_eq!(a.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn reregistration_replaces_and_unregister_removes() {
        let publisher = InvalidationPublisher::new();
        let first = Arc::new(AtomicU64::new(0));
        let second = Arc::new(AtomicU64::new(0));
        publisher.register(CacheId(7), counting_sink(&first));
        publisher.register(CacheId(7), counting_sink(&second));
        publisher.publish(&batch(2));
        assert_eq!(first.load(Ordering::Relaxed), 0, "replaced sink is gone");
        assert_eq!(second.load(Ordering::Relaxed), 2);
        assert!(publisher.unregister(CacheId(7)));
        assert!(!publisher.unregister(CacheId(7)));
        publisher.publish(&batch(2));
        assert_eq!(second.load(Ordering::Relaxed), 2);
        assert!(format!("{publisher:?}").contains("registered"));
    }

    #[test]
    fn reporting_sinks_attribute_overflow_and_stalls() {
        let publisher = InvalidationPublisher::new();
        publisher.register(
            CacheId(0),
            Box::new(|b: &InvalidationBatch| {
                // Model a pipe that admits one message per batch and stalls
                // (test-only: the stall is the behaviour under test).
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(std::time::Duration::from_millis(2));
                SinkReport {
                    enqueued: 1,
                    overflowed: b.len() as u64 - 1,
                    stalled: true,
                    severed: 1,
                }
            }),
        );
        publisher.publish(&batch(4));
        publisher.publish(&batch(4));
        let all = publisher.publish_stats();
        assert_eq!(all.len(), 1);
        let (cache, stats) = all[0];
        assert_eq!(cache, CacheId(0));
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.invalidations, 8);
        assert_eq!(stats.enqueued, 2);
        assert_eq!(stats.overflowed, 6);
        assert_eq!(stats.stalled_publishes, 2);
        assert_eq!(stats.severed, 2);
        assert!(
            stats.publish_nanos >= 4_000_000,
            "publish time accumulates: {}",
            stats.publish_nanos
        );
    }

    #[test]
    fn every_cache_is_charged_the_whole_fan_out() {
        let publisher = InvalidationPublisher::new();
        let fast = Arc::new(AtomicU64::new(0));
        publisher.register(CacheId(0), counting_sink(&fast));
        publisher.register(
            CacheId(1),
            Box::new(|_: &InvalidationBatch| {
                // Test-only: a slow pipe.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(std::time::Duration::from_millis(2));
                SinkReport::default()
            }),
        );
        publisher.publish(&batch(1));
        let stats = publisher.publish_stats();
        let (fast_nanos, slow_nanos) = (stats[0].1.publish_nanos, stats[1].1.publish_nanos);
        assert_eq!(fast_nanos, slow_nanos, "one timing per publish");
        assert!(fast_nanos >= 2_000_000, "the slow sink is in it: {fast_nanos}");
    }

    #[test]
    fn reregistration_keeps_accumulated_stats() {
        let publisher = InvalidationPublisher::new();
        let a = Arc::new(AtomicU64::new(0));
        publisher.register(CacheId(3), counting_sink(&a));
        publisher.publish(&batch(2));
        publisher.register(CacheId(3), counting_sink(&a));
        publisher.publish(&batch(1));
        let all = publisher.publish_stats();
        assert_eq!(all.len(), 1, "one registration per cache");
        let (cache, stats) = &all[0];
        assert_eq!(*cache, CacheId(3));
        assert_eq!(stats.batches, 2, "stats survive re-registration");
        assert_eq!(stats.invalidations, 3);
        assert_eq!(stats.enqueued, 3, "each sink's own report is recorded");
    }
}
