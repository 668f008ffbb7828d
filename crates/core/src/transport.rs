//! The live invalidation plane of a [`TCacheSystem`].
//!
//! [`TCacheSystem`]: crate::system::TCacheSystem
//!
//! A system moves invalidations exactly one way, the paper's (§II, §IV):
//! the database's commit-path upcalls (`modeled_delivery_sink`) push each
//! committed batch into every root cache's bounded
//! [`pipe`](tcache_net::pipe), and a *single* reactor thread
//! ([`tcache_net::reactor`]) multiplexes all N per-cache delivery tasks
//! ([`tcache_net::delivery`]), each applying its cache's seeded loss /
//! latency models in wall-clock time before the invalidation reaches the
//! cache. The pipe capacity bounds how far a slow cache can back up, and
//! the overflow policy decides what that backlog costs: blocked commits
//! ([`OverflowPolicy::Block`]) or bounded staleness
//! ([`OverflowPolicy::DropOldest`] / [`OverflowPolicy::DropNewest`]).
//!
//! No virtual clock is involved in delivery. The deterministic
//! virtual-time plane lives in `tcache-sim` (`plane::discrete`), which
//! drives [`tcache_net::fanout`] directly and is pinned against this plane
//! by the `cross_plane` tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcache_cache::EdgeCache;
use tcache_db::Invalidation;
use tcache_net::delivery::{
    run_delivery, DeliveryCounters, DeliveryModel, DeliveryStatsSnapshot, DeliveryTask,
    DEFAULT_BATCH_BUDGET,
};
use tcache_net::pipe::{bounded_pipe, OverflowPolicy, PipeSender, PipeStatsSnapshot};
use tcache_net::reactor::{Reactor, ReactorHandle, ReactorStats};
use tcache_types::seeding::{cache_channel_seed, cache_delay_seed};
use tcache_types::CacheId;

/// The transport a [`TCacheSystem`](crate::system::TCacheSystem) runs on.
/// There is one; the enum survives only because `benchmark/src/spec.rs`
/// (which PRs may not edit) names it — **benchmark-pinned**, to go with
/// [`SystemBuilder::transport`](crate::SystemBuilder::transport) in the
/// next flagged benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Per-cache bounded pipes drained by one shared reactor thread hosting
    /// every cache's delivery task.
    #[default]
    Reactor,
}

/// Where the unreliable-link model of the invalidation channels runs.
/// There is one place; **benchmark-pinned** exactly like [`TransportMode`]
/// (with [`SystemBuilder::delivery`](crate::SystemBuilder::delivery)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// The database's commit-path upcalls enqueue invalidations directly
    /// onto each cache's pipe, and the cache's reactor task applies its
    /// own seeded loss / latency models in wall-clock time.
    #[default]
    Modeled,
}

/// One reactor thread hosting every cache's invalidation-delivery task, fed
/// by per-cache bounded pipes. Each task runs its cache's loss / latency
/// models ([`tcache_net::delivery`]) and applies what survives.
pub(crate) struct ReactorPlane {
    pipes: Vec<PipeSender<Invalidation>>,
    /// Per-cache delivery counters (offered / dropped / delivered / delay).
    counters: Vec<Arc<DeliveryCounters>>,
    /// Per-cache pause flags: a paused task applies nothing further — up
    /// to one already-drained batch ([`DEFAULT_BATCH_BUDGET`] messages; the
    /// task checks the flag per message *after* the batch drain) is held
    /// in limbo while the rest of the backlog stays in the pipe —
    /// modelling a slow or wedged edge cache.
    paused: Vec<Arc<AtomicBool>>,
    /// Per-cache severed flags (crash / partition): a severed cache's link
    /// discards publishes instead of enqueuing them, so a crashed cache
    /// behind a full `Block` pipe can never wedge the publishing thread —
    /// the fault plane's invariant that lets `quiesce` always settle.
    severed: Vec<Arc<AtomicBool>>,
    /// Per-cache delay surcharge (microseconds) added on top of each
    /// task's modeled latency — the live half of `FaultKind::DelaySpike`.
    extra_delays: Vec<Arc<AtomicU64>>,
    handle: ReactorHandle,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Quiesce waits that timed out before the reactor settled.
    quiesce_timeouts: AtomicU64,
    /// Relay sends dropped because a child's bounded pipe was full. The
    /// relay hop cannot block (parent and child tasks share the reactor
    /// thread, so a blocking send would deadlock it); with the default
    /// unbounded capacity this stays zero.
    relay_overflows: Arc<AtomicU64>,
}

impl std::fmt::Debug for ReactorPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorPlane")
            .field("caches", &self.pipes.len())
            .finish_non_exhaustive()
    }
}

impl ReactorPlane {
    /// Builds the plane: one pipe + one delivery task per cache, all tasks
    /// multiplexed on a single spawned reactor thread. `models[i]` is the
    /// link model cache `i`'s task applies; the task's loss and delay RNG
    /// streams are derived from `(run_seed, CacheId)`.
    ///
    /// `parents[i]` turns the fan-out into a tree: when it names another
    /// cache index, cache `i` is a *leaf* subscribing through that regional
    /// parent — the database publishes only to root caches, and a parent's
    /// delivery task relays every invalidation it applies into each
    /// unsevered child's pipe, where the child's own seeded loss / latency
    /// model takes over. Construction is two-pass (all pipes first, then
    /// all tasks) precisely so a parent's closure can capture its
    /// children's senders. Relays happen *before* the parent's task counts
    /// the message as delivered, so [`ReactorPlane::quiesce`] can never
    /// settle with a relay still in flight. A severed parent silences its
    /// whole subtree; a severed leaf only itself.
    pub(crate) fn new(
        caches: &[Arc<EdgeCache>],
        capacity: usize,
        policy: OverflowPolicy,
        models: &[DeliveryModel],
        run_seed: u64,
        parents: &[Option<usize>],
    ) -> Self {
        debug_assert_eq!(caches.len(), models.len());
        debug_assert_eq!(caches.len(), parents.len());
        let mut reactor = Reactor::new();
        let timer = reactor.timer();
        let relay_overflows = Arc::new(AtomicU64::new(0));
        // Pass 1: create every pipe and flag so parent tasks can capture
        // their children's senders and severed flags in pass 2.
        let mut pipes = Vec::with_capacity(caches.len());
        let mut receivers = Vec::with_capacity(caches.len());
        let mut counters = Vec::with_capacity(caches.len());
        let mut paused = Vec::with_capacity(caches.len());
        let mut severed = Vec::with_capacity(caches.len());
        let mut extra_delays = Vec::with_capacity(caches.len());
        for _ in caches {
            let (tx, rx) = bounded_pipe::<Invalidation>(capacity, policy);
            pipes.push(tx);
            receivers.push(rx);
            counters.push(Arc::new(DeliveryCounters::default()));
            paused.push(Arc::new(AtomicBool::new(false)));
            severed.push(Arc::new(AtomicBool::new(false)));
            extra_delays.push(Arc::new(AtomicU64::new(0)));
        }
        // Pass 2: spawn one delivery task per cache; a parent's apply
        // callback also relays into its children's pipes.
        for (index, (cache, rx)) in caches.iter().zip(receivers).enumerate() {
            let children: Vec<(PipeSender<Invalidation>, Arc<AtomicBool>)> = parents
                .iter()
                .enumerate()
                .filter(|(_, parent)| **parent == Some(index))
                .map(|(child, _)| (pipes[child].clone(), Arc::clone(&severed[child])))
                .collect();
            let id = cache.id();
            let task_cache = Arc::clone(cache);
            let task_overflows = Arc::clone(&relay_overflows);
            reactor.spawn(run_delivery(
                rx,
                timer.clone(),
                DeliveryTask {
                    model: models[index],
                    loss_seed: cache_channel_seed(run_seed, id),
                    delay_seed: cache_delay_seed(run_seed, id),
                    counters: Arc::clone(&counters[index]),
                    paused: Arc::clone(&paused[index]),
                    extra_delay_micros: Arc::clone(&extra_delays[index]),
                    batch_budget: DEFAULT_BATCH_BUDGET,
                },
                move |inv| {
                    task_cache.apply_invalidation(inv);
                    for (child_tx, child_severed) in &children {
                        if child_severed.load(Ordering::Acquire) {
                            continue;
                        }
                        // The relay must not block: parent and child tasks
                        // share the reactor thread, so waiting on a full
                        // Block pipe here would deadlock it. With the
                        // default unbounded capacity this never drops.
                        if let Err(tcache_net::pipe::PipeSendError::Full(_)) =
                            child_tx.try_send(inv)
                        {
                            task_overflows.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                },
            ));
        }
        let handle = reactor.handle();
        let thread = std::thread::Builder::new()
            .name("tcache-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");
        ReactorPlane {
            pipes,
            counters,
            paused,
            severed,
            extra_delays,
            handle,
            thread: Some(thread),
            quiesce_timeouts: AtomicU64::new(0),
            relay_overflows,
        }
    }

    /// A clone of `cache_index`'s pipe sender, for wiring the database's
    /// invalidation upcall straight into the cache's delivery task.
    pub(crate) fn sender(&self, cache_index: usize) -> PipeSender<Invalidation> {
        self.pipes[cache_index].clone()
    }

    /// Waits until every *unpaused* cache's pipe is drained and its task has
    /// finished processing (paused caches keep their backlog by design).
    /// A message the task popped but is still sleeping a modeled delay on
    /// counts as unprocessed, so modeled in-flight delays are waited out.
    /// Returns `false` — and counts a quiesce timeout — on timeout.
    pub(crate) fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            let settled = (0..self.pipes.len()).all(|i| {
                self.paused[i].load(Ordering::Acquire) || {
                    let pipe = &self.pipes[i];
                    pipe.is_empty() && self.counters[i].processed() == pipe.stats().received
                }
            });
            if settled {
                return true;
            }
            if Instant::now() >= deadline {
                self.quiesce_timeouts.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            // Spin briefly (the reactor usually drains a batch in
            // microseconds), then back off so a genuinely slow task does
            // not burn a core.
            spins += 1;
            if spins < 200 {
                std::thread::yield_now();
            } else {
                // Quiesce is wall-clock by nature: it waits for real worker
                // threads, not modeled time, so a timer cannot replace it.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    /// Pauses or resumes one cache's apply task.
    pub(crate) fn set_paused(&self, cache_index: usize, paused: bool) {
        self.paused[cache_index].store(paused, Ordering::Release);
    }

    /// Whether a cache's apply task is currently paused.
    pub(crate) fn is_paused(&self, cache_index: usize) -> bool {
        self.paused[cache_index].load(Ordering::Acquire)
    }

    /// Severs or restores one cache's invalidation link (crash/partition).
    pub(crate) fn set_severed(&self, cache_index: usize, severed: bool) {
        self.severed[cache_index].store(severed, Ordering::Release);
    }

    /// Whether a cache's invalidation link is currently severed.
    pub(crate) fn is_severed(&self, cache_index: usize) -> bool {
        self.severed[cache_index].load(Ordering::Acquire)
    }

    /// A clone of one cache's severed flag, for wiring into the cache's
    /// publish sink ([`modeled_delivery_sink`]).
    pub(crate) fn severed_flag(&self, cache_index: usize) -> Arc<AtomicBool> {
        Arc::clone(&self.severed[cache_index])
    }

    /// Sets the delay surcharge one cache's delivery task adds on top of
    /// its modeled latency (a fault-plan delay spike; zero clears it).
    pub(crate) fn set_extra_delay(&self, cache_index: usize, extra: tcache_types::SimDuration) {
        self.extra_delays[cache_index].store(extra.as_micros(), Ordering::Release);
    }

    /// One cache's pipe counters.
    pub(crate) fn pipe_stats(&self, cache_index: usize) -> PipeStatsSnapshot {
        self.pipes[cache_index].stats()
    }

    /// One cache's delivery-task counters (offered / dropped / delivered /
    /// modeled delay).
    pub(crate) fn delivery_stats(&self, cache_index: usize) -> DeliveryStatsSnapshot {
        self.counters[cache_index].snapshot()
    }

    /// Invalidations applied by one cache's reactor task so far.
    pub(crate) fn applied(&self, cache_index: usize) -> u64 {
        self.counters[cache_index].snapshot().delivered
    }

    /// Number of quiesce waits that timed out so far.
    pub(crate) fn quiesce_timeouts(&self) -> u64 {
        self.quiesce_timeouts.load(Ordering::Relaxed)
    }

    /// The reactor's counters.
    pub(crate) fn reactor_stats(&self) -> ReactorStats {
        self.handle.stats()
    }

    /// Relay sends dropped because a child's bounded pipe was full (see
    /// the constructor's two-tier notes); zero under the default unbounded
    /// pipe capacity.
    pub(crate) fn relay_overflows(&self) -> u64 {
        self.relay_overflows.load(Ordering::Relaxed)
    }
}

impl Drop for ReactorPlane {
    fn drop(&mut self) {
        // Unpause everything so no task sits in a pause-sleep loop, ask the
        // loop to exit, and reclaim the thread.
        for flag in &self.paused {
            flag.store(false, Ordering::Release);
        }
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// How the publish path handles a send to a cache whose link is severed
/// (crashed or partitioned): retry up to `budget` times with capped
/// exponential backoff (re-checking the link before each attempt), then
/// abandon the batch. The default budget of 0 discards immediately — the
/// deterministic behaviour the simulation planes rely on (no wall-clock
/// sleeps on the commit path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry attempts per published batch (0 = never retry).
    pub budget: u32,
    /// Backoff before the first retry; doubles each attempt.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 0,
            base: Duration::from_micros(50),
            cap: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// The capped exponential backoff before retry attempt `attempt`
    /// (0-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// Builds the per-cache invalidation upcall sink that feeds `sender`'s
/// pipe from the database's commit path: a published batch enters the pipe in one
/// [`send_batch`](PipeSender::send_batch) — one pipe-lock acquisition and
/// at most one wake-up per (commit, cache) while the pipe has room — with
/// the pipe's overflow policy applied per invalidation exactly as single
/// sends would, and the overflow / stall behaviour is reported back so the
/// publisher can attribute what the commit paid. A batch published while `severed` is
/// set (the cache crashed or partitioned) is retried per `retry` — the
/// publisher waits out short disconnects — and discarded once the budget
/// runs out, so a downed cache can never block the commit path. Used by
/// the builder; `cache` only documents the wiring.
pub(crate) fn modeled_delivery_sink(
    _cache: CacheId,
    sender: PipeSender<Invalidation>,
    severed: Arc<AtomicBool>,
    retry: RetryPolicy,
) -> tcache_db::ReportingSink {
    Box::new(move |batch| {
        let mut report = tcache_db::SinkReport::default();
        if severed.load(Ordering::Acquire) {
            for attempt in 0..retry.budget {
                // The severed-link backoff runs on the publisher's own
                // thread, outside the reactor; blocking it is the point.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(retry.backoff(attempt));
                report.retries += 1;
                if !severed.load(Ordering::Acquire) {
                    break;
                }
            }
            if severed.load(Ordering::Acquire) {
                // Budget exhausted (or zero): the batch is lost on the
                // floor, attributed so recovery can be audited later.
                report.severed += batch.len() as u64;
                if retry.budget > 0 {
                    report.abandoned += batch.len() as u64;
                }
                return report;
            }
        }
        // A disconnected pipe means the task is gone (shutdown); the
        // channel is best-effort, so dropping the rest is correct.
        let sent = sender.send_batch(batch.iter().copied());
        report.enqueued = sent.enqueued;
        report.overflowed = sent.overflowed;
        report.stalled = sent.stalled;
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tcache_db::{InvalidationBatch, ReportingSink, SinkReport};
    use tcache_net::pipe::{PipeSendError, PipeStatsSnapshot};
    use tcache_types::{ObjectId, TxnId, Version};

    /// The sink as it was before batching — one `try_send` per
    /// invalidation, falling back to a blocking `send` (and reporting the
    /// stall) on a full `Block` pipe. Kept as the oracle the batched sink
    /// must be indistinguishable from.
    fn per_message_reference_sink(sender: PipeSender<Invalidation>) -> ReportingSink {
        Box::new(move |batch| {
            let mut report = SinkReport::default();
            for &inv in batch.iter() {
                let outcome = match sender.try_send(inv) {
                    Ok(outcome) => Some(outcome),
                    Err(PipeSendError::Full(inv)) => {
                        report.stalled = true;
                        sender.send(inv).ok()
                    }
                    Err(PipeSendError::Disconnected(_)) => None,
                };
                if let Some(outcome) = outcome {
                    report.enqueued += u64::from(outcome.was_enqueued());
                    report.overflowed += u64::from(outcome.lost_a_message());
                }
            }
            report
        })
    }

    fn numbered(seq: u64) -> Invalidation {
        Invalidation::with_seq(ObjectId(seq), Version(seq), TxnId(seq), seq)
    }

    /// Publishes one `batch_len`-invalidation batch through the sink
    /// `make_sink` builds, into a pipe pre-filled with `prefill` messages.
    /// Returns everything the pipe held afterwards (in queue order), its
    /// counters, and the sink's report. A `Block` pipe too small for the
    /// batch stalls the sink by design: the publish then runs on its own
    /// thread, and draining starts only once the pipe has counted the
    /// stall, so the outcome is the same on every run.
    fn publish_through(
        make_sink: impl FnOnce(PipeSender<Invalidation>) -> ReportingSink,
        policy: OverflowPolicy,
        capacity: usize,
        prefill: usize,
        batch_len: usize,
    ) -> (Vec<Invalidation>, PipeStatsSnapshot, SinkReport) {
        let (tx, rx) = bounded_pipe::<Invalidation>(capacity, policy);
        for seq in 0..prefill as u64 {
            tx.send(numbered(seq)).expect("prefill fits");
        }
        let sink = make_sink(tx.clone());
        let batch: InvalidationBatch = (0..batch_len as u64).map(|i| numbered(100 + i)).collect();
        let will_stall = policy == OverflowPolicy::Block && prefill + batch_len > capacity;
        if !will_stall {
            let report = sink(&batch);
            return (rx.drain(), tx.stats(), report);
        }
        let publisher = std::thread::spawn(move || sink(&batch));
        let deadline = Instant::now() + Duration::from_secs(60);
        while tx.stats().stalled_sends == 0 {
            assert!(Instant::now() < deadline, "the full Block pipe never stalled the sink");
            std::thread::yield_now();
        }
        let mut contents = Vec::new();
        while contents.len() < prefill + batch_len {
            contents.push(rx.recv().expect("the sink holds a sender"));
        }
        let report = publisher.join().expect("sink thread");
        (contents, tx.stats(), report)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The batched sink against the per-message reference, over every
        /// overflow policy, small capacities, batches from empty to larger
        /// than the pipe, and pre-filled queues: same queue contents in the
        /// same order, same pipe counters, same report to the publisher.
        #[test]
        fn batched_sink_matches_the_per_message_reference(
            policy_choice in 0u32..3,
            capacity in 1usize..9,
            batch_len in 0usize..13,
            prefill_choice in 0usize..9,
        ) {
            let policy = match policy_choice {
                0 => OverflowPolicy::Block,
                1 => OverflowPolicy::DropNewest,
                _ => OverflowPolicy::DropOldest,
            };
            let prefill = prefill_choice.min(capacity);
            let (contents, stats, report) = publish_through(
                |tx| {
                    modeled_delivery_sink(
                        CacheId(0),
                        tx,
                        Arc::new(AtomicBool::new(false)),
                        RetryPolicy::default(),
                    )
                },
                policy,
                capacity,
                prefill,
                batch_len,
            );
            let (ref_contents, ref_stats, ref_report) =
                publish_through(per_message_reference_sink, policy, capacity, prefill, batch_len);
            prop_assert_eq!(contents, ref_contents, "queue contents and order");
            prop_assert_eq!(
                (stats.enqueued, stats.rejected, stats.evicted),
                (ref_stats.enqueued, ref_stats.rejected, ref_stats.evicted),
                "pipe counters"
            );
            prop_assert_eq!(
                (report.enqueued, report.overflowed, report.stalled),
                (ref_report.enqueued, ref_report.overflowed, ref_report.stalled),
                "sink report"
            );
            // And against first principles, so the two cannot drift together.
            let lost = (prefill + batch_len).saturating_sub(capacity) as u64;
            let expected_overflow = if policy == OverflowPolicy::Block { 0 } else { lost };
            prop_assert_eq!(report.overflowed, expected_overflow);
            prop_assert_eq!(report.stalled, policy == OverflowPolicy::Block && lost > 0);
        }
    }

    #[test]
    fn retry_policy_backoff_is_capped_exponential() {
        let retry = RetryPolicy {
            budget: 8,
            base: Duration::from_micros(100),
            cap: Duration::from_micros(350),
        };
        assert_eq!(retry.backoff(0), Duration::from_micros(100));
        assert_eq!(retry.backoff(1), Duration::from_micros(200));
        assert_eq!(retry.backoff(2), Duration::from_micros(350), "capped");
        assert_eq!(retry.backoff(31), Duration::from_micros(350));
        assert_eq!(RetryPolicy::default().budget, 0);
    }

    #[test]
    fn severed_sink_discards_without_retry_budget() {
        let (tx, rx) = bounded_pipe::<Invalidation>(8, OverflowPolicy::Block);
        let severed = Arc::new(AtomicBool::new(true));
        let sink = modeled_delivery_sink(
            CacheId(0),
            tx,
            Arc::clone(&severed),
            RetryPolicy::default(),
        );
        let batch = tcache_db::InvalidationBatch::new(vec![Invalidation::new(
            tcache_types::ObjectId(1),
            tcache_types::Version(2),
            tcache_types::TxnId(3),
        )]);
        let report = sink(&batch);
        assert_eq!(report.severed, 1);
        assert_eq!(report.retries, 0);
        assert_eq!(report.abandoned, 0, "budget 0 never 'abandons': no retry was attempted");
        assert_eq!(report.enqueued, 0);
        assert!(rx.try_recv().is_none(), "nothing entered the pipe");
    }

    #[test]
    fn severed_sink_retries_until_the_link_heals() {
        let (tx, rx) = bounded_pipe::<Invalidation>(8, OverflowPolicy::Block);
        let severed = Arc::new(AtomicBool::new(true));
        let retry = RetryPolicy {
            budget: 50,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(1),
        };
        let sink = modeled_delivery_sink(CacheId(0), tx, Arc::clone(&severed), retry);
        // Heal the link from another thread while the publisher backs off.
        let healer = {
            let severed = Arc::clone(&severed);
            std::thread::spawn(move || {
                // Test-only cross-thread coordination on wall time.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(Duration::from_millis(2));
                severed.store(false, Ordering::Release);
            })
        };
        let batch = tcache_db::InvalidationBatch::new(vec![Invalidation::new(
            tcache_types::ObjectId(1),
            tcache_types::Version(2),
            tcache_types::TxnId(3),
        )]);
        let report = sink(&batch);
        healer.join().unwrap();
        assert!(report.retries >= 1, "the publisher retried: {report:?}");
        assert_eq!(report.severed, 0);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.enqueued, 1, "the healed link carried the batch");
        assert!(rx.try_recv().is_some());
    }

    #[test]
    fn severed_sink_abandons_after_the_budget() {
        let (tx, rx) = bounded_pipe::<Invalidation>(8, OverflowPolicy::Block);
        let severed = Arc::new(AtomicBool::new(true));
        let retry = RetryPolicy {
            budget: 3,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(20),
        };
        let sink = modeled_delivery_sink(CacheId(0), tx, severed, retry);
        let batch = tcache_db::InvalidationBatch::new(vec![
            Invalidation::new(
                tcache_types::ObjectId(1),
                tcache_types::Version(2),
                tcache_types::TxnId(3),
            );
            2
        ]);
        let report = sink(&batch);
        assert_eq!(report.retries, 3, "the whole budget was spent");
        assert_eq!(report.severed, 2);
        assert_eq!(report.abandoned, 2);
        assert!(rx.try_recv().is_none());
    }
}
