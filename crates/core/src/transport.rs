//! The live invalidation plane of a [`TCacheSystem`].
//!
//! [`TCacheSystem`]: crate::system::TCacheSystem
//!
//! A system moves invalidations exactly one way, the paper's (§II, §IV):
//! the database's commit-path upcalls (`modeled_delivery_sink`) offer each
//! committed batch to every root cache's [`Link`], whose link step
//! ([`tcache_net::delivery::LinkStep`]) drops and delays each invalidation
//! per the cache's seeded model in wall-clock time before it reaches the
//! cache. A link with nothing to wait for serves the batch on the
//! committing thread ([`Link::offer`]); everything else goes through the
//! cache's bounded [`pipe`](tcache_net::pipe) to a *single* reactor thread
//! ([`tcache_net::reactor`]) multiplexing all N per-cache delivery tasks,
//! each holding its messages in flight until their deadlines. The pipe
//! capacity bounds how far a slow cache can back up, and the overflow
//! policy decides what that backlog costs: blocked commits
//! ([`OverflowPolicy::Block`]) or bounded staleness
//! ([`OverflowPolicy::DropOldest`] / [`OverflowPolicy::DropNewest`]). A
//! crashed or partitioned cache's link is severed: its sink discards each
//! batch at once (counted as `severed` in the publisher's stats), so no
//! commit ever waits on a dead peer, and whatever was still in flight to it
//! is discarded when its deadline comes.
//!
//! No virtual clock is involved in delivery. The deterministic
//! virtual-time plane lives in `tcache-sim` (`plane::discrete`), which
//! drives the same link step on its virtual clock and is pinned against
//! this plane by the `cross_plane` tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcache_cache::EdgeCache;
use tcache_db::Invalidation;
use tcache_net::delivery::{DeliveryModel, DeliveryStatsSnapshot, DeliveryTask, Link};
use tcache_net::pipe::{bounded_pipe, OverflowPolicy, PipeStatsSnapshot};
use tcache_net::reactor::{Reactor, ReactorHandle, ReactorStats};
use tcache_types::seeding::{cache_channel_seed, cache_delay_seed};

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
/// by per-cache bounded pipes. Each cache's [`Link`] runs its loss / latency
/// models ([`tcache_net::delivery`]) and applies what survives — on that
/// thread, or on the thread that offered the batch.
pub(crate) struct ReactorPlane {
    /// Per-cache links: each owns its cache's pipe, link step, delivery
    /// counters, pause flag and delay-spike surcharge (the live half of
    /// `FaultKind::DelaySpike`). A paused link is never handed off to and
    /// its task admits and applies nothing: up to one drained batch
    /// ([`DEFAULT_BATCH_BUDGET`](tcache_net::delivery::DEFAULT_BATCH_BUDGET)
    /// messages) and whatever is in flight are held while the rest of the
    /// backlog stays in the pipe — modelling a slow or wedged edge cache.
    links: Vec<Arc<Link<Invalidation>>>,
    /// Per-cache severed flags (crash / partition): a severed cache's link
    /// discards publishes at once instead of being offered them, so a
    /// crashed cache behind a full `Block` pipe can never wedge the
    /// publishing thread — the fault plane's invariant that lets `quiesce`
    /// always settle.
    severed: Vec<Arc<AtomicBool>>,
    handle: ReactorHandle,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Quiesce waits that timed out before the reactor settled.
    quiesce_timeouts: AtomicU64,
    /// Relayed invalidations lost because a child's bounded pipe was full:
    /// refused under `Block`, rejected or evicting a pending one under the
    /// drop policies. The relay hop cannot block (parent and child tasks
    /// share the reactor thread, so a blocking send would deadlock it);
    /// with the default unbounded capacity this stays zero.
    relay_overflows: Arc<AtomicU64>,
}

impl std::fmt::Debug for ReactorPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorPlane")
            .field("caches", &self.links.len())
            .finish_non_exhaustive()
    }
}

impl ReactorPlane {
    /// Builds the plane: one link (pipe + delivery task) per cache, all
    /// tasks multiplexed on a single spawned reactor thread. `models[i]` is
    /// the link model of cache `i`; the link's loss and delay RNG streams
    /// are derived from `(run_seed, CacheId)`.
    ///
    /// `parents[i]` turns the fan-out into a tree: when it names another
    /// cache index, cache `i` is a *leaf* subscribing through that regional
    /// parent — the database publishes only to root caches, and a parent's
    /// apply relays what it applies, as one batch, to each unsevered
    /// child's link, where the child's own seeded loss / latency model
    /// takes over (a handed-off root relays its batch's survivors in one
    /// offer; the root's delivery task relays message by message).
    /// Links are built leaves first precisely so a parent's apply closure
    /// can capture its children's. A cache severed by the time a delivery
    /// lands discards it, relays included. Relays happen *before* the
    /// parent's link counts the message as delivered, so
    /// [`ReactorPlane::quiesce`] can never settle with a relay still in
    /// flight. A severed parent silences
    /// its whole subtree; a severed leaf only itself.
    ///
    /// A relay is a nested [`Link::offer`] made under the parent's step lock
    /// (and, for a root served on the committing thread, under its pipe
    /// lock too), so locks nest parent pipe → parent step → child pipe →
    /// child step, never the reverse (the tree is one level deep and a leaf
    /// relays nowhere).
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
        let severed: Vec<Arc<AtomicBool>> = caches
            .iter()
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let mut links: Vec<Option<Arc<Link<Invalidation>>>> = vec![None; caches.len()];
        let leaves_then_roots = (0..caches.len())
            .filter(|&i| parents[i].is_some())
            .chain((0..caches.len()).filter(|&i| parents[i].is_none()));
        for index in leaves_then_roots {
            let children: Vec<(Arc<Link<Invalidation>>, Arc<AtomicBool>)> = parents
                .iter()
                .enumerate()
                .filter(|(_, parent)| **parent == Some(index))
                .map(|(child, _)| {
                    let link = links[child].clone().expect("leaves are built first");
                    (link, Arc::clone(&severed[child]))
                })
                .collect();
            let cache = Arc::clone(&caches[index]);
            let id = cache.id();
            let cache_severed = Arc::clone(&severed[index]);
            let overflows = Arc::clone(&relay_overflows);
            let (tx, rx) = bounded_pipe::<Invalidation>(capacity, policy);
            let task = DeliveryTask::new(
                models[index],
                cache_channel_seed(run_seed, id),
                cache_delay_seed(run_seed, id),
            );
            let link = Link::new(tx, task, move |batch: &[Invalidation]| {
                if cache_severed.load(Ordering::Acquire) {
                    return;
                }
                cache.apply_invalidations(batch);
                for (child, child_severed) in &children {
                    if child_severed.load(Ordering::Acquire) {
                        continue;
                    }
                    // The relay must not block: parent and child tasks
                    // share the reactor thread, so waiting on a full Block
                    // pipe here would deadlock it. With the default
                    // unbounded capacity this never drops.
                    let relayed = child.offer(batch, false);
                    let lost = relayed.refused + relayed.overflowed;
                    if lost > 0 {
                        overflows.fetch_add(lost, Ordering::Relaxed);
                    }
                }
            });
            reactor.spawn(link.deliver(rx, timer.clone()));
            links[index] = Some(Arc::new(link));
        }
        let handle = reactor.handle();
        let thread = std::thread::Builder::new()
            .name("tcache-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");
        ReactorPlane {
            links: links
                .into_iter()
                .map(|link| link.expect("every cache is a leaf or a root"))
                .collect(),
            severed,
            handle,
            thread: Some(thread),
            quiesce_timeouts: AtomicU64::new(0),
            relay_overflows,
        }
    }

    /// `cache_index`'s link, for wiring the database's invalidation upcall
    /// straight into it ([`modeled_delivery_sink`]).
    pub(crate) fn link(&self, cache_index: usize) -> Arc<Link<Invalidation>> {
        Arc::clone(&self.links[cache_index])
    }

    /// Waits until every *unpaused* cache's pipe is drained and its link
    /// has finished processing (paused caches keep their backlog by design).
    /// A message still in flight on a link step counts as unprocessed, so
    /// modeled delays are waited out.
    /// Returns `false` — and counts a quiesce timeout — on timeout.
    pub(crate) fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            if self.links.iter().all(|link| link.is_paused() || link.is_idle()) {
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

    /// Pauses or resumes one cache's link.
    pub(crate) fn set_paused(&self, cache_index: usize, paused: bool) {
        self.links[cache_index].set_paused(paused);
    }

    /// Whether a cache's link is currently paused.
    pub(crate) fn is_paused(&self, cache_index: usize) -> bool {
        self.links[cache_index].is_paused()
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

    /// Sets the delay surcharge one cache's link adds on top of its
    /// modeled latency (a fault-plan delay spike; zero clears it).
    pub(crate) fn set_extra_delay(&self, cache_index: usize, extra: tcache_types::SimDuration) {
        self.links[cache_index].set_extra_delay(extra);
    }

    /// One cache's pipe counters.
    pub(crate) fn pipe_stats(&self, cache_index: usize) -> PipeStatsSnapshot {
        self.links[cache_index].pipe_stats()
    }

    /// One cache's link-step counters (offered / dropped / delivered /
    /// modeled delay).
    pub(crate) fn delivery_stats(&self, cache_index: usize) -> DeliveryStatsSnapshot {
        self.links[cache_index].delivery_stats()
    }

    /// Number of quiesce waits that timed out so far.
    pub(crate) fn quiesce_timeouts(&self) -> u64 {
        self.quiesce_timeouts.load(Ordering::Relaxed)
    }

    /// The reactor's counters.
    pub(crate) fn reactor_stats(&self) -> ReactorStats {
        self.handle.stats()
    }

    /// Relayed invalidations lost to a child's full bounded pipe (see the
    /// constructor's two-tier notes); zero under the default unbounded
    /// pipe capacity.
    pub(crate) fn relay_overflows(&self) -> u64 {
        self.relay_overflows.load(Ordering::Relaxed)
    }
}

impl Drop for ReactorPlane {
    fn drop(&mut self) {
        // Unpause everything so no task sits in a pause-sleep loop, ask the
        // loop to exit, and reclaim the thread.
        for link in &self.links {
            link.set_paused(false);
        }
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Builds the per-cache invalidation upcall sink that offers every batch
/// the database publishes to `link` ([`Link::offer`]): served on the
/// committing thread when the link has nothing to wait for, otherwise
/// entering the pipe in one [`send_batch`](tcache_net::pipe::PipeSender::send_batch)
/// — one pipe-lock acquisition and at most one wake-up per (commit, cache)
/// while the pipe has room — with the pipe's overflow policy applied per
/// invalidation, and the overflow / stall behaviour is reported back so the
/// publisher can attribute what the commit paid. A batch published while
/// `severed` is set (the cache crashed or partitioned) is discarded at
/// once, so a downed cache can never block the commit path; the channel is
/// best-effort (§II), and a recovering cache catches up from the
/// invalidation log.
///
/// The sink owns the link, whose apply owns the cache, whose backend is the
/// database that owns the sink: whoever registers it must unregister it
/// (`TCacheSystem`'s `Drop` does) or all of them leak.
pub(crate) fn modeled_delivery_sink(
    link: Arc<Link<Invalidation>>,
    severed: Arc<AtomicBool>,
) -> tcache_db::ReportingSink {
    Box::new(move |batch| {
        if severed.load(Ordering::Acquire) {
            return tcache_db::SinkReport {
                severed: batch.len() as u64,
                ..tcache_db::SinkReport::default()
            };
        }
        // A disconnected pipe means the task is gone (shutdown); the
        // channel is best-effort, so dropping the rest is correct.
        let sent = link.offer(batch.invalidations(), true);
        tcache_db::SinkReport {
            enqueued: sent.enqueued,
            overflowed: sent.overflowed,
            stalled: sent.stalled,
            severed: 0,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::future::Future;
    use std::task::{Context, Waker};
    use tcache_db::{InvalidationBatch, ReportingSink, SinkReport};
    use tcache_net::pipe::{PipeReceiver, PipeSender, PipeStatsSnapshot};
    use tcache_types::{ObjectId, TxnId, Version};

    /// A reliable zero-delay link over `tx` whose delivery task is never
    /// spawned: the test keeps the receiving half and drains it by hand, so
    /// the link is never handed off to and the sink's queue behaviour is
    /// all there is to see.
    fn untasked_link(tx: PipeSender<Invalidation>) -> Arc<Link<Invalidation>> {
        Arc::new(Link::new(
            tx,
            DeliveryTask::new(DeliveryModel::reliable(), 0, 0),
            |_: &[Invalidation]| {},
        ))
    }

    /// The sink as it was before batching — one send per invalidation: a
    /// one-element `try_send_batch`, falling back to a waiting
    /// `send_batch` (and reporting the stall) when a full `Block` pipe
    /// refuses it. Kept as the oracle the batched sink must be
    /// indistinguishable from.
    fn per_message_reference_sink(sender: PipeSender<Invalidation>) -> ReportingSink {
        Box::new(move |batch| {
            let mut report = SinkReport::default();
            for &inv in batch.iter() {
                let mut sent = sender.try_send_batch([inv]);
                if sent.refused > 0 {
                    report.stalled = true;
                    sent = sender.send_batch([inv]);
                }
                report.enqueued += sent.enqueued;
                report.overflowed += sent.overflowed;
            }
            report
        })
    }

    /// Everything queued in `rx`, drained synchronously: one poll of the
    /// batch receive with a waker nobody listens to.
    fn drain(rx: &PipeReceiver<Invalidation>) -> Vec<Invalidation> {
        let mut out = Vec::new();
        let _ = std::pin::pin!(rx.recv_batch_async(&mut out, usize::MAX))
            .poll(&mut Context::from_waker(Waker::noop()));
        out
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
            return (drain(&rx), tx.stats(), report);
        }
        let publisher = std::thread::spawn(move || sink(&batch));
        let deadline = Instant::now() + Duration::from_secs(60);
        while tx.stats().stalled_sends == 0 {
            assert!(Instant::now() < deadline, "the full Block pipe never stalled the sink");
            std::thread::yield_now();
        }
        let mut contents = Vec::new();
        while contents.len() < prefill + batch_len {
            assert!(Instant::now() < deadline, "the stalled sink never finished");
            contents.extend(drain(&rx));
            std::thread::yield_now();
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
                |tx| modeled_delivery_sink(untasked_link(tx), Arc::new(AtomicBool::new(false))),
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
    fn severed_sink_discards_without_retry_budget() {
        let (tx, rx) = bounded_pipe::<Invalidation>(8, OverflowPolicy::Block);
        let severed = Arc::new(AtomicBool::new(true));
        let sink = modeled_delivery_sink(untasked_link(tx), Arc::clone(&severed));
        let batch = tcache_db::InvalidationBatch::new(vec![Invalidation::new(
            tcache_types::ObjectId(1),
            tcache_types::Version(2),
            tcache_types::TxnId(3),
        )]);
        let report = sink(&batch);
        assert_eq!(report.severed, 1);
        assert_eq!(report.enqueued, 0);
        // Healed, the same sink carries the next batch — and only that one
        // ever entered the pipe.
        severed.store(false, Ordering::Release);
        assert_eq!(sink(&batch).enqueued, 1);
        assert_eq!(drain(&rx).len(), 1, "the severed batch was discarded");
    }
}
