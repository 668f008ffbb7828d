//! In-reactor modeled delivery: the channel's loss and latency applied
//! *inside* each cache's reactor apply task.
//!
//! The discrete-event plane models the unreliable invalidation link with
//! [`crate::channel`], driven by a virtual clock. The live plane runs the
//! same models in wall-clock time instead: the publisher enqueues every
//! invalidation onto the cache's bounded [`pipe`](crate::pipe) unmodified,
//! and the cache's reactor task draws the drop decision and sleeps the
//! sampled delay ([`TimerHandle::sleep_model`]) before applying — the link
//! is modeled at the *receiving* end, where a real deployment's network
//! and kernel queues live, never inline on the publishing thread.
//!
//! Reproducibility follows the repo-wide convention: the loss RNG is
//! seeded from `(run_seed, CacheId)` with
//! [`tcache_types::seeding::cache_channel_seed`] — the same stream the
//! discrete-event channel uses — and the latency RNG gets its own disjoint
//! stream ([`tcache_types::seeding::cache_delay_seed`]), so delay sampling
//! never perturbs the drop pattern. With a latency model that draws no
//! randomness (the constant model), the messages a cache loses are
//! bit-identical across both execution planes and invariant to how many
//! caches are deployed.
//!
//! Because one task serves one cache, the modeled delay is a *service
//! time*: a sleeping message delays the messages queued behind it, like a
//! single-consumer store-and-forward pipeline. The discrete-event channel
//! instead delays every message independently (messages can overlap and
//! reorder). The two agree at zero delay — the configuration the
//! cross-plane parity tests pin down.

use crate::fault::{LossModel, LossState};
use crate::latency::LatencyModel;
use crate::pipe::PipeReceiver;
use crate::reactor::TimerHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tcache_types::SimDuration;

/// The unreliable-link model one live delivery task applies: every message
/// popped from the pipe is independently dropped per `loss`, and survivors
/// are applied only after a delay sampled from `latency`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeliveryModel {
    /// Drop process of the link.
    pub loss: LossModel,
    /// Delay process of the link (a service time: it holds up the messages
    /// queued behind it, see the module docs).
    pub latency: LatencyModel,
}

impl DeliveryModel {
    /// A perfectly reliable, zero-delay link (the default).
    pub fn reliable() -> Self {
        DeliveryModel {
            loss: LossModel::None,
            latency: LatencyModel::Constant(SimDuration::ZERO),
        }
    }

    /// Uniform loss probability with a constant delay — the link shape
    /// every experiment in the evaluation uses.
    pub fn uniform(loss: f64, delay: SimDuration) -> Self {
        DeliveryModel {
            loss: LossModel::uniform(loss),
            latency: LatencyModel::Constant(delay),
        }
    }
}

/// Monotone counters of one live delivery task. Shared between the task
/// and the observers sampling [`DeliveryCounters::snapshot`].
#[derive(Debug, Default)]
pub struct DeliveryCounters {
    offered: AtomicU64,
    dropped: AtomicU64,
    delivered: AtomicU64,
    delay_micros: AtomicU64,
}

/// A point-in-time copy of [`DeliveryCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryStatsSnapshot {
    /// Messages the task popped off its pipe.
    pub offered: u64,
    /// Messages the loss model dropped before application.
    pub dropped: u64,
    /// Messages applied to the cache.
    pub delivered: u64,
    /// Total modeled delay slept before applications, in microseconds.
    pub delay_micros: u64,
}

impl DeliveryStatsSnapshot {
    /// Messages the task has finished with (dropped or applied). Equal to
    /// [`DeliveryStatsSnapshot::offered`] once the task is idle — the
    /// quiesce condition of the live plane.
    pub fn processed(&self) -> u64 {
        self.dropped + self.delivered
    }

    /// Observed loss ratio (0 when nothing was offered).
    pub fn loss_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Mean modeled delay per applied message, in microseconds (0 when
    /// nothing was delivered).
    pub fn mean_delay_micros(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delay_micros as f64 / self.delivered as f64
        }
    }

    /// Accumulates another task's counters into this one. Sums saturate
    /// instead of wrapping so long sweeps cannot corrupt aggregates.
    pub fn merge(&mut self, other: DeliveryStatsSnapshot) {
        self.offered = self.offered.saturating_add(other.offered);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.delivered = self.delivered.saturating_add(other.delivered);
        self.delay_micros = self.delay_micros.saturating_add(other.delay_micros);
    }
}

impl DeliveryCounters {
    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> DeliveryStatsSnapshot {
        DeliveryStatsSnapshot {
            offered: self.offered.load(Ordering::Acquire),
            dropped: self.dropped.load(Ordering::Acquire),
            delivered: self.delivered.load(Ordering::Acquire),
            delay_micros: self.delay_micros.load(Ordering::Acquire),
        }
    }

    /// Messages finished with (dropped or applied), loaded directly.
    pub fn processed(&self) -> u64 {
        self.dropped.load(Ordering::Acquire) + self.delivered.load(Ordering::Acquire)
    }
}

/// Everything one modeled delivery task needs besides its pipe and timer:
/// the link model, the two disjoint RNG stream seeds (pass
/// [`tcache_types::seeding::cache_channel_seed`] /
/// [`tcache_types::seeding::cache_delay_seed`] values — see the module
/// docs), the shared counters, and the pause flag.
#[derive(Debug)]
pub struct DeliveryTask {
    /// Link model the task applies.
    pub model: DeliveryModel,
    /// Seed of the loss RNG stream (the discrete-event channel's stream).
    pub loss_seed: u64,
    /// Seed of the latency RNG stream (disjoint from the loss stream).
    pub delay_seed: u64,
    /// Counters the task updates; observers snapshot them.
    pub counters: Arc<DeliveryCounters>,
    /// While set, the task holds deliveries (backlog stays in the pipe).
    pub paused: Arc<AtomicBool>,
    /// Extra delay (microseconds) added on top of every sampled latency —
    /// a fault plan's delay spike, adjustable while the task runs. Zero
    /// restores the configured latency model untouched.
    pub extra_delay_micros: Arc<AtomicU64>,
    /// Maximum messages drained and applied per wakeup before the task
    /// cooperatively yields back to the reactor so sibling caches get a
    /// turn. Clamped to at least 1; [`DEFAULT_BATCH_BUDGET`] is the tuned
    /// default.
    pub batch_budget: usize,
}

/// Default per-poll apply budget of a delivery task: large enough that a
/// backlog is drained in a handful of wakeups, small enough that one hot
/// cache cannot monopolise the shared reactor thread.
pub const DEFAULT_BATCH_BUDGET: usize = 64;

/// Runs one cache's modeled delivery loop until its pipe disconnects:
/// drain a batch → per message (hold while `task.paused`) → draw the drop
/// decision → sleep the sampled delay on `timer` → `apply`. One wakeup
/// services up to [`DeliveryTask::batch_budget`] messages; if backlog
/// remains after a full batch the task cooperatively yields so sibling
/// caches on the shared reactor get a turn. Spawn the returned future onto
/// a [`Reactor`](crate::reactor::Reactor) — one task per cache, every task
/// multiplexed on the same reactor thread.
///
/// Accounting counts every drained message individually: `offered` /
/// `dropped` / `delivered` advance per message inside the batch, so the
/// live plane's quiesce condition (`processed() == pipe received`) holds
/// regardless of how the backlog was chunked into batches.
pub async fn run_delivery<T, F>(rx: PipeReceiver<T>, timer: TimerHandle, task: DeliveryTask, mut apply: F)
where
    F: FnMut(T),
{
    let DeliveryTask {
        model,
        loss_seed,
        delay_seed,
        counters,
        paused,
        extra_delay_micros,
        batch_budget,
    } = task;
    let mut loss = LossState::new(model.loss);
    let mut loss_rng = StdRng::seed_from_u64(loss_seed);
    let mut delay_rng = StdRng::seed_from_u64(delay_seed);
    // Only the constant-zero model skips sampling entirely: it draws no
    // randomness and sleeps nothing. Gating on the mean would also swallow
    // random models whose integer-microsecond mean rounds to zero (e.g.
    // Uniform { 0, 1 µs }) even though they are configured to delay.
    let zero_delay = model.latency == LatencyModel::Constant(SimDuration::ZERO);
    let budget = batch_budget.max(1);
    let mut batch: Vec<T> = Vec::with_capacity(budget.min(1024));
    loop {
        let drain = rx.recv_batch_async(&mut batch, budget).await;
        if drain.drained == 0 {
            return; // Every sender dropped and the pipe is drained.
        }
        for message in batch.drain(..) {
            // A paused cache applies nothing: drained messages are held
            // here (the rest of the backlog stays in the pipe, where the
            // overflow policy governs it) until resume. Polling keeps the
            // task simple — pause is a modeling facility and a 1 ms cycle
            // bounds resume latency.
            while paused.load(Ordering::Acquire) {
                timer.sleep(std::time::Duration::from_millis(1)).await;
            }
            counters.offered.fetch_add(1, Ordering::Release);
            if loss.should_drop(&mut loss_rng) {
                counters.dropped.fetch_add(1, Ordering::Release);
                continue;
            }
            // The spike surcharge is added *after* sampling, so toggling it
            // never perturbs the delay RNG stream (and the zero-delay fast
            // path draws nothing, exactly as without a spike).
            let extra = SimDuration::from_micros(extra_delay_micros.load(Ordering::Acquire));
            if !zero_delay || extra > SimDuration::ZERO {
                let delay = if zero_delay {
                    extra
                } else {
                    model.latency.sample(&mut delay_rng) + extra
                };
                timer.sleep_sim(delay).await;
                counters
                    .delay_micros
                    .fetch_add(delay.as_micros(), Ordering::Release);
            }
            apply(message);
            counters.delivered.fetch_add(1, Ordering::Release);
        }
        if drain.backlog > 0 {
            // Budget exhausted with backlog remaining (as of the drain,
            // which read the queue length under the lock it already held):
            // hand the reactor back to sibling tasks before draining the
            // next batch.
            rx.note_budget_yield();
            crate::reactor::yield_now().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::{bounded_pipe, OverflowPolicy, UNBOUNDED};
    use crate::reactor::Reactor;
    use std::sync::Mutex;
    use tcache_types::{cache_channel_seed, CacheId};

    fn run_messages(model: DeliveryModel, seed: u64, count: u64) -> (Vec<u64>, DeliveryStatsSnapshot) {
        let mut reactor = Reactor::new();
        let timer = reactor.timer();
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        let counters = Arc::new(DeliveryCounters::default());
        let applied = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&applied);
        reactor.spawn(run_delivery(
            rx,
            timer,
            DeliveryTask {
                model,
                loss_seed: seed,
                delay_seed: seed ^ 0xdead_beef,
                counters: Arc::clone(&counters),
                paused: Arc::new(AtomicBool::new(false)),
                extra_delay_micros: Arc::new(AtomicU64::new(0)),
                batch_budget: DEFAULT_BATCH_BUDGET,
            },
            move |v| sink.lock().unwrap().push(v),
        ));
        for v in 0..count {
            tx.send(v).unwrap();
        }
        drop(tx);
        reactor.run();
        let out = applied.lock().unwrap().clone();
        (out, counters.snapshot())
    }

    #[test]
    fn reliable_model_applies_everything_in_order() {
        let (applied, stats) = run_messages(DeliveryModel::reliable(), 1, 100);
        assert_eq!(applied, (0..100).collect::<Vec<_>>());
        assert_eq!(stats.offered, 100);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.delivered, 100);
        assert_eq!(stats.processed(), 100);
        assert_eq!(stats.delay_micros, 0);
        assert_eq!(stats.loss_ratio(), 0.0);
        assert_eq!(stats.mean_delay_micros(), 0.0);
    }

    #[test]
    fn drop_pattern_matches_the_seeded_loss_oracle_exactly() {
        // The loss RNG stream is the discrete-event channel's: replaying
        // LossState over the same seed predicts exactly which messages the
        // live task drops.
        let seed = cache_channel_seed(42, CacheId(1));
        let model = DeliveryModel::uniform(0.4, SimDuration::ZERO);
        let (applied, stats) = run_messages(model, seed, 2_000);

        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let mut oracle = LossState::new(LossModel::uniform(0.4));
        let survivors: Vec<u64> = (0..2_000)
            .filter(|_| !oracle.should_drop(&mut oracle_rng))
            .collect();
        assert_eq!(applied, survivors);
        assert_eq!(stats.dropped, 2_000 - survivors.len() as u64);
        assert!((stats.loss_ratio() - 0.4).abs() < 0.05);
    }

    #[test]
    fn sampled_delays_are_slept_and_accounted() {
        let model = DeliveryModel::uniform(0.0, SimDuration::from_millis(2));
        let start = std::time::Instant::now();
        let (applied, stats) = run_messages(model, 3, 5);
        assert_eq!(applied.len(), 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.delay_micros, 5 * 2_000);
        assert!((stats.mean_delay_micros() - 2_000.0).abs() < 1e-9);
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
    }

    #[test]
    fn paused_task_holds_delivery_until_resumed() {
        let mut reactor = Reactor::new();
        let timer = reactor.timer();
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        let counters = Arc::new(DeliveryCounters::default());
        let paused = Arc::new(AtomicBool::new(true));
        let applied = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&applied);
        reactor.spawn(run_delivery(
            rx,
            timer,
            DeliveryTask {
                model: DeliveryModel::reliable(),
                loss_seed: 1,
                delay_seed: 2,
                counters: Arc::clone(&counters),
                paused: Arc::clone(&paused),
                extra_delay_micros: Arc::new(AtomicU64::new(0)),
                batch_budget: DEFAULT_BATCH_BUDGET,
            },
            move |_| {
                sink.fetch_add(1, Ordering::Relaxed);
            },
        ));
        tx.send(7).unwrap();
        drop(tx);
        let flag = Arc::clone(&paused);
        let unpause = std::thread::spawn(move || {
            // Test-only cross-thread coordination on wall time.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(std::time::Duration::from_millis(20));
            flag.store(false, Ordering::Release);
        });
        reactor.run();
        unpause.join().unwrap();
        assert_eq!(applied.load(Ordering::Relaxed), 1);
        assert_eq!(counters.snapshot().delivered, 1);
    }

    #[test]
    fn merged_snapshots_accumulate() {
        let (_, a) = run_messages(DeliveryModel::reliable(), 1, 10);
        let mut total = DeliveryStatsSnapshot::default();
        total.merge(a);
        total.merge(a);
        assert_eq!(total.offered, 20);
        assert_eq!(total.delivered, 20);
    }
}
