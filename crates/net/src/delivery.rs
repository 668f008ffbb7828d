//! Modeled delivery: the channel's loss and latency applied at the
//! *receiving* end of each cache's link.
//!
//! The discrete-event plane models the unreliable invalidation link with
//! [`crate::channel`], driven by a virtual clock. The live plane runs the
//! same models in wall-clock time instead: the publisher offers every
//! committed batch to the cache's [`Link`] unmodified, and the link — not
//! the publisher — draws each message's drop decision, waits out its
//! sampled delay and applies what survives, at the receiving end, where a
//! real deployment's network and kernel queues live.
//!
//! A link serves its messages one of two ways, and [`Link::offer`] is the
//! one place that chooses. A message that has something to wait for — a
//! modeled delay, a delay spike, a paused cache, or simply earlier messages
//! still queued or in the task's hands — goes through the cache's bounded
//! [`pipe`](crate::pipe) to the cache's reactor task, which sleeps the
//! delay on the reactor's timer ([`TimerHandle::sleep_sim`]). A batch
//! with nothing to wait for is served on the offering thread itself, inside
//! [`PipeSender::hand_off`]: a link modeled as zero-delay then delivers
//! with zero lag rather than with a thread hand-over's. Both run the same
//! link step over the same state, so which thread served a message shows
//! in [`PipeStatsSnapshot::direct`] and nowhere else.
//!
//! The two differ only in granularity. The task sleeps each message's own
//! modeled delay, so it counts and applies message by message (a
//! one-element slice per `apply`). A handed-off batch has no delay to
//! honour: its drop decisions are drawn in pipe order, `offered` and
//! `dropped` are counted once for the batch, its survivors are applied in
//! one call, and `delivered` is counted after that call — the pipe has
//! already counted the batch `received`, so `processed()` catches up with
//! `received` only once the batch is applied, as it does per message on
//! the task.
//!
//! Reproducibility follows the repo-wide convention: the loss RNG is
//! seeded from `(run_seed, CacheId)` with
//! [`tcache_types::seeding::cache_channel_seed`] — the same stream the
//! discrete-event channel uses — and the latency RNG gets its own disjoint
//! stream ([`tcache_types::seeding::cache_delay_seed`]), so delay sampling
//! never perturbs the drop pattern. The loss stream lives in the link, not
//! in the task: the k-th message offered to a cache consumes the k-th draw
//! whichever thread serves it. With a latency model that draws no
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
use crate::pipe::{BatchOutcome, PipeReceiver, PipeSender, PipeStatsSnapshot};
use crate::reactor::TimerHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tcache_types::SimDuration;

/// The unreliable-link model one live link applies: every message offered
/// to it is independently dropped per `loss`, and survivors are applied
/// only after a delay sampled from `latency`.
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
    /// Messages that reached the link step: popped off the pipe by the
    /// task, or handed off to the offering thread.
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

impl DeliveryTask {
    /// A task applying `model` with the given loss / delay stream seeds,
    /// fresh counters, unpaused, no delay spike and the
    /// [`DEFAULT_BATCH_BUDGET`].
    pub fn new(model: DeliveryModel, loss_seed: u64, delay_seed: u64) -> Self {
        DeliveryTask {
            model,
            loss_seed,
            delay_seed,
            counters: Arc::new(DeliveryCounters::default()),
            paused: Arc::new(AtomicBool::new(false)),
            extra_delay_micros: Arc::new(AtomicU64::new(0)),
            batch_budget: DEFAULT_BATCH_BUDGET,
        }
    }
}

/// Runs one cache's modeled delivery loop until its pipe disconnects:
/// drain a batch → per message (hold while `task.paused`) → draw the drop
/// decision → sleep the sampled delay on `timer` → `apply`. One wakeup
/// services up to [`DeliveryTask::batch_budget`] messages; if backlog
/// remains after a full batch the task cooperatively yields so sibling
/// caches on the shared reactor get a turn. Spawn the returned future onto
/// a [`Reactor`](crate::reactor::Reactor) — one task per cache, every task
/// multiplexed on the same reactor thread.
///
/// This is the delivery task of a bare pipe: every message reaches it
/// through the queue. A [`Link`] runs the same loop ([`Link::deliver`]) and
/// can also serve a batch on the offering thread.
///
/// Accounting counts every drained message individually: `offered` /
/// `dropped` / `delivered` advance per message inside the batch, so the
/// live plane's quiesce condition (`processed() == pipe received`) holds
/// regardless of how the backlog was chunked into batches.
pub async fn run_delivery<T, F>(rx: PipeReceiver<T>, timer: TimerHandle, task: DeliveryTask, apply: F)
where
    F: FnMut(T),
{
    deliver(rx, timer, Arc::new(LinkStep::new(task)), apply).await;
}

/// The loss process of one link: model state plus the seeded RNG stream,
/// advanced once per message in the order the pipe carried them, and the
/// survivors of the batch being served on an offering thread.
#[derive(Debug)]
struct LossDraw<T> {
    state: LossState,
    rng: StdRng,
    /// Scratch for a handed-off batch that lost messages (a batch that
    /// lost none is applied as offered); empty between batches, kept to
    /// reuse its capacity.
    survivors: Vec<T>,
}

/// The state one link's messages pass through, shared by the delivery task
/// and — for a [`Link`] — the threads it hands batches off to.
#[derive(Debug)]
struct LinkStep<T> {
    task: DeliveryTask,
    /// Never contended: a hand-off takes it under the pipe lock, which it
    /// only gets while the task is waiting on its waker; the task takes it
    /// only while holding a drained batch, when every hand-off is refused.
    loss: Mutex<LossDraw<T>>,
    /// Constant-zero latency: the link samples nothing and sleeps nothing.
    /// Gating on the mean would also swallow random models whose
    /// integer-microsecond mean rounds to zero (e.g. Uniform { 0, 1 µs })
    /// even though they are configured to delay.
    zero_delay: bool,
}

impl<T> LinkStep<T> {
    fn new(task: DeliveryTask) -> Self {
        LinkStep {
            loss: Mutex::new(LossDraw {
                state: LossState::new(task.model.loss),
                rng: StdRng::seed_from_u64(task.loss_seed),
                survivors: Vec::new(),
            }),
            zero_delay: task.model.latency == LatencyModel::Constant(SimDuration::ZERO),
            task,
        }
    }

    /// Whether a message offered now has nothing to wait for on this link:
    /// no modeled delay, no delay spike, not paused.
    fn is_instant(&self) -> bool {
        self.zero_delay
            && self.task.extra_delay_micros.load(Ordering::Acquire) == 0
            && !self.task.paused.load(Ordering::Acquire)
    }
}

impl<T: Clone> LinkStep<T> {
    /// The whole link step of an instant link, run on the calling thread
    /// for a batch the pipe handed off: the batch's drop decisions drawn in
    /// pipe order, `offered` and `dropped` counted once, the survivors
    /// applied in one call, then `delivered` counted — so `processed()`
    /// reaches the pipe's `received` only once the batch is applied.
    fn serve_now(&self, batch: &[T], apply: &Apply<T>) {
        let counters = &self.task.counters;
        let mut guard = self.loss.lock().expect("link loss state lock");
        let LossDraw {
            state,
            rng,
            survivors,
        } = &mut *guard;
        let mut dropped = 0u64;
        for (i, message) in batch.iter().enumerate() {
            if state.should_drop(rng) {
                if dropped == 0 {
                    survivors.extend_from_slice(&batch[..i]);
                }
                dropped += 1;
            } else if dropped > 0 {
                survivors.push(message.clone());
            }
        }
        counters
            .offered
            .fetch_add(batch.len() as u64, Ordering::Release);
        if dropped > 0 {
            counters.dropped.fetch_add(dropped, Ordering::Release);
        }
        let delivered = if dropped == 0 { batch } else { &survivors[..] };
        if !delivered.is_empty() {
            apply(delivered);
            counters
                .delivered
                .fetch_add(delivered.len() as u64, Ordering::Release);
        }
        survivors.clear();
    }
}

/// The delivery loop behind [`run_delivery`] and [`Link::deliver`].
async fn deliver<T, F>(
    rx: PipeReceiver<T>,
    timer: TimerHandle,
    step: Arc<LinkStep<T>>,
    mut apply: F,
) where
    F: FnMut(T),
{
    let DeliveryTask {
        model,
        delay_seed,
        counters,
        paused,
        extra_delay_micros,
        batch_budget,
        ..
    } = &step.task;
    let mut delay_rng = StdRng::seed_from_u64(*delay_seed);
    let budget = (*batch_budget).max(1);
    let mut batch: Vec<T> = Vec::with_capacity(budget.min(1024));
    let mut drops: Vec<bool> = Vec::with_capacity(budget.min(1024));
    loop {
        let drain = rx.recv_batch_async(&mut batch, budget).await;
        if drain.drained == 0 {
            return; // Every sender dropped and the pipe is drained.
        }
        // The whole batch's drop decisions in one hold, in pipe order.
        {
            let mut guard = step.loss.lock().expect("link loss state lock");
            let LossDraw { state, rng, .. } = &mut *guard;
            drops.extend(batch.iter().map(|_| state.should_drop(rng)));
        }
        for (message, dropped) in batch.drain(..).zip(drops.drain(..)) {
            // A paused cache applies nothing: drained messages are held
            // here (the rest of the backlog stays in the pipe, where the
            // overflow policy governs it) until resume. Polling keeps the
            // task simple — pause is a modeling facility and a 1 ms cycle
            // bounds resume latency.
            while paused.load(Ordering::Acquire) {
                timer.sleep(std::time::Duration::from_millis(1)).await;
            }
            counters.offered.fetch_add(1, Ordering::Release);
            if dropped {
                counters.dropped.fetch_add(1, Ordering::Release);
                continue;
            }
            // The spike surcharge is added *after* sampling, so toggling it
            // never perturbs the delay RNG stream (and the zero-delay fast
            // path draws nothing, exactly as without a spike).
            let extra = SimDuration::from_micros(extra_delay_micros.load(Ordering::Acquire));
            if !step.zero_delay || extra > SimDuration::ZERO {
                let delay = if step.zero_delay {
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

/// One cache's modeled link: the sending half of its pipe, the link step
/// and the `apply` at the far end — everything needed to serve a message
/// on whichever thread [`Link::offer`] picks.
pub struct Link<T> {
    sender: PipeSender<T>,
    step: Arc<LinkStep<T>>,
    apply: Arc<Apply<T>>,
}

/// What a [`Link`] does with the messages that survive its loss model.
type Apply<T> = dyn Fn(&[T]) + Send + Sync;

impl<T> std::fmt::Debug for Link<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("sender", &self.sender)
            .field("model", &self.step.task.model)
            .finish_non_exhaustive()
    }
}

impl<T: Clone + Send + 'static> Link<T> {
    /// A link sending through `sender`, modeled per `task` (see
    /// [`DeliveryTask`]; the link owns the loss stream the task would),
    /// applying what survives with `apply` — from the delivery task (one
    /// message per call) or from an offering thread (a handed-off batch's
    /// survivors in one call), hence `Fn + Sync`.
    pub fn new(
        sender: PipeSender<T>,
        task: DeliveryTask,
        apply: impl Fn(&[T]) + Send + Sync + 'static,
    ) -> Self {
        Link {
            sender,
            step: Arc::new(LinkStep::new(task)),
            apply: Arc::new(apply),
        }
    }

    /// The link's delivery task, to spawn on the reactor `timer` belongs
    /// to: [`run_delivery`]'s loop over this link's state, applying each
    /// message after its own modeled delay as a one-element slice. `rx`
    /// must be the receiving half of the pipe the link sends through. The
    /// task runs until every sender of that pipe — this link's included —
    /// is gone.
    pub fn deliver(&self, rx: PipeReceiver<T>, timer: TimerHandle) -> impl Future<Output = ()> + Send + 'static {
        let apply = Arc::clone(&self.apply);
        deliver(rx, timer, Arc::clone(&self.step), move |message| {
            apply(std::slice::from_ref(&message));
        })
    }

    /// Offers a committed batch to the link — the live plane's one entry
    /// point for it.
    ///
    /// The batch is served on the calling thread (seeded loss draws in
    /// pipe order, counters once per batch, the survivors applied in one
    /// `apply` call) when the link has nothing to wait for — constant zero
    /// latency, no delay spike, not paused — *and* the pipe accepts the
    /// hand-off ([`PipeSender::hand_off`]: receiver alive, queue empty,
    /// delivery task waiting on its waker). Only the second condition
    /// carries correctness — it is what keeps the link FIFO; the first
    /// keeps messages that must wait on the reactor's timer. Otherwise the
    /// batch is enqueued for the delivery task: with
    /// [`PipeSender::send_batch`] if the caller may `wait` for a slot on a
    /// full `Block` pipe, with [`PipeSender::try_send_batch`] if it may
    /// not. A served batch reports as wholly `enqueued`.
    ///
    /// No clock is read and no reactor state consulted: the rule is the
    /// same for the first commit after a lull and the millionth in a row.
    pub fn offer(&self, batch: &[T], wait: bool) -> BatchOutcome {
        // The pipe counts the batch it is handed and gives it to `serve`;
        // the link step serves the slice it was cut from instead, so a
        // batch that loses nothing is applied without a copy.
        let messages = batch.iter().cloned();
        if self.step.is_instant()
            && self
                .sender
                .hand_off(messages.clone(), |_| {
                    self.step.serve_now(batch, &*self.apply)
                })
                .is_ok()
        {
            return BatchOutcome {
                enqueued: batch.len() as u64,
                ..BatchOutcome::default()
            };
        }
        if wait {
            self.sender.send_batch(messages)
        } else {
            self.sender.try_send_batch(messages)
        }
    }

    /// Holds (or releases) deliveries: a paused link is never handed off
    /// to, and its task applies nothing until resumed.
    pub fn set_paused(&self, paused: bool) {
        self.step.task.paused.store(paused, Ordering::Release);
    }

    /// Whether the link is paused.
    pub fn is_paused(&self) -> bool {
        self.step.task.paused.load(Ordering::Acquire)
    }

    /// Sets the delay surcharge added on top of every sampled latency (a
    /// fault plan's delay spike; zero clears it).
    pub fn set_extra_delay(&self, extra: SimDuration) {
        self.step
            .task
            .extra_delay_micros
            .store(extra.as_micros(), Ordering::Release);
    }

    /// Whether nothing is in flight: the pipe is empty and every message it
    /// handed out (or handed off) has been dropped or applied. A message
    /// whose modeled delay is still being slept counts as in flight.
    pub fn is_idle(&self) -> bool {
        // `processed` is read before `received`: both only grow and
        // processed <= received always (a message is counted received
        // before it is served), so equality here means they were equal at
        // the second read. The other order proves nothing.
        self.sender.is_empty()
            && self.step.task.counters.processed() == self.sender.stats().received
    }

    /// The pipe's counters.
    pub fn pipe_stats(&self) -> PipeStatsSnapshot {
        self.sender.stats()
    }

    /// The link step's counters (offered / dropped / delivered / delay).
    pub fn delivery_stats(&self) -> DeliveryStatsSnapshot {
        self.step.task.counters.snapshot()
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
        let task = DeliveryTask::new(model, seed, seed ^ 0xdead_beef);
        let counters = Arc::clone(&task.counters);
        let applied = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&applied);
        reactor.spawn(run_delivery(rx, timer, task, move |v| {
            sink.lock().unwrap().push(v)
        }));
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
        assert!((stats.dropped as f64 / stats.offered as f64 - 0.4).abs() < 0.05);
    }

    #[test]
    fn sampled_delays_are_slept_and_accounted() {
        let model = DeliveryModel::uniform(0.0, SimDuration::from_millis(2));
        let start = std::time::Instant::now();
        let (applied, stats) = run_messages(model, 3, 5);
        assert_eq!(applied.len(), 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.delay_micros, 5 * 2_000);
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
    }

    #[test]
    fn paused_task_holds_delivery_until_resumed() {
        let mut reactor = Reactor::new();
        let timer = reactor.timer();
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        let task = DeliveryTask::new(DeliveryModel::reliable(), 1, 2);
        let (counters, paused) = (Arc::clone(&task.counters), Arc::clone(&task.paused));
        paused.store(true, Ordering::Release);
        let applied = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&applied);
        reactor.spawn(run_delivery(rx, timer, task, move |_| {
            sink.fetch_add(1, Ordering::Relaxed);
        }));
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
