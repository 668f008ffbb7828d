//! The link model: one cache's unreliable invalidation link, as one
//! [`LinkStep`] that both execution planes drive.
//!
//! The paper's links lose some invalidations and delay the rest, each one
//! independently (§II). A [`LinkStep`] is exactly that, driven by an
//! explicit clock. [`LinkStep::admit`] draws each offered message's drop
//! decision, in offer order, and stamps each survivor with its deadline,
//! `now + latency sample + delay spike`. [`LinkStep::deliver_due`] applies
//! what is due by `now` in deadline order, ties in admission order. So
//! messages overlap in flight, and under a latency model that is not
//! constant a later message can overtake an earlier one. A step may also be
//! [bounded](LinkStep::bounded): its in-flight capacity and
//! [`OverflowPolicy`] shed (`DropNewest`, `DropOldest`, both by send order)
//! or queue behind the backlog (`Block`, a c-server queue with c =
//! capacity).
//!
//! The discrete-event plane (`tcache-sim`) keeps one step per cache and
//! drives it on its virtual clock. The live plane drives the same step in
//! wall-clock time at the receiving end, where a real deployment's network
//! and kernel queues live: the publisher offers every committed batch to
//! the cache's [`Link`] unmodified. A message that has something to wait
//! for (a modeled delay, a delay spike, a paused cache, or earlier messages
//! still queued or in flight) goes through the cache's
//! [`pipe`](crate::pipe) to the cache's reactor task. The task admits each
//! batch it drains at the wall-clock instant it drains it. It then waits
//! for whichever comes first, the next batch or the earliest deadline on
//! the reactor's timer ([`TimerHandle::sleep_sim`]), and applies what is
//! due. Its step is unbounded: on the live plane the pipe bounds the link
//! and pushes back on the publisher.
//!
//! A batch with nothing to wait for is served on the offering thread
//! itself, inside [`PipeSender::hand_off`]: its drop decisions drawn in
//! pipe order, `offered` and `dropped` counted once for the batch, its
//! survivors applied in one call, and `delivered` counted after that call.
//! A zero-delay link then delivers with zero lag rather than with a thread
//! hand-over's. The pipe has already counted the batch `received`, so
//! `processed()` catches up with `received` only once the batch is applied,
//! as it does per message on the task. Which thread served a message shows
//! in [`PipeStatsSnapshot::direct`] and nowhere else.
//!
//! Reproducibility follows the repo-wide convention. The loss RNG is seeded
//! from `(run_seed, CacheId)` with
//! [`tcache_types::seeding::cache_channel_seed`], and the latency RNG gets
//! its own disjoint stream ([`tcache_types::seeding::cache_delay_seed`]),
//! so delay sampling never perturbs the drop pattern. The loss stream lives
//! in the step: the k-th message offered to a cache consumes the k-th draw
//! whichever plane, and whichever thread, serves it. With a latency model
//! that draws no randomness (the constant model), the messages a cache
//! loses are bit-identical across both planes and invariant to how many
//! caches are deployed.

use crate::fault::{LossModel, LossState};
use crate::latency::LatencyModel;
use crate::pipe::{BatchOutcome, OverflowPolicy, PipeReceiver, PipeSender, PipeStatsSnapshot};
use crate::reactor::TimerHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Poll;
use std::time::{Duration, Instant};
use tcache_types::{SimDuration, SimTime};

/// The unreliable-link model one link applies: every message offered to
/// it is independently dropped per `loss`, and survivors are applied only
/// after a delay sampled from `latency`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeliveryModel {
    /// Drop process of the link.
    pub loss: LossModel,
    /// Delay process of the link: each surviving message's own latency,
    /// independent of the messages in flight beside it.
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

/// Monotone counters of one link. Shared between whoever drives the link's
/// step and the observers sampling [`DeliveryCounters::snapshot`].
#[derive(Debug, Default)]
pub struct DeliveryCounters {
    offered: AtomicU64,
    dropped: AtomicU64,
    delivered: AtomicU64,
    delay_micros: AtomicU64,
    overflowed: AtomicU64,
    stalled: AtomicU64,
}

/// A point-in-time copy of [`DeliveryCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryStatsSnapshot {
    /// Messages offered to the link step: popped off the pipe by the task,
    /// handed off to the offering thread, or admitted by the discrete
    /// plane.
    pub offered: u64,
    /// Messages the loss model dropped before application.
    pub dropped: u64,
    /// Messages whose deadline came: applied to the cache, or discarded
    /// because the cache was severed by then.
    pub delivered: u64,
    /// Total modeled delay (latency samples plus spikes) stamped on the
    /// messages that survived the loss model, in microseconds.
    pub delay_micros: u64,
    /// Messages a bounded step lost at capacity: rejected under
    /// `DropNewest`, or evicted in send order under `DropOldest`. Always 0
    /// on the live plane, whose step is unbounded.
    pub overflowed: u64,
    /// Messages a bounded `Block` step admitted late because every slot
    /// was busy (publish-side stalls). Always 0 on the live plane.
    pub stalled: u64,
}

impl DeliveryStatsSnapshot {
    /// Messages the link has finished with (dropped, lost to overflow or
    /// delivered). Equal to [`DeliveryStatsSnapshot::offered`] once nothing
    /// is in flight — the quiesce condition of the live plane.
    pub fn processed(&self) -> u64 {
        self.dropped + self.overflowed + self.delivered
    }

    /// Accumulates another link's counters into this one. Sums saturate
    /// instead of wrapping so long sweeps cannot corrupt aggregates.
    pub fn merge(&mut self, other: DeliveryStatsSnapshot) {
        self.offered = self.offered.saturating_add(other.offered);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.delivered = self.delivered.saturating_add(other.delivered);
        self.delay_micros = self.delay_micros.saturating_add(other.delay_micros);
        self.overflowed = self.overflowed.saturating_add(other.overflowed);
        self.stalled = self.stalled.saturating_add(other.stalled);
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
            overflowed: self.overflowed.load(Ordering::Acquire),
            stalled: self.stalled.load(Ordering::Acquire),
        }
    }

    /// Messages finished with (dropped, lost to overflow or delivered),
    /// loaded directly.
    pub fn processed(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
            + self.overflowed.load(Ordering::Acquire)
            + self.delivered.load(Ordering::Acquire)
    }
}

/// Everything one link needs besides its pipe and timer: the link model,
/// the two disjoint RNG stream seeds (pass
/// [`tcache_types::seeding::cache_channel_seed`] /
/// [`tcache_types::seeding::cache_delay_seed`] values — see the module
/// docs), the shared counters, and the pause flag.
#[derive(Debug)]
pub struct DeliveryTask {
    /// Link model the task applies.
    pub model: DeliveryModel,
    /// Seed of the loss RNG stream.
    pub loss_seed: u64,
    /// Seed of the latency RNG stream (disjoint from the loss stream).
    pub delay_seed: u64,
    /// Counters the link updates; observers snapshot them.
    pub counters: Arc<DeliveryCounters>,
    /// While set, the task holds deliveries: the backlog stays in the pipe
    /// and nothing in flight is applied.
    pub paused: Arc<AtomicBool>,
    /// Extra delay (microseconds) added on top of every sampled latency —
    /// a fault plan's delay spike, adjustable while the task runs. It is
    /// stamped at admission, so messages already in flight keep their
    /// deadlines. Zero restores the configured latency model untouched.
    pub extra_delay_micros: Arc<AtomicU64>,
    /// Maximum messages drained, and maximum applied, per wakeup before
    /// the task cooperatively yields back to the reactor so sibling caches
    /// get a turn. Clamped to at least 1; [`DEFAULT_BATCH_BUDGET`] is the
    /// tuned default.
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

/// A message in flight on a [`LinkStep`].
#[derive(Debug)]
struct InFlight<T> {
    deadline: SimTime,
    /// Admission order: breaks deadline ties, and is the send order
    /// `DropOldest` evicts by.
    seq: u64,
    message: T,
}

impl<T> PartialEq for InFlight<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl<T> Eq for InFlight<T> {}
impl<T> PartialOrd for InFlight<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for InFlight<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// One cache's link model, driven with an explicit clock: the seeded loss
/// draw, deadline stamping, the in-flight heap and (when bounded) the
/// overflow policy. See the module docs for how each plane drives it.
#[derive(Debug)]
pub struct LinkStep<T> {
    latency: LatencyModel,
    /// Constant-zero latency: the step samples nothing. Gating on the mean
    /// would also swallow random models whose integer-microsecond mean
    /// rounds to zero (e.g. Uniform { 0, 1 µs }) even though they are
    /// configured to delay.
    zero_delay: bool,
    loss: LossState,
    loss_rng: StdRng,
    delay_rng: StdRng,
    counters: Arc<DeliveryCounters>,
    extra_delay_micros: Arc<AtomicU64>,
    in_flight: BinaryHeap<Reverse<InFlight<T>>>,
    next_seq: u64,
    /// In-flight messages admitted before the overflow policy engages.
    capacity: usize,
    policy: OverflowPolicy,
    /// `Block` bookkeeping: one entry per occupied slot, holding the time
    /// that slot frees (its occupant's deadline). A message finding every
    /// slot busy is admitted only when the earliest slot frees, so
    /// successive over-capacity sends queue up behind each other.
    block_slots: BinaryHeap<Reverse<SimTime>>,
    /// Scratch for a handed-off batch that lost messages (a batch that
    /// lost none is applied as offered); empty between batches, kept to
    /// reuse its capacity.
    survivors: Vec<T>,
}

impl<T> LinkStep<T> {
    /// An unbounded step applying `task`'s model from its two seeds,
    /// counting into `task.counters` and reading its delay spike.
    pub fn new(task: &DeliveryTask) -> Self {
        LinkStep {
            latency: task.model.latency,
            zero_delay: task.model.latency == LatencyModel::Constant(SimDuration::ZERO),
            loss: LossState::new(task.model.loss),
            loss_rng: StdRng::seed_from_u64(task.loss_seed),
            delay_rng: StdRng::seed_from_u64(task.delay_seed),
            counters: Arc::clone(&task.counters),
            extra_delay_micros: Arc::clone(&task.extra_delay_micros),
            in_flight: BinaryHeap::new(),
            next_seq: 0,
            capacity: usize::MAX,
            policy: OverflowPolicy::Block,
            block_slots: BinaryHeap::new(),
            survivors: Vec::new(),
        }
    }

    /// Holds at most `capacity` messages in flight (clamped to at least
    /// 1), applying `policy` to an admission that finds the step full.
    pub fn bounded(mut self, capacity: usize, policy: OverflowPolicy) -> Self {
        self.capacity = capacity.max(1);
        self.policy = policy;
        self
    }

    /// Sets the delay spike added to every later admission's sampled
    /// latency (zero clears it). The latency RNG stream is untouched: the
    /// same delays are sampled, merely shifted.
    pub fn set_extra_delay(&self, extra: SimDuration) {
        self.extra_delay_micros
            .store(extra.as_micros(), Ordering::Release);
    }

    /// Admits `messages` offered at `now`. Each draws its drop decision;
    /// each survivor is stamped `now + latency sample + spike`. Once the
    /// step holds `capacity` messages, the overflow policy decides:
    /// `DropNewest` rejects the incoming message, `DropOldest` evicts the
    /// oldest *sent* one still in flight, and `Block` admits it late — it
    /// takes a slot only once one frees, so a stall of the publisher is
    /// counted per message that actually had to wait.
    pub fn admit(&mut self, now: SimTime, messages: impl IntoIterator<Item = T>) {
        let counters = &*self.counters;
        let extra = SimDuration::from_micros(self.extra_delay_micros.load(Ordering::Acquire));
        for message in messages {
            counters.offered.fetch_add(1, Ordering::Release);
            if self.loss.should_drop(&mut self.loss_rng) {
                counters.dropped.fetch_add(1, Ordering::Release);
                continue;
            }
            // The spike is added *after* sampling, so toggling it never
            // perturbs the delay RNG stream.
            let delay = if self.zero_delay {
                extra
            } else {
                self.latency.sample(&mut self.delay_rng) + extra
            };
            if delay > SimDuration::ZERO {
                counters
                    .delay_micros
                    .fetch_add(delay.as_micros(), Ordering::Release);
            }
            let mut sent_at = now;
            if self.policy == OverflowPolicy::Block && self.capacity != usize::MAX {
                if self.block_slots.len() >= self.capacity {
                    let Reverse(free_at) = self.block_slots.pop().expect("slots at capacity");
                    if free_at > now {
                        counters.stalled.fetch_add(1, Ordering::Release);
                        sent_at = free_at;
                    }
                }
                self.block_slots.push(Reverse(sent_at + delay));
            } else if self.in_flight.len() >= self.capacity {
                counters.overflowed.fetch_add(1, Ordering::Release);
                if self.policy == OverflowPolicy::DropNewest {
                    continue;
                }
                // DropOldest: under non-monotone latency the oldest send
                // need not be the heap head. O(capacity), paid only on
                // overflow.
                let mut entries = std::mem::take(&mut self.in_flight).into_vec();
                if let Some(pos) = (0..entries.len()).min_by_key(|&i| entries[i].0.seq) {
                    entries.swap_remove(pos);
                }
                self.in_flight = entries.into();
            }
            self.in_flight.push(Reverse(InFlight {
                deadline: sent_at + delay,
                seq: self.next_seq,
                message,
            }));
            self.next_seq += 1;
        }
    }

    /// Applies up to `max` messages due by `now` in deadline order (ties in
    /// admission order), counting each `delivered` once `apply` returns.
    /// Returns how many it applied.
    pub fn deliver_due(&mut self, now: SimTime, max: usize, mut apply: impl FnMut(T)) -> usize {
        let mut applied = 0;
        while applied < max && self.next_deadline().is_some_and(|deadline| deadline <= now) {
            let Reverse(due) = self.in_flight.pop().expect("a deadline was peeked");
            apply(due.message);
            self.counters.delivered.fetch_add(1, Ordering::Release);
            applied += 1;
        }
        applied
    }

    /// The earliest deadline in flight, if anything is.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.in_flight.peek().map(|Reverse(head)| head.deadline)
    }

    /// Number of messages in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The step's counters.
    pub fn stats(&self) -> DeliveryStatsSnapshot {
        self.counters.snapshot()
    }
}

impl<T: Clone> LinkStep<T> {
    /// The whole step for a batch with nothing to wait for, run on the
    /// offering thread: drop decisions drawn in pipe order, `offered` and
    /// `dropped` counted once, the survivors applied in one call, then
    /// `delivered` counted.
    fn serve_now(&mut self, batch: &[T], apply: &Apply<T>) {
        let counters = &*self.counters;
        let mut dropped = 0u64;
        for (i, message) in batch.iter().enumerate() {
            if self.loss.should_drop(&mut self.loss_rng) {
                if dropped == 0 {
                    self.survivors.extend_from_slice(&batch[..i]);
                }
                dropped += 1;
            } else if dropped > 0 {
                self.survivors.push(message.clone());
            }
        }
        counters
            .offered
            .fetch_add(batch.len() as u64, Ordering::Release);
        if dropped > 0 {
            counters.dropped.fetch_add(dropped, Ordering::Release);
        }
        let delivered = if dropped == 0 { batch } else { &self.survivors[..] };
        if !delivered.is_empty() {
            apply(delivered);
            counters
                .delivered
                .fetch_add(delivered.len() as u64, Ordering::Release);
        }
        self.survivors.clear();
    }
}

/// What a live link's delivery task and its offering threads share: the
/// task's configuration and the step. A hand-off takes the step lock under
/// the pipe lock, and only once the task has finished everything it
/// drained, so the two never apply at once.
#[derive(Debug)]
struct Shared<T> {
    task: DeliveryTask,
    step: Mutex<LinkStep<T>>,
}

impl<T> Shared<T> {
    fn new(task: DeliveryTask) -> Self {
        Shared {
            step: Mutex::new(LinkStep::new(&task)),
            task,
        }
    }

    fn step(&self) -> MutexGuard<'_, LinkStep<T>> {
        self.step.lock().expect("link step lock")
    }

    /// Whether a message offered now has nothing to wait for on this link:
    /// no modeled delay, no delay spike, not paused.
    fn is_instant(&self) -> bool {
        self.task.model.latency == LatencyModel::Constant(SimDuration::ZERO)
            && self.task.extra_delay_micros.load(Ordering::Acquire) == 0
            && !self.task.paused.load(Ordering::Acquire)
    }
}

/// Runs one cache's delivery loop until its pipe disconnects and nothing
/// is left in flight: admit each drained batch at the wall-clock instant it
/// was drained, wait for the next batch or the earliest deadline, whichever
/// comes first, and apply what is due in deadline order (while
/// `task.paused`, hold what was drained and what is in flight). One wakeup drains and applies up to
/// [`DeliveryTask::batch_budget`] messages; with more left the task
/// cooperatively yields so sibling caches on the shared reactor get a turn.
/// Spawn the returned future onto a [`Reactor`](crate::reactor::Reactor) —
/// one task per cache, every task multiplexed on the same reactor thread.
///
/// This is the delivery task of a bare pipe: every message reaches it
/// through the queue. A [`Link`] runs the same loop ([`Link::deliver`]) and
/// can also serve a batch on the offering thread.
///
/// `delivered` advances per message, after its `apply`, so the live plane's
/// quiesce condition (`processed() == pipe received`) holds only once every
/// message drained has been dropped or applied.
pub async fn run_delivery<T, F>(rx: PipeReceiver<T>, timer: TimerHandle, task: DeliveryTask, apply: F)
where
    F: FnMut(T),
{
    deliver(rx, timer, Arc::new(Shared::new(task)), apply).await;
}

/// The delivery loop behind [`run_delivery`] and [`Link::deliver`].
async fn deliver<T, F>(rx: PipeReceiver<T>, timer: TimerHandle, shared: Arc<Shared<T>>, mut apply: F)
where
    F: FnMut(T),
{
    let DeliveryTask {
        paused,
        batch_budget,
        ..
    } = &shared.task;
    let budget = (*batch_budget).max(1);
    // The step's clock: wall time since the task started, in the
    // microseconds latency samples are drawn in.
    let epoch = Instant::now();
    let now = || SimTime::from_micros(epoch.elapsed().as_micros() as u64);
    let mut batch: Vec<T> = Vec::with_capacity(budget.min(1024));
    let mut open = true;
    loop {
        let next = shared.step().next_deadline();
        let until_due = next.map(|deadline| timer.sleep_sim(deadline.since(now())));
        let drain = match (open, until_due) {
            // Every sender is gone, the pipe is drained, nothing in flight.
            (false, None) => return,
            (true, None) => Some(rx.recv_batch_async(&mut batch, budget).await),
            (false, Some(sleep)) => {
                sleep.await;
                None
            }
            (true, Some(sleep)) => first_of(rx.recv_batch_async(&mut batch, budget), sleep).await,
        };
        if drain.is_some_and(|drain| drain.drained == 0) {
            open = false;
        }
        // A paused link admits and applies nothing: a batch just drained is
        // held here, the rest of the backlog stays in the pipe (where the
        // overflow policy governs it) and what is in flight stays there.
        // Polling keeps the task simple — pause is a modeling facility and
        // a 1 ms cycle bounds resume latency.
        while paused.load(Ordering::Acquire) {
            timer.sleep(Duration::from_millis(1)).await;
        }
        let backlog = drain.map_or(0, |drain| drain.backlog);
        let applied = {
            let mut step = shared.step();
            let now = now();
            step.admit(now, batch.drain(..));
            step.deliver_due(now, budget, &mut apply)
        };
        if backlog > 0 {
            // Budget exhausted with backlog remaining (as of the drain,
            // which read the queue length under the lock it already held).
            rx.note_budget_yield();
        }
        if backlog > 0 || applied == budget {
            crate::reactor::yield_now().await;
        }
    }
}

/// Polls `first`, then `second`: `Some` of `first`'s output, or `None` if
/// `second` completed first.
async fn first_of<A: Future>(first: A, second: impl Future<Output = ()>) -> Option<A::Output> {
    let (mut first, mut second) = (pin!(first), pin!(second));
    std::future::poll_fn(|cx| match first.as_mut().poll(cx) {
        Poll::Ready(out) => Poll::Ready(Some(out)),
        Poll::Pending => second.as_mut().poll(cx).map(|()| None),
    })
    .await
}

/// One cache's modeled link: the sending half of its pipe, the link step
/// and the `apply` at the far end — everything needed to serve a message
/// on whichever thread [`Link::offer`] picks.
pub struct Link<T> {
    sender: PipeSender<T>,
    shared: Arc<Shared<T>>,
    apply: Arc<Apply<T>>,
}

/// What a [`Link`] does with the messages that survive its loss model.
type Apply<T> = dyn Fn(&[T]) + Send + Sync;

impl<T> std::fmt::Debug for Link<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("sender", &self.sender)
            .field("model", &self.shared.task.model)
            .finish_non_exhaustive()
    }
}

impl<T: Clone + Send + 'static> Link<T> {
    /// A link sending through `sender`, modeled per `task` (see
    /// [`DeliveryTask`]), applying what survives with `apply` — from the
    /// delivery task (one message per call) or from an offering thread (a
    /// handed-off batch's survivors in one call), hence `Fn + Sync`.
    pub fn new(
        sender: PipeSender<T>,
        task: DeliveryTask,
        apply: impl Fn(&[T]) + Send + Sync + 'static,
    ) -> Self {
        Link {
            sender,
            shared: Arc::new(Shared::new(task)),
            apply: Arc::new(apply),
        }
    }

    /// The link's delivery task, to spawn on the reactor `timer` belongs
    /// to: [`run_delivery`]'s loop over this link's step, applying each
    /// message at its deadline as a one-element slice. `rx` must be the
    /// receiving half of the pipe the link sends through. The task runs
    /// until every sender of that pipe — this link's included — is gone.
    pub fn deliver(&self, rx: PipeReceiver<T>, timer: TimerHandle) -> impl Future<Output = ()> + Send + 'static {
        let apply = Arc::clone(&self.apply);
        deliver(rx, timer, Arc::clone(&self.shared), move |message| {
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
    /// delivery task waiting on its waker, and every message it took
    /// finished, none still in flight). Only the second condition carries
    /// correctness — it is what keeps the link's order and keeps the task
    /// and the offering thread from applying at once; the first keeps
    /// messages that must wait on the reactor's timer. Otherwise the batch
    /// is enqueued for the delivery task: with [`PipeSender::send_batch`]
    /// if the caller may `wait` for a slot on a full `Block` pipe, with
    /// [`PipeSender::try_send_batch`] if it may not. A served batch reports
    /// as wholly `enqueued`.
    ///
    /// No clock is read and no reactor state consulted: the rule is the
    /// same for the first commit after a lull and the millionth in a row.
    pub fn offer(&self, batch: &[T], wait: bool) -> BatchOutcome {
        // The pipe counts the batch it is handed and gives it to `serve`;
        // the link step serves the slice it was cut from instead, so a
        // batch that loses nothing is applied without a copy.
        let messages = batch.iter().cloned();
        let counters = &self.shared.task.counters;
        if self.shared.is_instant()
            && self
                .sender
                .hand_off(
                    messages.clone(),
                    |received| counters.processed() == received,
                    |_| self.shared.step().serve_now(batch, &*self.apply),
                )
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
        self.shared.task.paused.store(paused, Ordering::Release);
    }

    /// Whether the link is paused.
    pub fn is_paused(&self) -> bool {
        self.shared.task.paused.load(Ordering::Acquire)
    }

    /// Sets the delay surcharge added on top of every later admission's
    /// sampled latency (a fault plan's delay spike; zero clears it).
    pub fn set_extra_delay(&self, extra: SimDuration) {
        self.shared
            .task
            .extra_delay_micros
            .store(extra.as_micros(), Ordering::Release);
    }

    /// Whether nothing is in flight: the pipe is empty and every message it
    /// handed out (or handed off) has been dropped or applied. A message
    /// waiting out its modeled delay counts as in flight.
    pub fn is_idle(&self) -> bool {
        // `processed` is read before `received`: both only grow and
        // processed <= received always (a message is counted received
        // before it is served), so equality here means they were equal at
        // the second read. The other order proves nothing.
        self.sender.is_empty()
            && self.shared.task.counters.processed() == self.sender.stats().received
    }

    /// The pipe's counters.
    pub fn pipe_stats(&self) -> PipeStatsSnapshot {
        self.sender.stats()
    }

    /// The link step's counters (offered / dropped / delivered / delay).
    pub fn delivery_stats(&self) -> DeliveryStatsSnapshot {
        self.shared.task.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::{bounded_pipe, UNBOUNDED};
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

    /// A live link over an unbounded pipe, its task on its own reactor
    /// thread, recording each message with the instant it was applied.
    struct Live {
        link: Link<u64>,
        applied: Arc<Mutex<Vec<(u64, Instant)>>>,
        handle: crate::reactor::ReactorHandle,
        thread: std::thread::JoinHandle<()>,
    }

    impl Live {
        fn start(model: DeliveryModel) -> Self {
            let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
            let applied = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&applied);
            let link = Link::new(tx, DeliveryTask::new(model, 5, 6), move |batch: &[u64]| {
                let at = Instant::now();
                sink.lock().unwrap().extend(batch.iter().map(|&m| (m, at)));
            });
            let mut reactor = Reactor::new();
            reactor.spawn(link.deliver(rx, reactor.timer()));
            let handle = reactor.handle();
            let thread = std::thread::spawn(move || reactor.run());
            Live {
                link,
                applied,
                handle,
                thread,
            }
        }

        /// Waits (under a generous deadline) until the link is idle, stops
        /// the reactor and returns what was applied, in order.
        fn finish(self) -> Vec<(u64, Instant)> {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !self.link.is_idle() {
                assert!(Instant::now() < deadline, "the link never settled");
                std::thread::yield_now();
            }
            self.handle.shutdown();
            self.thread.join().unwrap();
            let applied = self.applied.lock().unwrap().clone();
            applied
        }
    }

    /// The order `model`'s step applies `count` messages admitted at one
    /// instant, replayed in virtual time — the discrete plane's order.
    fn replayed_order(model: DeliveryModel, count: u64) -> Vec<u64> {
        let mut step = LinkStep::new(&DeliveryTask::new(model, 5, 6));
        step.admit(SimTime::ZERO, 0..count);
        let mut order = Vec::new();
        step.deliver_due(SimTime::from_secs(1_000_000), usize::MAX, |m| order.push(m));
        order
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
        // Replaying LossState over the link's loss seed predicts exactly
        // which messages the live task drops.
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
        // Twenty messages on a 10 ms link are in flight together: the task
        // waits the delay out once (~10 ms), not once per message (200 ms).
        let model = DeliveryModel::uniform(0.0, SimDuration::from_millis(10));
        let start = Instant::now();
        let (applied, stats) = run_messages(model, 3, 20);
        let elapsed = start.elapsed();
        assert_eq!(applied, (0..20).collect::<Vec<_>>());
        assert_eq!(stats.delivered, 20);
        assert_eq!(stats.delay_micros, 20 * 10_000);
        assert!(elapsed >= Duration::from_millis(10), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(150), "{elapsed:?}: a service time");
    }

    #[test]
    fn a_constant_delay_is_a_latency_not_a_service_time() {
        // Twenty messages offered back to back on a 50 ms link all land
        // within 500 ms (a service time would take a second), and none
        // lands before its 50 ms are up.
        let delay = Duration::from_millis(50);
        let live = Live::start(DeliveryModel::uniform(0.0, SimDuration::from_millis(50)));
        let mut offered_at = Vec::new();
        let started = Instant::now();
        for m in 0..20u64 {
            offered_at.push(Instant::now());
            assert_eq!(live.link.offer(&[m], true).enqueued, 1);
        }
        let applied = live.finish();
        let order: Vec<u64> = applied.iter().map(|&(m, _)| m).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
        let last = applied.iter().map(|&(_, at)| at).max().unwrap();
        assert!(last - started < Duration::from_millis(500), "{:?}", last - started);
        for &(m, at) in &applied {
            assert!(at - offered_at[m as usize] >= delay, "message {m} landed early");
        }
    }

    #[test]
    fn uniform_latency_reorders_as_the_step_replays_it() {
        // One batch offered at once is admitted at one instant, so the live
        // task applies it in exactly the order the same step computes in
        // virtual time — not in offer order.
        let model = DeliveryModel {
            loss: LossModel::None,
            latency: LatencyModel::Uniform {
                min: SimDuration::from_millis(1),
                max: SimDuration::from_millis(100),
            },
        };
        let expected = replayed_order(model, 40);
        assert_ne!(expected, (0..40).collect::<Vec<_>>(), "the seed must reorder");
        let live = Live::start(model);
        let batch: Vec<u64> = (0..40).collect();
        assert_eq!(live.link.offer(&batch, true).enqueued, 40);
        let applied: Vec<u64> = live.finish().into_iter().map(|(m, _)| m).collect();
        assert_eq!(applied, expected);
    }

    #[test]
    fn a_cleared_spike_hands_nothing_off_past_messages_in_flight() {
        // Spiked messages are in flight when the spike clears. The next
        // batch has nothing to wait for itself, but it is not handed off
        // while the step holds them: it takes the queue and lands first,
        // exactly as the step orders it in virtual time. The delivery task
        // is polled by hand, so each poll runs it until it waits and the
        // interleaving is the test's.
        let spike = SimDuration::from_millis(30);
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        let applied = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&applied);
        let task = DeliveryTask::new(DeliveryModel::reliable(), 5, 6);
        let link = Link::new(tx, task, move |batch: &[u64]| {
            sink.lock().unwrap().extend_from_slice(batch)
        });
        let reactor = Reactor::new();
        let mut task = Box::pin(link.deliver(rx, reactor.timer()));
        let mut poll = || {
            let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
            assert!(task.as_mut().poll(&mut cx).is_pending());
        };
        poll();
        link.set_extra_delay(spike);
        assert_eq!(link.offer(&[0, 1], true).enqueued, 2);
        poll(); // Admitted; the task waits for a batch or their deadline.
        link.set_extra_delay(SimDuration::ZERO);
        assert_eq!(link.offer(&[2, 3], true).enqueued, 2);
        assert_eq!(link.pipe_stats().direct, 0, "handed off past messages in flight");
        poll();
        assert_eq!(*applied.lock().unwrap(), vec![2, 3]);
        // Let the spike run out (wall time is the live step's clock).
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_micros(spike.as_micros()));
        poll();
        assert!(link.is_idle());

        let mut step = LinkStep::new(&DeliveryTask::new(DeliveryModel::reliable(), 5, 6));
        step.set_extra_delay(spike);
        step.admit(SimTime::ZERO, [0, 1]);
        step.set_extra_delay(SimDuration::ZERO);
        step.admit(SimTime::ZERO, [2, 3]);
        let mut expected = Vec::new();
        step.deliver_due(SimTime::ZERO + spike, usize::MAX, |m| expected.push(m));
        assert_eq!(expected, vec![2, 3, 0, 1]);
        assert_eq!(*applied.lock().unwrap(), expected);
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
