//! Bounded invalidation pipes with explicit overflow policies.
//!
//! [`bounded_pipe`] is a capacity-limited MPSC queue whose behaviour at
//! capacity is an explicit [`OverflowPolicy`]:
//!
//! * [`OverflowPolicy::Block`] — the sender waits for a free slot; the
//!   commit path absorbs the backpressure (and the stall is counted so it
//!   can be attributed).
//! * [`OverflowPolicy::DropNewest`] — the incoming message is rejected; the
//!   cache keeps its oldest pending invalidations.
//! * [`OverflowPolicy::DropOldest`] — the oldest pending message is evicted
//!   to make room; the cache always sees the freshest invalidations.
//!
//! Every transition is counted in [`PipeStats`] so overflow and stalls are
//! observable per cache. Messages enter in batches
//! ([`PipeSender::send_batch`], or [`PipeSender::try_send_batch`] for a
//! thread that must not wait) and leave in batches: the receiving side is
//! one asynchronous drain, [`PipeReceiver::recv_batch_async`], which
//! registers a [`std::task::Waker`] — what lets one reactor thread
//! multiplex many caches' pipes (see [`crate::reactor`]).
//!
//! Wake-ups are paid only by whoever is actually asleep. std's futex
//! `Condvar` makes a system call on every notify, waiter or not, so the
//! pipe keeps a blocked-sender count under its mutex and a drain signals
//! `not_full` only while a sender is blocked on a full
//! [`OverflowPolicy::Block`] pipe; the receiver is woken through its waker,
//! at most once per wakeup in flight. Dropping the receiver is rare and
//! notifies unconditionally.
//!
//! A sender can also skip the queue altogether: [`PipeSender::hand_off`]
//! serves a batch on the sending thread when, under the pipe lock, the
//! queue is empty and the receiver is waiting on its registered waker,
//! done with everything it took — the one state in which that is
//! indistinguishable from enqueueing the batch and the receiver draining
//! it at once.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// What a pipe does with an incoming message while it is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// The sender blocks until a slot frees (backpressure onto the
    /// publisher / commit path).
    #[default]
    Block,
    /// The incoming message is dropped; pending messages are kept.
    DropNewest,
    /// The oldest pending message is evicted to admit the incoming one.
    DropOldest,
}

impl std::fmt::Display for OverflowPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverflowPolicy::Block => write!(f, "block"),
            OverflowPolicy::DropNewest => write!(f, "drop-newest"),
            OverflowPolicy::DropOldest => write!(f, "drop-oldest"),
        }
    }
}

/// Monotone counters describing one pipe's traffic. All counters are
/// atomics; snapshot them with [`PipeStats::snapshot`].
#[derive(Debug, Default)]
pub struct PipeStats {
    enqueued: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    received: AtomicU64,
    stalled_sends: AtomicU64,
    stall_micros: AtomicU64,
    batched_polls: AtomicU64,
    max_drain: AtomicU64,
    coalesced_wakeups: AtomicU64,
    budget_yields: AtomicU64,
    direct: AtomicU64,
}

/// A point-in-time copy of [`PipeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipeStatsSnapshot {
    /// Messages accepted into the queue (including ones later evicted by
    /// [`OverflowPolicy::DropOldest`]).
    pub enqueued: u64,
    /// Incoming messages rejected at capacity ([`OverflowPolicy::DropNewest`]).
    pub rejected: u64,
    /// Pending messages evicted at capacity ([`OverflowPolicy::DropOldest`]).
    pub evicted: u64,
    /// Messages handed to the receiver, including the
    /// [`direct`](PipeStatsSnapshot::direct) ones served on its behalf.
    pub received: u64,
    /// Sends that had to wait for a slot ([`OverflowPolicy::Block`]).
    pub stalled_sends: u64,
    /// Total wall-clock time senders spent waiting for slots, in
    /// microseconds.
    pub stall_micros: u64,
    /// Batch-receive polls ([`PipeReceiver::recv_batch_async`]) that
    /// handed out at least one message.
    pub batched_polls: u64,
    /// Largest number of messages a single batch poll drained.
    pub max_drain: u64,
    /// Messages enqueued while a wakeup was already in flight, so the
    /// receiver's waker was not fired again for them (the receiver observes
    /// them in the drain the pending wakeup triggers). A per-message count:
    /// a [`PipeSender::send_batch`] window of `k` messages that finds a
    /// wakeup in flight adds `k`, one that fires the waker itself adds
    /// `k - 1` — exactly what `k` one-message windows would.
    pub coalesced_wakeups: u64,
    /// Times the receiver's apply loop exhausted its per-poll budget with
    /// backlog remaining and cooperatively re-yielded to the reactor
    /// (reported via [`PipeReceiver::note_budget_yield`]).
    pub budget_yields: u64,
    /// Messages served on the sending thread by [`PipeSender::hand_off`]
    /// without ever entering the queue. Each is also counted in `enqueued`
    /// and `received`, so every identity over those two holds unchanged.
    pub direct: u64,
}

impl PipeStatsSnapshot {
    /// Messages lost to overflow under either drop policy.
    pub fn overflow_dropped(&self) -> u64 {
        self.rejected.saturating_add(self.evicted)
    }

    /// Mean messages drained per successful batch poll (0 when no batch
    /// poll has completed). Handed-off messages were never drained and do
    /// not count.
    pub fn mean_drain(&self) -> f64 {
        if self.batched_polls == 0 {
            0.0
        } else {
            self.received.saturating_sub(self.direct) as f64 / self.batched_polls as f64
        }
    }

    /// Accumulates another pipe's counters into this one. Counter sums
    /// saturate instead of wrapping so long sweeps cannot corrupt
    /// aggregates; `max_drain` takes the maximum, not the sum.
    pub fn merge(&mut self, other: PipeStatsSnapshot) {
        self.enqueued = self.enqueued.saturating_add(other.enqueued);
        self.rejected = self.rejected.saturating_add(other.rejected);
        self.evicted = self.evicted.saturating_add(other.evicted);
        self.received = self.received.saturating_add(other.received);
        self.stalled_sends = self.stalled_sends.saturating_add(other.stalled_sends);
        self.stall_micros = self.stall_micros.saturating_add(other.stall_micros);
        self.batched_polls = self.batched_polls.saturating_add(other.batched_polls);
        self.max_drain = self.max_drain.max(other.max_drain);
        self.coalesced_wakeups = self.coalesced_wakeups.saturating_add(other.coalesced_wakeups);
        self.budget_yields = self.budget_yields.saturating_add(other.budget_yields);
        self.direct = self.direct.saturating_add(other.direct);
    }
}

impl PipeStats {
    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> PipeStatsSnapshot {
        PipeStatsSnapshot {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            stalled_sends: self.stalled_sends.load(Ordering::Relaxed),
            stall_micros: self.stall_micros.load(Ordering::Relaxed),
            batched_polls: self.batched_polls.load(Ordering::Relaxed),
            max_drain: self.max_drain.load(Ordering::Relaxed),
            coalesced_wakeups: self.coalesced_wakeups.load(Ordering::Relaxed),
            budget_yields: self.budget_yields.load(Ordering::Relaxed),
            direct: self.direct.load(Ordering::Relaxed),
        }
    }
}

struct PipeInner<T> {
    queue: VecDeque<T>,
    /// Waker of a pending [`RecvBatchFuture`], if the receiver is parked.
    recv_waker: Option<Waker>,
    /// A wakeup has been fired but the receiver has not polled since.
    /// While set, further sends coalesce into the in-flight wakeup instead
    /// of firing again (the receiver drains the whole backlog when it
    /// runs). Cleared at the top of every receive poll.
    wake_pending: bool,
    senders: usize,
    receiver_alive: bool,
    /// Threads currently inside a `not_full` wait (a full `Block` pipe).
    /// Drains notify only while nonzero.
    blocked_senders: usize,
}

struct PipeShared<T> {
    inner: Mutex<PipeInner<T>>,
    /// Signalled when a drain frees slots while `blocked_senders > 0`, and
    /// whenever the receiver disconnects.
    not_full: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    stats: PipeStats,
}

impl<T> PipeShared<T> {
    /// Pops up to `max` messages into `buf`, updating the batch counters
    /// once for the whole drain and signalling blocked writers once instead
    /// of per message.
    fn pop_batch(&self, inner: &mut PipeInner<T>, buf: &mut Vec<T>, max: usize) -> BatchDrain {
        let drained = inner.queue.len().min(max);
        if drained == 0 {
            return BatchDrain::default();
        }
        buf.extend(inner.queue.drain(..drained));
        self.stats.received.fetch_add(drained as u64, Ordering::Relaxed);
        self.stats.batched_polls.fetch_add(1, Ordering::Relaxed);
        self.stats.max_drain.fetch_max(drained as u64, Ordering::Relaxed);
        if inner.blocked_senders > 0 {
            // One notify_all for the whole batch: every blocked sender
            // re-checks capacity under the lock, so over-notifying is safe
            // and far cheaper than one notify_one per freed slot.
            self.not_full.notify_all();
        }
        BatchDrain {
            drained,
            backlog: inner.queue.len(),
        }
    }

    /// Accounts `pushed` messages the caller just enqueued under `inner` and
    /// takes the receiver's waker unless a wakeup is already in flight, in
    /// which case the messages coalesce into it. The waker is returned, not
    /// fired: the caller fires it after dropping the guard.
    fn announce(&self, inner: &mut PipeInner<T>, pushed: u64) -> Option<Waker> {
        self.stats.enqueued.fetch_add(pushed, Ordering::Relaxed);
        let mut waker = None;
        let coalesced = if inner.wake_pending {
            pushed
        } else if let Some(w) = inner.recv_waker.take() {
            inner.wake_pending = true;
            waker = Some(w);
            pushed - 1
        } else {
            0
        };
        if coalesced > 0 {
            self.stats
                .coalesced_wakeups
                .fetch_add(coalesced, Ordering::Relaxed);
        }
        waker
    }

    /// Parks a sender on a full `Block` pipe until a slot frees or the
    /// receiver disconnects, counting the stall. Registering in
    /// `blocked_senders` under the lock the wait releases is what lets
    /// drains skip the notify when nobody is parked here.
    fn wait_for_slot<'a>(
        &self,
        mut inner: MutexGuard<'a, PipeInner<T>>,
    ) -> MutexGuard<'a, PipeInner<T>> {
        self.stats.stalled_sends.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        inner.blocked_senders += 1;
        while inner.queue.len() >= self.capacity && inner.receiver_alive {
            inner = self.not_full.wait(inner).expect("pipe lock");
        }
        inner.blocked_senders -= 1;
        self.stats.stall_micros.fetch_add(
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        inner
    }
}

/// What one batch receive ([`PipeReceiver::recv_batch_async`]) handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchDrain {
    /// Messages moved into the caller's buffer; `0` means every sender is
    /// gone and the pipe is empty.
    pub drained: usize,
    /// Messages still queued when the drain finished, read under the lock
    /// the drain already held — an apply loop deciding whether to re-yield
    /// needs no second lock round trip.
    pub backlog: usize,
}

/// What [`PipeSender::send_batch`] / [`PipeSender::try_send_batch`] did with
/// a batch, counted per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use]
pub struct BatchOutcome {
    /// Messages that entered the queue (including ones that evicted the
    /// head under [`OverflowPolicy::DropOldest`]).
    pub enqueued: u64,
    /// Messages lost to overflow: rejected ([`OverflowPolicy::DropNewest`])
    /// or evicted ([`OverflowPolicy::DropOldest`]).
    pub overflowed: u64,
    /// Whether the sender had to wait for a slot ([`OverflowPolicy::Block`]
    /// at capacity) at least once.
    pub stalled: bool,
    /// The receiver was gone (on entry, or while the sender waited for a
    /// slot); the messages not yet enqueued were dropped.
    pub disconnected: bool,
    /// Messages [`PipeSender::try_send_batch`] turned away from a full
    /// [`OverflowPolicy::Block`] pipe instead of waiting for a slot; the
    /// pipe counts nothing for them. Always 0 from
    /// [`PipeSender::send_batch`].
    pub refused: u64,
}

/// The sending half of a bounded pipe. Cloneable.
pub struct PipeSender<T> {
    shared: Arc<PipeShared<T>>,
}

/// The receiving half of a bounded pipe.
pub struct PipeReceiver<T> {
    shared: Arc<PipeShared<T>>,
}

impl<T> std::fmt::Debug for PipeSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeSender")
            .field("capacity", &self.shared.capacity)
            .field("policy", &self.shared.policy)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for PipeReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeReceiver")
            .field("capacity", &self.shared.capacity)
            .field("policy", &self.shared.policy)
            .finish_non_exhaustive()
    }
}

/// Creates a bounded pipe with the given capacity and overflow policy.
/// `capacity` is clamped to at least 1; pass [`UNBOUNDED`] for a pipe that
/// never overflows.
pub fn bounded_pipe<T>(
    capacity: usize,
    policy: OverflowPolicy,
) -> (PipeSender<T>, PipeReceiver<T>) {
    let shared = Arc::new(PipeShared {
        inner: Mutex::new(PipeInner {
            queue: VecDeque::new(),
            recv_waker: None,
            wake_pending: false,
            senders: 1,
            receiver_alive: true,
            blocked_senders: 0,
        }),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
        policy,
        stats: PipeStats::default(),
    });
    (
        PipeSender {
            shared: Arc::clone(&shared),
        },
        PipeReceiver { shared },
    )
}

/// Capacity value meaning "effectively unbounded".
pub const UNBOUNDED: usize = usize::MAX;

impl<T> Clone for PipeSender<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().expect("pipe lock").senders += 1;
        PipeSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for PipeSender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut inner = self.shared.inner.lock().expect("pipe lock");
            inner.senders -= 1;
            if inner.senders == 0 {
                match inner.recv_waker.take() {
                    Some(w) => {
                        inner.wake_pending = true;
                        Some(w)
                    }
                    None => None,
                }
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Drop for PipeReceiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("pipe lock");
        inner.receiver_alive = false;
        self.shared.not_full.notify_all();
    }
}

impl<T> PipeSender<T> {
    /// Sends one message: a one-element [`PipeSender::send_batch`], for
    /// callers that need no per-message outcome.
    ///
    /// # Errors
    /// Returns the outcome (nothing enqueued, `disconnected` set) when the
    /// receiver is gone.
    pub fn send(&self, value: T) -> Result<(), BatchOutcome> {
        let outcome = self.send_batch([value]);
        if outcome.disconnected {
            Err(outcome)
        } else {
            Ok(())
        }
    }

    /// Sends every message in `batch`, taking the pipe lock once per
    /// capacity window instead of once per message and firing at most one
    /// wakeup per window. With room for the whole batch (the common case:
    /// a commit's invalidations against a pipe that is keeping up) that is
    /// a single lock acquisition and at most a single wakeup no matter how
    /// many messages are enqueued — the producer-side complement of
    /// [`PipeReceiver::recv_batch_async`].
    ///
    /// Overflow is applied per message: `Block` parks until a slot frees
    /// (the window already enqueued is signalled first, so a parked
    /// receiver always drains it), `DropNewest` rejects the overflowing
    /// message, `DropOldest` evicts the head. A receiver that is gone is
    /// flagged in the returned [`BatchOutcome`] rather than returned as an
    /// error, so the part already enqueued stays accounted.
    ///
    /// `batch` is advanced while the pipe lock is held: pass an iterator
    /// that yields without waiting on anything (a slice, a drained buffer).
    pub fn send_batch<I>(&self, batch: I) -> BatchOutcome
    where
        I: IntoIterator<Item = T>,
    {
        self.push_batch(batch, true)
    }

    /// [`PipeSender::send_batch`] without ever waiting: where that would
    /// park on a full `Block` pipe, the rest of the batch is turned away
    /// and counted in [`BatchOutcome::refused`], in one lock hold. The drop
    /// policies behave exactly as in `send_batch`. This is the send for a
    /// thread that must not block, such as a reactor task relaying to a
    /// sibling task's pipe.
    pub fn try_send_batch<I>(&self, batch: I) -> BatchOutcome
    where
        I: IntoIterator<Item = T>,
    {
        self.push_batch(batch, false)
    }

    /// The window loop behind [`PipeSender::send_batch`] (`wait`) and
    /// [`PipeSender::try_send_batch`] (`!wait`).
    fn push_batch<I>(&self, batch: I, wait: bool) -> BatchOutcome
    where
        I: IntoIterator<Item = T>,
    {
        let shared = &self.shared;
        let mut iter = batch.into_iter();
        let mut pending: Option<T> = iter.next();
        let mut outcome = BatchOutcome::default();
        while pending.is_some() {
            let mut inner = shared.inner.lock().expect("pipe lock");
            if shared.policy == OverflowPolicy::Block
                && inner.receiver_alive
                && inner.queue.len() >= shared.capacity
            {
                if !wait {
                    outcome.refused = 1 + iter.count() as u64;
                    return outcome;
                }
                outcome.stalled = true;
                inner = shared.wait_for_slot(inner);
            }
            if !inner.receiver_alive {
                outcome.disconnected = true;
                return outcome;
            }
            let mut window = 0u64;
            while let Some(value) = pending.take() {
                if inner.queue.len() >= shared.capacity {
                    match shared.policy {
                        OverflowPolicy::Block => {
                            // Window closed: signal what we have, then park
                            // for a slot (or give up) on the next pass round
                            // the loop.
                            pending = Some(value);
                            break;
                        }
                        OverflowPolicy::DropNewest => {
                            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                            outcome.overflowed += 1;
                            pending = iter.next();
                            continue;
                        }
                        OverflowPolicy::DropOldest => {
                            inner.queue.pop_front();
                            shared.stats.evicted.fetch_add(1, Ordering::Relaxed);
                            outcome.overflowed += 1;
                        }
                    }
                }
                inner.queue.push_back(value);
                window += 1;
                pending = iter.next();
            }
            let waker = if window == 0 {
                None
            } else {
                outcome.enqueued += window;
                shared.announce(&mut inner, window)
            };
            drop(inner);
            if let Some(w) = waker {
                w.wake();
            }
        }
        outcome
    }

    /// Hands `batch` to `serve` on the calling thread instead of enqueueing
    /// it, if — checked and acted on under the pipe lock — the receiver is
    /// alive, the queue is empty and the receiver's waker is registered:
    /// its last poll found nothing and it has not been woken since, so it
    /// is waiting — and `finished(received)` says the receiver is done with
    /// the `received` messages it has taken. In that state an enqueue would
    /// wake the receiver to drain exactly this batch and nothing else, so
    /// serving it here, with every other sender and the receiver's next
    /// poll held off by the lock, keeps the pipe FIFO: what was sent before
    /// has been received, what is sent after is served or queued after.
    /// (That orders *processing* only for a receiver that finishes what it
    /// drained before it polls again, or whose `finished` says when it has:
    /// the delivery task polls again while messages it drained are still in
    /// flight.) Otherwise the batch comes back as `Err`, untouched, for the
    /// caller to enqueue. (Every push takes the waker, so today a registered
    /// waker already implies an empty queue; the queue is checked anyway
    /// because it, not the waker protocol, is the FIFO condition.)
    ///
    /// A served batch is counted `enqueued`, `received` and
    /// [`direct`](PipeStatsSnapshot::direct) *before* `serve` runs, so an
    /// observer never sees a message being processed that the pipe has not
    /// yet accounted for. Capacity does not apply (nothing is queued), no
    /// waker fires and the receiver stays parked.
    ///
    /// `finished` and `serve` run with the pipe lock held: of this pipe they
    /// may read `stats()` and nothing else (every other call takes the
    /// lock), and whatever they lock is ordered after this pipe's lock.
    ///
    /// # Errors
    /// Returns the batch when it was not served.
    pub fn hand_off<I>(
        &self,
        batch: I,
        finished: impl FnOnce(u64) -> bool,
        serve: impl FnOnce(I),
    ) -> Result<(), I>
    where
        I: ExactSizeIterator<Item = T>,
    {
        let shared = &self.shared;
        let inner = shared.inner.lock().expect("pipe lock");
        if !(inner.receiver_alive
            && inner.queue.is_empty()
            && inner.recv_waker.is_some()
            && finished(shared.stats.received.load(Ordering::Relaxed)))
        {
            return Err(batch);
        }
        let served = batch.len() as u64;
        shared.stats.enqueued.fetch_add(served, Ordering::Relaxed);
        shared.stats.received.fetch_add(served, Ordering::Relaxed);
        shared.stats.direct.fetch_add(served, Ordering::Relaxed);
        serve(batch);
        drop(inner);
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.inner.lock().expect("pipe lock").queue.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the pipe's counters.
    pub fn stats(&self) -> PipeStatsSnapshot {
        self.shared.stats.snapshot()
    }
}

impl<T> PipeReceiver<T> {
    /// Returns a future that waits until the pipe is non-empty, then drains
    /// up to `max` messages into `buf` in one poll, resolving to how many
    /// it drained and how many it left queued ([`BatchDrain`]). Resolves to
    /// zero drained only once every sender is dropped and the queue is
    /// fully drained. One wakeup services the whole backlog — the
    /// batch-dequeue half of the reactor apply path. The future registers
    /// its [`Waker`] with the pipe and senders wake it on delivery.
    pub fn recv_batch_async<'a>(
        &'a self,
        buf: &'a mut Vec<T>,
        max: usize,
    ) -> RecvBatchFuture<'a, T> {
        RecvBatchFuture {
            receiver: self,
            buf,
            max: max.max(1),
        }
    }

    /// Records one cooperative budget yield in this pipe's counters: the
    /// apply loop drained a full budget, saw backlog remaining, and handed
    /// the reactor back to its sibling tasks.
    pub fn note_budget_yield(&self) {
        self.shared
            .stats
            .budget_yields
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Future returned by [`PipeReceiver::recv_batch_async`]: resolves to the
/// [`BatchDrain`] of the poll that found messages (zero drained means every
/// sender is gone and the pipe is empty).
pub struct RecvBatchFuture<'a, T> {
    receiver: &'a PipeReceiver<T>,
    buf: &'a mut Vec<T>,
    max: usize,
}

impl<T> Future for RecvBatchFuture<'_, T> {
    type Output = BatchDrain;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = &this.receiver.shared;
        let mut inner = shared.inner.lock().expect("pipe lock");
        inner.wake_pending = false;
        let drain = shared.pop_batch(&mut inner, this.buf, this.max);
        if drain.drained > 0 || inner.senders == 0 {
            return Poll::Ready(drain);
        }
        inner.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains up to `max` queued messages synchronously: one poll of the
    /// batch receive with a waker nobody listens to. (On an empty pipe with
    /// a sender alive that poll registers the waker, as the delivery task's
    /// does.)
    fn drain_up_to<T>(rx: &PipeReceiver<T>, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        let _ = std::pin::pin!(rx.recv_batch_async(&mut out, max))
            .poll(&mut Context::from_waker(Waker::noop()));
        out
    }

    fn drain<T>(rx: &PipeReceiver<T>) -> Vec<T> {
        drain_up_to(rx, usize::MAX)
    }

    fn outcome(enqueued: u64, overflowed: u64) -> BatchOutcome {
        BatchOutcome {
            enqueued,
            overflowed,
            ..BatchOutcome::default()
        }
    }

    #[test]
    fn unbounded_pipe_round_trip() {
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        for i in 0..100 {
            assert_eq!(tx.send_batch([i]), outcome(1, 0));
        }
        assert_eq!(tx.len(), 100);
        assert_eq!(drain(&rx), (0..100).collect::<Vec<_>>());
        assert!(tx.is_empty());
        let stats = tx.stats();
        assert_eq!(stats.enqueued, 100);
        assert_eq!(stats.received, 100);
        assert_eq!(stats.overflow_dropped(), 0);
    }

    #[test]
    fn send_batch_enqueues_everything_in_one_window() {
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        assert_eq!(tx.send_batch(0..100), outcome(100, 0));
        assert_eq!(tx.send_batch(std::iter::empty()), BatchOutcome::default());
        assert_eq!(drain(&rx), (0..100).collect::<Vec<_>>());
        assert_eq!(tx.stats().enqueued, 100);
    }

    #[test]
    fn send_batch_applies_drop_policies_per_message() {
        let (tx, rx) = bounded_pipe::<u64>(2, OverflowPolicy::DropNewest);
        let sent = tx.send_batch(0..5);
        assert_eq!((sent.enqueued, sent.overflowed), (2, 3), "only the window fits");
        assert_eq!(drain(&rx), vec![0, 1]);
        assert_eq!(tx.stats().rejected, 3);

        let (tx, rx) = bounded_pipe::<u64>(2, OverflowPolicy::DropOldest);
        let sent = tx.send_batch(0..5);
        assert_eq!((sent.enqueued, sent.overflowed), (5, 3), "evictions still enqueue");
        assert_eq!(drain(&rx), vec![3, 4]);
        assert_eq!(tx.stats().evicted, 3);
    }

    #[test]
    fn send_batch_crosses_capacity_windows_under_block() {
        let (tx, rx) = bounded_pipe::<u64>(4, OverflowPolicy::Block);
        let handle = std::thread::spawn({
            let tx = tx.clone();
            move || tx.send_batch(0..64)
        });
        // Start draining only once the batch has filled the pipe and parked,
        // so `stalled` does not depend on who wins the race.
        while tx.stats().stalled_sends == 0 {
            std::thread::yield_now();
        }
        drop(tx);
        let mut got = Vec::new();
        while got.len() < 64 {
            got.extend(drain(&rx));
            std::thread::yield_now();
        }
        let sent = handle.join().unwrap();
        assert_eq!((sent.enqueued, sent.overflowed), (64, 0));
        assert!(sent.stalled && !sent.disconnected);
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn send_batch_reports_disconnect() {
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        drop(rx);
        let gone = BatchOutcome {
            disconnected: true,
            ..BatchOutcome::default()
        };
        assert_eq!(tx.send_batch(7..10), gone);
        assert_eq!(tx.send(10), Err(gone));
        assert_eq!(tx.stats().enqueued, 0);
    }

    #[test]
    fn drop_newest_rejects_at_capacity() {
        let (tx, rx) = bounded_pipe::<u64>(2, OverflowPolicy::DropNewest);
        assert_eq!(tx.send_batch([1]), outcome(1, 0));
        assert_eq!(tx.send_batch([2]), outcome(1, 0));
        assert_eq!(tx.send_batch([3]), outcome(0, 1), "the incoming message is lost");
        assert_eq!(drain(&rx), vec![1, 2]);
        let stats = tx.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.enqueued, 2);
        assert_eq!(stats.overflow_dropped(), 1);
    }

    #[test]
    fn drop_oldest_evicts_at_capacity() {
        let (tx, rx) = bounded_pipe::<u64>(2, OverflowPolicy::DropOldest);
        assert_eq!(tx.send_batch([1]), outcome(1, 0));
        assert_eq!(tx.send_batch([2]), outcome(1, 0));
        for i in 3..=5 {
            assert_eq!(tx.send_batch([i]), outcome(1, 1), "enqueued, evicting the head");
        }
        assert_eq!(drain(&rx), vec![4, 5]);
        let stats = tx.stats();
        assert_eq!(stats.evicted, 3);
        assert_eq!(stats.enqueued, 5);
        assert_eq!(stats.received, 2);
    }

    #[test]
    fn block_policy_stalls_the_sender_until_a_slot_frees() {
        let (tx, rx) = bounded_pipe::<u64>(1, OverflowPolicy::Block);
        assert_eq!(tx.send_batch([1]), outcome(1, 0));
        let stats = tx.clone();
        let handle = std::thread::spawn(move || tx.send_batch([2]));
        // Free the slot only once the sender has parked on it.
        while stats.stats().stalled_sends == 0 {
            std::thread::yield_now();
        }
        assert_eq!(drain(&rx), vec![1]);
        let sent = handle.join().unwrap();
        assert!(sent.stalled && sent.enqueued == 1, "{sent:?}");
        let counted = stats.stats();
        assert_eq!(counted.stalled_sends, 1);
        drop(stats);
        assert_eq!(drain(&rx), vec![2], "the stalled send completed");
        let mut buf = Vec::new();
        assert_eq!(
            std::pin::pin!(rx.recv_batch_async(&mut buf, 1))
                .poll(&mut Context::from_waker(Waker::noop())),
            Poll::Ready(BatchDrain::default()),
            "every sender dropped after its send completed"
        );
        assert_eq!(counted.received, 1);
    }

    #[test]
    fn blocked_sender_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded_pipe::<u64>(1, OverflowPolicy::Block);
        tx.send(1).unwrap();
        let stats = tx.clone();
        let handle = std::thread::spawn(move || tx.send(2));
        while stats.stats().stalled_sends == 0 {
            std::thread::yield_now();
        }
        drop(rx);
        let sent = handle.join().unwrap().unwrap_err();
        assert!(sent.stalled && sent.disconnected && sent.enqueued == 0, "{sent:?}");
    }

    /// Overflow counters must match a sequential oracle: replay the same
    /// bounded-queue semantics over a plain `VecDeque` and compare every
    /// counter for both drop policies.
    #[test]
    fn overflow_counters_match_a_sequential_oracle() {
        for policy in [OverflowPolicy::DropNewest, OverflowPolicy::DropOldest] {
            let capacity = 7usize;
            let (tx, rx) = bounded_pipe::<u64>(capacity, policy);
            let mut oracle: VecDeque<u64> = VecDeque::new();
            let (mut enqueued, mut rejected, mut evicted) = (0u64, 0u64, 0u64);
            // A deterministic on/off traffic pattern: bursts of sends
            // interleaved with partial drains.
            for round in 0..50u64 {
                for i in 0..(round % 11) {
                    let v = round * 100 + i;
                    if oracle.len() >= capacity {
                        match policy {
                            OverflowPolicy::DropNewest => {
                                rejected += 1;
                                assert_eq!(tx.send_batch([v]), outcome(0, 1));
                                continue;
                            }
                            OverflowPolicy::DropOldest => {
                                oracle.pop_front();
                                evicted += 1;
                            }
                            OverflowPolicy::Block => unreachable!(),
                        }
                        assert_eq!(tx.send_batch([v]), outcome(1, 1));
                    } else {
                        assert_eq!(tx.send_batch([v]), outcome(1, 0));
                    }
                    oracle.push_back(v);
                    enqueued += 1;
                }
                let take = (round % 5) as usize;
                if take > 0 {
                    let expected: Vec<u64> = (0..take).map_while(|_| oracle.pop_front()).collect();
                    assert_eq!(drain_up_to(&rx, take), expected);
                }
            }
            // Drain the tail and compare the full counter set.
            assert_eq!(drain(&rx), oracle.into_iter().collect::<Vec<_>>());
            let stats = tx.stats();
            assert_eq!(stats.enqueued, enqueued, "{policy}");
            assert_eq!(stats.rejected, rejected, "{policy}");
            assert_eq!(stats.evicted, evicted, "{policy}");
            assert_eq!(stats.received, stats.enqueued - stats.evicted, "{policy}");
            assert_eq!(stats.overflow_dropped(), rejected + evicted, "{policy}");
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = PipeStatsSnapshot {
            enqueued: 1,
            rejected: 2,
            evicted: 3,
            received: 4,
            stalled_sends: 5,
            stall_micros: 6,
            batched_polls: 2,
            max_drain: 7,
            coalesced_wakeups: 8,
            budget_yields: 9,
            direct: 3,
        };
        a.merge(a);
        assert_eq!(a.direct, 6);
        assert_eq!(a.enqueued, 2);
        assert_eq!(a.stall_micros, 12);
        assert_eq!(a.overflow_dropped(), 10);
        assert_eq!(a.batched_polls, 4);
        assert_eq!(a.max_drain, 7, "max_drain takes the max, not the sum");
        assert_eq!(a.coalesced_wakeups, 16);
        assert_eq!(a.budget_yields, 18);
    }

    /// Long sweeps aggregate many snapshots; sums must saturate instead of
    /// wrapping (the satellite fix for u64 counter aggregation).
    #[test]
    fn stats_merge_saturates_instead_of_wrapping() {
        let mut a = PipeStatsSnapshot {
            enqueued: u64::MAX - 1,
            rejected: u64::MAX,
            evicted: u64::MAX,
            received: u64::MAX - 3,
            stalled_sends: 1,
            stall_micros: u64::MAX,
            batched_polls: u64::MAX,
            max_drain: 5,
            coalesced_wakeups: u64::MAX,
            budget_yields: u64::MAX,
            direct: u64::MAX,
        };
        a.merge(a);
        assert_eq!(a.enqueued, u64::MAX);
        assert_eq!(a.rejected, u64::MAX);
        assert_eq!(a.received, u64::MAX);
        assert_eq!(a.stalled_sends, 2);
        assert_eq!(a.stall_micros, u64::MAX);
        assert_eq!(a.overflow_dropped(), u64::MAX, "overflow sum saturates too");
        assert_eq!(a.max_drain, 5);
    }

    #[test]
    fn policy_displays() {
        assert_eq!(OverflowPolicy::Block.to_string(), "block");
        assert_eq!(OverflowPolicy::DropNewest.to_string(), "drop-newest");
        assert_eq!(OverflowPolicy::DropOldest.to_string(), "drop-oldest");
        assert_eq!(OverflowPolicy::default(), OverflowPolicy::Block);
    }
    /// A waker that counts its fires, and the receiver-side poll the
    /// delivery task makes, done by hand.
    struct CountingWaker(AtomicU64);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn poll_batch(
        rx: &PipeReceiver<u32>,
        fires: &Arc<CountingWaker>,
        buf: &mut Vec<u32>,
        max: usize,
    ) -> Poll<BatchDrain> {
        let waker = Waker::from(Arc::clone(fires));
        let mut cx = Context::from_waker(&waker);
        std::pin::pin!(rx.recv_batch_async(buf, max)).poll(&mut cx)
    }

    #[test]
    fn try_send_batch_refuses_instead_of_waiting() {
        let (tx, rx) = bounded_pipe::<u32>(2, OverflowPolicy::Block);
        let sent = tx.try_send_batch(0..5);
        assert_eq!(
            sent,
            BatchOutcome {
                enqueued: 2,
                refused: 3,
                ..BatchOutcome::default()
            }
        );
        assert_eq!(tx.try_send_batch(5..6).refused, 1, "still full");
        assert_eq!(drain(&rx), vec![0, 1]);
        assert_eq!(tx.stats().enqueued, 2, "a refused message is counted nowhere");
        // The drop policies never wait, so there is nothing to refuse.
        let (tx, rx) = bounded_pipe::<u32>(2, OverflowPolicy::DropOldest);
        let sent = tx.try_send_batch(0..5);
        assert_eq!((sent.enqueued, sent.overflowed, sent.refused), (5, 3, 0));
        assert_eq!(drain(&rx), vec![3, 4]);
    }

    #[test]
    fn hand_off_serves_only_a_receiver_waiting_on_an_empty_queue() {
        let (tx, rx) = bounded_pipe::<u32>(2, OverflowPolicy::Block);
        let fires = Arc::new(CountingWaker(AtomicU64::new(0)));
        let mut buf = Vec::new();
        let served = Mutex::new(Vec::new());
        let serve = |batch: std::ops::Range<u32>| {
            // Counted before served: whoever watches the counters never
            // sees a message in service the pipe has not accounted for.
            let stats = tx.stats();
            assert_eq!(stats.enqueued, stats.received);
            assert!(stats.received >= u64::from(batch.end - batch.start));
            served.lock().unwrap().extend(batch);
        };

        // Never polled: no waker says the receiver is waiting.
        assert_eq!(tx.hand_off(0..3, |_| true, serve), Err(0..3));
        assert_eq!(tx.stats(), PipeStatsSnapshot::default());

        // Waiting on an empty queue: served in order, past the capacity,
        // and the receiver is left parked — again and again.
        assert_eq!(poll_batch(&rx, &fires, &mut buf, 16), Poll::Pending);
        assert_eq!(tx.hand_off(0..3, |_| true, serve), Ok(()));
        assert_eq!(tx.hand_off(3..4, |_| true, serve), Ok(()));
        assert_eq!(*served.lock().unwrap(), vec![0, 1, 2, 3]);
        let stats = tx.stats();
        assert_eq!((stats.enqueued, stats.received, stats.direct), (4, 4, 4));
        assert_eq!(fires.0.load(Ordering::Relaxed), 0, "no waker fired");
        assert!(tx.is_empty());
        assert_eq!(stats.mean_drain(), 0.0, "nothing was drained");

        // Something queued ahead (which also took the waker): refused.
        tx.send(4).unwrap();
        assert_eq!(fires.0.load(Ordering::Relaxed), 1);
        assert_eq!(tx.hand_off(5..6, |_| true, serve), Err(5..6));

        // The receiver drained it and has not polled since — it may still
        // be working on what it holds: refused, although the queue is empty.
        assert_eq!(
            poll_batch(&rx, &fires, &mut buf, 16),
            Poll::Ready(BatchDrain {
                drained: 1,
                backlog: 0
            })
        );
        assert!(tx.is_empty());
        assert_eq!(tx.hand_off(5..6, |_| true, serve), Err(5..6));

        // Waiting again, but still holding what it took: refused.
        assert_eq!(poll_batch(&rx, &fires, &mut buf, 16), Poll::Pending);
        assert_eq!(tx.hand_off(5..6, |received| received == 0, serve), Err(5..6));

        // Done with it and waiting: served.
        assert_eq!(tx.hand_off(5..6, |received| received == 5, serve), Ok(()));
        assert_eq!(*served.lock().unwrap(), vec![0, 1, 2, 3, 5]);
        assert_eq!(tx.stats().direct, 5);
        assert_eq!((tx.stats().received, tx.stats().batched_polls), (6, 1));
        assert!((tx.stats().mean_drain() - 1.0).abs() < 1e-9, "direct is not drained");

        // Receiver gone (its waker is still registered): refused.
        drop(rx);
        assert_eq!(tx.hand_off(6..7, |_| true, serve), Err(6..7));
        assert_eq!(fires.0.load(Ordering::Relaxed), 1);
    }

    /// What the sequential model below predicts the pipe to be.
    #[derive(Default)]
    struct ModelPipe {
        queue: VecDeque<u32>,
        /// The receiver's waker is registered.
        waiting: bool,
        wake_pending: bool,
        fires: u64,
        stats: PipeStatsSnapshot,
        /// Everything the receiving side got, drained or handed off.
        out: Vec<u32>,
    }

    impl ModelPipe {
        fn try_send_batch(&mut self, batch: std::ops::Range<u32>, capacity: usize, policy: OverflowPolicy) {
            let mut pushed = 0;
            for message in batch {
                if self.queue.len() >= capacity {
                    match policy {
                        OverflowPolicy::Block => break,
                        OverflowPolicy::DropNewest => {
                            self.stats.rejected += 1;
                            continue;
                        }
                        OverflowPolicy::DropOldest => {
                            self.queue.pop_front();
                            self.stats.evicted += 1;
                        }
                    }
                }
                self.queue.push_back(message);
                pushed += 1;
            }
            self.stats.enqueued += pushed;
            if pushed > 0 && !self.wake_pending && self.waiting {
                self.waiting = false;
                self.wake_pending = true;
                self.fires += 1;
            }
        }

        fn poll(&mut self, max: usize) {
            self.wake_pending = false;
            let drained = self.queue.len().min(max);
            self.out.extend(self.queue.drain(..drained));
            self.stats.received += drained as u64;
            if drained == 0 {
                self.waiting = true;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random `try_send_batch` / `hand_off` / receiver-poll steps on one
        /// thread against a `VecDeque` reference, under every overflow
        /// policy. After every step: **FifoPerPipe** (what the receiving
        /// side got, drained or handed off, is exactly the reference's, in
        /// order), **EnqueuedEqualsDroppedPlusDelivered** (plus what is
        /// still queued) and **HandoffOnlyWhenReceiverWaiting** (a hand-off
        /// is served if and only if the reference says the waker is
        /// registered over an empty queue — and no step ever fires a waker
        /// the reference did not).
        #[test]
        fn hand_off_model_keeps_the_pipe_invariants(
            policy_choice in 0u32..3,
            capacity in 1usize..6,
            steps in proptest::collection::vec((0u32..3, 1u32..5), 1..60),
        ) {
            use proptest::prop_assert_eq;
            let policy = match policy_choice {
                0 => OverflowPolicy::Block,
                1 => OverflowPolicy::DropNewest,
                _ => OverflowPolicy::DropOldest,
            };
            let (tx, rx) = bounded_pipe::<u32>(capacity, policy);
            let fires = Arc::new(CountingWaker(AtomicU64::new(0)));
            let mut model = ModelPipe::default();
            let mut out: Vec<u32> = Vec::new();
            let mut next = 0u32;
            for (kind, size) in steps {
                let batch = next..next + size;
                match kind {
                    0 => {
                        let _ = tx.try_send_batch(batch.clone());
                        model.try_send_batch(batch, capacity, policy);
                        next += size;
                    }
                    1 => {
                        let expect_served = model.waiting && model.queue.is_empty();
                        let served = tx.hand_off(batch.clone(), |_| true, |batch| out.extend(batch));
                        prop_assert_eq!(served.is_ok(), expect_served, "HandoffOnlyWhenReceiverWaiting");
                        match served {
                            Ok(()) => {
                                model.out.extend(batch);
                                model.stats.enqueued += u64::from(size);
                                model.stats.received += u64::from(size);
                                model.stats.direct += u64::from(size);
                            }
                            // What `Link::offer` does with a refusal.
                            Err(refused) => {
                                prop_assert_eq!(refused.clone(), batch.clone(), "handed back untouched");
                                let _ = tx.try_send_batch(refused);
                                model.try_send_batch(batch, capacity, policy);
                            }
                        }
                        next += size;
                    }
                    _ => {
                        let _ = poll_batch(&rx, &fires, &mut out, size as usize);
                        model.poll(size as usize);
                    }
                }
                let stats = tx.stats();
                prop_assert_eq!(&out, &model.out, "FifoPerPipe");
                prop_assert_eq!(
                    (stats.enqueued, stats.rejected, stats.evicted, stats.received, stats.direct),
                    (
                        model.stats.enqueued,
                        model.stats.rejected,
                        model.stats.evicted,
                        model.stats.received,
                        model.stats.direct
                    )
                );
                prop_assert_eq!(
                    stats.enqueued,
                    stats.evicted + stats.received + tx.len() as u64,
                    "EnqueuedEqualsDroppedPlusDelivered"
                );
                prop_assert_eq!(fires.0.load(Ordering::Relaxed), model.fires);
                // Why the waker alone nearly decides a hand-off: every push
                // takes it, so it is never registered over a backlog.
                proptest::prop_assert!(!model.waiting || model.queue.is_empty());
            }
        }
    }
}
