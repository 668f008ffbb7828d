//! A hand-rolled single-threaded reactor runtime.
//!
//! The build environment is offline, so instead of tokio the invalidation
//! plane runs on this minimal executor: a ready queue, a parked-task table
//! and a timer wheel, all driven by one thread. N per-cache invalidation
//! pipes ([`crate::pipe`]) register wakers with their
//! [`RecvBatchFuture`]s, so a single reactor thread multiplexes every
//! cache's apply loop — replacing the thread-per-cache layout without
//! losing wake-on-delivery semantics.
//!
//! [`RecvBatchFuture`]: crate::pipe::RecvBatchFuture
//!
//! Design:
//!
//! * **Ready queue** — task ids whose wakers fired, drained FIFO each
//!   iteration. The reactor thread parks on a condvar only after its
//!   pre-park spin found nothing, and announces that under the queue's
//!   lock; a waker fire notifies the condvar (a futex system call) only
//!   when it finds that announcement, so wakes that land while the reactor
//!   is mid-batch or spinning cost a queue push and nothing else.
//! * **Parked-task table** — every spawned task lives in one slab slot
//!   (future, waker, scheduled flag) indexed by its [`TaskId`]; a task not
//!   in the ready queue is parked and consumes no cycles until its waker
//!   fires.
//! * **Timer wheel** — a min-heap of `(deadline, seq, waker)`; the reactor
//!   sleeps exactly until the next deadline when no task is ready, and
//!   skips the heap (lock and clock read) entirely while no timer is
//!   registered. Timer
//!   durations use the same microsecond [`SimDuration`] arithmetic as the
//!   latency models in [`crate::latency`] (one simulated microsecond maps
//!   to one wall-clock microsecond), so a [`LatencyModel`] sample can be
//!   slept on directly with [`TimerHandle::sleep_sim`].
//!
//! [`LatencyModel`]: crate::latency::LatencyModel

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Iterations the run loop spins on [`ReactorShared::ready_hint`] before
/// parking on the condvar. Tuned to bridge a producer's inter-send gap
/// (sub-microsecond) without burning meaningful CPU when genuinely idle:
/// the spin costs a few microseconds once per idle transition, a park
/// costs a futex wait here plus a futex wake on the thread that ends it.
const SPIN_BEFORE_PARK: u32 = 4096;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};
use tcache_types::SimDuration;

/// Identifies one spawned task inside a [`Reactor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Monotone counters describing the reactor's activity.
#[derive(Debug, Default)]
struct ReactorCounters {
    spawned: AtomicU64,
    completed: AtomicU64,
    polls: AtomicU64,
    wakes: AtomicU64,
    coalesced_wakes: AtomicU64,
    timers_fired: AtomicU64,
    spin_recoveries: AtomicU64,
}

/// A point-in-time copy of the reactor's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReactorStats {
    /// Tasks spawned over the reactor's lifetime.
    pub spawned: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Total future polls performed.
    pub polls: u64,
    /// Waker fires observed (ready-queue pushes). Only a push that finds
    /// the reactor thread parked also notifies its condvar.
    pub wakes: u64,
    /// Waker fires absorbed by the per-task scheduled flag: the task was
    /// already enqueued (or mid-poll) so no second ready-queue entry was
    /// pushed.
    pub coalesced_wakes: u64,
    /// Timer entries that reached their deadline and woke a task.
    pub timers_fired: u64,
    /// Idle iterations resolved by the pre-park spin: a waker fired within
    /// the spin window, so the reactor skipped a condvar park and the
    /// waking thread skipped the futex wake that ends one.
    pub spin_recoveries: u64,
}

struct TimerEntry {
    deadline: Instant,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// The ready queue and the reactor thread's park announcement, under one
/// lock so a waker fire decides "push only" or "push and notify" atomically
/// with the reactor's decision to park.
#[derive(Default)]
struct ReadyQueue {
    queue: VecDeque<TaskId>,
    /// Set by the reactor thread just before it waits on `parked` (the wait
    /// releases this lock atomically) and cleared by whoever ends the park:
    /// the first pusher that finds it set, or the reactor itself on a
    /// timeout. While clear, nobody is waiting and a notify would be a
    /// wasted system call.
    parked: bool,
}

/// State shared between the reactor thread, task wakers and handles.
struct ReactorShared {
    ready: Mutex<ReadyQueue>,
    /// Lock-free mirror of the ready queue's length, maintained under the
    /// `ready` lock. The run loop's pre-park spin polls this instead of
    /// re-taking the lock on every spin iteration.
    ready_hint: AtomicUsize,
    /// Parks the reactor thread while no task is ready and no timer is due.
    parked: Condvar,
    timers: Mutex<BinaryHeap<Reverse<TimerEntry>>>,
    /// Entries in `timers`, maintained under its lock. The run loop reads
    /// it to skip the lock and the clock while no timer is registered; the
    /// `Release` increment in [`Sleep::poll`] pairs with the `Acquire` load
    /// in [`Reactor::fire_due_timers`].
    pending_timers: AtomicUsize,
    timer_seq: AtomicU64,
    shutdown: AtomicBool,
    counters: ReactorCounters,
}

impl ReactorShared {
    fn push_ready(&self, id: TaskId) {
        let mut ready = self.ready.lock().expect("reactor lock");
        ready.queue.push_back(id);
        self.ready_hint.store(ready.queue.len(), Ordering::Release);
        self.counters.wakes.fetch_add(1, Ordering::Relaxed);
        // One notify ends one park: taking the announcement down here keeps
        // the pushes that follow (one per cache on a fan-out commit) from
        // each paying a futex wake for a thread that is already waking.
        let unpark = std::mem::take(&mut ready.parked);
        drop(ready);
        if unpark {
            self.parked.notify_one();
        }
    }
}

/// Per-task waker: pushes the task onto the ready queue and unparks the
/// reactor thread. Safe to fire from any thread (pipe senders fire it from
/// the publishing side). The `scheduled` flag coalesces wakes: a task
/// already sitting in the ready queue is not enqueued a second time, so a
/// burst of N sends costs one ready-queue push and one lock round-trip, not
/// N contains-scans.
struct TaskWaker {
    id: TaskId,
    shared: Arc<ReactorShared>,
    /// Set while the task is enqueued (or about to be polled); cleared by
    /// the reactor just before each poll so wakes during the poll re-enqueue.
    scheduled: Arc<AtomicBool>,
}

impl TaskWaker {
    fn wake_impl(&self) {
        if self.scheduled.swap(true, Ordering::AcqRel) {
            // Already queued or mid-poll: the pending poll observes
            // whatever this wake was announcing.
            self.shared
                .counters
                .coalesced_wakes
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.shared.push_ready(self.id);
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_impl();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.wake_impl();
    }
}

type BoxedTask = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Everything the run loop needs to poll one task, in one slab slot.
struct TaskSlot {
    future: BoxedTask,
    waker: Waker,
    /// Shared with the task's [`TaskWaker`]; cleared just before each poll
    /// so wakes arriving mid-poll re-enqueue the task.
    scheduled: Arc<AtomicBool>,
}

/// The single-threaded reactor. Build it, [`Reactor::spawn`] tasks onto it,
/// then move it to its thread and call [`Reactor::run`]. Keep a
/// [`ReactorHandle`] (from [`Reactor::handle`]) to request shutdown and to
/// sample [`ReactorStats`] from outside.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    /// The parked-task table: slot `i` holds task `TaskId(i)` until it
    /// completes. Ids are never reused, so a stale wake of a completed
    /// task finds `None`. Tasks absent from the ready queue sit here
    /// untouched until a waker fires.
    tasks: Vec<Option<TaskSlot>>,
    live: usize,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("live_tasks", &self.live)
            .finish_non_exhaustive()
    }
}

impl Default for Reactor {
    fn default() -> Self {
        Reactor::new()
    }
}

impl Reactor {
    /// Creates an empty reactor.
    pub fn new() -> Self {
        Reactor {
            shared: Arc::new(ReactorShared {
                ready: Mutex::new(ReadyQueue::default()),
                ready_hint: AtomicUsize::new(0),
                parked: Condvar::new(),
                timers: Mutex::new(BinaryHeap::new()),
                pending_timers: AtomicUsize::new(0),
                timer_seq: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                counters: ReactorCounters::default(),
            }),
            tasks: Vec::new(),
            live: 0,
        }
    }

    /// Spawns a task; it is immediately ready and will be polled on the
    /// next [`Reactor::run`] iteration.
    pub fn spawn(&mut self, future: impl Future<Output = ()> + Send + 'static) -> TaskId {
        let id = TaskId(self.tasks.len() as u64);
        let scheduled = Arc::new(AtomicBool::new(true));
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            shared: Arc::clone(&self.shared),
            scheduled: Arc::clone(&scheduled),
        }));
        self.tasks.push(Some(TaskSlot {
            future: Box::pin(future),
            waker,
            scheduled,
        }));
        self.live += 1;
        self.shared.counters.spawned.fetch_add(1, Ordering::Relaxed);
        self.shared.push_ready(id);
        id
    }

    /// A handle for shutting the reactor down and sampling its counters
    /// from other threads.
    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A timer handle tasks use to sleep on this reactor.
    pub fn timer(&self) -> TimerHandle {
        TimerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Fires every timer whose deadline has passed; returns the next
    /// pending deadline, if any.
    fn fire_due_timers(&self) -> Option<Instant> {
        // Timers are only registered from this thread (see [`Sleep`]), so a
        // zero count cannot be about to change under us.
        if self.shared.pending_timers.load(Ordering::Acquire) == 0 {
            return None;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        let next = {
            let mut timers = self.shared.timers.lock().expect("reactor lock");
            while let Some(Reverse(head)) = timers.peek() {
                if head.deadline > now {
                    break;
                }
                let Reverse(entry) = timers.pop().expect("peeked entry exists");
                due.push(entry.waker);
            }
            self.shared
                .pending_timers
                .store(timers.len(), Ordering::Release);
            timers.peek().map(|Reverse(e)| e.deadline)
        };
        self.shared
            .counters
            .timers_fired
            .fetch_add(due.len() as u64, Ordering::Relaxed);
        for waker in due {
            waker.wake();
        }
        next
    }

    /// Runs the event loop until every task completes or
    /// [`ReactorHandle::shutdown`] is called. This is the reactor thread's
    /// body; everything else talks to it through wakers and handles.
    pub fn run(mut self) {
        // The ready batch being polled. Swapped with the shared queue under
        // its lock and drained outside it, so both buffers keep their
        // capacity and no iteration allocates.
        let mut batch: VecDeque<TaskId> = VecDeque::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if self.live == 0 {
                return;
            }
            let next_deadline = self.fire_due_timers();

            // Take the current ready batch. Tasks woken while this batch
            // runs land in the next batch.
            {
                let mut ready = self.shared.ready.lock().expect("reactor lock");
                std::mem::swap(&mut ready.queue, &mut batch);
                self.shared.ready_hint.store(0, Ordering::Release);
            }

            if batch.is_empty() {
                // Briefly spin on the lock-free ready hint before parking:
                // a producer mid-burst refills the queue within
                // microseconds, and a park costs a futex wait here plus a
                // futex wake on the producer's commit path — far more than
                // the gap it bridges. Only safe to spin when no timer
                // deadline is pending.
                if next_deadline.is_none() {
                    let mut woke = false;
                    for _ in 0..SPIN_BEFORE_PARK {
                        if self.shared.ready_hint.load(Ordering::Acquire) > 0
                            || self.shared.shutdown.load(Ordering::Acquire)
                        {
                            woke = true;
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    if woke {
                        self.shared
                            .counters
                            .spin_recoveries
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                // Nothing ready: park until a waker fires or the next timer
                // is due. The emptiness check, the announcement and the
                // wait's release of the lock are one critical section, so a
                // waker either pushed before it (and we do not park) or
                // finds `parked` set (and notifies).
                let mut ready = self.shared.ready.lock().expect("reactor lock");
                if ready.queue.is_empty() && !self.shared.shutdown.load(Ordering::Acquire) {
                    let timeout =
                        next_deadline.map(|d| d.saturating_duration_since(Instant::now()));
                    if timeout != Some(Duration::ZERO) {
                        ready.parked = true;
                        let mut ready = match timeout {
                            Some(timeout) => {
                                self.shared
                                    .parked
                                    .wait_timeout(ready, timeout)
                                    .expect("reactor lock")
                                    .0
                            }
                            None => self.shared.parked.wait(ready).expect("reactor lock"),
                        };
                        // A timeout or spurious wake-up ends the park with
                        // the announcement still up.
                        ready.parked = false;
                    }
                }
                continue;
            }

            let mut polls = 0u64;
            for id in batch.drain(..) {
                let Some(entry) = self.tasks.get_mut(id.0 as usize) else {
                    continue;
                };
                let Some(slot) = entry.as_mut() else {
                    continue; // Spurious wake of a completed task.
                };
                // Clear the scheduled flag *before* polling: a wake that
                // arrives mid-poll must re-enqueue the task or its signal
                // would be lost.
                slot.scheduled.store(false, Ordering::Release);
                let mut cx = Context::from_waker(&slot.waker);
                polls += 1;
                if slot.future.as_mut().poll(&mut cx).is_ready() {
                    *entry = None;
                    self.live -= 1;
                    self.shared
                        .counters
                        .completed
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            self.shared.counters.polls.fetch_add(polls, Ordering::Relaxed);
        }
    }
}

/// Cross-thread control handle of a running [`Reactor`].
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<ReactorShared>,
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle").finish_non_exhaustive()
    }
}

impl ReactorHandle {
    /// Asks the reactor loop to exit after its current batch; pending tasks
    /// are abandoned. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Rare, so unconditional — but pass through the `ready` lock first:
        // the reactor checks the flag and parks in one critical section, so
        // once the lock has been ours it has either seen the flag or is
        // already waiting where this notify reaches it.
        drop(self.shared.ready.lock().expect("reactor lock"));
        self.shared.parked.notify_all();
    }

    /// A snapshot of the reactor's counters.
    pub fn stats(&self) -> ReactorStats {
        let c = &self.shared.counters;
        ReactorStats {
            spawned: c.spawned.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            polls: c.polls.load(Ordering::Relaxed),
            wakes: c.wakes.load(Ordering::Relaxed),
            coalesced_wakes: c.coalesced_wakes.load(Ordering::Relaxed),
            timers_fired: c.timers_fired.load(Ordering::Relaxed),
            spin_recoveries: c.spin_recoveries.load(Ordering::Relaxed),
        }
    }
}

/// Cooperatively yields the current task: it re-enqueues itself at the back
/// of the ready queue and resumes only after every other currently-ready
/// task has been polled. This is how a batch-dequeuing apply task with
/// backlog left gives its reactor siblings a turn (the budget re-yield).
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            // The reactor cleared this task's scheduled flag before the
            // poll, so this wake re-enqueues it behind its siblings.
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Handle for creating timer futures on a reactor. Cloneable and cheap;
/// pass one into every task that needs to sleep. The futures must be
/// awaited by tasks of the reactor the handle came from: registering a
/// timer does not wake the reactor thread, which picks new deadlines up
/// when the poll that registered them returns.
#[derive(Clone)]
pub struct TimerHandle {
    shared: Arc<ReactorShared>,
}

impl std::fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerHandle").finish_non_exhaustive()
    }
}

impl TimerHandle {
    /// A future completing after `duration` of wall-clock time.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        Sleep {
            shared: Arc::clone(&self.shared),
            deadline: Instant::now() + duration,
        }
    }

    /// A future completing after `duration` of simulated time, mapping one
    /// simulated microsecond to one wall-clock microsecond — the same
    /// arithmetic [`crate::latency::LatencyModel`] samples use.
    pub fn sleep_sim(&self, duration: SimDuration) -> Sleep {
        self.sleep(Duration::from_micros(duration.as_micros()))
    }
}

/// Future returned by the [`TimerHandle`] sleep constructors.
pub struct Sleep {
    shared: Arc<ReactorShared>,
    deadline: Instant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        // Re-register on every poll: wakers may change between polls, and a
        // stale duplicate entry merely re-polls the task once.
        let seq = self.shared.timer_seq.fetch_add(1, Ordering::Relaxed);
        let mut timers = self.shared.timers.lock().expect("reactor lock");
        timers.push(Reverse(TimerEntry {
            deadline: self.deadline,
            seq,
            waker: cx.waker().clone(),
        }));
        self.shared
            .pending_timers
            .store(timers.len(), Ordering::Release);
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::pipe::{bounded_pipe, OverflowPolicy, UNBOUNDED};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_spawned_tasks_to_completion() {
        let mut reactor = Reactor::new();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            reactor.spawn(async move {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        let handle = reactor.handle();
        reactor.run();
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        let stats = handle.stats();
        assert_eq!(stats.spawned, 10);
        assert_eq!(stats.completed, 10);
        assert!(stats.polls >= 10);
    }

    #[test]
    fn one_reactor_thread_multiplexes_many_pipes() {
        // Four pipes, four parked tasks, one reactor thread: every message
        // sent from the main thread must be consumed by the right task.
        let mut reactor = Reactor::new();
        let mut senders = Vec::new();
        let received: Vec<Arc<AtomicU64>> =
            (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for counter in &received {
            let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
            senders.push(tx);
            let counter = Arc::clone(counter);
            reactor.spawn(async move {
                let mut batch = Vec::new();
                while rx.recv_batch_async(&mut batch, 16).await.drained > 0 {
                    counter.fetch_add(batch.drain(..).sum::<u64>(), Ordering::Relaxed);
                }
            });
        }
        let handle = reactor.handle();
        let thread = std::thread::spawn(move || reactor.run());
        for (i, tx) in senders.iter().enumerate() {
            for v in 0..100u64 {
                tx.send((i as u64 + 1) * 1000 + v).unwrap();
            }
        }
        drop(senders); // Disconnect: every task drains and completes.
        thread.join().unwrap();
        for (i, counter) in received.iter().enumerate() {
            let expected: u64 = (0..100u64).map(|v| (i as u64 + 1) * 1000 + v).sum();
            assert_eq!(counter.load(Ordering::Relaxed), expected, "pipe {i}");
        }
        let stats = handle.stats();
        assert_eq!(stats.completed, 4);
        assert!(stats.wakes > 0);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut reactor = Reactor::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let timer = reactor.timer();
        for (label, ms) in [(3u8, 30u64), (1, 5), (2, 15)] {
            let order = Arc::clone(&order);
            let timer = timer.clone();
            reactor.spawn(async move {
                timer.sleep(Duration::from_millis(ms)).await;
                order.lock().unwrap().push(label);
            });
        }
        let handle = reactor.handle();
        reactor.run();
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3]);
        assert!(handle.stats().timers_fired >= 3);
    }

    #[test]
    fn sleep_sim_maps_microseconds_one_to_one() {
        let mut reactor = Reactor::new();
        let timer = reactor.timer();
        let elapsed = Arc::new(Mutex::new(Duration::ZERO));
        let out = Arc::clone(&elapsed);
        reactor.spawn(async move {
            let start = Instant::now();
            timer.sleep_sim(SimDuration::from_millis(20)).await;
            *out.lock().unwrap() = start.elapsed();
        });
        reactor.run();
        let took = *elapsed.lock().unwrap();
        assert!(took >= Duration::from_millis(20), "slept only {took:?}");
    }

    #[test]
    fn latency_model_samples_drive_reactor_sleeps() {
        let mut reactor = Reactor::new();
        let timer = reactor.timer();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        reactor.spawn(async move {
            let mut rng = StdRng::seed_from_u64(5);
            let model = LatencyModel::Uniform {
                min: SimDuration::from_micros(100),
                max: SimDuration::from_millis(2),
            };
            for _ in 0..5 {
                timer.sleep_sim(model.sample(&mut rng)).await;
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
        reactor.run();
        assert_eq!(fired.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn shutdown_abandons_parked_tasks() {
        let mut reactor = Reactor::new();
        let (_tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        reactor.spawn(async move {
            // Parks forever: the sender is never dropped nor written to.
            let _ = rx.recv_batch_async(&mut Vec::new(), 1).await;
        });
        let handle = reactor.handle();
        let thread = std::thread::spawn(move || reactor.run());
        // Test-only wall-clock coordination: let the reactor park first.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(10));
        handle.shutdown();
        thread.join().unwrap();
        let stats = handle.stats();
        assert_eq!(stats.spawned, 1);
        assert_eq!(stats.completed, 0, "the parked task was abandoned");
    }

    #[test]
    fn task_id_displays() {
        assert_eq!(TaskId(3).to_string(), "task3");
    }
}
