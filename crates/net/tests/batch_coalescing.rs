//! No-lost-wakeup coverage for the batch-dequeue / waker-coalescing path.
//!
//! The coalescing optimisation (a pipe with a wakeup already in flight
//! skips re-firing the receiver's waker; the reactor's per-task scheduled
//! flag absorbs duplicate ready-queue pushes) is only correct if it can
//! never swallow the *last* wakeup: every sent message must eventually be
//! drained and applied, no matter how sends, coalesced wakes and drains
//! interleave. Two layers pin that down:
//!
//! 1. a property test replaying random send-burst / budget schedules
//!    through a real reactor and asserting every message is applied in
//!    order;
//! 2. an 8-producer stress test racing real threads against the single
//!    reactor consumer, checked against a sequential per-producer oracle.
//!
//! The same holds for the condvar notifies the message path guards with a
//! waiter count or the reactor's parked flag (a notify nobody waits for is
//! a wasted system call; a skipped notify somebody waits for is a hang).
//! The second half of this file pins each guard from the waiter's side:
//! senders blocked on a full `Block` pipe, and a reactor thread that parks
//! between wakes. Every wait there runs under a watchdog, so a wrong guard
//! fails the test instead of hanging the suite.

mod common;

use common::{spin_until, within_watchdog};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tcache_net::pipe::{
    bounded_pipe, BatchDrain, BatchOutcome, OverflowPolicy, PipeReceiver, PipeSender, UNBOUNDED,
};
use tcache_net::reactor::{yield_now, Reactor};

/// Spawns a batch-draining consumer task mirroring the delivery loop's
/// shape (drain up to `budget`, apply, re-yield if backlog remains). The
/// receiver arrives in an `Arc` so tests can keep a handle for stats
/// without keeping a sender (and the pipe) alive.
fn spawn_batch_consumer(
    reactor: &mut Reactor,
    rx: Arc<tcache_net::pipe::PipeReceiver<u64>>,
    budget: usize,
    applied: Arc<Mutex<Vec<u64>>>,
) {
    reactor.spawn(async move {
        let mut batch = Vec::new();
        loop {
            let drain = rx.recv_batch_async(&mut batch, budget).await;
            if drain.drained == 0 {
                return;
            }
            applied.lock().unwrap().extend(batch.drain(..));
            if drain.backlog > 0 {
                rx.note_budget_yield();
                yield_now().await;
            }
        }
    });
}

proptest! {
    /// Random interleavings of send bursts (from another thread, racing
    /// the reactor's drains and coalesced wakes) never lose a message:
    /// every send is eventually applied, in order.
    #[test]
    fn random_burst_schedules_lose_no_wakeup(
        bursts in prop::collection::vec(1usize..40, 1..30),
        budget in 1usize..128,
        capacity_choice in 0u32..3,
    ) {
        let capacity = match capacity_choice {
            0 => UNBOUNDED,
            1 => 8,
            _ => 64,
        };
        let (tx, rx) = bounded_pipe::<u64>(capacity, OverflowPolicy::Block);
        let mut reactor = Reactor::new();
        let applied = Arc::new(Mutex::new(Vec::new()));
        spawn_batch_consumer(&mut reactor, Arc::new(rx), budget, Arc::clone(&applied));
        let total: usize = bursts.iter().sum();
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            for burst in bursts {
                for _ in 0..burst {
                    tx.send(next).unwrap();
                    next += 1;
                }
                // Let the consumer race ahead between bursts so schedules
                // cover both backlog drains and empty-pipe re-parks.
                std::thread::yield_now();
            }
        });
        reactor.run(); // Exits once the producer drops its sender.
        producer.join().unwrap();
        let applied = applied.lock().unwrap();
        prop_assert_eq!(
            &*applied,
            &(0..total as u64).collect::<Vec<_>>(),
            "a coalesced wakeup was lost or reordered"
        );
    }
}

/// Eight producer threads race the single reactor consumer through one
/// shared pipe; the applied stream must interleave the eight sequential
/// per-producer oracles exactly (each producer's messages in order, none
/// lost, none duplicated).
#[test]
fn eight_producer_stress_matches_sequential_oracle() {
    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 5_000;
    let (tx, rx) = bounded_pipe::<u64>(256, OverflowPolicy::Block);
    let mut reactor = Reactor::new();
    let applied = Arc::new(Mutex::new(Vec::with_capacity(
        (PRODUCERS * PER_PRODUCER) as usize,
    )));
    spawn_batch_consumer(&mut reactor, Arc::new(rx), 64, Arc::clone(&applied));
    let barrier = Arc::new(std::sync::Barrier::new(PRODUCERS as usize));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let tx = tx.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_PRODUCER {
                    // Tag = producer in the high bits, sequence in the low.
                    tx.send(p << 32 | i).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let reactor_thread = std::thread::spawn(move || reactor.run());
    for h in producers {
        h.join().unwrap();
    }
    reactor_thread.join().unwrap();

    let applied = applied.lock().unwrap();
    assert_eq!(applied.len() as u64, PRODUCERS * PER_PRODUCER);
    // Sequential oracle: replay each producer's loop and demand the applied
    // stream restricted to that producer equals it exactly.
    let mut next_expected = [0u64; PRODUCERS as usize];
    for &tagged in applied.iter() {
        let producer = (tagged >> 32) as usize;
        let seq = tagged & 0xFFFF_FFFF;
        assert_eq!(
            seq, next_expected[producer],
            "producer {producer}'s stream was reordered or lost a message"
        );
        next_expected[producer] += 1;
    }
    assert!(next_expected.iter().all(|&n| n == PER_PRODUCER));
}

/// Deterministic coalescing accounting: with the receiver's waker parked, a
/// 5-send burst fires exactly one wakeup and coalesces the other four.
#[test]
fn burst_sends_coalesce_into_one_wakeup() {
    use std::future::Future;
    use std::pin::pin;
    use std::task::{Context, Poll, Wake, Waker};

    struct CountWaker(AtomicU64);
    impl Wake for CountWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
    let fires = Arc::new(CountWaker(AtomicU64::new(0)));
    let waker = Waker::from(Arc::clone(&fires));
    let mut cx = Context::from_waker(&waker);
    let mut buf = Vec::new();

    // Park the receiver: the first poll registers the waker.
    {
        let mut fut = pin!(rx.recv_batch_async(&mut buf, 16));
        assert_eq!(fut.as_mut().poll(&mut cx), Poll::Pending);
    }
    for i in 0..5u64 {
        tx.send(i).unwrap();
    }
    assert_eq!(
        fires.0.load(Ordering::Relaxed),
        1,
        "exactly one wakeup fires for the whole burst"
    );
    assert_eq!(tx.stats().coalesced_wakeups, 4, "the other four coalesce");

    // The single wakeup services the whole backlog in one drain.
    {
        let mut fut = pin!(rx.recv_batch_async(&mut buf, 16));
        assert_eq!(
            fut.as_mut().poll(&mut cx),
            Poll::Ready(BatchDrain {
                drained: 5,
                backlog: 0
            })
        );
    }
    assert_eq!(buf, vec![0, 1, 2, 3, 4]);
    let stats = tx.stats();
    assert_eq!(stats.batched_polls, 1);
    assert_eq!(stats.max_drain, 5);
    assert_eq!(stats.received, 5);
    assert!((stats.mean_drain() - 5.0).abs() < 1e-9);

    // After the drain the pending-wakeup flag is cleared: a fresh send
    // fires a fresh wakeup once the receiver re-parks.
    {
        let mut fut = pin!(rx.recv_batch_async(&mut buf, 16));
        assert_eq!(fut.as_mut().poll(&mut cx), Poll::Pending);
    }
    tx.send(99).unwrap();
    assert_eq!(fires.0.load(Ordering::Relaxed), 2);
    assert_eq!(tx.stats().coalesced_wakeups, 4, "no extra coalescing");
}

/// Deterministic budget accounting: a pre-filled 100-deep backlog drained
/// with budget 16 takes seven batch polls and re-yields after each of the
/// six full batches that left backlog behind.
#[test]
fn budget_yields_are_counted_per_full_batch_with_backlog() {
    let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
    for i in 0..100u64 {
        tx.send(i).unwrap();
    }
    let mut reactor = Reactor::new();
    let applied = Arc::new(Mutex::new(Vec::new()));
    spawn_batch_consumer(&mut reactor, Arc::new(rx), 16, Arc::clone(&applied));
    let thread = std::thread::spawn(move || reactor.run());
    spin_until("the backlog is applied", || {
        applied.lock().unwrap().len() == 100
    });
    // The sender stays alive until the counters are read, so the consumer
    // is parked on an empty pipe, not finished.
    let stats = tx.stats();
    drop(tx);
    thread.join().unwrap();
    assert_eq!(stats.batched_polls, 7, "ceil(100 / 16) drains");
    assert_eq!(stats.max_drain, 16);
    assert_eq!(
        stats.budget_yields, 6,
        "every full batch with backlog left re-yields"
    );
    assert_eq!(stats.coalesced_wakeups, 0, "no waker was ever parked");
}

/// Fills a capacity-1 `Block` pipe, parks `k` senders on it (message `0`
/// occupies the slot, sender `i` carries message `i`), and returns once
/// every one of them is inside its `not_full` wait: `stalled_sends` is
/// bumped under the pipe lock just before the wait releases it, so any
/// receive issued after this returns is ordered behind all `k` waits.
fn park_senders_on_a_full_pipe(
    k: u64,
) -> (
    PipeReceiver<u64>,
    Vec<std::thread::JoinHandle<BatchOutcome>>,
) {
    let (tx, rx) = bounded_pipe::<u64>(1, OverflowPolicy::Block);
    tx.send(0).unwrap();
    let senders: Vec<_> = (1..=k)
        .map(|i| {
            let tx: PipeSender<u64> = tx.clone();
            std::thread::spawn(move || tx.send_batch([i]))
        })
        .collect();
    spin_until("every sender parks", || tx.stats().stalled_sends == k);
    (rx, senders)
}

/// `K` senders parked on a full capacity-1 `Block` pipe must all get
/// through when the reactor's batch receive frees slots: each drain has to
/// notify `not_full` because a sender is waiting on it, or nobody ever
/// sends again and the task stays pending forever.
#[test]
fn blocked_senders_are_released_by_recv_batch_async() {
    const K: u64 = 6;
    let mut got = within_watchdog("recv_batch_async against parked senders", || {
        let (rx, senders) = park_senders_on_a_full_pipe(K);
        let applied = Arc::new(Mutex::new(Vec::new()));
        let mut reactor = Reactor::new();
        spawn_batch_consumer(&mut reactor, Arc::new(rx), 4, Arc::clone(&applied));
        // Every sender drops its handle after its send, which ends the task.
        reactor.run();
        for sender in senders {
            let sent = sender.join().unwrap();
            assert!(sent.stalled && sent.enqueued == 1, "{sent:?}");
        }
        let got = applied.lock().unwrap().clone();
        got
    });
    got.sort_unstable();
    assert_eq!(got, (0..=K).collect::<Vec<_>>());
}

/// Dropping the receiver releases every parked sender, each told that its
/// message was dropped.
#[test]
fn blocked_senders_are_released_by_receiver_drop() {
    const K: u64 = 6;
    let released = within_watchdog("receiver drop against parked senders", || {
        let (rx, senders) = park_senders_on_a_full_pipe(K);
        drop(rx);
        senders
            .into_iter()
            .map(|sender| sender.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(released.len() as u64, K);
    for sent in released {
        assert!(
            sent.stalled && sent.disconnected && sent.enqueued == 0,
            "{sent:?}"
        );
    }
}

/// A reactor whose only task is woken from another thread, with randomized
/// 0–200 µs gaps between wakes, for 20k rounds. The gaps straddle the
/// reactor's spin-before-park window, so wakes land while it is polling,
/// spinning, between its empty-queue check and the park, and fully parked.
/// The waker notifies the condvar only when it finds the parked flag set;
/// if that flag could be missed the reactor would sleep through a wake,
/// the acknowledgement would never come, and the watchdog fires.
#[test]
fn cross_thread_wakes_never_strand_a_parking_reactor() {
    const ROUNDS: u64 = 20_000;
    let completed = within_watchdog("cross-thread wake stress", || {
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        let acked = Arc::new(AtomicU64::new(0));
        let mut reactor = Reactor::new();
        let task_acked = Arc::clone(&acked);
        reactor.spawn(async move {
            let mut rounds = Vec::new();
            while rx.recv_batch_async(&mut rounds, 16).await.drained > 0 {
                let last = *rounds.last().expect("drained at least one");
                rounds.clear();
                task_acked.store(last + 1, Ordering::Release);
            }
        });
        let handle = reactor.handle();
        let thread = std::thread::spawn(move || reactor.run());
        let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
        for round in 0..ROUNDS {
            // Busy-wait the gap: a sleep would round it up to the timer
            // slack and miss the window the test is aimed at.
            let gap = Duration::from_nanos(rng.gen_range(0..200_000u64));
            let resume = Instant::now() + gap;
            while Instant::now() < resume {
                std::hint::spin_loop();
            }
            tx.send(round).unwrap();
            spin_until("the reactor handles the wake", || {
                acked.load(Ordering::Acquire) == round + 1
            });
        }
        drop(tx);
        thread.join().unwrap();
        handle.stats().completed
    });
    assert_eq!(completed, 1, "the task drained every round and completed");
}
