//! A [`Link`] serving one stream on two kinds of thread: the reactor task
//! behind the pipe, and whichever thread offered a batch the pipe handed
//! off. Whatever the mix, the cache at the far end must see what it would
//! from the task alone — every message exactly once, in pipe order, dropped
//! by the same seeded draws, and accounted for before it is applied.
//!
//! The queue path is forced with `set_paused` / a delay spike, never with
//! timing, and every wait runs under a watchdog, so a broken hand-off guard
//! fails the test instead of flaking or hanging it.

mod common;

use common::{spin_until, within_watchdog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tcache_net::delivery::{DeliveryModel, DeliveryTask, Link};
use tcache_net::pipe::{bounded_pipe, OverflowPolicy, PipeSender};
use tcache_net::reactor::{Reactor, ReactorHandle};
use tcache_net::{LossModel, LossState};
use tcache_types::{cache_channel_seed, CacheId, SimDuration};

/// A link over a `Block` pipe of `capacity` with its delivery task running
/// on a reactor thread. Every apply, on either path, first checks that the
/// pipe has counted every message of the batch being applied as received
/// while the link has not yet finished with any of them, and then records
/// the batch.
struct Harness {
    link: Arc<Link<u64>>,
    applied: Arc<Mutex<Vec<u64>>>,
    /// `apply` calls that carried more than one message (only a hand-off
    /// can: the task applies one message per call).
    multi_message_applies: Arc<AtomicU64>,
    handle: ReactorHandle,
    thread: std::thread::JoinHandle<()>,
}

impl Harness {
    fn start(model: DeliveryModel, loss_seed: u64, capacity: usize) -> Self {
        let (tx, rx) = bounded_pipe::<u64>(capacity, OverflowPolicy::Block);
        let task = DeliveryTask::new(model, loss_seed, loss_seed ^ 0xdead_beef);
        let applied = Arc::new(Mutex::new(Vec::new()));
        let multi_message_applies = Arc::new(AtomicU64::new(0));
        let apply = {
            let stats_of: PipeSender<u64> = tx.clone();
            let counters = Arc::clone(&task.counters);
            let applied = Arc::clone(&applied);
            let multi = Arc::clone(&multi_message_applies);
            move |batch: &[u64]| {
                let processed = counters.processed();
                let received = stats_of.stats().received;
                assert!(
                    received >= processed + batch.len() as u64,
                    "batch {batch:?} applied with pipe.received {received} < processed {processed} + its length"
                );
                if batch.len() > 1 {
                    multi.fetch_add(1, Ordering::Relaxed);
                }
                applied.lock().unwrap().extend_from_slice(batch);
            }
        };
        let link = Link::new(tx, task, apply);
        let mut reactor = Reactor::new();
        reactor.spawn(link.deliver(rx, reactor.timer()));
        let handle = reactor.handle();
        let thread = std::thread::spawn(move || reactor.run());
        Harness {
            link: Arc::new(link),
            applied,
            multi_message_applies,
            handle,
            thread,
        }
    }

    fn direct(&self) -> u64 {
        self.link.pipe_stats().direct
    }

    /// Waits for everything in flight, stops the reactor (the apply closure
    /// keeps a sender for its stats, so the pipe never disconnects) and
    /// returns what was applied, in order.
    fn finish(self) -> (Vec<u64>, Arc<Link<u64>>) {
        spin_until("the link settles", || self.link.is_idle());
        self.handle.shutdown();
        self.thread.join().expect("reactor thread");
        let applied = self.applied.lock().unwrap().clone();
        (applied, self.link)
    }
}

/// Four producers offer to one link while the main thread keeps pausing and
/// resuming it, so the stream is served partly by the producers themselves
/// and partly by the reactor task — including a stretch in which the paused
/// link's full `Block` pipe stalls them. Against the sequential oracle:
/// every message exactly once, each producer's messages in its own order,
/// the pipe's books balanced, and (inside the harness's apply) every message
/// counted received before it is applied.
#[test]
fn four_producers_on_both_paths_match_the_sequential_oracle() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 20_000;
    const CAPACITY: usize = 256;
    within_watchdog("four producers against one link", || {
        let harness = Harness::start(DeliveryModel::reliable(), 1, CAPACITY);
        let link = &harness.link;
        // Warm up until the task is known to be waiting, so the hand-off
        // path has served something whatever happens next.
        let mut warmup = 0u64;
        spin_until("the first hand-off", || {
            assert_eq!(link.offer(&[u64::MAX - warmup], true).enqueued, 1);
            warmup += 1;
            harness.direct() > 0
        });
        // Start the producers against a paused link: nothing is handed off
        // until the pipe has filled and stalled one of them, so at least a
        // pipe's worth of messages takes the queue.
        link.set_paused(true);
        let direct_while_paused = harness.direct();
        let finished = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let link = Arc::clone(link);
                let finished = Arc::clone(&finished);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        assert_eq!(link.offer(&[p << 32 | i], true).enqueued, 1);
                    }
                    finished.fetch_add(1, Ordering::Release);
                })
            })
            .collect();
        spin_until("a producer stalls on the paused link's pipe", || {
            link.pipe_stats().stalled_sends > 0
        });
        assert_eq!(
            harness.direct(),
            direct_while_paused,
            "a paused link was handed off to"
        );
        link.set_paused(false);
        // Keep flipping between the two paths until the producers are done.
        let all_done = || finished.load(Ordering::Acquire) == PRODUCERS;
        while !all_done() {
            let target = harness.direct() + 500;
            spin_until("the link returns to hand-off", || {
                harness.direct() >= target || all_done()
            });
            link.set_paused(true);
            for _ in 0..50 {
                std::thread::yield_now();
            }
            link.set_paused(false);
        }
        for producer in producers {
            producer.join().unwrap();
        }
        let (applied, link) = harness.finish();

        let total = PRODUCERS * PER_PRODUCER + warmup;
        assert_eq!(applied.len() as u64, total, "exactly once");
        let mut next_expected = [0u64; PRODUCERS as usize];
        for &tagged in applied.iter().filter(|&&m| m >> 32 < PRODUCERS) {
            let producer = (tagged >> 32) as usize;
            assert_eq!(
                tagged & 0xFFFF_FFFF,
                next_expected[producer],
                "producer {producer}'s stream was reordered, duplicated or lost a message"
            );
            next_expected[producer] += 1;
        }
        assert!(next_expected.iter().all(|&n| n == PER_PRODUCER));
        let (pipe, delivery) = (link.pipe_stats(), link.delivery_stats());
        assert_eq!(pipe.enqueued, total);
        assert_eq!(pipe.enqueued, delivery.dropped + delivery.delivered);
        assert_eq!(pipe.received, delivery.offered);
        assert!(
            pipe.direct > 0 && pipe.direct <= total - CAPACITY as u64,
            "both paths served: {pipe:?}"
        );
    });
}

/// The seeded-loss oracle of `delivery.rs`'s
/// `drop_pattern_matches_the_seeded_loss_oracle_exactly`, over a stream
/// both paths serve: the k-th message offered consumes the k-th draw of the
/// link's loss stream whichever thread serves it, so the survivors are
/// bit-identical to `LossState` replayed over the seed. A paused link and a
/// link with a spike up are never handed off to. Offers are batches of one
/// to four messages: a handed-off batch draws its messages' decisions in
/// order and applies its survivors in one call.
#[test]
fn drop_pattern_matches_the_seeded_loss_oracle_on_both_paths() {
    let seed = cache_channel_seed(42, CacheId(1));
    let (applied, offered, direct) = within_watchdog("seeded loss on both paths", move || {
        let harness = Harness::start(
            DeliveryModel::uniform(0.4, SimDuration::ZERO),
            seed,
            1 << 20,
        );
        let link = Arc::clone(&harness.link);
        let mut next = 0u64;
        let mut offer = |count: u64| {
            let end = next + count;
            while next < end {
                // Batches of one to four messages, as commits publish them.
                let len = (1 + next % 4).min(end - next);
                let batch: Vec<u64> = (next..next + len).collect();
                assert_eq!(link.offer(&batch, true).enqueued, len);
                next += len;
            }
        };
        for round in 0..24 {
            // Served here: offer until fifty more messages were handed off
            // (the first few after a queued stretch may still queue behind
            // the task's backlog). Offer only once the link is idle: an
            // offering thread that outpaces the task keeps the queue
            // non-empty, and nothing is handed off past a queue.
            let target = harness.direct() + 50;
            spin_until("the link returns to hand-off", || {
                if harness.link.is_idle() {
                    offer(6);
                }
                harness.direct() >= target
            });
            // Served by the task: the link has something to wait for.
            let before = harness.direct();
            if round % 2 == 0 {
                harness.link.set_paused(true);
                offer(100);
                assert_eq!(harness.direct(), before, "a paused link was handed off to");
                harness.link.set_paused(false);
            } else {
                harness.link.set_extra_delay(SimDuration::from_micros(1));
                offer(20);
                assert_eq!(harness.direct(), before, "a spiked link was handed off to");
                harness.link.set_extra_delay(SimDuration::ZERO);
                // A spike is a latency: zero-delay offers made while spiked
                // messages are in flight may land first. Let them land, so
                // the stream stays in pipe order for the oracle.
                spin_until("the spiked messages land", || harness.link.is_idle());
            }
        }
        let offered = next;
        // A handed-off batch's survivors arrive in one apply call.
        assert!(harness.multi_message_applies.load(Ordering::Relaxed) > 0);
        let (applied, link) = harness.finish();
        let (pipe, delivery) = (link.pipe_stats(), link.delivery_stats());
        assert_eq!(delivery.offered, offered);
        assert_eq!(delivery.dropped + delivery.delivered, offered);
        assert_eq!(delivery.delivered, applied.len() as u64);
        (applied, offered, pipe.direct)
    });

    let mut oracle_rng = StdRng::seed_from_u64(seed);
    let mut oracle = LossState::new(LossModel::uniform(0.4));
    let survivors: Vec<u64> = (0..offered)
        .filter(|_| !oracle.should_drop(&mut oracle_rng))
        .collect();
    assert_eq!(applied, survivors);
    assert!(
        direct >= 24 * 50 && direct <= offered - 12 * 120,
        "both paths served: {direct} of {offered} direct"
    );
}
