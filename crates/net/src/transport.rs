//! Live transport for the prototype mode.
//!
//! The discrete-event channel in [`crate::channel`] is what the simulation
//! harness uses; this module provides the equivalent building block for a
//! live deployment where the database and the cache run on separate threads
//! (or share one reactor thread, see [`crate::reactor`]) and invalidations
//! flow over a real queue.
//!
//! The queue underneath is a bounded pipe ([`BoundedPipe`]): [`live_channel`]
//! keeps the historical unbounded shape, [`live_channel_with`] bounds the
//! pipe and picks an [`OverflowPolicy`], which is how a live deployment gets
//! backpressure (or bounded staleness) instead of an ever-growing queue
//! behind a slow cache.
//!
//! The channel itself is *reliable*: it transports every message the
//! publisher enqueues (modulo the pipe's overflow policy). The unreliable
//! behaviour of the paper's invalidation links — loss and delay — is
//! modeled at the receiving end by the reactor delivery tasks
//! ([`crate::delivery`]), which draw per-cache seeded drop decisions and
//! sleep sampled delays before applying. Earlier revisions drew loss
//! decisions inline in the sender; that path is gone — one model, one
//! place.
//!
//! [`BoundedPipe`]: crate::pipe::bounded_pipe

use crate::pipe::{
    bounded_pipe, OverflowPolicy, PipeReceiver, PipeSender, PipeStatsSnapshot, RecvBatchFuture,
    RecvFuture, UNBOUNDED,
};
use tcache_db::Invalidation;

/// Sending half of a live invalidation channel. Cloneable so the database
/// façade and background flusher threads can share it.
#[derive(Debug, Clone)]
pub struct LiveSender {
    tx: PipeSender<Invalidation>,
}

/// Receiving half of a live invalidation channel, owned by the cache's
/// invalidation-upcall thread or reactor task.
#[derive(Debug)]
pub struct LiveReceiver {
    rx: PipeReceiver<Invalidation>,
}

/// A live send's outcome, for publish-side attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SendReport {
    /// Messages enqueued onto the pipe (under `DropOldest` this includes
    /// sends that evicted a pending message to make room).
    pub enqueued: usize,
    /// Messages lost to pipe overflow: incoming messages rejected by
    /// `DropNewest` plus pending messages evicted by `DropOldest`.
    pub overflowed: usize,
}

/// Creates a connected live sender/receiver pair over an unbounded pipe.
pub fn live_channel() -> (LiveSender, LiveReceiver) {
    live_channel_with(UNBOUNDED, OverflowPolicy::Block)
}

/// Creates a connected live sender/receiver pair whose pipe holds at most
/// `capacity` messages, applying `policy` when full.
pub fn live_channel_with(capacity: usize, policy: OverflowPolicy) -> (LiveSender, LiveReceiver) {
    let (tx, rx) = bounded_pipe(capacity, policy);
    (LiveSender { tx }, LiveReceiver { rx })
}

impl LiveSender {
    /// Sends a batch of invalidations, applying the pipe's overflow policy,
    /// and returns the number actually enqueued. The batch flows straight
    /// from the caller's iterator — no intermediate buffering, no locks, so
    /// cloned senders on other threads enqueue concurrently.
    pub fn send(&self, invalidations: impl IntoIterator<Item = Invalidation>) -> usize {
        self.send_report(invalidations).enqueued
    }

    /// Like [`LiveSender::send`], reporting overflow alongside the enqueued
    /// count so the publisher can attribute what happened.
    pub fn send_report(&self, invalidations: impl IntoIterator<Item = Invalidation>) -> SendReport {
        let mut report = SendReport::default();
        for inv in invalidations {
            // A send only fails if the receiver is gone, which simply means
            // the cache has shut down — the paper's channel is best-effort,
            // so dropping is the correct behaviour.
            if let Ok(outcome) = self.tx.send(inv) {
                if outcome.was_enqueued() {
                    report.enqueued += 1;
                }
                if outcome.lost_a_message() {
                    report.overflowed += 1;
                }
            }
        }
        report
    }

    /// Number of invalidations currently queued in the pipe.
    pub fn backlog(&self) -> usize {
        self.tx.len()
    }

    /// The pipe's counters (enqueued / evicted / rejected / stalls).
    pub fn pipe_stats(&self) -> PipeStatsSnapshot {
        self.tx.stats()
    }
}

impl LiveReceiver {
    /// Receives every invalidation currently queued without blocking.
    pub fn drain(&self) -> Vec<Invalidation> {
        self.rx.drain()
    }

    /// Blocks until one invalidation arrives or the sender side is dropped.
    pub fn recv(&self) -> Option<Invalidation> {
        self.rx.recv()
    }

    /// Asynchronously receives the next invalidation; resolves to `None`
    /// once every sender is dropped and the queue is drained. Poll this
    /// from a [`crate::reactor`] task to multiplex many receivers on one
    /// thread.
    pub fn recv_async(&self) -> RecvFuture<'_, Invalidation> {
        self.rx.recv_async()
    }

    /// Asynchronously waits for traffic, then drains up to `max` queued
    /// invalidations into `buf` in one poll; resolves to how many it drained
    /// (`0` once every sender is dropped and the queue is empty) and how
    /// many it left queued ([`crate::pipe::BatchDrain`]). The
    /// batch-dequeue counterpart of [`LiveReceiver::recv_async`].
    pub fn recv_batch_async<'a>(
        &'a self,
        buf: &'a mut Vec<Invalidation>,
        max: usize,
    ) -> RecvBatchFuture<'a, Invalidation> {
        self.rx.recv_batch_async(buf, max)
    }

    /// Number of invalidations currently queued.
    pub fn backlog(&self) -> usize {
        self.rx.len()
    }

    /// The pipe's counters (enqueued / evicted / rejected / stalls).
    pub fn pipe_stats(&self) -> PipeStatsSnapshot {
        self.rx.stats()
    }

    /// Unwraps the underlying pipe receiver, e.g. to hand it to a modeled
    /// delivery task ([`crate::delivery::run_delivery`]).
    pub fn into_pipe_receiver(self) -> PipeReceiver<Invalidation> {
        self.rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::{ObjectId, TxnId, Version};

    fn inv(o: u64) -> Invalidation {
        Invalidation::new(ObjectId(o), Version(1), TxnId(1))
    }

    #[test]
    fn channel_delivers_everything() {
        let (tx, rx) = live_channel();
        let sent = tx.send((0..100).map(inv));
        assert_eq!(sent, 100);
        assert_eq!(rx.drain().len(), 100);
        assert!(rx.drain().is_empty());
    }

    #[test]
    fn batches_flow_straight_from_the_iterator() {
        // A one-shot iterator (not a collected Vec) flows straight through.
        let (tx, rx) = live_channel();
        let report = tx.send_report(std::iter::from_fn({
            let mut n = 0u64;
            move || {
                n += 1;
                (n <= 10).then(|| inv(n))
            }
        }));
        assert_eq!(report.enqueued, 10);
        assert_eq!(report.overflowed, 0);
        assert_eq!(tx.backlog(), 10);
        assert_eq!(rx.drain().len(), 10);
    }

    #[test]
    fn bounded_channel_reports_overflow_per_policy() {
        let (tx, rx) = live_channel_with(3, OverflowPolicy::DropNewest);
        let report = tx.send_report((0..10).map(inv));
        assert_eq!(report.enqueued, 3);
        assert_eq!(report.overflowed, 7);
        assert_eq!(rx.pipe_stats().rejected, 7);
        let kept: Vec<_> = rx.drain().iter().map(|i| i.object).collect();
        assert_eq!(kept, vec![ObjectId(0), ObjectId(1), ObjectId(2)]);

        let (tx, rx) = live_channel_with(3, OverflowPolicy::DropOldest);
        let report = tx.send_report((0..10).map(inv));
        // Every message was enqueued, but seven sends evicted a pending
        // message to make room — each one a lost invalidation, attributed.
        assert_eq!(report.enqueued, 10);
        assert_eq!(report.overflowed, 7);
        assert_eq!(rx.pipe_stats().evicted, 7);
        let kept: Vec<_> = rx.drain().iter().map(|i| i.object).collect();
        assert_eq!(kept, vec![ObjectId(7), ObjectId(8), ObjectId(9)]);
    }

    #[test]
    fn recv_blocks_until_message_or_disconnect() {
        let (tx, rx) = live_channel();
        let handle = std::thread::spawn(move || rx.recv());
        tx.send(vec![inv(7)]);
        let got = handle.join().unwrap();
        assert_eq!(got.map(|i| i.object), Some(ObjectId(7)));

        let (tx, rx) = live_channel();
        drop(tx);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn concurrent_sender_clones_do_not_serialize() {
        // Regression guard from the era when a loss mutex was held across
        // enqueues: sender A's input iterator yields its second item only
        // after sender B's send has completed. Nothing serializes the two
        // senders, so this must complete.
        let (tx, rx) = live_channel();
        let a = tx.clone();
        let b = tx.clone();
        let (b_done_tx, b_done_rx) = std::sync::mpsc::channel::<()>();

        let handle_a = std::thread::spawn(move || {
            let mut yielded = 0u64;
            let blocking_iter = std::iter::from_fn(move || {
                yielded += 1;
                match yielded {
                    1 => Some(inv(1)),
                    2 => {
                        // Wait until B's send went through before yielding.
                        b_done_rx.recv().expect("B completes");
                        Some(inv(2))
                    }
                    _ => None,
                }
            });
            a.send(blocking_iter)
        });
        let handle_b = std::thread::spawn(move || {
            let sent = b.send((100..200).map(inv));
            b_done_tx.send(()).expect("A is waiting");
            sent
        });
        assert_eq!(handle_a.join().unwrap(), 2);
        assert_eq!(handle_b.join().unwrap(), 100);
        assert_eq!(rx.drain().len(), 102);
    }

    #[test]
    fn many_contending_clones_deliver_everything() {
        let (tx, rx) = live_channel();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let tx = tx.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..4)
                        .map(|round| tx.send((0..250).map(|i| inv(t * 10_000 + round * 1000 + i))))
                        .sum::<usize>()
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 8_000);
        assert_eq!(rx.drain().len(), 8_000);
    }

    #[test]
    fn sender_is_cloneable_across_threads() {
        let (tx, rx) = live_channel();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                tx.send((0..50).map(|i| inv(t * 100 + i)))
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 200);
        assert_eq!(rx.drain().len(), 200);
    }
}
