//! Bounded in-memory invalidation log with replay-from-sequence.
//!
//! Every committed update's invalidation batch passes through the log
//! before it is published: the log stamps each invalidation with the next
//! position in the database's totally ordered stream and retains a bounded
//! suffix of that stream. A cache that detects a sequence gap (after a
//! drop, a crash, or a partition) asks the database to replay everything
//! after the last sequence number it applied; when the requested suffix has
//! been truncated away, the cache falls back to a versioned snapshot resync
//! (clear and re-fetch on demand) instead.
//!
//! The log is the seam for a future durable storage engine: today it is a
//! mutex-protected ring buffer, but the replay contract —
//! [`InvalidationLog::replay_after`] returning either the exact suffix or
//! `Truncated` — is what a persistent implementation would keep.

use crate::invalidation::{Invalidation, InvalidationBatch};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Result of asking the log for everything after a sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidationReplay {
    /// The complete suffix `(after_seq, latest]`, in stream order. Empty
    /// when the caller is already up to date.
    Replayed(Vec<Invalidation>),
    /// The suffix is no longer fully retained; the caller must resync from
    /// a snapshot and treat `latest` as its new stream position.
    Truncated {
        /// The newest sequence number the stream has reached.
        latest: u64,
    },
}

#[derive(Debug, Default)]
struct LogState {
    /// Retained suffix of the stream, oldest first, contiguous by `seq`.
    retained: VecDeque<Invalidation>,
    /// Last sequence number handed out; the stream starts at 1.
    latest: u64,
}

/// Bounded, totally ordered log of published invalidations.
#[derive(Debug)]
pub struct InvalidationLog {
    state: Mutex<LogState>,
    capacity: usize,
}

impl InvalidationLog {
    /// Creates a log retaining at most `capacity` invalidations. A zero
    /// capacity is allowed: sequence numbers are still stamped, but every
    /// replay request falls back to `Truncated` (pure snapshot resync).
    pub fn new(capacity: usize) -> Self {
        InvalidationLog {
            state: Mutex::new(LogState::default()),
            capacity,
        }
    }

    /// Stamps the batch with the next consecutive sequence numbers and
    /// appends it to the retained suffix, evicting the oldest entries past
    /// capacity. This is the single source of truth for the stream counter,
    /// so a batch always occupies a contiguous window of the stream.
    pub fn record(&self, batch: &mut InvalidationBatch) {
        if batch.is_empty() {
            return;
        }
        let mut state = self.state.lock();
        batch.stamp_from(state.latest + 1);
        state.latest += batch.len() as u64;
        for inv in batch.iter() {
            state.retained.push_back(*inv);
        }
        while state.retained.len() > self.capacity {
            state.retained.pop_front();
        }
    }

    /// The newest sequence number the stream has reached (0 before the
    /// first commit).
    pub fn latest_seq(&self) -> u64 {
        self.state.lock().latest
    }

    /// Number of invalidations currently retained.
    pub fn retained_len(&self) -> usize {
        self.state.lock().retained.len()
    }

    /// Returns every invalidation with `seq > after_seq`, or `Truncated`
    /// when that suffix is no longer fully retained.
    pub fn replay_after(&self, after_seq: u64) -> InvalidationReplay {
        let state = self.state.lock();
        if after_seq >= state.latest {
            return InvalidationReplay::Replayed(Vec::new());
        }
        match state.retained.front() {
            // The whole suffix is retained iff the oldest retained entry is
            // no newer than the first one requested.
            Some(oldest) if oldest.seq <= after_seq + 1 => InvalidationReplay::Replayed(
                state
                    .retained
                    .iter()
                    .filter(|inv| inv.seq > after_seq)
                    .copied()
                    .collect(),
            ),
            _ => InvalidationReplay::Truncated {
                latest: state.latest,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::{ObjectId, TxnId, Version};

    fn batch(n: u64) -> InvalidationBatch {
        (0..n)
            .map(|i| Invalidation::new(ObjectId(i), Version(1), TxnId(1)))
            .collect()
    }

    #[test]
    fn record_stamps_contiguous_stream_positions() {
        let log = InvalidationLog::new(16);
        assert_eq!(log.latest_seq(), 0);
        let mut first = batch(3);
        log.record(&mut first);
        assert_eq!(
            first.iter().map(|i| i.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let mut second = batch(2);
        log.record(&mut second);
        assert_eq!(second.iter().map(|i| i.seq).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(log.latest_seq(), 5);
        assert_eq!(log.retained_len(), 5);
        // Empty batches consume no sequence numbers.
        log.record(&mut InvalidationBatch::default());
        assert_eq!(log.latest_seq(), 5);
    }

    #[test]
    fn replay_returns_the_exact_suffix() {
        let log = InvalidationLog::new(16);
        let mut b = batch(5);
        log.record(&mut b);
        match log.replay_after(2) {
            InvalidationReplay::Replayed(invs) => {
                assert_eq!(invs.iter().map(|i| i.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
            }
            other => panic!("expected replay, got {other:?}"),
        }
        // Up to date → empty replay.
        assert_eq!(log.replay_after(5), InvalidationReplay::Replayed(Vec::new()));
        assert_eq!(log.replay_after(9), InvalidationReplay::Replayed(Vec::new()));
        // From zero (a cold cache) the full stream is replayable while the
        // log still retains it.
        match log.replay_after(0) {
            InvalidationReplay::Replayed(invs) => assert_eq!(invs.len(), 5),
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn truncation_forces_snapshot_resync() {
        let log = InvalidationLog::new(4);
        let mut b = batch(10);
        log.record(&mut b);
        assert_eq!(log.retained_len(), 4, "bounded at capacity");
        // Seqs 7..=10 are retained; asking for anything after 6 replays.
        match log.replay_after(6) {
            InvalidationReplay::Replayed(invs) => {
                assert_eq!(invs.iter().map(|i| i.seq).collect::<Vec<_>>(), vec![7, 8, 9, 10]);
            }
            other => panic!("expected replay, got {other:?}"),
        }
        // Seq 6 itself was evicted: the suffix after 5 is incomplete.
        assert_eq!(
            log.replay_after(5),
            InvalidationReplay::Truncated { latest: 10 }
        );
        assert_eq!(
            log.replay_after(0),
            InvalidationReplay::Truncated { latest: 10 }
        );
    }

    #[test]
    fn zero_capacity_always_truncates_once_nonempty() {
        let log = InvalidationLog::new(0);
        let mut b = batch(2);
        log.record(&mut b);
        assert_eq!(log.latest_seq(), 2);
        assert_eq!(log.retained_len(), 0);
        assert_eq!(log.replay_after(0), InvalidationReplay::Truncated { latest: 2 });
        // Still "up to date" replays empty without touching the ring.
        assert_eq!(log.replay_after(2), InvalidationReplay::Replayed(Vec::new()));
    }
}
