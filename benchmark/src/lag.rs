//! Invalidation-lag stamps: commit return -> applied on every loss-free cache.

use std::collections::VecDeque;

/// Commits waiting to be seen applied, oldest first. Sequence numbers only
/// grow, so the applied position retires stamps strictly in order.
pub struct LagRing {
    stamps: VecDeque<(u64, u64)>,
    capacity: usize,
    pub max_outstanding: usize,
    /// Stamps refused because the ring was full.
    pub skipped: u64,
}

impl LagRing {
    pub fn new(capacity: usize) -> Self {
        LagRing {
            stamps: VecDeque::with_capacity(capacity),
            capacity,
            max_outstanding: 0,
            skipped: 0,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Sequence number the oldest stamp waits for.
    #[inline]
    pub fn oldest_seq(&self) -> Option<u64> {
        self.stamps.front().map(|&(seq, _)| seq)
    }

    /// Stamps a commit whose last invalidation carries `seq`, returned to
    /// the client at `commit_ns`.
    pub fn stamp(&mut self, seq: u64, commit_ns: u64) {
        if self.stamps.len() == self.capacity {
            self.skipped += 1;
            return;
        }
        debug_assert!(self.stamps.back().is_none_or(|&(last, _)| last <= seq));
        self.stamps.push_back((seq, commit_ns));
        self.max_outstanding = self.max_outstanding.max(self.stamps.len());
    }

    /// Retires every stamp the caches have applied up to `applied_seq`,
    /// handing each one's lag (`now_ns` minus its commit time) to `record`.
    pub fn retire(&mut self, applied_seq: u64, now_ns: u64, mut record: impl FnMut(u64)) {
        while let Some(&(seq, commit_ns)) = self.stamps.front() {
            if seq > applied_seq {
                break;
            }
            self.stamps.pop_front();
            record(now_ns.saturating_sub(commit_ns));
        }
    }

    /// Drops whatever is still outstanding (after the final quiesce the
    /// wait itself would be what gets measured).
    pub fn clear(&mut self) {
        self.stamps.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retires_in_order_and_only_what_was_applied() {
        let mut ring = LagRing::new(4);
        ring.stamp(5, 100);
        ring.stamp(10, 200);
        ring.stamp(15, 300);
        assert_eq!(ring.oldest_seq(), Some(5));
        let mut lags = Vec::new();
        ring.retire(4, 1_000, |lag| lags.push(lag));
        assert!(lags.is_empty());
        ring.retire(12, 1_000, |lag| lags.push(lag));
        assert_eq!(lags, vec![900, 800]);
        assert_eq!(ring.oldest_seq(), Some(15));
        ring.retire(15, 1_100, |lag| lags.push(lag));
        assert_eq!(lags, vec![900, 800, 800]);
        assert!(ring.is_empty());
        assert_eq!(ring.max_outstanding, 3);
    }

    #[test]
    fn a_full_ring_skips_new_stamps() {
        let mut ring = LagRing::new(2);
        ring.stamp(1, 0);
        ring.stamp(2, 0);
        ring.stamp(3, 0);
        assert_eq!(ring.skipped, 1);
        assert_eq!(ring.max_outstanding, 2);
        ring.clear();
        assert!(ring.is_empty());
    }
}
