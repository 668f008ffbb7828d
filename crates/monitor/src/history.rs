//! The global version history assembled from committed update transactions.

use tcache_types::{IdMap, ObjectId, TxnId, Version};

/// Per-object write history: which transaction installed which version.
///
/// Update transactions are serializable in version order (the database
/// assigns each transaction a version larger than everything it observed),
/// so this history is the reference against which read-only transactions are
/// judged.
#[derive(Debug, Default, Clone)]
pub struct VersionHistory {
    /// For every object, the installed versions in increasing order,
    /// together with the writing transaction.
    writes: IdMap<ObjectId, Vec<(Version, TxnId)>>,
}

impl VersionHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        VersionHistory::default()
    }

    /// Records that `txn` installed `version` of `object`.
    pub fn record_write(&mut self, object: ObjectId, version: Version, txn: TxnId) {
        let versions = self.writes.entry(object).or_default();
        // Versions arrive in increasing order in normal operation; keep the
        // vector sorted even if records arrive out of order.
        let pos = versions
            .binary_search_by_key(&version, |&(v, _)| v)
            .unwrap_or_else(|p| p);
        if versions.get(pos).map(|&(v, _)| v) != Some(version) {
            versions.insert(pos, (version, txn));
        }
    }

    /// The transaction that wrote `version` of `object`
    /// (`None` for the initial version or unknown objects).
    pub fn writer_of(&self, object: ObjectId, version: Version) -> Option<TxnId> {
        self.writes.get(&object).and_then(|versions| {
            versions
                .binary_search_by_key(&version, |&(v, _)| v)
                .ok()
                .map(|i| versions[i].1)
        })
    }

    /// The smallest installed version of `object` strictly greater than
    /// `version`, together with its writer. `None` if `version` is (still)
    /// the latest.
    pub fn next_write_after(&self, object: ObjectId, version: Version) -> Option<(Version, TxnId)> {
        self.writes.get(&object).and_then(|versions| {
            let idx = versions.partition_point(|&(v, _)| v <= version);
            versions.get(idx).copied()
        })
    }

    /// The latest installed version of `object` (initial if never written).
    pub fn latest_version(&self, object: ObjectId) -> Version {
        self.writes
            .get(&object)
            .and_then(|v| v.last().map(|&(ver, _)| ver))
            .unwrap_or(Version::INITIAL)
    }

    /// Number of objects with at least one recorded write.
    pub fn written_objects(&self) -> usize {
        self.writes.len()
    }

    /// Total number of recorded writes.
    pub fn total_writes(&self) -> usize {
        self.writes.values().map(Vec::len).sum()
    }

    /// Decides whether a set of reads `(object, version)` is consistent:
    /// there must exist a serialization point `p` (a version) such that for
    /// every read, the version read is the latest version of that object
    /// installed at or before `p`. Because update transactions serialize in
    /// version order, such a point exists exactly when
    /// `max(version read) < min(next version installed after each read)`.
    ///
    /// Reads of versions that were never installed (other than the initial
    /// version) are inconsistent by definition.
    pub fn reads_consistent(&self, reads: &[(ObjectId, Version)]) -> bool {
        if reads.is_empty() {
            return true;
        }
        let mut max_read = Version::INITIAL;
        let mut min_next: Option<Version> = None;
        for &(object, version) in reads {
            // The read version must exist: either the initial version or an
            // installed one.
            if version != Version::INITIAL && self.writer_of(object, version).is_none() {
                return false;
            }
            max_read = max_read.max(version);
            if let Some((next, _)) = self.next_write_after(object, version) {
                min_next = Some(match min_next {
                    None => next,
                    Some(m) if next < m => next,
                    Some(m) => m,
                });
            }
        }
        match min_next {
            None => true,
            Some(next) => max_read < next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }
    fn v(i: u64) -> Version {
        Version(i)
    }

    fn sample_history() -> VersionHistory {
        // Object 1: versions 2 (t1), 5 (t2); object 2: versions 2 (t1), 8 (t3).
        let mut h = VersionHistory::new();
        h.record_write(o(1), v(2), TxnId(1));
        h.record_write(o(2), v(2), TxnId(1));
        h.record_write(o(1), v(5), TxnId(2));
        h.record_write(o(2), v(8), TxnId(3));
        h
    }

    #[test]
    fn writer_and_next_lookup() {
        let h = sample_history();
        assert_eq!(h.writer_of(o(1), v(2)), Some(TxnId(1)));
        assert_eq!(h.writer_of(o(1), v(5)), Some(TxnId(2)));
        assert_eq!(h.writer_of(o(1), v(3)), None);
        assert_eq!(h.next_write_after(o(1), v(2)), Some((v(5), TxnId(2))));
        assert_eq!(h.next_write_after(o(1), v(5)), None);
        assert_eq!(h.next_write_after(o(1), Version::INITIAL), Some((v(2), TxnId(1))));
        assert_eq!(h.next_write_after(o(9), v(1)), None);
        assert_eq!(h.latest_version(o(1)), v(5));
        assert_eq!(h.latest_version(o(9)), Version::INITIAL);
        assert_eq!(h.written_objects(), 2);
        assert_eq!(h.total_writes(), 4);
    }

    #[test]
    fn out_of_order_and_duplicate_records_are_handled() {
        let mut h = VersionHistory::new();
        h.record_write(o(1), v(5), TxnId(2));
        h.record_write(o(1), v(2), TxnId(1));
        h.record_write(o(1), v(2), TxnId(1));
        assert_eq!(h.total_writes(), 2);
        assert_eq!(h.next_write_after(o(1), v(2)), Some((v(5), TxnId(2))));
    }

    #[test]
    fn consistent_snapshot_reads() {
        let h = sample_history();
        // Both objects at the t1 snapshot.
        assert!(h.reads_consistent(&[(o(1), v(2)), (o(2), v(2))]));
        // Latest versions of both.
        assert!(h.reads_consistent(&[(o(1), v(5)), (o(2), v(8))]));
        // Mixed but placeable: o1@5 (latest), o2@2 is superseded at 8, so any
        // point p in [5, 8) works.
        assert!(h.reads_consistent(&[(o(1), v(5)), (o(2), v(2))]));
        // Initial versions are consistent before anything was written.
        assert!(h.reads_consistent(&[(o(3), Version::INITIAL)]));
        assert!(h.reads_consistent(&[]));
    }

    #[test]
    fn inconsistent_reads_are_rejected() {
        let h = sample_history();
        // o2@8 requires p >= 8, but o1@2 requires p < 5.
        assert!(!h.reads_consistent(&[(o(1), v(2)), (o(2), v(8))]));
        // Reading a version that never existed.
        assert!(!h.reads_consistent(&[(o(1), v(3))]));
        // Initial version of o1 together with the latest o2.
        assert!(!h.reads_consistent(&[(o(1), Version::INITIAL), (o(2), v(8))]));
    }

    #[test]
    fn single_reads_are_always_consistent() {
        let h = sample_history();
        for &(obj, ver) in &[(1u64, 2u64), (1, 5), (2, 2), (2, 8)] {
            assert!(h.reads_consistent(&[(o(obj), v(ver))]));
        }
    }
}
