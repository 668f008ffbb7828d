//! Commit-time dependency-list maintenance (§III-A).
//!
//! When a transaction commits, the database aggregates the `(key, version)`
//! pairs and dependency lists of everything in the read and write sets into a
//! single *full dependency list*, prunes it with LRU to the configured bound,
//! and stores it with every object written by the transaction. The written
//! objects themselves are recorded in the list at the transaction's version,
//! so subsequent readers of any one of them learn the minimum versions of the
//! others they must observe.
//!
//! Only the front of that full list is ever stored: a written object's list
//! is the full list without the object itself, cut to the bound, so the
//! `bound + 1` most recent entries decide every list. [`AggregatedDependencies`]
//! computes exactly those — each with the maximum version the full list
//! would carry — by scanning the inputs newest first, instead of merging
//! every inherited list into an unbounded list (one rotation per record)
//! and cutting it afterwards.

use smallvec::SmallVec;
use tcache_types::{DependencyEntry, DependencyList, ObjectId, Version};

/// Head entries kept inline: `bound + 1` for every bound up to 7, which
/// covers the paper's lists (3) and every bound the experiments sweep short
/// of unbounded.
const HEAD_INLINE: usize = 8;

/// The result of the aggregation: the most recent `bound + 1` entries of a
/// committing transaction's full dependency list, from which the list of
/// each written object is cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregatedDependencies {
    /// Most recent first, distinct objects, each at its maximum version.
    head: SmallVec<[DependencyEntry; HEAD_INLINE]>,
    bound: usize,
}

impl AggregatedDependencies {
    /// Aggregates the dependency information of a committing transaction.
    ///
    /// `accessed` yields one `(key, version, inherited list)` per distinct
    /// object the transaction accessed, **in access order**. `version` is
    /// the version a subsequent reader must not under-read: the
    /// transaction's version for written objects (their new version) and
    /// the observed version for read-only objects. The inherited list is
    /// the one attached to the version the transaction read.
    ///
    /// LRU recency order is that of merging the inherited lists first, in
    /// access order (they describe *older* accesses), and recording the
    /// keys of the access set last, in access order: the keys being
    /// committed right now are the most recently used entries and survive
    /// pruning, which is what lets short lists capture the co-access
    /// structure of clustered workloads. Scanned newest first that is the
    /// keys in reverse access order, then the inherited lists in reverse
    /// access order, each from its own front. The first `bound + 1`
    /// distinct objects met form the head; every later sighting of a head
    /// object only raises its version (an object's entry carries the
    /// largest version any input gave it).
    pub fn aggregate<'a, I>(accessed: I, bound: usize) -> AggregatedDependencies
    where
        I: IntoIterator<Item = (ObjectId, Version, &'a DependencyList)>,
        I::IntoIter: DoubleEndedIterator + Clone,
    {
        let accessed = accessed.into_iter();
        let keys = accessed
            .clone()
            .rev()
            .map(|(key, version, _)| DependencyEntry::new(key, version));
        let inherited = accessed.rev().flat_map(|(_, _, list)| list.iter().copied());
        let capacity = bound.saturating_add(1);
        let mut head: SmallVec<[DependencyEntry; HEAD_INLINE]> = SmallVec::new();
        for entry in keys.chain(inherited) {
            if let Some(seen) = head.iter_mut().find(|seen| seen.object == entry.object) {
                seen.version = seen.version.max(entry.version);
            } else if head.len() < capacity {
                head.push(entry);
            }
            // Otherwise it is older than every head entry: in no list.
        }
        AggregatedDependencies { head, bound }
    }

    /// The most recent `bound + 1` entries of the full list, most recent
    /// first (the whole full list when unbounded).
    pub fn head(&self) -> &[DependencyEntry] {
        &self.head
    }

    /// Produces the dependency list to store with written object `key`:
    /// the head without `key` itself, cut to the bound.
    pub fn list_for(&self, key: ObjectId) -> DependencyList {
        DependencyList::from_most_recent(
            self.head.iter().filter(|e| e.object != key).copied(),
            self.bound,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }
    fn v(i: u64) -> Version {
        Version(i)
    }

    /// One accessed object: key, the version it enters the full list at,
    /// and its inherited list.
    type Accessed = (ObjectId, Version, DependencyList);

    fn accessed(key: u64, ver: u64, deps: &[(u64, u64)]) -> Accessed {
        let mut list = DependencyList::unbounded();
        for &(d, dv) in deps {
            list.record(o(d), v(dv));
        }
        (o(key), v(ver), list)
    }

    fn aggregate(accessed: &[Accessed], bound: usize) -> AggregatedDependencies {
        AggregatedDependencies::aggregate(
            accessed
                .iter()
                .map(|(key, version, list)| (*key, *version, list)),
            bound,
        )
    }

    /// The commit path's aggregation before it computed only the head:
    /// every inherited list merged into an unbounded list, then every key
    /// recorded, then each written object's list cut from the result. It
    /// is `DependencyList::aggregate` at `usize::MAX` — which interleaves
    /// each key with its own list — fed the keys a second time, with empty
    /// lists, so they are recorded last in access order as the commit
    /// records them (re-recording a key at its own version changes only
    /// its recency).
    fn merge_then_cut(accessed: &[Accessed], key: ObjectId, bound: usize) -> DependencyList {
        let empty = DependencyList::unbounded();
        let full = DependencyList::aggregate(
            accessed
                .iter()
                .map(|(k, version, list)| (*k, *version, list))
                .chain(
                    accessed
                        .iter()
                        .map(|(k, version, _)| (*k, *version, &empty)),
                ),
            usize::MAX,
        );
        DependencyList::from_most_recent(full.iter().filter(|e| e.object != key).copied(), bound)
    }

    #[test]
    fn written_objects_enter_at_txn_version() {
        let acc = vec![accessed(1, 10, &[]), accessed(2, 10, &[])];
        let agg = aggregate(&acc, 5);
        // The list for object 1 contains object 2 at the transaction version.
        let l1 = agg.list_for(o(1));
        assert_eq!(l1.version_of(o(2)), Some(v(10)));
        assert!(!l1.contains(o(1)), "an object never depends on itself");
        let l2 = agg.list_for(o(2));
        assert_eq!(l2.version_of(o(1)), Some(v(10)));
    }

    #[test]
    fn read_only_objects_enter_at_observed_version() {
        let acc = vec![accessed(1, 3, &[]), accessed(2, 10, &[])];
        let agg = aggregate(&acc, 5);
        let l2 = agg.list_for(o(2));
        assert_eq!(l2.version_of(o(1)), Some(v(3)));
    }

    #[test]
    fn inherits_transitive_dependencies() {
        // o2's current version depends on o6@v6; after a joint update of o1
        // and o2, o1 inherits that dependency (the paper's o1/o2 example).
        let acc = vec![accessed(1, 9, &[(5, 5)]), accessed(2, 9, &[(6, 6)])];
        let agg = aggregate(&acc, 5);
        let l1 = agg.list_for(o(1));
        assert_eq!(l1.version_of(o(6)), Some(v(6)));
        assert_eq!(l1.version_of(o(5)), Some(v(5)));
        assert_eq!(l1.version_of(o(2)), Some(v(9)));
    }

    #[test]
    fn pruning_keeps_most_recent_accesses() {
        // 6 written objects with bound 3: each object's list keeps the most
        // recently accessed other objects.
        let acc: Vec<_> = (0..6).map(|i| accessed(i, 100, &[])).collect();
        let agg = aggregate(&acc, 3);
        let l0 = agg.list_for(o(0));
        assert_eq!(l0.len(), 3);
        assert!(l0.contains(o(5)));
        assert!(l0.contains(o(4)));
        assert!(l0.contains(o(3)));
        // The newest object drops itself and reaches one further back.
        let l5 = agg.list_for(o(5));
        assert_eq!(
            l5.iter().map(|e| e.object).collect::<Vec<_>>(),
            vec![o(4), o(3), o(2)]
        );
    }

    #[test]
    fn full_list_is_unpruned() {
        // Only the head is kept — `bound + 1` entries — unless unbounded,
        // where the head is the whole full list.
        let acc: Vec<_> = (0..6).map(|i| accessed(i, 100, &[(10 + i, 1)])).collect();
        let agg = aggregate(&acc, 2);
        assert_eq!(agg.head().len(), 3);
        assert_eq!(agg.list_for(o(0)).len(), 2);
        let unbounded = aggregate(&acc, usize::MAX);
        assert_eq!(unbounded.head().len(), 12);
        assert_eq!(unbounded.list_for(o(0)).len(), 11);
    }

    #[test]
    fn duplicate_access_keeps_largest_version() {
        // The same key appears as read (old version) and written; the
        // written (transaction) version must win.
        let acc = vec![
            accessed(1, 3, &[]),
            accessed(1, 7, &[]),
            accessed(2, 7, &[]),
        ];
        let agg = aggregate(&acc, 5);
        assert_eq!(agg.list_for(o(2)).version_of(o(1)), Some(v(7)));
        // A sighting further down the scan raises a head entry too: o1 is
        // read at v3, but o3's inherited list already demands o1@v6.
        let acc = vec![
            accessed(1, 3, &[]),
            accessed(2, 9, &[]),
            accessed(3, 9, &[(1, 6)]),
        ];
        let agg = aggregate(&acc, 2);
        assert_eq!(
            agg.list_for(o(3)).to_vec(),
            vec![
                DependencyEntry::new(o(2), v(9)),
                DependencyEntry::new(o(1), v(6))
            ]
        );
    }

    /// Bounds below, at and above the inline capacity, and none.
    const BOUNDS: [usize; 6] = [0, 1, 3, 4, 5, usize::MAX];

    fn arb_list() -> impl Strategy<Value = Vec<(u64, u64)>> {
        prop::collection::vec((0u64..16, 0u64..40), 0..7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The head aggregation against the merge-then-cut oracle: 1–12
        /// accesses with repeated keys (the first sighting wins, as the
        /// commit dedupes), random inherited lists that name accessed and
        /// unaccessed objects, written and read-only objects, every bound.
        /// Every object's list must be identical, entry for entry.
        #[test]
        fn head_aggregation_matches_merge_then_cut(
            raw in prop::collection::vec((0u64..16, 0u64..40, arb_list(), 0u32..2), 1..13),
            txn_version in 40u64..50,
            bound_choice in 0usize..6,
        ) {
            let bound = BOUNDS[bound_choice];
            let mut acc: Vec<Accessed> = Vec::new();
            for (key, observed, deps, written) in &raw {
                if acc.iter().any(|(k, _, _)| k.as_u64() == *key) {
                    continue;
                }
                let version = if *written == 1 { txn_version } else { *observed };
                acc.push(accessed(*key, version, deps));
            }
            let agg = aggregate(&acc, bound);
            prop_assert!(agg.head().len() <= bound.saturating_add(1));
            for (key, _, _) in &acc {
                let list = agg.list_for(*key);
                let oracle = merge_then_cut(&acc, *key, bound);
                prop_assert_eq!(list.to_vec(), oracle.to_vec());
                prop_assert_eq!(list.bound(), bound);
            }
        }
    }
}
