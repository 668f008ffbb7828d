//! Bounded, LRU-pruned dependency lists (§III-A of the paper).
//!
//! The database stores, for each object `o`, a list of `k` dependencies
//! `(d₁, v₁), …, (d_k, v_k)`: identifiers and versions of other objects the
//! current version of `o` depends on. A read-only transaction that sees the
//! current version of `o` must not see object `dᵢ` with a version smaller
//! than `vᵢ`.
//!
//! Dependency lists are bounded; when they grow past the bound they are
//! pruned using an LRU policy so that the list tends to contain the objects
//! most recently accessed together with `o`. An entry can also be discarded
//! if the same object appears in another entry with a larger version.

use crate::ids::{ObjectId, Version};
use serde::{Deserialize, Serialize};
use smallvec::SmallVec;
use std::fmt;

/// Entries stored inside the list itself, one pointer hop from whatever
/// holds the list. A record briefly holds `bound + 1` entries, so bounds up
/// to 3 (the default, the paper's "lists of length 3") never spill to a
/// separate heap buffer.
const INLINE_ENTRIES: usize = 4;

/// A single dependency: an object identifier and the minimum version of that
/// object which may be observed together with the owner of the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DependencyEntry {
    /// The object this dependency refers to.
    pub object: ObjectId,
    /// The minimum version of [`Self::object`] that a consistent reader may
    /// observe.
    pub version: Version,
}

impl DependencyEntry {
    /// Creates a dependency entry.
    pub fn new(object: ObjectId, version: Version) -> Self {
        DependencyEntry { object, version }
    }
}

impl fmt::Display for DependencyEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.object, self.version)
    }
}

/// A bounded, LRU-ordered list of [`DependencyEntry`] values.
///
/// Entries are kept in most-recently-recorded-first order. Recording a
/// dependency for an object already present refreshes its recency and keeps
/// the larger of the two versions. When the list exceeds its bound the least
/// recently recorded entries are dropped.
///
/// A bound of `usize::MAX` (constructed with [`DependencyList::unbounded`])
/// models the unbounded lists of Theorem 1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependencyList {
    /// Most recently recorded first.
    entries: SmallVec<[DependencyEntry; INLINE_ENTRIES]>,
    /// Maximum number of entries retained.
    bound: usize,
}

impl Default for DependencyList {
    fn default() -> Self {
        DependencyList::unbounded()
    }
}

impl DependencyList {
    /// Creates an empty dependency list that retains at most `bound` entries.
    ///
    /// A bound of zero is valid and models a consistency-unaware system: the
    /// list never stores anything, so no inconsistency is ever detected.
    pub fn bounded(bound: usize) -> Self {
        DependencyList {
            entries: SmallVec::new(),
            bound,
        }
    }

    /// Creates an empty dependency list with no practical bound
    /// (Theorem 1's "unbounded resources" configuration).
    pub fn unbounded() -> Self {
        DependencyList::bounded(usize::MAX)
    }

    /// Builds a list directly from entries that are **already in
    /// most-recent-first order with distinct objects**, keeping at most
    /// `bound` of them (the rest — the least recent — are dropped).
    ///
    /// This is the allocation-minimal path for deriving one list from
    /// another (e.g. the per-object lists cut from an aggregated commit
    /// list): a single collect, no per-entry re-recording.
    pub fn from_most_recent(
        entries: impl IntoIterator<Item = DependencyEntry>,
        bound: usize,
    ) -> DependencyList {
        let entries: SmallVec<[DependencyEntry; INLINE_ENTRIES]> =
            entries.into_iter().take(bound).collect();
        // Quadratic but allocation-free, so debug builds allocate what
        // release builds do (the commit path's allocation pin runs in both).
        debug_assert!(
            entries
                .iter()
                .enumerate()
                .all(|(i, e)| entries[..i].iter().all(|seen| seen.object != e.object)),
            "from_most_recent requires distinct objects"
        );
        DependencyList { entries, bound }
    }

    /// Returns the configured bound.
    #[inline]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Returns the number of entries currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the list holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the version recorded for `object`, if present.
    #[inline]
    pub fn version_of(&self, object: ObjectId) -> Option<Version> {
        self.entries
            .iter()
            .find(|e| e.object == object)
            .map(|e| e.version)
    }

    /// Returns `true` if `object` appears in the list.
    #[inline]
    pub fn contains(&self, object: ObjectId) -> bool {
        self.version_of(object).is_some()
    }

    /// Iterates over the entries, most recently recorded first.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &DependencyEntry> {
        self.entries.iter()
    }

    /// Records a dependency on `object` at `version`.
    ///
    /// If `object` is already present, the entry is refreshed (moved to the
    /// most-recent position) and its version is raised to the maximum of the
    /// existing and the new version — an entry can be discarded if the same
    /// object appears with a larger version, so only the larger one is kept.
    /// The list is then pruned to its bound from the least-recent end.
    pub fn record(&mut self, object: ObjectId, version: Version) {
        let merged_version = match self.remove(object) {
            Some(existing) => existing.max(version),
            None => version,
        };
        // Insert at the front: append, then rotate the new entry into place.
        self.entries.push(DependencyEntry::new(object, merged_version));
        self.entries.rotate_right(1);
        self.prune();
    }

    /// Records a full [`DependencyEntry`].
    pub fn record_entry(&mut self, entry: DependencyEntry) {
        self.record(entry.object, entry.version);
    }

    /// Merges another dependency list into this one.
    ///
    /// The other list's entries are recorded from least-recent to most-recent
    /// so that the relative recency of `other` is preserved and its
    /// most-recent entries end up most recent here as well.
    pub fn merge(&mut self, other: &DependencyList) {
        for entry in other.entries.iter().rev() {
            self.record(entry.object, entry.version);
        }
    }

    /// Removes any entry referring to `object`, returning its version.
    pub fn remove(&mut self, object: ObjectId) -> Option<Version> {
        let idx = self.entries.iter().position(|e| e.object == object)?;
        // Rotate the entry to the back, keeping the order of the rest.
        self.entries[idx..].rotate_left(1);
        self.entries.pop().map(|e| e.version)
    }

    /// Changes the bound of the list, pruning if the new bound is smaller.
    pub fn set_bound(&mut self, bound: usize) {
        self.bound = bound;
        self.prune();
    }

    /// Returns a copy of this list re-bounded to `bound` (pruning the
    /// least-recent entries if necessary).
    #[must_use]
    pub fn rebounded(&self, bound: usize) -> DependencyList {
        let mut copy = self.clone();
        copy.set_bound(bound);
        copy
    }

    /// Drops entries beyond the bound (least recently recorded first).
    fn prune(&mut self) {
        if self.entries.len() > self.bound {
            self.entries.truncate(self.bound);
        }
    }

    /// Builds the *full dependency list* for a committing transaction
    /// (§III-A):
    ///
    /// ```text
    /// full-dep-list ← ⋃ {(key, ver)} ∪ depList
    ///                 over readSet ∪ writeSet
    /// ```
    ///
    /// `accessed` yields `(key, version-read, dependency-list)` tuples for
    /// every object in the read and write sets, **ordered from least to most
    /// recently accessed**; the result is pruned with LRU to `bound`.
    pub fn aggregate<'a, I>(accessed: I, bound: usize) -> DependencyList
    where
        I: IntoIterator<Item = (ObjectId, Version, &'a DependencyList)>,
    {
        let mut full = DependencyList::bounded(usize::MAX);
        for (key, version, deps) in accessed {
            full.merge(deps);
            full.record(key, version);
        }
        full.set_bound(bound);
        full
    }

    /// Returns the entries as a plain vector (most recent first); useful for
    /// assertions in tests and for serialization into invalidation messages.
    pub fn to_vec(&self) -> Vec<DependencyEntry> {
        self.entries.to_vec()
    }
}

impl fmt::Display for DependencyList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<DependencyEntry> for DependencyList {
    fn from_iter<T: IntoIterator<Item = DependencyEntry>>(iter: T) -> Self {
        let mut list = DependencyList::unbounded();
        for e in iter {
            list.record_entry(e);
        }
        list
    }
}

impl Extend<DependencyEntry> for DependencyList {
    fn extend<T: IntoIterator<Item = DependencyEntry>>(&mut self, iter: T) {
        for e in iter {
            self.record_entry(e);
        }
    }
}

impl<'a> IntoIterator for &'a DependencyList {
    type Item = &'a DependencyEntry;
    type IntoIter = std::slice::Iter<'a, DependencyEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

// Manual serde impls (the workspace's serde shim only generates marker
// derives; these are the types that genuinely cross a serialization
// boundary in tests and tooling).

impl serde::Serialize for DependencyEntry {
    fn to_json(&self) -> serde::json::Json {
        serde::json::Json::Map(vec![
            ("object".into(), self.object.to_json()),
            ("version".into(), self.version.to_json()),
        ])
    }
}

impl serde::Deserialize for DependencyEntry {
    fn from_json(value: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let object = value
            .get("object")
            .ok_or_else(|| serde::json::JsonError::shape("missing 'object'"))?;
        let version = value
            .get("version")
            .ok_or_else(|| serde::json::JsonError::shape("missing 'version'"))?;
        Ok(DependencyEntry {
            object: ObjectId::from_json(object)?,
            version: Version::from_json(version)?,
        })
    }
}

impl serde::Serialize for DependencyList {
    fn to_json(&self) -> serde::json::Json {
        serde::json::Json::Map(vec![
            ("entries".into(), self.to_vec().to_json()),
            ("bound".into(), serde::json::Json::U64(self.bound as u64)),
        ])
    }
}

impl serde::Deserialize for DependencyList {
    fn from_json(value: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let entries = value
            .get("entries")
            .ok_or_else(|| serde::json::JsonError::shape("missing 'entries'"))?;
        let bound = value
            .get("bound")
            .ok_or_else(|| serde::json::JsonError::shape("missing 'bound'"))?;
        Ok(DependencyList {
            entries: Vec::<DependencyEntry>::from_json(entries)?.into_iter().collect(),
            bound: usize::from_json(bound)?,
        })
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

    #[test]
    fn empty_list() {
        let l = DependencyList::bounded(3);
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        assert_eq!(l.bound(), 3);
        assert!(l.version_of(o(1)).is_none());
    }

    #[test]
    fn record_and_lookup() {
        let mut l = DependencyList::bounded(3);
        l.record(o(1), v(10));
        l.record(o(2), v(20));
        assert_eq!(l.len(), 2);
        assert_eq!(l.version_of(o(1)), Some(v(10)));
        assert_eq!(l.version_of(o(2)), Some(v(20)));
        assert!(l.contains(o(1)));
        assert!(!l.contains(o(3)));
    }

    #[test]
    fn lru_pruning_drops_oldest() {
        let mut l = DependencyList::bounded(2);
        l.record(o(1), v(1));
        l.record(o(2), v(2));
        l.record(o(3), v(3));
        assert_eq!(l.len(), 2);
        assert!(!l.contains(o(1)), "LRU entry must be evicted");
        assert!(l.contains(o(2)));
        assert!(l.contains(o(3)));
    }

    #[test]
    fn recording_existing_object_refreshes_recency() {
        let mut l = DependencyList::bounded(2);
        l.record(o(1), v(1));
        l.record(o(2), v(2));
        // refresh object 1 so object 2 becomes LRU
        l.record(o(1), v(1));
        l.record(o(3), v(3));
        assert!(l.contains(o(1)));
        assert!(!l.contains(o(2)));
        assert!(l.contains(o(3)));
    }

    #[test]
    fn recording_keeps_larger_version() {
        let mut l = DependencyList::bounded(3);
        l.record(o(1), v(5));
        l.record(o(1), v(3));
        assert_eq!(l.version_of(o(1)), Some(v(5)));
        l.record(o(1), v(9));
        assert_eq!(l.version_of(o(1)), Some(v(9)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn zero_bound_stores_nothing() {
        let mut l = DependencyList::bounded(0);
        l.record(o(1), v(1));
        l.record(o(2), v(2));
        assert!(l.is_empty());
    }

    #[test]
    fn unbounded_never_prunes() {
        let mut l = DependencyList::unbounded();
        for i in 0..10_000u64 {
            l.record(o(i), v(i));
        }
        assert_eq!(l.len(), 10_000);
    }

    #[test]
    fn merge_preserves_other_recency_order() {
        let mut a = DependencyList::bounded(2);
        a.record(o(1), v(1));

        let mut b = DependencyList::bounded(3);
        b.record(o(2), v(2));
        b.record(o(3), v(3)); // o3 most recent in b

        a.merge(&b);
        // a has bound 2: the most recent entries are o3 (most recent of b,
        // recorded last) and o2; o1 was pushed out.
        assert_eq!(a.len(), 2);
        assert!(a.contains(o(3)));
        assert!(a.contains(o(2)));
        assert!(!a.contains(o(1)));
    }

    #[test]
    fn merge_takes_max_version_per_object() {
        let mut a = DependencyList::bounded(4);
        a.record(o(1), v(10));
        let mut b = DependencyList::bounded(4);
        b.record(o(1), v(4));
        a.merge(&b);
        assert_eq!(a.version_of(o(1)), Some(v(10)));
        let mut c = DependencyList::bounded(4);
        c.record(o(1), v(15));
        a.merge(&c);
        assert_eq!(a.version_of(o(1)), Some(v(15)));
    }

    #[test]
    fn aggregate_matches_paper_formula() {
        // Transaction reads o1 (v1, deps [o5:v5]) and writes o2 (v2, deps [o6:v6]).
        let mut d1 = DependencyList::bounded(5);
        d1.record(o(5), v(5));
        let mut d2 = DependencyList::bounded(5);
        d2.record(o(6), v(6));

        let full = DependencyList::aggregate(
            vec![(o(1), v(1), &d1), (o(2), v(2), &d2)],
            5,
        );
        assert!(full.contains(o(1)));
        assert!(full.contains(o(2)));
        assert!(full.contains(o(5)));
        assert!(full.contains(o(6)));
        assert_eq!(full.version_of(o(1)), Some(v(1)));
        assert_eq!(full.version_of(o(6)), Some(v(6)));
    }

    #[test]
    fn aggregate_prunes_to_bound_keeping_most_recent() {
        let empty = DependencyList::bounded(0);
        // Access o0..o9 in order; bound 3 keeps the last accessed (o7,o8,o9).
        let accessed: Vec<_> = (0..10).map(|i| (o(i), v(i + 1), &empty)).collect();
        let full = DependencyList::aggregate(accessed, 3);
        assert_eq!(full.len(), 3);
        assert!(full.contains(o(9)));
        assert!(full.contains(o(8)));
        assert!(full.contains(o(7)));
        assert!(!full.contains(o(0)));
    }

    #[test]
    fn remove_and_set_bound() {
        let mut l = DependencyList::bounded(5);
        l.record(o(1), v(1));
        l.record(o(2), v(2));
        l.record(o(3), v(3));
        assert_eq!(l.remove(o(2)), Some(v(2)));
        assert_eq!(l.remove(o(2)), None);
        assert_eq!(l.len(), 2);
        l.set_bound(1);
        assert_eq!(l.len(), 1);
        assert!(l.contains(o(3)), "most recent entry survives re-bounding");
    }

    #[test]
    fn rebounded_copy_does_not_mutate_original() {
        let mut l = DependencyList::bounded(5);
        for i in 0..5 {
            l.record(o(i), v(i));
        }
        let small = l.rebounded(2);
        assert_eq!(small.len(), 2);
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn from_iterator_and_extend() {
        let entries = vec![
            DependencyEntry::new(o(1), v(1)),
            DependencyEntry::new(o(2), v(2)),
        ];
        let mut l: DependencyList = entries.clone().into_iter().collect();
        assert_eq!(l.len(), 2);
        l.extend(vec![DependencyEntry::new(o(3), v(3))]);
        assert_eq!(l.len(), 3);
        let collected: Vec<_> = (&l).into_iter().cloned().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn display_formats() {
        let mut l = DependencyList::bounded(2);
        assert_eq!(l.to_string(), "[]");
        l.record(o(1), v(2));
        assert_eq!(l.to_string(), "[(o1, v2)]");
        assert_eq!(DependencyEntry::new(o(1), v(2)).to_string(), "(o1, v2)");
    }

    #[test]
    fn serde_round_trip() {
        let mut l = DependencyList::bounded(3);
        l.record(o(1), v(1));
        l.record(o(2), v(2));
        let s = serde_json::to_string(&l).unwrap();
        let back: DependencyList = serde_json::from_str(&s).unwrap();
        assert_eq!(l, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_entry() -> impl Strategy<Value = DependencyEntry> {
        (0u64..50, 0u64..1000)
            .prop_map(|(o, v)| DependencyEntry::new(ObjectId(o), Version(v)))
    }

    /// The list as it was before its entries moved inline: a plain `Vec`
    /// with `insert(0)` / `remove(idx)` / `truncate`. The reference the
    /// inline list is held to on both sides of the spill boundary.
    #[derive(Debug, Clone)]
    struct VecList {
        entries: Vec<DependencyEntry>,
        bound: usize,
    }

    impl VecList {
        fn record(&mut self, object: ObjectId, version: Version) {
            let version = self.remove(object).map_or(version, |old| old.max(version));
            self.entries.insert(0, DependencyEntry::new(object, version));
            self.entries.truncate(self.bound);
        }

        fn remove(&mut self, object: ObjectId) -> Option<Version> {
            let idx = self.entries.iter().position(|e| e.object == object)?;
            Some(self.entries.remove(idx).version)
        }

        fn merge(&mut self, other: &[DependencyEntry]) {
            for e in other.iter().rev() {
                self.record(e.object, e.version);
            }
        }

        fn set_bound(&mut self, bound: usize) {
            self.bound = bound;
            self.entries.truncate(bound);
        }
    }

    /// Bounds on both sides of the inline capacity (4), and none.
    const BOUNDS: [usize; 4] = [3, 4, 5, usize::MAX];

    /// A most-recent-first list of distinct objects built from raw entries,
    /// as both implementations (the reference does the building).
    fn both(raw: &[DependencyEntry], bound: usize) -> (DependencyList, VecList) {
        let mut reference = VecList { entries: Vec::new(), bound };
        reference.merge(raw);
        let list = DependencyList::from_most_recent(reference.entries.iter().copied(), bound);
        (list, reference)
    }

    proptest! {
        /// Every operation agrees with the plain-`Vec` reference, entry for
        /// entry and in order, while the list grows past its inline
        /// capacity, shrinks back and is re-bounded around it; so do the
        /// derived constructors and a serde round trip of the final list.
        #[test]
        fn matches_a_plain_vec_across_the_inline_boundary(
            bound_choice in 0usize..4,
            ops in prop::collection::vec(
                (0u64..8, 0u64..12, 0u64..1000, prop::collection::vec(arb_entry(), 0..8)),
                0..120,
            ),
        ) {
            let bound = BOUNDS[bound_choice];
            let (mut list, mut reference) = both(&[], bound);
            // Seven distinct objects up front: bound 5 and the unbounded
            // list are past the inline capacity from the start.
            for i in 100..107 {
                list.record(ObjectId(i), Version(i));
                reference.record(ObjectId(i), Version(i));
            }
            for (selector, object, version, raw) in &ops {
                let (object, version) = (ObjectId(*object), Version(*version));
                match selector {
                    0..=3 => {
                        list.record(object, version);
                        reference.record(object, version);
                    }
                    4 => prop_assert_eq!(list.remove(object), reference.remove(object)),
                    5 => {
                        let (other, other_reference) = both(raw, BOUNDS[raw.len() % 4]);
                        prop_assert_eq!(other.to_vec(), other_reference.entries.clone());
                        list.merge(&other);
                        reference.merge(&other_reference.entries);
                    }
                    6 => {
                        let new_bound = BOUNDS[(version.as_u64() % 4) as usize];
                        list.set_bound(new_bound);
                        reference.set_bound(new_bound);
                    }
                    _ => {
                        let new_bound = BOUNDS[(version.as_u64() % 4) as usize];
                        let mut copy = reference.clone();
                        copy.set_bound(new_bound);
                        let rebounded = list.rebounded(new_bound);
                        prop_assert_eq!(rebounded.to_vec(), copy.entries);
                        prop_assert_eq!(rebounded.bound(), new_bound);
                    }
                }
                prop_assert_eq!(list.to_vec(), reference.entries.clone());
                prop_assert_eq!(list.bound(), reference.bound);
                prop_assert_eq!(list.version_of(object), reference.entries.iter()
                    .find(|e| e.object == object).map(|e| e.version));
            }

            let json = serde_json::to_string(&list).unwrap();
            let back: DependencyList = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, &list);
            prop_assert_eq!(back.to_vec(), reference.entries.clone());

            for cut in BOUNDS {
                let derived = DependencyList::from_most_recent(list.iter().copied(), cut);
                let mut expected = reference.clone();
                expected.set_bound(cut);
                prop_assert_eq!(derived.to_vec(), expected.entries);

                // Aggregation over the ops read as (key, version, deps)
                // accesses, least recent first.
                let accessed: Vec<_> = ops.iter()
                    .map(|(_, o, v, raw)| (ObjectId(*o), Version(*v), both(raw, bound).0))
                    .collect();
                let full = DependencyList::aggregate(
                    accessed.iter().map(|(o, v, deps)| (*o, *v, deps)),
                    cut,
                );
                let mut expected = VecList { entries: Vec::new(), bound: usize::MAX };
                for (o, v, deps) in &accessed {
                    expected.merge(&deps.to_vec());
                    expected.record(*o, *v);
                }
                expected.set_bound(cut);
                prop_assert_eq!(full.to_vec(), expected.entries);
            }
        }

        /// The list never exceeds its bound, regardless of the operation mix.
        #[test]
        fn never_exceeds_bound(
            bound in 0usize..8,
            ops in prop::collection::vec(arb_entry(), 0..200),
        ) {
            let mut l = DependencyList::bounded(bound);
            for e in ops {
                l.record_entry(e);
                prop_assert!(l.len() <= bound);
            }
        }

        /// Each object appears at most once.
        #[test]
        fn no_duplicate_objects(
            bound in 1usize..8,
            ops in prop::collection::vec(arb_entry(), 0..200),
        ) {
            let mut l = DependencyList::bounded(bound);
            for e in ops {
                l.record_entry(e);
            }
            let mut seen = std::collections::HashSet::new();
            for e in l.iter() {
                prop_assert!(seen.insert(e.object), "duplicate object {:?}", e.object);
            }
        }

        /// The stored version for an object is the maximum version ever
        /// recorded for it since it last (re-)entered the list — in
        /// particular it is never smaller than the version just recorded.
        #[test]
        fn version_monotone_wrt_last_record(
            ops in prop::collection::vec(arb_entry(), 1..200),
        ) {
            let mut l = DependencyList::bounded(4);
            for e in &ops {
                l.record_entry(*e);
                prop_assert!(l.version_of(e.object).unwrap() >= e.version);
            }
        }

        /// With an unbounded list, merging is lossless: every entry of both
        /// inputs is present in the result with a version at least as large.
        #[test]
        fn unbounded_merge_is_lossless(
            left in prop::collection::vec(arb_entry(), 0..50),
            right in prop::collection::vec(arb_entry(), 0..50),
        ) {
            let mut a = DependencyList::unbounded();
            a.extend(left.iter().cloned());
            let mut b = DependencyList::unbounded();
            b.extend(right.iter().cloned());
            let mut merged = a.clone();
            merged.merge(&b);
            for e in left.iter().chain(right.iter()) {
                prop_assert!(merged.version_of(e.object).unwrap() >= e.version);
            }
        }

        /// Aggregation always contains the most recently accessed key when
        /// the bound is at least one.
        #[test]
        fn aggregate_contains_last_key(
            bound in 1usize..6,
            keys in prop::collection::vec(0u64..100, 1..20),
        ) {
            let empty = DependencyList::bounded(0);
            let accessed: Vec<_> = keys
                .iter()
                .map(|&k| (ObjectId(k), Version(k + 1), &empty))
                .collect();
            let last = *keys.last().unwrap();
            let full = DependencyList::aggregate(accessed, bound);
            prop_assert!(full.contains(ObjectId(last)));
            prop_assert!(full.len() <= bound);
        }
    }
}
