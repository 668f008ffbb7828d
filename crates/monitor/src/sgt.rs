//! Serialization graph testing.
//!
//! The textbook construction: nodes are committed transactions, edges are
//! write→read, write→write and read→write dependencies on each object. A
//! history is serializable iff the graph is acyclic. For the paper's setting
//! the update transactions are already totally ordered by their versions, so
//! the interesting question is whether adding one read-only transaction
//! keeps the graph acyclic; [`SerializationGraph::read_only_consistent`]
//! answers exactly that.
//!
//! The interval test in [`crate::history`] checks the stricter criterion of
//! placement in *commit order*; property tests below verify that it is
//! conservative with respect to this exact checker (interval-consistent ⇒
//! SGT-consistent).

use crate::graph::DiGraph;
use crate::history::VersionHistory;
use tcache_types::{IdMap, IdSet, ObjectId, TransactionRecord, TxnId, Version};

/// A node of the serialization graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// The fictitious initial transaction that installed every object at
    /// [`Version::INITIAL`].
    Initial,
    /// A committed transaction.
    Txn(TxnId),
}

/// A serialization graph built from a history of committed transactions.
///
/// Besides the record list that [`SerializationGraph::read_only_consistent`]
/// rebuilds a [`DiGraph`] from, the graph maintains its update→update edges
/// **incrementally** as records arrive (edges from a transaction's version
/// predecessors and readers-of-overwritten-versions). When records arrive in
/// version order — which they always do coming from the database, whose
/// commit order *is* version order — every maintained edge points from a
/// lower-version transaction to a higher-version one, and
/// [`SerializationGraph::read_only_consistent_fast`] answers candidate
/// queries with a version-bounded reachability search instead of an O(n)
/// graph rebuild. Out-of-order records flip a flag that routes fast queries
/// through the exact rebuild path instead.
#[derive(Debug, Default)]
pub struct SerializationGraph {
    history: VersionHistory,
    /// Full records, retained to serve the exact rebuild path
    /// ([`SerializationGraph::read_only_consistent`] and the out-of-order
    /// fallback of the fast query). Retention cannot be deferred until
    /// `out_of_order` flips: the rebuild needs every record from the start
    /// of the history, so dropping early records would silently break the
    /// fallback. Memory is the same order as the adjacency lists
    /// (per-record reads + writes); histories beyond what a process should
    /// retain belong in an external log, not this in-memory oracle.
    updates: Vec<TransactionRecord>,
    /// Update→update successor lists, maintained incrementally.
    adjacency: IdMap<TxnId, Vec<TxnId>>,
    /// The (max) version each update transaction installed.
    txn_version: IdMap<TxnId, Version>,
    /// Which update transactions read each installed `(object, version)`
    /// pair; consulted to add read→overwriter anti-dependency edges when
    /// the overwrite arrives.
    readers: IdMap<(ObjectId, Version), Vec<TxnId>>,
    /// Set when an edge or record arrives out of version order, breaking
    /// the invariant the fast query's pruning relies on; fast queries then
    /// take the exact rebuild path instead.
    out_of_order: bool,
}

impl SerializationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SerializationGraph::default()
    }

    /// Adds a committed update transaction to the history.
    pub fn add_update(&mut self, record: &TransactionRecord) {
        debug_assert!(record.is_update() && record.committed);
        let version = record
            .writes
            .iter()
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(Version::INITIAL);
        self.txn_version.insert(record.id, version);

        for &(object, version) in &record.writes {
            // Incremental edges, derived before the write enters the
            // history: the previous writer precedes this transaction, and
            // so does everything that read the version being overwritten.
            let prev = self.history.latest_version(object);
            if version < prev {
                self.out_of_order = true;
            }
            if let Some(writer) = self.history.writer_of(object, prev) {
                self.add_adjacency(writer, record.id);
            }
            // In-order, nothing reads a version after it is overwritten, so
            // the reader list can be consumed (freeing it) rather than
            // cloned; a late out-of-order reader flips `out_of_order` and
            // queries fall back to the rebuild, which ignores this index.
            if let Some(readers) = self.readers.remove(&(object, prev)) {
                for reader in readers {
                    self.add_adjacency(reader, record.id);
                }
            }
            self.history.record_write(object, version, record.id);
        }

        for &(object, version) in &record.reads {
            match self.history.writer_of(object, version) {
                Some(writer) if writer != record.id => {
                    self.add_adjacency(writer, record.id);
                }
                Some(_) => {}
                None if version != Version::INITIAL => {
                    // An update claiming to have read a version that was
                    // never installed: the incremental reader index cannot
                    // model it, so route fast queries through the rebuild.
                    self.out_of_order = true;
                }
                None => {}
            }
            if let Some((_, next)) = self.history.next_write_after(object, version) {
                if next != record.id {
                    self.add_adjacency(record.id, next);
                }
            }
            self.readers.entry((object, version)).or_default().push(record.id);
        }

        self.updates.push(record.clone());
    }

    fn add_adjacency(&mut self, from: TxnId, to: TxnId) {
        if from == to {
            return;
        }
        let (fv, tv) = (self.txn_version.get(&from), self.txn_version.get(&to));
        if let (Some(fv), Some(tv)) = (fv, tv) {
            if fv >= tv {
                self.out_of_order = true;
            }
        }
        let succ = self.adjacency.entry(from).or_default();
        if !succ.contains(&to) {
            succ.push(to);
        }
    }

    /// The version history assembled so far.
    pub fn history(&self) -> &VersionHistory {
        &self.history
    }

    /// Builds the full graph over the update transactions plus one candidate
    /// read-only transaction described by its `(object, version)` reads.
    fn build_graph(&self, reads: &[(ObjectId, Version)], candidate: TxnId) -> DiGraph<Node> {
        let mut g = DiGraph::new();
        g.add_node(Node::Initial);

        // Write-write and write-read edges among update transactions follow
        // version order per object.
        for record in &self.updates {
            let node = Node::Txn(record.id);
            g.add_node(node);
            for &(object, version) in &record.writes {
                // Edge from the previous writer of this object.
                let prev_writer = self
                    .previous_writer(object, version)
                    .map(Node::Txn)
                    .unwrap_or(Node::Initial);
                g.add_edge(prev_writer, node);
                // Edge to the next writer, if it already exists.
                if let Some((_, next)) = self.history.next_write_after(object, version) {
                    g.add_edge(node, Node::Txn(next));
                }
            }
            for &(object, version) in &record.reads {
                let writer = self
                    .history
                    .writer_of(object, version)
                    .map(Node::Txn)
                    .unwrap_or(Node::Initial);
                if writer != node {
                    g.add_edge(writer, node);
                }
                if let Some((_, next)) = self.history.next_write_after(object, version) {
                    if Node::Txn(next) != node {
                        g.add_edge(node, Node::Txn(next));
                    }
                }
            }
        }

        // The candidate read-only transaction: wr edges from the writers of
        // the versions it read, rw anti-dependency edges to the writers of
        // the next versions.
        let cnode = Node::Txn(candidate);
        g.add_node(cnode);
        for &(object, version) in reads {
            let writer = self
                .history
                .writer_of(object, version)
                .map(Node::Txn)
                .unwrap_or(Node::Initial);
            g.add_edge(writer, cnode);
            if let Some((_, next)) = self.history.next_write_after(object, version) {
                g.add_edge(cnode, Node::Txn(next));
            }
        }
        g
    }

    fn previous_writer(&self, object: ObjectId, version: Version) -> Option<TxnId> {
        // The writer of the largest installed version strictly smaller than
        // `version`.
        let mut best: Option<(Version, TxnId)> = None;
        let mut cursor = Version::INITIAL;
        while let Some((v, t)) = self.history.next_write_after(object, cursor) {
            if v >= version {
                break;
            }
            best = Some((v, t));
            cursor = v;
        }
        best.map(|(_, t)| t)
    }

    /// Returns `true` if the update history together with the given
    /// read-only transaction is serializable (the graph is acyclic).
    pub fn read_only_consistent(&self, candidate: TxnId, reads: &[(ObjectId, Version)]) -> bool {
        // A read of a version that never existed is trivially inconsistent.
        for &(object, version) in reads {
            if version != Version::INITIAL && self.history.writer_of(object, version).is_none() {
                return false;
            }
        }
        !self.build_graph(reads, candidate).has_cycle()
    }

    /// Same verdict as [`SerializationGraph::read_only_consistent`], but
    /// answered from the incrementally maintained edges with a bounded
    /// reachability search.
    ///
    /// The candidate read-only transaction `R` has incoming edges from the
    /// writers of the versions it read (its *predecessors* `P`) and outgoing
    /// anti-dependency edges to the writers of the next versions (its
    /// *successors* `S`). Adding `R` creates a cycle iff some `p ∈ P` is
    /// reachable from some `s ∈ S` among the update transactions. When the
    /// history is version-ordered, every update edge increases the version,
    /// so the search from `S` can prune any transaction whose version
    /// exceeds `max(version(P))` — in practice that confines it to the
    /// staleness window of the read set, a handful of transactions, which
    /// is what makes the exact oracle affordable on every query.
    pub fn read_only_consistent_fast(&self, reads: &[(ObjectId, Version)]) -> bool {
        if self.out_of_order {
            // Fall back to the exact rebuild; the pruning below would be
            // unsound on a non-version-ordered edge set.
            return self.read_only_consistent(TxnId(u64::MAX), reads);
        }
        let mut predecessors: IdSet<TxnId> = IdSet::default();
        let mut successors: IdSet<TxnId> = IdSet::default();
        for &(object, version) in reads {
            match self.history.writer_of(object, version) {
                Some(writer) => {
                    predecessors.insert(writer);
                }
                None if version != Version::INITIAL => return false,
                None => {}
            }
            if let Some((_, next)) = self.history.next_write_after(object, version) {
                successors.insert(next);
            }
        }
        if successors.is_empty() || predecessors.is_empty() {
            // R has no outgoing (or no incoming) edges: no cycle through R.
            return true;
        }
        let horizon = predecessors
            .iter()
            .filter_map(|p| self.txn_version.get(p))
            .max()
            .copied()
            .unwrap_or(Version::INITIAL);

        // BFS from every successor, pruned to versions <= horizon.
        let mut queue: Vec<TxnId> = Vec::new();
        let mut visited: IdSet<TxnId> = IdSet::default();
        for &s in &successors {
            if self.txn_version.get(&s).is_some_and(|&v| v <= horizon) {
                if predecessors.contains(&s) {
                    return false;
                }
                if visited.insert(s) {
                    queue.push(s);
                }
            }
        }
        while let Some(txn) = queue.pop() {
            let Some(succ) = self.adjacency.get(&txn) else {
                continue;
            };
            for &next in succ {
                if self.txn_version.get(&next).is_none_or(|&v| v > horizon) {
                    continue;
                }
                if predecessors.contains(&next) {
                    return false;
                }
                if visited.insert(next) {
                    queue.push(next);
                }
            }
        }
        true
    }

    /// Returns `true` if the update-only history is serializable. With the
    /// database's version-ordered commits this always holds; the check exists
    /// to validate the database in integration tests.
    pub fn updates_serializable(&self) -> bool {
        !self.build_graph(&[], TxnId(u64::MAX)).has_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::SimTime;

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }
    fn v(i: u64) -> Version {
        Version(i)
    }

    fn update(id: u64, version: u64, objects: &[u64]) -> TransactionRecord {
        TransactionRecord::update_committed(
            TxnId(id),
            objects.iter().map(|&obj| (o(obj), v(version - 1))).collect(),
            objects.iter().map(|&obj| (o(obj), v(version))).collect(),
            SimTime::ZERO,
        )
    }

    fn graph_with_updates() -> SerializationGraph {
        let mut g = SerializationGraph::new();
        // t1 writes o1,o2 at v1; t2 writes o1 at v2; t3 writes o2 at v3.
        g.add_update(&TransactionRecord::update_committed(
            TxnId(1),
            vec![(o(1), v(0)), (o(2), v(0))],
            vec![(o(1), v(1)), (o(2), v(1))],
            SimTime::ZERO,
        ));
        g.add_update(&TransactionRecord::update_committed(
            TxnId(2),
            vec![(o(1), v(1))],
            vec![(o(1), v(2))],
            SimTime::ZERO,
        ));
        g.add_update(&TransactionRecord::update_committed(
            TxnId(3),
            vec![(o(2), v(1))],
            vec![(o(2), v(3))],
            SimTime::ZERO,
        ));
        g
    }

    #[test]
    fn update_history_is_serializable() {
        let g = graph_with_updates();
        assert!(g.updates_serializable());
        assert_eq!(g.history().total_writes(), 4);
    }

    #[test]
    fn consistent_read_only_transactions_pass() {
        let g = graph_with_updates();
        // Snapshot after t1.
        assert!(g.read_only_consistent(TxnId(100), &[(o(1), v(1)), (o(2), v(1))]));
        // Snapshot after everything.
        assert!(g.read_only_consistent(TxnId(101), &[(o(1), v(2)), (o(2), v(3))]));
        // Initial snapshot.
        assert!(g.read_only_consistent(TxnId(102), &[(o(1), v(0)), (o(2), v(0))]));
        // Mixed but placeable: o1@2 (latest) with o2@1 (superseded at v3):
        // place between t2 and t3.
        assert!(g.read_only_consistent(TxnId(103), &[(o(1), v(2)), (o(2), v(1))]));
        // Empty read set.
        assert!(g.read_only_consistent(TxnId(104), &[]));
    }

    #[test]
    fn torn_reads_create_cycles() {
        let g = graph_with_updates();
        // o1 at the initial version but o2 after t1: t1 → T (wr on o2) and
        // T → t1 (rw on o1) — a cycle.
        assert!(!g.read_only_consistent(TxnId(100), &[(o(1), v(0)), (o(2), v(1))]));
    }

    #[test]
    fn independent_updates_may_be_reordered_by_sgt_but_not_by_commit_order() {
        let g = graph_with_updates();
        // T reads o1@1 (overwritten by t2) and o2@3 (written by t3). t2 and
        // t3 do not conflict, so the serial order t1, t3, T, t2 is valid and
        // the SGT accepts the reads…
        let reads = [(o(1), v(1)), (o(2), v(3))];
        assert!(g.read_only_consistent(TxnId(101), &reads));
        // …while the commit-order (interval) test conservatively rejects
        // them: there is no single point of the commit order covering both.
        assert!(!g.history().reads_consistent(&reads));
    }

    #[test]
    fn reading_a_nonexistent_version_is_inconsistent() {
        let g = graph_with_updates();
        assert!(!g.read_only_consistent(TxnId(100), &[(o(1), v(7))]));
    }

    #[test]
    fn interval_test_is_conservative_wrt_sgt_on_examples() {
        let g = graph_with_updates();
        let cases: Vec<Vec<(ObjectId, Version)>> = vec![
            vec![(o(1), v(1)), (o(2), v(1))],
            vec![(o(1), v(0)), (o(2), v(1))],
            vec![(o(1), v(2)), (o(2), v(1))],
            vec![(o(1), v(1)), (o(2), v(3))],
            vec![(o(1), v(2)), (o(2), v(3))],
        ];
        for (i, reads) in cases.iter().enumerate() {
            let by_interval = g.history().reads_consistent(reads);
            let by_graph = g.read_only_consistent(TxnId(1000 + i as u64), reads);
            assert!(
                !by_interval || by_graph,
                "case {i}: interval-consistent reads must be SGT-consistent"
            );
        }
    }

    #[test]
    fn longer_update_chains_stay_serializable() {
        let mut g = SerializationGraph::new();
        for i in 1..=50u64 {
            g.add_update(&update(i, i, &[i % 5, (i + 1) % 5]));
        }
        assert!(g.updates_serializable());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tcache_types::SimTime;

    /// Generates a random but well-formed update history over a small object
    /// space: transaction `i` (version `i+1`) writes a random subset.
    fn arb_history() -> impl Strategy<Value = Vec<Vec<u64>>> {
        prop::collection::vec(prop::collection::vec(0u64..6, 1..4), 1..12)
    }

    proptest! {
        /// The fast interval test is conservative with respect to the
        /// explicit serialization-graph test: whenever it classifies a read
        /// set as consistent, the SGT does too.
        #[test]
        fn interval_test_is_conservative_wrt_sgt(
            history in arb_history(),
            reads in prop::collection::vec((0u64..6, 0u64..13), 1..5),
        ) {
            let mut sgt = SerializationGraph::new();
            for (i, objects) in history.iter().enumerate() {
                let version = Version(i as u64 + 1);
                let mut distinct = objects.clone();
                distinct.sort();
                distinct.dedup();
                let record = TransactionRecord::update_committed(
                    TxnId(i as u64 + 1),
                    distinct.iter().map(|&o| (ObjectId(o), Version(i as u64))).collect(),
                    distinct.iter().map(|&o| (ObjectId(o), version)).collect(),
                    SimTime::ZERO,
                );
                sgt.add_update(&record);
            }
            let reads: Vec<(ObjectId, Version)> = reads
                .into_iter()
                .map(|(o, v)| (ObjectId(o), Version(v)))
                .collect();
            let by_interval = sgt.history().reads_consistent(&reads);
            let by_graph = sgt.read_only_consistent(TxnId(9999), &reads);
            prop_assert!(!by_interval || by_graph,
                "interval-consistent reads must be SGT-consistent");
        }

        /// The incremental reachability query agrees with the exact
        /// graph-rebuild checker on every in-order history.
        #[test]
        fn fast_query_matches_rebuild(
            history in arb_history(),
            reads in prop::collection::vec((0u64..6, 0u64..13), 1..5),
        ) {
            let mut sgt = SerializationGraph::new();
            // Reads mirror the database: each update reads the actual
            // current version of everything it writes.
            let mut latest: std::collections::HashMap<u64, Version> = Default::default();
            for (i, objects) in history.iter().enumerate() {
                let version = Version(i as u64 + 1);
                let mut distinct = objects.clone();
                distinct.sort();
                distinct.dedup();
                let record = TransactionRecord::update_committed(
                    TxnId(i as u64 + 1),
                    distinct
                        .iter()
                        .map(|&o| {
                            (ObjectId(o), latest.get(&o).copied().unwrap_or(Version::INITIAL))
                        })
                        .collect(),
                    distinct.iter().map(|&o| (ObjectId(o), version)).collect(),
                    SimTime::ZERO,
                );
                for &o in &distinct {
                    latest.insert(o, version);
                }
                sgt.add_update(&record);
            }
            let reads: Vec<(ObjectId, Version)> = reads
                .into_iter()
                .map(|(o, v)| (ObjectId(o), Version(v)))
                .collect();
            let fast = sgt.read_only_consistent_fast(&reads);
            let slow = sgt.read_only_consistent(TxnId(9999), &reads);
            prop_assert_eq!(fast, slow, "fast and rebuild oracles disagree on {:?}", &reads);
        }

        /// Reads taken from a single prefix of the history (a true snapshot)
        /// are always consistent under both checkers.
        #[test]
        fn snapshots_are_always_consistent(
            history in arb_history(),
            cut in 0usize..12,
        ) {
            let mut sgt = SerializationGraph::new();
            let mut latest: std::collections::HashMap<u64, Version> = Default::default();
            for (i, objects) in history.iter().enumerate() {
                let version = Version(i as u64 + 1);
                let mut distinct = objects.clone();
                distinct.sort();
                distinct.dedup();
                let record = TransactionRecord::update_committed(
                    TxnId(i as u64 + 1),
                    vec![],
                    distinct.iter().map(|&o| (ObjectId(o), version)).collect(),
                    SimTime::ZERO,
                );
                sgt.add_update(&record);
                if i < cut {
                    for &o in &distinct {
                        latest.insert(o, version);
                    }
                }
            }
            let reads: Vec<(ObjectId, Version)> = (0u64..6)
                .map(|o| (ObjectId(o), latest.get(&o).copied().unwrap_or(Version::INITIAL)))
                .collect();
            prop_assert!(sgt.history().reads_consistent(&reads));
            prop_assert!(sgt.read_only_consistent(TxnId(9999), &reads));
        }
    }
}
