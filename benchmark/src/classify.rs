//! The classification log: what the quality metrics are computed from.
//!
//! During the timed run the client only appends fixed-size entries to
//! pre-sized logs. Afterwards the updates, then the reads, are replayed
//! through a fresh `ConsistencyMonitor` (a read's verdict depends only on
//! the versions it saw and the update history, so every version a read
//! observed must be in the history before the read is classified).

use crate::spec::TXN_KEYS;
use crate::tape::Op;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;
use tcache::monitor::{ConsistencyMonitor, MonitorReport};
use tcache::types::{AccessSet, CacheId, ObjectId, SimTime, TransactionRecord, TxnId, Version};

/// Logged updates per run. The monitor ingests roughly 100k updates/s, so
/// this bounds the post-run classification to a few seconds.
pub const UPDATE_LOG_CAP: usize = 200_000;
/// Logged (sampled, committed) read transactions per run.
pub const READ_LOG_CAP: usize = 300_000;

/// Monitor transaction ids below this name set-up transactions (by the
/// version they installed); logged updates count up from it.
const SETUP_TXN_LIMIT: u64 = 1 << 40;

#[derive(Clone, Copy)]
struct UpdateEntry {
    tape_index: u32,
    version: u64,
}

#[derive(Clone, Copy)]
struct ReadEntry {
    tape_index: u32,
    versions: [u64; TXN_KEYS],
}

pub struct ClassLog {
    updates: Vec<UpdateEntry>,
    reads: Vec<ReadEntry>,
    open: bool,
}

/// What the monitor made of the log.
pub struct Classification {
    pub report: MonitorReport,
    pub per_cache: Vec<MonitorReport>,
    pub update_ingest_per_s: f64,
    pub read_classify_per_s: f64,
    /// Logged reads that saw a version no logged update installed.
    pub unknown_versions: u64,
}

impl ClassLog {
    /// Both logs are written once up front so their pages are resident
    /// whatever share of them the run fills: peak RSS must not depend on
    /// how far a run got.
    pub fn new() -> Self {
        let mut updates = vec![
            UpdateEntry {
                tape_index: u32::MAX,
                version: u64::MAX,
            };
            UPDATE_LOG_CAP
        ];
        let mut reads = vec![
            ReadEntry {
                tape_index: u32::MAX,
                versions: [u64::MAX; TXN_KEYS],
            };
            READ_LOG_CAP
        ];
        updates.clear();
        reads.clear();
        ClassLog {
            updates,
            reads,
            open: true,
        }
    }

    /// Stops logging for good. Reads and updates stop together: a read
    /// logged after the update log closed could have seen a version the
    /// monitor never hears about.
    pub fn close(&mut self) {
        self.open = false;
    }

    #[inline]
    pub fn push_update(&mut self, tape_index: usize, version: Version) {
        if !self.open {
            return;
        }
        self.updates.push(UpdateEntry {
            tape_index: tape_index as u32,
            version: version.0,
        });
        if self.updates.len() == UPDATE_LOG_CAP {
            self.open = false;
        }
    }

    #[inline]
    pub fn push_read(&mut self, tape_index: usize, versions: [u64; TXN_KEYS]) {
        if !self.open {
            return;
        }
        self.reads.push(ReadEntry {
            tape_index: tape_index as u32,
            versions,
        });
        if self.reads.len() == READ_LOG_CAP {
            self.open = false;
        }
    }

    /// Replays the log through a fresh monitor: updates first (rebuilding
    /// each one's read versions from a mirror of the per-object head, exact
    /// because the run has a single writer), then the reads. `initial_head`
    /// is every object's version when logging began; objects sharing one
    /// were written by one set-up transaction, which the monitor is told
    /// about first.
    pub fn classify(&self, tape: &[Op], initial_head: &[u64], caches: usize) -> Classification {
        let mut monitor = ConsistencyMonitor::new();
        let mut installed: HashSet<(u32, u64)> = HashSet::with_capacity(self.updates.len() * 4);
        let mut setup_writes: BTreeMap<u64, Vec<ObjectId>> = BTreeMap::new();
        for (object, &version) in initial_head.iter().enumerate() {
            if version != Version::INITIAL.0 {
                setup_writes
                    .entry(version)
                    .or_default()
                    .push(ObjectId(object as u64));
                installed.insert((object as u32, version));
            }
        }
        for (&version, objects) in &setup_writes {
            monitor.record_update_commit(&TransactionRecord::update_committed(
                TxnId(version),
                objects.iter().map(|&o| (o, Version::INITIAL)).collect(),
                objects.iter().map(|&o| (o, Version(version))).collect(),
                SimTime::ZERO,
            ));
        }
        let mut head: Vec<Version> = initial_head.iter().map(|&v| Version(v)).collect();
        let started = Instant::now();
        for (number, entry) in self.updates.iter().enumerate() {
            let op = &tape[entry.tape_index as usize];
            let distinct = AccessSet::new(op.object_ids().to_vec()).distinct();
            let version = Version(entry.version);
            let reads = distinct.iter().map(|&o| (o, head[o.0 as usize])).collect();
            let writes = distinct.iter().map(|&o| (o, version)).collect();
            for &object in &distinct {
                head[object.0 as usize] = version;
                installed.insert((object.0 as u32, version.0));
            }
            monitor.record_update_commit(&TransactionRecord::update_committed(
                TxnId(SETUP_TXN_LIMIT + number as u64),
                reads,
                writes,
                SimTime::ZERO,
            ));
        }
        let update_s = started.elapsed().as_secs_f64();

        let mut unknown_versions = 0;
        let started = Instant::now();
        for entry in &self.reads {
            let op = &tape[entry.tape_index as usize];
            let mut reads = [(ObjectId(0), Version::INITIAL); TXN_KEYS];
            for ((slot, &key), &version) in reads.iter_mut().zip(&op.keys).zip(&entry.versions) {
                if version != Version::INITIAL.0 && !installed.contains(&(key, version)) {
                    unknown_versions += 1;
                }
                *slot = (ObjectId(u64::from(key)), Version(version));
            }
            monitor.record_read_only_from(CacheId(u32::from(op.cache)), &reads, true);
        }
        let read_s = started.elapsed().as_secs_f64();

        Classification {
            report: monitor.report(),
            per_cache: (0..caches)
                .map(|i| monitor.cache_report(CacheId(i as u32)))
                .collect(),
            update_ingest_per_s: rate(self.updates.len(), update_s),
            read_classify_per_s: rate(self.reads.len(), read_s),
            unknown_versions,
        }
    }
}

fn rate(count: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::OpKind;

    fn op(kind: OpKind, cache: u8, keys: [u32; TXN_KEYS]) -> Op {
        Op { keys, kind, cache }
    }

    #[test]
    fn torn_reads_are_inconsistent_and_unknown_versions_are_counted() {
        let tape = vec![
            op(OpKind::Update, 0, [0, 1, 0, 1, 0]),
            op(OpKind::Read, 1, [0, 1, 0, 1, 0]),
        ];
        let mut log = ClassLog::new();
        log.push_update(0, Version(1));
        // Consistent: both objects at the new version.
        log.push_read(1, [1, 1, 1, 1, 1]);
        // Torn: object 0 new, object 1 still initial.
        log.push_read(1, [1, 0, 1, 0, 1]);
        let result = log.classify(&tape, &[0; 5], 2);
        assert_eq!(result.report.updates_committed, 1);
        assert_eq!(result.report.committed_consistent, 1);
        assert_eq!(result.report.committed_inconsistent, 1);
        assert_eq!(result.per_cache[1].committed_total(), 2);
        assert_eq!(result.per_cache[0].committed_total(), 0);
        assert_eq!(result.unknown_versions, 0);
        // A version nobody installed is counted, once per key.
        log.push_read(1, [9, 9, 9, 9, 9]);
        assert_eq!(log.classify(&tape, &[0; 5], 2).unknown_versions, 5);
    }

    #[test]
    fn closing_stops_both_logs() {
        let mut log = ClassLog::new();
        log.close();
        log.push_update(0, Version(1));
        log.push_read(0, [0; TXN_KEYS]);
        let result = log.classify(&[], &[0; 5], 1);
        assert_eq!(result.report.updates_committed, 0);
        assert_eq!(result.report.read_only_total(), 0);
    }

    #[test]
    fn versions_installed_during_set_up_are_known_history() {
        // Set-up wrote objects 0 and 1 in one transaction (version 3).
        let tape = vec![
            op(OpKind::Update, 0, [0, 1, 0, 1, 0]),
            op(OpKind::Read, 0, [0, 1, 0, 1, 0]),
        ];
        let mut log = ClassLog::new();
        log.push_read(1, [3, 3, 3, 3, 3]);
        log.push_update(0, Version(4));
        log.push_read(1, [4, 3, 4, 3, 4]);
        let result = log.classify(&tape, &[3, 3, 0, 0, 0], 1);
        assert_eq!(result.unknown_versions, 0);
        assert_eq!(result.report.updates_committed, 2);
        assert_eq!(result.report.committed_consistent, 1);
        assert_eq!(result.report.committed_inconsistent, 1);
    }
}
