//! Differential property test pinning the updates-first replay against
//! classification in schedule order.
//!
//! The live plane's free-running (`LivePacing::Concurrent`) replay records
//! every update first and only then classifies the reads, because a client
//! thread can observe a version the driver committed "later" in schedule
//! order. That is sound only if a read's verdict does not depend on how
//! many updates were recorded before it: on any randomized schedule of
//! update and read-only transactions (spread over caches, healthy and
//! degraded phases), classifying every read after all updates must give the
//! same per-read verdict and the same global, per-cache and per-phase
//! `MonitorReport`s as classifying each read where the schedule puts it.
//!
//! Generated reads observe only versions installed at their point in the
//! schedule (clamped in the driver loop) — the reachable state space: a
//! cache can never serve a version the database has not committed, and
//! verdict stability under later updates holds exactly on that domain. (An
//! earlier, unclamped version of this generator produced reads of future
//! versions and correctly detected that deferral changes their verdicts.)

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tcache_monitor::{ConsistencyMonitor, ReadPhase, TransactionClass};
use tcache_types::{CacheId, ObjectId, SimTime, TransactionRecord, TxnId, Version};

#[derive(Debug, Clone)]
enum Op {
    /// Commit an update writing the next version of each listed object.
    UpdateCommit(Vec<u64>),
    /// An update aborted by the database (counted, no history extension).
    UpdateAbort,
    /// A completed read-only transaction.
    Read {
        cache: u64,
        degraded: bool,
        reads: Vec<(u64, u64)>,
        committed: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(0u64..6, 1..4).prop_map(|mut objs| {
            objs.sort_unstable();
            objs.dedup();
            Op::UpdateCommit(objs)
        }),
        Just(Op::UpdateAbort),
        (
            (0u64..3, 0u64..2),
            (prop::collection::vec((0u64..6, 0u64..30), 1..5), 0u64..2),
        )
            .prop_map(|((cache, degraded), (reads, committed))| Op::Read {
                cache,
                degraded: degraded == 1,
                reads,
                committed: committed == 1,
            }),
        // A second read arm so the schedule mix leans toward reads.
        (0u64..3, prop::collection::vec((0u64..6, 0u64..30), 1..5)).prop_map(|(cache, reads)| {
            Op::Read {
                cache,
                degraded: false,
                reads,
                committed: true,
            }
        }),
    ]
}

/// A read as the replay logs it: who served it, in which phase, what it
/// observed and whether it committed.
type LoggedRead = (CacheId, ReadPhase, Vec<(ObjectId, Version)>, bool);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn updates_first_replay_matches_schedule_order(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut in_order = ConsistencyMonitor::new();
        let mut updates_first = ConsistencyMonitor::new();
        let mut reads: Vec<(LoggedRead, TransactionClass)> = Vec::new();
        let mut caches: BTreeSet<CacheId> = BTreeSet::new();
        // The database assigns each update transaction ONE version, larger
        // than every version previously installed, and installs it for all
        // of the transaction's writes; the interval test is sound only on
        // such version-ordered histories. `installed[o]` is the increasing
        // list of versions installed for object `o`.
        let mut next_version: u64 = 0;
        let mut installed: BTreeMap<u64, Vec<u64>> = BTreeMap::new();

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::UpdateCommit(objects) => {
                    next_version += 1;
                    let writes: Vec<(ObjectId, Version)> = objects
                        .iter()
                        .map(|&obj| {
                            installed.entry(obj).or_default().push(next_version);
                            (ObjectId(obj), Version(next_version))
                        })
                        .collect();
                    let record = TransactionRecord::update_committed(
                        TxnId(i as u64),
                        Vec::new(),
                        writes,
                        SimTime::from_micros(i as u64 + 1),
                    );
                    in_order.record_update_commit(&record);
                    updates_first.record_update_commit(&record);
                }
                Op::UpdateAbort => {
                    in_order.record_update_abort();
                    updates_first.record_update_abort();
                }
                Op::Read { cache, degraded, reads: raw, committed } => {
                    let cache = CacheId(*cache as u32);
                    caches.insert(cache);
                    let phase = if *degraded {
                        ReadPhase::Degraded
                    } else {
                        ReadPhase::Healthy
                    };
                    // Map each raw read onto a version actually installed
                    // for its object (or the initial version) — the only
                    // versions a cache could have served at this point.
                    let observed: Vec<(ObjectId, Version)> = raw
                        .iter()
                        .map(|&(o, raw)| {
                            let versions = installed.get(&o).map(Vec::as_slice).unwrap_or(&[]);
                            let idx = (raw as usize) % (versions.len() + 1);
                            let v = if idx == versions.len() { 0 } else { versions[idx] };
                            (ObjectId(o), Version(v))
                        })
                        .collect();
                    let class =
                        in_order.record_read_only_in_phase(cache, phase, &observed, *committed);
                    reads.push(((cache, phase, observed, *committed), class));
                }
            }
        }

        // The updates-first replay: every read classified after every
        // update, still in schedule order among the reads.
        for ((cache, phase, observed, committed), class) in &reads {
            let replayed =
                updates_first.record_read_only_in_phase(*cache, *phase, observed, *committed);
            prop_assert_eq!(replayed, *class);
        }

        // Global and partitioned reports agree exactly.
        prop_assert_eq!(updates_first.report(), in_order.report());
        for cache in caches {
            prop_assert_eq!(updates_first.cache_report(cache), in_order.cache_report(cache));
            for phase in [ReadPhase::Healthy, ReadPhase::Degraded] {
                prop_assert_eq!(
                    updates_first.phase_report(cache, phase),
                    in_order.phase_report(cache, phase)
                );
            }
        }
    }
}
