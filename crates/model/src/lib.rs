//! Explicit-state model checking for the T-Cache protocol core.
//!
//! This crate holds a small, exact model of the protocol the repo
//! implements — backend database with sequenced invalidation log, N edge
//! caches (plain or T-Cache policies, crash/partition lifecycle,
//! gap-triggered resync) and K scripted transactions — together with a
//! hand-rolled BFS explorer that enumerates *every* reachable interleaving
//! of a [`config::ModelConfig`] and checks four invariants on the way:
//!
//! 1. Theorem-1 serializability of committed T-Cache read-only
//!    transactions,
//! 2. monitor soundness (no serializable read set flagged),
//! 3. monitor completeness (no non-serializable read set accepted),
//! 4. recovery safety (a healthy cache under `GapResync` never caches a
//!    version older than its acknowledged stream position announces).
//!
//! Ground truth for 1–3 is computed by brute-force subset enumeration
//! ([`oracle::ground_truth_serializable`]), independent of the monitor
//! code it judges. On a violation the explorer reconstructs the
//! depth-minimal trace and [`explore::minimize`] prunes it further; the
//! differential bridge in `tcache-sim` then replays the minimized
//! [`tcache_types::ProtocolTrace`] action-by-action against the real
//! `Database`/`EdgeCache`/`ConsistencyMonitor` stack and demands exact
//! agreement on every observable (versions read, abort objects, stream
//! positions, lifecycle states and counters).
//!
//! The transition function in [`state`] mirrors the implementation line by
//! line; see the "checked core" section of `docs/ARCHITECTURE.md` for the
//! abstraction map and `docs/REPRODUCING.md` for the `model_check`
//! scenarios and their expected state counts.
//!
//! [`epoch`] separately explores the fetch-vs-invalidate race on one
//! cache stripe at sub-operation granularity (why the storage's admission
//! epoch, and the stripe mutex around it, are load-bearing).
//!
//! No external dependencies beyond the workspace (the explorer, hashing
//! and minimization are hand-rolled), matching the offline-shim policy of
//! `crates/support/`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod epoch;
pub mod explore;
pub mod invariant;
pub mod oracle;
pub mod state;

pub use config::{CachePolicyKind, FaultBudget, ModelConfig, ModelRecovery, ReadScript};
pub use epoch::{explore_epoch, EpochExploration, EpochModelConfig, EpochStats, EpochViolation};
pub use explore::{explore, minimize, replay, Exploration, ExploreOptions, ExploreStats, Replay};
pub use invariant::{InvariantChecker, InvariantKind, InvariantViolation};
pub use oracle::{
    ground_truth_serializable, history_of, read_txn_id, update_txn_id, IntervalOnlyOracle,
    OracleUpdate, SerializabilityOracle, TwoTierOracle,
};
pub use state::{
    CacheState, CacheStatus, DbState, ModelDeps, ModelInvalidation, ModelReplay, ModelState,
    StoreEntry, TxnMode, TxnOutcome, TxnState,
};
