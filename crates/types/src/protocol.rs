//! Protocol-level action and trace vocabulary for the model checker.
//!
//! The explicit-state model in `tcache-model` explores interleavings of a
//! small closed system — a backend database, N edge caches and K scripted
//! transactions — one [`ProtocolAction`] at a time. A [`ProtocolTrace`] (a
//! sequence of actions starting from the initial state) is therefore a
//! complete, replayable description of one execution: the explorer emits
//! traces as counterexamples, and the differential bridge in `tcache-sim`
//! replays the very same trace against the real `Database`/`EdgeCache`
//! stack.
//!
//! The vocabulary lives here, in `tcache-types`, so that the model crate
//! (which must not depend on the implementation) and the bridge (which
//! drives the implementation) share one definition with no duplication.
//!
//! Actions reference scripted work by *index* — `update` indexes the
//! checked configuration's update-transaction table, `txn` its read-only
//! scripts, `cache` its cache table — keeping the trace representation
//! small, hashable and independent of identifier allocation.

use std::fmt;

/// One atomic step of the modeled protocol.
///
/// Each variant corresponds to an operation of the real system with its
/// concurrency collapsed to a single serializable step (an update's
/// commit becomes an atomic install-and-publish; a read-only transaction
/// advances one key per step so that commits and invalidation deliveries
/// can interleave with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolAction {
    /// The update transaction at index `update` of the configuration
    /// commits: it installs new versions for its whole write set atomically
    /// and publishes one sequenced invalidation per written object to every
    /// connected cache's in-flight queue.
    UpdateCommit {
        /// Index into the configuration's update table.
        update: usize,
    },
    /// Cache `cache` receives the invalidation at position `index` of its
    /// in-flight queue. `index > 0` models network reordering: a later
    /// invalidation overtakes earlier ones, which stay queued.
    Deliver {
        /// Index into the configuration's cache table.
        cache: usize,
        /// Position in the cache's in-flight queue (0 = oldest).
        index: usize,
    },
    /// The invalidation at position `index` of cache `cache`'s in-flight
    /// queue is lost in transit and will never arrive.
    DropInvalidation {
        /// Index into the configuration's cache table.
        cache: usize,
        /// Position in the cache's in-flight queue (0 = oldest).
        index: usize,
    },
    /// The read-only transaction at index `txn` of the configuration
    /// executes its next scripted read at its serving cache. If the cache
    /// has degraded to pass-through mode when the transaction *starts*, the
    /// single step executes the whole remaining script against the backend
    /// (mirroring the implementation, where a pass-through transaction is
    /// one synchronous backend round).
    ReadStep {
        /// Index into the configuration's read-only script table.
        txn: usize,
    },
    /// Cache `cache` crashes: its store and in-flight queue are lost and
    /// its link is severed until [`ProtocolAction::Restart`].
    Crash {
        /// Index into the configuration's cache table.
        cache: usize,
    },
    /// A crashed cache restarts cold, adopting the backend's current
    /// invalidation stream position.
    Restart {
        /// Index into the configuration's cache table.
        cache: usize,
    },
    /// Cache `cache` is partitioned from the database: its store keeps
    /// serving (staling) reads but invalidations no longer arrive; queued
    /// in-flight invalidations are lost with the link.
    Partition {
        /// Index into the configuration's cache table.
        cache: usize,
    },
    /// A partitioned (or degraded) cache reconnects, resyncing first when
    /// the recovery policy calls for it.
    Reconnect {
        /// Index into the configuration's cache table.
        cache: usize,
    },
    /// The logical clock advances by one tick. Ticks are the only source of
    /// time in the model; a disconnected cache degrades to pass-through
    /// when more ticks than its staleness budget have elapsed since the
    /// partition.
    Tick,
}

impl ProtocolAction {
    /// A short stable mnemonic for the action kind (used in reports).
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolAction::UpdateCommit { .. } => "update-commit",
            ProtocolAction::Deliver { .. } => "deliver",
            ProtocolAction::DropInvalidation { .. } => "drop",
            ProtocolAction::ReadStep { .. } => "read-step",
            ProtocolAction::Crash { .. } => "crash",
            ProtocolAction::Restart { .. } => "restart",
            ProtocolAction::Partition { .. } => "partition",
            ProtocolAction::Reconnect { .. } => "reconnect",
            ProtocolAction::Tick => "tick",
        }
    }
}

impl fmt::Display for ProtocolAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolAction::UpdateCommit { update } => write!(f, "update-commit(u{update})"),
            ProtocolAction::Deliver { cache, index } => {
                write!(f, "deliver(c{cache}, queue[{index}])")
            }
            ProtocolAction::DropInvalidation { cache, index } => {
                write!(f, "drop(c{cache}, queue[{index}])")
            }
            ProtocolAction::ReadStep { txn } => write!(f, "read-step(t{txn})"),
            ProtocolAction::Crash { cache } => write!(f, "crash(c{cache})"),
            ProtocolAction::Restart { cache } => write!(f, "restart(c{cache})"),
            ProtocolAction::Partition { cache } => write!(f, "partition(c{cache})"),
            ProtocolAction::Reconnect { cache } => write!(f, "reconnect(c{cache})"),
            ProtocolAction::Tick => write!(f, "tick"),
        }
    }
}

/// A replayable execution: the sequence of actions applied from the initial
/// state of a checked configuration.
pub type ProtocolTrace = Vec<ProtocolAction>;

/// Renders a trace as a numbered, one-action-per-line listing (the format
/// used for counterexample reports).
pub fn format_trace(trace: &[ProtocolAction]) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    for (i, action) in trace.iter().enumerate() {
        let _ = writeln!(out, "  {i:>3}. {action}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_stable() {
        assert_eq!(
            ProtocolAction::UpdateCommit { update: 0 }.to_string(),
            "update-commit(u0)"
        );
        assert_eq!(
            ProtocolAction::Deliver { cache: 1, index: 2 }.to_string(),
            "deliver(c1, queue[2])"
        );
        assert_eq!(ProtocolAction::Tick.to_string(), "tick");
        assert_eq!(ProtocolAction::Tick.kind(), "tick");
    }

    #[test]
    fn trace_formatting_numbers_actions() {
        let trace = vec![
            ProtocolAction::UpdateCommit { update: 0 },
            ProtocolAction::ReadStep { txn: 1 },
        ];
        let rendered = format_trace(&trace);
        assert!(rendered.contains("0. update-commit(u0)"));
        assert!(rendered.contains("1. read-step(t1)"));
    }
}
