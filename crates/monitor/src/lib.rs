//! The experiment-only consistency monitor (§IV of the paper).
//!
//! "Both the database and the cache report all completed transactions to a
//! consistency monitor […] It performs full serialization graph testing and
//! calculates the rate of inconsistent transactions that committed and the
//! rate of consistent transactions that were unnecessarily aborted."
//!
//! The monitor is *not* part of the T-Cache protocol; it is the oracle used
//! to measure how well the protocol does. Two equivalent checkers are
//! provided:
//!
//! * [`sgt`] — an explicit serialization graph (update transactions plus one
//!   read-only transaction) with cycle detection, the textbook construction;
//! * [`monitor`] — the checker used by the harness, layering the two: a
//!   read-only transaction is first tested against the update *commit
//!   order* (an interval-intersection test over the version history — cheap
//!   and conservative, since placement in commit order implies
//!   serializability), and only reads failing that fast path are re-checked
//!   with the exact SGT, which additionally accepts the rare histories
//!   where independent updates can be reordered to accommodate the reads.
//!   Property tests assert the one-sided relationship between the two
//!   checkers (interval-consistent ⇒ SGT-consistent) that makes this
//!   layering sound.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod graph;
pub mod history;
pub mod monitor;
pub mod report;
pub mod sgt;

pub use history::VersionHistory;
pub use monitor::ConsistencyMonitor;
pub use report::{MonitorReport, ReadPhase, TransactionClass};
pub use sgt::SerializationGraph;
