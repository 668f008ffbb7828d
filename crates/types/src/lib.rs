//! Common vocabulary types for the T-Cache reproduction.
//!
//! This crate defines the identifiers, versions, dependency lists, read/write
//! sets and configuration enums shared by the backend database, the edge
//! cache, the consistency monitor and the experiment harness.
//!
//! The central type is [`DependencyList`]: a bounded, LRU-pruned list of
//! `(ObjectId, Version)` pairs stored alongside every database object and
//! every cache entry, exactly as described in §III-A of the paper
//! *Cache Serializability: Reducing Inconsistency in Edge Transactions*
//! (Eyal, Birman, van Renesse, ICDCS 2015).
//!
//! # Example
//!
//! ```
//! use tcache_types::{DependencyList, ObjectId, Version};
//!
//! let mut deps = DependencyList::bounded(3);
//! deps.record(ObjectId(1), Version(10));
//! deps.record(ObjectId(2), Version(11));
//! deps.record(ObjectId(3), Version(12));
//! deps.record(ObjectId(4), Version(13)); // evicts the LRU entry (object 1)
//! assert_eq!(deps.len(), 3);
//! assert!(deps.version_of(ObjectId(1)).is_none());
//! assert_eq!(deps.version_of(ObjectId(4)), Some(Version(13)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod dependency;
pub mod entry;
pub mod error;
pub mod ids;
pub mod protocol;
pub mod seeding;
pub mod time;
pub mod transaction;
pub mod value;

pub use config::{CachePolicyConfig, DependencyBound, RecoveryPolicy, Strategy, TtlConfig};
pub use dependency::{DependencyEntry, DependencyList};
pub use entry::{ObjectEntry, VersionedObject};
pub use error::{ConflictReason, TCacheError, TCacheResult};
pub use ids::{CacheId, ClientId, IdHasher, IdMap, IdSet, ObjectId, TxnId, Version};
pub use protocol::{format_trace, ProtocolAction, ProtocolTrace};
pub use seeding::{
    cache_channel_seed, cache_delay_seed, derive_stream_seed, fault_seed, scenario_seed, zipf_seed,
};
pub use time::{SimDuration, SimTime};
pub use transaction::{
    AccessSet, ReadOnlyOutcome, ReadRecord, ReadSet, TransactionKind, TransactionRecord,
    WriteRecord, WriteSet,
};
pub use value::Value;
