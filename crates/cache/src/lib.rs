//! The T-Cache edge cache (§III-B of the paper) and its baselines.
//!
//! The cache interacts with the database exactly like a consistency-unaware
//! cache — single-entry reads on misses, asynchronous invalidations — but it
//! additionally stores each object's version and dependency list, exports a
//! transactional read-only interface (`read(txn_id, key, last_op)`), and
//! checks every read against the transaction's previous reads using the two
//! violation predicates of §III-B. On detection it reacts with one of the
//! three strategies **ABORT**, **EVICT** or **RETRY**.
//!
//! The same implementation, parameterised by [`CachePolicyConfig`], also
//! provides the two baselines used in the evaluation: the plain
//! consistency-unaware cache and the TTL-limited cache of §V-B2.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tcache_cache::EdgeCache;
//! use tcache_db::{Database, DatabaseConfig};
//! use tcache_types::{CacheId, ObjectId, SimTime, Strategy, TxnId, Value};
//!
//! let db = Arc::new(Database::new(DatabaseConfig::with_bound(3)));
//! db.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
//!
//! let cache = EdgeCache::tcache(CacheId(0), Arc::clone(&db), 3, Strategy::Abort);
//! let now = SimTime::ZERO;
//! let v = cache.read(now, TxnId(1), ObjectId(2), false).expect("read");
//! assert_eq!(v.id, ObjectId(2));
//! let _ = cache.read(now, TxnId(1), ObjectId(3), true).expect("read");
//! assert!(cache.stats().misses >= 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod consistency;
pub mod entry;
pub mod lifecycle;
pub mod stats;
pub mod storage;
mod stripe;
pub mod tcache;
mod txn_record;

pub use consistency::{Violation, ViolationKind};
pub use entry::CacheEntry;
pub use lifecycle::{
    LifecycleState, LifecycleStats, LifecycleStatsSnapshot, ObservedVec, ReadMode, ReadTxnLog,
};
pub use stats::{CacheStats, CacheStatsSnapshot};
pub use storage::{Admission, AdmitToken, CacheStorage, ShardedCacheStorage};
pub use tcache::{CacheReadPath, EdgeCache};
pub use tcache_types::{CachePolicyConfig, Strategy};
