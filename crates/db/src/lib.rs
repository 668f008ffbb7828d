//! The backend transactional key-value store of the T-Cache reproduction.
//!
//! The paper's experimental setup uses "a single database \[that\] implements a
//! transactional key-value store with two-phase commit" (§IV). This crate
//! provides that substrate, built from scratch:
//!
//! * [`store`] — the versioned object store (latest version + dependency
//!   list per object); every read copies its entry under the lock of the
//!   object's bucket;
//! * [`locks`] — a per-object lock table with two-phase locking and no-wait
//!   deadlock avoidance;
//! * `commit` (private) — an update's commit over that one store and one
//!   lock table, under strict two-phase locking: lock everything, read
//!   each object once under its lock, install, release;
//! * [`version_clock`] — transaction version assignment (a transaction's
//!   version is larger than the version of every object it accessed);
//! * [`dependency_update`] — the commit-time dependency-list aggregation and
//!   LRU pruning of §III-A, computing only the head the stored lists are
//!   cut from;
//! * [`invalidation`] — invalidation records published after every update
//!   transaction, to be delivered (unreliably) to caches;
//! * [`publisher`] — the per-cache upcall registry fanning each committed
//!   update's invalidations out to every registered cache (§IV);
//! * [`log`] — the bounded invalidation log that stamps each published
//!   invalidation with a stream sequence number and replays the suffix a
//!   recovering cache missed (or reports truncation, forcing a snapshot
//!   resync);
//! * [`database`] — the [`Database`] façade combining all of the above.
//!
//! # Example
//!
//! ```
//! use tcache_db::database::{Database, DatabaseConfig};
//! use tcache_types::{AccessSet, ObjectId, TxnId, Value};
//!
//! let db = Database::new(DatabaseConfig::default());
//! db.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
//!
//! let access: AccessSet = vec![1u64, 2, 3].into();
//! let commit = db.execute_update(TxnId(1), &access).expect("commit");
//! assert_eq!(commit.written.len(), 3);
//! let entry = db.read_entry(ObjectId(1)).expect("entry");
//! assert_eq!(entry.version, commit.version);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod commit;
pub mod database;
pub mod dependency_update;
pub mod invalidation;
pub mod locks;
pub mod log;
pub mod publisher;
pub mod stats;
pub mod store;
pub mod version_clock;

pub use database::{Database, DatabaseConfig, UpdateCommit};
pub use invalidation::{Invalidation, InvalidationBatch};
pub use log::{InvalidationLog, InvalidationReplay};
pub use publisher::{InvalidationPublisher, PublishStats, ReportingSink, SinkReport};
pub use stats::DbStats;
pub use store::{VersionedStore, BUCKETS};
