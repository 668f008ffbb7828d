//! # T-Cache
//!
//! A from-scratch reproduction of *Cache Serializability: Reducing
//! Inconsistency in Edge Transactions* (Eyal, Birman, van Renesse,
//! ICDCS 2015).
//!
//! Read-only edge caches are updated asynchronously and unreliably by the
//! backend database, so read-only transactions served from a cache can
//! observe inconsistent data. T-Cache attaches a small, bounded
//! **dependency list** (object id + version pairs) to every object, lets the
//! cache check each read of a transaction against the dependency
//! information of the transaction's earlier reads, and reacts to detected
//! violations with one of three strategies (ABORT, EVICT, RETRY) — all
//! without any extra round trips to the database on cache hits.
//!
//! This facade crate re-exports the individual subsystem crates and offers
//! [`TCacheSystem`], a batteries-included single-process deployment (one
//! backend database, one or more edge caches, an unreliable asynchronous
//! invalidation channel per cache) that a downstream user can embed directly
//! or use to explore the protocol. There is one live invalidation plane
//! ([`transport`]): commits offer their invalidations to per-cache links,
//! each applying its cache's loss / latency model in wall-clock time — on
//! the committing thread when the link has nothing to wait for, otherwise
//! through a bounded pipe to one reactor thread, so a read can race an
//! invalidation exactly as at a real edge — and [`TCacheSystem::quiesce`]
//! waits in-flight deliveries out. Cache serializability is a per-cache
//! property, so a multi-cache system gives every cache its own
//! independently seeded, independently lossy channel —
//! `SystemBuilder::cache_loss_rates(vec![0.0, 0.2, 0.4])` deploys three
//! caches with heterogeneous links.
//!
//! ```
//! use tcache::{ReadOutcome, SystemBuilder};
//! use tcache_types::{ObjectId, Strategy, Value};
//!
//! // A small catalogue with dependency lists bounded at 3.
//! let system = SystemBuilder::new()
//!     .dependency_bound(3)
//!     .strategy(Strategy::Retry)
//!     .invalidation_loss(0.2)
//!     .build();
//! system.populate((0..10).map(|i| (ObjectId(i), Value::new(0))));
//!
//! // An update transaction writes two related objects atomically.
//! system.update(&[ObjectId(1), ObjectId(2)]).expect("update commits");
//!
//! // A read-only transaction through the edge cache sees a consistent view.
//! match system.read_transaction(&[ObjectId(1), ObjectId(2)]).expect("no backend error") {
//!     ReadOutcome::Committed(values) => assert_eq!(values.len(), 2),
//!     ReadOutcome::Aborted { .. } => { /* retry the transaction */ }
//! }
//! ```
//!
//! The crates behind the facade:
//!
//! * [`tcache_types`] — identifiers, versions, dependency lists;
//! * [`tcache_db`] — the transactional backend store (strict 2PL, version
//!   assignment, dependency aggregation, invalidation publication);
//! * [`tcache_net`] — the invalidation link: loss / latency models, the
//!   link step both planes drive, pipes and the reactor;
//! * [`tcache_cache`] — the edge cache with the violation predicates and
//!   strategies, plus the plain and TTL baselines;
//! * [`tcache_monitor`] — the serialization-graph-testing oracle used by the
//!   evaluation;
//! * [`tcache_workload`] — synthetic and graph-based workload generators.
//!
//! The experiment harness lives in `tcache-sim`, *on top of* this crate:
//! its live execution plane drives a [`TCacheSystem`], and its
//! discrete-event plane (the deterministic virtual-time twin) drives one
//! [`tcache_net::LinkStep`] per cache directly, so the harness depends on
//! the facade rather than the other way around.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod builder;
pub mod prelude;
pub mod system;
pub mod transport;

pub use builder::{two_tier_parents, SystemBuilder};
pub use system::{CacheNodeStats, ReadOutcome, SystemStats, TCacheSystem};
pub use transport::{DeliveryMode, TransportMode};

pub use tcache_cache as cache;
pub use tcache_db as db;
pub use tcache_monitor as monitor;
pub use tcache_net as net;
pub use tcache_types as types;
pub use tcache_workload as workload;
