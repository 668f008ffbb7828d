//! The discrete-event experiment harness.
//!
//! This crate wires together the backend database, the unreliable
//! invalidation channels, the edge caches, the consistency monitor and a
//! workload generator into the setup of §IV (Figure 2), generalized from
//! one cache to a [`experiment::CacheTopology`] of N caches: update clients
//! drive the database at a fixed rate, each cache's read-only client
//! population drives its cache, the database fans invalidations out over
//! each cache's own (independently seeded, possibly heterogeneously lossy)
//! channel, and the monitor classifies every completed read-only
//! transaction both globally and per cache.
//!
//! [`experiment::ExperimentConfig::run`] runs one configuration to
//! completion and returns an [`results::ExperimentResult`]; [`figures`]
//! contains one driver per figure of the paper's evaluation, each of which
//! returns the rows / series that the corresponding figure plots.
//!
//! Execution is split from specification: [`schedule::Schedule`] turns a
//! configuration into a deterministic transaction script, and the
//! configured [`plane::ExecutionPlane`] decides what executes it — the
//! discrete-event simulator (the default) or the *live* plane, which
//! drives a real `TCacheSystem` (reactor transport, modeled delivery) with
//! one client thread per cache. The same config runs unchanged on either.
//!
//! # Example
//!
//! ```
//! use tcache_sim::experiment::{CacheKind, ExperimentConfig, WorkloadKind};
//! use tcache_types::{SimDuration, Strategy};
//!
//! let config = ExperimentConfig {
//!     duration: SimDuration::from_secs(5),
//!     workload: WorkloadKind::PerfectClusters { objects: 500, cluster_size: 5 },
//!     cache: CacheKind::TCache { dependency_bound: 3, strategy: Strategy::Abort },
//!     ..ExperimentConfig::default()
//! };
//! let result = config.run();
//! assert!(result.report.read_only_total() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bridge;
pub mod clients;
pub mod event;
pub mod experiment;
pub mod figures;
pub mod plane;
pub mod results;
pub mod schedule;
pub mod timeseries;

pub use bridge::{BridgeDivergence, BridgeReport, DifferentialBridge, TxnReport};
pub use experiment::{CacheKind, CacheSite, CacheTopology, Experiment, ExperimentConfig, WorkloadKind};
pub use plane::{ExecutionPlane, LiveOptions, LivePacing};
pub use schedule::{Schedule, ScheduledTxn};
pub use results::{CacheColumnResult, ExperimentResult};
pub use timeseries::{TimeBin, TimeSeries};
