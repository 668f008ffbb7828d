//! Workload generation for the T-Cache evaluation.
//!
//! Two families of workloads drive the experiments of §V:
//!
//! * **Synthetic** (§V-A1): 2000 objects partitioned into clusters of five;
//!   either *perfectly clustered* accesses (all five accesses of a
//!   transaction fall in one cluster) or *approximately clustered* accesses
//!   where each access is drawn from a bounded Pareto distribution anchored
//!   at the cluster head (parameter α controls how strongly accesses stay
//!   inside the cluster). Variants model an unclustered phase followed by a
//!   clustered phase (Figure 4) and clusters that drift by one object every
//!   few minutes (Figure 5).
//!
//! * **Graph-based** (§V-B1): the paper samples the Amazon co-purchasing
//!   graph and the Orkut friendship graph down to 1000 nodes with a
//!   random-walk sampler and generates transactions as 5-step random walks.
//!   The original snapshots are not redistributable, so this crate ships
//!   synthetic generators with the same structural signatures — a highly
//!   clustered "retail affinity" graph and a less clustered "social network"
//!   graph — together with the same random-walk sampler and random-walk
//!   transaction generator (see `DESIGN.md` for the substitution rationale).
//!
//! A third layer goes beyond the paper toward the ROADMAP's
//! production-scale north star: the **scenario engine** primitives. The
//! [`zipf`] module provides a Zipfian key sampler whose draws are pure
//! functions of `(seed, draw index)` — replayable bit-identically under
//! any worker-thread interleaving — the [`scenario`] module composes it
//! with hot-key storms, flash crowds, diurnal load curves, invalidation
//! stampedes and cache churn into named [`ScenarioSpec`]s, and the
//! [`histogram`] module supplies the HDR-style latency recorder the
//! engine fills per cache and per scenario.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod generator;
pub mod graph;
pub mod graph_walk;
pub mod histogram;
pub mod pareto;
pub mod scenario;
pub mod synthetic;
pub mod zipf;

pub use generator::{AccessPattern, WorkloadGenerator};
pub use graph::{Graph, GraphKind};
pub use graph_walk::RandomWalkWorkload;
pub use histogram::LatencyHistogram;
pub use pareto::BoundedPareto;
pub use scenario::{
    catalog, churn_rotation, ChurnAction, ChurnEvent, CrowdShift, HotKeyStorm, LoadCurve,
    ScenarioSpec, Stampede,
};
pub use synthetic::{
    DriftingClusters, ParetoClusters, PerfectClusters, PhaseShift, UniformRandom,
};
pub use zipf::{ZipfSampler, ZipfWorkload};
