//! The asynchronous, unreliable channel between the database and the caches.
//!
//! The defining property of the paper's setting is that invalidations are
//! delivered to edge caches *asynchronously* and *unreliably*: "they could be
//! delayed (e.g., due to buffering or retransmissions after message loss),
//! not sent (e.g., due to an inaccurate list of locations), or even lost"
//! (§II). The experiment drops 20 % of invalidations uniformly at random.
//!
//! This crate models that channel:
//!
//! * [`fault`] — loss models (none, uniform probability, bursts) and
//!   deterministic fault schedules ([`FaultPlan`]: crash/restart windows,
//!   partitions, delay spikes) injectable on both execution planes;
//! * [`latency`] — delay models (constant, uniform, exponential);
//! * [`delivery`] — the link model: one [`LinkStep`] per cache (seeded
//!   loss draw, deadline stamping, an in-flight deadline heap, optional
//!   capacity with overflow policy) that both execution planes drive with
//!   an explicit clock — `tcache-sim`'s discrete-event plane on virtual
//!   time, and the live plane's per-cache [`Link`]s in wall-clock time, on
//!   the cache's reactor task or on the committing thread when the link
//!   has nothing to wait for;
//! * [`pipe`] — bounded MPSC pipes with explicit overflow policies
//!   (`Block` / `DropNewest` / `DropOldest`) and per-pipe counters, the
//!   building block of the live invalidation plane: batches in
//!   (`send_batch` / `try_send_batch`, or served at once by `hand_off`),
//!   batches out (`recv_batch_async` on a reactor task);
//! * [`reactor`] — a hand-rolled single-threaded reactor (ready queue,
//!   parked-task table, timer wheel) that multiplexes many caches' pipes
//!   in one event loop.
//!
//! [`pipe`] + [`reactor`] + [`delivery`] are the one live plane (wired up by
//! the `tcache` facade's `transport` module); [`Link::offer`] is the only
//! way a committed batch enters it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod delivery;
pub mod fault;
pub mod latency;
pub mod pipe;
pub mod reactor;

pub use delivery::{
    run_delivery, DeliveryCounters, DeliveryModel, DeliveryStatsSnapshot, DeliveryTask, Link,
    LinkStep,
};
pub use fault::{FaultCursor, FaultEvent, FaultKind, FaultPlan, LossModel, LossState};
pub use latency::LatencyModel;
pub use pipe::{
    bounded_pipe, OverflowPolicy, PipeReceiver, PipeSender, PipeStatsSnapshot, UNBOUNDED,
};
pub use reactor::{Reactor, ReactorHandle, ReactorStats, TaskId, TimerHandle};

// `LinkStep`'s suites for what the discrete-event channel and the per-cache
// fan-out guaranteed before the step replaced both, kept under the test
// paths they had there.
#[cfg(test)]
#[path = "link_step_tests/channel.rs"]
mod channel;
#[cfg(test)]
#[path = "link_step_tests/fanout.rs"]
mod fanout;
