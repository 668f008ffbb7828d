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
//! * [`channel`] — a discrete-event delivery queue combining a loss model,
//!   a latency model and an optional pipe capacity with overflow policy,
//!   used only by `tcache-sim`'s discrete-event plane;
//! * [`fanout`] — one such channel per edge cache, independently seeded
//!   from `(run_seed, CacheId)` (likewise `tcache-sim` only: a
//!   `TCacheSystem` never routes through it);
//! * [`pipe`] — bounded MPSC pipes with explicit overflow policies
//!   (`Block` / `DropNewest` / `DropOldest`) and per-pipe counters, the
//!   building block of the live invalidation plane: batches in
//!   (`send_batch` / `try_send_batch`, or served at once by `hand_off`),
//!   batches out (`recv_batch_async` on a reactor task);
//! * [`reactor`] — a hand-rolled single-threaded reactor (ready queue,
//!   parked-task table, timer wheel) that multiplexes many caches' pipes
//!   in one event loop;
//! * [`delivery`] — the live plane's link model: per-cache [`Link`]s
//!   applying the same loss / latency models in wall-clock time — on the
//!   cache's reactor task, or on the committing thread when the link has
//!   nothing to wait for — with seeds derived from `(run_seed, CacheId)`.
//!
//! [`pipe`] + [`reactor`] + [`delivery`] are the one live plane (wired up by
//! the `tcache` facade's `transport` module); [`Link::offer`] is the only
//! way a committed batch enters it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod channel;
pub mod delivery;
pub mod fanout;
pub mod fault;
pub mod latency;
pub mod pipe;
pub mod reactor;

pub use channel::{InvalidationChannel, PendingDelivery};
pub use delivery::{
    run_delivery, DeliveryCounters, DeliveryModel, DeliveryStatsSnapshot, DeliveryTask, Link,
};
pub use fanout::{CacheLink, InvalidationFanout};
pub use fault::{FaultCursor, FaultEvent, FaultKind, FaultPlan, LossModel, LossState};
pub use latency::LatencyModel;
pub use pipe::{
    bounded_pipe, OverflowPolicy, PipeReceiver, PipeSender, PipeStatsSnapshot, UNBOUNDED,
};
pub use reactor::{Reactor, ReactorHandle, ReactorStats, TaskId, TimerHandle};
