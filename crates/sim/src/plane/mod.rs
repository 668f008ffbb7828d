//! Execution planes: one [`ExperimentConfig`] runs on either backend.
//!
//! [`ExperimentConfig`]: crate::experiment::ExperimentConfig
//!
//! An experiment is a deterministic transaction [`Schedule`] plus a choice
//! of *execution plane* — the machinery that actually runs those
//! transactions and delivers invalidations:
//!
//! Both planes model each cache's invalidation link with the same
//! [`LinkStep`](tcache_net::delivery::LinkStep) — seeded loss, each
//! message's own latency, an in-flight deadline heap — and differ only in
//! the clock that drives it:
//!
//! * [`ExecutionPlane::DiscreteEvent`] (the default) replays the schedule
//!   against the simulated components in virtual time: each cache's step
//!   admits the invalidations of every commit at its scheduled instant and
//!   delivers them at their virtual deadlines, and nothing runs
//!   concurrently. Fast, exactly reproducible, the plane every paper
//!   figure historically used.
//! * [`ExecutionPlane::Live`] partitions the same schedule over real
//!   threads driving a real `TCacheSystem`: update transactions commit
//!   against the backend on the driver thread, each cache's read-only
//!   client population runs on its own thread (sized by
//!   `CacheTopology::client_shares`), and each cache's step runs in
//!   wall-clock time *inside* the reactor's delivery task
//!   ([`tcache_net::delivery`]), seeded from `(seed, CacheId)` like
//!   everything else.
//!
//! Because both planes execute the same schedule against the same seeded
//! loss streams, a lockstep live run at zero delivery delay produces the
//! *same* `ConsistencyMonitor` verdicts as the discrete-event plane — the
//! cross-plane parity the tests pin down. (At a non-zero delay the live
//! plane's deadlines are wall-clock instants, which a lockstep run cannot
//! align with the schedule's virtual ones.) With free-running clients
//! ([`LivePacing::Concurrent`]) the live plane instead measures what the
//! real stack does under genuine concurrency.
//!
//! [`Schedule`]: crate::schedule::Schedule

pub(crate) mod discrete;
pub(crate) mod live;

/// The scenario's deterministic client-latency model, shared by both
/// planes: latency is *modeled*, not measured — a pure function of
/// `(run seed, transaction id, scheduled time, degraded?)` — so the same
/// configuration fills bit-identical histograms on either plane and
/// across repeated runs (wall-clock measurements could never satisfy
/// that).
#[derive(Clone)]
pub(crate) struct ScenarioLatency {
    spec: tcache_workload::ScenarioSpec,
    seed: u64,
    backend_rtt_micros: u64,
}

impl ScenarioLatency {
    /// The latency model of `config`'s scenario, if one is set. The
    /// modeled backend round trip is tied to the configured invalidation
    /// delay (same network) plus a fixed query cost.
    pub(crate) fn from_config(config: &crate::experiment::ExperimentConfig) -> Option<Self> {
        config.scenario.as_ref().map(|spec| ScenarioLatency {
            spec: spec.clone(),
            seed: tcache_types::scenario_seed(
                config.seed,
                tcache_workload::scenario::streams::LATENCY,
            ),
            backend_rtt_micros: 2 * config.invalidation_delay.as_micros() + 5_000,
        })
    }

    /// Records the modeled latency of read `txn` scheduled at `now` into
    /// `histogram`.
    pub(crate) fn record(
        &self,
        histogram: &mut tcache_workload::LatencyHistogram,
        now: tcache_types::SimTime,
        txn: tcache_types::TxnId,
        degraded: bool,
    ) {
        histogram.record(self.spec.modeled_latency_micros(
            self.seed,
            now,
            txn.0,
            degraded,
            self.backend_rtt_micros,
        ));
    }
}

/// Which backend executes the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ExecutionPlane {
    /// The discrete-event simulator in virtual time (the default).
    #[default]
    DiscreteEvent,
    /// A real `TCacheSystem` in reactor transport with modeled delivery,
    /// driven by real client threads.
    Live(LiveOptions),
}

/// How the live plane's threads execute the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LivePacing {
    /// Deterministic: the driver dispatches transactions in schedule order
    /// and waits for each to complete (reads still execute on their
    /// cache's client thread, invalidations still flow through the
    /// reactor's delivery tasks); the reactor is quiesced after every
    /// update commit. At zero delivery delay this makes the live plane
    /// verdict-identical to the discrete-event plane on the same seed —
    /// the configuration for cross-plane validation. With a nonzero delay
    /// the quiesce waits each delivery out, so lockstep behaves like a
    /// zero-delay run measured on the live stack.
    #[default]
    Lockstep,
    /// Free-running: every client thread works through its slice of the
    /// schedule as fast as pacing allows, concurrently with the update
    /// driver and the reactor. Nondeterministic by nature; this is the
    /// plane for wall-clock throughput and behaviour under real races.
    Concurrent,
}

/// Tuning of an [`ExecutionPlane::Live`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveOptions {
    /// Lockstep (deterministic) or concurrent (free-running) execution.
    pub pacing: LivePacing,
    /// Wall-clock seconds per simulated second used to pace transaction
    /// start times under [`LivePacing::Concurrent`] (`0.0` = unpaced, run
    /// flat out). Ignored under lockstep, whose dispatch order *is* the
    /// pacing.
    pub time_scale: f64,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions::lockstep()
    }
}

impl LiveOptions {
    /// Deterministic lockstep execution (see [`LivePacing::Lockstep`]).
    pub fn lockstep() -> Self {
        LiveOptions {
            pacing: LivePacing::Lockstep,
            time_scale: 0.0,
        }
    }

    /// Free-running concurrent execution at full speed.
    pub fn concurrent() -> Self {
        LiveOptions {
            pacing: LivePacing::Concurrent,
            time_scale: 0.0,
        }
    }

    /// Free-running concurrent execution paced to `time_scale` wall-clock
    /// seconds per simulated second (1.0 = real time).
    pub fn concurrent_paced(time_scale: f64) -> Self {
        assert!(
            time_scale.is_finite() && time_scale >= 0.0,
            "time scale must be non-negative"
        );
        LiveOptions {
            pacing: LivePacing::Concurrent,
            time_scale,
        }
    }
}
