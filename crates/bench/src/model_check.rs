//! Exhaustive model checking of the protocol core, with counterexample
//! replay against the real stack.
//!
//! Explores every reachable interleaving of each scenario in the
//! `tcache-model` suite (backend + N caches + scripted transactions under
//! crashes, partitions, drops and reordering), checking the four
//! invariants — Theorem-1 serializability, monitor soundness, monitor
//! completeness and recovery safety — on the way, then demonstrates the
//! counterexample pipeline end to end:
//!
//! * an intentionally-broken monitor variant (interval test without the
//!   SGT fallback) must be caught as a monitor-soundness violation, the
//!   trace minimized, and the minimized trace replayed through the
//!   differential bridge onto the real `Database`/`EdgeCache`/monitor
//!   stack with every observable agreeing — including the defect itself;
//! * the no-recovery configuration must violate recovery safety
//!   (demonstrating the `GapResync` guarantee is load-bearing), with the
//!   stale cache entry reproduced on a live `EdgeCache`.
//!
//! `--quick` explores the core scenario only (the CI gate); the seed is
//! not used, the exploration is exhaustive. The process exits with status
//! 1 on any unexpected result.

use crate::RunOptions;
use tcache_model::{
    explore, explore_epoch, minimize, CacheStatus, EpochModelConfig, Exploration, ExploreOptions,
    IntervalOnlyOracle, InvariantKind, ModelConfig, TwoTierOracle,
};
use tcache_sim::DifferentialBridge;
use tcache_types::{format_trace, ObjectId, SimTime, Version};

pub(crate) fn run(options: &RunOptions) {
    let quick = options.quick;
    let scenarios = if quick {
        ModelConfig::quick_suite()
    } else {
        ModelConfig::full_suite()
    };

    println!(
        "model_check: exhaustive BFS over {} scenario(s) ({} mode)",
        scenarios.len(),
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:>20} {:>10} {:>12} {:>7} {:>14}  invariants",
        "scenario", "states", "transitions", "depth", "finish-checks"
    );

    let mut failed = false;
    for config in &scenarios {
        let result = explore(config, &TwoTierOracle, ExploreOptions::default());
        report_scenario(config, &result, &mut failed);
    }

    epoch_section(&mut failed);

    broken_oracle_demo(&mut failed);
    if !quick {
        no_recovery_demo(&mut failed);
    }

    if failed {
        println!("model_check: FAILED");
        std::process::exit(1);
    }
    println!("model_check: all invariants hold, counterexample pipeline verified");
}

fn report_scenario(config: &ModelConfig, result: &Exploration, failed: &mut bool) {
    let status = match (&result.violation, result.stats.truncated) {
        (Some((violation, _)), _) => {
            *failed = true;
            format!("VIOLATED ({violation})")
        }
        (None, true) => {
            *failed = true;
            "TRUNCATED (bounds hit — not exhaustive)".to_string()
        }
        (None, false) => "all hold (exhaustive)".to_string(),
    };
    println!(
        "{:>20} {:>10} {:>12} {:>7} {:>14}  {}",
        config.name,
        result.stats.states,
        result.stats.transitions,
        result.stats.depth,
        result.stats.finished_txn_checks,
        status
    );
    if let Some((violation, trace)) = &result.violation {
        println!("  counterexample:\n{}", format_trace(trace));
        println!("  violation: {violation}");
    }
}

/// Exhaustively checks the fetch-vs-invalidate race on one cache stripe
/// at sub-operation granularity: with the admission epoch checked and
/// bumped under the stripe mutex no invalidation is ever lost, while the
/// deliberately broken variant — the lock removed — must produce a
/// depth-minimal counterexample, proving the model can see the race the
/// mutex guards.
fn epoch_section(failed: &mut bool) {
    println!("\nepoch model: fetch vs invalidate on one cache stripe");
    let locked = explore_epoch(&EpochModelConfig::locked());
    let status = match &locked.violation {
        Some(violation) => {
            *failed = true;
            format!("VIOLATED ({violation})")
        }
        None => "holds (exhaustive)".to_string(),
    };
    println!(
        "{:>20} {:>10} {:>12} {:>7}  {}",
        "epoch_locked", locked.stats.states, locked.stats.transitions, locked.stats.depth, status
    );
    if let Some(violation) = &locked.violation {
        println!("  counterexample:");
        for step in &violation.trace {
            println!("    {step}");
        }
    }

    let unlocked = explore_epoch(&EpochModelConfig::unlocked());
    match &unlocked.violation {
        None => {
            println!(
                "{:>20}  FAILED: the broken variant was not caught",
                "epoch_unlocked"
            );
            *failed = true;
        }
        Some(violation) if !violation.description.contains("lost") => {
            println!(
                "{:>20}  FAILED: unexpected violation ({violation})",
                "epoch_unlocked"
            );
            *failed = true;
        }
        Some(violation) => println!(
            "{:>20}  caught after {} states, {}-step counterexample: {}",
            "epoch_unlocked",
            unlocked.stats.states,
            violation.trace.len(),
            violation
        ),
    }
}

/// Checks that the checker *detects* monitor bugs: the interval-only
/// oracle must produce a minimized monitor-soundness counterexample whose
/// bridge replay reproduces the divergence on the real monitor.
fn broken_oracle_demo(failed: &mut bool) {
    println!("\nbroken-oracle demo: interval-only monitor (SGT fallback removed)");
    let config = ModelConfig::independent_updates();
    let result = explore(&config, &IntervalOnlyOracle, ExploreOptions::default());
    let Some((violation, trace)) = result.violation else {
        println!("  FAILED: the broken oracle was not caught");
        *failed = true;
        return;
    };
    if violation.kind != InvariantKind::MonitorSoundness {
        println!("  FAILED: expected monitor-soundness, got {violation}");
        *failed = true;
        return;
    }
    let minimized = minimize(&config, &IntervalOnlyOracle, &trace, false);
    println!(
        "  caught after {} states; counterexample minimized {} → {} actions:",
        result.stats.states,
        trace.len(),
        minimized.len()
    );
    println!("{}", format_trace(&minimized));

    let mut bridge = DifferentialBridge::new(&config);
    for &action in &minimized {
        if let Err(divergence) = bridge.step(action) {
            println!("  FAILED: {divergence}");
            *failed = true;
            return;
        }
    }
    let report = bridge.report();
    let Some(txn) = report.finished.last() else {
        println!("  FAILED: no transaction finished in the replay");
        *failed = true;
        return;
    };
    let typed: Vec<(ObjectId, Version)> = txn
        .observed
        .iter()
        .map(|&(o, v)| (ObjectId(o), Version(v)))
        .collect();
    let interval = bridge.monitor().interval_consistent(&typed);
    let two_tier = txn.monitor_serializable;
    println!(
        "  replay on real stack: {} comparisons, all agree; reads {:?}",
        report.comparisons, txn.observed
    );
    println!(
        "  real monitor: interval-only {} / two-tier {} / ground truth {}",
        verdict(interval),
        verdict(two_tier),
        verdict(txn.ground_truth)
    );
    if interval || !two_tier || !txn.ground_truth {
        println!("  FAILED: the real monitor does not reproduce the model's divergence");
        *failed = true;
    }
}

/// Checks that recovery safety is load-bearing: without `GapResync` a
/// dropped invalidation leaves a healthy cache serving a stale version,
/// on the model and on a live `EdgeCache` alike.
fn no_recovery_demo(failed: &mut bool) {
    println!("\nno-recovery demo: RecoveryPolicy::None under a dropped invalidation");
    let config = ModelConfig::no_recovery();
    let options = ExploreOptions {
        force_recovery_check: true,
        ..ExploreOptions::default()
    };
    let result = explore(&config, &TwoTierOracle, options);
    let Some((violation, trace)) = result.violation else {
        println!("  FAILED: staleness was not reachable");
        *failed = true;
        return;
    };
    if violation.kind != InvariantKind::RecoverySafety {
        println!("  FAILED: expected recovery-safety, got {violation}");
        *failed = true;
        return;
    }
    let minimized = minimize(&config, &TwoTierOracle, &trace, true);
    println!(
        "  caught after {} states; counterexample minimized {} → {} actions:",
        result.stats.states,
        trace.len(),
        minimized.len()
    );
    println!("{}", format_trace(&minimized));

    let mut bridge = DifferentialBridge::new(&config);
    for &action in &minimized {
        if let Err(divergence) = bridge.step(action) {
            println!("  FAILED: {divergence}");
            *failed = true;
            return;
        }
    }
    // Find the stale entry the model ends with and probe the live cache:
    // it must serve the same stale version the model predicts, while the
    // backend is already newer.
    let model = bridge.model();
    let stream = model.full_stream(&config);
    let mut demonstrated = false;
    for (c, cache) in model.caches.iter().enumerate() {
        if cache.status != CacheStatus::Healthy {
            continue;
        }
        for (&object, entry) in &cache.store {
            let announced = stream
                .iter()
                .filter(|inv| inv.seq <= cache.last_seq && inv.object == object)
                .map(|inv| inv.version)
                .max()
                .unwrap_or(0);
            if entry.version >= announced {
                continue;
            }
            let stale = entry.version;
            let served = bridge
                .cache(c)
                .read(
                    SimTime::from_secs(model.clock),
                    tcache_model::read_txn_id(99),
                    ObjectId(object),
                    true,
                )
                .expect("probe read");
            let backend = bridge
                .database()
                .peek_entry(ObjectId(object))
                .expect("backend entry")
                .version;
            println!(
                "  live cache {c} serves o{object}@{} (stale, stream announced @{announced}, backend @{}) — matches model @{stale}",
                served.version.0, backend.0
            );
            if served.version.0 != stale || backend.0 < announced {
                println!("  FAILED: live stack does not reproduce the staleness");
                *failed = true;
            }
            demonstrated = true;
        }
    }
    if !demonstrated {
        println!("  FAILED: no stale entry to demonstrate");
        *failed = true;
    }
}

fn verdict(serializable: bool) -> &'static str {
    if serializable {
        "serializable"
    } else {
        "flagged"
    }
}
