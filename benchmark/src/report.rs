//! `tbench report`: self times and the two cost ladders, from what the last
//! traced run of a workload left in `benchmark/out/`.

use crate::run::Outcome;
use crate::spec::{WorkloadSpec, TXN_KEYS};
use crate::trace::{self, SpanName, SPAN_NAMES};
use serde_json::Value as Json;
use std::path::Path;

fn layers_path(out_dir: &Path, workload: &str) -> std::path::PathBuf {
    out_dir.join(format!("{workload}.layers.json"))
}

/// Saves a traced run's per-layer metrics next to its spans.
pub fn write_layers(out_dir: &Path, outcome: &Outcome, stamp: &str) -> Result<(), String> {
    let metrics = outcome
        .metrics
        .iter()
        .map(|reading| (reading.name.to_string(), Json::F64(reading.value)))
        .collect();
    let document = Json::Map(vec![
        ("commit".into(), Json::Str(stamp.into())),
        ("workload".into(), Json::Str(outcome.workload.into())),
        (
            "counts".into(),
            Json::Map(vec![
                ("ops".into(), Json::U64(outcome.attempted)),
                ("read_txns".into(), Json::U64(outcome.read_txns)),
                ("update_txns".into(), Json::U64(outcome.update_txns)),
            ]),
        ),
        ("metrics".into(), Json::Map(metrics)),
    ]);
    let path = layers_path(out_dir, outcome.workload);
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, document.emit() + "\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One rung of a ladder: a layer's measured cost, weighted by how often an
/// op pays it.
struct Rung {
    label: &'static str,
    weight: f64,
    cost_ns: f64,
}

/// Prints the rungs, their sum and the residual against `measured_ns`, the
/// quantity the ladder is supposed to add up to.
fn print_ladder(title: &str, measured_label: &str, measured_ns: f64, rungs: &[Rung]) {
    println!("  {title}");
    let mut sum = 0.0;
    for rung in rungs {
        let contribution = rung.weight * rung.cost_ns;
        sum += contribution;
        println!(
            "    {:<34} {:>8.3} x {:>10.1} ns = {:>10.1} ns",
            rung.label, rung.weight, rung.cost_ns, contribution
        );
    }
    let residual = measured_ns - sum;
    println!("    {:<34} {:>34.1} ns", "sum of rungs", sum);
    println!("    {:<34} {:>34.1} ns", measured_label, measured_ns);
    println!(
        "    {:<34} {:>34.1} ns ({:+.1}% of measured)",
        "residual (measured - sum)",
        residual,
        if measured_ns == 0.0 {
            0.0
        } else {
            100.0 * residual / measured_ns
        }
    );
}

pub fn print(out_dir: &Path, spec: &WorkloadSpec) -> Result<(), String> {
    let path = layers_path(out_dir, spec.name);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (run `tbench run --workload {} --traced` first)",
            path.display(),
            spec.name
        )
    })?;
    let document = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metric = |name: &str| -> Result<f64, String> {
        match document.get("metrics").and_then(|m| m.get(name)) {
            Some(Json::F64(v)) => Ok(*v),
            Some(Json::U64(v)) => Ok(*v as f64),
            Some(Json::I64(v)) => Ok(*v as f64),
            _ => Err(format!("{}: no metric `{name}`", path.display())),
        }
    };
    let spans = trace::read_jsonl(&out_dir.join(format!("{}.spans.jsonl", spec.name)))?;
    let totals = trace::totals_by_name(&spans);

    let commit = match document.get("commit") {
        Some(Json::Str(commit)) => commit.as_str(),
        _ => "?",
    };
    println!("## {}  (commit {commit}, {} spans)", spec.name, spans.len());
    println!(
        "  {:<16} {:>10} {:>14} {:>14} {:>12}",
        "span", "count", "mean ns", "mean self ns", "self share"
    );
    let root_total = totals[SpanName::Op as usize].total_ns.max(1) as f64;
    for (name, total) in SPAN_NAMES.iter().zip(&totals) {
        if total.count == 0 {
            continue;
        }
        println!(
            "  {:<16} {:>10} {:>14.1} {:>14.1} {:>11.1}%",
            name,
            total.count,
            total.total_ns as f64 / total.count as f64,
            total.self_ns as f64 / total.count as f64,
            100.0 * total.self_ns as f64 / root_total
        );
    }

    let mean_of = |name: SpanName| {
        let total = totals[name as usize];
        total.total_ns as f64 / total.count.max(1) as f64
    };
    // Misses per read transaction: every key that is not a hit goes to the
    // database once.
    let misses_per_txn = (1.0 - metric("cache.hit_ratio")?) * TXN_KEYS as f64;
    print_ladder(
        "read ladder (one read transaction)",
        "measured: mean core.read_txn span",
        mean_of(SpanName::CoreReadTxn),
        &[
            Rung {
                label: "core.read_overhead",
                weight: 1.0,
                cost_ns: metric("core.read_overhead_ns")?,
            },
            Rung {
                label: "cache.execute_txn (warm, p50)",
                weight: 1.0,
                cost_ns: metric("cache.execute_txn.p50_ns")?,
            },
            Rung {
                label: "db.read_entry per missed key",
                weight: misses_per_txn,
                cost_ns: metric("db.read_entry_ns")?,
            },
        ],
    );
    print_ladder(
        "write ladder (one update transaction)",
        "measured: mean core.update span",
        mean_of(SpanName::CoreUpdate),
        &[
            Rung {
                label: "db.execute_update (bare, p50)",
                weight: 1.0,
                cost_ns: metric("db.execute_update.p50_ns")?,
            },
            Rung {
                label: "core.update_overhead (publish)",
                weight: 1.0,
                cost_ns: metric("core.update_overhead_ns")?,
            },
        ],
    );
    // Each commit invalidates its distinct keys on every cache; the lag is
    // what the last of them waits for.
    let update_txns = match document.get("counts").and_then(|c| c.get("update_txns")) {
        Some(Json::U64(n)) if *n > 0 => *n as f64,
        _ => return Err(format!("{}: no `counts.update_txns`", path.display())),
    };
    let published_per_update = metric("db.invalidations_published")? / update_txns;
    print_ladder(
        "propagation ladder (one commit -> applied on every loss-free cache)",
        "measured: e2e.inval_lag_p50_us",
        metric("e2e.inval_lag_p50_us")? * 1e3,
        &[
            Rung {
                label: "net.plane per message",
                weight: published_per_update * spec.caches() as f64,
                cost_ns: metric("net.plane_ns_per_msg")?,
            },
            Rung {
                label: "cache.apply_invalidation",
                weight: published_per_update * spec.caches() as f64,
                cost_ns: metric("cache.apply_invalidation_ns")?,
            },
        ],
    );
    println!(
        "  tracing overhead: {:.1}% of untraced ops_per_s",
        100.0 * metric("trace.overhead_ratio")?
    );
    Ok(())
}
