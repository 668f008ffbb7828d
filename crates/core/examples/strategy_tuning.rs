//! Strategy tuning: choosing between ABORT, EVICT and RETRY, and between
//! dependency-list bounds, using the embedded `TCacheSystem` API directly
//! (no simulation harness).
//!
//! Run with `cargo run --release -p tcache --example strategy_tuning`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcache::prelude::*;

/// Drives a small clustered workload against one system configuration and
/// reports how the cache behaved.
fn drive(strategy: Strategy, bound: usize, loss: f64) -> (f64, f64, f64) {
    let system = SystemBuilder::new()
        .dependency_bound(bound)
        .strategy(strategy)
        .invalidation_loss(loss)
        .seed(3)
        .build();
    let objects: u64 = 500;
    let cluster = 5u64;
    system.populate((0..objects).map(|i| (ObjectId(i), Value::new(0))));

    let mut rng = StdRng::seed_from_u64(9);
    let mut committed = 0u64;
    let mut aborted = 0u64;
    for round in 0..4_000u64 {
        let head = rng.gen_range(0..objects / cluster) * cluster;
        let members: Vec<ObjectId> = (0..cluster).map(|i| ObjectId(head + i)).collect();
        if round % 6 == 0 {
            // One in six transactions is an update of the whole cluster.
            system.update(&members).expect("update commits");
        } else {
            match system.read_transaction(&members).expect("backend ok") {
                ReadOutcome::Committed(_) => committed += 1,
                ReadOutcome::Aborted { .. } => aborted += 1,
            }
        }
    }
    let stats = system.stats();
    let total = (committed + aborted) as f64;
    (
        aborted as f64 / total * 100.0,
        stats.cache.hit_ratio(),
        stats.cache.retries as f64,
    )
}

fn main() {
    println!("clustered workload, 20% invalidation loss, dependency bound 3");
    println!("{:>8} {:>10} {:>10} {:>12}", "strategy", "aborted%", "hit ratio", "read-throughs");
    for strategy in [Strategy::Abort, Strategy::Evict, Strategy::Retry] {
        let (aborted, hit, retries) = drive(strategy, 3, 0.2);
        println!("{strategy:>8} {aborted:>10.2} {hit:>10.3} {retries:>12.0}");
    }

    println!();
    println!("dependency-bound sweep with the RETRY strategy:");
    println!("{:>6} {:>10} {:>10}", "bound", "aborted%", "hit ratio");
    for bound in [0usize, 1, 2, 3, 5] {
        let (aborted, hit, _) = drive(Strategy::Retry, bound, 0.2);
        println!("{bound:>6} {aborted:>10.2} {hit:>10.3}");
    }

    println!();
    println!("RETRY converts most detections into read-throughs (extra database reads)");
    println!("instead of aborts; EVICT keeps future transactions from tripping over the");
    println!("same stale entry; ABORT touches nothing beyond the failing transaction.");
}
