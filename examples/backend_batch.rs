//! Batch-execute a slice of the Table 3 suite across execution backends.
//!
//! Demonstrates the `an5d-backend` subsystem end to end: jobs fan out
//! across a bounded worker pool, plans come from the shared LRU plan
//! cache, and the same suite runs with its tiles inline (`serial`) and
//! fanned out over the pool (`vector`, `vector:3`) with bit-identical
//! checksums.
//!
//! Run with `cargo run --example backend_batch`.

use an5d::{create_backend, suite, BatchDriver, BatchJob, BlockConfig, PlanCache, Precision};
use std::sync::Arc;

fn jobs() -> Vec<BatchJob> {
    let c2d = |bt: usize, bs: usize| BlockConfig::new(bt, &[bs], None, Precision::Double).unwrap();
    let c3d =
        |bt: usize, bs: usize| BlockConfig::new(bt, &[bs, bs], None, Precision::Double).unwrap();
    vec![
        BatchJob::new(suite::j2d5pt(), &[64, 64], 8, c2d(4, 24)),
        BatchJob::new(suite::j2d9pt(), &[64, 64], 8, c2d(2, 24)),
        BatchJob::new(suite::box2d(1), &[48, 48], 6, c2d(2, 16)),
        BatchJob::new(suite::star3d(1), &[16, 16, 16], 4, c3d(2, 10)),
        // A repeat: its plan comes from the cache.
        BatchJob::new(suite::j2d5pt(), &[64, 64], 8, c2d(4, 24)),
    ]
}

fn main() {
    let cache = Arc::new(PlanCache::new(64));
    println!("suite batch on every registered backend:\n");
    let mut checksums: Vec<Vec<f64>> = Vec::new();
    for spec in ["serial", "vector", "vector:3"] {
        let backend = create_backend(spec).expect("registered backend");
        let driver = BatchDriver::new(backend)
            .with_cache(Arc::clone(&cache))
            .with_workers(2);
        println!("backend = {}", driver.backend().describe());
        let mut sums = Vec::new();
        for result in driver.run(&jobs()) {
            match result {
                Ok(outcome) => {
                    println!(
                        "  {:<10} cache_hit={:<5} updates={:<9} checksum={:+.6e}  ({:?})",
                        outcome.name,
                        outcome.plan_cache_hit,
                        outcome.counters.cell_updates,
                        outcome.checksum,
                        outcome.elapsed,
                    );
                    sums.push(outcome.checksum);
                }
                Err(e) => println!("  {e}"),
            }
        }
        checksums.push(sums);
        println!();
    }
    assert!(
        checksums.windows(2).all(|pair| pair[0] == pair[1]),
        "backends must agree bit-for-bit"
    );
    let stats = cache.stats();
    println!(
        "shared plan cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries
    );
    println!("all backends produced identical checksums.");
}
