//! Batch-execute a slice of the Table 3 suite across execution backends.
//!
//! Demonstrates the `an5d-backend` subsystem end to end: the driver runs
//! the jobs one after the other, and the same suite runs with its tiles
//! inline (`serial`) and fanned out over scoped helper threads (`vector`,
//! `vector:3`) with bit-identical checksums.
//!
//! Run with `cargo run --example backend_batch`.

use an5d::{create_backend, suite, BatchDriver, BatchJob, BlockConfig, Precision};

fn jobs() -> Vec<BatchJob> {
    let c2d = |bt: usize, bs: usize| BlockConfig::new(bt, &[bs], None, Precision::Double).unwrap();
    let c3d =
        |bt: usize, bs: usize| BlockConfig::new(bt, &[bs, bs], None, Precision::Double).unwrap();
    vec![
        BatchJob::new(suite::j2d5pt(), &[64, 64], 8, c2d(4, 24)),
        BatchJob::new(suite::j2d9pt(), &[64, 64], 8, c2d(2, 24)),
        BatchJob::new(suite::box2d(1), &[48, 48], 6, c2d(2, 16)),
        BatchJob::new(suite::star3d(1), &[16, 16, 16], 4, c3d(2, 10)),
        // A repeat of the first job.
        BatchJob::new(suite::j2d5pt(), &[64, 64], 8, c2d(4, 24)),
    ]
}

fn main() {
    println!("suite batch on every registered backend:\n");
    let mut checksums: Vec<Vec<f64>> = Vec::new();
    for spec in ["serial", "vector", "vector:3"] {
        let backend = create_backend(spec).expect("registered backend");
        let driver = BatchDriver::new(backend);
        println!("backend = {}", driver.backend().describe());
        let mut sums = Vec::new();
        for result in driver.run(&jobs()) {
            match result {
                Ok(outcome) => {
                    println!(
                        "  {:<10} updates={:<9} checksum={:+.6e}  ({:?})",
                        outcome.name,
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
    println!("all backends produced identical checksums.");
}
