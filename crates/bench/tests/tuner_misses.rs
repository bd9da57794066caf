//! The tuner against the best of its own search space, on every Fig. 6
//! row (7 stencils × {V100, P100} × {single, double}).
//!
//! The tuner ranks `SearchSpace::paper` by the Section 5 model and
//! measures only its top k. Here every candidate of that space (144 per 2D
//! row, 64 per 3D row) is built under AN5D's scheme and measured with
//! `measure_best_cap`, the measurement the tuner itself takes, and the
//! tuned result must come within 5 % of the best of them.
//!
//! It does not yet on the rows of [`KNOWN_WRONG`]: there the model ranks
//! the measured best's `bT` too low to reach the top k. Each of those rows
//! must still miss, so that a fix shows up here as a row to delete from
//! the list, and the list can only shrink.

use an5d::{measure_best_cap, suite, SearchSpace};
use an5d_bench::experiments::common::{an5d_plan, devices, paper_problem, precisions, tuned};

/// How far below the exhaustive best a tuned result may fall.
const TOLERANCE: f64 = 0.95;

/// `(device, precision, stencil)` of the rows the tuner misses, with the
/// tuned share of the best when this list was written.
const KNOWN_WRONG: &[(&str, &str, &str)] = &[
    ("V100", "double", "j2d9pt-gol"), // 0.696
    ("V100", "double", "gradient2d"), // 0.689
    ("P100", "float", "j2d5pt"),      // 0.686
    ("P100", "float", "j2d9pt"),      // 0.685
    ("P100", "float", "star3d1r"),    // 0.871
    ("P100", "double", "j2d5pt"),     // 0.552
    ("P100", "double", "j2d9pt"),     // 0.666
    ("P100", "double", "j2d9pt-gol"), // 0.707
    ("P100", "double", "gradient2d"), // 0.701
];

#[test]
fn the_tuner_finds_its_spaces_best_on_every_fig6_row() {
    let mut rows = 0;
    let mut wrong = Vec::new();
    for device in devices() {
        for precision in precisions() {
            for def in suite::figure6_benchmarks() {
                let problem = paper_problem(&def);
                let best = SearchSpace::paper(def.ndim(), precision)
                    .iter()
                    .filter_map(|config| an5d_plan(&def, &problem, &config))
                    .filter_map(|plan| measure_best_cap(&plan, &problem, &device).ok())
                    .map(|m| m.gflops)
                    .fold(0.0, f64::max);
                let tuned = tuned(&def, &device, precision)
                    .expect("every Fig. 6 row tunes")
                    .best
                    .measured_gflops;
                let precision = precision.to_string();
                let row = (device.short_name(), precision.as_str(), def.name());
                let ratio = tuned / best;
                println!("{row:?}: tuned {tuned:.1} of best {best:.1} GFLOP/s ({ratio:.3}×)");
                if (ratio < TOLERANCE) != KNOWN_WRONG.contains(&row) {
                    wrong.push(format!(
                        "{row:?}: tuned {tuned:.1} of best {best:.1} ({ratio:.3}×)"
                    ));
                }
                rows += 1;
            }
        }
    }
    assert_eq!(rows, 28);
    assert!(
        wrong.is_empty(),
        "rows whose miss disagrees with KNOWN_WRONG (within {TOLERANCE} of the best, or not):\n{}",
        wrong.join("\n")
    );
}
