//! The tuner's answers pinned as text: for every Table-3 stencil on both
//! paper devices in both precisions, over the paper search space at the
//! paper's problem size, the `{:?}` of the `TuningResult` (winner,
//! measured top-k, `ranked_candidates`, `total_candidates`) and the
//! winner plan's `Display`. A change to how candidates are enumerated,
//! built, pruned, ranked or measured must leave every line as it is. On
//! mismatch the test prints the current rendering, which replaces
//! `tuning_golden.txt` when the change is intended.

use an5d_gpusim::GpuDevice;
use an5d_grid::Precision;
use an5d_plan::{FrameworkScheme, KernelPlan};
use an5d_stencil::{suite, StencilProblem};
use an5d_tuner::{SearchSpace, Tuner};
use std::fmt::Write;

const GOLDEN: &str = include_str!("tuning_golden.txt");

fn render() -> String {
    let devices = [
        ("v100", GpuDevice::tesla_v100()),
        ("p100", GpuDevice::tesla_p100()),
    ];
    let mut out = String::new();
    for def in suite::all_benchmarks() {
        let problem = StencilProblem::paper_scale(def.clone());
        for (device_name, device) in &devices {
            for precision in [Precision::Single, Precision::Double] {
                let space = SearchSpace::paper(def.ndim(), precision);
                let result = Tuner::new(device.clone())
                    .tune(&def, &problem, &space)
                    .expect("every Table-3 stencil tunes on the paper space");
                let plan =
                    KernelPlan::build(&def, &problem, &result.best.config, FrameworkScheme::an5d())
                        .expect("the winner's plan builds");
                writeln!(
                    out,
                    "## {} {device_name} {precision}\n{result:?}\n{plan}\n",
                    def.name()
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn tuning_results_match_golden_text() {
    let current = render();
    assert_eq!(current.matches("## ").count(), 21 * 2 * 2);
    if current != GOLDEN {
        let first = current
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| current.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "tuning results moved from tuning_golden.txt (first difference on line {}); \
             current rendering:\n{current}",
            first + 1
        );
    }
}
