//! A single-stencil slice of Fig. 6: compare loop tiling, hybrid tiling,
//! STENCILGEN and AN5D on both evaluation GPUs.
//!
//! Run with `cargo run --release --example compare_frameworks [stencil]`
//! (default stencil: `j2d5pt`).

use an5d::{
    hybrid_measurement, loop_tiling_measurement, measure_best_cap, standard_registry,
    stencilgen_measurement, suite, An5dError, BlockConfig, FrameworkScheme, KernelPlan, Precision,
    SearchSpace, StencilProblem, Tuner,
};

fn main() -> Result<(), An5dError> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "j2d5pt".to_string());
    let def = suite::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{name}', falling back to j2d5pt");
        suite::j2d5pt()
    });
    let precision = Precision::Single;
    let problem = StencilProblem::paper_scale(def.clone());
    println!(
        "Framework comparison for {} at the paper's scale ({:?} interior, {} steps, float):\n",
        def,
        problem.interior(),
        problem.time_steps()
    );

    for device in standard_registry().paper_devices() {
        println!("{device}:");
        let report = |framework: &str, gflops: Option<f64>| match gflops {
            Some(v) => println!("  {framework:<22} {v:>9.0} GFLOP/s"),
            None => println!("  {framework:<22} {:>9}", "n/a"),
        };

        report(
            "Loop tiling",
            loop_tiling_measurement(&problem, &device, precision)
                .ok()
                .map(|r| r.gflops),
        );
        report(
            "Hybrid tiling",
            hybrid_measurement(&problem, &device, precision)
                .ok()
                .map(|r| r.gflops),
        );
        report(
            "STENCILGEN",
            stencilgen_measurement(&problem, &device, precision)
                .ok()
                .map(|r| r.gflops),
        );

        // AN5D with STENCILGEN's configuration (Sconf).
        let sconf_config = BlockConfig::sconf(def.ndim(), precision);
        let sconf_scheme = if def.ndim() == 2 {
            FrameworkScheme::an5d_no_associative()
        } else {
            FrameworkScheme::an5d()
        };
        let sconf = KernelPlan::build(&def, &problem, &sconf_config, sconf_scheme)
            .ok()
            .and_then(|plan| measure_best_cap(&plan, &problem, &device).ok())
            .map(|m| m.gflops);
        report("AN5D (Sconf)", sconf);

        // AN5D tuned with the paper's search space.
        let tuner = Tuner::new(device.clone());
        let tuned = tuner
            .tune(&def, &problem, &SearchSpace::paper(def.ndim(), precision))
            .ok();
        report(
            "AN5D (Tuned)",
            tuned.as_ref().map(|t| t.best.measured_gflops),
        );
        if let Some(t) = &tuned {
            println!(
                "  tuned configuration:   {} (register cap {})",
                t.best.config, t.best.register_cap
            );
        }
        println!();
    }
    Ok(())
}
