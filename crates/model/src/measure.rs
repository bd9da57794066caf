//! Simulated measurements: the reproduction's stand-in for running the
//! generated CUDA on a physical GPU.

use crate::traffic::analytic_counters;
use an5d_gpusim::{
    simulate, GpuDevice, InfeasibleConfig, SimulatedTime, TrafficCounters, WorkloadProfile,
};
use an5d_plan::{KernelPlan, RegisterCap};
use an5d_stencil::StencilProblem;

/// A simulated performance measurement for one configuration on one device.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Measurement {
    /// Simulated run time (seconds, kernel time only).
    pub seconds: f64,
    /// Throughput in GFLOP/s (useful FLOPs over simulated time).
    pub gflops: f64,
    /// Throughput in GCell/s (useful cell updates over simulated time).
    pub gcells: f64,
    /// Register cap used for the measurement.
    pub register_cap: RegisterCap,
    /// Detailed timing breakdown from the simulator.
    pub time: SimulatedTime,
}

/// Simulate a measurement of `plan` on `device` with a given register cap.
///
/// The workload is derived analytically (so paper-scale problems are cheap)
/// and priced by the `an5d-gpusim` timing layer, which — unlike the
/// Section 5 model — accounts for the device's shared-memory efficiency,
/// occupancy and launch-tail effects, register spilling under the cap, and
/// the double-precision-division slow-down.
///
/// # Errors
///
/// Returns [`InfeasibleConfig`] when the configuration cannot be launched
/// on the device at all.
pub fn measure(
    plan: &KernelPlan,
    problem: &StencilProblem,
    device: &GpuDevice,
    cap: RegisterCap,
) -> Result<Measurement, InfeasibleConfig> {
    measure_counted(
        plan,
        problem,
        device,
        cap,
        &analytic_counters(plan, problem),
    )
}

/// Measure under every register cap of Section 6.3, in
/// [`RegisterCap::tuning_candidates`] order. The counters do not depend on
/// the cap, so they are evaluated once and shared by the four profiles;
/// each entry equals what [`measure`] returns for that cap.
fn measure_each_cap(
    plan: &KernelPlan,
    problem: &StencilProblem,
    device: &GpuDevice,
) -> [Result<Measurement, InfeasibleConfig>; 4] {
    let counters = analytic_counters(plan, problem);
    RegisterCap::tuning_candidates()
        .map(|cap| measure_counted(plan, problem, device, cap, &counters))
}

fn measure_counted(
    plan: &KernelPlan,
    problem: &StencilProblem,
    device: &GpuDevice,
    cap: RegisterCap,
    counters: &TrafficCounters,
) -> Result<Measurement, InfeasibleConfig> {
    let profile = WorkloadProfile::from_counters(plan, counters, cap);
    let time = simulate(&profile, device)?;
    Ok(Measurement {
        seconds: time.seconds,
        gflops: problem.gflops(time.seconds),
        gcells: problem.gcells(time.seconds),
        register_cap: cap,
        time,
    })
}

/// Measure with every register cap of Section 6.3 and keep the fastest
/// feasible result (the paper compiles binaries with no limit, 32, 64 and —
/// for the Tuned configuration — 96 registers per thread, and reports the
/// best).
///
/// # Errors
///
/// Returns [`InfeasibleConfig`] when no cap yields a runnable kernel.
pub fn measure_best_cap(
    plan: &KernelPlan,
    problem: &StencilProblem,
    device: &GpuDevice,
) -> Result<Measurement, InfeasibleConfig> {
    let mut best: Option<Measurement> = None;
    let mut last_err: Option<InfeasibleConfig> = None;
    for measured in measure_each_cap(plan, problem, device) {
        match measured {
            Ok(m) => {
                if best.as_ref().is_none_or(|b| m.seconds < b.seconds) {
                    best = Some(m);
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    best.ok_or_else(|| {
        last_err.unwrap_or(InfeasibleConfig {
            reason: "no register cap produced a runnable kernel".to_string(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::predict;
    use an5d_grid::Precision;
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::suite;

    fn tuned(bt: usize, precision: Precision) -> (KernelPlan, StencilProblem) {
        let def = suite::star2d(1);
        let problem = StencilProblem::paper_scale(def.clone());
        let config = BlockConfig::new(bt, &[256], Some(256), precision).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        (plan, problem)
    }

    #[test]
    fn measurement_is_slower_than_model_prediction() {
        // Section 7.2: measured performance is 49–89 % of the model's
        // prediction; the derates must make the simulated measurement slower.
        let (plan, problem) = tuned(10, Precision::Single);
        let device = GpuDevice::tesla_v100();
        let prediction = predict(&plan, &problem, &device);
        let measurement = measure_best_cap(&plan, &problem, &device).unwrap();
        assert!(measurement.seconds > prediction.seconds);
        let accuracy = measurement.gflops / prediction.gflops;
        assert!(
            accuracy > 0.3 && accuracy < 0.95,
            "model accuracy {accuracy} outside the paper's plausible band"
        );
    }

    #[test]
    fn v100_measures_faster_than_p100() {
        let (plan, problem) = tuned(10, Precision::Single);
        let v = measure_best_cap(&plan, &problem, &GpuDevice::tesla_v100()).unwrap();
        let p = measure_best_cap(&plan, &problem, &GpuDevice::tesla_p100()).unwrap();
        assert!(v.gflops > p.gflops);
    }

    #[test]
    fn best_cap_is_at_least_as_good_as_any_single_cap() {
        let (plan, problem) = tuned(10, Precision::Single);
        let device = GpuDevice::tesla_v100();
        let best = measure_best_cap(&plan, &problem, &device).unwrap();
        for cap in RegisterCap::tuning_candidates() {
            if let Ok(m) = measure(&plan, &problem, &device, cap) {
                assert!(best.seconds <= m.seconds + 1e-12);
            }
        }
    }

    #[test]
    fn each_cap_from_shared_counters_equals_a_measure_per_cap() {
        let device = GpuDevice::tesla_p100();
        for precision in [Precision::Single, Precision::Double] {
            let (plan, problem) = tuned(10, precision);
            let caps = RegisterCap::tuning_candidates();
            let shared = measure_each_cap(&plan, &problem, &device);
            for (cap, shared) in caps.into_iter().zip(shared) {
                assert_eq!(shared, measure(&plan, &problem, &device, cap), "{cap:?}");
            }
        }
    }

    #[test]
    fn gcells_consistent_with_gflops() {
        let (plan, problem) = tuned(8, Precision::Single);
        let m = measure_best_cap(&plan, &problem, &GpuDevice::tesla_v100()).unwrap();
        let flops_per_cell = plan.def().flops_per_cell() as f64;
        assert!((m.gflops / m.gcells - flops_per_cell).abs() < 1e-6);
    }

    #[test]
    fn infeasible_configuration_is_reported() {
        // A 3D block of 64×32 = 2048 threads with huge shared demand cannot
        // run in double precision on P100 (64 KiB shared memory per SM).
        let def = suite::box3d(4);
        let problem = StencilProblem::new(def.clone(), &[64, 64, 64], 8).unwrap();
        let config = BlockConfig::new(1, &[64, 32], None, Precision::Double).unwrap();
        let plan =
            KernelPlan::build(&def, &problem, &config, FrameworkScheme::stencilgen()).unwrap();
        // STENCILGEN's general-class box stencil needs bT×(1+2·rad) planes
        // in shared memory: 1×9×2048×2 words = 147 KiB > 64 KiB.
        let result = measure(
            &plan,
            &problem,
            &GpuDevice::tesla_p100(),
            RegisterCap::Unlimited,
        );
        assert!(result.is_err());
    }

    #[test]
    fn double_precision_division_penalty_shows_up_in_measurements() {
        // j2d5pt (division) vs star2d1r (no division), same shape/radius.
        let device = GpuDevice::tesla_v100();
        let measure_of = |def: an5d_stencil::StencilDef| {
            let problem = StencilProblem::new(def.clone(), &[4096, 4096], 100).unwrap();
            let config = BlockConfig::new(10, &[512], Some(512), Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            measure_best_cap(&plan, &problem, &device).unwrap()
        };
        let with_div = measure_of(suite::j2d5pt());
        let without_div = measure_of(suite::star2d(1));
        // Throughput in GCell/s is comparable across the two stencils; the
        // division kernel must be noticeably slower per cell.
        assert!(without_div.gcells > with_div.gcells);
    }
}
