//! The roofline-style run-time prediction (Section 5, steps 2–3).

use crate::traffic::PlanSums;
use an5d_gpusim::{wave_efficiency, Bottleneck, GpuDevice};
use an5d_plan::KernelPlan;
use an5d_stencil::StencilProblem;

/// Result of the Section 5 performance model for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelPrediction {
    /// Predicted run time in seconds.
    pub seconds: f64,
    /// Predicted throughput in GFLOP/s (useful FLOPs over predicted time).
    pub gflops: f64,
    /// Compute-bound time component (seconds).
    pub time_compute: f64,
    /// Global-memory-bound time component (seconds).
    pub time_global: f64,
    /// Shared-memory-bound time component (seconds).
    pub time_shared: f64,
    /// Predicted bottleneck.
    pub bottleneck: Bottleneck,
    /// ALU-mix efficiency `effALU`.
    pub eff_alu: f64,
    /// SM-utilisation efficiency `effSM`.
    pub eff_sm: f64,
    /// Total modelled global-memory traffic in bytes.
    pub total_gm_bytes: u128,
    /// Total modelled shared-memory traffic in bytes.
    pub total_sm_bytes: u128,
    /// Total modelled floating-point operations.
    pub total_flops: u128,
}

/// Run the Section 5 model for a plan on a device.
///
/// Unlike the simulated measurement ([`crate::measure::measure`]), the
/// prediction deliberately uses *ideal* shared-memory behaviour and ignores
/// the double-precision-division and register-spill effects — exactly the
/// simplifications the paper's model makes, which is why its accuracy
/// against measurements lands around 50–70 % (Section 7.2).
///
/// # Panics
///
/// Panics if `problem` is not the one the plan was built for
/// ([`KernelPlan::assert_tiled_for`]).
#[must_use]
pub fn predict(plan: &KernelPlan, problem: &StencilProblem, device: &GpuDevice) -> ModelPrediction {
    plan.assert_tiled_for(problem);
    price(&PlanSums::of(plan), problem, device)
}

/// The Section 5 formula: price a plan's sums on a device. [`predict`] is
/// this on [`PlanSums::of`] a plan; a tuner sweep calls it on sums it put
/// together per axis, which must be of this `problem`.
#[must_use]
pub fn price(sums: &PlanSums, problem: &StencilProblem, device: &GpuDevice) -> ModelPrediction {
    let counters = sums.counters(problem.time_steps());
    let precision = sums.config().precision();
    let bytes = precision.bytes();

    let total_gm_bytes = counters.gm_bytes(bytes);
    let total_sm_bytes = counters.sm_bytes(bytes);
    let total_flops = counters.flops;

    let eff_alu = sums.eff_alu();
    let time_compute = total_flops as f64 / (device.peak_gflops(precision) * eff_alu * 1e9);
    let time_global = total_gm_bytes as f64 / (device.measured_mem_bw(precision) * 1e9);
    let time_shared = total_sm_bytes as f64 / (device.measured_shared_bw(precision) * 1e9);

    let (bottleneck, raw) = if time_shared >= time_global && time_shared >= time_compute {
        (Bottleneck::SharedMemory, time_shared)
    } else if time_global >= time_compute {
        (Bottleneck::GlobalMemory, time_global)
    } else {
        (Bottleneck::Compute, time_compute)
    };

    let eff_sm =
        wave_efficiency(device, sums.config().nthr(), sums.thread_blocks() as f64).max(1e-6);
    let seconds = raw / eff_sm;
    let gflops = problem.gflops(seconds);

    ModelPrediction {
        seconds,
        gflops,
        time_compute,
        time_global,
        time_shared,
        bottleneck,
        eff_alu,
        eff_sm,
        total_gm_bytes,
        total_sm_bytes,
        total_flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::suite;

    fn tuned_plan(bt: usize, bs: usize, precision: Precision) -> (KernelPlan, StencilProblem) {
        let def = suite::star2d(1);
        let problem = StencilProblem::paper_scale(def.clone());
        let config = BlockConfig::new(bt, &[bs], Some(256), precision).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        (plan, problem)
    }

    #[test]
    fn shared_memory_is_the_predicted_bottleneck_for_tuned_2d_configs() {
        // Section 7.2: "our model predicts shared memory as the performance
        // bottleneck in every case except box3d3r/box3d4r".
        let (plan, problem) = tuned_plan(10, 256, Precision::Single);
        let p = predict(&plan, &problem, &GpuDevice::tesla_v100());
        assert_eq!(p.bottleneck, Bottleneck::SharedMemory);
        assert!(p.seconds > 0.0);
        assert!(p.gflops > 1_000.0, "predicted only {} GFLOP/s", p.gflops);
    }

    #[test]
    fn prediction_scales_with_temporal_blocking_then_saturates() {
        // Global traffic shrinks with bT, so predicted performance rises
        // and eventually flattens once shared memory dominates.
        let device = GpuDevice::tesla_v100();
        let mut last = 0.0;
        let mut improved = 0;
        for bt in [1usize, 2, 4, 8, 10] {
            let (plan, problem) = tuned_plan(bt, 256, Precision::Single);
            let p = predict(&plan, &problem, &device);
            if p.gflops > last {
                improved += 1;
            }
            last = p.gflops;
        }
        assert!(
            improved >= 3,
            "performance should improve over several bT values"
        );
    }

    #[test]
    fn v100_prediction_beats_p100() {
        let (plan, problem) = tuned_plan(8, 256, Precision::Single);
        let v = predict(&plan, &problem, &GpuDevice::tesla_v100());
        let p = predict(&plan, &problem, &GpuDevice::tesla_p100());
        assert!(v.gflops > p.gflops);
    }

    #[test]
    fn double_precision_prediction_is_slower() {
        let (plan_f, problem_f) = tuned_plan(8, 256, Precision::Single);
        let (plan_d, problem_d) = tuned_plan(8, 256, Precision::Double);
        let device = GpuDevice::tesla_v100();
        let single = predict(&plan_f, &problem_f, &device);
        let double = predict(&plan_d, &problem_d, &device);
        assert!(double.seconds > single.seconds);
    }

    #[test]
    fn eff_alu_reflects_fma_mix() {
        let (plan, problem) = tuned_plan(4, 256, Precision::Single);
        let p = predict(&plan, &problem, &GpuDevice::tesla_v100());
        // star2d1r is a 5-term weighted sum: effALU = (2·4 + 1)/10 = 0.9.
        assert!((p.eff_alu - 0.9).abs() < 1e-12);
    }

    #[test]
    fn sm_efficiency_formula() {
        let device = GpuDevice::tesla_v100();
        // 256-thread blocks → 8 blocks per SM → 640 blocks per wave.
        assert!((wave_efficiency(&device, 256, 640.0) - 1.0).abs() < 1e-12);
        assert!((wave_efficiency(&device, 256, 320.0) - 0.5).abs() < 1e-12);
        let eff = wave_efficiency(&device, 256, 960.0); // 1.5 waves
        assert!((eff - 0.75).abs() < 1e-12, "1.5 waves / ceil(1.5) = 0.75");
        assert_eq!(wave_efficiency(&device, 0, 100.0), 0.0);
        assert_eq!(wave_efficiency(&device, 256, 0.0), 0.0);
    }

    #[test]
    fn model_reports_traffic_totals() {
        let (plan, problem) = tuned_plan(4, 256, Precision::Single);
        let p = predict(&plan, &problem, &GpuDevice::tesla_v100());
        assert!(p.total_gm_bytes > 0);
        assert!(p.total_sm_bytes > p.total_gm_bytes);
        assert_eq!(p.total_flops % plan.def().flops_per_cell() as u128, 0);
    }
}
