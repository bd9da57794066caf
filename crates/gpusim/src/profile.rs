//! Workload profiles: the input to the timing model.

use crate::TrafficCounters;
use an5d_grid::Precision;
use an5d_plan::{KernelPlan, RegisterCap};

/// Everything the timing layer needs to know about one kernel execution:
/// how much work of each kind it performs and how it occupies the device.
///
/// Profiles can be built two ways:
///
/// * [`WorkloadProfile::from_counters`] — from the exact counters of a
///   functional run (small/medium problems, used in tests and examples);
/// * analytically by the `an5d-model` crate's thread-classification
///   formulas (paper-scale problems, used by the benchmark harnesses and
///   the tuner).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadProfile {
    /// Total floating-point operations.
    pub flops: u128,
    /// Global-memory traffic in bytes (reads + writes).
    pub gm_bytes: u128,
    /// Shared-memory traffic in bytes (reads + writes).
    pub sm_bytes: u128,
    /// Local-memory (register spill) traffic in bytes; charged against the
    /// global-memory bandwidth.
    pub spill_bytes: u128,
    /// ALU utilisation efficiency `effALU` (Section 5).
    pub alu_efficiency: f64,
    /// Cell precision.
    pub precision: Precision,
    /// Total thread blocks launched across the run (`n'tb` × kernel calls).
    pub total_thread_blocks: u128,
    /// Threads per block.
    pub nthr: usize,
    /// Shared-memory bytes per block.
    pub shared_bytes_per_block: usize,
    /// Registers allocated per thread (after any cap).
    pub registers_per_thread: usize,
    /// `true` when the kernel is double precision and its update expression
    /// contains a division (Section 7.1 slow-down).
    pub fp64_division: bool,
    /// Kernel launches (one per temporal block in the generated host code).
    pub kernel_launches: u128,
}

impl WorkloadProfile {
    /// Build a profile from the exact counters of a functional run.
    #[must_use]
    pub fn from_counters(plan: &KernelPlan, counters: &TrafficCounters, cap: RegisterCap) -> Self {
        let precision = plan.config().precision();
        let element_bytes = precision.bytes();
        let def = plan.def();
        let resources = plan.resources();
        let spilled = resources.spilled_registers(cap);
        // Every spilled register costs one local-memory store and one load
        // per cell update.
        let spill_bytes = counters.cell_updates * (spilled as u128) * 2 * 4;
        Self {
            flops: counters.flops,
            gm_bytes: counters.gm_bytes(element_bytes),
            sm_bytes: counters.sm_bytes(element_bytes),
            spill_bytes,
            alu_efficiency: def.op_mix().alu_efficiency(),
            precision,
            total_thread_blocks: counters.thread_blocks,
            nthr: plan.geometry().nthr,
            shared_bytes_per_block: resources.shared_bytes_per_block,
            registers_per_thread: resources.registers_with_cap(cap),
            fp64_division: precision == Precision::Double && def.contains_division(),
            kernel_launches: counters.kernel_launches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::{suite, StencilProblem};

    fn sample_plan(precision: Precision) -> KernelPlan {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[256, 256], 16).unwrap();
        let config = BlockConfig::new(4, &[128], None, precision).unwrap();
        KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap()
    }

    fn sample_counters() -> TrafficCounters {
        TrafficCounters {
            gm_reads: 1000,
            gm_writes: 500,
            sm_reads: 4000,
            sm_writes: 2000,
            flops: 15_000,
            cell_updates: 1_500,
            valid_updates: 1_200,
            syncs: 100,
            thread_blocks: 8,
            kernel_launches: 4,
        }
    }

    #[test]
    fn from_counters_converts_elements_to_bytes() {
        let plan = sample_plan(Precision::Single);
        let profile =
            WorkloadProfile::from_counters(&plan, &sample_counters(), RegisterCap::Unlimited);
        assert_eq!(profile.gm_bytes, 1500 * 4);
        assert_eq!(profile.sm_bytes, 6000 * 4);
        assert_eq!(profile.flops, 15_000);
        assert_eq!(profile.spill_bytes, 0);
        assert_eq!(profile.nthr, 128);
        assert!(!profile.fp64_division);
        assert_eq!(profile.kernel_launches, 4);
    }

    #[test]
    fn double_precision_division_flag_and_bytes() {
        let plan = sample_plan(Precision::Double);
        let profile =
            WorkloadProfile::from_counters(&plan, &sample_counters(), RegisterCap::Unlimited);
        assert_eq!(profile.gm_bytes, 1500 * 8);
        assert!(profile.fp64_division, "j2d5pt contains a division");
    }

    #[test]
    fn spill_bytes_appear_under_tight_caps() {
        let plan = sample_plan(Precision::Double);
        let tight =
            WorkloadProfile::from_counters(&plan, &sample_counters(), RegisterCap::Limit(16));
        assert!(tight.spill_bytes > 0);
        assert!(tight.registers_per_thread <= 16);
        let loose =
            WorkloadProfile::from_counters(&plan, &sample_counters(), RegisterCap::Unlimited);
        assert_eq!(loose.spill_bytes, 0);
    }
}
