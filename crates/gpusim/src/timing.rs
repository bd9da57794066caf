//! Simulated kernel timing: converts a workload profile into a run time.
//!
//! This is the "measurement" side of the reproduction (what the paper gets
//! by actually running kernels); the paper's own Section 5 prediction model
//! lives in the `an5d-model` crate and deliberately ignores the efficiency
//! derates applied here, which reproduces the model-accuracy gap discussed
//! in Section 7.2.

use crate::{GpuDevice, Occupancy, WorkloadProfile};
use std::error::Error;
use std::fmt;

/// Per-kernel-launch overhead charged by the timing model (seconds). The
/// generated host code launches one kernel per temporal block, so this only
/// matters for tiny problems.
const KERNEL_LAUNCH_OVERHEAD_S: f64 = 5e-6;

/// Which resource bound the simulated run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Bottleneck {
    /// Peak-compute bound.
    Compute,
    /// Global-memory-bandwidth bound.
    GlobalMemory,
    /// Shared-memory-bandwidth bound.
    SharedMemory,
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bottleneck::Compute => write!(f, "compute"),
            Bottleneck::GlobalMemory => write!(f, "global memory"),
            Bottleneck::SharedMemory => write!(f, "shared memory"),
        }
    }
}

/// Error returned when a configuration cannot run on the device at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibleConfig {
    /// Human-readable reason (which resource does not fit).
    pub reason: String,
}

impl fmt::Display for InfeasibleConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "configuration cannot execute on the device: {}",
            self.reason
        )
    }
}

impl Error for InfeasibleConfig {}

/// Result of simulating one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimulatedTime {
    /// Simulated wall-clock time in seconds (excluding PCI-E transfers, as
    /// in the paper's methodology).
    pub seconds: f64,
    /// Compute-bound time component (seconds).
    pub time_compute: f64,
    /// Global-memory-bound time component (seconds).
    pub time_global: f64,
    /// Shared-memory-bound time component (seconds).
    pub time_shared: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
    /// Device utilisation efficiency applied (occupancy × launch tail).
    pub utilization: f64,
    /// Occupancy of the configuration on the device.
    pub occupancy: Occupancy,
}

impl SimulatedTime {
    /// Throughput in GFLOP/s for a given total FLOP count.
    #[must_use]
    pub fn gflops(&self, flops: u128) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        flops as f64 / self.seconds / 1e9
    }
}

/// SM-utilisation efficiency of one kernel launch — the Section 5 model's
/// `effSM`, which the simulated measurement applies too, so the two agree
/// on *how* a launch underfills the device. A launch runs in waves of
/// `nSM × (max_threads_per_sm / nthr)` thread blocks (the thread-count
/// limit); less than one wave uses that share of the device, and a
/// partially-filled last wave wastes its idle SMs: `waves / ⌈waves⌉`.
/// (The paper writes the wave size without the `nSM` factor, which would
/// make `effSM` ≈ 1 for every realistic launch; the SM count is clearly
/// the intended quantity.)
#[must_use]
pub fn wave_efficiency(device: &GpuDevice, nthr: usize, blocks_per_launch: f64) -> f64 {
    if nthr == 0 || blocks_per_launch <= 0.0 {
        return 0.0;
    }
    let blocks_per_wave = (device.sm_count * (device.max_threads_per_sm / nthr).max(1)) as f64;
    let waves = blocks_per_launch / blocks_per_wave;
    if waves <= 1.0 {
        waves
    } else {
        waves / waves.ceil()
    }
}

/// Simulate the run time of a workload on a device.
///
/// # Errors
///
/// Returns [`InfeasibleConfig`] when not even a single thread block of the
/// configuration fits on an SM (shared-memory or register demand too high),
/// or when the block has more threads than an SM supports.
pub fn simulate(
    profile: &WorkloadProfile,
    device: &GpuDevice,
) -> Result<SimulatedTime, InfeasibleConfig> {
    if profile.nthr == 0 || profile.nthr > device.max_threads_per_sm {
        return Err(InfeasibleConfig {
            reason: format!(
                "thread block of {} threads exceeds the {}-thread SM limit",
                profile.nthr, device.max_threads_per_sm
            ),
        });
    }
    let occupancy = Occupancy::compute(
        device,
        profile.nthr,
        profile.shared_bytes_per_block,
        profile.registers_per_thread,
    );
    if !occupancy.is_feasible() {
        return Err(InfeasibleConfig {
            reason: format!(
                "no thread block fits on an SM (shared {} B/block, {} regs/thread, limited by {})",
                profile.shared_bytes_per_block, profile.registers_per_thread, occupancy.limited_by
            ),
        });
    }

    // Compute roof, derated by the ALU mix and (for double-precision
    // division kernels) NVCC's inefficient division sequences.
    let mut peak_gflops = device.peak_gflops(profile.precision) * profile.alu_efficiency;
    if profile.fp64_division {
        peak_gflops *= device.fp64_division_derate;
    }
    let time_compute = profile.flops as f64 / (peak_gflops * 1e9);

    // Global memory: measured bandwidth; spill traffic is charged here too.
    let gm_bw = device.measured_mem_bw(profile.precision) * 1e9;
    let time_global = (profile.gm_bytes + profile.spill_bytes) as f64 / gm_bw;

    // Shared memory: measured bandwidth times the per-device efficiency the
    // paper reports for N.5D-blocked kernels.
    let sm_bw = device.measured_shared_bw(profile.precision) * device.shared_mem_efficiency * 1e9;
    let time_shared = profile.sm_bytes as f64 / sm_bw;

    let (bottleneck, raw) = if time_shared >= time_global && time_shared >= time_compute {
        (Bottleneck::SharedMemory, time_shared)
    } else if time_global >= time_compute {
        (Bottleneck::GlobalMemory, time_global)
    } else {
        (Bottleneck::Compute, time_compute)
    };

    // Device utilisation: occupancy fraction (latency hiding) combined with
    // the model's launch/tail efficiency; the measurement then applies the
    // additional occupancy and bandwidth-efficiency derates the model
    // ignores. Tail effects apply per kernel launch (the host code launches
    // one kernel per temporal block), so divide the run's total blocks by
    // the number of launches.
    let blocks_per_launch =
        profile.total_thread_blocks as f64 / profile.kernel_launches.max(1) as f64;
    let launch_eff = wave_efficiency(device, profile.nthr, blocks_per_launch);
    // Low occupancy hurts, but sub-linearly: even ~25 % occupancy hides most
    // latency for bandwidth-bound kernels.
    let occupancy_eff = occupancy.fraction.sqrt().clamp(0.05, 1.0);
    let utilization = (launch_eff * occupancy_eff).clamp(1e-3, 1.0);

    let seconds = raw / utilization + profile.kernel_launches as f64 * KERNEL_LAUNCH_OVERHEAD_S;
    Ok(SimulatedTime {
        seconds,
        time_compute,
        time_global,
        time_shared,
        bottleneck,
        utilization,
        occupancy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;

    fn base_profile() -> WorkloadProfile {
        WorkloadProfile {
            flops: 4_000_000_000,
            gm_bytes: 800_000_000,
            sm_bytes: 16_000_000_000,
            spill_bytes: 0,
            alu_efficiency: 0.9,
            precision: Precision::Single,
            total_thread_blocks: 20_000,
            nthr: 256,
            shared_bytes_per_block: 2048,
            registers_per_thread: 64,
            fp64_division: false,
            kernel_launches: 100,
        }
    }

    #[test]
    fn shared_memory_bound_workload() {
        let device = GpuDevice::tesla_v100();
        let t = simulate(&base_profile(), &device).unwrap();
        assert_eq!(t.bottleneck, Bottleneck::SharedMemory);
        assert!(t.seconds > 0.0);
        assert!(t.time_shared > t.time_global);
        assert!(t.gflops(base_profile().flops) > 0.0);
    }

    #[test]
    fn global_memory_bound_when_shared_traffic_is_small() {
        let device = GpuDevice::tesla_v100();
        let profile = WorkloadProfile {
            sm_bytes: 100_000,
            ..base_profile()
        };
        let t = simulate(&profile, &device).unwrap();
        assert_eq!(t.bottleneck, Bottleneck::GlobalMemory);
    }

    #[test]
    fn compute_bound_when_traffic_is_negligible() {
        let device = GpuDevice::tesla_v100();
        let profile = WorkloadProfile {
            gm_bytes: 1_000,
            sm_bytes: 1_000,
            flops: 10_000_000_000_000,
            ..base_profile()
        };
        let t = simulate(&profile, &device).unwrap();
        assert_eq!(t.bottleneck, Bottleneck::Compute);
    }

    #[test]
    fn v100_outruns_p100_on_the_same_shared_bound_workload() {
        let p = base_profile();
        let v100 = simulate(&p, &GpuDevice::tesla_v100()).unwrap();
        let p100 = simulate(&p, &GpuDevice::tesla_p100()).unwrap();
        assert!(v100.seconds < p100.seconds);
        // The gap should exceed the raw bandwidth ratio because of the
        // Section 7.2 shared-memory efficiency difference.
        let bw_ratio = GpuDevice::tesla_v100().measured_shared_bw_f32
            / GpuDevice::tesla_p100().measured_shared_bw_f32;
        assert!(p100.seconds / v100.seconds > bw_ratio);
    }

    #[test]
    fn fp64_division_derate_slows_compute_bound_kernels() {
        let device = GpuDevice::tesla_v100();
        let base = WorkloadProfile {
            precision: Precision::Double,
            gm_bytes: 1_000,
            sm_bytes: 1_000,
            flops: 1_000_000_000_000,
            ..base_profile()
        };
        let without = simulate(&base, &device).unwrap();
        let with = simulate(
            &WorkloadProfile {
                fp64_division: true,
                ..base
            },
            &device,
        )
        .unwrap();
        assert!(with.seconds > without.seconds * 2.0);
    }

    #[test]
    fn spill_traffic_slows_global_memory_bound_kernels() {
        let device = GpuDevice::tesla_v100();
        let profile = WorkloadProfile {
            sm_bytes: 0,
            spill_bytes: 4_000_000_000,
            ..base_profile()
        };
        let spilled = simulate(&profile, &device).unwrap();
        let clean = simulate(
            &WorkloadProfile {
                spill_bytes: 0,
                ..profile
            },
            &device,
        )
        .unwrap();
        assert!(spilled.seconds > clean.seconds * 3.0);
    }

    #[test]
    fn infeasible_configurations_are_rejected() {
        let device = GpuDevice::tesla_v100();
        // Shared memory demand larger than an SM.
        let too_much_smem = WorkloadProfile {
            shared_bytes_per_block: 200 * 1024,
            ..base_profile()
        };
        assert!(simulate(&too_much_smem, &device).is_err());
        // Block larger than the SM thread limit.
        let too_many_threads = WorkloadProfile {
            nthr: 4096,
            ..base_profile()
        };
        let err = simulate(&too_many_threads, &device).unwrap_err();
        assert!(err.to_string().contains("thread block"));
    }

    #[test]
    fn small_launches_are_penalised() {
        let device = GpuDevice::tesla_v100();
        let big = simulate(&base_profile(), &device).unwrap();
        let small = simulate(
            &WorkloadProfile {
                total_thread_blocks: 8,
                ..base_profile()
            },
            &device,
        )
        .unwrap();
        assert!(small.utilization < big.utilization);
        assert!(small.seconds > big.seconds);
    }
}
