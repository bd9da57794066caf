//! GPU device descriptions (Table 4 of the paper).

use an5d_grid::Precision;
use std::fmt;

/// Specification of a target GPU, following Table 4 of the paper plus the
/// efficiency factors the paper reports in its evaluation (Section 7.2).
///
/// Peaks are in GFLOP/s and GB/s. "Measured" bandwidths are the values the
/// authors obtained with BabelStream (global memory) and gpumembench
/// (shared memory); since those tools need the physical card, this
/// reproduction treats the published measurements as device constants.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GpuDevice {
    /// Marketing name, e.g. `"Tesla V100 SXM2"`.
    pub name: String,
    /// Peak compute throughput (GFLOP/s) for `f32`.
    pub peak_gflops_f32: f64,
    /// Peak compute throughput (GFLOP/s) for `f64`.
    pub peak_gflops_f64: f64,
    /// Theoretical peak external-memory bandwidth (GB/s).
    pub peak_mem_bw: f64,
    /// Measured external-memory bandwidth (GB/s) for `f32` data.
    pub measured_mem_bw_f32: f64,
    /// Measured external-memory bandwidth (GB/s) for `f64` data.
    pub measured_mem_bw_f64: f64,
    /// Measured aggregate shared-memory bandwidth (GB/s) for `f32` data.
    pub measured_shared_bw_f32: f64,
    /// Measured aggregate shared-memory bandwidth (GB/s) for `f64` data.
    pub measured_shared_bw_f64: f64,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Shared memory per SM in bytes (64 KiB on P100, 96 KiB on V100).
    pub shared_mem_per_sm: usize,
    /// Maximum resident threads per SM (2048 on both devices).
    pub max_threads_per_sm: usize,
    /// Register file size per SM (32-bit registers).
    pub registers_per_sm: usize,
    /// Maximum registers per thread.
    pub max_registers_per_thread: usize,
    /// Fraction of the measured shared-memory bandwidth that N.5D-blocked
    /// kernels actually achieve on this device. Section 7.2 reports ≈67 %
    /// model accuracy on V100 versus ≈49 % on P100 with shared memory as
    /// the predicted bottleneck, i.e. P100 sustains roughly half the
    /// shared-memory efficiency of V100 for identical kernels.
    pub shared_mem_efficiency: f64,
    /// Throughput derate applied when a double-precision kernel contains a
    /// division: the paper observes NVCC generating inefficient code for
    /// such kernels (Section 7.1).
    pub fp64_division_derate: f64,
}

impl GpuDevice {
    /// Tesla V100 SXM2 (Volta), Table 4.
    #[must_use]
    pub fn tesla_v100() -> Self {
        Self {
            name: "Tesla V100 SXM2".to_string(),
            peak_gflops_f32: 15_700.0,
            peak_gflops_f64: 7_850.0,
            peak_mem_bw: 900.0,
            measured_mem_bw_f32: 791.0,
            measured_mem_bw_f64: 805.0,
            measured_shared_bw_f32: 10_650.0,
            measured_shared_bw_f64: 12_750.0,
            sm_count: 80,
            shared_mem_per_sm: 96 * 1024,
            max_threads_per_sm: 2048,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            shared_mem_efficiency: 0.70,
            fp64_division_derate: 0.45,
        }
    }

    /// Tesla P100 SXM2 (Pascal), Table 4.
    #[must_use]
    pub fn tesla_p100() -> Self {
        Self {
            name: "Tesla P100 SXM2".to_string(),
            peak_gflops_f32: 10_600.0,
            peak_gflops_f64: 5_300.0,
            peak_mem_bw: 720.0,
            measured_mem_bw_f32: 535.0,
            measured_mem_bw_f64: 540.0,
            measured_shared_bw_f32: 9_700.0,
            measured_shared_bw_f64: 10_150.0,
            sm_count: 56,
            shared_mem_per_sm: 64 * 1024,
            max_threads_per_sm: 2048,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            shared_mem_efficiency: 0.37,
            fp64_division_derate: 0.40,
        }
    }

    /// Ampere A100 SXM4. Not evaluated by the paper (it predates Ampere);
    /// parameters are derived the same way Table 4's are: vendor peaks,
    /// plus measured bandwidths at the ~88 % of peak the paper's
    /// BabelStream runs achieved on Volta, and shared-memory bandwidth
    /// scaled from the V100 measurement by SM count and clock.
    #[must_use]
    pub fn ampere_a100() -> Self {
        Self {
            name: "Ampere A100 SXM4".to_string(),
            peak_gflops_f32: 19_500.0,
            peak_gflops_f64: 9_700.0,
            peak_mem_bw: 1_555.0,
            measured_mem_bw_f32: 1_370.0,
            measured_mem_bw_f64: 1_390.0,
            measured_shared_bw_f32: 17_600.0,
            measured_shared_bw_f64: 19_800.0,
            sm_count: 108,
            shared_mem_per_sm: 164 * 1024,
            max_threads_per_sm: 2048,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            shared_mem_efficiency: 0.74,
            fp64_division_derate: 0.50,
        }
    }

    /// A generic small GPU (roughly a quarter of a V100): stands in for
    /// the low-end cards of a heterogeneous fleet. Derived with the same
    /// ratios as the paper devices (measured global bandwidth ≈ 85 % of
    /// peak, `f64` slightly above `f32`, shared bandwidth ∝ SM count).
    #[must_use]
    pub fn generic_small() -> Self {
        Self {
            name: "Generic Small GPU".to_string(),
            peak_gflops_f32: 4_000.0,
            peak_gflops_f64: 2_000.0,
            peak_mem_bw: 320.0,
            measured_mem_bw_f32: 270.0,
            measured_mem_bw_f64: 274.0,
            measured_shared_bw_f32: 2_700.0,
            measured_shared_bw_f64: 3_200.0,
            sm_count: 20,
            shared_mem_per_sm: 64 * 1024,
            max_threads_per_sm: 2048,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            shared_mem_efficiency: 0.55,
            fp64_division_derate: 0.40,
        }
    }

    /// Both evaluation devices, in the order the paper reports them
    /// (V100 first in Fig. 6).
    #[must_use]
    pub fn paper_devices() -> Vec<GpuDevice> {
        vec![Self::tesla_v100(), Self::tesla_p100()]
    }

    /// Peak compute throughput in GFLOP/s for the given precision.
    #[must_use]
    pub fn peak_gflops(&self, precision: Precision) -> f64 {
        match precision {
            Precision::Single => self.peak_gflops_f32,
            Precision::Double => self.peak_gflops_f64,
        }
    }

    /// Measured external-memory bandwidth in GB/s for the given precision.
    #[must_use]
    pub fn measured_mem_bw(&self, precision: Precision) -> f64 {
        match precision {
            Precision::Single => self.measured_mem_bw_f32,
            Precision::Double => self.measured_mem_bw_f64,
        }
    }

    /// Measured shared-memory bandwidth in GB/s for the given precision.
    #[must_use]
    pub fn measured_shared_bw(&self, precision: Precision) -> f64 {
        match precision {
            Precision::Single => self.measured_shared_bw_f32,
            Precision::Double => self.measured_shared_bw_f64,
        }
    }

    /// Short identifier used in result tables ("V100", "P100", "A100",
    /// "Small").
    #[must_use]
    pub fn short_name(&self) -> &str {
        if self.name.contains("V100") {
            "V100"
        } else if self.name.contains("P100") {
            "P100"
        } else if self.name.contains("A100") {
            "A100"
        } else if self.name.contains("Small") {
            "Small"
        } else {
            &self.name
        }
    }
}

impl fmt::Display for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SMs, {:.0}/{:.0} GFLOP/s, {:.0} GB/s)",
            self.name, self.sm_count, self.peak_gflops_f32, self.peak_gflops_f64, self.peak_mem_bw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_v100_values() {
        let v = GpuDevice::tesla_v100();
        assert_eq!(v.peak_gflops(Precision::Single), 15_700.0);
        assert_eq!(v.peak_gflops(Precision::Double), 7_850.0);
        assert_eq!(v.measured_mem_bw(Precision::Single), 791.0);
        assert_eq!(v.measured_mem_bw(Precision::Double), 805.0);
        assert_eq!(v.measured_shared_bw(Precision::Single), 10_650.0);
        assert_eq!(v.sm_count, 80);
        assert_eq!(v.shared_mem_per_sm, 96 * 1024);
        assert_eq!(v.short_name(), "V100");
    }

    #[test]
    fn table4_p100_values() {
        let p = GpuDevice::tesla_p100();
        assert_eq!(p.peak_gflops(Precision::Single), 10_600.0);
        assert_eq!(p.measured_mem_bw(Precision::Double), 540.0);
        assert_eq!(p.measured_shared_bw(Precision::Double), 10_150.0);
        assert_eq!(p.sm_count, 56);
        assert_eq!(p.shared_mem_per_sm, 64 * 1024);
        assert_eq!(p.short_name(), "P100");
    }

    #[test]
    fn p100_shared_memory_efficiency_is_roughly_half_of_v100() {
        let v = GpuDevice::tesla_v100();
        let p = GpuDevice::tesla_p100();
        let ratio = p.shared_mem_efficiency / v.shared_mem_efficiency;
        assert!(ratio > 0.4 && ratio < 0.6, "ratio {ratio}");
    }

    #[test]
    fn paper_devices_order_and_display() {
        let devices = GpuDevice::paper_devices();
        assert_eq!(devices.len(), 2);
        assert_eq!(devices[0].short_name(), "V100");
        assert!(devices[1].to_string().contains("P100"));
    }
}
