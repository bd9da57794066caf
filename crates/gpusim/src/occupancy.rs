//! SM occupancy calculation.

use crate::GpuDevice;
use std::fmt;

/// What limited the number of resident thread blocks per SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub(crate) enum OccupancyLimit {
    /// The 2048-resident-threads-per-SM hardware limit.
    Threads,
    /// The shared-memory capacity per SM.
    SharedMemory,
    /// The register file per SM.
    Registers,
}

impl fmt::Display for OccupancyLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OccupancyLimit::Threads => write!(f, "threads"),
            OccupancyLimit::SharedMemory => write!(f, "shared memory"),
            OccupancyLimit::Registers => write!(f, "registers"),
        }
    }
}

/// Result of the occupancy calculation for one kernel configuration on one
/// device.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Occupancy {
    /// Thread blocks that can be resident on one SM simultaneously.
    pub blocks_per_sm: usize,
    /// Resident threads per SM (`blocks_per_sm × nthr`).
    pub threads_per_sm: usize,
    /// Fraction of the 2048-thread capacity that is occupied.
    pub fraction: f64,
    /// The binding resource.
    pub(crate) limited_by: OccupancyLimit,
}

impl Occupancy {
    /// Compute occupancy for a block of `nthr` threads using
    /// `shared_bytes_per_block` bytes of shared memory and
    /// `registers_per_thread` registers per thread.
    ///
    /// Returns `blocks_per_sm == 0` when the block cannot fit on an SM at
    /// all (shared memory or register demand exceeds the per-SM capacity),
    /// which callers treat as an infeasible configuration.
    #[must_use]
    pub fn compute(
        device: &GpuDevice,
        nthr: usize,
        shared_bytes_per_block: usize,
        registers_per_thread: usize,
    ) -> Self {
        let by_threads = device.max_threads_per_sm.checked_div(nthr).unwrap_or(0);
        let by_shared = device
            .shared_mem_per_sm
            .checked_div(shared_bytes_per_block)
            .unwrap_or(usize::MAX);
        let regs_per_block = registers_per_thread.max(1) * nthr;
        let by_registers = device
            .registers_per_sm
            .checked_div(regs_per_block)
            .unwrap_or(usize::MAX);

        let blocks_per_sm = by_threads.min(by_shared).min(by_registers);
        let limited_by = if blocks_per_sm == by_threads {
            OccupancyLimit::Threads
        } else if blocks_per_sm == by_shared {
            OccupancyLimit::SharedMemory
        } else {
            OccupancyLimit::Registers
        };
        let threads_per_sm = blocks_per_sm * nthr;
        let fraction = threads_per_sm as f64 / device.max_threads_per_sm as f64;
        Self {
            blocks_per_sm,
            threads_per_sm,
            fraction,
            limited_by,
        }
    }

    /// `true` when at least one block fits on an SM.
    #[must_use]
    pub(crate) fn is_feasible(&self) -> bool {
        self.blocks_per_sm > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_limited_configuration() {
        let device = GpuDevice::tesla_v100();
        // Tiny shared memory and registers: the 2048-thread limit binds.
        let occ = Occupancy::compute(&device, 256, 1024, 32);
        assert_eq!(occ.blocks_per_sm, 8);
        assert_eq!(occ.threads_per_sm, 2048);
        assert_eq!(occ.fraction, 1.0);
        assert_eq!(occ.limited_by, OccupancyLimit::Threads);
        assert!(occ.is_feasible());
    }

    #[test]
    fn shared_memory_limited_configuration() {
        let device = GpuDevice::tesla_p100();
        // 40 KiB per block on a 64 KiB SM: only one block fits.
        let occ = Occupancy::compute(&device, 256, 40 * 1024, 32);
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limited_by, OccupancyLimit::SharedMemory);
        assert!(occ.fraction < 0.2);
    }

    #[test]
    fn register_limited_configuration() {
        let device = GpuDevice::tesla_v100();
        // 128 registers × 1024 threads = 131072 > 65536: zero blocks fit.
        let occ = Occupancy::compute(&device, 1024, 1024, 128);
        assert_eq!(occ.blocks_per_sm, 0);
        assert_eq!(occ.limited_by, OccupancyLimit::Registers);
        assert!(!occ.is_feasible());
    }

    #[test]
    fn register_cap_32_allows_full_occupancy() {
        // The paper notes 32 registers/thread is the maximum for 100 %
        // occupancy: 2048 threads × 32 = 65536 registers.
        let device = GpuDevice::tesla_v100();
        let occ = Occupancy::compute(&device, 256, 2048, 32);
        assert_eq!(occ.fraction, 1.0);
        let occ33 = Occupancy::compute(&device, 256, 2048, 33);
        assert!(occ33.fraction < 1.0);
    }

    #[test]
    fn limit_display_strings() {
        assert_eq!(OccupancyLimit::Threads.to_string(), "threads");
        assert_eq!(OccupancyLimit::SharedMemory.to_string(), "shared memory");
        assert_eq!(OccupancyLimit::Registers.to_string(), "registers");
    }
}
