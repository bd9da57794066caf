//! Traffic and work counters accumulated by the functional executor.

use std::ops::{Add, AddAssign};

/// Work and memory-traffic counters for one (partial) execution.
///
/// All counts are in *elements* (cell values) rather than bytes, so the same
/// counters serve single- and double-precision runs; the timing layer
/// multiplies by the precision's byte width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TrafficCounters {
    /// Cell values read from global memory.
    pub gm_reads: u128,
    /// Cell values written to global memory.
    pub gm_writes: u128,
    /// Cell values read from shared memory.
    pub sm_reads: u128,
    /// Cell values written to shared memory.
    pub sm_writes: u128,
    /// Floating-point operations performed (Table 3 convention).
    pub flops: u128,
    /// Cell updates computed, including redundant (halo) updates.
    pub cell_updates: u128,
    /// Cell updates whose results are written back (valid updates).
    pub valid_updates: u128,
    /// Block-wide synchronisations executed.
    pub syncs: u128,
    /// Thread blocks launched.
    pub thread_blocks: u128,
    /// Kernel launches (one per temporal block in the generated host code).
    pub kernel_launches: u128,
}

impl TrafficCounters {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total global-memory traffic in bytes for the given element size.
    #[must_use]
    pub fn gm_bytes(&self, element_bytes: usize) -> u128 {
        (self.gm_reads + self.gm_writes) * element_bytes as u128
    }

    /// Total shared-memory traffic in bytes for the given element size.
    #[must_use]
    pub fn sm_bytes(&self, element_bytes: usize) -> u128 {
        (self.sm_reads + self.sm_writes) * element_bytes as u128
    }

    /// Redundant (recomputed) cell updates: computed but never written back.
    #[must_use]
    pub(crate) fn redundant_updates(&self) -> u128 {
        self.cell_updates.saturating_sub(self.valid_updates)
    }

    /// Ratio of redundant to total computed updates (0 when nothing was
    /// computed).
    #[must_use]
    pub fn redundancy_ratio(&self) -> f64 {
        if self.cell_updates == 0 {
            return 0.0;
        }
        self.redundant_updates() as f64 / self.cell_updates as f64
    }
}

impl Add for TrafficCounters {
    type Output = TrafficCounters;

    fn add(mut self, rhs: TrafficCounters) -> TrafficCounters {
        self += rhs;
        self
    }
}

impl AddAssign for TrafficCounters {
    fn add_assign(&mut self, rhs: TrafficCounters) {
        self.gm_reads += rhs.gm_reads;
        self.gm_writes += rhs.gm_writes;
        self.sm_reads += rhs.sm_reads;
        self.sm_writes += rhs.sm_writes;
        self.flops += rhs.flops;
        self.cell_updates += rhs.cell_updates;
        self.valid_updates += rhs.valid_updates;
        self.syncs += rhs.syncs;
        self.thread_blocks += rhs.thread_blocks;
        self.kernel_launches += rhs.kernel_launches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_conversions_scale_with_element_size() {
        let c = TrafficCounters {
            gm_reads: 10,
            gm_writes: 5,
            sm_reads: 7,
            sm_writes: 3,
            ..TrafficCounters::new()
        };
        assert_eq!(c.gm_bytes(4), 60);
        assert_eq!(c.gm_bytes(8), 120);
        assert_eq!(c.sm_bytes(4), 40);
    }

    #[test]
    fn redundancy_ratio() {
        let c = TrafficCounters {
            cell_updates: 100,
            valid_updates: 80,
            ..TrafficCounters::new()
        };
        assert_eq!(c.redundant_updates(), 20);
        assert!((c.redundancy_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(TrafficCounters::new().redundancy_ratio(), 0.0);
    }

    #[test]
    fn addition_accumulates_every_field() {
        let a = TrafficCounters {
            gm_reads: 1,
            gm_writes: 2,
            sm_reads: 3,
            sm_writes: 4,
            flops: 5,
            cell_updates: 6,
            valid_updates: 7,
            syncs: 8,
            thread_blocks: 9,
            kernel_launches: 10,
        };
        let mut b = a;
        b += a;
        assert_eq!(b, a + a);
        assert_eq!(b.gm_reads, 2);
        assert_eq!(b.kernel_launches, 20);
    }
}
