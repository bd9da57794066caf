//! Hybrid hexagonal/wavefront tiling (Grosser et al.), the "Hybrid Tiling"
//! bars of Fig. 6.

use crate::BaselineResult;
use an5d_gpusim::{simulate, GpuDevice, InfeasibleConfig, WorkloadProfile};
use an5d_grid::Precision;
use an5d_plan::practical_shared_reads;
use an5d_stencil::StencilProblem;

/// Candidate temporal heights explored by the internal parameter search,
/// mirroring the paper's large hybrid-tiling sweep (`bT ∈ [2, 20]` for 2D,
/// `[2, 12]` for 3D).
fn bt_candidates(ndim: usize) -> Vec<usize> {
    if ndim == 2 {
        (1..=20).collect()
    } else {
        (1..=12).collect()
    }
}

/// Spatial block extents (all dimensions blocked — hexagonal over one
/// spatial dimension plus wavefront over the rest; there is no streaming
/// dimension, which is the scheme's key limitation versus N.5D blocking).
/// Double-precision tiles are halved so the tile cross-section still fits
/// in shared memory, mirroring how the paper re-tunes tile sizes per data
/// type.
fn block_extents(ndim: usize, precision: Precision) -> Vec<usize> {
    match (ndim, precision) {
        (2, Precision::Single) => vec![32, 64],
        (2, Precision::Double) => vec![32, 32],
        (_, Precision::Single) => vec![8, 8, 32],
        (_, Precision::Double) => vec![8, 8, 16],
    }
}

/// Simulate the performance of hybrid (hexagonal + wavefront) tiling.
///
/// The scheme performs no redundant computation, but because every spatial
/// dimension is blocked the tile volume has to fit in shared memory, so the
/// halo-to-volume ratio of its *loads* is much worse than N.5D blocking —
/// matching the paper's observation that hybrid tiling is competitive for
/// 2D stencils yet falls clearly short for 3D ones.
///
/// # Errors
///
/// Returns [`InfeasibleConfig`] if no temporal height fits on the device.
pub fn hybrid_measurement(
    problem: &StencilProblem,
    device: &GpuDevice,
    precision: Precision,
) -> Result<BaselineResult, InfeasibleConfig> {
    let def = problem.def();
    let rad = def.radius();
    let ndim = def.ndim();
    let bytes = precision.bytes() as u128;
    let cells_per_step = problem.cells_per_step();
    let steps = problem.time_steps() as u128;
    let flops_per_cell = def.flops_per_cell() as u128;
    let sm_per_update = (practical_shared_reads(def) + 1) as u128;

    let blocks = block_extents(ndim, precision);
    let tile_cells: u128 = blocks.iter().map(|&b| b as u128).product();
    let nthr = 256usize;

    let mut best: Option<BaselineResult> = None;
    let mut last_err: Option<InfeasibleConfig> = None;

    for bt in bt_candidates(ndim) {
        // Shared memory must hold the hexagonal tile cross-section: the
        // blocked cells of (1 + 2·rad) planes of the wavefront, double
        // buffered, plus the per-time-step boundary columns of the hexagon.
        let shared_cells = 2 * tile_cells as usize * (1 + 2 * rad) + 2 * bt * rad * blocks[0];
        let shared_bytes_per_block = shared_cells * precision.bytes();
        if shared_bytes_per_block > device.shared_mem_per_sm {
            continue;
        }

        // Loads: each temporal block loads the tile plus a halo of bT·rad on
        // every face (the hexagon/wavefront dependence region); stores write
        // the tile once per temporal block. No recomputation happens, so the
        // FLOP count is exactly the useful work.
        let tile_with_halo: u128 = blocks.iter().map(|&b| (b + 2 * bt * rad) as u128).product();
        let tiles: u128 = problem
            .interior()
            .iter()
            .zip(&blocks)
            .map(|(&extent, &b)| extent.div_ceil(b) as u128)
            .product();
        let temporal_blocks = (problem.time_steps()).div_ceil(bt) as u128;
        let gm_reads = tiles * tile_with_halo * temporal_blocks;
        let gm_writes = cells_per_step * temporal_blocks;
        // Wavefront scheduling serialises part of the tile updates, which
        // shows up as extra shared-memory traffic for operand exchange.
        let sm_accesses = cells_per_step * steps * sm_per_update;

        let profile = WorkloadProfile {
            flops: cells_per_step * steps * flops_per_cell,
            gm_bytes: (gm_reads + gm_writes) * bytes,
            sm_bytes: sm_accesses * bytes,
            spill_bytes: 0,
            alu_efficiency: def.op_mix().alu_efficiency(),
            precision,
            total_thread_blocks: tiles * temporal_blocks,
            nthr,
            shared_bytes_per_block,
            registers_per_thread: 48,
            fp64_division: precision == Precision::Double && def.contains_division(),
            kernel_launches: temporal_blocks,
        };
        match simulate(&profile, device) {
            Ok(time) => {
                let result = BaselineResult {
                    framework: "Hybrid Tiling".to_string(),
                    seconds: time.seconds,
                    gflops: problem.gflops(time.seconds),
                    gcells: problem.gcells(time.seconds),
                };
                if best.as_ref().is_none_or(|b| result.gflops > b.gflops) {
                    best = Some(result);
                }
            }
            Err(e) => last_err = Some(e),
        }
    }

    best.ok_or_else(|| {
        last_err.unwrap_or(InfeasibleConfig {
            reason: "no hybrid tile height fits in shared memory".to_string(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loop_tiling::loop_tiling_measurement;
    use an5d_stencil::suite;

    #[test]
    fn hybrid_beats_loop_tiling_for_2d() {
        let problem = StencilProblem::new(suite::j2d5pt(), &[8192, 8192], 200).unwrap();
        let device = GpuDevice::tesla_v100();
        let hybrid = hybrid_measurement(&problem, &device, Precision::Single).unwrap();
        let loop_t = loop_tiling_measurement(&problem, &device, Precision::Single).unwrap();
        assert_eq!(hybrid.framework, "Hybrid Tiling");
        assert!(hybrid.gflops > loop_t.gflops);
    }

    #[test]
    fn hybrid_2d_reaches_competitive_throughput() {
        let problem = StencilProblem::new(suite::j2d9pt_gol(), &[8192, 8192], 200).unwrap();
        let device = GpuDevice::tesla_v100();
        let hybrid = hybrid_measurement(&problem, &device, Precision::Single).unwrap();
        // Fig. 6: hybrid tiling is in the same order of magnitude as the
        // N.5D frameworks for 2D stencils (single-digit TFLOP/s).
        assert!(hybrid.gflops > 1_000.0, "{}", hybrid.gflops);
    }

    #[test]
    fn hybrid_3d_is_much_weaker_than_2d_per_cell() {
        let device = GpuDevice::tesla_v100();
        let p2 = StencilProblem::new(suite::star2d(1), &[8192, 8192], 100).unwrap();
        let p3 = StencilProblem::new(suite::star3d(1), &[512, 512, 512], 100).unwrap();
        let r2 = hybrid_measurement(&p2, &device, Precision::Single).unwrap();
        let r3 = hybrid_measurement(&p3, &device, Precision::Single).unwrap();
        assert!(
            r2.gcells > 1.5 * r3.gcells,
            "2D {} vs 3D {}",
            r2.gcells,
            r3.gcells
        );
    }

    #[test]
    fn v100_beats_p100_for_hybrid() {
        let problem = StencilProblem::new(suite::j2d5pt(), &[8192, 8192], 100).unwrap();
        let v = hybrid_measurement(&problem, &GpuDevice::tesla_v100(), Precision::Single).unwrap();
        let p = hybrid_measurement(&problem, &GpuDevice::tesla_p100(), Precision::Single).unwrap();
        assert!(v.gflops > p.gflops);
    }
}
