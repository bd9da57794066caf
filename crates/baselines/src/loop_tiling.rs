//! PPCG-style spatial-only loop tiling (the "Loop Tiling" bars of Fig. 6).

use crate::BaselineResult;
use an5d_gpusim::{simulate, GpuDevice, InfeasibleConfig, WorkloadProfile};
use an5d_grid::Precision;
use an5d_stencil::StencilProblem;

/// Default PPCG tile edge (cells per dimension).
const TILE_EDGE: usize = 32;

/// Fraction of the measured global-memory bandwidth that PPCG's generic
/// tiled code achieves in practice: the generated loop nests are not
/// perfectly coalesced and rely on the cache for neighbour reuse.
const MEMORY_EFFICIENCY: f64 = 0.6;

/// Simulate the performance of spatial-only loop tiling.
///
/// Every time-step reads each tile (plus its halo) from global memory and
/// writes the tile back: there is no temporal reuse at all, so the scheme
/// is firmly global-memory bound — which is exactly why it trails every
/// other framework in Fig. 6.
///
/// # Errors
///
/// Returns [`InfeasibleConfig`] if the workload cannot be launched at all
/// (does not happen for the paper's problem sizes).
pub fn loop_tiling_measurement(
    problem: &StencilProblem,
    device: &GpuDevice,
    precision: Precision,
) -> Result<BaselineResult, InfeasibleConfig> {
    let def = problem.def();
    let bytes = precision.bytes() as u128;
    let rad = def.radius();
    let cells_per_step = problem.cells_per_step();
    let steps = problem.time_steps() as u128;

    // Per tile and time-step: the tile plus its halo is read, the tile is
    // written back.
    let tile_cells = TILE_EDGE.pow(def.ndim() as u32) as u128;
    let tile_with_halo = (TILE_EDGE + 2 * rad).pow(def.ndim() as u32) as u128;
    let tiles_per_step = cells_per_step.div_ceil(tile_cells);
    let gm_reads = tiles_per_step * tile_with_halo * steps;
    let gm_writes = cells_per_step * steps;
    let gm_bytes = ((gm_reads + gm_writes) * bytes) as f64 / MEMORY_EFFICIENCY;

    let flops = cells_per_step * steps * def.flops_per_cell() as u128;
    let nthr = TILE_EDGE * TILE_EDGE.min(32);

    let profile = WorkloadProfile {
        flops,
        gm_bytes: gm_bytes as u128,
        // Neighbour reuse goes through the cache, not explicitly-managed
        // shared memory.
        sm_bytes: 0,
        spill_bytes: 0,
        alu_efficiency: def.op_mix().alu_efficiency(),
        precision,
        total_thread_blocks: tiles_per_step * steps,
        nthr,
        shared_bytes_per_block: 0,
        registers_per_thread: 32,
        fp64_division: precision == Precision::Double && def.contains_division(),
        kernel_launches: steps,
    };
    let time = simulate(&profile, device)?;
    Ok(BaselineResult {
        framework: "Loop Tiling".to_string(),
        seconds: time.seconds,
        gflops: problem.gflops(time.seconds),
        gcells: problem.gcells(time.seconds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_stencil::suite;

    fn problem() -> StencilProblem {
        StencilProblem::new(suite::j2d5pt(), &[8192, 8192], 200).unwrap()
    }

    #[test]
    fn loop_tiling_is_global_memory_bound_and_slow() {
        let device = GpuDevice::tesla_v100();
        let result = loop_tiling_measurement(&problem(), &device, Precision::Single).unwrap();
        assert_eq!(result.framework, "Loop Tiling");
        assert!(result.gflops > 50.0);
        // Far below the paper's AN5D numbers (≈6 TFLOP/s for j2d5pt float).
        assert!(result.gflops < 2_000.0, "{}", result.gflops);
    }

    #[test]
    fn double_precision_is_slower_than_single() {
        let device = GpuDevice::tesla_v100();
        let single = loop_tiling_measurement(&problem(), &device, Precision::Single).unwrap();
        let double = loop_tiling_measurement(&problem(), &device, Precision::Double).unwrap();
        assert!(double.seconds > single.seconds * 1.5);
    }

    #[test]
    fn v100_beats_p100() {
        let v = loop_tiling_measurement(&problem(), &GpuDevice::tesla_v100(), Precision::Single)
            .unwrap();
        let p = loop_tiling_measurement(&problem(), &GpuDevice::tesla_p100(), Precision::Single)
            .unwrap();
        assert!(v.gflops > p.gflops);
    }

    #[test]
    fn higher_order_stencils_move_more_halo_data() {
        let device = GpuDevice::tesla_v100();
        let p1 = StencilProblem::new(suite::star2d(1), &[8192, 8192], 100).unwrap();
        let p4 = StencilProblem::new(suite::star2d(4), &[8192, 8192], 100).unwrap();
        let r1 = loop_tiling_measurement(&p1, &device, Precision::Single).unwrap();
        let r4 = loop_tiling_measurement(&p4, &device, Precision::Single).unwrap();
        assert!(r1.gcells > r4.gcells);
    }
}
