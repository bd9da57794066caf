//! Analytic thread classification and traffic counting (Section 5, step 1).
//!
//! The functional executor in `an5d-gpusim` counts the work of a run
//! while doing it, tile by tile (each tile adds its updatable box times
//! its steps); that is exact but infeasible at the paper's 16,384² ×
//! 1,000-step scale. This module computes the *same* counts purely from
//! the blocking geometry, without touching grid data, so the two agree
//! exactly on small problems (covered by tests).
//!
//! A block's tiling is a cartesian product of per-dimension tilings and
//! every counted quantity is a product of per-dimension factors, so the
//! sum over all tiles is the product of per-dimension sums: the cost is
//! O(Σ_d tiles_d) additions with no allocation — one pass over each
//! dimension's tiles, never a visit to a tile — exact in `u128`.

use an5d_gpusim::TrafficCounters;
use an5d_plan::{practical_shared_reads, KernelPlan};
use an5d_stencil::StencilProblem;

/// Thread classification of Section 5 (per temporal block, in units of
/// "thread × streamed plane" work items).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ThreadClasses {
    /// Threads outside the input grid: no global access, no computation.
    pub out_of_bound: u128,
    /// Threads that only load boundary-condition cells: global reads but no
    /// computation or global writes.
    pub boundary: u128,
    /// Threads inside halo regions: compute but never write to global
    /// memory.
    pub redundant: u128,
    /// Threads in the compute region: compute and write back.
    pub valid: u128,
}

impl ThreadClasses {
    /// Total classified work items.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.out_of_bound + self.boundary + self.redundant + self.valid
    }

    /// Work items that perform computation.
    #[must_use]
    pub fn computing(&self) -> u128 {
        self.redundant + self.valid
    }

    /// Work items that perform global-memory reads.
    #[must_use]
    pub fn reading(&self) -> u128 {
        self.boundary + self.redundant + self.valid
    }
}

/// Geometric per-temporal-block sums.
#[derive(Debug, PartialEq, Eq)]
struct BlockSums {
    gm_reads: u128,
    gm_writes: u128,
    per_step_updates: u128,
    thread_blocks: u128,
    syncs: u128,
    thread_instances: u128,
}

/// Sums over the tiles of one dimension (the Σ f_d of
/// Σ_tiles Π_d f_d(tile_d) = Π_d Σ f_d).
#[derive(Debug, Default)]
struct DimSums {
    /// Σ local extents (tile + halo + boundary ring, clipped to the grid).
    local: u128,
    /// Σ tile lengths (the cells a tile writes back).
    written: u128,
    /// Σ updatable extents (local cells with all neighbours in the box).
    updates: u128,
    /// Number of tiles.
    tiles: u128,
}

/// Tile `extent` interior cells of a grid dimension of `shape` cells into
/// `tile_len`-long tiles with `halo` extra cells per side.
fn dim_sums(extent: usize, shape: usize, tile_len: usize, halo: usize, rad: usize) -> DimSums {
    let mut sums = DimSums::default();
    let mut origin = 0usize;
    while origin < extent {
        let len = tile_len.min(extent - origin);
        let lo = origin.saturating_sub(halo);
        let hi = (origin + len + halo + 2 * rad).min(shape);
        // Updatable cells: global interior ∩ cells with all neighbours
        // inside the local box.
        let upd_lo = (lo + rad).max(rad);
        let upd_hi = (hi - rad).min(shape - rad);
        sums.local += (hi - lo) as u128;
        sums.written += len as u128;
        sums.updates += upd_hi.saturating_sub(upd_lo) as u128;
        sums.tiles += 1;
        origin += tile_len;
    }
    sums
}

fn per_block_sums(plan: &KernelPlan, problem: &StencilProblem) -> BlockSums {
    let rad = plan.def().radius();
    let halo = plan.geometry().halo_per_side;
    let shape = problem.grid_shape();
    let interior = problem.interior();

    // Without stream division the streaming dimension is one halo-free tile.
    let (stream_len, stream_halo) = match plan.config().hsn() {
        Some(h) => (h, halo),
        None => (interior[0], 0),
    };
    let mut product = dim_sums(interior[0], shape[0], stream_len, stream_halo, rad);
    // Streamed planes of all thread blocks: Σ local planes of the streaming
    // dimension × the number of blocked tiles each stream chunk is cut into.
    let mut planes = product.local;
    for (d, &cr) in plan.geometry().compute_region.iter().enumerate() {
        let dim = dim_sums(interior[d + 1], shape[d + 1], cr, halo, rad);
        product.local *= dim.local;
        product.written *= dim.written;
        product.updates *= dim.updates;
        product.tiles *= dim.tiles;
        planes *= dim.tiles;
    }
    BlockSums {
        gm_reads: product.local,
        gm_writes: product.written,
        per_step_updates: product.updates,
        thread_blocks: product.tiles,
        syncs: plan.schedule().syncs_per_plane() as u128 * planes,
        thread_instances: plan.geometry().nthr as u128 * planes,
    }
}

/// Analytically reproduce the counters of a full blocked run (identical to
/// what [`an5d_gpusim::execute_plan`] would count, but without touching any
/// grid data).
#[must_use]
pub fn analytic_counters(plan: &KernelPlan, problem: &StencilProblem) -> TrafficCounters {
    let sums = per_block_sums(plan, problem);
    let def = plan.def();
    let bt = plan.config().bt();
    let it = problem.time_steps();
    let temporal_blocks = it.div_ceil(bt) as u128;
    let total_steps = it as u128;

    let flops_per_update = def.flops_per_cell() as u128;
    let sm_reads_per_update = practical_shared_reads(def) as u128;
    let sm_writes_per_update = plan.resources().shared_stores_per_cell as u128;

    TrafficCounters {
        gm_reads: sums.gm_reads * temporal_blocks,
        gm_writes: sums.gm_writes * temporal_blocks,
        sm_reads: sums.per_step_updates * total_steps * sm_reads_per_update,
        sm_writes: sums.per_step_updates * total_steps * sm_writes_per_update,
        flops: sums.per_step_updates * total_steps * flops_per_update,
        cell_updates: sums.per_step_updates * total_steps,
        valid_updates: sums.gm_writes * total_steps,
        syncs: sums.syncs * temporal_blocks,
        thread_blocks: sums.thread_blocks * temporal_blocks,
        kernel_launches: temporal_blocks,
    }
}

/// Classify the work items of one temporal block (Section 5).
#[must_use]
pub fn thread_classes(plan: &KernelPlan, problem: &StencilProblem) -> ThreadClasses {
    let sums = per_block_sums(plan, problem);
    let valid = sums.gm_writes;
    let redundant = sums.per_step_updates.saturating_sub(valid);
    let boundary = sums.gm_reads.saturating_sub(sums.per_step_updates);
    let out_of_bound = sums.thread_instances.saturating_sub(sums.gm_reads);
    ThreadClasses {
        out_of_bound,
        boundary,
        redundant,
        valid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_gpusim::execute_plan;
    use an5d_grid::{GridInit, Precision};
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::{suite, StencilDef};
    use proptest::prelude::*;

    /// Per-dimension tile description used by the enumerating oracle.
    #[derive(Debug, Clone, Copy)]
    struct DimTile {
        origin: usize,
        len: usize,
        halo: usize,
    }

    fn tiles_for_dim(extent: usize, tile_len: usize, halo: usize) -> Vec<DimTile> {
        let mut out = Vec::new();
        let mut origin = 0usize;
        while origin < extent {
            let len = tile_len.min(extent - origin);
            out.push(DimTile { origin, len, halo });
            origin += tile_len;
        }
        out
    }

    /// The oracle for [`per_block_sums`]: an odometer over every tile of the
    /// block, summing each tile's own contribution (what the functional
    /// executor counts, minus the grid data). O(tiles).
    fn per_block_sums_by_enumeration(plan: &KernelPlan, problem: &StencilProblem) -> BlockSums {
        let def = plan.def();
        let rad = def.radius();
        let halo = plan.geometry().halo_per_side;
        let shape = problem.grid_shape();
        let ndim = shape.len();
        let interior = problem.interior();
        let nthr = plan.geometry().nthr as u128;
        let syncs_per_plane = plan.schedule().syncs_per_plane() as u128;

        let mut dim_tiles: Vec<Vec<DimTile>> = Vec::with_capacity(ndim);
        match plan.config().hsn() {
            Some(h) => dim_tiles.push(tiles_for_dim(interior[0], h, halo)),
            None => dim_tiles.push(vec![DimTile {
                origin: 0,
                len: interior[0],
                halo: 0,
            }]),
        }
        for (d, &cr) in plan.geometry().compute_region.iter().enumerate() {
            dim_tiles.push(tiles_for_dim(interior[d + 1], cr, halo));
        }

        let mut sums = BlockSums {
            gm_reads: 0,
            gm_writes: 0,
            per_step_updates: 0,
            thread_blocks: 0,
            syncs: 0,
            thread_instances: 0,
        };

        let mut tile_idx = vec![0usize; ndim];
        'tiles: loop {
            let tile: Vec<DimTile> = tile_idx
                .iter()
                .enumerate()
                .map(|(d, &i)| dim_tiles[d][i])
                .collect();

            let mut local_volume: u128 = 1;
            let mut written: u128 = 1;
            let mut updates: u128 = 1;
            let mut local_planes: u128 = 0;
            for (d, t) in tile.iter().enumerate() {
                let lo = t.origin.saturating_sub(t.halo);
                let hi = (t.origin + t.len + t.halo + 2 * rad).min(shape[d]);
                let local = (hi - lo) as u128;
                local_volume *= local;
                written *= t.len as u128;
                let upd_lo = (lo + rad).max(rad);
                let upd_hi = (hi - rad).min(shape[d] - rad);
                updates *= upd_hi.saturating_sub(upd_lo) as u128;
                if d == 0 {
                    local_planes = local;
                }
            }

            sums.gm_reads += local_volume;
            sums.gm_writes += written;
            sums.per_step_updates += updates;
            sums.thread_blocks += 1;
            sums.syncs += syncs_per_plane * local_planes;
            sums.thread_instances += nthr * local_planes;

            let mut d = ndim;
            loop {
                if d == 0 {
                    break 'tiles;
                }
                d -= 1;
                tile_idx[d] += 1;
                if tile_idx[d] < dim_tiles[d].len() {
                    break;
                }
                tile_idx[d] = 0;
            }
        }
        sums
    }

    fn plan_and_problem(
        def: StencilDef,
        interior: &[usize],
        steps: usize,
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
    ) -> (KernelPlan, StencilProblem) {
        let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
        let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        (plan, problem)
    }

    fn assert_analytic_matches_functional(
        def: StencilDef,
        interior: &[usize],
        steps: usize,
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
    ) {
        let (plan, problem) = plan_and_problem(def, interior, steps, bt, bs, hsn);
        let functional = execute_plan::<f64>(&plan, &problem, GridInit::Hash { seed: 1 }).counters;
        let analytic = analytic_counters(&plan, &problem);
        assert_eq!(analytic, functional, "{}", plan.def().name());
    }

    #[test]
    fn analytic_matches_functional_2d_star() {
        assert_analytic_matches_functional(suite::j2d5pt(), &[24, 30], 7, 3, &[16], None);
    }

    #[test]
    fn analytic_matches_functional_2d_second_order_box() {
        assert_analytic_matches_functional(suite::box2d(2), &[20, 22], 5, 2, &[18], None);
    }

    #[test]
    fn analytic_matches_functional_with_stream_division() {
        assert_analytic_matches_functional(suite::j2d5pt(), &[32, 20], 6, 2, &[16], Some(8));
    }

    #[test]
    fn analytic_matches_functional_3d() {
        assert_analytic_matches_functional(suite::star3d(1), &[10, 12, 14], 5, 2, &[10, 12], None);
        assert_analytic_matches_functional(suite::j3d27pt(), &[12, 10, 10], 4, 1, &[8, 8], Some(6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The product of per-dimension sums equals the tile-by-tile
        /// enumeration, field for field: extents that no tile length
        /// divides, stream chunks shorter than the halo or longer than the
        /// extent, halos clipped at both grid faces, single-tile dimensions.
        #[test]
        fn product_of_sums_equals_tile_enumeration(
            three_d in any::<bool>(),
            star in any::<bool>(),
            radius in 1usize..=4,
            bt in 1usize..=3,
            compute_region in prop::collection::vec(1usize..=9, 2),
            extents in prop::collection::vec(1usize..=26, 3),
            hsn in prop_oneof![Just(None), (1usize..=40).prop_map(Some)],
        ) {
            let ndim = if three_d { 3 } else { 2 };
            let def = match (three_d, star) {
                (false, true) => suite::star2d(radius),
                (false, false) => suite::box2d(radius),
                (true, true) => suite::star3d(radius),
                // box3d3r/4r only add terms, not geometry.
                (true, false) => suite::box3d(radius.min(2)),
            };
            let bs: Vec<usize> = compute_region[..ndim - 1]
                .iter()
                .map(|cr| cr + 2 * bt * def.radius())
                .collect();
            let (plan, problem) = plan_and_problem(def, &extents[..ndim], 5, bt, &bs, hsn);
            prop_assert_eq!(
                per_block_sums(&plan, &problem),
                per_block_sums_by_enumeration(&plan, &problem)
            );
        }
    }

    #[test]
    fn paper_scale_counters_are_cheap_to_compute() {
        let def = suite::star2d(1);
        let problem = StencilProblem::paper_scale(def.clone());
        let config = BlockConfig::new(10, &[256], Some(256), Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let counters = analytic_counters(&plan, &problem);
        // 16,384² interior cells × 1,000 steps of valid updates.
        assert_eq!(counters.valid_updates, 16_384 * 16_384 * 1000);
        assert!(counters.cell_updates > counters.valid_updates);
        assert_eq!(counters.kernel_launches, 100);
        assert!(counters.gm_reads > 0 && counters.sm_reads > 0);

        // Cheap means never visiting a tile: this interior is cut into
        // 532,611 × 524,288 ≈ 2.8 · 10¹¹ tiles, which no walk finishes.
        let side = 1usize << 26;
        let problem = StencilProblem::new(def.clone(), &[side, side], 3).unwrap();
        let config = BlockConfig::new(1, &[128], Some(128), Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let counters = analytic_counters(&plan, &problem);
        let tiles = (side.div_ceil(126) * (side / 128)) as u128;
        assert!(tiles >= 10_000_000_000);
        assert_eq!(counters.valid_updates, (side as u128) * (side as u128) * 3);
        assert_eq!(counters.thread_blocks, tiles * 3);
        assert_eq!(counters.kernel_launches, 3);
        assert!(counters.cell_updates > counters.valid_updates);
    }

    #[test]
    fn temporal_blocking_reduces_analytic_global_traffic() {
        let def = suite::star2d(1);
        let problem = StencilProblem::new(def.clone(), &[4096, 4096], 96).unwrap();
        let mut previous = u128::MAX;
        for bt in [1usize, 2, 4, 8] {
            let config = BlockConfig::new(bt, &[256], None, Precision::Single).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let c = analytic_counters(&plan, &problem);
            let traffic = c.gm_reads + c.gm_writes;
            assert!(traffic < previous, "bT={bt} did not reduce traffic");
            previous = traffic;
        }
    }

    #[test]
    fn thread_classes_partition_and_scale() {
        let (plan, problem) = plan_and_problem(suite::j2d5pt(), &[128, 128], 8, 4, &[64], None);
        let classes = thread_classes(&plan, &problem);
        assert!(classes.valid > 0);
        assert!(
            classes.redundant > 0,
            "overlapped tiling must recompute halos"
        );
        assert!(classes.boundary > 0);
        assert_eq!(
            classes.total(),
            classes.out_of_bound + classes.boundary + classes.redundant + classes.valid
        );
        assert_eq!(classes.computing(), classes.redundant + classes.valid);
        assert!(classes.reading() >= classes.computing());
        // Valid work items per temporal block cover the whole interior.
        assert_eq!(classes.valid, 128 * 128);
    }

    #[test]
    fn larger_halo_increases_redundant_fraction() {
        let small = {
            let (plan, problem) = plan_and_problem(suite::j2d5pt(), &[256, 256], 8, 2, &[64], None);
            thread_classes(&plan, &problem)
        };
        let large = {
            let (plan, problem) = plan_and_problem(suite::j2d5pt(), &[256, 256], 8, 8, &[64], None);
            thread_classes(&plan, &problem)
        };
        let ratio_small = small.redundant as f64 / small.valid as f64;
        let ratio_large = large.redundant as f64 / large.valid as f64;
        assert!(ratio_large > ratio_small);
    }
}
