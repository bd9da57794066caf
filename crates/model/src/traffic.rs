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
//! sum over all tiles is the product of per-dimension sums. Each of those
//! is closed-form ([`an5d_plan::DimTiling::local_and_updatable_sums`],
//! [`an5d_plan::DimTiling::written_sum`]:
//! clipped first tiles, an arithmetic series over the middle, clipped last
//! tiles), so the cost is O(ndim) with no allocation and no visit to a
//! tile, however many there are — exact in `u128`.
//!
//! Which tiles those are is not decided here. The plan's
//! [`an5d_plan::BlockGeometry::tilings`] define, per dimension, the very
//! [`an5d_plan::DimTile`]s the executor builds its thread blocks from, and
//! sum their `local()`, `written()` and `updatable()` extents; this module
//! multiplies the sums and never looks at the problem's grid shape. The
//! walk over `tiles()` survives only as the tests' oracle (the tiling
//! proptest in `an5d-plan`, the `TileContext` enumeration below).
//!
//! The sums of the streaming dimension depend on `(bT, hS_N)` alone and
//! those of the blocked dimensions on `(bT, bS)` alone, so [`PlanSums`]
//! keeps them apart ([`TileSums`] each) until the counters multiply them:
//! a tuner sweep takes each once per pair of axis values it depends on.

use an5d_gpusim::TrafficCounters;
use an5d_plan::{
    practical_shared_reads, BlockConfig, DimTiling, KernelPlan, KernelSchedule, ResourceUsage,
};
use an5d_stencil::{StencilDef, StencilProblem};

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

/// Sums over the tiles of one dimension, or over the cartesian product of
/// several dimensions' tiles, which is the product of their sums (the
/// Σ f_d of Σ_tiles Π_d f_d(tile_d) = Π_d Σ f_d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSums {
    /// Σ local extents (tile + halo + boundary ring, clipped to the grid).
    local: u128,
    /// Σ tile lengths (the cells a tile writes back).
    written: u128,
    /// Σ updatable extents (local cells with all neighbours in the box).
    updates: u128,
    /// Number of tiles.
    tiles: u128,
}

impl TileSums {
    /// The sums of no dimension: one tile, of one cell.
    const ONE: Self = Self {
        local: 1,
        written: 1,
        updates: 1,
        tiles: 1,
    };

    /// The sums over one dimension's tiles, in closed form.
    #[must_use]
    pub fn over(tiling: &DimTiling) -> Self {
        let (local, updates) = tiling.local_and_updatable_sums();
        Self {
            local,
            written: tiling.written_sum(),
            updates,
            tiles: tiling.tiles().len() as u128,
        }
    }

    /// The sums over the tiles of the product of `tilings`.
    #[must_use]
    pub fn product(tilings: &[DimTiling]) -> Self {
        tilings
            .iter()
            .map(Self::over)
            .fold(Self::ONE, |acc, dim| Self {
                local: acc.local * dim.local,
                written: acc.written * dim.written,
                updates: acc.updates * dim.updates,
                tiles: acc.tiles * dim.tiles,
            })
    }
}

/// What the Section 5 model charges a stencil under a scheme: the FLOPs,
/// practical shared-memory reads and shared-memory stores of one cell
/// update, the ALU-mix efficiency `effALU`, and the radius that, with
/// `bT`, fixes the schedule. The same for every configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilCost {
    flops: u128,
    sm_reads: u128,
    sm_writes: u128,
    eff_alu: f64,
    radius: usize,
}

impl StencilCost {
    /// The costs of `def` under the scheme whose resource usage (of any
    /// configuration) is `resources`.
    #[must_use]
    pub fn new(def: &StencilDef, resources: &ResourceUsage) -> Self {
        Self {
            flops: def.flops_per_cell() as u128,
            sm_reads: practical_shared_reads(def) as u128,
            sm_writes: resources.shared_stores_per_cell as u128,
            eff_alu: def.op_mix().alu_efficiency(),
            radius: def.radius(),
        }
    }
}

/// Everything the Section 5 model reads of a plan: the tile sums of its
/// streaming dimension and of its blocked dimensions, its stencil's
/// costs, and `bT`, `nthr` and the precision of its configuration.
///
/// [`PlanSums::of`] takes them from a built plan. A tuner sweep puts them
/// together itself ([`PlanSums::new`]), from sums it took once per
/// `(bT, hS_N)` and once per `(bT, bS)`, so pricing a candidate multiplies
/// and divides a few numbers and builds nothing. Either way one formula
/// prices them ([`crate::price`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSums {
    stream: TileSums,
    blocked: TileSums,
    cost: StencilCost,
    config: BlockConfig,
}

/// Per-temporal-block sums.
#[derive(Debug)]
struct BlockSums {
    gm_reads: u128,
    gm_writes: u128,
    per_step_updates: u128,
    /// Streamed planes of all thread blocks: Σ local planes of the
    /// streaming dimension × the blocked tiles each stream chunk is cut
    /// into.
    planes: u128,
}

impl PlanSums {
    /// The sums of `config` on a problem: `stream` over the tiles of its
    /// [`BlockConfig::streaming_tiling`], `blocked` over the product of its
    /// [`an5d_plan::BlockedGeometry::tilings`], and its stencil's `cost`.
    #[must_use]
    pub fn new(
        config: &BlockConfig,
        cost: StencilCost,
        stream: TileSums,
        blocked: TileSums,
    ) -> Self {
        Self {
            stream,
            blocked,
            cost,
            config: *config,
        }
    }

    /// The sums of a built plan.
    #[must_use]
    pub fn of(plan: &KernelPlan) -> Self {
        let (stream, blocked) = plan
            .geometry()
            .tilings()
            .split_first()
            .expect("a stencil has a streaming dimension");
        Self::new(
            plan.config(),
            StencilCost::new(plan.def(), plan.resources()),
            TileSums::over(stream),
            TileSums::product(blocked),
        )
    }

    /// The configuration these sums are of.
    pub(crate) fn config(&self) -> &BlockConfig {
        &self.config
    }

    /// `effALU`: the share of the peak the stencil's instruction mix
    /// reaches.
    pub(crate) fn eff_alu(&self) -> f64 {
        self.cost.eff_alu
    }

    /// Thread blocks per launch, `n'tb`.
    pub(crate) fn thread_blocks(&self) -> u128 {
        self.stream.tiles * self.blocked.tiles
    }

    fn per_block(&self) -> BlockSums {
        let (stream, blocked) = (self.stream, self.blocked);
        BlockSums {
            gm_reads: stream.local * blocked.local,
            gm_writes: stream.written * blocked.written,
            per_step_updates: stream.updates * blocked.updates,
            planes: stream.local * blocked.tiles,
        }
    }

    /// The counters of a full run of `time_steps` steps: what
    /// [`analytic_counters`] returns for the plan these are the sums of.
    pub(crate) fn counters(&self, time_steps: usize) -> TrafficCounters {
        let sums = self.per_block();
        let cost = &self.cost;
        let syncs_per_plane = KernelSchedule::build(&self.config, cost.radius).syncs_per_plane();
        let temporal_blocks = time_steps.div_ceil(self.config.bt()) as u128;
        let total_steps = time_steps as u128;
        TrafficCounters {
            gm_reads: sums.gm_reads * temporal_blocks,
            gm_writes: sums.gm_writes * temporal_blocks,
            sm_reads: sums.per_step_updates * total_steps * cost.sm_reads,
            sm_writes: sums.per_step_updates * total_steps * cost.sm_writes,
            flops: sums.per_step_updates * total_steps * cost.flops,
            cell_updates: sums.per_step_updates * total_steps,
            valid_updates: sums.gm_writes * total_steps,
            syncs: syncs_per_plane as u128 * sums.planes * temporal_blocks,
            thread_blocks: self.thread_blocks() * temporal_blocks,
            kernel_launches: temporal_blocks,
        }
    }
}

/// Analytically reproduce the counters of a full blocked run (identical to
/// what [`an5d_gpusim::execute_plan`] would count, but without touching any
/// grid data).
///
/// # Panics
///
/// Panics if `problem` is not the one the plan was built for
/// ([`KernelPlan::assert_tiled_for`]).
#[must_use]
pub fn analytic_counters(plan: &KernelPlan, problem: &StencilProblem) -> TrafficCounters {
    plan.assert_tiled_for(problem);
    PlanSums::of(plan).counters(problem.time_steps())
}

/// Classify the work items of one temporal block (Section 5).
///
/// # Panics
///
/// Panics if `problem` is not the one the plan was built for
/// ([`KernelPlan::assert_tiled_for`]).
#[must_use]
pub fn thread_classes(plan: &KernelPlan, problem: &StencilProblem) -> ThreadClasses {
    plan.assert_tiled_for(problem);
    let sums = PlanSums::of(plan).per_block();
    let valid = sums.gm_writes;
    let redundant = sums.per_step_updates.saturating_sub(valid);
    let boundary = sums.gm_reads.saturating_sub(sums.per_step_updates);
    let thread_instances = plan.geometry().nthr as u128 * sums.planes;
    let out_of_bound = thread_instances.saturating_sub(sums.gm_reads);
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
    use an5d_gpusim::{execute_plan, temporal_chunks, TileContext};
    use an5d_grid::{GridInit, Precision};
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::{suite, StencilDef};
    use proptest::prelude::*;

    /// The oracle for [`analytic_counters`]: what the temporal-block driver
    /// counts — every tile's own contribution, block by block — minus the
    /// grid data. O(tiles).
    fn counters_by_enumeration(plan: &KernelPlan, problem: &StencilProblem) -> TrafficCounters {
        let ctx = TileContext::new(plan, problem);
        let mut counters = TrafficCounters::new();
        for chunk in temporal_chunks(problem.time_steps(), plan.config().bt()) {
            for tile in ctx.tiles() {
                counters += ctx.tile_counters(tile, chunk);
            }
            counters.kernel_launches += 1;
        }
        counters
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
                analytic_counters(&plan, &problem),
                counters_by_enumeration(&plan, &problem)
            );
        }
    }

    #[test]
    #[should_panic(
        expected = "plan was tiled for interior [24, 30] but the problem's interior is [24, 32]"
    )]
    fn counters_of_a_plan_on_another_problems_extents_are_rejected() {
        let (plan, _) = plan_and_problem(suite::j2d5pt(), &[24, 30], 7, 3, &[16], None);
        let other = StencilProblem::new(suite::j2d5pt(), &[24, 32], 7).unwrap();
        let _ = analytic_counters(&plan, &other);
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

        // Cheap means never visiting a tile, not even along one dimension:
        // a 2⁴⁰ × 2⁴⁰ interior at bS 128 is ≈ 8.7 · 10⁹ tiles per dimension
        // (≈ 7.5 · 10¹⁹ in all), which only a closed form finishes.
        let side = 1usize << 40;
        let problem = StencilProblem::new(def.clone(), &[side, side], 3).unwrap();
        let config = BlockConfig::new(1, &[128], Some(128), Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let counters = analytic_counters(&plan, &problem);
        let tiles = side.div_ceil(128) as u128 * side.div_ceil(126) as u128;
        assert!(tiles > u128::from(u64::MAX));
        assert_eq!(counters.valid_updates, (side as u128) * (side as u128) * 3);
        assert_eq!(counters.thread_blocks, tiles * 3);
        assert_eq!(counters.kernel_launches, 3);
        assert!(counters.cell_updates > counters.valid_updates);
        // The model takes it too: blocks per launch and the run's useful
        // FLOPs are counted past 2⁶⁴.
        let prediction = crate::predict(&plan, &problem, &an5d_gpusim::GpuDevice::tesla_v100());
        assert_eq!(problem.total_cell_updates(), counters.valid_updates);
        assert_eq!(prediction.total_flops, counters.flops);
        assert!(prediction.eff_sm > 0.99, "{}", prediction.eff_sm);
        assert!(
            prediction.seconds > 0.0 && prediction.gflops > 100.0,
            "{prediction:?}"
        );
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
