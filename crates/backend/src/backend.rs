//! The [`ExecutionBackend`] trait and its CPU implementations.

use an5d_gpusim::{execute_plan_with, BlockedRun};
use an5d_grid::{Element, Grid};
use an5d_plan::KernelPlan;
use an5d_stencil::StencilProblem;
use std::sync::{Mutex, PoisonError};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Grid element types a backend can execute (`f32` and `f64`).
///
/// The trait routes a generic element type to the matching monomorphic
/// [`ExecutionBackend`] method, so generic code (tests, the batch driver)
/// can run any backend through a `dyn` reference.
pub trait BackendElement: Element + Send + Sync + sealed::Sealed {
    /// Execute `plan` on `backend` starting from `initial`.
    fn execute_on(
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<Self>,
    ) -> BlockedRun<Self>;
}

impl BackendElement for f32 {
    fn execute_on(
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32> {
        backend.execute_f32(plan, problem, initial)
    }
}

impl BackendElement for f64 {
    fn execute_on(
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64> {
        backend.execute_f64(plan, problem, initial)
    }
}

/// A schedule for executing blocked kernel plans.
///
/// A backend takes a [`KernelPlan`] plus a [`StencilProblem`] and produces
/// the final grid and the [`an5d_gpusim::TrafficCounters`] of the run.
/// Every implementation must be *semantically transparent*: for the same
/// inputs it must return a grid bit-identical to the naive reference sweep
/// ([`an5d_stencil::exec::run_reference`]) and the counter totals of
/// [`an5d_gpusim::execute_plan_on`] — backends may only change *how fast*
/// the answer arrives, never the answer.
pub trait ExecutionBackend: Send + Sync {
    /// Registry name of this backend (e.g. `"serial"`, `"vector"`).
    fn name(&self) -> &'static str;

    /// Human-readable description of the schedule (worker count etc.).
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// Execute a plan over single-precision cells.
    fn execute_f32(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32>;

    /// Execute a plan over double-precision cells.
    fn execute_f64(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64>;
}

/// Run the blocked executor with at most `threads` threads — the driving
/// thread plus scoped helpers — executing tiles at once.
///
/// Within each temporal block the spatial tiles are independent, so each
/// block is one fork-join on the process-wide pool
/// ([`an5d_runtime::global`]): tiles are claimed one at a time (dynamic
/// scheduling, so an expensive tile never serialises a static chunk
/// behind it) by the driver and by up to `threads − 1` helpers, fewer when
/// the process-wide helper budget (one per CPU) is lent out elsewhere. An
/// item is a tile index plus the rows of the other ping-pong grid that
/// [`an5d_gpusim::execute_plan_with`] carved out for that tile — its
/// write-back region plus the boundary-ring cells next to it, so a launch
/// writes the whole grid: whichever thread claims it runs the tile and
/// stores the finished rows straight into the grid. The other grid is the
/// one kept in `partner` when its shape matches; the run leaves there the
/// grid it does not return, and does not hold the lock while it runs.
/// There are no detached tile runs and no result slots, nothing is
/// applied, copied or zero-filled on the driving thread, and the counters
/// — a pure function of tile geometry — are summed by the driver in tile
/// order, so grids and counter totals do not depend on `threads`; a cap of
/// 1 runs every tile inline on the caller.
///
/// The items are handed out [`spread`] over `threads` blocks of the tile
/// order, so tiles running at the same time lie far apart in the grid.
fn execute_blocked<T: Element>(
    threads: usize,
    partner: &Mutex<Option<Grid<T>>>,
    plan: &KernelPlan,
    problem: &StencilProblem,
    initial: Grid<T>,
) -> BlockedRun<T> {
    let _span = an5d_obs::Span::enter("backend.execute");
    let pool = an5d_runtime::global();
    let mut kept = partner
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    let run = execute_plan_with(plan, problem, initial, &mut kept, |tiles, run_tile| {
        let tiles = spread(tiles, threads);
        pool.for_each_limited(threads, tiles, |(k, mut rows)| run_tile(k, &mut rows));
    });
    *partner.lock().unwrap_or_else(PoisonError::into_inner) = kept;
    run
}

/// Reorder `items` round-robin over `ways` contiguous blocks: the first of
/// every block, then the second of every block, and so on.
///
/// Items are claimed in order, so with `ways` threads each thread walks,
/// in effect, its own block. Claimed in tile order instead, the tiles
/// running at one time are neighbours along the innermost dimension, whose
/// write-back row segments meet inside a cache line: both threads then
/// store to the same lines at the same time, and on a 3D grid (96-byte
/// segments) the store phase took twice the thread time it takes alone.
fn spread<I>(items: Vec<I>, ways: usize) -> Vec<I> {
    let ways = ways.clamp(1, items.len().max(1));
    let per_block = items.len().div_ceil(ways);
    let mut slots: Vec<Option<I>> = items.into_iter().map(Some).collect();
    let order = (0..per_block).flat_map(|i| (0..ways).map(move |block| block * per_block + i));
    order.filter_map(|k| slots.get_mut(k)?.take()).collect()
}

/// The blocked executor on the calling thread alone: [`VectorCpuBackend`]
/// with a concurrency cap of one that keeps no partner grid between runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialBackend;

impl ExecutionBackend for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute_f32(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32> {
        execute_blocked(1, &Mutex::new(None), plan, problem, initial)
    }

    fn execute_f64(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64> {
        execute_blocked(1, &Mutex::new(None), plan, problem, initial)
    }
}

/// The blocked executor with its tiles fanned out over scoped helper
/// threads.
///
/// Each tile runs the row kernels of
/// [`an5d_gpusim::TileContext::execute_tile_into`]: the stencil expression
/// compiled into a tape of one instruction per operation (a whole sum of
/// products, or a sum of squared neighbour pairs, being one instruction
/// that keeps its value in a register, and the lane-local operations after
/// a pair sum — a root, `c/x`, a fold into the row below — running in its
/// pass, 32 lanes at a time, so the divider overlaps the arithmetic),
/// constants and neighbour rows (slices of the tile at flat
/// offsets, read in place) being operands of the instruction that consumes
/// them, evaluated a run of rows at a time over contiguous stride-1 slices
/// straight into the output, with all halo/bounds logic hoisted out of the
/// inner loops — the shape the compiler autovectorizes, monomorphic per
/// precision and compiled for the baseline target, with AVX2 and with
/// AVX-512F (which divides a fresh chain by its constant through
/// a reciprocal and one FMA correction, bit-identical to `/`), the widest
/// instance the
/// CPU has picked at run time ([`an5d_gpusim::row_kernel_isa`], which
/// `describe` names). A finished tile stores its write-back rows straight
/// into the rows of the other ping-pong grid carved out for it, ring cells
/// included, on the thread that ran it: there are no detached tile runs,
/// and nothing is applied or copied on the driving thread.
///
/// Like the generated host code, which allocates its two device buffers
/// once, the backend keeps the ping-pong partner grid between runs, one
/// per precision: a run writes into the grid an earlier run of its shape
/// left (a fresh one otherwise) and leaves its own other grid in its
/// place. Runs may overlap; each then writes into a grid of its own.
///
/// Determinism: every cell value is produced by exactly one tile through
/// the scalar operations of the naive reference sweep, operand for operand
/// (lanes never interact), every cell is owned by exactly one tile's
/// carved rows, and counters are a pure function of tile geometry
/// summed in canonical tile order — grids *and* counter totals are the
/// same for any thread count. Temporal blocks stay sequential (block
/// *k + 1* consumes the grid block *k* produced).
pub struct VectorCpuBackend {
    threads: usize,
    partner_f32: Mutex<Option<Grid<f32>>>,
    partner_f64: Mutex<Option<Grid<f64>>>,
}

impl VectorCpuBackend {
    /// A backend with an explicit tile-execution concurrency cap
    /// (clamped to ≥ 1).
    ///
    /// The clamp is a convenience for programmatic construction only; the
    /// string registry rejects `"vector:0"` as an invalid spec (see
    /// [`crate::create_backend`]) instead of masking the zero.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            partner_f32: Mutex::new(None),
            partner_f64: Mutex::new(None),
        }
    }

    /// A backend with one executor per available CPU.
    #[must_use]
    pub(crate) fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(threads)
    }

    /// The tile-execution concurrency cap.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for VectorCpuBackend {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

impl ExecutionBackend for VectorCpuBackend {
    fn name(&self) -> &'static str {
        "vector"
    }

    fn describe(&self) -> String {
        format!(
            "vector ({} pool executors, {} row kernels)",
            self.threads,
            an5d_gpusim::row_kernel_isa()
        )
    }

    fn execute_f32(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f32>,
    ) -> BlockedRun<f32> {
        execute_blocked(self.threads, &self.partner_f32, plan, problem, initial)
    }

    fn execute_f64(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        initial: Grid<f64>,
    ) -> BlockedRun<f64> {
        execute_blocked(self.threads, &self.partner_f64, plan, problem, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::{GridInit, Precision};
    use an5d_model::analytic_counters;
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::exec::run_reference;
    use an5d_stencil::{suite, StencilDef};

    fn setup(
        def: StencilDef,
        interior: &[usize],
        steps: usize,
        config: &BlockConfig,
    ) -> (KernelPlan, StencilProblem) {
        let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
        let plan = KernelPlan::build(&def, &problem, config, FrameworkScheme::an5d()).unwrap();
        (plan, problem)
    }

    /// The run of `backend` from a hashed initial grid must equal the
    /// naive reference sweep bit for bit and count what the analytic walk
    /// counts.
    fn assert_matches_oracles<T: BackendElement>(
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
    ) {
        run_checked::<T>(backend, plan, problem, 77);
    }

    /// [`assert_matches_oracles`] from the grid `seed` hashes to; returns
    /// where that input grid lived and the grid the run returned.
    fn run_checked<T: BackendElement>(
        backend: &dyn ExecutionBackend,
        plan: &KernelPlan,
        problem: &StencilProblem,
        seed: u64,
    ) -> (*const T, Grid<T>) {
        let init = GridInit::Hash { seed };
        let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
        let input = initial.as_slice().as_ptr();
        let run = T::execute_on(backend, plan, problem, initial);
        let what = backend.describe();
        assert_eq!(run.grid, run_reference::<T>(problem, init), "{what}: grid");
        assert_eq!(
            run.counters,
            analytic_counters(plan, problem),
            "{what}: counters"
        );
        (input, run.grid)
    }

    #[test]
    fn spread_is_a_permutation_that_keeps_neighbours_apart() {
        let items = |n: usize| (0..n).collect::<Vec<_>>();
        assert_eq!(spread(items(7), 2), [0, 4, 1, 5, 2, 6, 3]);
        assert_eq!(spread(items(7), 3), [0, 3, 6, 1, 4, 2, 5]);
        assert_eq!(spread(items(6), 1), items(6));
        // More ways than items, or none at all: the order as it was.
        assert_eq!(spread(items(3), 64), items(3));
        assert_eq!(spread(items(3), usize::MAX), items(3));
        assert_eq!(spread(items(0), 4), items(0));
        for (n, ways) in [(72, 2), (20, 3), (5, 2), (25, 8)] {
            let mut spread = spread(items(n), ways);
            spread.sort_unstable();
            assert_eq!(spread, items(n), "{n} items {ways} ways");
        }
    }

    #[test]
    fn dependency_cone_sweep_matches_the_oracles_in_every_corner() {
        // A step of a temporal block updates only the cells that can still
        // reach the tile's write-back region. Star and box masks of radius
        // 1–4 in two and three dimensions, over the corners the other
        // generators do not reach together: extents no block size divides
        // (remainder tiles whose cone is clipped by the grid), a remainder
        // temporal block (`chunk < bT`), `bT > steps`, and a stream block
        // `hS_N` shorter than the halo it carries — inline through
        // `execute_plan_on` and over the pool, in both precisions.
        fn check<T: BackendElement>(plan: &KernelPlan, problem: &StencilProblem) {
            let init = GridInit::Hash { seed: 18 };
            let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
            let inline = an5d_gpusim::execute_plan_on(plan, problem, initial);
            let what = format!("{} with {}", plan.def().name(), plan.config());
            assert_eq!(inline.grid, run_reference::<T>(problem, init), "{what}");
            assert_eq!(inline.counters, analytic_counters(plan, problem), "{what}");
            assert_matches_oracles::<T>(&VectorCpuBackend::new(3), plan, problem);
        }
        for rad in 1..=4 {
            for (def, interior) in [
                (suite::star2d(rad), vec![3 * rad + 10, 2 * rad + 9]),
                (suite::box2d(rad), vec![2 * rad + 11, 3 * rad + 8]),
                (suite::star3d(rad), vec![rad + 6, rad + 4, rad + 5]),
                (suite::box3d(rad), vec![5, rad + 3, 6]),
            ] {
                // (bT, steps): blocks of 2 + 1, and one block of 2 < bT.
                for (bt, steps) in [(2, 3), (3, 2)] {
                    let halo = bt * rad;
                    let bs: Vec<usize> = (1..def.ndim()).map(|d| 2 * halo + 2 + d).collect();
                    for hsn in [None, Some(halo - 1)] {
                        let config = BlockConfig::new(bt, &bs, hsn, Precision::Double).unwrap();
                        let (plan, problem) = setup(def.clone(), &interior, steps, &config);
                        check::<f64>(&plan, &problem);
                        check::<f32>(&plan, &problem);
                    }
                }
            }
        }
    }

    #[test]
    fn vector_matches_serial_bitwise_across_thread_counts() {
        let config = BlockConfig::new(3, &[12], Some(12), Precision::Double).unwrap();
        let (plan, problem) = setup(suite::j2d5pt(), &[32, 28], 7, &config);
        assert_matches_oracles::<f64>(&SerialBackend, &plan, &problem);
        for threads in [1, 2, 3, 8] {
            assert_matches_oracles::<f64>(&VectorCpuBackend::new(threads), &plan, &problem);
        }
    }

    #[test]
    fn parallel_handles_more_workers_than_tiles() {
        let config = BlockConfig::new(3, &[16], None, Precision::Double).unwrap();
        let (plan, problem) = setup(suite::j2d5pt(), &[16, 16], 3, &config);
        assert_matches_oracles::<f64>(&VectorCpuBackend::new(64), &plan, &problem);
    }

    #[test]
    fn generic_dispatch_reaches_the_right_method() {
        let config = BlockConfig::new(2, &[10], None, Precision::Double).unwrap();
        let (plan, problem) = setup(suite::j2d5pt(), &[20, 20], 4, &config);
        let initial = Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 77 });
        let backend: &dyn ExecutionBackend = &VectorCpuBackend::new(2);
        let via_trait = f64::execute_on(backend, &plan, &problem, initial.clone());
        let direct = VectorCpuBackend::new(2).execute_f64(&plan, &problem, initial);
        assert_eq!(via_trait.grid, direct.grid);
    }

    #[test]
    fn each_backend_keeps_its_own_partner() {
        // A runs three launches, so the partner it keeps is its input; B
        // runs a grid of another shape; A's next run of one launch writes
        // into A's kept grid and returns it. Every grid is held until the
        // end, so no address is reused by a later allocation.
        let config = BlockConfig::new(3, &[12], None, Precision::Double).unwrap();
        let (odd_plan, odd) = setup(suite::j2d5pt(), &[24, 30], 7, &config);
        let (one_plan, one) = setup(suite::j2d5pt(), &[24, 30], 2, &config);
        let (other_plan, other) = setup(suite::j2d5pt(), &[40, 18], 7, &config);
        let (a, b) = (VectorCpuBackend::new(2), VectorCpuBackend::new(2));
        let (a_input, a_first) = run_checked::<f64>(&a, &odd_plan, &odd, 1);
        let _b_first = run_checked::<f64>(&b, &other_plan, &other, 2);
        let (_, a_again) = run_checked::<f64>(&a, &one_plan, &one, 3);
        assert_ne!(a_first.as_slice().as_ptr(), a_input);
        assert_eq!(a_again.as_slice().as_ptr(), a_input, "A's kept grid");
    }

    #[test]
    fn runs_at_once_on_two_backends_or_one_are_exact() {
        fn four_runs(backend: &VectorCpuBackend, plan: &KernelPlan, problem: &StencilProblem) {
            for seed in 0..4 {
                run_checked::<f64>(backend, plan, problem, seed);
            }
        }
        let config = BlockConfig::new(2, &[10], None, Precision::Double).unwrap();
        let (small_plan, small) = setup(suite::j2d5pt(), &[20, 26], 5, &config);
        let (large_plan, large) = setup(suite::j2d5pt(), &[34, 30], 5, &config);
        let single = BlockConfig::new(2, &[10], None, Precision::Single).unwrap();
        let (single_plan, single) = setup(suite::gradient2d(), &[26, 22], 5, &single);
        let (a, b) = (VectorCpuBackend::new(2), VectorCpuBackend::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| four_runs(&a, &small_plan, &small));
            scope.spawn(|| four_runs(&b, &large_plan, &large));
        });
        // Two threads on one backend: runs of both shapes and both
        // precisions take and leave its partners as they overlap.
        std::thread::scope(|scope| {
            scope.spawn(|| four_runs(&a, &small_plan, &small));
            scope.spawn(|| {
                four_runs(&a, &large_plan, &large);
                for seed in 0..4 {
                    run_checked::<f32>(&a, &single_plan, &single, seed);
                }
            });
        });
    }

    #[test]
    fn thread_count_is_clamped_to_at_least_one() {
        assert_eq!(VectorCpuBackend::new(0).threads(), 1);
    }

    #[test]
    fn describe_mentions_the_worker_count() {
        let vector = VectorCpuBackend::new(4).describe();
        assert!(vector.contains('4'));
        assert!(vector.contains(&format!("{} row kernels", an5d_gpusim::row_kernel_isa())));
        assert_eq!(SerialBackend.describe(), "serial");
    }

    #[test]
    fn vector_matches_serial_bitwise_in_single_precision() {
        let config = BlockConfig::new(2, &[10], None, Precision::Single).unwrap();
        let (plan, problem) = setup(suite::gradient2d(), &[26, 22], 5, &config);
        assert_matches_oracles::<f32>(&SerialBackend, &plan, &problem);
        assert_matches_oracles::<f32>(&VectorCpuBackend::new(3), &plan, &problem);
    }
}
