//! Functional execution of an N.5D-blocked kernel plan.
//!
//! The executor processes the grid exactly the way the generated CUDA
//! kernel does at the tile level: one overlapped tile per thread block,
//! redundant recomputation inside the `bT·rad` halo, streaming-dimension
//! division with its extra overlap, write-back restricted to the compute
//! region, constant boundary cells, and the host-side splitting of the time
//! loop into temporal blocks with a shorter final block when
//! `I_T mod bT ≠ 0` (Section 4.3.1). Its numerical output is therefore
//! comparable bit-for-bit (`f32` and `f64`) with the naive reference
//! executor, and its counters measure the real redundant work and memory
//! traffic of the chosen configuration.
//!
//! # Tile-level API
//!
//! The tiles of one temporal block are independent: each reads only the
//! immutable input grid and writes a disjoint compute region of the output
//! grid. [`TileContext`] exposes that seam: [`TileContext::tiles`]
//! enumerates the tiles of one temporal block and
//! [`TileContext::execute_tile_rows`] runs a single tile into a detached
//! [`TileRun`] that is later applied to the output grid with
//! [`TileRun::apply_to`]. [`execute_plan_with`] is the one temporal-block
//! driver built from those pieces; its caller only chooses how the tiles
//! of a block are mapped ([`execute_plan_on`] maps them inline, the
//! `an5d-backend` crate over its worker pool), so every schedule produces
//! bit-identical grids and counter totals by construction.
//!
//! # Row kernels
//!
//! A tile is executed through a vectorization-friendly kernel: the stencil
//! expression is compiled once per tile into a postfix tape whose cell
//! loads are *flat* offsets in the local row-major layout, and the tape is
//! evaluated a whole row at a time over contiguous stride-1 slices. All
//! halo/bounds logic is hoisted out of the inner loop into per-dimension
//! updatable ranges, so the inner loops are plain elementwise passes the
//! compiler can autovectorize. Every cell still goes through the exact
//! scalar operation sequence of [`an5d_stencil::exec::eval_expr`] (a
//! postfix tape evaluates a tree in the same order the recursive evaluator
//! does, and lanes never interact), which is what keeps the result
//! bit-identical to the naive per-cell reference sweep for both `f32` and
//! `f64`.

use crate::TrafficCounters;
use an5d_expr::{BinOp, Expr, UnOp};
use an5d_grid::{Element, Grid, GridInit};
use an5d_plan::{practical_shared_reads, KernelPlan};
use an5d_stencil::StencilProblem;

/// Result of a blocked run: the final grid plus the work/traffic counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedRun<T> {
    /// Final grid state (same shape as the problem's padded grid).
    pub grid: Grid<T>,
    /// Work and traffic counters accumulated over the whole run.
    pub counters: TrafficCounters,
}

/// One spatial tile of a temporal block: per-dimension
/// `(origin, length, halo)` triples in interior coordinates, streaming
/// dimension first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSpec {
    dims: Vec<(usize, usize, usize)>,
}

impl TileSpec {
    /// Per-dimension `(origin, length, halo)` triples.
    #[must_use]
    pub fn dims(&self) -> &[(usize, usize, usize)] {
        &self.dims
    }
}

/// The detached result of executing one tile: the values of its write-back
/// (compute) region plus the counters the tile accumulated.
///
/// Tiles of one temporal block have pairwise-disjoint write-back regions,
/// so a set of `TileRun`s can be produced on any number of threads and
/// applied in any order without changing the resulting grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRun<T> {
    /// Origin of the write-back region in stored-grid coordinates.
    origin: Vec<usize>,
    /// Shape of the write-back region.
    region: Vec<usize>,
    /// Row-major values of the write-back region.
    values: Vec<T>,
    /// Counters accumulated while executing this tile.
    pub counters: TrafficCounters,
}

impl<T: Element> TileRun<T> {
    /// Write this tile's compute region into the output grid.
    pub fn apply_to(&self, next: &mut Grid<T>) {
        let ndim = self.region.len();
        let mut idx = vec![0usize; ndim];
        for (flat, &value) in self.values.iter().enumerate() {
            let mut rem = flat;
            for d in (0..ndim).rev() {
                idx[d] = rem % self.region[d];
                rem /= self.region[d];
            }
            let g: Vec<usize> = (0..ndim).map(|d| self.origin[d] + idx[d]).collect();
            next.set(&g, value);
        }
    }
}

/// Precomputed per-plan state for tile-level execution of temporal blocks.
///
/// The tile decomposition and the per-update cost constants depend only on
/// the plan and problem, not on the temporal block being executed, so one
/// context serves every temporal block of a run.
#[derive(Debug, Clone)]
pub struct TileContext<'a> {
    plan: &'a KernelPlan,
    shape: Vec<usize>,
    tiles: Vec<TileSpec>,
    flops_per_update: u128,
    sm_reads_per_update: u128,
    sm_writes_per_update: u128,
    syncs_per_plane: u128,
}

/// Tiling of one dimension: a list of `(origin, length, halo)` triples in
/// interior coordinates.
fn tiles_for_dim(extent: usize, tile_len: usize, halo: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut origin = 0usize;
    while origin < extent {
        let len = tile_len.min(extent - origin);
        out.push((origin, len, halo));
        origin += tile_len;
    }
    out
}

impl<'a> TileContext<'a> {
    /// Build the tile decomposition for one temporal block of the plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan and problem describe different stencils.
    #[must_use]
    pub fn new(plan: &'a KernelPlan, problem: &StencilProblem) -> Self {
        assert_eq!(
            plan.def().name(),
            problem.def().name(),
            "plan and problem describe different stencils"
        );
        let def = plan.def();
        let halo = plan.geometry().halo_per_side;
        let interior = problem.interior();
        let ndim = interior.len();

        // Per-dimension tilings: the streaming dimension is divided only
        // when hS_N is set (then each stream block carries the bT·rad
        // overlap); the blocked dimensions are tiled by the compute region.
        let mut dim_tiles: Vec<Vec<(usize, usize, usize)>> = Vec::with_capacity(ndim);
        match plan.config().hsn() {
            Some(h) => dim_tiles.push(tiles_for_dim(interior[0], h, halo)),
            None => dim_tiles.push(vec![(0, interior[0], 0)]),
        }
        for (d, &cr) in plan.geometry().compute_region.iter().enumerate() {
            dim_tiles.push(tiles_for_dim(interior[d + 1], cr, halo));
        }

        // Odometer over the cartesian product of per-dimension tiles, in
        // row-major order (the order the serial executor visits them).
        let mut tiles = Vec::new();
        let mut tile_idx = vec![0usize; ndim];
        'odometer: loop {
            tiles.push(TileSpec {
                dims: tile_idx
                    .iter()
                    .enumerate()
                    .map(|(d, &i)| dim_tiles[d][i])
                    .collect(),
            });
            let mut d = ndim;
            loop {
                if d == 0 {
                    break 'odometer;
                }
                d -= 1;
                tile_idx[d] += 1;
                if tile_idx[d] < dim_tiles[d].len() {
                    break;
                }
                tile_idx[d] = 0;
            }
        }

        Self {
            plan,
            shape: problem.grid_shape(),
            tiles,
            flops_per_update: def.flops_per_cell() as u128,
            sm_reads_per_update: practical_shared_reads(def) as u128,
            sm_writes_per_update: plan.resources().shared_stores_per_cell as u128,
            syncs_per_plane: plan.schedule().syncs_per_plane() as u128,
        }
    }

    /// The tiles of one temporal block, in the serial execution order.
    #[must_use]
    pub fn tiles(&self) -> &[TileSpec] {
        &self.tiles
    }

    /// Execute one tile for a temporal block of `chunk` combined time-steps.
    ///
    /// The tile reads only `current`; its output (the values of its
    /// write-back region plus its counter deltas) is returned detached so
    /// the caller decides when and where to apply it. `current` must have
    /// the problem's padded grid shape.
    ///
    /// The stencil expression is compiled into a postfix tape over flat
    /// neighbour offsets, halo/bounds checks are hoisted into
    /// per-dimension updatable ranges, and every inner loop (load, update,
    /// write-back extraction) runs over contiguous stride-1 row slices.
    #[must_use]
    pub fn execute_tile_rows<T: Element>(
        &self,
        current: &Grid<T>,
        tile: &TileSpec,
        chunk: usize,
    ) -> TileRun<T> {
        let def = self.plan.def();
        let rad = def.radius();
        let shape = &self.shape;
        let ndim = shape.len();
        let inner = ndim - 1;
        let mut counters = TrafficCounters::new();

        // Local box bounds in stored-grid coordinates: the compute region
        // plus the recomputation halo plus one stencil radius of read-only
        // data, clipped to the stored grid.
        let mut lo = vec![0usize; ndim];
        let mut hi = vec![0usize; ndim];
        for d in 0..ndim {
            let (origin, len, halo) = tile.dims[d];
            lo[d] = origin.saturating_sub(halo);
            hi[d] = (origin + len + halo + 2 * rad).min(shape[d]);
        }
        let local_shape: Vec<usize> = (0..ndim).map(|d| hi[d] - lo[d]).collect();
        let local_strides = row_major_strides(&local_shape);
        let global_strides = row_major_strides(shape);
        let total: usize = local_shape.iter().product();

        // Load the local box from global memory with one contiguous row
        // copy per innermost row (one read per cell per temporal block —
        // the defining property of N.5D blocking).
        let data = current.as_slice();
        let mut src: Vec<T> = Vec::with_capacity(total);
        let load_bounds: Vec<(usize, usize)> =
            local_shape[..inner].iter().map(|&e| (0, e)).collect();
        for_each_row(&load_bounds, |outer| {
            let mut g = lo[inner];
            for d in 0..inner {
                g += (outer[d] + lo[d]) * global_strides[d];
            }
            src.extend_from_slice(&data[g..g + local_shape[inner]]);
        });
        counters.gm_reads += total as u128;
        counters.thread_blocks += 1;
        counters.syncs += self.syncs_per_plane * local_shape[0] as u128;

        // Updatable range per dimension: the cell's whole neighbourhood
        // must lie inside the local box and the cell itself in the global
        // interior (never update the boundary ring). Both conditions are
        // per-dimension separable, so they collapse into one interval
        // intersection per dimension, hoisted out of every inner loop.
        let upd: Vec<(usize, usize)> = (0..ndim)
            .map(|d| {
                let hi_bound = local_shape[d]
                    .saturating_sub(rad)
                    .min((shape[d] - rad).saturating_sub(lo[d]));
                (rad, hi_bound)
            })
            .collect();
        let updates_per_step: u128 = upd
            .iter()
            .map(|&(l, h)| h.saturating_sub(l) as u128)
            .product();
        let lanes = upd[inner].1.saturating_sub(upd[inner].0);

        // Compile the stencil expression for this local geometry and run
        // the temporal block over a double buffer.
        let kernel = RowKernel::compile(def.expr(), &local_strides);
        let mut stack: Vec<Vec<T>> = (0..kernel.depth).map(|_| vec![T::ZERO; lanes]).collect();
        let mut dst = src.clone();
        for _step in 0..chunk {
            dst.copy_from_slice(&src);
            if lanes > 0 {
                for_each_row(&upd[..inner], |outer| {
                    let mut base = upd[inner].0;
                    for d in 0..inner {
                        base += outer[d] * local_strides[d];
                    }
                    kernel.eval_into(&src, base, &mut stack, &mut dst[base..base + lanes]);
                });
            }
            std::mem::swap(&mut src, &mut dst);
        }
        let steps = chunk as u128;
        counters.cell_updates += updates_per_step * steps;
        counters.flops += updates_per_step * steps * self.flops_per_update;
        counters.sm_reads += updates_per_step * steps * self.sm_reads_per_update;
        counters.sm_writes += updates_per_step * steps * self.sm_writes_per_update;

        // Extract the compute region (which always lies in the interior)
        // with contiguous row copies.
        let origin: Vec<usize> = (0..ndim).map(|d| tile.dims[d].0 + rad).collect();
        let region: Vec<usize> = (0..ndim).map(|d| tile.dims[d].1).collect();
        let region_total: usize = region.iter().product();
        let mut values = Vec::with_capacity(region_total);
        let extract_bounds: Vec<(usize, usize)> = region[..inner].iter().map(|&e| (0, e)).collect();
        for_each_row(&extract_bounds, |outer| {
            let mut l = origin[inner] - lo[inner];
            for d in 0..inner {
                l += (origin[d] + outer[d] - lo[d]) * local_strides[d];
            }
            values.extend_from_slice(&src[l..l + region[inner]]);
        });
        counters.gm_writes += region_total as u128;
        counters.valid_updates += region_total as u128 * chunk as u128;

        TileRun {
            origin,
            region,
            values,
            counters,
        }
    }
}

/// One instruction of a compiled row kernel: a postfix-encoded step of the
/// stencil expression applied to a whole row of independent cells.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TapeOp {
    /// Push the constant (rounded to `T`), broadcast across the row.
    PushConst(f64),
    /// Push the neighbour row at a fixed flat offset from the output row.
    PushCell(isize),
    /// Negate the top row in place.
    Neg,
    /// Square-root the top row in place.
    Sqrt,
    /// Pop two rows, push their elementwise combination.
    Add,
    Sub,
    Mul,
    Div,
}

/// A stencil expression compiled for one local-box geometry: postfix ops
/// whose cell loads are flat deltas in the local row-major layout.
///
/// A postfix tape evaluates the expression tree in exactly the order the
/// recursive [`an5d_stencil::exec::eval_expr`] does (left operand, right
/// operand, combine), and rows are evaluated lane-by-lane with no
/// cross-lane interaction, so every cell's value is produced by the
/// identical scalar operation sequence — results are bit-identical for
/// `f32` and `f64` alike.
#[derive(Debug, Clone, PartialEq)]
struct RowKernel {
    ops: Vec<TapeOp>,
    /// Maximum operand-stack depth the tape reaches (≥ 1).
    depth: usize,
}

impl RowKernel {
    fn compile(expr: &Expr, local_strides: &[usize]) -> Self {
        fn emit(expr: &Expr, strides: &[usize], ops: &mut Vec<TapeOp>) {
            match expr {
                Expr::Const(c) => ops.push(TapeOp::PushConst(*c)),
                Expr::Cell(offset) => {
                    let delta: isize = offset
                        .components()
                        .iter()
                        .zip(strides)
                        .map(|(&o, &s)| o as isize * s as isize)
                        .sum();
                    ops.push(TapeOp::PushCell(delta));
                }
                Expr::Unary(op, a) => {
                    emit(a, strides, ops);
                    ops.push(match op {
                        UnOp::Neg => TapeOp::Neg,
                        UnOp::Sqrt => TapeOp::Sqrt,
                    });
                }
                Expr::Binary(op, a, b) => {
                    emit(a, strides, ops);
                    emit(b, strides, ops);
                    ops.push(match op {
                        BinOp::Add => TapeOp::Add,
                        BinOp::Sub => TapeOp::Sub,
                        BinOp::Mul => TapeOp::Mul,
                        BinOp::Div => TapeOp::Div,
                    });
                }
            }
        }
        let mut ops = Vec::new();
        emit(expr, local_strides, &mut ops);
        let mut depth = 0usize;
        let mut max_depth = 0usize;
        for op in &ops {
            match op {
                TapeOp::PushConst(_) | TapeOp::PushCell(_) => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                TapeOp::Neg | TapeOp::Sqrt => {}
                TapeOp::Add | TapeOp::Sub | TapeOp::Mul | TapeOp::Div => depth -= 1,
            }
        }
        Self {
            ops,
            depth: max_depth,
        }
    }

    /// Evaluate the tape for the row of cells whose first output lane sits
    /// at flat index `base` in `src`, writing `out.len()` results to `out`.
    ///
    /// Every neighbour access is a contiguous slice copy at `base + delta`
    /// and every operation an elementwise pass over the row — stride-1
    /// loops with no bounds logic, which is what lets the compiler
    /// vectorize them.
    fn eval_into<T: Element>(&self, src: &[T], base: usize, stack: &mut [Vec<T>], out: &mut [T]) {
        let lanes = out.len();
        let mut sp = 0usize;
        for op in &self.ops {
            match *op {
                TapeOp::PushConst(c) => {
                    stack[sp].fill(T::from_f64(c));
                    sp += 1;
                }
                TapeOp::PushCell(delta) => {
                    let start = (base as isize + delta) as usize;
                    stack[sp].copy_from_slice(&src[start..start + lanes]);
                    sp += 1;
                }
                TapeOp::Neg => {
                    for v in stack[sp - 1].iter_mut() {
                        *v = -*v;
                    }
                }
                TapeOp::Sqrt => {
                    for v in stack[sp - 1].iter_mut() {
                        *v = v.sqrt();
                    }
                }
                TapeOp::Add | TapeOp::Sub | TapeOp::Mul | TapeOp::Div => {
                    let (below, top) = stack.split_at_mut(sp - 1);
                    let a = below[sp - 2].as_mut_slice();
                    let b = top[0].as_slice();
                    match *op {
                        TapeOp::Add => {
                            for (x, &y) in a.iter_mut().zip(b) {
                                *x += y;
                            }
                        }
                        TapeOp::Sub => {
                            for (x, &y) in a.iter_mut().zip(b) {
                                *x = *x - y;
                            }
                        }
                        TapeOp::Mul => {
                            for (x, &y) in a.iter_mut().zip(b) {
                                *x = *x * y;
                            }
                        }
                        TapeOp::Div => {
                            for (x, &y) in a.iter_mut().zip(b) {
                                *x = *x / y;
                            }
                        }
                        _ => unreachable!(),
                    }
                    sp -= 1;
                }
            }
        }
        out.copy_from_slice(&stack[0]);
    }
}

/// Row-major strides of a shape (innermost dimension has stride 1).
fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for dim in (0..shape.len().saturating_sub(1)).rev() {
        strides[dim] = strides[dim + 1] * shape[dim + 1];
    }
    strides
}

/// Odometer over the cartesian product of half-open per-dimension bounds,
/// in row-major order. An empty `bounds` slice yields one visit (the 1D
/// case, where a tile is a single row); an empty range yields none.
fn for_each_row(bounds: &[(usize, usize)], mut f: impl FnMut(&[usize])) {
    if bounds.iter().any(|&(l, h)| l >= h) {
        return;
    }
    let mut idx: Vec<usize> = bounds.iter().map(|&(l, _)| l).collect();
    loop {
        f(&idx);
        let mut d = bounds.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < bounds[d].1 {
                break;
            }
            idx[d] = bounds[d].0;
        }
    }
}

/// The sequence of temporal-block lengths for a time loop of `time_steps`
/// iterations blocked by `bt`: `bt, bt, …` with a shorter final block when
/// `time_steps mod bt ≠ 0` (Section 4.3.1).
#[must_use]
pub fn temporal_chunks(time_steps: usize, bt: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut remaining = time_steps;
    while remaining > 0 {
        let chunk = remaining.min(bt.max(1));
        chunks.push(chunk);
        remaining -= chunk;
    }
    chunks
}

/// Execute a kernel plan starting from a deterministic initial state.
///
/// # Panics
///
/// Panics if the plan and problem disagree on the stencil (they are built
/// together in normal use).
#[must_use]
pub fn execute_plan<T: Element>(
    plan: &KernelPlan,
    problem: &StencilProblem,
    init: GridInit,
) -> BlockedRun<T> {
    let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
    execute_plan_on(plan, problem, initial)
}

/// Execute a kernel plan starting from an explicit initial grid (used by
/// the equivalence tests to feed the exact same state to the reference and
/// blocked executors), one tile after the other on the calling thread.
///
/// # Panics
///
/// Panics if the initial grid's shape does not match the problem.
#[must_use]
pub fn execute_plan_on<T: Element>(
    plan: &KernelPlan,
    problem: &StencilProblem,
    initial: Grid<T>,
) -> BlockedRun<T> {
    execute_plan_with(plan, problem, initial, |tiles, run_tile| {
        (0..tiles).map(run_tile).collect()
    })
}

/// The temporal-block driver behind every blocked run: one kernel launch
/// per temporal block, each launch being map tiles → clone the grid →
/// apply the write-backs and sum the counters in canonical tile order.
///
/// `map_tiles(n, run_tile)` must return `run_tile(k)` for every `k < n`
/// in index order; it is free to evaluate them on any threads, because the
/// tiles of one temporal block only read the block's input grid. Applying
/// and summing in index order on the calling thread is what makes grids
/// and counter totals independent of that choice.
///
/// # Panics
///
/// Panics if the initial grid's shape does not match the problem.
#[must_use]
pub fn execute_plan_with<T: Element>(
    plan: &KernelPlan,
    problem: &StencilProblem,
    initial: Grid<T>,
    map_tiles: impl Fn(usize, &(dyn Fn(usize) -> TileRun<T> + Sync)) -> Vec<TileRun<T>>,
) -> BlockedRun<T> {
    assert_eq!(
        initial.shape(),
        problem.grid_shape().as_slice(),
        "initial grid shape does not match the problem"
    );

    let ctx = TileContext::new(plan, problem);
    let tiles = ctx.tiles();
    let mut counters = TrafficCounters::new();
    let mut current = initial;
    for chunk in temporal_chunks(problem.time_steps(), plan.config().bt()) {
        let runs = map_tiles(tiles.len(), &|k| {
            ctx.execute_tile_rows(&current, &tiles[k], chunk)
        });
        let mut next = current.clone();
        for run in runs {
            run.apply_to(&mut next);
            counters += run.counters;
        }
        counters.kernel_launches += 1;
        current = next;
    }
    BlockedRun {
        grid: current,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::{GridDiff, Precision};
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::{exec::run_reference, suite, StencilDef};

    /// Blocked execution in precision `T` must reproduce the naive
    /// reference sweep bit for bit; returns the blocked run's counters.
    fn check_equivalence_in<T: Element>(
        def: &StencilDef,
        interior: &[usize],
        steps: usize,
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
    ) -> TrafficCounters {
        let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
        let config = BlockConfig::new(bt, bs, hsn, T::PRECISION).unwrap();
        let plan = KernelPlan::build(def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed: 42 };
        let reference = run_reference::<T>(&problem, init);
        let blocked = execute_plan::<T>(&plan, &problem, init);
        let diff = GridDiff::compute(&reference, &blocked.grid).unwrap();
        assert!(
            diff.is_exact(),
            "{} ({:?}): blocked execution diverged (max abs {:.3e} at {})",
            def.name(),
            T::PRECISION,
            diff.max_abs,
            diff.worst_flat_index
        );
        blocked.counters
    }

    fn check_equivalence(
        def: StencilDef,
        interior: &[usize],
        steps: usize,
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
    ) -> TrafficCounters {
        check_equivalence_in::<f64>(&def, interior, steps, bt, bs, hsn)
    }

    #[test]
    fn blocked_matches_reference_2d_star() {
        check_equivalence(suite::j2d5pt(), &[24, 30], 7, 3, &[16], None);
    }

    #[test]
    fn blocked_matches_reference_2d_second_order() {
        check_equivalence(suite::j2d9pt(), &[20, 26], 6, 2, &[18], None);
    }

    #[test]
    fn blocked_matches_reference_2d_box() {
        check_equivalence(suite::box2d(1), &[16, 16], 5, 2, &[12], None);
    }

    #[test]
    fn blocked_matches_reference_nonlinear_gradient() {
        check_equivalence(suite::gradient2d(), &[18, 18], 4, 2, &[14], None);
    }

    #[test]
    fn blocked_matches_reference_with_stream_division() {
        check_equivalence(suite::j2d5pt(), &[32, 20], 6, 2, &[16], Some(8));
    }

    #[test]
    fn blocked_matches_reference_3d_star() {
        check_equivalence(suite::star3d(1), &[10, 12, 14], 5, 2, &[10, 12], None);
    }

    #[test]
    fn blocked_matches_reference_3d_box_with_division() {
        check_equivalence(suite::j3d27pt(), &[12, 10, 10], 4, 1, &[8, 8], Some(6));
    }

    #[test]
    fn remainder_temporal_block_is_handled() {
        // 7 steps with bT = 3 → blocks of 3, 3, 1.
        let counters = check_equivalence(suite::j2d5pt(), &[20, 20], 7, 3, &[16], None);
        assert_eq!(counters.kernel_launches, 3);
    }

    #[test]
    fn temporal_chunks_split_like_the_host_loop() {
        assert_eq!(temporal_chunks(7, 3), vec![3, 3, 1]);
        assert_eq!(temporal_chunks(6, 3), vec![3, 3]);
        assert_eq!(temporal_chunks(2, 5), vec![2]);
        assert_eq!(temporal_chunks(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn tile_runs_are_detached_and_order_independent() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[24, 24], 3).unwrap();
        let config = BlockConfig::new(3, &[12], Some(12), Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let ctx = TileContext::new(&plan, &problem);
        assert!(ctx.tiles().len() > 1, "need multiple tiles for this test");

        let current = Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 9 });
        let runs: Vec<TileRun<f64>> = ctx
            .tiles()
            .iter()
            .map(|tile| ctx.execute_tile_rows(&current, tile, 3))
            .collect();

        // Applying the detached runs in forward and reverse order gives the
        // same grid: write-back regions are disjoint.
        let mut forward = current.clone();
        for run in &runs {
            run.apply_to(&mut forward);
        }
        let mut reverse = current.clone();
        for run in runs.iter().rev() {
            run.apply_to(&mut reverse);
        }
        assert_eq!(forward, reverse);

        // And the driver built on the same pieces agrees with a
        // one-temporal-block execution.
        let serial = execute_plan_on::<f64>(&plan, &problem, current);
        assert_eq!(serial.grid, forward);
    }

    #[test]
    fn single_precision_blocked_matches_reference_closely() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[24, 24], 6).unwrap();
        let config = BlockConfig::new(2, &[16], None, Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed: 5 };
        let reference = run_reference::<f32>(&problem, init);
        let blocked = execute_plan::<f32>(&plan, &problem, init);
        let diff = GridDiff::compute(&reference, &blocked.grid).unwrap();
        assert!(diff.is_exact(), "f32 blocked run diverged: {diff:?}");
    }

    #[test]
    fn counters_reflect_redundant_computation() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[40, 40], 4).unwrap();
        let config = BlockConfig::new(4, &[20], None, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let run = execute_plan::<f64>(&plan, &problem, GridInit::Hash { seed: 1 });
        // Every interior cell update that ends up in global memory:
        assert_eq!(run.counters.valid_updates, 40 * 40 * 4);
        // Overlapped tiling must have recomputed additional halo cells.
        assert!(run.counters.cell_updates > run.counters.valid_updates);
        assert!(run.counters.redundancy_ratio() > 0.0);
        // N.5D blocking reads each tile once per temporal block; with
        // bT = 4 and 4 steps there is exactly one temporal block.
        assert_eq!(run.counters.kernel_launches, 1);
        assert!(run.counters.gm_reads >= (42 * 42) as u128);
        assert_eq!(run.counters.gm_writes, 40 * 40);
        assert_eq!(
            run.counters.flops,
            run.counters.cell_updates * def.flops_per_cell() as u128
        );
    }

    #[test]
    fn higher_bt_reduces_global_traffic_per_step() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[64, 64], 8).unwrap();
        let init = GridInit::Hash { seed: 3 };
        let mut traffic = Vec::new();
        for bt in [1usize, 2, 4] {
            let config = BlockConfig::new(bt, &[32], None, Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let run = execute_plan::<f64>(&plan, &problem, init);
            traffic.push(run.counters.gm_reads + run.counters.gm_writes);
        }
        assert!(
            traffic[0] > traffic[1],
            "bT=2 should move less data than bT=1"
        );
        assert!(
            traffic[1] > traffic[2],
            "bT=4 should move less data than bT=2"
        );
    }

    #[test]
    fn stream_division_adds_redundancy_but_more_blocks() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[64, 32], 4).unwrap();
        let init = GridInit::Hash { seed: 8 };
        let undivided = {
            let config = BlockConfig::new(2, &[24], None, Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            execute_plan::<f64>(&plan, &problem, init).counters
        };
        let divided = {
            let config = BlockConfig::new(2, &[24], Some(16), Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            execute_plan::<f64>(&plan, &problem, init).counters
        };
        assert!(divided.thread_blocks > undivided.thread_blocks);
        assert!(divided.cell_updates > undivided.cell_updates);
        assert_eq!(divided.valid_updates, undivided.valid_updates);
    }

    /// The row kernels against the scalar path that remains — the naive
    /// per-cell reference sweep — in both precisions.
    fn check_rows_path_matches_scalar_path(
        def: StencilDef,
        interior: &[usize],
        steps: usize,
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
    ) {
        let double = check_equivalence_in::<f64>(&def, interior, steps, bt, bs, hsn);
        let single = check_equivalence_in::<f32>(&def, interior, steps, bt, bs, hsn);
        // Work and traffic are counted in cells, not bytes: the precision
        // must not move them.
        assert_eq!(
            double,
            single,
            "{}: counters depend on precision",
            def.name()
        );
    }

    #[test]
    fn rows_path_matches_scalar_path_2d() {
        check_rows_path_matches_scalar_path(suite::j2d5pt(), &[24, 30], 7, 3, &[16], None);
        check_rows_path_matches_scalar_path(suite::j2d9pt(), &[20, 26], 6, 2, &[18], None);
        check_rows_path_matches_scalar_path(suite::box2d(1), &[16, 16], 5, 2, &[12], None);
    }

    #[test]
    fn rows_path_matches_scalar_path_nonlinear() {
        // gradient2d exercises Sqrt, Div and nested unary ops in the tape.
        check_rows_path_matches_scalar_path(suite::gradient2d(), &[18, 18], 4, 2, &[14], None);
    }

    #[test]
    fn rows_path_matches_scalar_path_with_stream_division() {
        check_rows_path_matches_scalar_path(suite::j2d5pt(), &[32, 20], 6, 2, &[16], Some(8));
    }

    #[test]
    fn rows_path_matches_scalar_path_3d() {
        check_rows_path_matches_scalar_path(suite::star3d(1), &[10, 12, 14], 5, 2, &[10, 12], None);
        check_rows_path_matches_scalar_path(
            suite::j3d27pt(),
            &[12, 10, 10],
            4,
            1,
            &[8, 8],
            Some(6),
        );
    }

    #[test]
    fn rows_path_matches_scalar_path_odd_geometries() {
        // Tile lengths that do not divide the interior, radius-2 halos and
        // degenerate one-cell-wide remainders.
        check_rows_path_matches_scalar_path(suite::star2d(2), &[17, 13], 5, 2, &[13], None);
        check_rows_path_matches_scalar_path(suite::j2d5pt(), &[9, 25], 4, 3, &[11], Some(5));
    }

    #[test]
    #[should_panic(expected = "initial grid shape")]
    fn shape_mismatch_is_rejected() {
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[16, 16], 2).unwrap();
        let config = BlockConfig::new(1, &[8], None, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let wrong = Grid::<f64>::zeros(&[4, 4]);
        let _ = execute_plan_on(&plan, &problem, wrong);
    }
}
