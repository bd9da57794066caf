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
//! grid. [`TileContext`] exposes that seam. Where the tiles lie is the
//! plan's business, not the executor's: a [`TileSpec`] is one
//! [`an5d_plan::DimTile`] per dimension, taken from the tilings the plan's
//! geometry was built with, so the boxes run here are the boxes the model
//! prices. [`TileContext::tiles`]
//! enumerates the tiles of one temporal block, and there is **one tile
//! kernel** — load the local box, run the block's steps, hand out the
//! finished rows of the write-back region — with **two sinks**:
//! [`TileContext::execute_tile_into`] stores the rows where they belong,
//! into the tile's entry of [`TileContext::carve_rows`], and
//! [`TileContext::execute_tile_rows`] collects them into a detached
//! [`TileRun`] that [`TileRun::apply_to`] row-copies into a grid later (the
//! form tests and the benchmark's stage-by-stage replay use). What a tile
//! counts is a pure function of its geometry,
//! [`TileContext::tile_counters`], so neither sink returns counters from
//! the thread that ran the tile.
//!
//! **Carved rows.** The write-back regions of one launch tile the interior
//! of the grid being written exactly once. `carve_rows` walks that grid's
//! rows once and splits them, with safe `split_at_mut`, into one list of
//! `&mut` rows per tile: ownership of every interior cell is handed to
//! exactly one tile before the launch, so tiles store their results from
//! whatever thread runs them with no lock, no detached copy and nothing
//! left for the driving thread to apply.
//!
//! [`execute_plan_with`] is the one temporal-block driver built from those
//! pieces: it ping-pongs two grids like the generated host loop ping-pongs
//! `A[t % 2]`, and its caller only chooses how the `(tile, rows)` items of
//! a block are mapped ([`execute_plan_on`] maps them inline, the
//! `an5d-backend` crate over scoped threads), so every schedule produces
//! bit-identical grids and counter totals by construction. Nothing is
//! cloned: a launch overwrites the whole interior of the other grid, so
//! that grid starts out zeroed and needs only the boundary ring, which
//! never changes. The ring is copied **after the first launch** — before
//! it, the strided copy would be the first touch of every page of a fresh
//! 3D grid, serially on the driving thread, which costs what the clone it
//! replaces did; after it, the tiles' own stores have faulted the pages in.
//!
//! # Row kernels
//!
//! A tile is executed through a vectorization-friendly kernel. The stencil
//! expression is compiled once per tile into a tape with one instruction
//! per *operation* node, in postfix order; the leaves are not instructions
//! but operands of the instruction that consumes them — a constant is a
//! broadcast scalar, a neighbour access a slice of the source buffer at a
//! *flat* offset in the local row-major layout, read in place. Each
//! instruction is one stride-1 pass (`leaf ∘ leaf` pushes a row,
//! `top ∘ leaf` / `leaf ∘ top` / unary update the top row in place,
//! `top ∘ top` folds the top row into the one below), and the bottom row
//! of the operand stack is the output itself, so the last instruction
//! leaves the result where it belongs.
//!
//! **Chains.** A pass per operation stores and reloads one intermediate
//! row per operation, and that traffic — not cache misses, not lane width —
//! bounds the kernel. A peephole over the compiled tape therefore folds
//! every maximal run `c₀·x₀ (± cₖ·xₖ | ± xₖ)* [∘ const]`, or the same run
//! continuing from the row on top of the stack, into one *chain*
//! instruction: the paper's associative stencils (20 of the 21 in Table 3)
//! become a single pass that keeps the partial sum in a register, loads
//! each neighbour once and stores only the finished value (j2d5pt: ten
//! passes → one, star3d1r: thirteen → one, no scratch row). The pass is
//! const-generic in its term count up to eight; a longer chain (box3d4r has
//! 729 terms) continues in place in groups of eight. There is no second,
//! linear-only path: the chain is one more instruction of the one tape.
//!
//! **Shared subtrees and pairs.** The non-associative stencil
//! (gradient2d's `(f − fₙ)·(f − fₙ)` under `sqrt` and `1/x`) gets the same
//! treatment at the leaf level. When both operands of an operation are the
//! *same* non-leaf subtree, the subtree is compiled once and the
//! instruction combines the top row with itself (`top ∘ dup`). A second
//! peephole then fuses `xₐ ∘ x_b` over two neighbour rows, an immediately
//! following square of it and an immediately following fold into the row
//! below (`below ∘ v`) into one *pair* instruction whose value never
//! leaves a register — the counterpart of a chain term where the
//! operations do not associate. gradient2d goes from twenty passes and a
//! four-row stack to nine passes and two rows. The remaining generic
//! instructions (`1 + …`, `sqrt`, `1/x`, the final sum) are untouched.
//!
//! **Runs and the dependency cone.** One tape evaluation covers not one
//! row but a *run* of consecutive rows of a plane (about a thousand lanes,
//! so the output and scratch rows stay in L1). The buffers are row-major
//! and every operand a flat delta, so the `2·rad` cells between the
//! updatable parts of two rows are simply computed along and then restored
//! from the source buffer. This removes the per-pass overhead that
//! dominated tiles with short rows (a 32×32 block of a 3D stencil has
//! 32-lane rows). Which rows a step covers shrinks as the block advances:
//! with `k` steps still to come, a cell farther than `k·rad` from the
//! write-back region cannot influence it, so in every *non-innermost*
//! dimension a step updates only that dependency cone, clipped to the
//! updatable box (on 34²-cell tiles at `bT = 4`, a fifth of the lanes fed
//! nothing). The innermost dimension is exempt: trimming it would make
//! rows of a run differ in length and start, which is exactly the per-row
//! overhead runs exist to remove. The counters are *not* trimmed — they
//! describe the paper's schedule, in which every step sweeps the whole
//! box.
//!
//! All halo/bounds logic is hoisted out of the inner loops: the updatable
//! box of a tile is `rad` cells in from every face of its local box, and
//! because every step of a temporal block writes inside that box only, its
//! two local buffers need no copy between steps — outside it they never
//! differ from the values loaded. A cell outside a step's cone keeps a
//! stale value in the buffer written; by construction no later step of
//! the block reads it, and the write-back region is the last step's cone.
//!
//! **Bit-identity.** Every cell still goes through the exact scalar
//! operations of [`an5d_stencil::exec::eval_expr`], operand for operand:
//! the value of a subtree does not depend on when it is computed, lanes
//! never interact, and a chain adds its terms in source order, each
//! product rounded before it is added (no `mul_add`, no reassociation, a
//! division stays a division). The two rewrites a chain does make are
//! exact in IEEE 754: `a − c·x` is evaluated as `a + (−c)·x` (negation is
//! exact and subtraction *is* addition of the negated operand), a bare
//! `± x` as `+ (±1)·x`, and a fresh chain starts from `c₀·x₀` itself, not
//! from `0 + c₀·x₀` (which would lose the sign of a negative zero). A
//! shared subtree is evaluated once where `eval_expr` evaluates it twice —
//! the same operations on the same operands, hence the same bits, combined
//! by the same operation. A pair performs the scalar operations of the
//! instructions it replaces on the same operands in the same order
//! (`xₐ ∘ x_b`, then `v·v`, then `below ∘ v` with `v` on the right as on
//! the tape); only the store and reload of `v` between them is gone, and a
//! value does not change by staying in a register (Rust floats are
//! evaluated in their own precision). The cone changes which cells are
//! computed, never how. That keeps the result bit-identical to the naive
//! per-cell reference sweep for both `f32` and `f64`.
//!
//! # Two instances, picked at run time
//!
//! Once the tape has taken the row traffic away, the passes are bound by
//! arithmetic throughput, so their vector width matters. The tape
//! evaluator is one `#[inline(always)]` function compiled twice: inlined
//! into the dispatcher, `RowKernel::eval_into`, at the target's baseline
//! features (SSE2, 128-bit, on x86-64), and into
//! `RowKernel::eval_into_avx2` under `#[target_feature(enable =
//! "avx2")]`. The dispatcher calls the AVX2 instance when
//! [`row_kernel_isa`] — `is_x86_feature_detected!("avx2")`, a cached
//! flag — says the CPU has it, and the baseline instance on every other
//! CPU and target. There is no option to choose: both give the same bits.
//!
//! **Where the dispatch sits.** At `eval_into`: one check per run of
//! about a thousand lanes, and every pass (`Map::run`, `Zip::run`, the
//! chain and pair passes and the closures they are monomorphic in) is
//! force-inlined below it, so the AVX2 instance really contains 256-bit
//! loops. One level up, at `RowKernel::step`, the row walk's closure was
//! outlined and compiled at baseline width: that instance held a few
//! dozen ymm instructions and gained nothing. CI disassembles a release
//! binary and fails unless each `eval_into_avx2` is mostly ymm code.
//!
//! **Why the bits do not change.** Only `avx2` is enabled, not `fma`:
//! Rust never contracts `a·b + c` anyway, and without FMA no fused
//! instruction is even available. Each lane of either instance performs the
//! same IEEE-754 operation on the same operands in the same order — no
//! `mul_add`, no reassociation, a division stays a division — and SSE2
//! and AVX instructions round and treat subnormals by the same MXCSR
//! state. A wider vector only evaluates more independent lanes at once.

use crate::TrafficCounters;
use an5d_expr::{BinOp, Expr, Node, UnOp};
use an5d_grid::{Element, Grid, GridInit};
use an5d_plan::{practical_shared_reads, DimTile, KernelPlan};
use an5d_stencil::StencilProblem;

/// Result of a blocked run: the final grid plus the work/traffic counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedRun<T> {
    /// Final grid state (same shape as the problem's padded grid).
    pub grid: Grid<T>,
    /// Work and traffic counters accumulated over the whole run.
    pub counters: TrafficCounters,
}

/// One spatial tile of a temporal block: one [`DimTile`] of the plan's
/// tiling per dimension, streaming dimension first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSpec {
    dims: Vec<DimTile>,
}

impl TileSpec {
    /// The tile's extent along each dimension.
    #[must_use]
    pub fn dims(&self) -> &[DimTile] {
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
    /// Write this tile's compute region into the output grid: one
    /// contiguous row copy per innermost row of the region.
    ///
    /// # Panics
    ///
    /// Panics if `next` has a different rank than the region or the region
    /// does not fit inside it — flat row copies into a mis-shaped grid
    /// would otherwise land in the wrong cells silently.
    pub fn apply_to(&self, next: &mut Grid<T>) {
        let shape = next.shape();
        assert_eq!(
            shape.len(),
            self.region.len(),
            "write-back region has rank {} but the grid has rank {}",
            self.region.len(),
            shape.len()
        );
        for (d, &extent) in shape.iter().enumerate() {
            assert!(
                self.origin[d] + self.region[d] <= extent,
                "write-back region [{}, {}) exceeds grid extent {extent} in dimension {d}",
                self.origin[d],
                self.origin[d] + self.region[d]
            );
        }
        let inner = shape.len() - 1;
        let width = self.region[inner];
        let strides = row_major_strides(shape);
        let bounds: Vec<(usize, usize)> = self.region[..inner].iter().map(|&e| (0, e)).collect();
        let cells = next.as_mut_slice();
        let mut taken = 0usize;
        for_each_row(&bounds, |outer| {
            let mut g = self.origin[inner];
            for d in 0..inner {
                g += (self.origin[d] + outer[d]) * strides[d];
            }
            cells[g..g + width].copy_from_slice(&self.values[taken..taken + width]);
            taken += width;
        });
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
    /// The plan's per-dimension tile lists; their cartesian product, in
    /// row-major order, is `tiles`.
    dim_tiles: Vec<Vec<DimTile>>,
    tiles: Vec<TileSpec>,
    flops_per_update: u128,
    sm_reads_per_update: u128,
    sm_writes_per_update: u128,
    syncs_per_plane: u128,
}

impl<'a> TileContext<'a> {
    /// Lay out the tiles of one temporal block as the plan's geometry cuts
    /// them ([`an5d_plan::BlockGeometry::tilings`]).
    ///
    /// # Panics
    ///
    /// Panics if `problem` is not the one the plan was built for
    /// ([`KernelPlan::assert_tiled_for`]).
    #[must_use]
    pub fn new(plan: &'a KernelPlan, problem: &StencilProblem) -> Self {
        plan.assert_tiled_for(problem);
        let def = plan.def();
        let tilings = plan.geometry().tilings().iter();
        let dim_tiles: Vec<Vec<DimTile>> = tilings.map(|t| t.tiles().collect()).collect();

        // Row-major over the per-dimension lists: the order the serial
        // executor visits the tiles in.
        let counts: Vec<(usize, usize)> = dim_tiles.iter().map(|t| (0, t.len())).collect();
        let mut tiles = Vec::with_capacity(counts.iter().map(|c| c.1).product());
        for_each_row(&counts, |index| {
            let dims = index.iter().zip(&dim_tiles);
            tiles.push(TileSpec {
                dims: dims.map(|(&i, list)| list[i]).collect(),
            });
        });

        Self {
            plan,
            shape: problem.grid_shape(),
            dim_tiles,
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

    /// A tile's local box — everything it loads — as `(low corner, shape)`
    /// in stored-grid coordinates.
    fn local_box(&self, tile: &TileSpec) -> (Vec<usize>, Vec<usize>) {
        let dims = tile.dims.iter();
        dims.map(|t| (t.lo, t.local().len())).unzip()
    }

    /// A tile's write-back (compute) region as `(origin, shape)` in
    /// stored-grid coordinates.
    fn write_back(&self, tile: &TileSpec) -> (Vec<usize>, Vec<usize>) {
        let dims = tile.dims.iter();
        dims.map(|t| (t.written().start, t.len)).unzip()
    }

    /// What executing `tile` for a temporal block of `chunk` steps counts.
    ///
    /// The counters describe the paper's schedule — every step sweeps the
    /// tile's whole updatable box — and are a pure function of the tile
    /// geometry: they do not depend on the grid, on which thread runs the
    /// tile, or on how much of the box the executor found it needed.
    #[must_use]
    pub fn tile_counters(&self, tile: &TileSpec, chunk: usize) -> TrafficCounters {
        let volume = |extent: fn(&DimTile) -> usize| -> u128 {
            tile.dims.iter().map(|t| extent(t) as u128).product()
        };
        let updates = volume(|t| t.updatable().len()) * chunk as u128;
        let written = volume(|t| t.len);
        TrafficCounters {
            gm_reads: volume(|t| t.local().len()),
            gm_writes: written,
            sm_reads: updates * self.sm_reads_per_update,
            sm_writes: updates * self.sm_writes_per_update,
            flops: updates * self.flops_per_update,
            cell_updates: updates,
            valid_updates: written * chunk as u128,
            syncs: self.syncs_per_plane * tile.dims[0].local().len() as u128,
            thread_blocks: 1,
            kernel_launches: 0,
        }
    }

    /// Carve the interior of `next` into the write-back rows of every tile:
    /// entry `k` holds, in the region's row-major order, one `&mut` slice
    /// per innermost row of the write-back region of `tiles()[k]`.
    ///
    /// The regions of one temporal block tile the interior exactly once, so
    /// one walk over the grid's rows with `split_at_mut` hands every
    /// interior cell to exactly one list and leaves the boundary ring out —
    /// which is what lets any thread store a finished tile straight into
    /// the grid with no further synchronisation.
    ///
    /// # Panics
    ///
    /// Panics if `next` does not have the problem's padded grid shape.
    pub fn carve_rows<'g, T: Element>(&self, next: &'g mut Grid<T>) -> Vec<Vec<&'g mut [T]>> {
        assert_eq!(
            next.shape(),
            self.shape.as_slice(),
            "tile output grid has shape {:?} but the problem's padded grid has shape {:?}",
            next.shape(),
            self.shape
        );
        let rad = self.plan.def().radius();
        let inner = self.shape.len() - 1;
        let strides = row_major_strides(&self.shape);
        // Along every outer dimension, the tile that owns an interior
        // coordinate; `tiles` is the row-major product of `dim_tiles`.
        let owner: Vec<Vec<usize>> = self.dim_tiles[..inner]
            .iter()
            .map(|tiles| {
                let lens = tiles.iter().enumerate();
                lens.flat_map(|(t, tile)| std::iter::repeat_n(t, tile.len))
                    .collect()
            })
            .collect();
        let counts: Vec<usize> = self.dim_tiles.iter().map(Vec::len).collect();
        let tile_strides = row_major_strides(&counts);
        let mut lists: Vec<Vec<&'g mut [T]>> = self
            .tiles
            .iter()
            .map(|tile| Vec::with_capacity(tile.dims[..inner].iter().map(|t| t.len).product()))
            .collect();
        // `rest` is the grid from flat index `taken` on.
        let mut rest = next.as_mut_slice();
        let mut taken = 0usize;
        let bounds: Vec<(usize, usize)> = owner.iter().map(|o| (0, o.len())).collect();
        for_each_row(&bounds, |outer| {
            let mut first_tile = 0usize;
            let mut row_start = rad;
            for d in 0..inner {
                first_tile += owner[d][outer[d]] * tile_strides[d];
                row_start += (outer[d] + rad) * strides[d];
            }
            for (t, tile) in self.dim_tiles[inner].iter().enumerate() {
                let start = row_start + tile.origin;
                let (_, tail) = std::mem::take(&mut rest).split_at_mut(start - taken);
                let (row, tail) = tail.split_at_mut(tile.len);
                lists[first_tile + t].push(row);
                rest = tail;
                taken = start + tile.len;
            }
        });
        lists
    }

    /// Execute one tile for a temporal block of `chunk` combined time-steps
    /// into a detached [`TileRun`].
    ///
    /// The tile reads only `current`; its output (the values of its
    /// write-back region plus [`TileContext::tile_counters`]) is returned
    /// detached so the caller decides when and where to apply it. This is
    /// the tile kernel of [`TileContext::execute_tile_into`] with a
    /// collecting sink instead of a storing one.
    ///
    /// # Panics
    ///
    /// Panics if `current` does not have the problem's padded grid shape —
    /// the tile is loaded through flat offsets into that shape, which on
    /// any other grid would read the wrong cells silently.
    #[must_use]
    pub fn execute_tile_rows<T: Element>(
        &self,
        current: &Grid<T>,
        tile: &TileSpec,
        chunk: usize,
    ) -> TileRun<T> {
        let (origin, region) = self.write_back(tile);
        let mut values = Vec::with_capacity(region.iter().product());
        self.run_tile(current, tile, chunk, |row| values.extend_from_slice(row));
        TileRun {
            origin,
            region,
            values,
            counters: self.tile_counters(tile, chunk),
        }
    }

    /// Execute one tile for a temporal block of `chunk` combined time-steps
    /// and store its write-back region straight into `rows` — the tile's
    /// entry of [`TileContext::carve_rows`] over the grid being written.
    ///
    /// # Panics
    ///
    /// Panics if `current` does not have the problem's padded grid shape
    /// or `rows` is not the tile's carved row list.
    pub fn execute_tile_into<T: Element>(
        &self,
        current: &Grid<T>,
        tile: &TileSpec,
        chunk: usize,
        rows: &mut [&mut [T]],
    ) {
        let mut rows = rows.iter_mut();
        self.run_tile(current, tile, chunk, |row| {
            let target = rows.next().expect("one carved row per write-back row");
            target.copy_from_slice(row);
        });
        assert!(
            rows.next().is_none(),
            "more carved rows than write-back rows"
        );
    }

    /// The one tile kernel: load the tile's local box from `current`, run
    /// `chunk` time steps over its two buffers, and hand every finished
    /// innermost row of the write-back region to `sink` in row-major order.
    ///
    /// The stencil expression is compiled into a fused-operand tape over
    /// flat neighbour offsets (see the module docs), halo/bounds checks
    /// are hoisted into per-dimension ranges, and every inner loop (load,
    /// update, write-back) runs over contiguous stride-1 slices.
    fn run_tile<T: Element>(
        &self,
        current: &Grid<T>,
        tile: &TileSpec,
        chunk: usize,
        mut sink: impl FnMut(&[T]),
    ) {
        assert_eq!(
            current.shape(),
            self.shape.as_slice(),
            "tile input grid has shape {:?} but the problem's padded grid has shape {:?}",
            current.shape(),
            self.shape
        );
        let def = self.plan.def();
        let rad = def.radius();
        let inner = self.shape.len() - 1;

        let (lo, local_shape) = self.local_box(tile);
        let local_strides = row_major_strides(&local_shape);
        let global_strides = row_major_strides(&self.shape);
        let total: usize = local_shape.iter().product();

        // Load the local box from global memory with one contiguous row
        // copy per innermost row (one read per cell per temporal block —
        // the defining property of N.5D blocking), then copy it whole into
        // the block's second buffer. The odometer walks planes only: the
        // rows of a plane lie a fixed stride apart, and at 3D's short rows
        // an odometer step per row costs more than the copy it addresses.
        let data = current.as_slice();
        let width = local_shape[inner];
        let rows = inner - 1;
        let mut src: Vec<T> = Vec::with_capacity(total);
        let mut dst: Vec<T> = Vec::with_capacity(total);
        let planes: Vec<(usize, usize)> = local_shape[..rows].iter().map(|&e| (0, e)).collect();
        for_each_row(&planes, |plane| {
            let mut g = lo[inner] + lo[rows] * global_strides[rows];
            for d in 0..rows {
                g += (plane[d] + lo[d]) * global_strides[d];
            }
            for _ in 0..local_shape[rows] {
                src.extend_from_slice(&data[g..g + width]);
                g += global_strides[rows];
            }
        });
        dst.extend_from_slice(&src);

        // The write-back region in local coordinates.
        let (origin, region) = self.write_back(tile);
        let first: Vec<usize> = origin.iter().zip(&lo).map(|(&o, &l)| o - l).collect();

        // Compile the stencil expression for this local geometry and run
        // the temporal block over the two buffers. A step writes inside
        // the updatable box and nothing else, so the buffers — equal at
        // the start — stay equal outside it with no per-step copy. Only
        // cells within `rad` per step still to come of the write-back
        // region can reach it: the step covers that dependency cone in
        // every non-innermost dimension (see the module docs).
        let kernel = RowKernel::compile(def.expr(), &local_strides);
        let updatable = tile.dims.iter().map(|t| t.updatable());
        let upd: Vec<(usize, usize)> = updatable
            .zip(&lo)
            .map(|(u, &l)| (u.start - l, u.end - l))
            .collect();
        let mut scratch = Vec::new();
        for step in 0..chunk {
            let reach = (chunk - 1 - step) * rad;
            let mut cone = upd.clone();
            for d in 0..inner {
                cone[d].0 = cone[d].0.max(first[d].saturating_sub(reach));
                cone[d].1 = cone[d].1.min(first[d] + region[d] + reach);
            }
            kernel.step(&src, &mut dst, &local_shape, &cone, RUN_LANES, &mut scratch);
            std::mem::swap(&mut src, &mut dst);
        }

        let rows: Vec<(usize, usize)> = (0..inner)
            .map(|d| (first[d], first[d] + region[d]))
            .collect();
        for_each_row(&rows, |outer| {
            let mut l = first[inner];
            for d in 0..inner {
                l += outer[d] * local_strides[d];
            }
            sink(&src[l..l + region[inner]]);
        });
    }
}

/// Where an instruction of a compiled row kernel takes an input from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// The constant (rounded to `T`), broadcast across the row.
    Const(f64),
    /// The neighbour row at a fixed flat offset from the output row, read
    /// in place from the source buffer.
    Cell(isize),
    /// The row on top of the operand stack, which the instruction pops.
    Top,
    /// The row the instruction's left [`Operand::Top`] popped, once more:
    /// both operands of the node are the same subtree, compiled once.
    Dup,
}

/// One `± c·x` term of a [`TapeOp::Chain`], held as `+ coef·x`: a
/// subtracted product `− c·x` is `+ (−c)·x` and a bare `± x` is `+ (±1)·x`,
/// both bit-identical (negation and multiplication by one are exact, and
/// IEEE 754 subtraction *is* the addition of the negated operand).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Term {
    coef: f64,
    /// Flat offset of the neighbour row from the output row.
    delta: isize,
}

/// Lanes one instruction pass covers when a plane has rows to spare: long
/// enough to amortise the per-pass overhead of short rows, short enough
/// that the output run and the scratch rows stay L1-resident.
const RUN_LANES: usize = 1024;

/// One instruction of a compiled row kernel: one operation node of the
/// stencil expression — or one folded sum of products — applied to a whole
/// row of independent cells, its result pushed on the operand stack.
#[derive(Debug, Clone, PartialEq)]
enum TapeOp {
    /// The expression is a single leaf. Only ever the sole instruction of
    /// a tape: everywhere else a leaf is an operand of its consumer.
    Leaf(Operand),
    Unary(UnOp, Operand),
    /// `left ∘ right`; with two [`Operand::Top`]s the right one is the
    /// topmost row.
    Binary(BinOp, Operand, Operand),
    /// The left-to-right sum `((acc + t₀) + t₁) + …` of product terms,
    /// optionally followed by `∘ const`, with `acc` starting as the first
    /// term's product (`fresh`, pushes a row) or as the top row (updated
    /// in place). The running sum lives in a register: one load per term
    /// and one store per lane instead of a row pass per operation.
    Chain {
        fresh: bool,
        terms: Vec<Term>,
        tail: Option<(BinOp, f64)>,
    },
    /// `v = x_left ∘ x_right` over two neighbour rows at flat deltas, then
    /// `v·v` in its place when `square`, then either pushed (`fold` is
    /// `None`) or folded into the top row as `top ∘ v` — the
    /// non-associative counterpart of a chain term: `v` lives in a
    /// register, one pass instead of up to three.
    Pair {
        op: BinOp,
        left: isize,
        right: isize,
        square: bool,
        fold: Option<BinOp>,
    },
}

impl TapeOp {
    /// How many stack rows the instruction pops before pushing its result.
    fn pops(&self) -> usize {
        let popped = |operand: &Operand| usize::from(*operand == Operand::Top);
        match self {
            TapeOp::Leaf(a) | TapeOp::Unary(_, a) => popped(a),
            TapeOp::Binary(_, a, b) => popped(a) + popped(b),
            TapeOp::Chain { fresh, .. } => usize::from(!fresh),
            TapeOp::Pair { fold, .. } => usize::from(fold.is_some()),
        }
    }
}

/// Fold every maximal run `c₀·x₀ (± cₖ·xₖ | ± xₖ)* [∘ const]` of a tape —
/// or the same run continuing from whatever row is on top — into one
/// [`TapeOp::Chain`], when that replaces at least two instructions. Terms
/// stay in source order, so the association order is untouched.
fn fold_chains(ops: &[TapeOp]) -> Vec<TapeOp> {
    let product = |at: usize| match ops.get(at) {
        Some(&TapeOp::Binary(BinOp::Mul, Operand::Const(coef), Operand::Cell(delta)))
        | Some(&TapeOp::Binary(BinOp::Mul, Operand::Cell(delta), Operand::Const(coef))) => {
            Some(Term { coef, delta })
        }
        _ => None,
    };
    let signed = |op: BinOp, term: Term| match op {
        BinOp::Add => Some(term),
        BinOp::Sub => Some(Term {
            coef: -term.coef,
            ..term
        }),
        BinOp::Mul | BinOp::Div => None,
    };
    // The term added to the top row by the instructions starting at `at`,
    // and how many instructions that takes: `top ± x`, or a product pushed
    // and at once folded into the row below it.
    let term_at = |at: usize| match (ops.get(at), ops.get(at + 1)) {
        (Some(&TapeOp::Binary(op, Operand::Top, Operand::Cell(delta))), _) => {
            Some((signed(op, Term { coef: 1.0, delta })?, 1))
        }
        (Some(_), Some(&TapeOp::Binary(op, Operand::Top, Operand::Top))) => {
            Some((signed(op, product(at)?)?, 2))
        }
        _ => None,
    };
    let mut folded = Vec::with_capacity(ops.len());
    let mut at = 0usize;
    while at < ops.len() {
        let mut end = at;
        let mut terms = Vec::new();
        let fresh = term_at(at).is_none();
        if let (true, Some(first)) = (fresh, product(at)) {
            terms.push(first);
            end += 1;
        }
        while let Some((term, len)) = term_at(end) {
            terms.push(term);
            end += len;
        }
        let tail = match ops.get(end) {
            Some(&TapeOp::Binary(op, Operand::Top, Operand::Const(c))) if !terms.is_empty() => {
                end += 1;
                Some((op, c))
            }
            _ => None,
        };
        if end - at >= 2 {
            folded.push(TapeOp::Chain { fresh, terms, tail });
            at = end;
        } else {
            folded.push(ops[at].clone());
            at += 1;
        }
    }
    folded
}

/// Fuse every `x_a ∘ x_b` over two neighbour rows with an immediately
/// following square of it (`v·v`, a [`Operand::Dup`] product) and an
/// immediately following fold into the row below (`below ∘ v`) into one
/// [`TapeOp::Pair`], when that replaces at least two instructions. Only a
/// fold with `v` on the *right* exists on the tape (`top ∘ top` has the
/// topmost row on the right), so operand order is untouched.
fn fuse_pairs(ops: &[TapeOp]) -> Vec<TapeOp> {
    let mut fused = Vec::with_capacity(ops.len());
    let mut at = 0usize;
    while at < ops.len() {
        let mut end = at + 1;
        if let TapeOp::Binary(op, Operand::Cell(left), Operand::Cell(right)) = ops[at] {
            let square =
                ops.get(end) == Some(&TapeOp::Binary(BinOp::Mul, Operand::Top, Operand::Dup));
            end += usize::from(square);
            let fold = match ops.get(end) {
                Some(&TapeOp::Binary(fold, Operand::Top, Operand::Top)) => Some(fold),
                _ => None,
            };
            end += usize::from(fold.is_some());
            if end - at >= 2 {
                fused.push(TapeOp::Pair {
                    op,
                    left,
                    right,
                    square,
                    fold,
                });
                at = end;
                continue;
            }
        }
        fused.push(ops[at].clone());
        at += 1;
    }
    fused
}

/// A resolved instruction input: a broadcast scalar or a row as long as
/// the output row.
enum Src<'a, T> {
    Scalar(T),
    Row(&'a [T]),
}

/// The two shapes a row-wise unary operation takes.
enum Map<'a, T> {
    /// `dst[i] = f(a[i])`.
    Into(&'a mut [T], Src<'a, T>),
    /// `acc[i] = f(acc[i])`.
    InPlace(&'a mut [T]),
}

impl<T: Element> Map<'_, T> {
    #[inline(always)]
    fn run(self, f: impl Fn(T) -> T) {
        match self {
            Map::Into(dst, Src::Row(a)) => {
                for (d, &x) in dst.iter_mut().zip(a) {
                    *d = f(x);
                }
            }
            Map::Into(dst, Src::Scalar(x)) => dst.fill(f(x)),
            Map::InPlace(acc) => {
                for x in acc {
                    *x = f(*x);
                }
            }
        }
    }
}

/// The three shapes a row-wise binary operation takes, by where its result
/// lives relative to its inputs (an accumulator row is updated in place).
enum Zip<'a, T> {
    /// `dst[i] = f(a[i], b[i])`.
    Into(&'a mut [T], Src<'a, T>, Src<'a, T>),
    /// `acc[i] = f(acc[i], b[i])`.
    Left(&'a mut [T], Src<'a, T>),
    /// `acc[i] = f(a[i], acc[i])`.
    Right(Src<'a, T>, &'a mut [T]),
    /// `acc[i] = f(acc[i], acc[i])`.
    Both(&'a mut [T]),
}

impl<T: Element> Zip<'_, T> {
    /// Every arm is a stride-1 loop with no bounds logic over rows of one
    /// length, monomorphic in `f` — the shape the compiler vectorizes.
    #[inline(always)]
    fn run(self, f: impl Fn(T, T) -> T) {
        match self {
            Zip::Into(dst, Src::Row(a), Src::Row(b)) => {
                for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *d = f(x, y);
                }
            }
            Zip::Into(dst, Src::Row(a), Src::Scalar(y)) => {
                for (d, &x) in dst.iter_mut().zip(a) {
                    *d = f(x, y);
                }
            }
            Zip::Into(dst, Src::Scalar(x), Src::Row(b)) => {
                for (d, &y) in dst.iter_mut().zip(b) {
                    *d = f(x, y);
                }
            }
            Zip::Into(dst, Src::Scalar(x), Src::Scalar(y)) => dst.fill(f(x, y)),
            Zip::Left(acc, Src::Row(b)) => {
                for (x, &y) in acc.iter_mut().zip(b) {
                    *x = f(*x, y);
                }
            }
            Zip::Left(acc, Src::Scalar(y)) => {
                for x in acc {
                    *x = f(*x, y);
                }
            }
            Zip::Right(Src::Row(a), acc) => {
                for (y, &x) in acc.iter_mut().zip(a) {
                    *y = f(x, *y);
                }
            }
            Zip::Right(Src::Scalar(x), acc) => {
                for y in acc {
                    *y = f(x, *y);
                }
            }
            Zip::Both(acc) => {
                for x in acc {
                    *x = f(*x, *x);
                }
            }
        }
    }
}

/// Terms a chain adds in one pass; longer chains continue in place.
const CHAIN_GROUP: usize = 8;

/// One pass of a chain over the `N` terms of `group`:
/// `out[i] = tail(acc + Σ cₖ·xₖ[i])` summed left to right, every product
/// rounded before it is added, with `acc` the first product when `fresh`
/// and `out[i]` otherwise. `cells` resolves a flat delta to its neighbour
/// row, as long as `out`.
#[inline(always)]
fn chain_pass<'s, T: Element, const N: usize>(
    out: &mut [T],
    fresh: bool,
    group: &[Term],
    cells: &impl Fn(isize) -> &'s [T],
    tail: impl Fn(T) -> T,
) {
    let lanes = out.len();
    let coefs: [T; N] = std::array::from_fn(|k| T::from_f64(group[k].coef));
    let rows: [&[T]; N] = std::array::from_fn(|k| &cells(group[k].delta)[..lanes]);
    let finish = |mut acc: T, from: usize, i: usize| {
        for k in from..N {
            acc += coefs[k] * rows[k][i];
        }
        tail(acc)
    };
    if fresh {
        for (i, o) in out.iter_mut().enumerate() {
            *o = finish(coefs[0] * rows[0][i], 1, i);
        }
    } else {
        for (i, o) in out.iter_mut().enumerate() {
            *o = finish(*o, 0, i);
        }
    }
}

/// Dispatch one group of `1..=CHAIN_GROUP` terms to the [`chain_pass`]
/// compiled for its term count and tail operation.
#[inline(always)]
fn chain_group<'s, T: Element>(
    out: &mut [T],
    fresh: bool,
    group: &[Term],
    cells: &impl Fn(isize) -> &'s [T],
    tail: Option<(BinOp, f64)>,
) {
    macro_rules! with_tail {
        ($tail:expr) => {
            match group.len() {
                1 => chain_pass::<T, 1>(out, fresh, group, cells, $tail),
                2 => chain_pass::<T, 2>(out, fresh, group, cells, $tail),
                3 => chain_pass::<T, 3>(out, fresh, group, cells, $tail),
                4 => chain_pass::<T, 4>(out, fresh, group, cells, $tail),
                5 => chain_pass::<T, 5>(out, fresh, group, cells, $tail),
                6 => chain_pass::<T, 6>(out, fresh, group, cells, $tail),
                7 => chain_pass::<T, 7>(out, fresh, group, cells, $tail),
                8 => chain_pass::<T, 8>(out, fresh, group, cells, $tail),
                n => unreachable!("a chain group has 1..={CHAIN_GROUP} terms, not {n}"),
            }
        };
    }
    match tail.map(|(op, c)| (op, T::from_f64(c))) {
        None => with_tail!(|x| x),
        Some((BinOp::Add, c)) => with_tail!(|x| x + c),
        Some((BinOp::Sub, c)) => with_tail!(|x| x - c),
        Some((BinOp::Mul, c)) => with_tail!(|x| x * c),
        Some((BinOp::Div, c)) => with_tail!(|x| x / c),
    }
}

/// One pass of a [`TapeOp::Pair`] whose value is `value(a[i], b[i])`:
/// stored into `out` (a pushed row) without a `fold`, folded into it as
/// `out[i] ∘ value` with one.
#[inline(always)]
fn pair_pass<T: Element>(
    out: &mut [T],
    a: &[T],
    b: &[T],
    fold: Option<BinOp>,
    value: impl Fn(T, T) -> T,
) {
    let lanes = out.iter_mut().zip(a.iter().zip(b));
    match fold {
        None => lanes.for_each(|(o, (&x, &y))| *o = value(x, y)),
        Some(BinOp::Add) => lanes.for_each(|(o, (&x, &y))| *o += value(x, y)),
        Some(BinOp::Sub) => lanes.for_each(|(o, (&x, &y))| *o = *o - value(x, y)),
        Some(BinOp::Mul) => lanes.for_each(|(o, (&x, &y))| *o = *o * value(x, y)),
        Some(BinOp::Div) => lanes.for_each(|(o, (&x, &y))| *o = *o / value(x, y)),
    }
}

/// Dispatch a [`TapeOp::Pair`] to the [`pair_pass`] compiled for its pair
/// operation, square and fold.
#[inline(always)]
fn pair_group<T: Element>(
    out: &mut [T],
    a: &[T],
    b: &[T],
    op: BinOp,
    square: bool,
    fold: Option<BinOp>,
) {
    macro_rules! with_square {
        ($pair:expr) => {
            if square {
                pair_pass(out, a, b, fold, |x, y| {
                    let v: T = $pair(x, y);
                    v * v
                })
            } else {
                pair_pass(out, a, b, fold, $pair)
            }
        };
    }
    match op {
        BinOp::Add => with_square!(|x, y| x + y),
        BinOp::Sub => with_square!(|x, y| x - y),
        BinOp::Mul => with_square!(|x, y| x * y),
        BinOp::Div => with_square!(|x, y| x / y),
    }
}

/// [`row_kernel_isa`]'s name for the instance compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
const AVX2: &str = "avx2";

/// The instance of the row kernel this CPU runs: `"avx2"` on an x86-64
/// CPU that has AVX2, `"baseline"` (the target's default features — SSE2
/// on x86-64) everywhere else. Both give the same bits; only the vector
/// width differs.
#[must_use]
pub fn row_kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return AVX2;
    }
    "baseline"
}

/// A stencil expression compiled for one local-box geometry: one
/// instruction per operation node, in postfix order, whose leaf inputs —
/// constants and cells at flat deltas in the local row-major layout — are
/// operands of the instruction that consumes them rather than rows pushed
/// on the stack first.
///
/// Every lane goes through the scalar operations of
/// [`an5d_stencil::exec::eval_expr`] with the same operands on the same
/// sides (a subtree's value does not depend on when it is computed, and
/// lanes never interact), so results are bit-identical for `f32` and `f64`
/// alike.
#[derive(Debug, Clone, PartialEq)]
struct RowKernel {
    ops: Vec<TapeOp>,
    /// Maximum operand-stack depth the tape reaches (≥ 1).
    depth: usize,
}

impl RowKernel {
    fn compile(expr: &Expr, local_strides: &[usize]) -> Self {
        const WELL_FORMED: &str = "a post-order expression has its operands on the stack";
        // One instruction per operation node, in the nodes' post order. The
        // stack holds, per operand not yet consumed, how its consumer
        // refers to its value and how long the tape was where its subtree
        // began.
        let mut ops = Vec::new();
        let mut operands: Vec<(Operand, usize)> = Vec::with_capacity(expr.stack_depth());
        for i in 0..expr.node_count() {
            match expr.view(i) {
                Node::Const(c) => operands.push((Operand::Const(c), ops.len())),
                Node::Cell(offset) => {
                    let delta = offset
                        .components()
                        .iter()
                        .zip(local_strides)
                        .map(|(&o, &s)| o as isize * s as isize)
                        .sum();
                    operands.push((Operand::Cell(delta), ops.len()));
                }
                Node::Unary(op, _) => {
                    let (a_is, _) = operands.last_mut().expect(WELL_FORMED);
                    ops.push(TapeOp::Unary(op, *a_is));
                    *a_is = Operand::Top;
                }
                Node::Binary(op, a, b) => {
                    let (mut b_is, b_began) = operands.pop().expect(WELL_FORMED);
                    let (a_is, _) = operands.last_mut().expect(WELL_FORMED);
                    // The same non-leaf subtree on both sides has one
                    // value: it is compiled once, the right copy's
                    // instructions dropped.
                    if *a_is == Operand::Top && expr.subtree_eq(a, b) {
                        ops.truncate(b_began);
                        b_is = Operand::Dup;
                    }
                    ops.push(TapeOp::Binary(op, *a_is, b_is));
                    *a_is = Operand::Top;
                }
            }
        }
        let (root, _) = operands.pop().expect(WELL_FORMED);
        if root != Operand::Top {
            ops.push(TapeOp::Leaf(root));
        }
        let ops = fuse_pairs(&fold_chains(&ops));
        let mut depth = 0usize;
        let mut max_depth = 0usize;
        for op in &ops {
            depth = depth - op.pops() + 1;
            max_depth = max_depth.max(depth);
        }
        Self {
            ops,
            depth: max_depth,
        }
    }

    /// One time step of a temporal block over the row-major local box
    /// `local_shape`: update `dst` from `src` in the cells of the box
    /// `ranges` (one half-open range per dimension), which must lie inside
    /// the updatable box and span it in the innermost dimension — `rad`
    /// cells in from either face.
    ///
    /// The innermost dimension is covered whole so that one tape
    /// evaluation can cover a *run* of consecutive rows of a plane, about
    /// `run_lanes` lanes in all: the buffers are row-major and every
    /// operand is a flat delta, so the `2·rad` non-updatable cells between
    /// two rows are computed like any lane (their neighbourhoods lie
    /// between those of the run's first and last cell, inside the buffer)
    /// and then restored from `src`, which holds the same loaded values
    /// there as `dst` does. `scratch` is grown to the tape's needs.
    fn step<T: Element>(
        &self,
        src: &[T],
        dst: &mut [T],
        local_shape: &[usize],
        ranges: &[(usize, usize)],
        run_lanes: usize,
        scratch: &mut Vec<Vec<T>>,
    ) {
        let (&(rad, end), outer) = ranges.split_last().expect("a box has a dimension");
        let width = local_shape[outer.len()];
        assert_eq!(rad + end, width, "runs need whole innermost rows");
        let strides = row_major_strides(local_shape);
        // The rows of one plane (a 1D box is a single row) and the planes.
        let ((first_row, end_row), planes) = match outer.split_last() {
            Some((&rows, planes)) => (rows, planes),
            None => ((0, 1), outer),
        };
        if first_row >= end_row || rad >= end {
            return;
        }
        let rows_per_run = (run_lanes / width).clamp(1, end_row - first_row);
        scratch.resize_with(self.depth - 1, Vec::new);
        for above in scratch.iter_mut() {
            above.resize(rows_per_run * width - 2 * rad, T::ZERO);
        }
        for_each_row(planes, |plane| {
            let plane: usize = plane.iter().zip(&strides).map(|(&o, &s)| o * s).sum();
            let mut row = first_row;
            while row < end_row {
                let count = rows_per_run.min(end_row - row);
                let base = plane + row * width + rad;
                let lanes = count * width - 2 * rad;
                self.eval_into(src, base, scratch, &mut dst[base..base + lanes]);
                for gap in (1..count).map(|r| base + r * width - 2 * rad) {
                    dst[gap..gap + 2 * rad].copy_from_slice(&src[gap..gap + 2 * rad]);
                }
                row += count;
            }
        });
    }

    /// Evaluate the tape for the run of cells whose first output lane sits
    /// at flat index `base` in `src`, leaving `out.len()` results in `out`,
    /// through the instance [`row_kernel_isa`] names: the AVX2 one where
    /// the CPU has AVX2, the baseline one everywhere else.
    fn eval_into<T: Element>(&self, src: &[T], base: usize, scratch: &mut [Vec<T>], out: &mut [T]) {
        #[cfg(target_arch = "x86_64")]
        if row_kernel_isa() == AVX2 {
            // SAFETY: `row_kernel_isa` names AVX2 only when
            // `is_x86_feature_detected!("avx2")` found it on this CPU, the
            // one precondition of calling an `avx2` target-feature function.
            #[allow(unsafe_code)]
            return unsafe { self.eval_into_avx2(src, base, scratch, out) };
        }
        self.eval_any(src, base, scratch, out);
    }

    /// [`RowKernel::eval_any`] compiled with AVX2 enabled: every pass
    /// inlined into it runs 256-bit vectors. FMA stays off, so each lane
    /// performs the baseline instance's IEEE-754 operations.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn eval_into_avx2<T: Element>(
        &self,
        src: &[T],
        base: usize,
        scratch: &mut [Vec<T>],
        out: &mut [T],
    ) {
        self.eval_any(src, base, scratch, out);
    }

    /// The tape evaluator, inlined into each instance so that every pass
    /// is compiled for that instance's vector width.
    ///
    /// `out` is the bottom row of the operand stack and `scratch` (at
    /// least `depth − 1` rows of at least `out.len()` lanes) the rows
    /// above it, so the value of the whole expression — the one row left
    /// on the stack — is produced in `out` directly. Neighbour rows are
    /// slices of `src` at `base + delta`, read in place.
    #[inline(always)]
    fn eval_any<T: Element>(&self, src: &[T], base: usize, scratch: &mut [Vec<T>], out: &mut [T]) {
        let lanes = out.len();
        let cells = |delta: isize| {
            let start = (base as isize + delta) as usize;
            &src[start..start + lanes]
        };
        let leaf = |operand: Operand| match operand {
            Operand::Const(c) => Src::Scalar(T::from_f64(c)),
            Operand::Cell(delta) => Src::Row(cells(delta)),
            Operand::Top | Operand::Dup => unreachable!("a popped row is not a leaf"),
        };
        // Stack row `k`: `out` for the bottom one, `scratch[k − 1]` above.
        fn row<'s, T>(out: &'s mut [T], scratch: &'s mut [Vec<T>], k: usize) -> &'s mut [T] {
            match k {
                0 => out,
                _ => &mut scratch[k - 1][..out.len()],
            }
        }
        let mut sp = 0usize;
        for op in &self.ops {
            match *op {
                TapeOp::Leaf(a) => {
                    sp += 1;
                    Map::Into(row(out, scratch, sp - 1), leaf(a)).run(|x| x);
                }
                TapeOp::Unary(op, a) => {
                    let map = if a == Operand::Top {
                        Map::InPlace(row(out, scratch, sp - 1))
                    } else {
                        sp += 1;
                        Map::Into(row(out, scratch, sp - 1), leaf(a))
                    };
                    match op {
                        UnOp::Neg => map.run(|x| -x),
                        UnOp::Sqrt => map.run(T::sqrt),
                    }
                }
                TapeOp::Binary(op, a, b) => {
                    let zip = match (a, b) {
                        (Operand::Top, Operand::Top) => {
                            sp -= 1;
                            let (below, top) = match sp {
                                1 => (&mut *out, &scratch[0][..lanes]),
                                _ => {
                                    let (below, top) = scratch.split_at_mut(sp - 1);
                                    (&mut below[sp - 2][..lanes], &top[0][..lanes])
                                }
                            };
                            Zip::Left(below, Src::Row(top))
                        }
                        (Operand::Top, Operand::Dup) => Zip::Both(row(out, scratch, sp - 1)),
                        (Operand::Top, b) => Zip::Left(row(out, scratch, sp - 1), leaf(b)),
                        (a, Operand::Top) => Zip::Right(leaf(a), row(out, scratch, sp - 1)),
                        (a, b) => {
                            sp += 1;
                            Zip::Into(row(out, scratch, sp - 1), leaf(a), leaf(b))
                        }
                    };
                    match op {
                        BinOp::Add => zip.run(|x, y| x + y),
                        BinOp::Sub => zip.run(|x, y| x - y),
                        BinOp::Mul => zip.run(|x, y| x * y),
                        BinOp::Div => zip.run(|x, y| x / y),
                    }
                }
                TapeOp::Chain {
                    fresh,
                    ref terms,
                    tail,
                } => {
                    sp += usize::from(fresh);
                    let acc = row(out, scratch, sp - 1);
                    // Groups of at most `CHAIN_GROUP` terms, each one pass
                    // continuing the sum where the last left it in `acc`.
                    let last = terms.len().div_ceil(CHAIN_GROUP) - 1;
                    for (g, group) in terms.chunks(CHAIN_GROUP).enumerate() {
                        let tail = tail.filter(|_| g == last);
                        chain_group(acc, fresh && g == 0, group, &cells, tail);
                    }
                }
                TapeOp::Pair {
                    op,
                    left,
                    right,
                    square,
                    fold,
                } => {
                    sp += usize::from(fold.is_none());
                    let acc = row(out, scratch, sp - 1);
                    pair_group(acc, cells(left), cells(right), op, square, fold);
                }
            }
        }
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
        for (k, mut rows) in tiles {
            run_tile(k, &mut rows);
        }
    })
}

/// Copy the `rad`-thick boundary ring of `from` into `to`: whole rows where
/// an outer coordinate lies in the ring, the two row ends elsewhere.
fn copy_boundary_ring<T: Element>(from: &Grid<T>, to: &mut Grid<T>, rad: usize) {
    let (&width, outer) = from.shape().split_last().expect("a grid has a dimension");
    let bounds: Vec<(usize, usize)> = outer.iter().map(|&e| (0, e)).collect();
    let (src, dst) = (from.as_slice(), to.as_mut_slice());
    let mut start = 0usize;
    for_each_row(&bounds, |index| {
        let mut copy = |cells: std::ops::Range<usize>| {
            dst[cells.clone()].copy_from_slice(&src[cells]);
        };
        let ring = |(&i, &e): (&usize, &usize)| i < rad || i >= e - rad;
        if index.iter().zip(outer).any(ring) {
            copy(start..start + width);
        } else {
            copy(start..start + rad);
            copy(start + width - rad..start + width);
        }
        start += width;
    });
}

/// The temporal-block driver behind every blocked run: one kernel launch
/// per temporal block over a pair of ping-pong grids (the host loop's
/// `A[t % 2]`), each launch being carve the interior of the other grid
/// into per-tile write-back rows → map the tiles, each storing its
/// finished rows where they belong → swap.
///
/// Nothing is cloned. The write-back regions of one launch tile the
/// interior exactly once, so whatever the grid being written held — two
/// launches ago, or nothing — is overwritten before the swap; the second
/// grid is therefore allocated zeroed and only ever receives, besides the
/// write-backs, the boundary ring, which never changes. The ring is copied
/// *after* the first launch: the strided copy would otherwise be the first
/// touch of every page of the fresh grid, on the driving thread, where the
/// tiles' own stores fault them in wherever they run.
///
/// `map_tiles(tiles, run_tile)` receives one `(k, rows)` item per tile —
/// its index and its carved write-back rows — and must call
/// `run_tile(k, &mut rows)` once for every item; it is free to do so on
/// any threads, because the tiles of one temporal block only read the
/// block's input grid and own disjoint rows of the other. Counters are a
/// pure function of tile geometry ([`TileContext::tile_counters`]) and are
/// summed here, in tile order, so grids and counter totals are independent
/// of that choice.
///
/// # Panics
///
/// Panics if the initial grid's shape does not match the problem.
#[must_use]
pub fn execute_plan_with<T: Element>(
    plan: &KernelPlan,
    problem: &StencilProblem,
    initial: Grid<T>,
    map_tiles: impl Fn(Vec<(usize, Vec<&mut [T]>)>, &(dyn Fn(usize, &mut [&mut [T]]) + Sync)),
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
    let mut next: Option<Grid<T>> = None;
    for chunk in temporal_chunks(problem.time_steps(), plan.config().bt()) {
        let first_launch = next.is_none();
        let target = next.get_or_insert_with(|| Grid::zeros(current.shape()));
        let rows = ctx.carve_rows(target);
        map_tiles(rows.into_iter().enumerate().collect(), &|k, rows| {
            ctx.execute_tile_into(&current, &tiles[k], chunk, rows);
        });
        if first_launch {
            copy_boundary_ring(&current, target, plan.def().radius());
        }
        for tile in tiles {
            counters += ctx.tile_counters(tile, chunk);
        }
        counters.kernel_launches += 1;
        std::mem::swap(&mut current, target);
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
    use an5d_stencil::exec::{eval_expr, run_reference};
    use an5d_stencil::{suite, StencilDef};

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

    /// A detached run with recognisable values, as `execute_tile_rows`
    /// would hand it out.
    fn run_over(origin: &[usize], region: &[usize], first: f64) -> TileRun<f64> {
        let cells: usize = region.iter().product();
        TileRun {
            origin: origin.to_vec(),
            region: region.to_vec(),
            values: (0..cells).map(|k| first + k as f64).collect(),
            counters: TrafficCounters::new(),
        }
    }

    /// The half-open stored-grid index range of a run's write-back region
    /// in every dimension.
    fn write_back_bounds(run: &TileRun<f64>) -> Vec<(usize, usize)> {
        let extents = run.origin.iter().zip(&run.region);
        extents.map(|(&o, &e)| (o, o + e)).collect()
    }

    /// What `apply_to` means: one bounds-checked `Grid::set` per cell of
    /// the region, in row-major order.
    fn apply_per_cell(run: &TileRun<f64>, next: &mut Grid<f64>) {
        let mut values = run.values.iter();
        for_each_row(&write_back_bounds(run), |index| {
            next.set(index, *values.next().expect("one value per region cell"));
        });
        assert!(values.next().is_none());
    }

    #[test]
    fn apply_to_equals_a_per_cell_write_back() {
        // An 8 × 9 stored grid of radius 1 (interior rows 1..=6, columns
        // 1..=7) and a 5 × 6 × 7 one, each split into regions that include
        // width-1 remainder columns, a single cell, and rows that touch the
        // last interior row and column.
        let runs_2d = vec![
            run_over(&[1, 1], &[3, 6], 100.0),
            run_over(&[1, 7], &[3, 1], 200.0),
            run_over(&[4, 1], &[3, 6], 300.0),
            run_over(&[4, 7], &[2, 1], 400.0),
            run_over(&[6, 7], &[1, 1], 500.0),
        ];
        let runs_3d = vec![
            run_over(&[1, 1, 1], &[2, 4, 4], 100.0),
            run_over(&[1, 1, 5], &[3, 4, 1], 200.0),
            run_over(&[3, 1, 1], &[1, 2, 4], 300.0),
            run_over(&[3, 3, 1], &[1, 2, 4], 400.0),
        ];
        for (shape, runs) in [(vec![8, 9], runs_2d), (vec![5, 6, 7], runs_3d)] {
            let blank = Grid::<f64>::from_init(&shape, GridInit::Constant(-1.0));
            let mut expected = blank.clone();
            for run in &runs {
                apply_per_cell(run, &mut expected);
            }
            let mut forward = blank.clone();
            for run in &runs {
                run.apply_to(&mut forward);
            }
            let mut reverse = blank.clone();
            for run in runs.iter().rev() {
                run.apply_to(&mut reverse);
            }
            assert_eq!(forward, expected, "{shape:?}: forward order");
            assert_eq!(reverse, expected, "{shape:?}: reverse order");
            // Exactly the interior was written, nothing of the ring.
            let written = expected.as_slice().iter().filter(|&&v| v >= 0.0).count();
            assert_eq!(written, blank.interior_len(1), "{shape:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds grid extent 8 in dimension 1")]
    fn apply_to_rejects_a_grid_the_region_does_not_fit() {
        // Rows of a narrower grid are shorter: flat copies would wrap.
        run_over(&[1, 1], &[3, 8], 0.0).apply_to(&mut Grid::<f64>::zeros(&[8, 8]));
    }

    #[test]
    #[should_panic(expected = "region has rank 2 but the grid has rank 3")]
    fn apply_to_rejects_a_grid_of_another_rank() {
        run_over(&[1, 1], &[2, 2], 0.0).apply_to(&mut Grid::<f64>::zeros(&[4, 4, 4]));
    }

    /// One blocked-execution geometry: stencil, interior, steps, `bT`,
    /// `bS`, `hS_N`.
    type Geometry = (
        StencilDef,
        &'static [usize],
        usize,
        usize,
        &'static [usize],
        Option<usize>,
    );

    /// The nine tile geometries of the `rows_path_matches_scalar_path_*`
    /// tests.
    fn tile_geometries() -> Vec<Geometry> {
        vec![
            (suite::j2d5pt(), &[24, 30], 7, 3, &[16], None),
            (suite::j2d9pt(), &[20, 26], 6, 2, &[18], None),
            (suite::box2d(1), &[16, 16], 5, 2, &[12], None),
            (suite::gradient2d(), &[18, 18], 4, 2, &[14], None),
            (suite::j2d5pt(), &[32, 20], 6, 2, &[16], Some(8)),
            (suite::star3d(1), &[10, 12, 14], 5, 2, &[10, 12], None),
            (suite::j3d27pt(), &[12, 10, 10], 4, 1, &[8, 8], Some(6)),
            (suite::star2d(2), &[17, 13], 5, 2, &[13], None),
            (suite::j2d5pt(), &[9, 25], 4, 3, &[11], Some(5)),
        ]
    }

    #[test]
    fn write_back_regions_of_a_block_tile_the_interior_exactly_once() {
        // What lets the driver ping-pong two grids instead of cloning one
        // per launch: a launch overwrites every interior cell, once.
        for (def, interior, steps, bt, bs, hsn) in tile_geometries() {
            let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
            let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let ctx = TileContext::new(&plan, &problem);
            let shape = problem.grid_shape();
            let current = Grid::<f64>::from_init(&shape, GridInit::Hash { seed: 2 });
            let mut writes = Grid::<f64>::zeros(&shape);
            for tile in ctx.tiles() {
                let run = ctx.execute_tile_rows(&current, tile, bt);
                for_each_row(&write_back_bounds(&run), |index| {
                    writes.set(index, writes.get(index) + 1.0);
                });
            }
            let rad = def.radius();
            let expected = Grid::<f64>::from_fn(&shape, |index| {
                let interior = index
                    .iter()
                    .zip(&shape)
                    .all(|(&i, &extent)| i >= rad && i < extent - rad);
                f64::from(u8::from(interior))
            });
            assert_eq!(writes, expected, "{}: writes per cell", def.name());
        }
    }

    #[test]
    fn carved_rows_are_the_write_back_regions_row_by_row() {
        // What lets any thread store a finished tile with no lock: the
        // carved `&mut` rows of a launch are the write-back regions
        // themselves — every interior cell in exactly one list, in the
        // region's row-major order, and no cell of the boundary ring. The
        // two extra geometries end in a remainder tile in every dimension.
        let mut geometries = tile_geometries();
        geometries.push((suite::star3d(1), &[11, 13, 15], 2, 2, &[9, 10], Some(4)));
        geometries.push((suite::star2d(2), &[19, 23], 3, 1, &[11], Some(7)));
        for (def, interior, steps, bt, bs, hsn) in geometries {
            let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
            let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let ctx = TileContext::new(&plan, &problem);
            let shape = problem.grid_shape();
            let inner = shape.len() - 1;
            // Tile `k` marks its `n`-th cell (row-major in its region).
            let mark = |k: usize, n: usize| (k * 1_000_000 + n + 1) as f64;

            let mut carved = Grid::<f64>::zeros(&shape);
            let mut expected = Grid::<f64>::zeros(&shape);
            let lists = ctx.carve_rows(&mut carved);
            assert_eq!(lists.len(), ctx.tiles().len(), "{}", def.name());
            let mut cells = 0usize;
            for (k, (tile, rows)) in ctx.tiles().iter().zip(lists).enumerate() {
                let (origin, region) = ctx.write_back(tile);
                let row_count: usize = region[..inner].iter().product();
                assert_eq!(rows.len(), row_count, "{} tile {k}", def.name());
                for (r, row) in rows.into_iter().enumerate() {
                    assert_eq!(row.len(), region[inner], "{} tile {k}", def.name());
                    for (i, cell) in row.iter_mut().enumerate() {
                        *cell = mark(k, r * region[inner] + i);
                    }
                    cells += row.len();
                }
                let bounds: Vec<(usize, usize)> = origin
                    .iter()
                    .zip(&region)
                    .map(|(&o, &e)| (o, o + e))
                    .collect();
                let mut n = 0usize;
                for_each_row(&bounds, |index| {
                    assert_eq!(expected.get(index), 0.0, "{}: regions overlap", def.name());
                    expected.set(index, mark(k, n));
                    n += 1;
                });
            }
            assert_eq!(cells, carved.interior_len(def.radius()), "{}", def.name());
            assert_eq!(carved, expected, "{}", def.name());
            let rad = def.radius();
            let all: Vec<(usize, usize)> = shape.iter().map(|&e| (0, e)).collect();
            for_each_row(&all, |index| {
                let ring = index
                    .iter()
                    .zip(&shape)
                    .any(|(&i, &e)| i < rad || i >= e - rad);
                assert_eq!(carved.get(index) == 0.0, ring, "{} {index:?}", def.name());
            });
        }
    }

    #[test]
    fn ping_pong_grids_match_reference_for_any_number_of_blocks() {
        // No block (the input comes back untouched and no second grid is
        // allocated), 1 block (bT > steps: the grid returned is the one
        // that was allocated zeroed, so it holds the boundary ring only
        // because the ring was copied — whole grids are compared, ring
        // included), 2 (even), 3 (odd, with a remainder block) and 4: from
        // the third launch on, the grid being written still holds the
        // interior of two launches ago.
        for (steps, bt, launches) in [(0, 3, 0), (2, 3, 1), (6, 3, 2), (7, 3, 3), (8, 2, 4)] {
            for (def, interior, bs, hsn) in [
                (suite::j2d5pt(), &[20, 23][..], &[12][..], Some(8)),
                (suite::gradient2d(), &[18, 18][..], &[14][..], None),
                (suite::star3d(1), &[9, 10, 11][..], &[8, 9][..], None),
            ] {
                let double = check_equivalence_in::<f64>(&def, interior, steps, bt, bs, hsn);
                let single = check_equivalence_in::<f32>(&def, interior, steps, bt, bs, hsn);
                assert_eq!(double.kernel_launches, launches);
                assert_eq!(single.kernel_launches, launches);
            }
        }
    }

    /// SplitMix64: the seeded generator of the tape tests.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value in `[0.5, 2.5)` with a full mantissa.
        fn value(&mut self) -> f64 {
            0.5 + 2.0 * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn cell(&mut self) -> Expr {
            Expr::cell(&[self.below(5) as i32 - 2, self.below(5) as i32 - 2])
        }

        /// A random *non-leaf* tree of at most `depth + 1` operation levels.
        fn node(&mut self, depth: usize) -> Expr {
            match self.below(3) {
                0 => Expr::sqrt(self.tree(depth)),
                1 => self.tree(depth) * self.tree(depth),
                _ => self.tree(depth) - self.tree(depth),
            }
        }

        fn leaf(&mut self) -> Expr {
            if self.below(3) == 0 {
                Expr::constant(self.value())
            } else {
                self.cell()
            }
        }

        /// A random tree of about `depth` operation levels over 2D offsets
        /// of radius ≤ 2.
        fn tree(&mut self, depth: usize) -> Expr {
            if depth == 0 || self.below(5) == 0 {
                return self.leaf();
            }
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][self.below(4) as usize];
            match self.below(7) {
                0 => -self.tree(depth - 1),
                1 => Expr::sqrt(self.tree(depth - 1)),
                2 => {
                    // The same non-leaf subtree on both sides.
                    let shared = self.node(depth - 1);
                    binary(op, shared.clone(), shared)
                }
                _ => binary(op, self.tree(depth - 1), self.tree(depth - 1)),
            }
        }
    }

    /// `a op b`, built by the operator overloads.
    fn binary(op: BinOp, a: Expr, b: Expr) -> Expr {
        match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }

    /// Values that tell a wrong start or a reassociated sum apart: signed
    /// zeros, subnormals, infinities and NaN.
    const SPECIALS: [f64; 8] = [
        -0.0,
        0.0,
        5e-324,
        -1e-310,
        1e-45,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// Both instances of `RowKernel`'s evaluator — the baseline one
    /// called directly and, where [`row_kernel_isa`] names another, the
    /// one the dispatch picks — must give every lane the bits `eval_expr`
    /// gives it, on ordinary values and — every fourth cell — on
    /// [`SPECIALS`].
    fn check_tape_against_eval_expr<T: Element>(expr: &Expr, lanes: usize, rng: &mut SplitMix) {
        // A 5-row local box with two halo cells on every side.
        let rad = 2usize;
        let strides = [lanes + 2 * rad, 1];
        let src: Vec<T> = (0..5 * strides[0])
            .map(|_| match rng.below(4) {
                0 => T::from_f64(SPECIALS[rng.below(8) as usize]),
                _ => T::from_f64(rng.value()),
            })
            .collect();
        let base = rad * strides[0] + rad;
        let kernel = RowKernel::compile(expr, &strides);
        let run = |dispatched: bool| {
            let mut scratch: Vec<Vec<T>> =
                (1..kernel.depth).map(|_| vec![T::ZERO; lanes]).collect();
            // Poisoned: the tape must overwrite every lane of `out`.
            let mut out = vec![T::from_f64(f64::NAN); lanes];
            if dispatched {
                kernel.eval_into(&src, base, &mut scratch, &mut out);
            } else {
                kernel.eval_any(&src, base, &mut scratch, &mut out);
            }
            out
        };
        let mut instances = vec![("baseline", run(false))];
        if row_kernel_isa() != "baseline" {
            instances.push((row_kernel_isa(), run(true)));
        }
        for (instance, out) in instances {
            for (lane, &got) in out.iter().enumerate() {
                let want: T = eval_expr(expr, &|offset: an5d_expr::Offset| {
                    let delta = offset.component(0) as isize * strides[0] as isize
                        + offset.component(1) as isize;
                    src[((base + lane) as isize + delta) as usize]
                });
                let (got, want) = (got.into_f64(), want.into_f64());
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{:?} {instance} lane {lane}/{lanes}: tape {got:e}, eval_expr {want:e} for {expr:?}",
                    T::PRECISION
                );
            }
        }
    }

    impl SplitMix {
        /// One chain term over a random cell: `c·x`, `x·c` or a bare `x`.
        fn term(&mut self) -> Expr {
            let x = self.cell();
            match self.below(3) {
                0 => Expr::constant(self.value()) * x,
                1 => x * Expr::constant(self.value()),
                _ => x,
            }
        }

        /// A left-associated sum of `terms` terms that starts with a
        /// product, its terms joined by `+` or — when `mixed` — `−` too.
        fn chain(&mut self, terms: usize, mixed: bool) -> Expr {
            let first = Expr::constant(self.value()) * self.term();
            (1..terms).fold(first, |sum, _| {
                if mixed && self.below(2) == 0 {
                    sum - self.term()
                } else {
                    sum + self.term()
                }
            })
        }
    }

    #[test]
    fn tape_matches_eval_expr_bitwise_on_random_trees() {
        let c = || Expr::constant(1.7);
        let x = || Expr::cell(&[0, 1]);
        let y = || Expr::cell(&[-1, 0]);
        let inner = || x() * y() + c();
        // Every operand form by hand — leaf on the left of the
        // non-commutative operations included — then seeded random trees.
        let mut exprs = vec![
            x(),
            c(),
            c() - x(),
            c() / x(),
            x() / c(),
            x() - c(),
            c() / c(),
            c() - c(),
            x() - y(),
            x() / y(),
            c() - inner(),
            c() / inner(),
            x() / inner(),
            inner() / x(),
            inner() - c(),
            inner() / inner(),
            inner() - Expr::sqrt(inner()),
            -x(),
            -c(),
            Expr::sqrt(x()),
            -Expr::sqrt(inner()),
        ];
        let mut rng = SplitMix(0x5EED);
        exprs.extend((0..200).map(|k| rng.tree(1 + k % 5)));
        // Chain shapes: term counts on either side of every group
        // boundary, each alone, under each trailing `∘ const`, as the
        // right operand of a non-commutative operation, and continuing
        // from a row that is not a product.
        for terms in [1, 2, 7, 8, 9, 16, 17, 40] {
            for mixed in [false, true] {
                exprs.push(rng.chain(terms, mixed));
                exprs.push(rng.chain(terms, mixed) + c());
                exprs.push(rng.chain(terms, mixed) - c());
                exprs.push(rng.chain(terms, mixed) * c());
                exprs.push(rng.chain(terms, mixed) / c());
                exprs.push(c() - rng.chain(terms, mixed));
                exprs.push(c() / rng.chain(terms, mixed));
                exprs.push(Expr::sqrt(x()) - rng.term() + rng.chain(terms, mixed));
            }
        }
        // One subtree on both sides of every operation (compiled once, the
        // instruction combines the row with itself), nested too.
        const OPS: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
        for op in OPS {
            for depth in 0..3 {
                let shared = rng.node(depth);
                exprs.push(binary(op, shared.clone(), shared.clone()));
                let twice = binary(BinOp::Mul, shared.clone(), shared);
                exprs.push(binary(op, twice.clone(), twice.clone()));
                exprs.push(binary(op, inner(), twice));
            }
        }
        // Pairs `x_a ∘ x_b` of neighbour rows: alone; under every
        // self-combination (only the square fuses); folded into a row
        // below — a generic one, another pair, a chain — with every
        // operation; and as the *left* operand of every operation, where
        // the fold that follows is `pair ∘ row` and must not fuse.
        for pair_op in OPS {
            let mut pair = || binary(pair_op, rng.cell(), rng.cell());
            let mut values = vec![pair()];
            for own in OPS {
                let v = pair();
                values.push(binary(own, v.clone(), v));
            }
            for v in values {
                exprs.push(v.clone());
                for fold in OPS {
                    exprs.push(binary(fold, Expr::sqrt(inner()), v.clone()));
                    exprs.push(binary(fold, v.clone(), Expr::sqrt(inner())));
                    exprs.push(binary(fold, v.clone(), v.clone()));
                    exprs.push(binary(fold, v.clone() + c(), v.clone()));
                    exprs.push(binary(fold, v.clone(), y()));
                    exprs.push(binary(fold, y(), v.clone()));
                }
            }
        }
        for terms in [1, 3, 9] {
            for fold in OPS {
                let diff = x() - y();
                let after_chain = binary(fold, rng.chain(terms, true), diff.clone() * diff);
                exprs.push(binary(fold, after_chain, rng.cell() / rng.cell()));
                exprs.push(binary(fold, x() * y(), rng.chain(terms, true)));
            }
        }
        if row_kernel_isa() == "baseline" {
            println!("no AVX2 on this CPU: only the baseline row-kernel instance was checked");
        }
        // Around every vector width and unrolled block of either instance,
        // so each remainder loop runs too.
        for expr in &exprs {
            for lanes in [0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 257] {
                check_tape_against_eval_expr::<f64>(expr, lanes, &mut rng);
                check_tape_against_eval_expr::<f32>(expr, lanes, &mut rng);
            }
        }
    }

    #[test]
    fn compiled_tapes_fuse_their_leaves() {
        // j2d5pt: five c·x products, four sums, one division — one chain,
        // every constant and neighbour row an operand of it, the running
        // sum in a register and no scratch row.
        let strides = [100usize, 1];
        let term = |coef: f64, delta: isize| Term { coef, delta };
        let j2d5pt = RowKernel::compile(suite::j2d5pt().expr(), &strides);
        assert_eq!(
            j2d5pt.ops,
            vec![TapeOp::Chain {
                fresh: true,
                terms: vec![
                    term(5.1, -100),
                    term(12.1, -1),
                    term(15.0, 0),
                    term(12.2, 1),
                    term(5.2, 100),
                ],
                tail: Some((BinOp::Div, 118.0)),
            }]
        );
        assert_eq!(j2d5pt.depth, 1);

        // star3d1r: the centre and the six axial neighbours, no tail.
        let star3d1r = RowKernel::compile(suite::star3d(1).expr(), &[10_000, 100, 1]);
        match star3d1r.ops.as_slice() {
            [TapeOp::Chain {
                fresh: true,
                terms,
                tail: None,
            }] => {
                let mut deltas: Vec<isize> = terms.iter().map(|t| t.delta).collect();
                deltas.sort_unstable();
                assert_eq!(deltas, [-10_000, -100, -1, 0, 1, 100, 10_000]);
            }
            ops => panic!("star3d1r is one chain of seven terms, not {ops:?}"),
        }
        assert_eq!(star3d1r.depth, 1);

        // A subtracted product is the negated coefficient added, a bare
        // cell the coefficient one; a chain continues from a row that is
        // not a product, and stops at anything that is not a term.
        let x = |j: i32| Expr::cell(&[0, j]);
        let mixed = Expr::sqrt(x(0)) - Expr::constant(2.0) * x(1) + x(2) - x(3);
        assert_eq!(
            RowKernel::compile(&(mixed * x(4)), &strides).ops,
            vec![
                TapeOp::Unary(UnOp::Sqrt, Operand::Cell(0)),
                TapeOp::Chain {
                    fresh: false,
                    terms: vec![term(-2.0, 1), term(1.0, 2), term(-1.0, 3)],
                    tail: None,
                },
                TapeOp::Binary(BinOp::Mul, Operand::Top, Operand::Cell(4)),
            ]
        );

        // gradient2d: 0.5·f and the running sum are the only rows. Every
        // difference is compiled once (`Dup`), squared in a register and —
        // from the second on — folded into the sum in the same pass; only
        // `1 + …`, `sqrt`, `1/x` and the final sum stay generic.
        let gradient2d = RowKernel::compile(suite::gradient2d().expr(), &strides);
        let diff_sq = |right: isize, fold: Option<BinOp>| TapeOp::Pair {
            op: BinOp::Sub,
            left: 0,
            right,
            square: true,
            fold,
        };
        assert_eq!(
            gradient2d.ops,
            vec![
                TapeOp::Binary(BinOp::Mul, Operand::Const(0.5), Operand::Cell(0)),
                diff_sq(100, None),
                TapeOp::Binary(BinOp::Add, Operand::Const(1.0), Operand::Top),
                diff_sq(-100, Some(BinOp::Add)),
                diff_sq(1, Some(BinOp::Add)),
                diff_sq(-1, Some(BinOp::Add)),
                TapeOp::Unary(UnOp::Sqrt, Operand::Top),
                TapeOp::Binary(BinOp::Div, Operand::Const(1.0), Operand::Top),
                TapeOp::Binary(BinOp::Add, Operand::Top, Operand::Top),
            ]
        );
        assert_eq!(gradient2d.depth, 2);
    }

    #[test]
    fn multi_row_runs_match_row_at_a_time_and_leave_the_gaps_alone() {
        // Local boxes whose plane has 7 updatable rows, taken three at a
        // time (3 + 3 + 1): two dimensions are a single plane, the 3D
        // boxes have one plane and three.
        let cases: [(StencilDef, &[usize]); 4] = [
            (suite::j2d5pt(), &[9, 13]),
            (suite::star2d(2), &[11, 14]),
            (suite::star3d(1), &[3, 9, 8]),
            (suite::star3d(2), &[7, 11, 9]),
        ];
        for (def, local_shape) in cases {
            let rad = def.radius();
            let width = local_shape[local_shape.len() - 1];
            let kernel = RowKernel::compile(def.expr(), &row_major_strides(local_shape));
            let upd: Vec<(usize, usize)> = local_shape.iter().map(|&e| (rad, e - rad)).collect();
            let mut rng = SplitMix(0xA11);
            let cells: usize = local_shape.iter().product();
            let loaded: Vec<f32> = (0..cells).map(|_| rng.value() as f32).collect();
            let (mut src, mut dst) = (loaded.clone(), loaded.clone());
            let (mut by_row_src, mut by_row_dst) = (loaded.clone(), loaded.clone());
            let (mut scratch, mut by_row_scratch) = (Vec::new(), Vec::new());
            for step in 0..3 {
                kernel.step(&src, &mut dst, local_shape, &upd, 3 * width, &mut scratch);
                let (from, to) = (&by_row_src, &mut by_row_dst);
                kernel.step(from, to, local_shape, &upd, 0, &mut by_row_scratch);
                let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&dst), bits(&by_row_dst), "{} step {step}", def.name());
                // Everything outside the updatable box — the gaps between
                // the rows of a run included — still holds what was loaded.
                let all: Vec<(usize, usize)> = local_shape.iter().map(|&e| (0, e)).collect();
                let mut flat = 0usize;
                for_each_row(&all, |index| {
                    let updatable = index.iter().zip(&upd).all(|(&i, &(l, h))| i >= l && i < h);
                    if !updatable {
                        assert_eq!(dst[flat], loaded[flat], "{} {index:?}", def.name());
                    }
                    flat += 1;
                });
                std::mem::swap(&mut src, &mut dst);
                std::mem::swap(&mut by_row_src, &mut by_row_dst);
            }
            assert_ne!(src, loaded, "{}: the steps updated something", def.name());
        }
    }

    #[test]
    fn updatable_box_is_rad_in_from_every_face_and_inside_the_interior() {
        // The runs rely on the gap between two rows of a plane being
        // exactly `2·rad`; the boundary ring relies on `rad` in from the
        // local box never being closer than `rad` to the grid's faces.
        for (def, interior, steps, bt, bs, hsn) in tile_geometries() {
            let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
            let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let ctx = TileContext::new(&plan, &problem);
            let rad = def.radius();
            for tile in ctx.tiles() {
                for (t, &extent) in tile.dims().iter().zip(&ctx.shape) {
                    let (local, upd) = (t.local(), t.updatable());
                    assert_eq!(upd, local.start + rad..local.end - rad);
                    assert!(!upd.is_empty(), "{}: empty updatable range", def.name());
                    assert!(
                        upd.start >= rad && upd.end <= extent - rad,
                        "{}: updates the ring",
                        def.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile input grid has shape [18, 19]")]
    fn execute_tile_rows_rejects_a_grid_of_another_shape() {
        // Same cell count per row pair, other row length: flat offsets
        // would read the wrong cells without a panic.
        let def = suite::j2d5pt();
        let problem = StencilProblem::new(def.clone(), &[16, 16], 2).unwrap();
        let config = BlockConfig::new(1, &[8], None, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        let ctx = TileContext::new(&plan, &problem);
        let wrong = Grid::<f64>::zeros(&[18, 19]);
        let _ = ctx.execute_tile_rows(&wrong, &ctx.tiles()[0], 1);
    }

    #[test]
    #[should_panic(
        expected = "plan was tiled for interior [24, 30] but the problem's interior is [24, 32]"
    )]
    fn a_plan_tiled_for_other_extents_is_rejected() {
        // Same stencil, same rank, other extents: the plan's tiles would
        // carve the wrong rows of a 24 × 32 grid.
        let def = suite::j2d5pt();
        let tiled_for = StencilProblem::new(def.clone(), &[24, 30], 3).unwrap();
        let config = BlockConfig::new(3, &[16], None, Precision::Double).unwrap();
        let plan = KernelPlan::build(&def, &tiled_for, &config, FrameworkScheme::an5d()).unwrap();
        let other = StencilProblem::new(def, &[24, 32], 3).unwrap();
        let _ = TileContext::new(&plan, &other);
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
