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
//! `TileContext::execute_tile_into` stores the rows where they belong,
//! into the tile's entry of `TileContext::carve_rows`, and
//! [`TileContext::execute_tile_rows`] collects them into a detached
//! [`TileRun`] that [`TileRun::apply_to`] row-copies into a grid later (the
//! form tests and the benchmark's stage-by-stage replay use). What a tile
//! counts is a pure function of its geometry,
//! [`TileContext::tile_counters`], so neither sink returns counters from
//! the thread that ran the tile.
//!
//! **Carved rows.** Every launch writes the whole grid it targets, ring
//! included. A tile's *stored box* is its write-back region, widened over
//! the boundary ring on every face of the grid the tile lies against; the
//! stored boxes of one launch tile the grid exactly once. An edge tile's
//! local box already holds the ring cells next to it, loaded and never
//! updated, so storing them costs a few cells per row and no step.
//! `carve_rows` walks the rows of the grid being written once and splits
//! them, with safe `split_at_mut`, into one list of `&mut` rows per tile,
//! after a plan [`TileContext::new`] works out once per run (the owning
//! tile of each stored row and the innermost cut points): ownership of
//! every cell is handed to exactly one tile before the launch, so tiles
//! store their results from whatever thread runs them with no lock, no
//! detached copy and nothing left for the driving thread to apply. The
//! counters still describe the write-back region alone.
//!
//! [`execute_plan_with`] is the one temporal-block driver built from those
//! pieces: it ping-pongs two grids like the generated host loop ping-pongs
//! `A[t % 2]`, and its caller only chooses how the `(tile, rows)` items of
//! a block are mapped ([`execute_plan_on`] maps them inline, the
//! `an5d-backend` crate over scoped threads), so every schedule produces
//! bit-identical grids and counter totals by construction. Nothing is
//! cloned and nothing is prepared: a launch overwrites every cell of the
//! other grid, so whatever that grid held does not matter. Like the host
//! code, which allocates its two device buffers once, the caller keeps
//! that partner grid between runs: a run writes into the one it is handed
//! when the shape matches (a fresh grid otherwise) and leaves there, at
//! its end, the grid it does not return.
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
//! below (`below ∘ v`) into one *pair* whose value never leaves a
//! register — the counterpart of a chain term where the operations do not
//! associate.
//!
//! **Pair sums and suffixes.** Two more peepholes run after those. A run
//! of pairs of one operation and square, each folded into the row below
//! by one operation, becomes one *pair sum* of up to eight pairs (a longer
//! run goes on from the top row), its running value starting at the first
//! pair, at the top row or — for `c ∘ v` right after the first pair, `∘`
//! the run's fold — at `c`. Then every pair sum absorbs the instructions
//! after it that only map its value lane by lane (`op v`, `v ∘ c`,
//! `c ∘ v`) and at most one fold of it into the row below, its *suffix*.
//! A pair sum runs as one pass over chunks of 32 lanes held in a register
//! array: pairs, then one `match` per suffix operation per chunk, then one
//! store or fold.
//! When the suffix takes a root or a quotient, that pass is what lets the
//! divider overlap the rest: row passes of their own ran the divider
//! alone, one whole row after another, while in one pass the next chunk's
//! loads, products and sums — and the integer work of the dispatch — run
//! while the divider works on this chunk. gradient2d
//! (`0.5·f + 1/sqrt(1 + Σ (f − fₙ)²)`) went from twenty passes and a
//! four-row stack to nine passes and two rows with pairs, and is two
//! instructions over one row with pair sums and suffixes: `0.5·f`, then
//! the four squares summed from 1, the root, the reciprocal and the fold
//! into `0.5·f` in one pass. A chain takes no suffix: it has one loop
//! shape, the row loop above, and the instructions after it keep their own
//! passes. (Through 32-lane chunks, j2d5pt's chain ran at about half the
//! row loop's speed.)
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
//! never interact, and a chain adds its terms in source order, each product
//! rounded before it is added (no `mul_add`, no reassociation, a division
//! gives the bits of `/`; "Why the bits do not change" below names the one
//! place it is not a divide instruction). The two rewrites a chain does
//! make are exact in IEEE 754: `a − c·x` is evaluated as `a + (−c)·x`
//! (negation is exact and subtraction *is* addition of the negated
//! operand), a bare `± x` as `+ (±1)·x`, and a fresh chain starts from
//! `c₀·x₀` itself, not from `0 + c₀·x₀` (which would lose the sign of a
//! negative zero). A shared subtree is evaluated once where `eval_expr`
//! evaluates it twice — the same operations on the same operands, hence the
//! same bits, combined by the same operation. A pair sum and a suffix
//! perform the scalar operations of the instructions they replace on the
//! same operands in the same order (`xₐ ∘ x_b`, then `v·v`, then
//! `acc ∘ v`, then each map, then `below ∘ v` with `v` on the right as on
//! the tape); only the stores and reloads between them are gone, and a
//! value does not change by staying in a register (Rust floats are
//! evaluated in their own precision). A lane a chunked pass computes twice
//! (its last chunk overlaps the one before) is stored once. The cone
//! changes which cells are computed, never how. That keeps the result
//! bit-identical to the naive per-cell reference sweep for both `f32` and
//! `f64`.
//!
//! # Three instances, picked at run time
//!
//! Once the tape has taken the row traffic away, the passes are bound by
//! arithmetic throughput, so their vector width matters. The tape
//! evaluator is one `#[inline(always)]` function compiled three times: at
//! the target's baseline features (SSE2, 128-bit, on x86-64), as
//! `RowKernel::eval_into_avx2` under `#[target_feature(enable =
//! "avx2")]`, and as `RowKernel::eval_into_avx512` under
//! `#[target_feature(enable = "avx512f")]`, which implies AVX2 and FMA.
//! The dispatcher, `RowKernel::eval_into`, calls the widest instance
//! [`row_kernel_isa`] — `is_x86_feature_detected!` of `avx512f`, then
//! `avx2`, a cached flag — says the CPU has, and the baseline instance on
//! every other CPU and target. There is no option to choose: all three
//! give the same bits.
//!
//! **Where the dispatch sits.** At `eval_into`: one check per run of
//! about a thousand lanes, and every pass (`Map::run`, `Zip::run`, the
//! chain and pair passes and the closures they are monomorphic in) is
//! force-inlined below it, so the AVX2 and AVX-512 instances really
//! contain 256- and 512-bit loops. One level up, at `RowKernel::step`,
//! the row walk's closure was outlined and compiled at baseline width:
//! that instance held a few dozen ymm instructions and gained nothing. CI
//! disassembles a release binary and fails unless each `eval_into_avx2`
//! is mostly ymm code and each `eval_into_avx512` mostly zmm code.
//!
//! **Why the bits do not change.** Rust never contracts `a·b + c`, and the
//! baseline and AVX2 instances have no FMA at all: each lane of them
//! performs the same IEEE-754 operation on the same operands in the same
//! order — no reassociation, a division stays a division — and SSE2, AVX
//! and AVX-512 instructions round and treat subnormals by the same MXCSR
//! state. A wider vector only evaluates more independent lanes at once.
//! Fused operations appear in one place: the AVX-512 instance divides a
//! fresh chain by its constant `c` as `q0 = acc·(1/c)`,
//! then the remainder `r = acc − q0·c` and `q = q0 + r·(1/c)`, each one
//! fused operation (`Reciprocal`), because at 512 bits the divider, whose
//! per-lane rate
//! no vector width changes, bounds j2d5pt's `/ 118`. That `q` is `acc / c`
//! correctly rounded — the bits of `/` — by Markstein's theorem, for a
//! positive `c` whose reciprocal meets its precondition and an `acc` for
//! which nothing under- or overflows; any other `c` keeps `/`, a run with
//! any other lane is summed again and divided with `/`. Written as
//! `q0 − fma(q0, c, −acc)·(1/c)`, the correction leaves a zero `acc`'s
//! sign in place for a positive `c`. GPUs divide the same way: their IEEE
//! division is a reciprocal refined by FMA.

use crate::TrafficCounters;
use an5d_expr::{BinOp, Expr, Node, UnOp};
use an5d_grid::{Element, Grid, GridInit, Precision};
use an5d_plan::{practical_shared_reads, DimTile, KernelPlan};
use an5d_stencil::StencilProblem;
use std::ops::Range;

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

/// The detached result of executing one tile: the values of its stored
/// box — its write-back (compute) region plus the boundary-ring cells it
/// owns — and the counters the tile accumulated.
///
/// Tiles of one temporal block have pairwise-disjoint stored boxes, so a
/// set of `TileRun`s can be produced on any number of threads and applied
/// in any order without changing the resulting grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRun<T> {
    /// Origin of the stored box in stored-grid coordinates.
    origin: Vec<usize>,
    /// Shape of the stored box.
    region: Vec<usize>,
    /// Row-major values of the stored box.
    values: Vec<T>,
    /// Counters accumulated while executing this tile.
    pub counters: TrafficCounters,
}

impl<T: Element> TileRun<T> {
    /// Write this tile's stored box into the output grid: one contiguous
    /// row copy per innermost row of the box.
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
    tiles: Vec<TileSpec>,
    /// For every row of the stored grid (every index but the innermost, in
    /// row-major order), the tile whose stored box holds the row's first
    /// cell; the rest of the row belongs to the tiles after it in order.
    row_owner: Vec<usize>,
    /// The widths of the innermost tiles' stored boxes, in order: where
    /// `carve_rows` cuts every row.
    row_cuts: Vec<usize>,
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

        // Where `carve_rows` cuts the grid: every row at the innermost
        // tiles' stored widths, its first piece going to the row's owning
        // tile — the index, in the row-major tile order, of the tile whose
        // stored box holds the row, built up one outer dimension at a time.
        let shape = problem.grid_shape();
        let rad = def.radius();
        let inner = shape.len() - 1;
        let widths = |d: usize| -> Vec<usize> {
            dim_tiles[d]
                .iter()
                .map(|t| stored_range(t, shape[d], rad).len())
                .collect()
        };
        let tile_strides = row_major_strides(&dim_tiles.iter().map(Vec::len).collect::<Vec<_>>());
        let mut row_owner = vec![0usize];
        for (d, &stride) in tile_strides[..inner].iter().enumerate() {
            let along = widths(d);
            row_owner = row_owner
                .iter()
                .flat_map(|&above| {
                    let rows = along.iter().enumerate();
                    rows.flat_map(move |(t, &w)| std::iter::repeat_n(above + t * stride, w))
                })
                .collect();
        }
        let row_cuts = widths(inner);

        Self {
            plan,
            shape,
            tiles,
            row_owner,
            row_cuts,
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

    /// A tile's stored box — everything it stores: its write-back region
    /// plus the boundary-ring cells next to it — as `(origin, shape)` in
    /// stored-grid coordinates. The stored boxes of a launch tile the grid.
    fn stored_box(&self, tile: &TileSpec) -> (Vec<usize>, Vec<usize>) {
        let rad = self.plan.def().radius();
        let dims = tile.dims.iter().zip(&self.shape);
        dims.map(|(t, &extent)| {
            let cells = stored_range(t, extent, rad);
            (cells.start, cells.len())
        })
        .unzip()
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

    /// Carve all of `next` into the stored rows of every tile: entry `k`
    /// holds, in the stored box's row-major order, one `&mut` slice per
    /// innermost row of the stored box of `tiles()[k]`.
    ///
    /// The stored boxes of one temporal block tile the grid exactly once,
    /// so one walk over the grid's rows with `split_at_mut`, cutting each
    /// at the same points, hands every cell to exactly one list — which is
    /// what lets any thread store a finished tile straight into the grid
    /// with no further synchronisation, and what leaves nothing of the
    /// grid's previous contents behind.
    ///
    /// # Panics
    ///
    /// Panics if `next` does not have the problem's padded grid shape.
    pub(crate) fn carve_rows<'g, T: Element>(
        &self,
        next: &'g mut Grid<T>,
    ) -> Vec<Vec<&'g mut [T]>> {
        assert_eq!(
            next.shape(),
            self.shape.as_slice(),
            "tile output grid has shape {:?} but the problem's padded grid has shape {:?}",
            next.shape(),
            self.shape
        );
        let inner = self.shape.len() - 1;
        let mut lists: Vec<Vec<&'g mut [T]>> = self
            .tiles
            .iter()
            .map(|tile| Vec::with_capacity(self.stored_box(tile).1[..inner].iter().product()))
            .collect();
        let mut rest = next.as_mut_slice();
        for &first_tile in &self.row_owner {
            for (t, &width) in self.row_cuts.iter().enumerate() {
                let (row, tail) = std::mem::take(&mut rest).split_at_mut(width);
                lists[first_tile + t].push(row);
                rest = tail;
            }
        }
        lists
    }

    /// Execute one tile for a temporal block of `chunk` combined time-steps
    /// into a detached [`TileRun`].
    ///
    /// The tile reads only `current`; its output (the values of its stored
    /// box plus [`TileContext::tile_counters`]) is returned
    /// detached so the caller decides when and where to apply it. This is
    /// the tile kernel of `TileContext::execute_tile_into` with a
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
        let (origin, region) = self.stored_box(tile);
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
    /// and store its stored box straight into `rows` — the tile's entry of
    /// [`TileContext::carve_rows`] over the grid being written.
    ///
    /// # Panics
    ///
    /// Panics if `current` does not have the problem's padded grid shape
    /// or `rows` is not the tile's carved row list.
    pub(crate) fn execute_tile_into<T: Element>(
        &self,
        current: &Grid<T>,
        tile: &TileSpec,
        chunk: usize,
        rows: &mut [&mut [T]],
    ) {
        let mut rows = rows.iter_mut();
        self.run_tile(current, tile, chunk, |row| {
            let target = rows.next().expect("one carved row per stored row");
            target.copy_from_slice(row);
        });
        assert!(rows.next().is_none(), "more carved rows than stored rows");
    }

    /// The one tile kernel: load the tile's local box from `current`, run
    /// `chunk` time steps over its two buffers, and hand every finished
    /// innermost row of its stored box to `sink` in row-major order: the
    /// write-back region's rows, widened over the boundary-ring cells the
    /// tile owns, whose loaded values no step changes.
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

        // Hand out the stored box: the write-back region plus the ring
        // cells the tile owns, outside the updatable box and so still
        // holding their loaded values.
        let (corner, stored) = self.stored_box(tile);
        let start: Vec<usize> = corner.iter().zip(&lo).map(|(&c, &l)| c - l).collect();
        let rows: Vec<(usize, usize)> = (0..inner)
            .map(|d| (start[d], start[d] + stored[d]))
            .collect();
        for_each_row(&rows, |outer| {
            let mut l = start[inner];
            for d in 0..inner {
                l += outer[d] * local_strides[d];
            }
            sink(&src[l..l + stored[inner]]);
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
/// stencil expression — or one folded sum of products or of pairs, with the
/// lane-local operations after it — applied to a whole row of independent
/// cells, its result pushed on the operand stack.
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
    /// Up to [`CHAIN_GROUP`] pair values `vₖ = x_left ∘ x_right` over two
    /// neighbour rows at flat deltas, each squared in its place when
    /// `square`, folded left to right into a running value `acc ∘ vₖ` that
    /// starts at `start`, then its `suffix` — the non-associative
    /// counterpart of a chain: no `v` and no partial sum leaves a register.
    PairSum {
        op: BinOp,
        square: bool,
        start: PairStart,
        /// How each pair after the start joins the running value; a sum
        /// that is its first pair alone folds nothing (`Add` there).
        fold: BinOp,
        pairs: Vec<(isize, isize)>,
        suffix: Suffix,
    },
}

/// Where the running value of a [`TapeOp::PairSum`] starts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PairStart {
    /// At the first pair's value; the instruction pushes a row.
    First,
    /// At a constant, every pair folded into it; pushes a row.
    Const(f64),
    /// At the top row, which the instruction pops.
    Top,
}

/// A lane-by-lane operation on a pair sum's value `v` (see [`Suffix`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum LaneOp {
    Unary(UnOp),
    /// `v ∘ c`.
    Right(BinOp, f64),
    /// `c ∘ v`.
    Left(BinOp, f64),
}

/// The instructions after a [`TapeOp::PairSum`] that only map its value
/// lane by lane, then at most one fold of that value into the row below it
/// (`below ∘ v`), absorbed into the pair sum's pass.
#[derive(Debug, Clone, Default, PartialEq)]
struct Suffix {
    maps: Vec<LaneOp>,
    fold: Option<BinOp>,
}

impl TapeOp {
    /// How many stack rows the instruction pops before pushing its result.
    fn pops(&self) -> usize {
        let popped = |operand: &Operand| usize::from(*operand == Operand::Top);
        match self {
            TapeOp::Leaf(a) | TapeOp::Unary(_, a) => popped(a),
            TapeOp::Binary(_, a, b) => popped(a) + popped(b),
            TapeOp::Chain { fresh, .. } => usize::from(!fresh),
            TapeOp::PairSum { start, suffix, .. } => {
                usize::from(*start == PairStart::Top) + usize::from(suffix.fold.is_some())
            }
        }
    }

    /// The suffix the instruction can still extend: a pair sum's, until it
    /// folds.
    fn open_suffix(&mut self) -> Option<&mut Suffix> {
        match self {
            TapeOp::PairSum { suffix, .. } if suffix.fold.is_none() => Some(suffix),
            _ => None,
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

/// Fuse every pair `x_a ∘ x_b` over two neighbour rows — with an
/// immediately following square of it (`v·v`, a [`Operand::Dup`] product)
/// — and the run of pairs of the same operation and square that follows
/// it, each folded at once into the row below (`below ∘ v`, all by one
/// operation), into one [`TapeOp::PairSum`] of at most [`CHAIN_GROUP`]
/// pairs, when that replaces at least two instructions. A longer run goes
/// on in a sum that starts from the top row. The run's start is the first
/// pair's value, a `c ∘ v` of it whose `∘` is the run's fold (the sum then
/// starts at `c`), or — when the first pair is folded too — the top row.
/// Only a fold with `v` on the *right* exists on the tape (`top ∘ top` has
/// the topmost row on the right), so operand order is untouched.
fn sum_pairs(ops: &[TapeOp]) -> Vec<TapeOp> {
    // The pair at `at`: its operation and square, its two deltas, and how
    // many instructions it takes.
    let pair = |at: usize| match ops.get(at) {
        Some(&TapeOp::Binary(op, Operand::Cell(left), Operand::Cell(right))) => {
            let square =
                ops.get(at + 1) == Some(&TapeOp::Binary(BinOp::Mul, Operand::Top, Operand::Dup));
            Some(((op, square), (left, right), 1 + usize::from(square)))
        }
        _ => None,
    };
    // The same, folded at once into the row below it, and the fold.
    let folded = |at: usize| {
        let (shape, cells, len) = pair(at)?;
        match ops.get(at + len) {
            Some(&TapeOp::Binary(fold, Operand::Top, Operand::Top)) => {
                Some((shape, fold, cells, len + 1))
            }
            _ => None,
        }
    };
    let mut summed = Vec::with_capacity(ops.len());
    let mut at = 0usize;
    while at < ops.len() {
        let (shape, start, fold, mut pairs, mut end) =
            if let Some((shape, fold, cells, len)) = folded(at) {
                (shape, PairStart::Top, fold, vec![cells], at + len)
            } else if let Some((shape, cells, len)) = pair(at) {
                let lead = match ops.get(at + len) {
                    Some(&TapeOp::Binary(op, Operand::Const(c), Operand::Top)) => Some((op, c)),
                    _ => None,
                };
                let next = at + len + usize::from(lead.is_some());
                match (folded(next), lead) {
                    (Some((same, fold, ..)), None) if same == shape => {
                        (shape, PairStart::First, fold, vec![cells], next)
                    }
                    (Some((same, fold, ..)), Some((op, c))) if same == shape && op == fold => {
                        (shape, PairStart::Const(c), fold, vec![cells], next)
                    }
                    _ => (shape, PairStart::First, BinOp::Add, vec![cells], at + len),
                }
            } else {
                summed.push(ops[at].clone());
                at += 1;
                continue;
            };
        while pairs.len() < CHAIN_GROUP {
            match folded(end) {
                Some((same, by, cells, len)) if same == shape && by == fold => {
                    pairs.push(cells);
                    end += len;
                }
                _ => break,
            }
        }
        if end - at >= 2 {
            let (op, square) = shape;
            summed.push(TapeOp::PairSum {
                op,
                square,
                start,
                fold,
                pairs,
                suffix: Suffix::default(),
            });
            at = end;
        } else {
            summed.push(ops[at].clone());
            at += 1;
        }
    }
    summed
}

/// Let every pair sum absorb the instructions after it that only map its
/// value lane by lane (`op v`, `v ∘ c`, `c ∘ v`), then at most one fold of
/// it into the row below (`below ∘ v`), as its [`Suffix`]. A chain absorbs
/// nothing: it keeps its row loop.
fn absorb_suffixes(ops: Vec<TapeOp>) -> Vec<TapeOp> {
    let mut absorbed: Vec<TapeOp> = Vec::with_capacity(ops.len());
    for op in ops {
        if let Some(suffix) = absorbed.last_mut().and_then(TapeOp::open_suffix) {
            match op {
                TapeOp::Unary(op, Operand::Top) => suffix.maps.push(LaneOp::Unary(op)),
                TapeOp::Binary(op, Operand::Top, Operand::Const(c)) => {
                    suffix.maps.push(LaneOp::Right(op, c));
                }
                TapeOp::Binary(op, Operand::Const(c), Operand::Top) => {
                    suffix.maps.push(LaneOp::Left(op, c));
                }
                TapeOp::Binary(op, Operand::Top, Operand::Top) => suffix.fold = Some(op),
                op => absorbed.push(op),
            }
            continue;
        }
        absorbed.push(op);
    }
    absorbed
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
    mut tail: impl FnMut(T) -> T,
) {
    let lanes = out.len();
    let coefs: [T; N] = std::array::from_fn(|k| T::from_f64(group[k].coef));
    let rows: [&[T]; N] = std::array::from_fn(|k| &cells(group[k].delta)[..lanes]);
    let mut finish = |mut acc: T, from: usize, i: usize| {
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
/// compiled for its term count and tail operation. With `FMA` (an
/// instance that has fused multiply-add) and `reciprocal`, a tail `/ c`
/// divides through [`Reciprocal`] when `c` allows it; the result is then
/// whether a lane fell outside the reciprocal's range, in which case the
/// caller must sum the chain again and divide with `/`.
#[inline(always)]
fn chain_group<'s, T: Element, const FMA: bool>(
    out: &mut [T],
    fresh: bool,
    group: &[Term],
    cells: &impl Fn(isize) -> &'s [T],
    tail: Option<(BinOp, f64)>,
    reciprocal: bool,
) -> bool {
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
        Some((BinOp::Div, c)) => {
            // `FMA` is a constant: the other instances compile none of this.
            match (FMA && reciprocal).then(|| Reciprocal::of(c)).flatten() {
                Some(recip) => {
                    let mut outside = false;
                    with_tail!(|acc| {
                        outside |= recip.outside(acc);
                        recip.quotient(acc)
                    });
                    return outside;
                }
                None => with_tail!(|x| x / c),
            }
        }
    }
    false
}

/// Division by a chain's constant `c` as a product with its reciprocal and
/// one correction (Markstein, IBM J. Res. Dev. 1990): with `zh = 1/c`,
/// `q0 = acc·zh`, the remainder `r = acc − q0·c` and `q = q0 + r·zh`.
///
/// `q` is `acc / c` correctly rounded when `zh` is within half an ulp of
/// `1/c` and `|fma(zh, c, −1)| < 2^-(p+1)` for a `p`-bit significand
/// (Markstein's theorem), provided nothing under- or overflows: `q0` is
/// then within an ulp of the quotient, `r` is exact, and the correction
/// rounds `q0 + r·zh` to the nearest quotient. [`Reciprocal::of`] takes a
/// `c` only if it meets that precondition and `2^-16 ≤ c ≤ 2^16`; a run
/// with a lane that is not ±0 and lies outside `[2^-900, 2^900]` (f64) or
/// `[2^-96, 2^96]` (f32) — subnormal, huge, infinite or NaN — is divided
/// with `/` instead ([`Reciprocal::outside`]).
///
/// The correction is computed as `q0 − fma(q0, c, −acc)·zh`, two fused
/// operations, so that a zero `acc` keeps its sign: `fma(q0, c, −acc)` is
/// `+0` for either zero, and `q0 − (+0)·zh` is `q0`, the zero with `acc`'s
/// sign. (`q0 + fma(−q0, c, acc)·zh` would give `+0` for `acc = −0`; for a
/// negative `c` neither form would, which is why `c` must be positive.)
#[derive(Debug, Clone, Copy)]
struct Reciprocal<T> {
    c: T,
    zh: T,
    /// The smallest and largest `|acc|` the correction is exact for.
    lo: T,
    hi: T,
}

impl<T: Element> Reciprocal<T> {
    /// The reciprocal of `c`, if `c` meets Markstein's precondition and
    /// lies within `[2^-16, 2^16]`. Inlined, like the other two methods,
    /// so that `mul_add` is the calling instance's FMA instruction.
    #[inline(always)]
    fn of(c: T) -> Option<Self> {
        let (significand, range) = match T::PRECISION {
            Precision::Single => (24, 96),
            Precision::Double => (53, 900),
        };
        let pow2 = |k: i32| T::from_f64(2f64.powi(k));
        let zh = T::ONE / c;
        let proven = zh.mul_add(c, -T::ONE).abs() < pow2(-(significand + 1));
        (proven && c >= pow2(-16) && c <= pow2(16)).then(|| Self {
            c,
            zh,
            lo: pow2(-range),
            hi: pow2(range),
        })
    }

    /// `acc / c`, correctly rounded unless [`Reciprocal::outside`] holds.
    #[inline(always)]
    fn quotient(self, acc: T) -> T {
        let q0 = acc * self.zh;
        let minus_r = q0.mul_add(self.c, -acc);
        (-minus_r).mul_add(self.zh, q0)
    }

    /// Whether `acc` is neither ±0 nor inside `[lo, hi]` in magnitude
    /// (NaN is outside).
    #[inline(always)]
    fn outside(self, acc: T) -> bool {
        let magnitude = acc.abs();
        let inside = (magnitude >= self.lo) & (magnitude <= self.hi);
        !inside & (acc != T::ZERO)
    }
}

/// Lanes a pair sum computes into a register array before it runs its
/// suffix on them. gradient2d's pass alone, 512-bit, ns per lane:
/// f32 1.55 / 0.98–1.08 / 0.52 / 0.61 at 8 / 16 / 32 / 64 lanes, f64
/// 1.93–2.01 / 1.88 / 2.42 at 16 / 32 / 64 — narrower chunks pay the
/// dispatch too often, wider ones run out of registers.
const CHUNK: usize = 32;

/// Lanes `at..at + N` of `row` in a register array.
#[inline(always)]
fn load<T: Element, const N: usize>(row: &[T], at: usize) -> [T; N] {
    let mut lanes = [T::ZERO; N];
    lanes.copy_from_slice(&row[at..at + N]);
    lanes
}

/// `$lanes` with `$f` bound to the scalar operation `op`: one `match` for
/// all the lanes `$lanes` covers.
macro_rules! with_op {
    ($op:expr, $f:ident => $lanes:expr) => {
        match $op {
            BinOp::Add => {
                let $f = |x: T, y: T| x + y;
                $lanes
            }
            BinOp::Sub => {
                let $f = |x: T, y: T| x - y;
                $lanes
            }
            BinOp::Mul => {
                let $f = |x: T, y: T| x * y;
                $lanes
            }
            BinOp::Div => {
                let $f = |x: T, y: T| x / y;
                $lanes
            }
        }
    };
}

/// `acc[j] = acc[j] ∘ rhs[j]` in every lane.
#[inline(always)]
fn zip_right<T: Element, const N: usize>(op: BinOp, acc: &mut [T; N], rhs: &[T; N]) {
    with_op!(op, f => for j in 0..N {
        acc[j] = f(acc[j], rhs[j]);
    });
}

/// `acc[j] = c ∘ acc[j]` in every lane.
#[inline(always)]
fn zip_left<T: Element, const N: usize>(op: BinOp, c: T, acc: &mut [T; N]) {
    with_op!(op, f => for x in acc {
        *x = f(c, *x);
    });
}

/// `acc ∘ vₖ` over `pairs ≤ CHAIN_GROUP` pairs `vₖ = aₖ ∘ bₖ`, each squared
/// when `square`, a fresh sum starting as `v₀`: what a [`chunked_pass`]
/// computes before it runs the suffix.
struct PairLanes<'r, T> {
    op: BinOp,
    square: bool,
    fold: BinOp,
    pairs: usize,
    rows: [(&'r [T], &'r [T]); CHAIN_GROUP],
}

impl<T: Element> PairLanes<'_, T> {
    /// Take the running values `acc` of lanes `at..at + N` through every
    /// pair; a `fresh` sum starts at the first pair instead.
    #[inline(always)]
    fn run<const N: usize>(&self, acc: &mut [T; N], fresh: bool, at: usize) {
        for (k, &(a, b)) in self.rows[..self.pairs].iter().enumerate() {
            let mut v = load::<T, N>(a, at);
            zip_right(self.op, &mut v, &load(b, at));
            if self.square {
                for x in &mut v {
                    *x = *x * *x;
                }
            }
            if fresh && k == 0 {
                *acc = v;
            } else {
                zip_right(self.fold, acc, &v);
            }
        }
    }
}

/// Where the running values of a [`chunked_pass`] start.
#[derive(Clone, Copy)]
enum Start<'r, T> {
    /// At the first pair.
    Fresh,
    /// At a constant.
    Const(T),
    /// At the row the pass writes, updated in place.
    Dst,
    /// At the row above the one the pass folds into.
    Above(&'r [T]),
}

/// One pass of a pair sum and its suffix over `dst`, [`CHUNK`] lanes at a
/// time: the running values start at `start`, take the pairs in a register
/// array, go through every map of the suffix (one `match` per map per
/// chunk) and are stored into `dst`, or folded into it as `dst[i] ∘ v` when
/// the suffix folds. The integer work of that dispatch overlaps the divider
/// when the suffix takes a root or a quotient.
///
/// Each arm is a copy of the pass with its start known: a register array
/// merged from several starts per chunk does not stay in vector registers.
#[inline(always)]
fn chunked_pass<T: Element>(lanes: &PairLanes<T>, start: Start<T>, suffix: &Suffix, dst: &mut [T]) {
    match start {
        Start::Fresh => chunks(lanes, Start::Fresh, suffix, dst),
        Start::Const(c) => chunks(lanes, Start::Const(c), suffix, dst),
        Start::Dst => chunks(lanes, Start::Dst, suffix, dst),
        Start::Above(row) => chunks(lanes, Start::Above(row), suffix, dst),
    }
}

/// [`chunked_pass`] for one start.
///
/// Every chunk is computed [`CHUNK`] lanes wide, the width the register
/// arrays are compiled for. A row that is not a whole number of chunks
/// ends in a chunk that overlaps the one before it: its first lanes were
/// stored already, so they are computed again — from a `dst` that may hold
/// their results by then — and dropped, while every lane stored reads only
/// inputs no store has touched. A row shorter than one chunk is computed
/// lane by lane.
#[inline(always)]
fn chunks<T: Element>(lanes: &PairLanes<T>, start: Start<T>, suffix: &Suffix, dst: &mut [T]) {
    let len = dst.len();
    if len < CHUNK {
        for at in 0..len {
            [dst[at]] = chunk(lanes, start, suffix, dst, at);
        }
        return;
    }
    let mut at = 0usize;
    while at + CHUNK <= len {
        let values: [T; CHUNK] = chunk(lanes, start, suffix, dst, at);
        dst[at..at + CHUNK].copy_from_slice(&values);
        at += CHUNK;
    }
    if at < len {
        let values: [T; CHUNK] = chunk(lanes, start, suffix, dst, len - CHUNK);
        dst[at..].copy_from_slice(&values[CHUNK - (len - at)..]);
    }
}

/// The values of lanes `at..at + N` of [`chunks`].
#[inline(always)]
fn chunk<T: Element, const N: usize>(
    lanes: &PairLanes<T>,
    start: Start<T>,
    suffix: &Suffix,
    dst: &[T],
    at: usize,
) -> [T; N] {
    let mut acc = match start {
        Start::Fresh => [T::ZERO; N],
        Start::Const(c) => [c; N],
        Start::Dst => load(dst, at),
        Start::Above(row) => load(row, at),
    };
    lanes.run(&mut acc, matches!(start, Start::Fresh), at);
    for &map in &suffix.maps {
        match map {
            LaneOp::Unary(UnOp::Neg) => {
                for x in &mut acc {
                    *x = -*x;
                }
            }
            LaneOp::Unary(UnOp::Sqrt) => {
                for x in &mut acc {
                    *x = x.sqrt();
                }
            }
            LaneOp::Right(op, c) => zip_right(op, &mut acc, &[T::from_f64(c); N]),
            LaneOp::Left(op, c) => zip_left(op, T::from_f64(c), &mut acc),
        }
    }
    match suffix.fold {
        None => acc,
        Some(fold) => {
            let mut below = load(dst, at);
            zip_right(fold, &mut below, &acc);
            below
        }
    }
}

/// The instances of the row kernel, narrowest first: each is compiled with
/// more of the CPU's vector features enabled than the one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Isa {
    /// The target's default features: SSE2, 128-bit, on x86-64.
    Baseline,
    /// AVX2, 256-bit.
    Avx2,
    /// AVX-512F, 512-bit, which implies AVX2 and FMA.
    Avx512,
}

impl Isa {
    /// The widest instance this CPU runs (`is_x86_feature_detected!` is a
    /// cached flag).
    fn detected() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Baseline
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// The instance of the row kernel this CPU runs: `"avx512"` on an x86-64
/// CPU that has AVX-512F, `"avx2"` on one that has AVX2, `"baseline"` (the
/// target's default features — SSE2 on x86-64) everywhere else. All give
/// the same bits; they differ in vector width, and `"avx512"` divides by a
/// chain's constant through its reciprocal.
#[must_use]
pub fn row_kernel_isa() -> &'static str {
    Isa::detected().name()
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
        let ops = absorb_suffixes(sum_pairs(&fold_chains(&ops)));
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
    /// through the instance [`row_kernel_isa`] names.
    fn eval_into<T: Element>(&self, src: &[T], base: usize, scratch: &mut [Vec<T>], out: &mut [T]) {
        self.eval_upto(Isa::Avx512, src, base, scratch, out);
    }

    /// [`RowKernel::eval_into`] through the widest instance this CPU runs
    /// that is no wider than `cap`.
    fn eval_upto<T: Element>(
        &self,
        cap: Isa,
        src: &[T],
        base: usize,
        scratch: &mut [Vec<T>],
        out: &mut [T],
    ) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::detected` names an instance only when
        // `is_x86_feature_detected!` found its feature (`avx512f`, `avx2`)
        // on this CPU, and the instance called is no wider than that: the
        // one precondition of calling a target-feature function.
        #[allow(unsafe_code)]
        unsafe {
            match Isa::detected().min(cap) {
                Isa::Avx512 => self.eval_into_avx512(src, base, scratch, out),
                Isa::Avx2 => self.eval_into_avx2(src, base, scratch, out),
                Isa::Baseline => self.eval_any::<T, false>(src, base, scratch, out),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = cap;
            self.eval_any::<T, false>(src, base, scratch, out);
        }
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
        self.eval_any::<T, false>(src, base, scratch, out);
    }

    /// [`RowKernel::eval_any`] compiled with AVX-512F enabled, which
    /// implies AVX2 and FMA: every pass inlined into it runs 512-bit
    /// vectors, and a fresh chain that ends in `/ c` divides through
    /// [`Reciprocal`], whose fused operations give each lane the bits of
    /// `/` (the other passes perform the baseline instance's operations).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn eval_into_avx512<T: Element>(
        &self,
        src: &[T],
        base: usize,
        scratch: &mut [Vec<T>],
        out: &mut [T],
    ) {
        self.eval_any::<T, true>(src, base, scratch, out);
    }

    /// The tape evaluator, inlined into each instance so that every pass
    /// is compiled for that instance's vector width; `FMA` says whether the
    /// instance has fused multiply-add (see [`chain_group`]).
    ///
    /// `out` is the bottom row of the operand stack and `scratch` (at
    /// least `depth − 1` rows of at least `out.len()` lanes) the rows
    /// above it, so the value of the whole expression — the one row left
    /// on the stack — is produced in `out` directly. Neighbour rows are
    /// slices of `src` at `base + delta`, read in place.
    #[inline(always)]
    fn eval_any<T: Element, const FMA: bool>(
        &self,
        src: &[T],
        base: usize,
        scratch: &mut [Vec<T>],
        out: &mut [T],
    ) {
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
        // Stack rows `k − 1` and `k`, the second to be folded into the first.
        fn below_top<'s, T>(
            out: &'s mut [T],
            scratch: &'s mut [Vec<T>],
            k: usize,
        ) -> (&'s mut [T], &'s [T]) {
            let lanes = out.len();
            match k {
                1 => (out, &scratch[0][..lanes]),
                _ => {
                    let (below, top) = scratch.split_at_mut(k - 1);
                    (&mut below[k - 2][..lanes], &top[0][..lanes])
                }
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
                            let (below, top) = below_top(out, scratch, sp);
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
                    // Only a fresh chain may divide through the reciprocal:
                    // its sum can be taken again from its first term. (A
                    // loop, not a closure: a closure here is outlined and
                    // compiled at baseline width.)
                    let last = terms.len().div_ceil(CHAIN_GROUP) - 1;
                    let mut reciprocal = fresh;
                    loop {
                        let mut outside = false;
                        for (g, group) in terms.chunks(CHAIN_GROUP).enumerate() {
                            let tail = tail.filter(|_| g == last);
                            let first = fresh && g == 0;
                            outside |=
                                chain_group::<T, FMA>(acc, first, group, &cells, tail, reciprocal);
                        }
                        if !outside {
                            break;
                        }
                        reciprocal = false;
                    }
                }
                TapeOp::PairSum {
                    op,
                    square,
                    start,
                    fold,
                    ref pairs,
                    ref suffix,
                } => {
                    let lanes = PairLanes {
                        op,
                        square,
                        fold,
                        pairs: pairs.len(),
                        rows: std::array::from_fn(|k| {
                            let (a, b) = pairs[k.min(pairs.len() - 1)];
                            (cells(a), cells(b))
                        }),
                    };
                    let own = match start {
                        PairStart::First => Some(Start::Fresh),
                        PairStart::Const(c) => Some(Start::Const(T::from_f64(c))),
                        PairStart::Top => None,
                    };
                    // The row the pass writes and where its running value
                    // starts: at `own`, or at the top row for `None`. A
                    // suffix fold writes the row below the value; without
                    // one the value is pushed or updates the top row.
                    let (dst, start) = match (own, suffix.fold.is_some()) {
                        (Some(start), false) => {
                            sp += 1;
                            (row(out, scratch, sp - 1), start)
                        }
                        (Some(start), true) => (row(out, scratch, sp - 1), start),
                        (None, false) => (row(out, scratch, sp - 1), Start::Dst),
                        (None, true) => {
                            sp -= 1;
                            let (below, top) = below_top(out, scratch, sp);
                            (below, Start::Above(top))
                        }
                    };
                    chunked_pass(&lanes, start, suffix, dst);
                }
            }
        }
    }
}

/// The stored-grid cells a tile stores along one dimension of `extent`
/// cells: the cells it writes back, widened over the boundary ring where
/// they meet a face of the grid. A tile's local box reaches `rad` past its
/// written cells, so it always holds the ring cells it stores.
fn stored_range(tile: &DimTile, extent: usize, rad: usize) -> Range<usize> {
    let Range { start, end } = tile.written();
    let start = if start == rad { 0 } else { start };
    let end = if end == extent - rad { extent } else { end };
    start..end
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
    execute_plan_with(plan, problem, initial, &mut None, |tiles, run_tile| {
        for (k, mut rows) in tiles {
            run_tile(k, &mut rows);
        }
    })
}

/// The temporal-block driver behind every blocked run: one kernel launch
/// per temporal block over a pair of ping-pong grids (the host loop's
/// `A[t % 2]`), each launch being carve the other grid into per-tile
/// stored rows → map the tiles, each storing its finished rows where they
/// belong → swap.
///
/// Nothing is cloned and nothing is prepared. The stored boxes of one
/// launch tile the whole grid exactly once, boundary ring included, so
/// whatever the grid being written held — two launches ago, in an earlier
/// run, or nothing — is overwritten before the swap. The second grid is
/// therefore `partner` when its shape matches (a grid of another shape is
/// dropped before a fresh one is allocated), and `partner` holds, at the
/// end, the grid this run does not return; a run of zero steps leaves it
/// untouched. Like the generated host code, which allocates its two
/// device buffers once, consecutive runs of one shape handed the same
/// `partner` then write pages that are already mapped.
///
/// `map_tiles(tiles, run_tile)` receives one `(k, rows)` item per tile —
/// its index and its carved stored rows — and must call
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
    partner: &mut Option<Grid<T>>,
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
    for chunk in temporal_chunks(problem.time_steps(), plan.config().bt()) {
        if partner
            .as_ref()
            .is_some_and(|grid| grid.shape() != current.shape())
        {
            *partner = None;
        }
        let target = partner.get_or_insert_with(|| Grid::zeros(current.shape()));
        let rows = ctx.carve_rows(target);
        map_tiles(rows.into_iter().enumerate().collect(), &|k, rows| {
            ctx.execute_tile_into(&current, &tiles[k], chunk, rows);
        });
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
    use an5d_grid::{DoubleBuffer, GridDiff};
    use an5d_plan::{BlockConfig, FrameworkScheme};
    use an5d_stencil::exec::{eval_expr, run_reference, run_reference_on};
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

    /// The half-open stored-grid index range of a run's stored box in
    /// every dimension.
    fn box_bounds(run: &TileRun<f64>) -> Vec<(usize, usize)> {
        let extents = run.origin.iter().zip(&run.region);
        extents.map(|(&o, &e)| (o, o + e)).collect()
    }

    /// What `apply_to` means: one bounds-checked `Grid::set` per cell of
    /// the region, in row-major order.
    fn apply_per_cell(run: &TileRun<f64>, next: &mut Grid<f64>) {
        let mut values = run.values.iter();
        for_each_row(&box_bounds(run), |index| {
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
    fn stored_boxes_of_a_block_tile_the_grid_exactly_once() {
        // What lets the driver reuse a partner grid with no preparation: a
        // launch overwrites every cell, ring included, once. The stored
        // cells past the write-back regions are exactly the ring, and
        // hold the values loaded there.
        for (def, interior, steps, bt, bs, hsn) in tile_geometries() {
            let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
            let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
            let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let ctx = TileContext::new(&plan, &problem);
            let shape = problem.grid_shape();
            let rad = def.radius();
            let ring = |index: &[usize]| {
                index
                    .iter()
                    .zip(&shape)
                    .any(|(&i, &e)| i < rad || i >= e - rad)
            };
            let current = Grid::<f64>::from_init(&shape, GridInit::Hash { seed: 2 });
            let mut writes = Grid::<f64>::zeros(&shape);
            for tile in ctx.tiles() {
                let run = ctx.execute_tile_rows(&current, tile, bt);
                let mut values = run.values.iter();
                for_each_row(&box_bounds(&run), |index| {
                    writes.set(index, writes.get(index) + 1.0);
                    let value = *values.next().expect("one value per stored cell");
                    if ring(index) {
                        assert_eq!(value, current.get(index), "{}: ring {index:?}", def.name());
                    }
                });
            }
            let once = Grid::<f64>::from_init(&shape, GridInit::Constant(1.0));
            assert_eq!(writes, once, "{}: writes per cell", def.name());
        }
    }

    #[test]
    fn carved_rows_are_the_stored_boxes_row_by_row() {
        // What lets any thread store a finished tile with no lock, and a
        // reused grid need no preparation: the carved `&mut` rows of a
        // launch are the stored boxes themselves — every cell of the grid,
        // ring included, in exactly one list, in the box's row-major
        // order — and a stored box is the write-back region widened over
        // the ring on the faces the tile lies against. The two extra
        // geometries end in a remainder tile in every dimension.
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
            let rad = def.radius();
            // Tile `k` marks its `n`-th cell (row-major in its box).
            let mark = |k: usize, n: usize| (k * 1_000_000 + n + 1) as f64;

            let mut carved = Grid::<f64>::zeros(&shape);
            let mut expected = Grid::<f64>::zeros(&shape);
            let lists = ctx.carve_rows(&mut carved);
            assert_eq!(lists.len(), ctx.tiles().len(), "{}", def.name());
            let mut cells = 0usize;
            for (k, (tile, rows)) in ctx.tiles().iter().zip(lists).enumerate() {
                let (origin, region) = ctx.stored_box(tile);
                let (written_origin, written) = ctx.write_back(tile);
                for d in 0..=inner {
                    let at_low = written_origin[d] == rad;
                    let at_high = written_origin[d] + written[d] == shape[d] - rad;
                    let low = if at_low { 0 } else { written_origin[d] };
                    let high = written_origin[d] + written[d] + if at_high { rad } else { 0 };
                    assert_eq!(
                        (origin[d], origin[d] + region[d]),
                        (low, high),
                        "{} tile {k}",
                        def.name()
                    );
                }
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
                    assert_eq!(expected.get(index), 0.0, "{}: boxes overlap", def.name());
                    expected.set(index, mark(k, n));
                    n += 1;
                });
            }
            assert_eq!(cells, carved.len(), "{}", def.name());
            assert_eq!(carved, expected, "{}", def.name());
            assert!(
                carved.as_slice().iter().all(|&v| v != 0.0),
                "{}: a cell was left out",
                def.name()
            );
        }
    }

    #[test]
    fn ping_pong_grids_match_reference_for_any_number_of_blocks() {
        // No block (the input comes back untouched and no partner grid is
        // made), 1 block (bT > steps: the grid returned is the partner,
        // whose ring the launch stored — whole grids are compared, ring
        // included), 2 (even), 3 (odd, with a remainder block) and 4: from
        // the third launch on, the grid being written still holds the
        // values of two launches ago.
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

    /// The row-kernel instances this CPU runs, narrowest first.
    fn instances() -> Vec<Isa> {
        [Isa::Baseline, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|&isa| isa <= Isa::detected())
            .collect()
    }

    /// Every instance of `RowKernel`'s evaluator this CPU runs must give
    /// every lane the bits `eval_expr` gives it, on ordinary values and —
    /// every fourth cell — on [`SPECIALS`].
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
        for instance in instances() {
            let mut scratch: Vec<Vec<T>> =
                (1..kernel.depth).map(|_| vec![T::ZERO; lanes]).collect();
            // Poisoned: the tape must overwrite every lane of `out`.
            let mut out = vec![T::from_f64(f64::NAN); lanes];
            kernel.eval_upto(instance, &src, base, &mut scratch, &mut out);
            for (lane, &got) in out.iter().enumerate() {
                let want: T = eval_expr(expr, &|offset: an5d_expr::Offset| {
                    let delta = offset.component(0) as isize * strides[0] as isize
                        + offset.component(1) as isize;
                    src[((base + lane) as isize + delta) as usize]
                });
                let (got, want) = (got.into_f64(), want.into_f64());
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{:?} {} lane {lane}/{lanes}: tape {got:e}, eval_expr {want:e} for {expr:?}",
                    T::PRECISION,
                    instance.name()
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
        // Suffixes: after a lone pair and pair sums that start at their
        // first pair, at a constant and at the top row (more than one group
        // too), every lane-local map — `sqrt`, `neg`, each operation with
        // the constant on either side — alone and two in a row, then no
        // fold or each fold into a row below. The same maps after chains
        // (one group, eight terms, nine) stay passes of their own.
        let mut square = || {
            let d = rng.cell() - rng.cell();
            d.clone() * d
        };
        let pair_sum = |first: Expr, squares: &mut dyn FnMut() -> Expr, pairs: usize| {
            (0..pairs).fold(first, |sum, _| sum + squares())
        };
        let mut producers = vec![square(), x() / y() * c()];
        for pairs in [2, 4, 9] {
            let first = square();
            producers.push(pair_sum(first, &mut square, pairs - 1));
            producers.push(pair_sum(c(), &mut square, pairs));
            producers.push(pair_sum(Expr::sqrt(inner()), &mut square, pairs));
        }
        for terms in [3, 8, 9] {
            producers.push(rng.chain(terms, true));
            producers.push(rng.chain(terms, true) / c());
            producers.push(Expr::sqrt(x()) - rng.term() + rng.chain(terms, true));
        }
        let mut maps: Vec<Box<dyn Fn(Expr) -> Expr>> =
            vec![Box::new(Expr::sqrt), Box::new(|e: Expr| -e)];
        for op in OPS {
            maps.push(Box::new(move |e| binary(op, e, Expr::constant(0.7))));
            maps.push(Box::new(move |e| binary(op, Expr::constant(1.3), e)));
        }
        let mut suffixed = [0usize; 2];
        let mut suffix_exprs = Vec::new();
        for producer in &producers {
            for (k, map) in maps.iter().enumerate() {
                let then = &maps[(k * 7 + 3) % maps.len()];
                let mut values = vec![map(producer.clone()), then(map(producer.clone()))];
                for fold in OPS {
                    values.push(binary(fold, Expr::sqrt(inner()), map(producer.clone())));
                }
                for value in values {
                    for op in RowKernel::compile(&value, &[1000, 1]).ops {
                        match op {
                            TapeOp::PairSum { pairs, suffix, .. }
                                if suffix != Suffix::default() =>
                            {
                                suffixed[usize::from(pairs.len() > 1)] += 1;
                            }
                            _ => {}
                        }
                    }
                    suffix_exprs.push(value);
                }
            }
        }
        assert!(
            suffixed.iter().all(|&n| n > 0),
            "suffixes after pairs and pair sums: {suffixed:?}"
        );
        if row_kernel_isa() != "avx512" {
            println!(
                "row-kernel instances checked on this CPU: {:?}",
                instances()
            );
        }
        // Around every vector width and unrolled block of either instance,
        // so each remainder loop runs too.
        for expr in &exprs {
            for lanes in [0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 257] {
                check_tape_against_eval_expr::<f64>(expr, lanes, &mut rng);
                check_tape_against_eval_expr::<f32>(expr, lanes, &mut rng);
            }
        }
        // A suffixed pass runs lane by lane below one chunk, in whole
        // chunks, and ends in a chunk that overlaps the one before it.
        for expr in &suffix_exprs {
            for lanes in [0, 5, 31, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
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

        // gradient2d: 0.5·f is the only row. Every difference is compiled
        // once (`Dup`) and squared in a register; the four squares are one
        // pair sum that starts at the constant 1, and its root, its
        // reciprocal and the fold into 0.5·f run in the same pass.
        let gradient2d = RowKernel::compile(suite::gradient2d().expr(), &strides);
        assert_eq!(
            gradient2d.ops,
            vec![
                TapeOp::Binary(BinOp::Mul, Operand::Const(0.5), Operand::Cell(0)),
                TapeOp::PairSum {
                    op: BinOp::Sub,
                    square: true,
                    start: PairStart::Const(1.0),
                    fold: BinOp::Add,
                    pairs: vec![(0, 100), (0, -100), (0, 1), (0, -1)],
                    suffix: Suffix {
                        maps: vec![LaneOp::Unary(UnOp::Sqrt), LaneOp::Left(BinOp::Div, 1.0)],
                        fold: Some(BinOp::Add),
                    },
                },
            ]
        );
        assert_eq!(gradient2d.depth, 1);

        // Every associative stencil of Table 3 is one fresh chain of one
        // term per tap, divided by its constant where the stencil divides
        // (box3d4r: 729 terms in one instruction); gradient2d is the two
        // instructions above.
        let divided = ["j2d5pt", "j2d9pt", "j2d9pt-gol", "j3d27pt"];
        for def in suite::all_benchmarks() {
            let strides: &[usize] = match def.ndim() {
                2 => &strides,
                _ => &[10_000, 100, 1],
            };
            let kernel = RowKernel::compile(def.expr(), strides);
            let name = def.name();
            if !def.is_associative() {
                assert_eq!((name, &kernel), ("gradient2d", &gradient2d));
                continue;
            }
            let divisor = divided.iter().position(|&d| d == name).map(|k| DIVISORS[k]);
            match kernel.ops.as_slice() {
                [TapeOp::Chain {
                    fresh: true,
                    terms,
                    tail,
                }] => {
                    assert_eq!(terms.len(), def.shape().tap_count(), "{name}");
                    assert_eq!(*tail, divisor.map(|c| (BinOp::Div, c)), "{name}");
                }
                ops => panic!("{name} is one fresh chain, not {ops:?}"),
            }
        }
    }

    /// The divisors of Table 3's chains: `j2d5pt`, `j2d9pt`, `j2d9pt-gol`
    /// and `j3d27pt`.
    const DIVISORS: [f64; 4] = [118.0, 9.5, 4.9, 33.0];

    /// The divisors of [`DIVISORS`] whose reciprocal meets Markstein's
    /// precondition in precision `T`.
    fn proven_divisors<T: Element>() -> Vec<f64> {
        DIVISORS
            .into_iter()
            .filter(|&c| Reciprocal::of(T::from_f64(c)).is_some())
            .collect()
    }

    fn same_bits<T: Element>(a: T, b: T) -> bool {
        let (a, b) = (a.into_f64(), b.into_f64());
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `x / c` of every `x` of `xs` into `out`, computed by the widest
    /// row-kernel instance of this CPU as the chain `(1·x) / c`, one run of
    /// [`RUN_LANES`] lanes at a time.
    fn kernel_quotients<T: Element>(c: f64, xs: &[T], out: &mut [T]) {
        let expr = Expr::constant(1.0) * Expr::cell(&[0]) / Expr::constant(c);
        let kernel = RowKernel::compile(&expr, &[1]);
        assert_eq!(
            kernel.ops,
            [TapeOp::Chain {
                fresh: true,
                terms: vec![Term {
                    coef: 1.0,
                    delta: 0
                }],
                tail: Some((BinOp::Div, c)),
            }]
        );
        for (x, o) in xs.chunks(RUN_LANES).zip(out.chunks_mut(RUN_LANES)) {
            kernel.eval_into(x, 0, &mut [], o);
        }
    }

    /// Every lane of the row kernel's `x / c` — and, for an `x` inside the
    /// reciprocal's range, [`Reciprocal::quotient`] on its own — must have
    /// the bits of `/`.
    fn assert_divides_like_slash<T: Element>(c: f64, xs: &[T]) {
        let mut got = vec![T::ZERO; xs.len()];
        kernel_quotients(c, xs, &mut got);
        let divisor = T::from_f64(c);
        let recip = Reciprocal::of(divisor);
        for (&x, &q) in xs.iter().zip(&got) {
            let want = x / divisor;
            let scalar = recip
                .filter(|r| !r.outside(x))
                .map_or(want, |r| r.quotient(x));
            for (how, got) in [("row kernel", q), ("scalar", scalar)] {
                assert!(
                    same_bits(got, want),
                    "{:?} {:e} / {c}: {how} {:e}, / {:e}",
                    T::PRECISION,
                    x.into_f64(),
                    got.into_f64(),
                    want.into_f64()
                );
            }
        }
    }

    /// Every `stride`-th f32 of the binade `[2^e, 2^(e+1))`, and its first
    /// and last 64.
    fn f32_binade(e: i32, stride: usize) -> impl Iterator<Item = f32> {
        let first = ((e + 127) as u32) << 23;
        let last = first + (1 << 23) - 1;
        (first..first + 64)
            .chain((first..=last).step_by(stride))
            .chain(last - 63..=last)
            .map(f32::from_bits)
    }

    #[test]
    fn reciprocals_are_taken_only_where_markstein_proves_them() {
        assert_eq!(proven_divisors::<f32>(), [118.0, 9.5, 4.9]);
        assert_eq!(proven_divisors::<f64>(), [118.0, 4.9, 33.0]);
        for c in [1.0, 0.5, 2f64.powi(16), 2f64.powi(-16)] {
            assert!(Reciprocal::of(c).is_some(), "{c}");
        }
        // Negative (a zero would lose its sign), outside 2^-16 ..= 2^16, or
        // not a number: `/`.
        for c in [
            -118.0,
            -1.0,
            0.0,
            -0.0,
            2f64.powi(17),
            2f64.powi(-17),
            f64::INFINITY,
            f64::NAN,
        ] {
            assert!(Reciprocal::of(c).is_none(), "{c}");
            assert!(Reciprocal::of(c as f32).is_none(), "{c}");
        }
    }

    #[test]
    fn f32_division_by_a_reciprocal_matches_slash_across_every_binade() {
        if row_kernel_isa() != "avx512" {
            println!("no AVX-512 on this CPU: the row kernel divides with `/`");
        }
        let mut xs: Vec<f32> = (-96..96).flat_map(|e| f32_binade(e, 1 << 13)).collect();
        xs.push(2f32.powi(96));
        // Zeros of either sign ride the reciprocal with the rest.
        for (k, x) in xs.iter_mut().enumerate().step_by(97) {
            *x = if k % 2 == 0 { 0.0 } else { -0.0 };
        }
        xs.extend(xs.clone().iter().map(|&x| -x));
        for c in proven_divisors::<f32>() {
            assert_divides_like_slash(c, &xs);
        }
    }

    #[test]
    #[ignore = "3.2·10⁹ values per divisor; run in release"]
    fn f32_division_by_a_reciprocal_matches_slash_on_its_whole_range() {
        const CHUNK: u32 = 1 << 16;
        let (lo, hi) = (2f32.powi(-96).to_bits(), 2f32.powi(96).to_bits());
        let mut xs = vec![0f32; CHUNK as usize];
        let mut got = xs.clone();
        for c in proven_divisors::<f32>() {
            let divisor = c as f32;
            for sign in [0, 1 << 31] {
                for start in (lo..=hi).step_by(CHUNK as usize) {
                    let len = (hi - start + 1).min(CHUNK) as usize;
                    for (k, x) in xs[..len].iter_mut().enumerate() {
                        *x = f32::from_bits(sign | (start + k as u32));
                    }
                    kernel_quotients(c, &xs[..len], &mut got[..len]);
                    for (&x, &q) in xs[..len].iter().zip(&got) {
                        assert_eq!(q.to_bits(), (x / divisor).to_bits(), "{x:e} / {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn f64_division_by_a_reciprocal_matches_slash_on_seeded_values() {
        let mut rng = SplitMix(0xD1F);
        for c in proven_divisors::<f64>() {
            let xs: Vec<f64> = (0..1usize << 20)
                .map(|k| match k % 97 {
                    0 => 0.0,
                    48 => -0.0,
                    _ => {
                        // Exponents −900…899, any significand, either sign.
                        let exponent = rng.below(1800) + 1023 - 900;
                        let bits = (rng.next() >> 12) | exponent << 52 | (rng.next() >> 63) << 63;
                        f64::from_bits(bits)
                    }
                })
                .collect();
            assert_divides_like_slash(c, &xs);
        }
    }

    /// A run with one lane the reciprocal must not take — at its start,
    /// inside or at its end — is divided with `/`, every lane of it.
    fn check_out_of_range_runs<T: Element>(specials: &[T]) {
        let xs = out_of_range_runs(specials);
        for c in proven_divisors::<T>() {
            assert_divides_like_slash(c, &xs);
        }
    }

    /// Runs of [`RUN_LANES`] ordinary lanes, one of which — the first, one
    /// inside or the last — is one of `specials`.
    fn out_of_range_runs<T: Element>(specials: &[T]) -> Vec<T> {
        let ordinary = |k: usize| T::from_f64(1.0 + 0.37 * k as f64);
        let mut xs = Vec::new();
        for &special in specials {
            for at in [0, 17, RUN_LANES - 1] {
                xs.extend((0..RUN_LANES).map(|k| if k == at { special } else { ordinary(k) }));
            }
        }
        xs
    }

    /// Lanes the reciprocal must not take in each precision: [`SPECIALS`],
    /// the first magnitudes past its range, the extremes, either sign.
    fn reciprocal_specials() -> (Vec<f64>, Vec<f32>) {
        let edges = |e: i32| [2f64.powi(-e - 1), 2f64.powi(e + 1)];
        let mut double = SPECIALS.to_vec();
        double.extend(edges(900));
        double.extend([f64::MAX, f64::MIN_POSITIVE]);
        double.extend(double.clone().iter().map(|&x| -x));
        let mut single: Vec<f32> = SPECIALS.iter().map(|&x| x as f32).collect();
        single.extend(edges(96).map(|x| x as f32));
        single.extend([f32::MAX, f32::MIN_POSITIVE, 1e-40]);
        single.extend(single.clone().iter().map(|&x| -x));
        (double, single)
    }

    #[test]
    fn out_of_range_runs_divide_with_slash() {
        let (double, single) = reciprocal_specials();
        check_out_of_range_runs(&double);
        check_out_of_range_runs(&single);
    }

    #[test]
    fn a_root_after_a_chain_divided_by_a_proven_constant_sees_slash_quotients() {
        // `sqrt(Σ/118)`: a chain whose `/ 118` the reciprocal takes, then a
        // root pass of its own. On runs with a lane the reciprocal must not
        // take — summed again and divided with `/` before the root — and on
        // ordinary runs, every instance must give every lane the bits of
        // `eval_expr`.
        fn check<T: Element>(specials: &[T]) {
            let x = |j: i32| Expr::cell(&[j]);
            let sum = Expr::constant(1.0) * x(0) + Expr::constant(0.25) * x(1) - x(-1);
            let expr = Expr::sqrt(sum / Expr::constant(118.0));
            let kernel = RowKernel::compile(&expr, &[1]);
            match kernel.ops.as_slice() {
                [TapeOp::Chain {
                    fresh: true,
                    tail: Some((BinOp::Div, c)),
                    ..
                }, TapeOp::Unary(UnOp::Sqrt, Operand::Top)] => {
                    assert_eq!(*c, 118.0);
                    assert!(Reciprocal::of(T::from_f64(*c)).is_some());
                }
                ops => panic!("one chain, then a root, not {ops:?}"),
            }
            let mut xs = out_of_range_runs(specials);
            xs.extend((0..2 * RUN_LANES).map(|k| T::from_f64(0.5 + 0.01 * k as f64)));
            let lanes = xs.len() - 2;
            for instance in instances() {
                let mut out = vec![T::ZERO; lanes];
                for (run, o) in out.chunks_mut(RUN_LANES).enumerate() {
                    kernel.eval_upto(instance, &xs, 1 + run * RUN_LANES, &mut [], o);
                }
                for (lane, &got) in out.iter().enumerate() {
                    let want: T = eval_expr(&expr, &|offset: an5d_expr::Offset| {
                        xs[(1 + lane as isize + offset.component(0) as isize) as usize]
                    });
                    assert!(
                        same_bits(got, want),
                        "{:?} {} lane {lane}: tape {:e}, eval_expr {:e}",
                        T::PRECISION,
                        instance.name(),
                        got.into_f64(),
                        want.into_f64()
                    );
                }
            }
        }
        let (double, single) = reciprocal_specials();
        check(&double);
        check(&single);
    }

    #[test]
    fn chain_divisions_from_a_point_source_match_reference() {
        // Mostly zeros: runs of zeros divide through the reciprocal, and a
        // source small enough for the front to leave the reciprocal's range
        // sends the runs it crosses to `/`. j2d5pt is one chain group;
        // j2d9pt, j2d9pt-gol (9 terms) and j3d27pt (27) divide in their
        // last group and are summed again from the first for `/`.
        fn check<T: Element>(def: &StencilDef, source: f64) {
            let (interior, bs, steps): (&[usize], &[usize], usize) = match def.ndim() {
                2 => (&[40, 70], &[32], 30),
                _ => (&[10, 12, 20], &[8, 12], 10),
            };
            let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
            let config = BlockConfig::new(2, bs, None, T::PRECISION).unwrap();
            let plan = KernelPlan::build(def, &problem, &config, FrameworkScheme::an5d()).unwrap();
            let shape = problem.grid_shape();
            let mut initial = Grid::<T>::zeros(&shape);
            let at: Vec<usize> = shape
                .iter()
                .enumerate()
                .map(|(d, &e)| e / (2 + d % 2))
                .collect();
            initial.set(&at, T::from_f64(source));
            let mut reference = DoubleBuffer::new(initial.clone());
            run_reference_on(def, &mut reference, steps);
            let blocked = execute_plan_on(&plan, &problem, initial);
            let diff = GridDiff::compute(&reference.into_current(), &blocked.grid).unwrap();
            assert!(
                diff.is_exact(),
                "{} {:?} source {source:e}: {diff:?}",
                def.name(),
                T::PRECISION
            );
        }
        for def in [
            suite::j2d5pt(),
            suite::j2d9pt(),
            suite::j2d9pt_gol(),
            suite::j3d27pt(),
        ] {
            check::<f32>(&def, 2f64.powi(60));
            check::<f32>(&def, 1.0);
            check::<f64>(&def, 1.0);
            check::<f64>(&def, 2f64.powi(-860));
        }
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
