//! The tile decomposition of one grid dimension — the single definition
//! the executor, the performance model and the tuner all read.
//!
//! Overlapped tiling (Section 4.2) cuts the `extent` interior cells of a
//! dimension into `tile_len`-long tiles. Each tile is loaded with `halo`
//! (`bT·rad`) extra cells per side, which it recomputes redundantly, plus
//! one stencil radius of read-only cells beyond that, clipped to the stored
//! grid (`extent + 2·rad` cells). The blocked dimensions are cut by the
//! compute region `bS_i − 2·bT·rad`; the streaming dimension by `hS_N`
//! (Section 4.2.3), and without `hS_N` it is one halo-free tile.
//!
//! The executor runs [`DimTiling::tiles`]; the model reads only the
//! per-dimension sums of their extents, which are closed-form (O(1)
//! however many tiles there are) and which the tests hold to the walk.

use std::ops::Range;

/// How one dimension is cut into tiles.
///
/// Tile `k` of the `n = ⌈extent / tile_len⌉` tiles writes back
/// `[k·tile_len, min((k+1)·tile_len, extent))` and loads the stored-grid
/// cells `[lo, hi)` with `lo = max(k·tile_len − halo, 0)` and
/// `hi − 2·rad = min((k+1)·tile_len + halo, extent)`. Summed over the
/// tiles in three regions — the first tiles, whose `lo` is clipped to 0;
/// the middle ones, whose ends are linear in `k` (an arithmetic series);
/// the last ones, whose `hi` is clipped to the grid:
///
/// * Σ `written` = `extent` (the tiles partition the interior);
/// * Σ `local` = Σ `hi` − Σ `lo`;
/// * Σ `updatable` = Σ `local` − 2·rad·n.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DimTiling {
    extent: usize,
    tile_len: usize,
    halo: usize,
    rad: usize,
}

impl DimTiling {
    /// A dimension of no cells, cut into no tiles: what a geometry holds in
    /// the slots past its stencil's rank.
    pub(crate) const UNUSED: Self = Self::new(0, 1, 0, 0);

    /// Cut `extent` interior cells into `tile_len`-long tiles (`tile_len`
    /// ≥ 1) with `halo` recomputed cells per side, for a stencil of radius
    /// `rad`.
    pub(crate) const fn new(extent: usize, tile_len: usize, halo: usize, rad: usize) -> Self {
        Self {
            extent,
            tile_len,
            halo,
            rad,
        }
    }

    /// The streaming dimension: stream blocks of `hsn` planes carrying the
    /// `halo` overlap, or — without streaming division — one tile that
    /// spans the dimension and has nothing to overlap with.
    pub(crate) fn streaming(extent: usize, hsn: Option<usize>, halo: usize, rad: usize) -> Self {
        match hsn {
            Some(h) => Self::new(extent, h, halo, rad),
            None => Self::new(extent, extent.max(1), 0, rad),
        }
    }

    /// Interior extent of the dimension being cut.
    #[must_use]
    pub fn extent(&self) -> usize {
        self.extent
    }

    /// The tiles in ascending order; `tiles().len()` is their count.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = DimTile> + Clone {
        let Self {
            extent,
            tile_len,
            halo,
            rad,
        } = *self;
        (0..self.count()).map(move |k| {
            let origin = k * tile_len;
            let len = tile_len.min(extent - origin);
            DimTile {
                origin,
                len,
                lo: origin.saturating_sub(halo),
                hi: (origin + len + halo + 2 * rad).min(extent + 2 * rad),
                rad,
            }
        })
    }

    /// Σ `written().len()` over the tiles: the tiles partition the interior.
    #[must_use]
    pub fn written_sum(&self) -> u128 {
        self.extent as u128
    }

    /// Σ `local().len()` and Σ `updatable().len()` over the tiles, in
    /// closed form: each tile updates its local cells but `rad` at either
    /// end. The quotients fit in `usize` and are taken there; only the
    /// products are widened.
    #[must_use]
    pub fn local_and_updatable_sums(&self) -> (u128, u128) {
        let Self {
            extent,
            tile_len,
            halo,
            rad,
        } = *self;
        let n = self.count();
        // Σ (hi − 2·rad) = Σ_{j=1..=n} min(j·len + halo, extent): the first
        // `m` tiles end inside the interior, the last `n − m` are clipped
        // to it.
        let m = (extent.saturating_sub(halo) / tile_len).min(n);
        // Σ lo = Σ_{k=0..n} max(k·len − halo, 0): the first tiles, up to
        // k = ⌊halo / len⌋, are clipped to the grid face, the rest are not.
        let k0 = (halo / tile_len + 1).min(n);
        let [n, m, k0, extent, len, halo, rad] =
            [n, m, k0, extent, tile_len, halo, rad].map(|v| v as u128);
        let hi = len * series(1, m + 1) + halo * m + extent * (n - m);
        let lo = len * series(k0, n) - halo * (n - k0);
        let local = hi + 2 * rad * n - lo;
        (local, local - 2 * rad * n)
    }

    fn count(&self) -> usize {
        self.extent.div_ceil(self.tile_len)
    }
}

/// Σ k over `a..b` (0 when the range is empty).
fn series(a: u128, b: u128) -> u128 {
    if a >= b {
        0
    } else {
        (b - a) * (a + b - 1) / 2
    }
}

/// One tile of a [`DimTiling`]. `origin` counts interior cells; `lo`, `hi`
/// and the three extents are in stored-grid coordinates, where the interior
/// starts at `rad`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimTile {
    /// First interior cell the tile writes back.
    pub origin: usize,
    /// Number of cells the tile writes back.
    pub len: usize,
    /// First stored-grid cell the tile loads.
    pub lo: usize,
    /// One past the last stored-grid cell the tile loads.
    pub hi: usize,
    rad: usize,
}

impl DimTile {
    /// The cells the tile loads: its write-back cells, the recomputation
    /// halo and one radius of read-only cells, clipped to the stored grid.
    #[must_use]
    pub fn local(&self) -> Range<usize> {
        self.lo..self.hi
    }

    /// The cells whose results the tile writes back; always interior.
    #[must_use]
    pub fn written(&self) -> Range<usize> {
        self.origin + self.rad..self.origin + self.rad + self.len
    }

    /// The cells every step of a temporal block updates: those whose whole
    /// neighbourhood was loaded, `rad` in from either end of
    /// [`DimTile::local`] — and therefore never in the boundary ring.
    #[must_use]
    pub fn updatable(&self) -> Range<usize> {
        self.lo + self.rad..self.hi - self.rad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockConfig;
    use an5d_grid::Precision;
    use an5d_stencil::{suite, StencilProblem};
    use proptest::prelude::*;

    /// The closed-form sums against the walk over `tiles()`.
    fn assert_sums_are_the_walk(tiling: &DimTiling) {
        let walk = |len_of: fn(&DimTile) -> usize| -> u128 {
            tiling.tiles().map(|tile| len_of(&tile) as u128).sum()
        };
        assert_eq!(
            tiling.written_sum(),
            walk(|t| t.written().len()),
            "{tiling:?}"
        );
        let (local, updatable) = tiling.local_and_updatable_sums();
        assert_eq!(local, walk(|t| t.local().len()), "{tiling:?}");
        assert_eq!(updatable, walk(|t| t.updatable().len()), "{tiling:?}");
    }

    /// Every small tiling, so the corners are covered whatever the seed:
    /// extent 0, `tile_len` above the extent or not dividing it, halos
    /// longer than a tile, no `hS_N`.
    #[test]
    fn closed_form_sums_equal_the_walk_on_every_small_tiling() {
        for extent in 0..=20 {
            for tile_len in std::iter::once(None).chain((1..=24).map(Some)) {
                for halo in 0..=9 {
                    for rad in 1..=3 {
                        assert_sums_are_the_walk(&DimTiling::streaming(
                            extent, tile_len, halo, rad,
                        ));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Tile lengths that do not divide the extent or exceed it, halos
        /// longer than a tile (`hS_N` shorter than `bT·rad`), no `hS_N` at
        /// all, empty dimensions.
        #[test]
        fn tiles_partition_the_interior_and_load_a_clipped_halo(
            extent in 0usize..=60,
            tile_len in prop_oneof![Just(None), (1usize..=70).prop_map(Some)],
            halo in 0usize..=12,
            rad in 1usize..=4,
        ) {
            let tiling = DimTiling::streaming(extent, tile_len, halo, rad);
            let tiles: Vec<DimTile> = tiling.tiles().collect();
            prop_assert_eq!(tiles.len(), tiling.tiles().len());
            prop_assert_eq!(tiles.len(), extent.div_ceil(tile_len.unwrap_or(extent).max(1)));

            // Written regions: the interior, each cell once, in order.
            let mut next = rad;
            for tile in &tiles {
                prop_assert!(tile.len > 0);
                prop_assert_eq!(tile.written(), next..next + tile.len);
                prop_assert_eq!(tile.origin + rad, next);
                next += tile.len;
            }
            prop_assert_eq!(next, extent + rad);

            // Without `hS_N`, one tile with nothing to overlap with.
            let halo = if tile_len.is_some() { halo } else { 0 };
            for tile in &tiles {
                // The halo and one radius beyond it on either side of the
                // written cells, clipped to the stored grid.
                let written = tile.written();
                prop_assert_eq!(tile.lo, (written.start - rad).saturating_sub(halo));
                prop_assert_eq!(tile.hi, (written.end + rad + halo).min(extent + 2 * rad));
                // Updatable: `rad` in from the local faces, which covers
                // the written cells and stays out of the boundary ring.
                let upd = tile.updatable();
                prop_assert_eq!(&upd, &(tile.lo + rad..tile.hi - rad));
                prop_assert_eq!(tile.local(), tile.lo..tile.hi);
                prop_assert!(upd.start <= written.start && written.end <= upd.end);
                prop_assert!(rad <= upd.start && upd.end <= extent + rad);
            }

            assert_sums_are_the_walk(&tiling);
        }

        /// The thread-block counts of a geometry are the lengths of its tile
        /// lists, and those are the paper's formulas: `⌈I_SN / hS_N⌉` stream
        /// blocks (Section 4.2.3) of `Π ⌈I_Si / (bS_i − 2·bT·rad)⌉` thread
        /// blocks (Section 4.1).
        #[test]
        fn thread_block_counts_are_the_lengths_of_the_tile_lists(
            three_d in any::<bool>(),
            rad in 1usize..=3,
            bt in 1usize..=4,
            compute_region in prop::collection::vec(1usize..=40, 2),
            extents in prop::collection::vec(1usize..=200, 3),
            hsn in prop_oneof![Just(None), (1usize..=250).prop_map(Some)],
        ) {
            let ndim = if three_d { 3 } else { 2 };
            let def = if three_d { suite::star3d(rad) } else { suite::star2d(rad) };
            let compute_region = &compute_region[..ndim - 1];
            let bs: Vec<usize> = compute_region.iter().map(|cr| cr + 2 * bt * rad).collect();
            let problem = StencilProblem::new(def, &extents[..ndim], 1).unwrap();
            let config = BlockConfig::new(bt, &bs, hsn, Precision::Single).unwrap();
            let geometry = config.geometry(&problem).unwrap();

            let extent = geometry.tilings().iter().map(DimTiling::extent);
            prop_assert_eq!(extent.collect::<Vec<_>>(), problem.interior());
            let lists = geometry.tilings().iter().map(|tiling| tiling.tiles().count() as u128);
            prop_assert_eq!(lists.product::<u128>(), geometry.total_thread_blocks());
            let blocked = problem.blocked_extents().iter().zip(compute_region);
            let per_dim: Vec<usize> = blocked.map(|(&e, &cr)| e.div_ceil(cr)).collect();
            prop_assert_eq!(geometry.thread_blocks(), per_dim.iter().product::<usize>());
            prop_assert_eq!(geometry.tiles_per_dim().collect::<Vec<_>>(), per_dim);
            let stream = problem.streaming_extent();
            prop_assert_eq!(geometry.stream_blocks(), hsn.map_or(1, |h| stream.div_ceil(h)));
        }
    }
}
