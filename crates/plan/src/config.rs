//! Blocking configurations and derived execution geometry.
//!
//! [`BlockConfig::geometry`] is where a configuration meets a problem: it
//! rejects what cannot run (`PlanError`) and hands the extents, `hS_N`,
//! compute regions and halo to [`crate::DimTiling`], which owns how a
//! dimension is cut into tiles.

use crate::DimTiling;
use an5d_grid::Precision;
use an5d_stencil::StencilProblem;
use std::error::Error;
use std::fmt;

/// Errors produced while validating a blocking configuration against a
/// stencil and problem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The temporal blocking degree must be at least one.
    ZeroTemporalDegree,
    /// A spatial block extent is zero.
    ZeroSpatialBlock,
    /// The number of blocked spatial dimensions does not match the stencil
    /// (a 2D stencil blocks one dimension and streams the other; a 3D
    /// stencil blocks two dimensions).
    BlockedRankMismatch {
        /// Number of blocked extents supplied.
        supplied: usize,
        /// Number the stencil requires.
        required: usize,
    },
    /// The halo of `bT` combined time-steps consumes the whole spatial
    /// block: `bS_i − 2·bT·rad ≤ 0`, so no thread would store a result.
    EmptyComputeRegion {
        /// Offending dimension (index into the blocked dimensions).
        dim: usize,
        /// Spatial block extent along that dimension.
        block: usize,
        /// Total halo width `2·bT·rad` along that dimension.
        halo: usize,
    },
    /// The streaming-division length `hS_N` is zero.
    ZeroStreamDivision,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ZeroTemporalDegree => write!(f, "temporal blocking degree bT must be ≥ 1"),
            PlanError::ZeroSpatialBlock => write!(f, "spatial block extents must be ≥ 1"),
            PlanError::BlockedRankMismatch { supplied, required } => write!(
                f,
                "configuration blocks {supplied} spatial dimensions but the stencil requires {required}"
            ),
            PlanError::EmptyComputeRegion { dim, block, halo } => write!(
                f,
                "blocked dimension {dim}: halo {halo} leaves no compute region in a block of {block}"
            ),
            PlanError::ZeroStreamDivision => write!(f, "stream division length hSN must be ≥ 1"),
        }
    }
}

impl Error for PlanError {}

/// An AN5D blocking configuration: the tunable parameters of Section 6.3.
///
/// * `bt` — temporal blocking degree `bT` (number of combined time-steps);
/// * `bs` — spatial block extents `bS_i` for the *non-streaming* dimensions
///   (one value for 2D stencils, two for 3D stencils); the thread-block
///   size is their product;
/// * `hsn` — optional division length of the streaming dimension
///   (Section 4.2.3); `None` disables streaming division;
/// * `precision` — cell precision (affects `nword` and register demand).
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct BlockConfig {
    bt: usize,
    bs: Vec<usize>,
    hsn: Option<usize>,
    precision: Precision,
}

impl BlockConfig {
    /// Create and validate the parameter combination (stencil-independent
    /// checks only; use [`BlockConfig::geometry`] for stencil-dependent
    /// validation).
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] if `bt` is zero, any block extent is zero, or
    /// `hsn` is `Some(0)`.
    pub fn new(
        bt: usize,
        bs: &[usize],
        hsn: Option<usize>,
        precision: Precision,
    ) -> Result<Self, PlanError> {
        if bt == 0 {
            return Err(PlanError::ZeroTemporalDegree);
        }
        if bs.is_empty() || bs.contains(&0) {
            return Err(PlanError::ZeroSpatialBlock);
        }
        if hsn == Some(0) {
            return Err(PlanError::ZeroStreamDivision);
        }
        Ok(Self {
            bt,
            bs: bs.to_vec(),
            hsn,
            precision,
        })
    }

    /// The `Sconf` configuration of Section 6.3: the same kernel parameters
    /// as STENCILGEN (`bT = 4`, `hS_N = 128`, `bS = 128` for 2D and
    /// `32 × 32` for 3D stencils; streaming division is disabled for 3D
    /// stencils, matching the paper's description).
    ///
    /// # Panics
    ///
    /// Panics if `ndim` is not 2 or 3.
    #[must_use]
    pub fn sconf(ndim: usize, precision: Precision) -> Self {
        match ndim {
            2 => Self::new(4, &[128], Some(128), precision).expect("sconf 2d is valid"),
            3 => Self::new(4, &[32, 32], None, precision).expect("sconf 3d is valid"),
            other => panic!("sconf is defined for 2D and 3D stencils, not {other}D"),
        }
    }

    /// Temporal blocking degree `bT`.
    #[must_use]
    pub fn bt(&self) -> usize {
        self.bt
    }

    /// Spatial block extents `bS_i` of the non-streaming dimensions.
    #[must_use]
    pub fn bs(&self) -> &[usize] {
        &self.bs
    }

    /// Streaming-division length `hS_N`, if streaming division is enabled.
    #[must_use]
    pub fn hsn(&self) -> Option<usize> {
        self.hsn
    }

    /// Cell precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Thread-block size `nthr = Π bS_i` (each thread owns one cell of the
    /// sub-plane).
    #[must_use]
    pub fn nthr(&self) -> usize {
        self.bs.iter().product()
    }

    /// Label used in tables, e.g. `"256"` or `"32x16"`.
    #[must_use]
    pub fn bs_label(&self) -> String {
        self.bs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("x")
    }

    /// Derive the full execution geometry for a given stencil problem.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] if the blocked rank does not match the
    /// stencil or the compute region would be empty.
    pub fn geometry(&self, problem: &StencilProblem) -> Result<BlockGeometry, PlanError> {
        let def = problem.def();
        let required = def.ndim() - 1;
        if self.bs.len() != required {
            return Err(PlanError::BlockedRankMismatch {
                supplied: self.bs.len(),
                required,
            });
        }
        let rad = def.radius();
        let halo_per_side = self.bt * rad;
        let halo = 2 * halo_per_side;
        let mut compute_region = Vec::with_capacity(self.bs.len());
        for (dim, &block) in self.bs.iter().enumerate() {
            if block <= halo {
                return Err(PlanError::EmptyComputeRegion { dim, block, halo });
            }
            compute_region.push(block - halo);
        }
        // Streaming dimension first, then the blocked dimensions cut by
        // their compute regions.
        let mut tilings = Vec::with_capacity(def.ndim());
        tilings.push(DimTiling::streaming(
            problem.streaming_extent(),
            self.hsn,
            halo_per_side,
            rad,
        ));
        let blocked = problem.blocked_extents().iter().zip(&compute_region);
        tilings.extend(
            blocked.map(|(&extent, &region)| DimTiling::new(extent, region, halo_per_side, rad)),
        );
        Ok(BlockGeometry {
            bt: self.bt,
            radius: rad,
            nthr: self.nthr(),
            halo_per_side,
            compute_region,
            tilings,
        })
    }
}

impl fmt::Display for BlockConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bT={} bS={} hSN={} {}",
            self.bt,
            self.bs_label(),
            self.hsn.map_or_else(|| "-".to_string(), |h| h.to_string()),
            self.precision
        )
    }
}

/// Execution geometry derived from a [`BlockConfig`] and a problem. It owns
/// the tile decomposition: the thread-block counts below are the lengths
/// of the same per-dimension tile lists the executor runs and the model
/// sums over.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BlockGeometry {
    /// Temporal blocking degree `bT`.
    pub bt: usize,
    /// Stencil radius `rad`.
    pub radius: usize,
    /// Threads per block, `nthr = Π bS_i`.
    pub nthr: usize,
    /// Halo width `bT·rad` on each side of each blocked dimension.
    pub halo_per_side: usize,
    /// Compute-region extent `bS_i − 2·bT·rad` per blocked dimension.
    pub compute_region: Vec<usize>,
    tilings: Vec<DimTiling>,
}

impl BlockGeometry {
    /// How each dimension is cut into tiles, streaming dimension first.
    /// A thread block is one element of the cartesian product of the
    /// per-dimension tile lists.
    #[must_use]
    pub fn tilings(&self) -> &[DimTiling] {
        &self.tilings
    }

    /// Number of tiles along each blocked dimension.
    #[must_use]
    pub fn tiles_per_dim(&self) -> Vec<usize> {
        self.blocked_tile_counts().collect()
    }

    fn blocked_tile_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.tilings[1..].iter().map(|tiling| tiling.tiles().len())
    }

    /// Thread blocks before streaming division, `ntb`.
    #[must_use]
    pub fn thread_blocks(&self) -> usize {
        self.blocked_tile_counts().product()
    }

    /// Number of stream blocks `⌈I_SN / hS_N⌉` (1 when division is off).
    #[must_use]
    pub fn stream_blocks(&self) -> usize {
        self.tilings[0].tiles().len()
    }

    /// Total thread blocks `n'tb = stream_blocks × ntb`, multiplied in
    /// `u128`: past 2⁶⁴ tiles a `usize` product wraps.
    #[must_use]
    pub fn total_thread_blocks(&self) -> u128 {
        let tile_counts = self.tilings.iter().map(|tiling| tiling.tiles().len());
        tile_counts.map(|count| count as u128).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimTile;
    use an5d_stencil::suite;

    fn problem_2d() -> StencilProblem {
        StencilProblem::new(suite::j2d5pt(), &[1024, 1024], 100).unwrap()
    }

    fn problem_3d() -> StencilProblem {
        StencilProblem::new(suite::star3d(1), &[256, 256, 256], 100).unwrap()
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert_eq!(
            BlockConfig::new(0, &[128], None, Precision::Single).unwrap_err(),
            PlanError::ZeroTemporalDegree
        );
        assert_eq!(
            BlockConfig::new(4, &[], None, Precision::Single).unwrap_err(),
            PlanError::ZeroSpatialBlock
        );
        assert_eq!(
            BlockConfig::new(4, &[0], None, Precision::Single).unwrap_err(),
            PlanError::ZeroSpatialBlock
        );
        assert_eq!(
            BlockConfig::new(4, &[128], Some(0), Precision::Single).unwrap_err(),
            PlanError::ZeroStreamDivision
        );
    }

    #[test]
    fn nthr_is_product_of_block_extents() {
        let c = BlockConfig::new(3, &[32, 16], None, Precision::Double).unwrap();
        assert_eq!(c.nthr(), 512);
        assert_eq!(c.bs_label(), "32x16");
        assert_eq!(c.bt(), 3);
        assert_eq!(c.precision(), Precision::Double);
    }

    #[test]
    fn paper_thread_block_count_formula_2d() {
        // ntb = Π ⌈ I_Si / (bSi − 2·bT·rad) ⌉  (Section 4.1)
        let config = BlockConfig::new(4, &[256], None, Precision::Single).unwrap();
        let geom = config.geometry(&problem_2d()).unwrap();
        assert_eq!(geom.halo_per_side, 4);
        assert_eq!(geom.compute_region, vec![256 - 8]);
        assert_eq!(geom.thread_blocks(), 1024usize.div_ceil(248));
        assert_eq!(geom.stream_blocks(), 1);
        assert_eq!(geom.total_thread_blocks(), geom.thread_blocks() as u128);
    }

    #[test]
    fn total_thread_blocks_are_counted_past_2_pow_64() {
        // 2⁴⁰ × 2⁴⁰ at bS 128, hS_N 128: 2³³ stream blocks of
        // ⌈2⁴⁰ / 126⌉ thread blocks, ≈ 7.5 · 10¹⁹ in all.
        let side = 1usize << 40;
        let problem = StencilProblem::new(suite::star2d(1), &[side, side], 3).unwrap();
        let config = BlockConfig::new(1, &[128], Some(128), Precision::Single).unwrap();
        let geom = config.geometry(&problem).unwrap();
        assert_eq!(geom.stream_blocks(), 1 << 33);
        assert_eq!(geom.thread_blocks(), side.div_ceil(126));
        let total = (1u128 << 33) * side.div_ceil(126) as u128;
        assert!(total > u128::from(u64::MAX));
        assert_eq!(geom.total_thread_blocks(), total);
    }

    #[test]
    fn stream_division_multiplies_thread_blocks() {
        let config = BlockConfig::new(2, &[256], Some(128), Precision::Single).unwrap();
        let geom = config.geometry(&problem_2d()).unwrap();
        assert_eq!(geom.stream_blocks(), 8);
        assert_eq!(geom.total_thread_blocks(), 8 * geom.thread_blocks() as u128);
        // An inner stream block of 128 planes loads bT·rad = 2 more on
        // either side to recompute, plus the radius beyond them.
        let block = geom.tilings()[0].tiles().nth(3).unwrap();
        assert_eq!((block.origin, block.len), (384, 128));
        assert_eq!(block.written(), 385..513);
        assert_eq!(block.updatable(), 383..515);
        assert_eq!(block.local(), 382..516);
    }

    #[test]
    fn no_stream_division_has_no_redundant_planes() {
        let config = BlockConfig::new(4, &[256], None, Precision::Single).unwrap();
        let geom = config.geometry(&problem_2d()).unwrap();
        // One tile spanning the dimension, with nothing to overlap with.
        let blocks: Vec<DimTile> = geom.tilings()[0].tiles().collect();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].written(), 1..1025);
        assert_eq!(blocks[0].updatable(), 1..1025);
        assert_eq!(blocks[0].local(), 0..1026);
    }

    #[test]
    fn geometry_3d_blocks_two_dimensions() {
        let config = BlockConfig::new(4, &[32, 32], Some(128), Precision::Single).unwrap();
        let geom = config.geometry(&problem_3d()).unwrap();
        assert_eq!(geom.nthr, 1024);
        assert_eq!(geom.compute_region, vec![24, 24]);
        assert_eq!(geom.tiles_per_dim(), vec![11, 11]);
        assert_eq!(geom.thread_blocks(), 121);
        assert_eq!(geom.stream_blocks(), 2);
    }

    #[test]
    fn empty_compute_region_is_detected() {
        // bT = 10 over radius 2 needs blocks larger than 40.
        let config = BlockConfig::new(10, &[32], None, Precision::Single).unwrap();
        let problem = StencilProblem::new(suite::j2d9pt(), &[512, 512], 10).unwrap();
        assert!(matches!(
            config.geometry(&problem),
            Err(PlanError::EmptyComputeRegion { .. })
        ));
    }

    #[test]
    fn blocked_rank_mismatch_is_detected() {
        let config = BlockConfig::new(2, &[32, 32], None, Precision::Single).unwrap();
        assert!(matches!(
            config.geometry(&problem_2d()),
            Err(PlanError::BlockedRankMismatch {
                supplied: 2,
                required: 1
            })
        ));
    }

    #[test]
    fn sconf_matches_paper_description() {
        let c2 = BlockConfig::sconf(2, Precision::Single);
        assert_eq!(c2.bt(), 4);
        assert_eq!(c2.hsn(), Some(128));
        let c3 = BlockConfig::sconf(3, Precision::Double);
        assert_eq!(c3.bt(), 4);
        assert_eq!(c3.bs(), &[32, 32]);
        assert_eq!(c3.hsn(), None);
    }

    #[test]
    #[should_panic(expected = "2D and 3D")]
    fn sconf_rejects_other_ranks() {
        let _ = BlockConfig::sconf(4, Precision::Single);
    }

    #[test]
    fn display_formats_parameters() {
        let c = BlockConfig::new(5, &[64, 16], Some(128), Precision::Double).unwrap();
        let s = c.to_string();
        assert!(s.contains("bT=5"));
        assert!(s.contains("64x16"));
        assert!(s.contains("128"));
        assert!(s.contains("double"));
    }

    #[test]
    fn error_display_messages() {
        let e = PlanError::EmptyComputeRegion {
            dim: 0,
            block: 32,
            halo: 40,
        };
        assert!(e.to_string().contains("no compute region"));
        assert!(PlanError::ZeroTemporalDegree.to_string().contains("bT"));
    }
}
