//! A stencil instance: definition + grid extents + time-step count.

use crate::{StencilDef, StencilError};
use an5d_grid::Precision;

/// A concrete stencil problem: which stencil to run, over which interior
/// extents, for how many time-steps.
///
/// Extents follow the paper's notation `I_Si` and *exclude* the boundary:
/// the stored grid is `I_Si + 2·rad` along each dimension. The paper's
/// evaluation sizes are 16,384² (2D) and 512³ (3D) with 1,000 time-steps;
/// see [`StencilProblem::paper_scale`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StencilProblem {
    def: StencilDef,
    interior: Vec<usize>,
    time_steps: usize,
}

impl StencilProblem {
    /// Create a problem over the given interior extents (outermost /
    /// streaming dimension first) and time-step count.
    ///
    /// # Errors
    ///
    /// Returns [`StencilError::UnsupportedRank`] if the extent rank does not
    /// match the stencil rank.
    pub fn new(
        def: StencilDef,
        interior: &[usize],
        time_steps: usize,
    ) -> Result<Self, StencilError> {
        if interior.len() != def.ndim() {
            return Err(StencilError::UnsupportedRank {
                ndim: interior.len(),
            });
        }
        Ok(Self {
            def,
            interior: interior.to_vec(),
            time_steps,
        })
    }

    /// The problem at the paper's evaluation scale: 16,384² for 2D stencils,
    /// 512³ for 3D stencils, 1,000 time-steps.
    #[must_use]
    pub fn paper_scale(def: StencilDef) -> Self {
        let interior = match def.ndim() {
            2 => vec![16_384, 16_384],
            _ => vec![512, 512, 512],
        };
        Self {
            def,
            interior,
            time_steps: 1_000,
        }
    }

    /// The stencil being run.
    #[must_use]
    pub fn def(&self) -> &StencilDef {
        &self.def
    }

    /// Interior extents `I_Si`, outermost (streaming) dimension first.
    #[must_use]
    pub fn interior(&self) -> &[usize] {
        &self.interior
    }

    /// Interior extent of the streaming dimension `I_SN`.
    #[must_use]
    pub fn streaming_extent(&self) -> usize {
        self.interior[0]
    }

    /// Interior extents of the non-streaming (blocked) dimensions.
    #[must_use]
    pub fn blocked_extents(&self) -> &[usize] {
        &self.interior[1..]
    }

    /// Number of time-steps `I_T`.
    #[must_use]
    pub fn time_steps(&self) -> usize {
        self.time_steps
    }

    /// Full stored grid shape including the boundary ring of width `rad`.
    #[must_use]
    pub fn grid_shape(&self) -> Vec<usize> {
        let rad = self.def.radius();
        self.interior.iter().map(|&e| e + 2 * rad).collect()
    }

    /// Number of interior cells updated per time-step, multiplied in
    /// `u128`: past 2⁶⁴ cells a `usize` product wraps.
    #[must_use]
    pub fn cells_per_step(&self) -> u128 {
        self.interior.iter().map(|&e| e as u128).product()
    }

    /// Total cell updates over the whole run.
    #[must_use]
    pub fn total_cell_updates(&self) -> u128 {
        self.cells_per_step() * self.time_steps as u128
    }

    /// Total floating-point operations over the whole run (Table 3
    /// convention).
    #[must_use]
    pub fn total_flops(&self) -> u128 {
        self.total_cell_updates() * self.def.flops_per_cell() as u128
    }

    /// Bytes of one full grid copy at the given precision (used for the
    /// lower bound of global-memory traffic).
    #[must_use]
    pub fn grid_bytes(&self, precision: Precision) -> u128 {
        self.grid_shape()
            .iter()
            .map(|&e| e as u128)
            .product::<u128>()
            * precision.bytes() as u128
    }

    /// Throughput in GFLOP/s given a run time in seconds.
    #[must_use]
    pub fn gflops(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        self.total_flops() as f64 / seconds / 1e9
    }

    /// Throughput in GCell/s (billion cell updates per second) given a run
    /// time in seconds — the secondary axis of Fig. 6.
    #[must_use]
    pub fn gcells(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            return 0.0;
        }
        self.total_cell_updates() as f64 / seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn shapes_include_halo() {
        let p = StencilProblem::new(suite::j2d9pt(), &[10, 12], 5).unwrap();
        assert_eq!(p.grid_shape(), vec![14, 16]);
        assert_eq!(p.cells_per_step(), 120);
        assert_eq!(p.total_cell_updates(), 600);
        assert_eq!(p.streaming_extent(), 10);
        assert_eq!(p.blocked_extents(), &[12]);
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        assert!(StencilProblem::new(suite::j2d5pt(), &[8, 8, 8], 1).is_err());
        assert!(StencilProblem::new(suite::star3d(1), &[8, 8], 1).is_err());
    }

    #[test]
    fn paper_scale_extents() {
        let p2 = StencilProblem::paper_scale(suite::j2d5pt());
        assert_eq!(p2.interior(), &[16_384, 16_384]);
        assert_eq!(p2.time_steps(), 1_000);
        let p3 = StencilProblem::paper_scale(suite::j3d27pt());
        assert_eq!(p3.interior(), &[512, 512, 512]);
    }

    #[test]
    fn flops_and_throughput() {
        let p = StencilProblem::new(suite::j2d5pt(), &[100, 100], 10).unwrap();
        assert_eq!(p.total_flops(), 100 * 100 * 10 * 10);
        let gf = p.gflops(0.001);
        assert!((gf - 1.0).abs() < 1e-9);
        let gc = p.gcells(0.001);
        assert!((gc - 0.1).abs() < 1e-9);
        assert_eq!(p.gflops(0.0), 0.0);
        assert_eq!(p.gcells(-1.0), 0.0);
    }

    #[test]
    fn grid_bytes_by_precision() {
        let p = StencilProblem::new(suite::j2d5pt(), &[6, 6], 1).unwrap();
        assert_eq!(p.grid_bytes(Precision::Single), 8 * 8 * 4);
        assert_eq!(p.grid_bytes(Precision::Double), 8 * 8 * 8);
    }
}
