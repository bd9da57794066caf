//! Grid comparison helpers used by the blocked-vs-naive equivalence tests.

use crate::{Element, Grid, GridError};

/// Summary of the difference between two equally-shaped grids.
///
/// Produced by [`GridDiff::compute`]; the blocked-executor tests assert that
/// `max_abs` stays below a precision-dependent tolerance (0 for `f64`, a few
/// ULPs worth for `f32` where fast-math-style reassociation is allowed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridDiff {
    /// Maximum absolute difference over all cells.
    pub max_abs: f64,
    /// Maximum relative difference over all cells (0 when both values are 0).
    pub max_rel: f64,
    /// Index (flattened) of the worst absolute difference.
    pub worst_flat_index: usize,
    /// Number of cells compared.
    pub cells: usize,
}

impl GridDiff {
    /// Compare two grids cell by cell.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::ShapeMismatch`] if the grids differ in shape.
    pub fn compute<T: Element>(a: &Grid<T>, b: &Grid<T>) -> Result<Self, GridError> {
        a.check_same_shape(b)?;
        let mut max_abs = 0.0f64;
        let mut max_rel = 0.0f64;
        let mut worst = 0usize;
        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            let xf = x.into_f64();
            let yf = y.into_f64();
            let abs = (xf - yf).abs();
            let scale = xf.abs().max(yf.abs());
            let rel = if scale > 0.0 { abs / scale } else { 0.0 };
            if abs > max_abs {
                max_abs = abs;
                worst = i;
            }
            if rel > max_rel {
                max_rel = rel;
            }
        }
        Ok(Self {
            max_abs,
            max_rel,
            worst_flat_index: worst,
            cells: a.len(),
        })
    }

    /// `true` when the maximum absolute difference does not exceed `tol`.
    #[must_use]
    pub fn within(&self, tol: f64) -> bool {
        self.max_abs <= tol
    }

    /// `true` when the grids are bit-for-bit identical.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.max_abs == 0.0
    }
}

/// Default comparison tolerance for a cell precision after `steps` stencil
/// applications with fast-math-style reassociation allowed.
///
/// Double precision demands exact equality (the executors evaluate exactly
/// the same expression tree); single precision allows a small accumulation
/// of rounding differences because the blocked executor may legitimately
/// reassociate partial sums (the paper compiles with `--use_fast_math`).
#[must_use]
pub fn default_tolerance(precision: crate::Precision, steps: usize) -> f64 {
    match precision {
        crate::Precision::Double => 0.0,
        crate::Precision::Single => 1e-4 * (steps.max(1) as f64).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridInit, Precision};

    #[test]
    fn identical_grids_compare_exact() {
        let a = Grid::<f64>::from_init(&[5, 5], GridInit::Hash { seed: 3 });
        let d = GridDiff::compute(&a, &a.clone()).unwrap();
        assert!(d.is_exact());
        assert!(d.within(0.0));
        assert_eq!(d.cells, 25);
    }

    #[test]
    fn differing_cell_is_located() {
        let a = Grid::<f64>::zeros(&[4, 4]);
        let mut b = a.clone();
        b.set(&[2, 3], 0.5);
        let d = GridDiff::compute(&a, &b).unwrap();
        assert_eq!(d.max_abs, 0.5);
        assert_eq!(d.worst_flat_index, 2 * 4 + 3);
        assert!(!d.is_exact());
        assert!(d.within(0.5));
        assert!(!d.within(0.4));
    }

    #[test]
    fn relative_difference_is_scale_free() {
        let mut a = Grid::<f64>::zeros(&[2, 2]);
        let mut b = Grid::<f64>::zeros(&[2, 2]);
        a.set(&[0, 0], 100.0);
        b.set(&[0, 0], 101.0);
        let d = GridDiff::compute(&a, &b).unwrap();
        assert!((d.max_rel - 1.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Grid::<f32>::zeros(&[3, 3]);
        let b = Grid::<f32>::zeros(&[3, 4]);
        assert!(GridDiff::compute(&a, &b).is_err());
    }

    #[test]
    fn default_tolerances_by_precision() {
        assert_eq!(default_tolerance(Precision::Double, 100), 0.0);
        assert!(default_tolerance(Precision::Single, 100) > 0.0);
        assert!(
            default_tolerance(Precision::Single, 400) > default_tolerance(Precision::Single, 100)
        );
    }
}
