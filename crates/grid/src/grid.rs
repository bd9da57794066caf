//! Dense row-major N-dimensional grid storage.

use crate::{Element, GridError, GridInit, MAX_DIMS};

/// A dense, row-major, N-dimensional grid of cell values (1 ≤ N ≤ 3).
///
/// Grids in this reproduction follow the paper's convention: the stored
/// extents *include* the boundary (halo) cells, i.e. a `rad`-th order 2D
/// stencil over an `I_S2 × I_S1` interior is stored as an
/// `(I_S2 + 2·rad) × (I_S1 + 2·rad)` grid whose outermost ring of width
/// `rad` holds the (constant) boundary condition.
///
/// The first axis is the outermost/slowest-varying axis — for N.5D blocking
/// that is the *streaming* dimension `S_N`.
///
/// # Example
///
/// ```
/// use an5d_grid::Grid;
///
/// let mut g = Grid::<f64>::zeros(&[4, 5]);
/// g.set(&[2, 3], 7.5);
/// assert_eq!(g.get(&[2, 3]), 7.5);
/// assert_eq!(g.at(&[-1, 0]), None); // signed accesses outside the grid
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid<T> {
    shape: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<T>,
}

impl<T: Element> Grid<T> {
    /// Create a grid of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid (empty, rank > [`MAX_DIMS`], or any
    /// extent is zero).
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self::try_new(shape, T::ZERO).expect("invalid grid shape")
    }

    /// Create a grid of the given shape filled with `fill`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidRank`] or [`GridError::ZeroExtent`] if the
    /// shape is not usable, and [`GridError::TooManyCells`] if its extents
    /// multiply past `usize::MAX`.
    pub(crate) fn try_new(shape: &[usize], fill: T) -> Result<Self, GridError> {
        if shape.is_empty() || shape.len() > MAX_DIMS {
            return Err(GridError::InvalidRank { ndim: shape.len() });
        }
        for (dim, &extent) in shape.iter().enumerate() {
            if extent == 0 {
                return Err(GridError::ZeroExtent { dim });
            }
        }
        let len = shape
            .iter()
            .try_fold(1usize, |len, &extent| len.checked_mul(extent))
            .ok_or_else(|| GridError::TooManyCells {
                shape: shape.to_vec(),
            })?;
        let strides = row_major_strides(shape);
        Ok(Self {
            shape: shape.to_vec(),
            strides,
            data: vec![fill; len],
        })
    }

    /// Create a grid filled according to an initialisation pattern.
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid; see [`Grid::zeros`].
    #[must_use]
    pub fn from_init(shape: &[usize], init: GridInit) -> Self {
        let mut grid = Self::zeros(shape);
        grid.fill_with(init);
        grid
    }

    /// Create a grid from an explicit function of the (unsigned) index.
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid; see [`Grid::zeros`].
    #[must_use]
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let mut grid = Self::zeros(shape);
        let mut idx = vec![0usize; shape.len()];
        for flat in 0..grid.len() {
            grid.unflatten_into(flat, &mut idx);
            grid.data[flat] = f(&idx);
        }
        grid
    }

    /// Overwrite every cell according to an initialisation pattern.
    pub(crate) fn fill_with(&mut self, init: GridInit) {
        let shape = self.shape.clone();
        let mut idx = vec![0usize; shape.len()];
        for flat in 0..self.len() {
            self.unflatten_into(flat, &mut idx);
            self.data[flat] = T::from_f64(init.value_at(&idx, &shape));
        }
    }

    /// Number of dimensions of the grid.
    #[must_use]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Extents of the grid, outermost (streaming) dimension first.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the grid has no cells (never true for valid grids).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat view of the data, row-major.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the data, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Flatten an unsigned multi-index into a linear offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank does not match the grid rank or any component
    /// is out of range.
    #[must_use]
    pub fn flatten(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.ndim(), "index rank mismatch");
        let mut flat = 0usize;
        for (dim, (&i, &stride)) in index.iter().zip(&self.strides).enumerate() {
            assert!(
                i < self.shape[dim],
                "index {i} out of bounds for dimension {dim} (extent {})",
                self.shape[dim]
            );
            flat += i * stride;
        }
        flat
    }

    fn unflatten_into(&self, mut flat: usize, out: &mut [usize]) {
        for (dim, &stride) in self.strides.iter().enumerate() {
            out[dim] = flat / stride;
            flat %= stride;
        }
    }

    /// Read the cell at an unsigned multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[must_use]
    pub fn get(&self, index: &[usize]) -> T {
        self.data[self.flatten(index)]
    }

    /// Write the cell at an unsigned multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: T) {
        let flat = self.flatten(index);
        self.data[flat] = value;
    }

    /// Read the cell at a *signed* multi-index, returning `None` when the
    /// index falls outside the grid. Stencil executors use this to make
    /// out-of-range neighbour accesses explicit.
    #[must_use]
    pub fn at(&self, index: &[isize]) -> Option<T> {
        if index.len() != self.ndim() {
            return None;
        }
        let mut flat = 0usize;
        for (dim, (&i, &stride)) in index.iter().zip(&self.strides).enumerate() {
            if i < 0 || i as usize >= self.shape[dim] {
                return None;
            }
            flat += i as usize * stride;
        }
        Some(self.data[flat])
    }

    /// Iterate over all unsigned indices of the interior region, i.e. the
    /// cells at distance ≥ `radius` from every face. These are exactly the
    /// cells a `radius`-th order stencil updates.
    #[must_use]
    pub fn interior_indices(&self, radius: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let lo: Vec<usize> = self.shape.iter().map(|_| radius).collect();
        let hi: Vec<usize> = self
            .shape
            .iter()
            .map(|&e| e.saturating_sub(radius))
            .collect();
        if lo.iter().zip(&hi).any(|(l, h)| l >= h) {
            return out;
        }
        let mut idx = lo.clone();
        loop {
            out.push(idx.clone());
            // odometer increment over [lo, hi)
            let mut dim = self.ndim();
            loop {
                if dim == 0 {
                    return out;
                }
                dim -= 1;
                idx[dim] += 1;
                if idx[dim] < hi[dim] {
                    break;
                }
                idx[dim] = lo[dim];
            }
        }
    }

    /// Number of interior cells for a given stencil radius.
    #[must_use]
    pub fn interior_len(&self, radius: usize) -> usize {
        self.shape
            .iter()
            .map(|&e| e.saturating_sub(2 * radius))
            .product()
    }

    /// Check that two grids have the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::ShapeMismatch`] when shapes differ.
    pub(crate) fn check_same_shape(&self, other: &Self) -> Result<(), GridError> {
        if self.shape == other.shape {
            Ok(())
        } else {
            Err(GridError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            })
        }
    }

    /// Convert every cell to `f64` (used by precision-agnostic comparisons).
    #[must_use]
    pub fn to_f64(&self) -> Grid<f64> {
        Grid {
            shape: self.shape.clone(),
            strides: self.strides.clone(),
            data: self.data.iter().map(|v| v.into_f64()).collect(),
        }
    }
}

fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for dim in (0..shape.len().saturating_sub(1)).rev() {
        strides[dim] = strides[dim + 1] * shape[dim + 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_len() {
        let g = Grid::<f32>::zeros(&[3, 4, 5]);
        assert_eq!(g.ndim(), 3);
        assert_eq!(g.shape(), &[3, 4, 5]);
        assert_eq!(g.len(), 60);
        assert!(!g.is_empty());
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn try_new_rejects_bad_shapes() {
        assert!(matches!(
            Grid::<f64>::try_new(&[], 0.0),
            Err(GridError::InvalidRank { ndim: 0 })
        ));
        assert!(matches!(
            Grid::<f64>::try_new(&[1, 2, 3, 4], 0.0),
            Err(GridError::InvalidRank { ndim: 4 })
        ));
        assert!(matches!(
            Grid::<f64>::try_new(&[3, 0], 0.0),
            Err(GridError::ZeroExtent { dim: 1 })
        ));
        // A product past `usize::MAX` is refused, never sized to the
        // length it would wrap to.
        let shape = [usize::MAX / 2 + 2, 3];
        assert!(matches!(
            Grid::<f64>::try_new(&shape, 0.0),
            Err(GridError::TooManyCells { shape: s }) if s == shape
        ));
    }

    #[test]
    fn flatten_is_row_major() {
        let g = Grid::<f64>::zeros(&[2, 3, 4]);
        assert_eq!(g.flatten(&[0, 0, 0]), 0);
        assert_eq!(g.flatten(&[0, 0, 1]), 1);
        assert_eq!(g.flatten(&[0, 1, 0]), 4);
        assert_eq!(g.flatten(&[1, 0, 0]), 12);
        assert_eq!(g.flatten(&[1, 2, 3]), 23);
    }

    #[test]
    fn get_set_round_trip() {
        let mut g = Grid::<f64>::zeros(&[4, 4]);
        g.set(&[1, 2], 3.5);
        assert_eq!(g.get(&[1, 2]), 3.5);
        assert_eq!(g.get(&[2, 1]), 0.0);
    }

    #[test]
    fn signed_access_outside_returns_none() {
        let g = Grid::<f64>::zeros(&[4, 4]);
        assert_eq!(g.at(&[-1, 0]), None);
        assert_eq!(g.at(&[0, 4]), None);
        assert_eq!(g.at(&[3, 3]), Some(0.0));
        assert_eq!(g.at(&[0]), None, "rank mismatch yields None");
    }

    #[test]
    fn from_fn_applies_index_function() {
        let g = Grid::<f64>::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(g.get(&[0, 0]), 0.0);
        assert_eq!(g.get(&[1, 2]), 12.0);
    }

    #[test]
    fn interior_indices_cover_exactly_the_interior() {
        let g = Grid::<f64>::zeros(&[5, 6]);
        let interior = g.interior_indices(1);
        assert_eq!(interior.len(), 3 * 4);
        assert_eq!(g.interior_len(1), 12);
        assert!(interior.iter().all(|idx| idx[0] >= 1 && idx[0] <= 3));
        assert!(interior.iter().all(|idx| idx[1] >= 1 && idx[1] <= 4));
        // radius large enough to swallow the grid
        assert!(g.interior_indices(3).is_empty());
        assert_eq!(g.interior_len(3), 0);
    }

    #[test]
    fn interior_indices_3d_count() {
        let g = Grid::<f32>::zeros(&[6, 7, 8]);
        assert_eq!(g.interior_indices(2).len(), 2 * 3 * 4);
    }

    #[test]
    fn check_same_shape_detects_mismatch() {
        let a = Grid::<f64>::zeros(&[4, 4]);
        let b = Grid::<f64>::zeros(&[4, 5]);
        assert!(a.check_same_shape(&a.clone()).is_ok());
        assert!(a.check_same_shape(&b).is_err());
    }

    #[test]
    fn to_f64_preserves_values() {
        let mut g = Grid::<f32>::zeros(&[2, 2]);
        g.set(&[0, 1], 1.5);
        let d = g.to_f64();
        assert_eq!(d.get(&[0, 1]), 1.5);
        assert_eq!(d.shape(), g.shape());
    }
}
