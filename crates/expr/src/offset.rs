//! Neighbour offsets of stencil accesses.

use std::fmt;

/// A signed neighbour offset of a stencil access, e.g. `(-1, 0)` for
/// `A[i-1][j]` in a 2D stencil.
///
/// Components are ordered outermost dimension first, matching
/// `an5d_grid::Grid` axis order: for N.5D blocking the first component is
/// the *streaming* dimension `S_N`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Offset {
    comps: [i32; 3],
    ndim: u8,
}

impl Offset {
    /// Create an offset from its components (1 ≤ len ≤ 3).
    ///
    /// # Panics
    ///
    /// Panics if `comps` is empty or longer than three components.
    #[must_use]
    pub fn new(comps: &[i32]) -> Self {
        assert!(
            !comps.is_empty() && comps.len() <= 3,
            "offset rank must be 1..=3, got {}",
            comps.len()
        );
        let mut c = [0i32; 3];
        c[..comps.len()].copy_from_slice(comps);
        Self {
            comps: c,
            ndim: comps.len() as u8,
        }
    }

    /// The all-zero (centre) offset of the given rank.
    ///
    /// # Panics
    ///
    /// Panics if `ndim` is not in `1..=3`.
    #[must_use]
    pub fn zero(ndim: usize) -> Self {
        assert!((1..=3).contains(&ndim), "offset rank must be 1..=3");
        Self {
            comps: [0; 3],
            ndim: ndim as u8,
        }
    }

    /// Number of dimensions of this offset.
    #[must_use]
    pub fn ndim(&self) -> usize {
        self.ndim as usize
    }

    /// The components of this offset, outermost dimension first.
    #[must_use]
    pub fn components(&self) -> &[i32] {
        &self.comps[..self.ndim as usize]
    }

    /// Component along a dimension (0 = outermost / streaming dimension).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.ndim()`.
    #[must_use]
    pub fn component(&self, dim: usize) -> i32 {
        assert!(dim < self.ndim(), "dimension {dim} out of range");
        self.comps[dim]
    }

    /// Chebyshev radius: the largest absolute component. A `rad`-th order
    /// stencil accesses offsets with radius up to `rad`.
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.components()
            .iter()
            .map(|c| c.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// `true` if the offset moves along at most one axis (no diagonal
    /// component) — the paper's "diagonal-access free" (star) condition.
    #[must_use]
    pub(crate) fn is_axial(&self) -> bool {
        self.components().iter().filter(|&&c| c != 0).count() <= 1
    }

    /// The offset's component along the streaming dimension (`S_N`), which is
    /// the outermost axis in this crate's convention.
    #[must_use]
    pub fn streaming_component(&self) -> i32 {
        self.comps[0]
    }

    /// The offset restricted to the non-streaming (intra-plane) dimensions.
    /// For a 1-D stencil the result is empty.
    #[must_use]
    pub fn in_plane_components(&self) -> &[i32] {
        &self.comps[1..self.ndim as usize]
    }
}

impl fmt::Display for Offset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c:+}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let o = Offset::new(&[-1, 2]);
        assert_eq!(o.ndim(), 2);
        assert_eq!(o.components(), &[-1, 2]);
        assert_eq!(o.component(0), -1);
        assert_eq!(o.component(1), 2);
    }

    #[test]
    #[should_panic(expected = "offset rank")]
    fn empty_offset_panics() {
        let _ = Offset::new(&[]);
    }

    #[test]
    #[should_panic(expected = "offset rank")]
    fn rank_four_offset_panics() {
        let _ = Offset::new(&[0, 0, 0, 0]);
    }

    #[test]
    fn zero_offset_is_center() {
        let o = Offset::zero(3);
        assert!(o.is_axial());
        assert_eq!(o.radius(), 0);
        assert_eq!(o.ndim(), 3);
    }

    #[test]
    fn radius_is_chebyshev() {
        assert_eq!(Offset::new(&[2, -3]).radius(), 3);
        assert_eq!(Offset::new(&[0, 0, -4]).radius(), 4);
        assert_eq!(Offset::new(&[1]).radius(), 1);
    }

    #[test]
    fn axial_detection() {
        assert!(Offset::new(&[0, 3]).is_axial());
        assert!(Offset::new(&[-2, 0, 0]).is_axial());
        assert!(!Offset::new(&[1, 1]).is_axial());
        assert!(!Offset::new(&[0, 1, -1]).is_axial());
    }

    #[test]
    fn streaming_and_in_plane_split() {
        let o = Offset::new(&[-2, 1, 3]);
        assert_eq!(o.streaming_component(), -2);
        assert_eq!(o.in_plane_components(), &[1, 3]);
        let o2 = Offset::new(&[5]);
        assert_eq!(o2.streaming_component(), 5);
        assert!(o2.in_plane_components().is_empty());
    }

    #[test]
    fn display_is_signed_tuple() {
        assert_eq!(Offset::new(&[-1, 0, 2]).to_string(), "(-1,+0,+2)");
    }

    #[test]
    fn offsets_order_and_hash() {
        use std::collections::BTreeSet;
        let set: BTreeSet<Offset> = [
            Offset::new(&[0, 1]),
            Offset::new(&[0, -1]),
            Offset::new(&[0, 1]),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
    }
}
