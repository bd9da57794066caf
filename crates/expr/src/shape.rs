//! Stencil shape classification (star / box / other).

use crate::facts::Walk;
use crate::{Expr, Offset};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// The access-pattern class of a stencil, as used throughout the paper.
///
/// * `Star` — only axial neighbours are accessed ("diagonal-access free");
///   AN5D can keep the upper/lower sub-planes entirely in registers.
/// * `Box` — the full `(2·rad+1)^N` cube of neighbours is accessed; if the
///   update is associative (a plain weighted sum) AN5D applies the partial
///   summation optimisation.
/// * `Other` — anything else (e.g. a star pattern with a non-linear update
///   such as `gradient2d`, or an incomplete box).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum StencilShapeClass {
    /// Diagonal-access-free (axial) stencil.
    Star,
    /// Full dense neighbourhood.
    Box,
    /// Neither a star nor a complete box.
    Other,
}

impl fmt::Display for StencilShapeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StencilShapeClass::Star => write!(f, "star"),
            StencilShapeClass::Box => write!(f, "box"),
            StencilShapeClass::Other => write!(f, "other"),
        }
    }
}

/// Errors produced while classifying a stencil expression.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShapeError {
    /// The expression contains no neighbour access at all.
    NoCellAccess,
    /// Cell accesses have inconsistent ranks (e.g. a 2D and a 3D offset in
    /// the same expression).
    MixedRank {
        /// The ranks that were observed.
        ranks: Vec<usize>,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::NoCellAccess => write!(f, "expression accesses no grid cell"),
            ShapeError::MixedRank { ranks } => {
                write!(f, "cell accesses have inconsistent ranks: {ranks:?}")
            }
        }
    }
}

impl Error for ShapeError {}

/// Access-pattern summary of a stencil expression.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShapeInfo {
    /// Number of spatial dimensions (2 or 3 for all paper benchmarks).
    pub ndim: usize,
    /// Stencil radius `rad` (Chebyshev radius of the farthest access).
    pub radius: usize,
    /// Shape class.
    pub class: StencilShapeClass,
    /// Distinct neighbour offsets, sorted.
    pub offsets: Vec<Offset>,
    /// `true` when no access has more than one non-zero component.
    pub diagonal_access_free: bool,
}

impl ShapeInfo {
    /// Number of distinct neighbours accessed (the number of "taps").
    #[must_use]
    pub fn tap_count(&self) -> usize {
        self.offsets.len()
    }

    /// Number of distinct sub-planes (values of the streaming-dimension
    /// offset) touched by the stencil: `1 + 2·rad` for all paper benchmarks.
    #[must_use]
    pub fn planes_touched(&self) -> usize {
        let set: BTreeSet<i32> = self
            .offsets
            .iter()
            .map(Offset::streaming_component)
            .collect();
        set.len()
    }
}

impl Expr {
    /// Classify this expression's access pattern.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::NoCellAccess`] if the expression reads no
    /// neighbour at all, or [`ShapeError::MixedRank`] if accesses disagree on
    /// dimensionality.
    pub fn shape_info(&self) -> Result<ShapeInfo, ShapeError> {
        classify(Walk::of(self).offsets)
    }
}

/// Classify the distinct, sorted offsets an expression accesses.
pub(crate) fn classify(offsets: Vec<Offset>) -> Result<ShapeInfo, ShapeError> {
    let Some(first) = offsets.first() else {
        return Err(ShapeError::NoCellAccess);
    };
    let ndim = first.ndim();
    if offsets.iter().any(|o| o.ndim() != ndim) {
        let ranks: BTreeSet<usize> = offsets.iter().map(Offset::ndim).collect();
        return Err(ShapeError::MixedRank {
            ranks: ranks.into_iter().collect(),
        });
    }
    let radius = offsets
        .iter()
        .map(|o| o.radius() as usize)
        .max()
        .unwrap_or(0);
    let diagonal_access_free = offsets.iter().all(Offset::is_axial);

    let class = if diagonal_access_free {
        StencilShapeClass::Star
    } else if is_full_box(&offsets, ndim, radius) {
        StencilShapeClass::Box
    } else {
        StencilShapeClass::Other
    };

    Ok(ShapeInfo {
        ndim,
        radius,
        class,
        offsets,
        diagonal_access_free,
    })
}

fn is_full_box(offsets: &[Offset], ndim: usize, radius: usize) -> bool {
    let expected = (2 * radius + 1).pow(ndim as u32);
    if offsets.len() != expected {
        return false;
    }
    // All offsets must be within the cube; since they are distinct and the
    // count matches, the set is exactly the cube.
    offsets.iter().all(|o| {
        o.components()
            .iter()
            .all(|&c| c.unsigned_abs() as usize <= radius)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_2d(radius: i32) -> Expr {
        let mut terms = vec![Expr::constant(0.5) * Expr::cell(&[0, 0])];
        for r in 1..=radius {
            terms.push(Expr::constant(0.1) * Expr::cell(&[r, 0]));
            terms.push(Expr::constant(0.1) * Expr::cell(&[-r, 0]));
            terms.push(Expr::constant(0.1) * Expr::cell(&[0, r]));
            terms.push(Expr::constant(0.1) * Expr::cell(&[0, -r]));
        }
        Expr::sum(terms)
    }

    fn box_2d(radius: i32) -> Expr {
        let mut terms = Vec::new();
        for i in -radius..=radius {
            for j in -radius..=radius {
                terms.push(Expr::constant(0.01) * Expr::cell(&[i, j]));
            }
        }
        Expr::sum(terms)
    }

    #[test]
    fn star_classification() {
        for r in 1..=4 {
            let info = star_2d(r).shape_info().unwrap();
            assert_eq!(info.class, StencilShapeClass::Star);
            assert_eq!(info.radius, r as usize);
            assert_eq!(info.ndim, 2);
            assert_eq!(info.tap_count(), 4 * r as usize + 1);
            assert!(info.diagonal_access_free);
            assert_eq!(info.planes_touched(), 2 * r as usize + 1);
        }
    }

    #[test]
    fn box_classification() {
        for r in 1..=3 {
            let info = box_2d(r).shape_info().unwrap();
            assert_eq!(info.class, StencilShapeClass::Box);
            assert_eq!(info.radius, r as usize);
            assert_eq!(info.tap_count(), (2 * r as usize + 1).pow(2));
            assert!(!info.diagonal_access_free);
        }
    }

    #[test]
    fn incomplete_box_is_other() {
        // Box pattern with one corner missing.
        let mut terms = Vec::new();
        for i in -1..=1 {
            for j in -1..=1 {
                if (i, j) != (1, 1) {
                    terms.push(Expr::constant(1.0) * Expr::cell(&[i, j]));
                }
            }
        }
        let info = Expr::sum(terms).shape_info().unwrap();
        assert_eq!(info.class, StencilShapeClass::Other);
    }

    #[test]
    fn star_3d_classification() {
        let e = Expr::sum(vec![
            Expr::cell(&[0, 0, 0]),
            Expr::cell(&[1, 0, 0]),
            Expr::cell(&[-1, 0, 0]),
            Expr::cell(&[0, 1, 0]),
            Expr::cell(&[0, -1, 0]),
            Expr::cell(&[0, 0, 1]),
            Expr::cell(&[0, 0, -1]),
        ]);
        let info = e.shape_info().unwrap();
        assert_eq!(info.ndim, 3);
        assert_eq!(info.class, StencilShapeClass::Star);
        assert_eq!(info.planes_touched(), 3);
    }

    #[test]
    fn classification_errors() {
        assert_eq!(
            Expr::constant(1.0).shape_info(),
            Err(ShapeError::NoCellAccess)
        );
        let mixed = Expr::cell(&[0, 0]) + Expr::cell(&[0, 0, 0]);
        assert!(matches!(
            mixed.shape_info(),
            Err(ShapeError::MixedRank { .. })
        ));
    }

    #[test]
    fn gradient_like_star_with_nonlinearity_is_still_star_shaped() {
        // Shape classification only looks at the access pattern; a star
        // pattern with sqrt stays Star (the *associativity* check is separate).
        let diff = Expr::cell(&[0, 0]) - Expr::cell(&[1, 0]);
        let e = Expr::cell(&[0, 0]) + Expr::constant(1.0) / Expr::sqrt(diff.clone() * diff);
        assert_eq!(e.shape_info().unwrap().class, StencilShapeClass::Star);
    }

    #[test]
    fn shape_class_display() {
        assert_eq!(StencilShapeClass::Star.to_string(), "star");
        assert_eq!(StencilShapeClass::Box.to_string(), "box");
        assert_eq!(StencilShapeClass::Other.to_string(), "other");
    }
}
