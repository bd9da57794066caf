//! Error type for grid construction and access.

use std::error::Error;
use std::fmt;

/// Errors produced by grid construction and shape-sensitive operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GridError {
    /// The requested number of dimensions is zero or exceeds [`crate::MAX_DIMS`].
    InvalidRank {
        /// The offending rank.
        ndim: usize,
    },
    /// One of the requested extents is zero.
    ZeroExtent {
        /// Dimension index with a zero extent.
        dim: usize,
    },
    /// The extents multiply to more cells than a `usize` can count.
    TooManyCells {
        /// The requested shape.
        shape: Vec<usize>,
    },
    /// Two grids that were expected to have the same shape do not.
    ShapeMismatch {
        /// Shape of the left-hand grid.
        left: Vec<usize>,
        /// Shape of the right-hand grid.
        right: Vec<usize>,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::InvalidRank { ndim } => {
                write!(f, "grid rank {ndim} is not in 1..={}", crate::MAX_DIMS)
            }
            GridError::ZeroExtent { dim } => write!(f, "grid extent for dimension {dim} is zero"),
            GridError::TooManyCells { shape } => {
                write!(
                    f,
                    "grid shape {shape:?} has more cells than usize can count"
                )
            }
            GridError::ShapeMismatch { left, right } => {
                write!(f, "grid shapes differ: {left:?} vs {right:?}")
            }
        }
    }
}

impl Error for GridError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GridError::InvalidRank { ndim: 9 };
        assert!(e.to_string().contains("rank 9"));
        let e = GridError::ZeroExtent { dim: 1 };
        assert!(e.to_string().contains("dimension 1"));
        let e = GridError::ShapeMismatch {
            left: vec![2, 3],
            right: vec![4],
        };
        assert!(e.to_string().contains("[2, 3]"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<GridError>();
    }
}
