//! N-dimensional dense grids and halo utilities for the AN5D stencil framework.
//!
//! This crate provides the storage substrate used throughout the AN5D
//! reproduction: dense row-major grids over `f32`/`f64` cells, double
//! buffering (the paper's input form is a Jacobi-style, `t % 2` double
//! buffered loop nest), deterministic initialisation patterns, and
//! comparison helpers used by the correctness tests that check that the
//! blocked (N.5D) execution matches the naive reference execution.
//!
//! # Example
//!
//! ```
//! use an5d_grid::{Grid, GridInit};
//!
//! // A 2D grid with a halo ring of width 1 around a 6x8 interior.
//! let grid = Grid::<f64>::from_init(&[6 + 2, 8 + 2], GridInit::Linear { scale: 0.5, offset: 1.0 });
//! assert_eq!(grid.len(), 8 * 10);
//! assert_eq!(grid.ndim(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod compare;
mod element;
mod error;
mod grid;
mod init;

pub use buffer::DoubleBuffer;
pub use compare::{default_tolerance, max_abs_diff, GridDiff};
pub use element::{Element, Precision};
pub use error::GridError;
pub use grid::Grid;
pub use init::GridInit;

/// Maximum number of spatial dimensions supported by the framework.
///
/// The AN5D paper evaluates 2D and 3D stencils; we keep room for 1D as well
/// (used in a few unit tests) but cap at 3 spatial dimensions to keep index
/// types small and `Copy`.
pub const MAX_DIMS: usize = 3;
