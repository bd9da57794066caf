//! Stencil update-expression AST, evaluation and FLOP analysis.
//!
//! The AN5D framework (CGO 2020) consumes a C description of a stencil and
//! needs, for every benchmark, (a) the exact update expression so that both
//! the naive reference executor and the blocked N.5D executor compute the
//! same values, (b) the set of accessed neighbour offsets to classify the
//! stencil (star / box / other, radius, dimensionality), and (c) an
//! operation count broken down into ADD / MUL / FMA / DIV / SQRT for the
//! roofline performance model of Section 5 (ALU utilisation efficiency and
//! total floating-point work).
//!
//! This crate provides all three: [`Expr`] is the expression, one
//! post-order vector of [`Node`]s (built by the operators or, a node at a
//! time, by an [`ExprBuilder`]), [`StencilShapeClass`]/[`ShapeInfo`] the
//! classification, [`LinearForm`] the "sum of coefficient × neighbour"
//! normal form used by the associative stencil optimisation, and
//! [`FlopCount`]/[`OpMix`] the operation counts.
//!
//! Nothing here recurses over an expression: every reader — evaluation,
//! printing, the walk below, the linear extraction, the FMA match — is one
//! loop over the nodes with an explicit stack of its operands' results, so
//! how deep an expression nests bounds no stack frame.
//!
//! The classification, the operation counts and whether the linear form
//! exists come from one private loop over the nodes, which [`Expr::facts`]
//! returns whole (and a stencil definition stores): it collects the cell
//! offsets into a `Vec` that is then sorted and deduplicated, tallies the
//! FLOPs, notes any division, and carries a scalar shadow of the
//! linear-form extraction — per subtree, whether it reads a cell and its
//! constant, computed with the extraction's own f64 operations. A linear
//! update's op mix follows from its tap count and that constant, so no
//! [`LinearForm`] is built to count its terms; only a non-linear one
//! (`gradient2d`) is read again, for its greedy FMA match.
//! [`Expr::shape_info`], [`Expr::flop_count`], [`Expr::op_mix`] and
//! [`Expr::is_associative`] read the same walk.
//!
//! [`Expr::write_c`] prints an expression as C source. Its constants go
//! through [`push_literal`], which prints the shortest decimal that reads
//! back as the same `f64` (the digits of core's `{}`) without `core::fmt`:
//! Ryu's interval scaling over power-of-five tables that the build script
//! derives from exact integer arithmetic. A [`LiteralType::Float`]
//! literal carries the `f` suffix, a [`LiteralType::Double`] one none, and
//! an integral one ends in `.0`.
//!
//! # Example
//!
//! ```
//! use an5d_expr::{Expr, Offset};
//!
//! // 5-point Jacobi: (5.1*A[i-1][j] + 12.1*A[i][j-1] + 15*A[i][j]
//! //                  + 12.2*A[i][j+1] + 5.2*A[i+1][j]) / 118
//! let expr = Expr::sum(vec![
//!     Expr::constant(5.1) * Expr::cell(&[-1, 0]),
//!     Expr::constant(12.1) * Expr::cell(&[0, -1]),
//!     Expr::constant(15.0) * Expr::cell(&[0, 0]),
//!     Expr::constant(12.2) * Expr::cell(&[0, 1]),
//!     Expr::constant(5.2) * Expr::cell(&[1, 0]),
//! ]) / Expr::constant(118.0);
//!
//! let shape = expr.shape_info().unwrap();
//! assert_eq!(shape.radius, 1);
//! assert_eq!(shape.ndim, 2);
//! assert_eq!(expr.flop_count().total(), 10); // Table 3: j2d5pt = 10 FLOP/cell
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expr;
mod facts;
mod flops;
mod linear;
mod literal;
mod offset;
mod shape;

pub use expr::{Arithmetic, BinOp, Expr, ExprBuilder, Node, UnOp};
pub use facts::ExprFacts;
pub use flops::{FlopCount, OpMix};
pub use linear::{LinearForm, LinearTerm};
pub use literal::{push_literal, LiteralType};
pub use offset::Offset;
pub use shape::{ShapeError, ShapeInfo, StencilShapeClass};
