//! The stencil update-expression tree.

use crate::facts::Walk;
use crate::Offset;
use std::fmt::{self, Write};
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

/// Binary operators appearing in stencil update expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Unary operators appearing in stencil update expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Square root (`sqrtf`/`sqrt` in the generated CUDA).
    Sqrt,
}

/// A stencil update expression.
///
/// The expression describes how the *new* value of the current cell is
/// computed from values of the *previous* time-step: [`Expr::Cell`] nodes
/// reference neighbours of the current cell by [`Offset`]. Constants model
/// compile-time coefficients (the paper's `c(…)` values are compile-time
/// constants for all evaluated benchmarks).
///
/// Sub-trees are reference-counted so cloning benchmark expressions (the
/// tuner evaluates hundreds of configurations) is cheap.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Expr {
    /// A compile-time constant (coefficient).
    Const(f64),
    /// The previous-time-step value of the cell at the given offset from the
    /// cell being updated.
    Cell(Offset),
    /// A unary operation.
    Unary(UnOp, Arc<Expr>),
    /// A binary operation.
    Binary(BinOp, Arc<Expr>, Arc<Expr>),
}

impl Expr {
    /// A constant (coefficient) leaf.
    #[must_use]
    pub fn constant(value: f64) -> Self {
        Expr::Const(value)
    }

    /// A neighbour access leaf at the given offset (outermost dimension
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if the offset rank is not in `1..=3`.
    #[must_use]
    pub fn cell(offset: &[i32]) -> Self {
        Expr::Cell(Offset::new(offset))
    }

    /// A neighbour access leaf from an [`Offset`].
    #[must_use]
    pub fn cell_at(offset: Offset) -> Self {
        Expr::Cell(offset)
    }

    /// Square root of an expression.
    #[must_use]
    pub fn sqrt(inner: Expr) -> Self {
        Expr::Unary(UnOp::Sqrt, Arc::new(inner))
    }

    /// Left-associated sum of the given terms.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty.
    #[must_use]
    pub fn sum(terms: Vec<Expr>) -> Self {
        let mut it = terms.into_iter();
        let first = it.next().expect("Expr::sum requires at least one term");
        it.fold(first, |acc, t| acc + t)
    }

    /// Number of dimensions of the stencil this expression describes, i.e.
    /// the rank of its cell accesses. Returns `None` if the expression has no
    /// cell access at all, and `Some(Err)` is never produced — rank
    /// consistency is checked by [`crate::ShapeInfo`].
    #[must_use]
    pub fn ndim(&self) -> Option<usize> {
        self.accessed_offsets().first().map(Offset::ndim)
    }

    /// All distinct neighbour offsets accessed by this expression, sorted.
    #[must_use]
    pub fn accessed_offsets(&self) -> Vec<Offset> {
        Walk::of(self).offsets
    }

    /// Total number of cell-access leaves (with multiplicity).
    #[must_use]
    pub fn cell_access_count(&self) -> usize {
        match self {
            Expr::Const(_) => 0,
            Expr::Cell(_) => 1,
            Expr::Unary(_, a) => a.cell_access_count(),
            Expr::Binary(_, a, b) => a.cell_access_count() + b.cell_access_count(),
        }
    }

    /// Number of nodes in the expression tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Cell(_) => 1,
            Expr::Unary(_, a) => 1 + a.node_count(),
            Expr::Binary(_, a, b) => 1 + a.node_count() + b.node_count(),
        }
    }

    /// Evaluate the expression given a resolver for neighbour values.
    ///
    /// The resolver receives the access offset and returns the previous
    /// time-step value of that neighbour (already shifted to the cell being
    /// updated). Evaluation order is fixed (left to right, as written), so
    /// two executors evaluating the same tree produce bit-identical results.
    pub fn eval<F>(&self, resolve: &F) -> f64
    where
        F: Fn(Offset) -> f64,
    {
        match self {
            Expr::Const(c) => *c,
            Expr::Cell(o) => resolve(*o),
            Expr::Unary(op, a) => {
                let v = a.eval(resolve);
                match op {
                    UnOp::Neg => -v,
                    UnOp::Sqrt => v.sqrt(),
                }
            }
            Expr::Binary(op, a, b) => {
                let x = a.eval(resolve);
                let y = b.eval(resolve);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                }
            }
        }
    }

    /// Evaluate in single precision (every intermediate rounded to `f32`),
    /// mirroring what the generated `float` CUDA kernel computes.
    pub fn eval_f32<F>(&self, resolve: &F) -> f32
    where
        F: Fn(Offset) -> f32,
    {
        match self {
            Expr::Const(c) => *c as f32,
            Expr::Cell(o) => resolve(*o),
            Expr::Unary(op, a) => {
                let v = a.eval_f32(resolve);
                match op {
                    UnOp::Neg => -v,
                    UnOp::Sqrt => v.sqrt(),
                }
            }
            Expr::Binary(op, a, b) => {
                let x = a.eval_f32(resolve);
                let y = b.eval_f32(resolve);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                }
            }
        }
    }

    /// Append the expression to `out` as C/CUDA source: fully
    /// parenthesised, constants as `float` literals, each neighbour access
    /// appended by `access` (e.g. as a register name or a shared-memory
    /// index). One buffer for the whole tree: a left-nested sum never
    /// re-copies its prefix, and no leaf becomes a `String` of its own.
    pub fn write_c<F>(&self, out: &mut String, access: &F)
    where
        F: Fn(&mut String, Offset),
    {
        match self {
            Expr::Const(c) => write_literal(out, *c),
            Expr::Cell(o) => access(out, *o),
            Expr::Unary(op, a) => {
                out.push_str(match op {
                    UnOp::Neg => "(-",
                    UnOp::Sqrt => "sqrt(",
                });
                a.write_c(out, access);
                out.push(')');
            }
            Expr::Binary(op, a, b) => {
                out.push('(');
                a.write_c(out, access);
                out.push_str(match op {
                    BinOp::Add => " + ",
                    BinOp::Sub => " - ",
                    BinOp::Mul => " * ",
                    BinOp::Div => " / ",
                });
                b.write_c(out, access);
                out.push(')');
            }
        }
    }

    /// Does the expression contain a division anywhere?
    ///
    /// The paper notes that double-precision *division* makes NVCC emit
    /// inefficient code (Section 7.1); the simulator's timing layer applies a
    /// derate keyed off this predicate.
    #[must_use]
    pub fn contains_division(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Cell(_) => false,
            Expr::Unary(_, a) => a.contains_division(),
            Expr::Binary(BinOp::Div, _, _) => true,
            Expr::Binary(_, a, b) => a.contains_division() || b.contains_division(),
        }
    }

    /// Does the expression contain a square root?
    #[must_use]
    pub fn contains_sqrt(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Cell(_) => false,
            Expr::Unary(UnOp::Sqrt, _) => true,
            Expr::Unary(_, a) => a.contains_sqrt(),
            Expr::Binary(_, a, b) => a.contains_sqrt() || b.contains_sqrt(),
        }
    }
}

/// Append a C float literal: `2.0f`, `0.25f`.
fn write_literal(out: &mut String, value: f64) {
    let written = if value == value.trunc() && value.abs() < 1e15 {
        write!(out, "{value:.1}f")
    } else {
        write!(out, "{value}f")
    };
    written.expect("writing to a String cannot fail");
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Arc::new(self), Arc::new(rhs))
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Arc::new(self), Arc::new(rhs))
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Arc::new(self), Arc::new(rhs))
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Arc::new(self), Arc::new(rhs))
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Arc::new(self))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_c(&mut out, &|out: &mut String, o: Offset| {
            write!(out, "A{o}").expect("writing to a String cannot fail");
        });
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn five_point() -> Expr {
        Expr::sum(vec![
            Expr::constant(5.1) * Expr::cell(&[-1, 0]),
            Expr::constant(12.1) * Expr::cell(&[0, -1]),
            Expr::constant(15.0) * Expr::cell(&[0, 0]),
            Expr::constant(12.2) * Expr::cell(&[0, 1]),
            Expr::constant(5.2) * Expr::cell(&[1, 0]),
        ]) / Expr::constant(118.0)
    }

    #[test]
    fn accessed_offsets_are_unique_and_sorted() {
        let e = Expr::cell(&[0, 1]) + Expr::cell(&[0, 1]) + Expr::cell(&[1, 0]);
        let offs = e.accessed_offsets();
        assert_eq!(offs.len(), 2);
        assert!(offs.contains(&Offset::new(&[0, 1])));
        assert!(offs.contains(&Offset::new(&[1, 0])));
    }

    #[test]
    fn cell_access_count_keeps_multiplicity() {
        let e = Expr::cell(&[0, 1]) + Expr::cell(&[0, 1]);
        assert_eq!(e.cell_access_count(), 2);
        assert_eq!(e.accessed_offsets().len(), 1);
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn eval_five_point_jacobi() {
        let e = five_point();
        // All neighbours = 1 → (5.1 + 12.1 + 15 + 12.2 + 5.2)/118 = 49.6/118
        let v = e.eval(&|_| 1.0);
        assert!((v - 49.6 / 118.0).abs() < 1e-12);
    }

    #[test]
    fn eval_resolves_specific_offsets() {
        let e = Expr::cell(&[-1, 0]) - Expr::cell(&[1, 0]);
        let v = e.eval(&|o| if o.component(0) == -1 { 3.0 } else { 1.0 });
        assert_eq!(v, 2.0);
    }

    #[test]
    fn eval_f32_rounds_intermediates() {
        let e = Expr::constant(0.1) + Expr::constant(0.2);
        let f32_result = e.eval_f32(&|_| 0.0);
        let f64_result = e.eval(&|_| 0.0);
        assert!((f64::from(f32_result) - f64_result).abs() > 0.0);
    }

    #[test]
    fn sqrt_and_neg_evaluate() {
        let e = Expr::sqrt(Expr::constant(16.0)) + (-Expr::constant(1.0));
        assert_eq!(e.eval(&|_| 0.0), 3.0);
        assert!(e.contains_sqrt());
        assert!(!e.contains_division());
    }

    #[test]
    fn division_detection() {
        assert!(five_point().contains_division());
        assert!(!(Expr::cell(&[0, 0]) * Expr::constant(2.0)).contains_division());
    }

    #[test]
    fn ndim_from_accesses() {
        assert_eq!(five_point().ndim(), Some(2));
        assert_eq!(Expr::constant(1.0).ndim(), None);
        assert_eq!(Expr::cell(&[0, 0, 1]).ndim(), Some(3));
    }

    #[test]
    fn write_c_renders_parenthesised_source() {
        let e = Expr::constant(2.0) * Expr::cell(&[0, 1]);
        let mut s = String::new();
        e.write_c(&mut s, &|out: &mut String, o: Offset| {
            write!(out, "A[i{:+}][j{:+}]", o.component(0), o.component(1)).unwrap();
        });
        assert_eq!(s, "(2.0f * A[i+0][j+1])");
    }

    #[test]
    fn display_uses_generic_access_names() {
        let e = Expr::cell(&[1, 0]) + Expr::constant(3.5);
        let s = e.to_string();
        assert!(s.contains("A(+1,+0)"));
        assert!(s.contains("3.5f"));
    }

    #[test]
    fn sum_is_left_associated() {
        let e = Expr::sum(vec![
            Expr::constant(1.0),
            Expr::constant(2.0),
            Expr::constant(3.0),
        ]);
        // ((1 + 2) + 3)
        match &e {
            Expr::Binary(BinOp::Add, left, _) => {
                assert!(matches!(**left, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("expected nested add, got {other:?}"),
        }
        assert_eq!(e.eval(&|_| 0.0), 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one term")]
    fn empty_sum_panics() {
        let _ = Expr::sum(vec![]);
    }
}
