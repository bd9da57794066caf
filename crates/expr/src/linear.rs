//! Extraction of the linear ("associative") normal form of a stencil.

use crate::expr::Slot;
use crate::facts::Walk;
use crate::{BinOp, Expr, Offset, UnOp};
use std::collections::BTreeMap;

/// One term of a [`LinearForm`]: `coeff × A[offset]`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinearTerm {
    /// Constant coefficient (division by a constant is folded in, mirroring
    /// the `--use_fast_math` behaviour the paper relies on).
    pub coeff: f64,
    /// Neighbour offset of the accessed cell.
    pub offset: Offset,
}

/// The "sum of coefficient × neighbour (+ constant)" normal form of a
/// stencil update.
///
/// A stencil that admits this form is what the paper calls an *associative*
/// stencil: the computation of a cell can be split into partial sums, one
/// per source sub-plane, which is the key to AN5D's shared-memory saving for
/// box stencils (Section 4.1). Non-linear stencils such as `gradient2d`
/// do not admit this form.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinearForm {
    terms: Vec<LinearTerm>,
    constant: f64,
}

impl LinearForm {
    /// The terms of the sum, sorted by offset.
    #[must_use]
    pub fn terms(&self) -> &[LinearTerm] {
        &self.terms
    }

    /// The additive constant (zero for every paper benchmark).
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Group the terms by their streaming-dimension (outermost-axis) offset.
    ///
    /// Each group is one *partial sum*: the contribution of a single source
    /// sub-plane to the updated cell. The associative-stencil optimisation
    /// evaluates these groups one sub-plane at a time, accumulating into a
    /// register (Section 4.1, "partial summations").
    #[must_use]
    pub fn partial_sums_by_plane(&self) -> BTreeMap<i32, Vec<LinearTerm>> {
        let mut map: BTreeMap<i32, Vec<LinearTerm>> = BTreeMap::new();
        for term in &self.terms {
            map.entry(term.offset.streaming_component())
                .or_default()
                .push(*term);
        }
        map
    }

    /// Evaluate the linear form with a neighbour resolver (used to check the
    /// extraction preserved semantics).
    pub fn eval<F>(&self, resolve: &F) -> f64
    where
        F: Fn(Offset) -> f64,
    {
        let mut acc = self.constant;
        for term in &self.terms {
            acc += term.coeff * resolve(term.offset);
        }
        acc
    }
}

/// Internal polynomial-of-degree-≤1 representation during extraction.
#[derive(Debug, Clone, Default)]
struct Poly {
    terms: BTreeMap<Offset, f64>,
    constant: f64,
}

impl Poly {
    fn constant(c: f64) -> Self {
        Poly {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    fn cell(offset: Offset) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(offset, 1.0);
        Poly {
            terms,
            constant: 0.0,
        }
    }

    fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    fn add(mut self, other: Poly, sign: f64) -> Poly {
        for (offset, coeff) in other.terms {
            *self.terms.entry(offset).or_insert(0.0) += sign * coeff;
        }
        self.constant += sign * other.constant;
        self
    }

    /// Every coefficient and the constant negated — a sign flip, which
    /// is `scale(-1.0)` on every value but a NaN, whose sign a
    /// multiplication leaves unspecified.
    fn neg(mut self) -> Poly {
        for coeff in self.terms.values_mut() {
            *coeff = -*coeff;
        }
        self.constant = -self.constant;
        self
    }

    fn scale(mut self, factor: f64) -> Poly {
        for coeff in self.terms.values_mut() {
            *coeff *= factor;
        }
        self.constant *= factor;
        self
    }
}

impl Expr {
    /// Try to extract the linear (associative) normal form of this stencil.
    ///
    /// Returns `None` for non-linear updates (products of cell values,
    /// division by a cell value, `sqrt` of a cell-dependent quantity, …).
    #[must_use]
    pub fn as_linear(&self) -> Option<LinearForm> {
        let poly = extract(self)?;
        let terms = poly
            .terms
            .into_iter()
            .map(|(offset, coeff)| LinearTerm { coeff, offset })
            .collect();
        Some(LinearForm {
            terms,
            constant: poly.constant,
        })
    }

    /// `true` when the stencil update is a plain weighted sum of neighbours —
    /// the paper's *associative stencil* condition.
    #[must_use]
    pub fn is_associative(&self) -> bool {
        Walk::of(self).linear_constant.is_some()
    }
}

/// The polynomial of `expr`, `None` where it is not linear: one loop over
/// the nodes with a stack of the operands' polynomials.
fn extract(expr: &Expr) -> Option<Poly> {
    const WELL_FORMED: &str = "a post-order expression has its operands on the stack";
    let mut stack: Vec<Option<Poly>> = Vec::with_capacity(expr.stack_depth());
    for slot in expr.slots() {
        match *slot {
            Slot::Const(c) => stack.push(Some(Poly::constant(c))),
            Slot::Cell(offset) => stack.push(Some(Poly::cell(offset))),
            Slot::Unary(op, _) => {
                let top = stack.last_mut().expect(WELL_FORMED);
                *top = top.take().and_then(|inner| match op {
                    UnOp::Neg => Some(inner.neg()),
                    UnOp::Sqrt if inner.is_constant() => {
                        Some(Poly::constant(inner.constant.sqrt()))
                    }
                    UnOp::Sqrt => None,
                });
            }
            Slot::Binary(op, _) => {
                let pb = stack.pop().expect(WELL_FORMED);
                let top = stack.last_mut().expect(WELL_FORMED);
                *top = top.take().zip(pb).and_then(|(pa, pb)| combine(op, pa, pb));
            }
        }
    }
    stack.pop().expect(WELL_FORMED)
}

/// The polynomial of `a op b`, `None` where it is not linear.
fn combine(op: BinOp, pa: Poly, pb: Poly) -> Option<Poly> {
    match op {
        BinOp::Add => Some(pa.add(pb, 1.0)),
        BinOp::Sub => Some(pa.add(pb, -1.0)),
        BinOp::Mul => {
            if pa.is_constant() {
                Some(pb.scale(pa.constant))
            } else if pb.is_constant() {
                Some(pa.scale(pb.constant))
            } else {
                None
            }
        }
        BinOp::Div => {
            if pb.is_constant() && pb.constant != 0.0 {
                Some(pa.scale(1.0 / pb.constant))
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j2d5pt() -> Expr {
        Expr::sum(vec![
            Expr::constant(5.1) * Expr::cell(&[-1, 0]),
            Expr::constant(12.1) * Expr::cell(&[0, -1]),
            Expr::constant(15.0) * Expr::cell(&[0, 0]),
            Expr::constant(12.2) * Expr::cell(&[0, 1]),
            Expr::constant(5.2) * Expr::cell(&[1, 0]),
        ]) / Expr::constant(118.0)
    }

    #[test]
    fn jacobi_is_associative_with_folded_division() {
        let form = j2d5pt().as_linear().expect("linear");
        assert_eq!(form.terms().len(), 5);
        assert_eq!(form.constant(), 0.0);
        let centre = form
            .terms()
            .iter()
            .find(|t| t.offset.radius() == 0)
            .expect("centre term");
        assert!((centre.coeff - 15.0 / 118.0).abs() < 1e-12);
        assert!(j2d5pt().is_associative());
    }

    #[test]
    fn linear_form_matches_expression_value() {
        let e = j2d5pt();
        let form = e.as_linear().unwrap();
        let resolve = |o: Offset| 1.0 + 0.3 * o.component(0) as f64 - 0.7 * o.component(1) as f64;
        let direct = e.eval(&resolve);
        let via_form = form.eval(&resolve);
        assert!((direct - via_form).abs() < 1e-12);
    }

    #[test]
    fn partial_sums_group_by_streaming_plane() {
        let form = j2d5pt().as_linear().unwrap();
        let groups = form.partial_sums_by_plane();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&-1].len(), 1);
        assert_eq!(groups[&0].len(), 3);
        assert_eq!(groups[&1].len(), 1);
    }

    #[test]
    fn gradient_like_update_is_not_associative() {
        let diff = Expr::cell(&[0, 0]) - Expr::cell(&[1, 0]);
        let e = Expr::cell(&[0, 0])
            + Expr::constant(1.0) / Expr::sqrt(diff.clone() * diff + Expr::constant(0.1));
        assert!(e.as_linear().is_none());
        assert!(!e.is_associative());
    }

    #[test]
    fn product_of_cells_is_not_associative() {
        let e = Expr::cell(&[0, 1]) * Expr::cell(&[1, 0]);
        assert!(e.as_linear().is_none());
    }

    #[test]
    fn division_by_cell_is_not_associative() {
        let e = Expr::constant(1.0) / Expr::cell(&[0, 0]);
        assert!(e.as_linear().is_none());
    }

    #[test]
    fn repeated_offsets_are_merged() {
        let e =
            Expr::constant(2.0) * Expr::cell(&[0, 1]) + Expr::constant(3.0) * Expr::cell(&[0, 1]);
        let form = e.as_linear().unwrap();
        assert_eq!(form.terms().len(), 1);
        assert_eq!(form.terms()[0].coeff, 5.0);
    }

    #[test]
    fn constant_sqrt_folds() {
        let e = Expr::sqrt(Expr::constant(4.0)) * Expr::cell(&[0, 0]);
        let form = e.as_linear().unwrap();
        assert_eq!(form.terms()[0].coeff, 2.0);
    }

    #[test]
    fn subtraction_and_negation_handled() {
        let e = -(Expr::cell(&[0, 0]) - Expr::constant(0.5) * Expr::cell(&[0, 1]));
        let form = e.as_linear().unwrap();
        let centre = form
            .terms()
            .iter()
            .find(|t| t.offset.radius() == 0)
            .unwrap();
        assert_eq!(centre.coeff, -1.0);
        let right = form
            .terms()
            .iter()
            .find(|t| t.offset == Offset::new(&[0, 1]))
            .unwrap();
        assert_eq!(right.coeff, 0.5);
    }
}
