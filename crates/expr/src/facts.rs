//! Everything a stencil definition stores about its update expression,
//! derived in one loop over its nodes.

use crate::expr::Slot;
use crate::flops::{is_rsqrt, op_mix};
use crate::shape::classify;
use crate::{BinOp, Expr, FlopCount, Offset, OpMix, ShapeError, ShapeInfo, UnOp};

/// The facts [`Expr::facts`] derives from one walk of an update expression:
/// what [`Expr::shape_info`], [`Expr::flop_count`], [`Expr::op_mix`],
/// [`Expr::is_associative`] and [`Expr::contains_division`] return one by
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprFacts {
    /// Access-pattern summary, or why the expression has none.
    pub shape: Result<ShapeInfo, ShapeError>,
    /// FLOPs per cell update (Table 3 convention).
    pub flops: FlopCount,
    /// Post-compilation instruction mix (for `effALU`).
    pub op_mix: OpMix,
    /// `true` when the update admits the linear form
    /// ([`Expr::as_linear`] is `Some`).
    pub associative: bool,
    /// `true` when the expression contains a division anywhere.
    pub division: bool,
}

impl Expr {
    /// Derive every fact a stencil definition stores, in one loop over the
    /// nodes: the distinct offsets (collected into a `Vec`, then sorted
    /// and deduplicated), the FLOP tally, the division flag and whether the
    /// update is linear. Only a non-linear update is read a second time,
    /// for its greedy FMA match.
    #[must_use]
    pub fn facts(&self) -> ExprFacts {
        let walk = Walk::of(self);
        ExprFacts {
            op_mix: op_mix(self, &walk),
            flops: walk.flops,
            associative: walk.linear_constant.is_some(),
            division: walk.division,
            shape: classify(walk.offsets),
        }
    }
}

/// What one loop over an expression's nodes tallies.
pub(crate) struct Walk {
    /// The distinct cell offsets, sorted.
    pub(crate) offsets: Vec<Offset>,
    pub(crate) flops: FlopCount,
    pub(crate) division: bool,
    /// The additive constant of the linear form; `None` exactly where
    /// [`Expr::as_linear`] returns `None`.
    pub(crate) linear_constant: Option<f64>,
}

/// The scalar shadow of the linear extraction's polynomial: whether it has
/// any term, and its constant.
#[derive(Clone, Copy)]
struct Shadow {
    has_cells: bool,
    constant: f64,
}

impl Walk {
    /// One loop over the nodes, with a stack of the operands' shadows
    /// (`None` where the extraction gives up). The constant goes through
    /// the extraction's own f64 operations, so it is bit-identical to
    /// `as_linear()`'s, and a term is never dropped there, so the form has
    /// one term per distinct offset.
    pub(crate) fn of(expr: &Expr) -> Self {
        const WELL_FORMED: &str = "a post-order expression has its operands on the stack";
        let nodes = expr.slots();
        let mut offsets = Vec::new();
        let mut flops = FlopCount::default();
        let mut division = false;
        let mut shadows: Vec<Option<Shadow>> = Vec::with_capacity(expr.stack_depth());
        for (i, slot) in nodes.iter().enumerate() {
            match *slot {
                Slot::Const(c) => shadows.push(Some(Shadow {
                    has_cells: false,
                    constant: c,
                })),
                Slot::Cell(offset) => {
                    offsets.push(offset);
                    shadows.push(Some(Shadow {
                        has_cells: true,
                        constant: 0.0,
                    }));
                }
                Slot::Unary(op, _) => {
                    let top = shadows.last_mut().expect(WELL_FORMED);
                    *top = match op {
                        UnOp::Neg => top.map(|s| Shadow {
                            constant: -s.constant,
                            ..s
                        }),
                        UnOp::Sqrt => {
                            flops.sqrt += 1;
                            top.filter(|s| !s.has_cells).map(|s| Shadow {
                                has_cells: false,
                                constant: s.constant.sqrt(),
                            })
                        }
                    };
                }
                Slot::Binary(op, _) => {
                    match op {
                        BinOp::Add | BinOp::Sub => flops.add += 1,
                        BinOp::Mul => flops.mul += 1,
                        BinOp::Div => {
                            division = true;
                            // `1.0 / sqrt(x)` is one rsqrt, counted at the sqrt.
                            if !is_rsqrt(nodes, i) {
                                flops.div += 1;
                            }
                        }
                    }
                    let sb = shadows.pop().expect(WELL_FORMED);
                    let top = shadows.last_mut().expect(WELL_FORMED);
                    *top = match (*top, sb) {
                        (Some(sa), Some(sb)) => combine(op, sa, sb),
                        _ => None,
                    };
                }
            }
        }
        offsets.sort_unstable();
        offsets.dedup();
        Walk {
            offsets,
            flops,
            division,
            linear_constant: shadows.pop().expect(WELL_FORMED).map(|s| s.constant),
        }
    }
}

/// The shadow of `a op b`, `None` where the extraction gives up.
fn combine(op: BinOp, sa: Shadow, sb: Shadow) -> Option<Shadow> {
    match op {
        BinOp::Add | BinOp::Sub => {
            let sign = if op == BinOp::Add { 1.0 } else { -1.0 };
            Some(Shadow {
                has_cells: sa.has_cells || sb.has_cells,
                constant: sa.constant + sign * sb.constant,
            })
        }
        BinOp::Mul if !sa.has_cells => Some(Shadow {
            constant: sb.constant * sa.constant,
            ..sb
        }),
        BinOp::Mul if !sb.has_cells => Some(Shadow {
            constant: sa.constant * sb.constant,
            ..sa
        }),
        BinOp::Mul => None,
        BinOp::Div => (!sb.has_cells && sb.constant != 0.0).then(|| Shadow {
            constant: sa.constant * (1.0 / sb.constant),
            ..sa
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The constant `as_linear()` reports, bit for bit, and the walk's.
    fn constants(expr: &Expr) -> (Option<u64>, Option<u64>) {
        (
            expr.as_linear().map(|form| form.constant().to_bits()),
            Walk::of(expr).linear_constant.map(f64::to_bits),
        )
    }

    fn x() -> Expr {
        Expr::cell(&[0, 1])
    }

    #[test]
    fn the_shadow_constant_is_the_extractions_bit_for_bit() {
        let cases = [
            // -0.0: 0.0 · −1 and −0.0 + (−1 · 0.0).
            -(x() + Expr::constant(0.0)),
            Expr::constant(-0.0) - x(),
            // NaN: sqrt of a negative constant, 0 · ∞.
            x() + Expr::sqrt(Expr::constant(-1.0)),
            x() + Expr::constant(0.0) * (Expr::constant(1.0) / Expr::constant(1e-320)),
            // ±∞: a constant over a subnormal one, an infinite literal.
            x() + Expr::constant(1.0) / Expr::constant(5e-324),
            x() - Expr::constant(f64::INFINITY),
            // The ordinary cases.
            Expr::sqrt(Expr::constant(4.0)) * x(),
            x() * Expr::constant(0.0),
            Expr::constant(2.0) * (x() + Expr::constant(3.0)) / Expr::constant(7.0),
        ];
        for expr in &cases {
            let (extracted, walked) = constants(expr);
            assert!(extracted.is_some(), "{expr}");
            assert_eq!(walked, extracted, "{expr}");
        }
        let constant = |expr: &Expr| Walk::of(expr).linear_constant.unwrap();
        assert_eq!(constant(&cases[0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(constant(&cases[1]).to_bits(), (-0.0f64).to_bits());
        assert!(constant(&cases[2]).is_nan() && constant(&cases[3]).is_nan());
        assert_eq!(constant(&cases[4]), f64::INFINITY);
        assert_eq!(constant(&cases[5]), f64::NEG_INFINITY);
        assert_eq!(constant(&cases[7]), 0.0);
    }

    #[test]
    fn the_walk_is_non_linear_exactly_where_the_extraction_is() {
        let cases = [
            // Division by a zero constant, of either sign.
            x() / Expr::constant(0.0),
            x() / Expr::constant(-0.0),
            x() / (Expr::constant(1.0) - Expr::constant(1.0)),
            // Products and quotients of cells, sqrt of a cell.
            x() * x(),
            Expr::constant(1.0) / x(),
            Expr::sqrt(x()),
            // A cell whose coefficient cancels still makes a factor non-constant.
            (x() - x()) * x(),
        ];
        for expr in &cases {
            assert_eq!(constants(expr), (None, None), "{expr}");
        }
    }

    #[test]
    fn linear_terms_are_the_distinct_offsets() {
        // Repeated and cancelling offsets stay terms of the form.
        let expr =
            x() + x() - x() * Expr::constant(2.0) + Expr::cell(&[1, 0]) * Expr::constant(0.0);
        let form = expr.as_linear().unwrap();
        let walk = Walk::of(&expr);
        let offsets: Vec<Offset> = form.terms().iter().map(|t| t.offset).collect();
        assert_eq!(walk.offsets, offsets);
    }

    #[test]
    fn facts_are_the_one_by_one_answers() {
        let diff = Expr::cell(&[0, 0]) - Expr::cell(&[1, 0]);
        let gradient = Expr::cell(&[0, 0]) + Expr::constant(1.0) / Expr::sqrt(diff.clone() * diff);
        let jacobi = (Expr::constant(5.1) * Expr::cell(&[-1, 0])
            + Expr::constant(12.1) * Expr::cell(&[0, -1]))
            / Expr::constant(118.0);
        for expr in [
            gradient,
            jacobi,
            x() / Expr::constant(0.0),
            Expr::constant(1.0),
        ] {
            assert_eq!(
                expr.facts(),
                ExprFacts {
                    shape: expr.shape_info(),
                    flops: expr.flop_count(),
                    op_mix: expr.op_mix(),
                    associative: expr.is_associative(),
                    division: expr.contains_division(),
                },
                "{expr}"
            );
        }
    }
}
