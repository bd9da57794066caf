//! Floating-point operation counting for the Section 5 performance model.

use crate::expr::{operands, Slot};
use crate::facts::Walk;
use crate::{BinOp, Expr, UnOp};

/// Raw floating-point operation count of a stencil update, "as written".
///
/// This is the convention of Table 3 of the paper (FLOP/Cell): every scalar
/// add/sub/mul counts as one operation, a division counts as one operation
/// (under `--use_fast_math` a division by a constant compiles to a
/// multiplication), and a `1.0 / sqrt(x)` pair counts as a single reciprocal
/// square root. No common-subexpression elimination is applied — e.g.
/// `gradient2d` counts each difference twice because the source writes it
/// twice, matching the paper's 19 FLOP/cell figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FlopCount {
    /// Additions and subtractions.
    pub add: usize,
    /// Multiplications.
    pub mul: usize,
    /// Divisions (counted once each; fast-math lowers constant divisions to
    /// multiplications but the *count* stays one op).
    pub div: usize,
    /// Square roots (a `1.0 / sqrt(x)` pair is counted here as one rsqrt and
    /// zero divisions).
    pub sqrt: usize,
}

impl FlopCount {
    /// Total FLOPs per cell update — the Table 3 "FLOP/Cell" figure.
    #[must_use]
    pub fn total(&self) -> usize {
        self.add + self.mul + self.div + self.sqrt
    }
}

/// Instruction mix after fast-math compilation, used for the ALU-utilisation
/// efficiency term of the performance model:
///
/// `effALU = (2·FMA + MUL + ADD + OTHER) / (2·(FMA + MUL + ADD + OTHER))`
///
/// (Section 5 of the paper). A mix of pure FMAs gives `effALU = 1`; a mix
/// with no FMA at all gives `effALU = 0.5`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct OpMix {
    /// Fused multiply-add instructions (each performs 2 FLOPs).
    pub fma: usize,
    /// Stand-alone multiplications (constant divisions land here too).
    pub mul: usize,
    /// Stand-alone additions/subtractions.
    pub add: usize,
    /// Everything else (true divisions, square roots, special functions).
    pub other: usize,
}

impl OpMix {
    /// Number of instructions issued.
    #[must_use]
    pub fn instructions(&self) -> usize {
        self.fma + self.mul + self.add + self.other
    }

    /// FLOPs performed by this instruction mix (FMA counts double).
    #[must_use]
    pub fn flops(&self) -> usize {
        2 * self.fma + self.mul + self.add + self.other
    }

    /// ALU utilisation efficiency `effALU` from Section 5.
    #[must_use]
    pub fn alu_efficiency(&self) -> f64 {
        let instr = self.instructions();
        if instr == 0 {
            return 1.0;
        }
        self.flops() as f64 / (2.0 * instr as f64)
    }

    fn merge(mut self, other: OpMix) -> OpMix {
        self.fma += other.fma;
        self.mul += other.mul;
        self.add += other.add;
        self.other += other.other;
        self
    }
}

impl Expr {
    /// Count FLOPs per cell update with the Table 3 convention.
    #[must_use]
    pub fn flop_count(&self) -> FlopCount {
        Walk::of(self).flops
    }

    /// Estimate the post-compilation instruction mix under fast math.
    ///
    /// For associative stencils the compiler merges every multiply-add chain
    /// into FMAs and lowers the trailing constant division to a
    /// multiplication; for other stencils a greedy `a*b + c → FMA` pattern
    /// match over the expression is used. This mirrors what the paper observed with
    /// NVPROF when deriving `effALU`.
    #[must_use]
    pub fn op_mix(&self) -> OpMix {
        op_mix(self, &Walk::of(self))
    }
}

/// The instruction mix of `expr`, whose walk is `walk`. A linear update
/// with `k` terms — one per distinct offset — accumulates `k` products into
/// a sum: `k − 1` FMAs and one leading MUL, plus one ADD for a non-zero
/// constant. Only a non-linear update is matched greedily over the nodes.
pub(crate) fn op_mix(expr: &Expr, walk: &Walk) -> OpMix {
    let Some(constant) = walk.linear_constant else {
        return mix_of(expr);
    };
    let k = walk.offsets.len();
    let mut mix = OpMix::default();
    if k > 0 {
        mix.fma = k - 1;
        mix.mul = 1;
    }
    if constant != 0.0 {
        mix.add += 1;
    }
    mix
}

/// The binary node at `i` is `1.0 / sqrt(x)`, which fast math fuses into
/// one rsqrt.
pub(crate) fn is_rsqrt(nodes: &[Slot], i: usize) -> bool {
    let (a, b) = operands(nodes, i);
    matches!(nodes[i], Slot::Binary(BinOp::Div, _))
        && matches!(nodes[a], Slot::Const(c) if c == 1.0)
        && matches!(nodes[b], Slot::Unary(UnOp::Sqrt, _))
}

/// What the greedy match knows of a subtree: its instruction mix, whether
/// its value is a bare multiplication a parent addition could fuse into an
/// FMA, and whether it reads a cell.
#[derive(Clone, Copy)]
struct Mixed {
    mix: OpMix,
    is_product: bool,
    has_cells: bool,
}

/// The greedy `a*b + c → FMA` instruction mix of `expr`: one loop over the
/// nodes with a stack of the operands' [`Mixed`].
fn mix_of(expr: &Expr) -> OpMix {
    const WELL_FORMED: &str = "a post-order expression has its operands on the stack";
    let (add, mul, other) = (
        OpMix {
            add: 1,
            ..OpMix::default()
        },
        OpMix {
            mul: 1,
            ..OpMix::default()
        },
        OpMix {
            other: 1,
            ..OpMix::default()
        },
    );
    let nodes = expr.slots();
    let mut stack: Vec<Mixed> = Vec::with_capacity(expr.stack_depth());
    for (i, slot) in nodes.iter().enumerate() {
        let leaf = |has_cells| Mixed {
            mix: OpMix::default(),
            is_product: false,
            has_cells,
        };
        match *slot {
            Slot::Const(_) => stack.push(leaf(false)),
            Slot::Cell(_) => stack.push(leaf(true)),
            Slot::Unary(op, _) => {
                let top = stack.last_mut().expect(WELL_FORMED);
                top.is_product = false;
                if op == UnOp::Sqrt {
                    top.mix = top.mix.merge(other);
                }
            }
            Slot::Binary(op, _) => {
                let b = stack.pop().expect(WELL_FORMED);
                let a = stack.last_mut().expect(WELL_FORMED);
                let children = a.mix.merge(b.mix);
                let (is_product, mix) = match op {
                    // One child multiplication fuses with this addition.
                    BinOp::Add | BinOp::Sub if a.is_product || b.is_product => (
                        false,
                        OpMix {
                            mul: children.mul - 1,
                            fma: children.fma + 1,
                            ..children
                        },
                    ),
                    BinOp::Add | BinOp::Sub => (false, children.merge(add)),
                    BinOp::Mul => (true, children.merge(mul)),
                    // rsqrt: the sqrt was already counted as `other`.
                    BinOp::Div if is_rsqrt(nodes, i) => (false, children),
                    // Division by constant → multiplication by reciprocal.
                    BinOp::Div if !b.has_cells => (true, children.merge(mul)),
                    BinOp::Div => (false, children.merge(other)),
                };
                *a = Mixed {
                    mix,
                    is_product,
                    has_cells: a.has_cells || b.has_cells,
                };
            }
        }
    }
    stack.pop().expect(WELL_FORMED).mix
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

    fn star2d(radius: i32) -> Expr {
        let mut terms = vec![Expr::constant(0.5) * Expr::cell(&[0, 0])];
        for r in 1..=radius {
            for off in [[r, 0], [-r, 0], [0, r], [0, -r]] {
                terms.push(Expr::constant(0.1) * Expr::cell(&off));
            }
        }
        Expr::sum(terms)
    }

    fn box2d(radius: i32) -> Expr {
        let mut terms = Vec::new();
        for i in -radius..=radius {
            for j in -radius..=radius {
                terms.push(Expr::constant(0.01) * Expr::cell(&[i, j]));
            }
        }
        Expr::sum(terms)
    }

    #[test]
    fn table3_flops_j2d5pt() {
        assert_eq!(j2d5pt().flop_count().total(), 10);
    }

    #[test]
    fn table3_flops_star2d() {
        for x in 1..=4usize {
            assert_eq!(star2d(x as i32).flop_count().total(), 8 * x + 1);
        }
    }

    #[test]
    fn table3_flops_box2d() {
        for x in 1..=4usize {
            let expected = 2 * (2 * x + 1).pow(2) - 1;
            assert_eq!(box2d(x as i32).flop_count().total(), expected);
        }
    }

    #[test]
    fn rsqrt_counts_as_single_op() {
        let e = Expr::constant(1.0) / Expr::sqrt(Expr::cell(&[0, 0]));
        let count = e.flop_count();
        assert_eq!(count.div, 0);
        assert_eq!(count.sqrt, 1);
        assert_eq!(count.total(), 1);
    }

    #[test]
    fn plain_division_counts_once() {
        let e = Expr::cell(&[0, 0]) / Expr::constant(3.0);
        assert_eq!(e.flop_count().div, 1);
        assert_eq!(e.flop_count().total(), 1);
    }

    #[test]
    fn op_mix_for_associative_stencil_is_mostly_fma() {
        let mix = j2d5pt().op_mix();
        assert_eq!(mix.fma, 4);
        assert_eq!(mix.mul, 1);
        assert_eq!(mix.add, 0);
        assert_eq!(mix.other, 0);
        // effALU = (2*4 + 1) / (2*5) = 0.9
        assert!((mix.alu_efficiency() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn op_mix_flops_consistent_with_flop_count_for_linear() {
        for x in 1..=4 {
            let e = star2d(x);
            assert_eq!(e.op_mix().flops(), e.flop_count().total());
        }
    }

    #[test]
    fn op_mix_greedy_fma_for_nonlinear() {
        // a*b + c → 1 FMA
        let e = Expr::cell(&[0, 0]) * Expr::cell(&[0, 1]) + Expr::cell(&[1, 0]);
        let mix = e.op_mix();
        assert_eq!(mix.fma, 1);
        assert_eq!(mix.mul, 0);
        assert_eq!(mix.add, 0);
        assert_eq!(mix.alu_efficiency(), 1.0);
    }

    #[test]
    fn op_mix_other_for_sqrt_and_cell_division() {
        let e = Expr::sqrt(Expr::cell(&[0, 0])) + Expr::cell(&[0, 1]) / Expr::cell(&[1, 0]);
        let mix = e.op_mix();
        assert_eq!(mix.other, 2);
        assert_eq!(mix.add, 1);
        assert!(mix.alu_efficiency() < 1.0);
    }

    #[test]
    fn empty_mix_has_full_efficiency() {
        assert_eq!(OpMix::default().alu_efficiency(), 1.0);
        assert_eq!(OpMix::default().instructions(), 0);
        assert_eq!(OpMix::default().flops(), 0);
    }

    #[test]
    fn negation_is_free() {
        let e = -Expr::cell(&[0, 0]);
        assert_eq!(e.flop_count().total(), 0);
    }
}
