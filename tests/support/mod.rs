//! A random-stencil strategy shared by the integration tests.

use an5d::{Expr, StencilDef};
use proptest::prelude::*;
use proptest::TestRng;

/// Strategy: a random update expression of rank 2 or 3 and radius 1–4
/// with `sqrt`, `/`, unary minus and shared subtrees, as a definition.
#[derive(Debug, Clone, Copy)]
pub struct RandomStencil {
    /// Whether constants may also be `-0.0`, NaN or ±∞ — values no C
    /// literal spells, so such a stencil cannot round-trip through source.
    pub specials: bool,
}

impl RandomStencil {
    /// Only non-negative finite constants: every stencil round-trips
    /// through emitted C source.
    #[allow(dead_code)]
    pub const ROUND_TRIP: Self = Self { specials: false };
    /// Signed zeros, NaN and infinities among the constants too.
    #[allow(dead_code)]
    pub const WITH_SPECIALS: Self = Self { specials: true };
}

/// Constants that tell a wrong sign, a reassociation or a dropped NaN
/// apart.
const SPECIALS: [f64; 4] = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

struct TreeGen<'r> {
    rng: &'r mut TestRng,
    ndim: usize,
    radius: i32,
    specials: bool,
}

impl TreeGen<'_> {
    fn below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    fn cell(&mut self) -> Expr {
        let span = 2 * self.radius as u64 + 1;
        let offset: Vec<i32> = (0..self.ndim)
            .map(|_| self.below(span) as i32 - self.radius)
            .collect();
        Expr::cell(&offset)
    }

    /// Without specials, constants are non-negative: `-2.0f` is the
    /// negation of `2.0f` to a C parser, so a negative literal cannot
    /// survive the round trip.
    fn leaf(&mut self) -> Expr {
        match self.below(if self.specials { 5 } else { 4 }) {
            0 => Expr::constant(self.below(1000) as f64 / 8.0),
            1 => Expr::constant(self.rng.next_unit_f64() * 10.0),
            4 => Expr::constant(SPECIALS[self.below(SPECIALS.len() as u64) as usize]),
            _ => self.cell(),
        }
    }

    fn tree(&mut self, depth: usize) -> Expr {
        if depth == 0 || self.below(5) == 0 {
            return self.leaf();
        }
        let kind = self.below(8);
        let lhs = self.tree(depth - 1);
        let rhs = match kind {
            0 => return -lhs,
            1 => return Expr::sqrt(lhs),
            // The same subtree on both sides.
            2 => lhs.clone(),
            _ => self.tree(depth - 1),
        };
        match self.below(4) {
            0 => lhs + rhs,
            1 => lhs - rhs,
            2 => lhs * rhs,
            _ => lhs / rhs,
        }
    }
}

impl Strategy for RandomStencil {
    type Value = StencilDef;

    fn generate(&self, rng: &mut TestRng) -> StencilDef {
        let ndim = 2 + rng.next_below(2) as usize;
        let radius = 1 + rng.next_below(4) as i32;
        let mut gen = TreeGen {
            rng,
            ndim,
            radius,
            specials: self.specials,
        };
        let depth = 1 + gen.below(5) as usize;
        let tree = gen.tree(depth);
        // One access at the full radius pins it (and guarantees a cell).
        let mut extreme = vec![0; ndim];
        extreme[gen.below(ndim as u64) as usize] = if gen.below(2) == 0 { radius } else { -radius };
        let expr = match gen.below(3) {
            0 => Expr::cell(&extreme) + tree,
            1 => tree * Expr::cell(&extreme),
            _ => tree - Expr::constant(0.5) * Expr::cell(&extreme),
        };
        StencilDef::new("random", expr).expect("a cell at radius 1-4 of rank 2-3")
    }
}
