//! Canonical, order-insensitive fingerprints for stencils, problems and
//! search spaces.
//!
//! Tuning results are persisted across processes keyed by
//! `(stencil, problem, device)`, so the keys must be *stable*: the same
//! logical query has to produce the same fingerprint in every process,
//! on every run, regardless of how the stencil expression happened to be
//! spelled. Three properties are load-bearing:
//!
//! * **Process stability** — the hash is a fixed-parameter FNV-1a 64
//!   over an explicit canonical byte encoding, not
//!   `std::collections::hash_map::DefaultHasher` (whose algorithm is
//!   unspecified and free to change between Rust releases — fatal for
//!   an on-disk database).
//! * **Order insensitivity** — `a + b` and `b + a` are the same
//!   stencil. Associative (linear) stencils are canonicalised through
//!   their [`Expr::as_linear`] normal form (terms sorted by offset,
//!   coefficients merged); non-linear stencils flatten commutative
//!   `+`/`×` chains and sort the operand encodings.
//! * **Name independence** — renaming a benchmark must not orphan its
//!   persisted tunings (the same motivation as keying device state on
//!   [`DeviceId`](an5d_gpusim::DeviceId) instead of profile names), so
//!   the stencil name is deliberately excluded. Two differently-named
//!   stencils with the same update expression *are* the same
//!   computation and share tuning results by design.

use an5d_expr::{BinOp, Expr, Node, UnOp};
use an5d_stencil::{StencilDef, StencilProblem};

/// A fixed-parameter FNV-1a 64-bit hasher.
///
/// Unlike `DefaultHasher` this algorithm is pinned here, so digests are
/// stable across processes, platforms and Rust releases — the property
/// an on-disk key (or checksum) needs.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Absorb a `usize` (widened to `u64` so 32- and 64-bit hosts
    /// agree).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of a byte slice in one call.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(bytes);
    hasher.finish()
}

/// Canonical encoding of an expression tree: linear normal form when the
/// stencil is associative, otherwise a tree rendering with commutative
/// `+`/`×` chains flattened and sorted. Either way, reordering the terms
/// of a sum (or the factors of a product) leaves the encoding unchanged.
fn canonical_expr(expr: &Expr) -> String {
    if let Some(form) = expr.as_linear() {
        // Terms arrive sorted by offset with duplicate offsets merged —
        // the order-insensitive normal form. Coefficients are encoded by
        // bit pattern so the digest never depends on float formatting.
        let mut out = String::from("lin{");
        for term in form.terms() {
            out.push('(');
            for (i, c) in term.offset.components().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push(';');
            out.push_str(&format!("{:016x}", term.coeff.to_bits()));
            out.push(')');
        }
        out.push_str(&format!("k{:016x}}}", form.constant().to_bits()));
        return out;
    }
    canonical_tree(expr)
}

/// A subtree's canonical encoding, or — for a `+`/`×` node — its chain's
/// operand encodings, kept open while the parent is the same operator.
enum Encoding {
    Done(String),
    Chain(BinOp, Vec<String>),
}

impl Encoding {
    fn finish(self) -> String {
        match self {
            Encoding::Done(text) => text,
            Encoding::Chain(op, mut operands) => {
                operands.sort_unstable();
                let name = if op == BinOp::Add { "add" } else { "mul" };
                format!("{name}({})", operands.join(","))
            }
        }
    }
}

/// The tree rendering: one loop over the nodes with a stack of the
/// operands' encodings. A `+` or `×` node joins its operands' chains of the
/// same operator, so a whole commutative chain is one sorted list.
fn canonical_tree(expr: &Expr) -> String {
    const WELL_FORMED: &str = "a post-order expression has its operands on the stack";
    let mut stack: Vec<Encoding> = Vec::with_capacity(expr.stack_depth());
    for i in 0..expr.node_count() {
        let encoding = match expr.view(i) {
            Node::Const(c) => Encoding::Done(format!("c{:016x}", c.to_bits())),
            Node::Cell(offset) => {
                let comps: Vec<String> = offset
                    .components()
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect();
                Encoding::Done(format!("a[{}]", comps.join(",")))
            }
            Node::Unary(op, _) => {
                let name = match op {
                    UnOp::Neg => "neg",
                    UnOp::Sqrt => "sqrt",
                };
                let a = stack.pop().expect(WELL_FORMED).finish();
                Encoding::Done(format!("{name}({a})"))
            }
            Node::Binary(op @ (BinOp::Add | BinOp::Mul), _, _) => {
                let b = stack.pop().expect(WELL_FORMED);
                let a = stack.pop().expect(WELL_FORMED);
                let mut operands = Vec::new();
                for side in [a, b] {
                    match side {
                        Encoding::Chain(inner, chain) if inner == op => operands.extend(chain),
                        other => operands.push(other.finish()),
                    }
                }
                Encoding::Chain(op, operands)
            }
            Node::Binary(op, _, _) => {
                let name = match op {
                    BinOp::Sub => "sub",
                    BinOp::Div => "div",
                    BinOp::Add | BinOp::Mul => unreachable!("handled above"),
                };
                let b = stack.pop().expect(WELL_FORMED).finish();
                let a = stack.pop().expect(WELL_FORMED).finish();
                Encoding::Done(format!("{name}({a},{b})"))
            }
        };
        stack.push(encoding);
    }
    stack.pop().expect(WELL_FORMED).finish()
}

/// Canonical, order-insensitive fingerprint of a stencil definition.
///
/// Stable across processes, independent of the stencil *name* and of the
/// textual order of commutative terms; distinct for stencils that
/// compute different updates (different offsets, coefficients, radius or
/// rank).
#[must_use]
pub fn stencil_fingerprint(def: &StencilDef) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(b"an5d-stencil-fp-v1|");
    hasher.write_usize(def.ndim());
    hasher.write_usize(def.radius());
    hasher.write(canonical_expr(def.expr()).as_bytes());
    hasher.finish()
}

/// Canonical fingerprint of a problem descriptor (interior extents and
/// time-step count). Extent *order* is semantic (streaming dimension
/// first), so it participates in the digest.
#[must_use]
pub fn problem_fingerprint(problem: &StencilProblem) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(b"an5d-problem-fp-v1|");
    hasher.write_usize(problem.interior().len());
    for &extent in problem.interior() {
        hasher.write_usize(extent);
    }
    hasher.write_usize(problem.time_steps());
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_stencil::suite;

    fn weighted(terms: &[(f64, [i32; 2])]) -> Expr {
        Expr::sum(
            terms
                .iter()
                .map(|(c, o)| Expr::constant(*c) * Expr::cell(o))
                .collect(),
        )
    }

    #[test]
    fn fingerprint_is_stable_under_term_reordering() {
        let forward = weighted(&[(1.0, [0, 1]), (2.0, [1, 0]), (3.0, [0, -1]), (4.0, [-1, 0])]);
        let backward = weighted(&[(4.0, [-1, 0]), (3.0, [0, -1]), (2.0, [1, 0]), (1.0, [0, 1])]);
        let a = StencilDef::new("fwd", forward).unwrap();
        let b = StencilDef::new("bwd", backward).unwrap();
        assert_eq!(stencil_fingerprint(&a), stencil_fingerprint(&b));
    }

    #[test]
    fn fingerprint_ignores_the_name_but_not_the_update() {
        let expr = weighted(&[(1.0, [0, 1]), (2.0, [1, 0])]);
        let named = StencilDef::new("original", expr.clone()).unwrap();
        let renamed = StencilDef::new("renamed", expr).unwrap();
        assert_eq!(stencil_fingerprint(&named), stencil_fingerprint(&renamed));

        let different = weighted(&[(1.5, [0, 1]), (2.0, [1, 0])]);
        let different = StencilDef::new("original", different).unwrap();
        assert_ne!(stencil_fingerprint(&named), stencil_fingerprint(&different));
    }

    #[test]
    fn suite_benchmarks_have_distinct_fingerprints() {
        let defs = [
            suite::j2d5pt(),
            suite::j2d9pt(),
            suite::star2d(1),
            suite::star2d(2),
            suite::box2d(1),
            suite::star3d(1),
            suite::box3d(1),
            suite::gradient2d(),
        ];
        let fps: Vec<u64> = defs.iter().map(stencil_fingerprint).collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(
                    fps[i],
                    fps[j],
                    "{} and {} must not collide",
                    defs[i].name(),
                    defs[j].name()
                );
            }
        }
    }

    #[test]
    fn non_linear_stencils_canonicalise_commutative_chains() {
        // gradient2d-style non-linear update: `a + 1/sqrt(d*d + 0.1)` with
        // the sum written in both orders.
        let diff = Expr::cell(&[0, 0]) - Expr::cell(&[1, 0]);
        let guard = Expr::constant(1.0) / Expr::sqrt(diff.clone() * diff + Expr::constant(0.1));
        let ab = Expr::cell(&[0, 0]) + guard.clone();
        let ba = guard + Expr::cell(&[0, 0]);
        let a = StencilDef::new("ab", ab).unwrap();
        let b = StencilDef::new("ba", ba).unwrap();
        assert!(!a.is_associative(), "the fallback path must be exercised");
        assert_eq!(stencil_fingerprint(&a), stencil_fingerprint(&b));
    }

    #[test]
    fn problem_fingerprint_distinguishes_extents_steps_and_order() {
        let def = suite::j2d5pt();
        let p1 = StencilProblem::new(def.clone(), &[128, 256], 10).unwrap();
        let p2 = StencilProblem::new(def.clone(), &[256, 128], 10).unwrap();
        let p3 = StencilProblem::new(def.clone(), &[128, 256], 20).unwrap();
        let p1_again = StencilProblem::new(def, &[128, 256], 10).unwrap();
        assert_eq!(problem_fingerprint(&p1), problem_fingerprint(&p1_again));
        assert_ne!(problem_fingerprint(&p1), problem_fingerprint(&p2));
        assert_ne!(problem_fingerprint(&p1), problem_fingerprint(&p3));
    }

    #[test]
    fn fnv_is_the_pinned_reference_algorithm() {
        // Reference vectors for FNV-1a 64 — if these move, every on-disk
        // key and checksum silently orphans.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
