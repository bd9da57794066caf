//! The loops that read an expression's post-order nodes against the
//! recursions they replaced, kept here as test-local references that walk
//! the same expression through `Expr::view`: evaluation in `f64` and
//! `f32`, the facts `StencilDef::new` stores, the linear form, and the
//! canonical fingerprint the tune DB keys on. Inputs are the 21 suite
//! stencils and random stencils with shared subtrees, `sqrt`, `/` and
//! `-0.0`, NaN and ±∞ constants. The suite's fingerprints are also pinned
//! to `suite_fingerprints.txt`: tune-DB files on disk are keyed by them.
//!
//! A NaN result's sign is left unspecified by the language (the hardware
//! picks an operand's NaN, and the compiler may swap the operands of `+`
//! and `×`), so two NaNs compare equal here; every other value is compared
//! bit for bit.

use an5d::{
    stencil_fingerprint, suite, BinOp, Expr, FlopCount, LinearForm, Node, Offset, OpMix,
    StencilDef, UnOp,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use support::RandomStencil;

mod support;

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Neighbour values: ordinary ones, and at a few offsets a signed zero, an
/// infinity or a NaN.
fn resolve(o: Offset) -> f64 {
    let sum: i32 = o.components().iter().sum();
    match o.components()[0] * 7 + sum {
        9 => -0.0,
        -9 => f64::INFINITY,
        13 => f64::NAN,
        key => 1.0 + 0.37 * f64::from(key) - 0.011 * f64::from(sum * sum),
    }
}

fn eval_ref(expr: &Expr, i: usize) -> f64 {
    match expr.view(i) {
        Node::Const(c) => c,
        Node::Cell(o) => resolve(o),
        Node::Unary(UnOp::Neg, a) => -eval_ref(expr, a),
        Node::Unary(UnOp::Sqrt, a) => eval_ref(expr, a).sqrt(),
        Node::Binary(op, a, b) => {
            let (x, y) = (eval_ref(expr, a), eval_ref(expr, b));
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
            }
        }
    }
}

fn eval_f32_ref(expr: &Expr, i: usize) -> f32 {
    match expr.view(i) {
        Node::Const(c) => c as f32,
        Node::Cell(o) => resolve(o) as f32,
        Node::Unary(UnOp::Neg, a) => -eval_f32_ref(expr, a),
        Node::Unary(UnOp::Sqrt, a) => eval_f32_ref(expr, a).sqrt(),
        Node::Binary(op, a, b) => {
            let (x, y) = (eval_f32_ref(expr, a), eval_f32_ref(expr, b));
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
            }
        }
    }
}

/// The linear extraction as a recursion: a polynomial of degree ≤ 1 per
/// subtree, `None` where it is not linear.
#[derive(Clone)]
struct Poly {
    terms: BTreeMap<Offset, f64>,
    constant: f64,
}

fn linear_ref(expr: &Expr, i: usize) -> Option<Poly> {
    let constant = |c| Poly {
        terms: BTreeMap::new(),
        constant: c,
    };
    let scale = |mut p: Poly, factor: f64| {
        p.terms.values_mut().for_each(|c| *c *= factor);
        p.constant *= factor;
        p
    };
    let add = |mut p: Poly, q: Poly, sign: f64| {
        for (offset, coeff) in q.terms {
            *p.terms.entry(offset).or_insert(0.0) += sign * coeff;
        }
        p.constant += sign * q.constant;
        p
    };
    match expr.view(i) {
        Node::Const(c) => Some(constant(c)),
        Node::Cell(o) => Some(Poly {
            terms: BTreeMap::from([(o, 1.0)]),
            constant: 0.0,
        }),
        Node::Unary(UnOp::Neg, a) => {
            let mut p = linear_ref(expr, a)?;
            p.terms.values_mut().for_each(|c| *c = -*c);
            p.constant = -p.constant;
            Some(p)
        }
        Node::Unary(UnOp::Sqrt, a) => {
            let p = linear_ref(expr, a)?;
            p.terms.is_empty().then(|| constant(p.constant.sqrt()))
        }
        Node::Binary(op, a, b) => {
            let (pa, pb) = (linear_ref(expr, a)?, linear_ref(expr, b)?);
            match op {
                BinOp::Add => Some(add(pa, pb, 1.0)),
                BinOp::Sub => Some(add(pa, pb, -1.0)),
                BinOp::Mul if pa.terms.is_empty() => Some(scale(pb, pa.constant)),
                BinOp::Mul if pb.terms.is_empty() => Some(scale(pa, pb.constant)),
                BinOp::Mul => None,
                BinOp::Div if pb.terms.is_empty() && pb.constant != 0.0 => {
                    Some(scale(pa, 1.0 / pb.constant))
                }
                BinOp::Div => None,
            }
        }
    }
}

fn is_rsqrt(expr: &Expr, a: usize, b: usize) -> bool {
    matches!(expr.view(a), Node::Const(c) if c == 1.0)
        && matches!(expr.view(b), Node::Unary(UnOp::Sqrt, _))
}

/// Offsets, FLOP tally and division flag, by recursion.
fn walk_ref(
    expr: &Expr,
    i: usize,
    offsets: &mut BTreeSet<Offset>,
    flops: &mut FlopCount,
    division: &mut bool,
) {
    match expr.view(i) {
        Node::Const(_) => {}
        Node::Cell(o) => {
            offsets.insert(o);
        }
        Node::Unary(op, a) => {
            if op == UnOp::Sqrt {
                flops.sqrt += 1;
            }
            walk_ref(expr, a, offsets, flops, division);
        }
        Node::Binary(op, a, b) => {
            match op {
                BinOp::Add | BinOp::Sub => flops.add += 1,
                BinOp::Mul => flops.mul += 1,
                BinOp::Div => {
                    *division = true;
                    if !is_rsqrt(expr, a, b) {
                        flops.div += 1;
                    }
                }
            }
            walk_ref(expr, a, offsets, flops, division);
            walk_ref(expr, b, offsets, flops, division);
        }
    }
}

/// The greedy `a*b + c → FMA` match, by recursion: whether the subtree's
/// value is a bare product, and its mix.
fn mix_ref(expr: &Expr, i: usize) -> (bool, OpMix) {
    let with = |mix: OpMix, extra: OpMix| OpMix {
        fma: mix.fma + extra.fma,
        mul: mix.mul + extra.mul,
        add: mix.add + extra.add,
        other: mix.other + extra.other,
    };
    let one = |add, mul, other| OpMix {
        fma: 0,
        mul,
        add,
        other,
    };
    match expr.view(i) {
        Node::Const(_) | Node::Cell(_) => (false, OpMix::default()),
        Node::Unary(UnOp::Neg, a) => (false, mix_ref(expr, a).1),
        Node::Unary(UnOp::Sqrt, a) => (false, with(mix_ref(expr, a).1, one(0, 0, 1))),
        Node::Binary(op, a, b) => {
            let ((a_mul, am), (b_mul, bm)) = (mix_ref(expr, a), mix_ref(expr, b));
            let children = with(am, bm);
            match op {
                BinOp::Add | BinOp::Sub if a_mul || b_mul => (
                    false,
                    OpMix {
                        fma: children.fma + 1,
                        mul: children.mul - 1,
                        ..children
                    },
                ),
                BinOp::Add | BinOp::Sub => (false, with(children, one(1, 0, 0))),
                BinOp::Mul => (true, with(children, one(0, 1, 0))),
                BinOp::Div if is_rsqrt(expr, a, b) => (false, children),
                BinOp::Div if reads_no_cell(expr, b) => (true, with(children, one(0, 1, 0))),
                BinOp::Div => (false, with(children, one(0, 0, 1))),
            }
        }
    }
}

fn reads_no_cell(expr: &Expr, i: usize) -> bool {
    match expr.view(i) {
        Node::Const(_) => true,
        Node::Cell(_) => false,
        Node::Unary(_, a) => reads_no_cell(expr, a),
        Node::Binary(_, a, b) => reads_no_cell(expr, a) && reads_no_cell(expr, b),
    }
}

fn assert_same_form(form: Option<LinearForm>, reference: Option<Poly>, expr: &Expr) {
    let (Some(form), Some(reference)) = (&form, &reference) else {
        assert_eq!(form.is_some(), reference.is_some(), "{expr}");
        return;
    };
    assert!(
        same_bits(form.constant(), reference.constant),
        "{expr}: constant {} vs {}",
        form.constant(),
        reference.constant
    );
    assert_eq!(form.terms().len(), reference.terms.len(), "{expr}");
    for (term, (&offset, &coeff)) in form.terms().iter().zip(&reference.terms) {
        assert_eq!(term.offset, offset, "{expr}");
        assert!(same_bits(term.coeff, coeff), "{expr}: {offset}");
    }
}

fn assert_readers_match_references(def: &StencilDef) {
    let expr = def.expr();
    let root = expr.root();

    let (got, want) = (expr.eval(&resolve), eval_ref(expr, root));
    assert!(same_bits(got, want), "{expr}: eval {got:e} vs {want:e}");
    let (got, want) = (
        expr.eval_f32(&|o| resolve(o) as f32),
        eval_f32_ref(expr, root),
    );
    assert!(
        same_bits(f64::from(got), f64::from(want)),
        "{expr}: eval_f32 {got:e} vs {want:e}"
    );

    let reference = linear_ref(expr, root);
    let (mut offsets, mut flops, mut division) = (BTreeSet::new(), FlopCount::default(), false);
    walk_ref(expr, root, &mut offsets, &mut flops, &mut division);
    let facts = expr.facts();
    let shape = facts.shape.as_ref().expect("a stencil reads a cell");
    assert_eq!(
        shape.offsets,
        offsets.into_iter().collect::<Vec<_>>(),
        "{expr}"
    );
    assert_eq!(facts.flops, flops, "{expr}");
    assert_eq!(facts.division, division, "{expr}");
    assert_eq!(facts.associative, reference.is_some(), "{expr}");
    if reference.is_none() {
        assert_eq!(facts.op_mix, mix_ref(expr, root).1, "{expr}");
    }
    assert_same_form(expr.as_linear(), reference, expr);

    // A NaN in the linear form makes the encoding carry its sign.
    let nan_in_form = expr
        .as_linear()
        .is_some_and(|f| f.constant().is_nan() || f.terms().iter().any(|t| t.coeff.is_nan()));
    if !nan_in_form {
        assert_eq!(stencil_fingerprint(def), fingerprint_ref(def), "{expr}");
    }
}

/// The canonical encoding of a non-linear update, by recursion: a `+` or
/// `×` chain flattened and its operand encodings sorted.
fn canonical_tree_ref(expr: &Expr, i: usize) -> String {
    fn flatten(expr: &Expr, i: usize, op: BinOp, out: &mut Vec<usize>) {
        match expr.view(i) {
            Node::Binary(o, a, b) if o == op => {
                flatten(expr, a, op, out);
                flatten(expr, b, op, out);
            }
            _ => out.push(i),
        }
    }
    match expr.view(i) {
        Node::Const(c) => format!("c{:016x}", c.to_bits()),
        Node::Cell(o) => {
            let comps: Vec<String> = o.components().iter().map(i32::to_string).collect();
            format!("a[{}]", comps.join(","))
        }
        Node::Unary(op, a) => {
            let name = if op == UnOp::Neg { "neg" } else { "sqrt" };
            format!("{name}({})", canonical_tree_ref(expr, a))
        }
        Node::Binary(op @ (BinOp::Add | BinOp::Mul), _, _) => {
            let mut operands = Vec::new();
            flatten(expr, i, op, &mut operands);
            let mut encoded: Vec<String> = operands
                .into_iter()
                .map(|o| canonical_tree_ref(expr, o))
                .collect();
            encoded.sort_unstable();
            let name = if op == BinOp::Add { "add" } else { "mul" };
            format!("{name}({})", encoded.join(","))
        }
        Node::Binary(op, a, b) => {
            let name = if op == BinOp::Sub { "sub" } else { "div" };
            format!(
                "{name}({},{})",
                canonical_tree_ref(expr, a),
                canonical_tree_ref(expr, b)
            )
        }
    }
}

/// `stencil_fingerprint` spelled out: FNV-1a 64 over the rank, the radius
/// and the linear form's terms — or, for a non-linear update, the tree
/// encoding.
fn fingerprint_ref(def: &StencilDef) -> u64 {
    let expr = def.expr();
    let encoding = match linear_ref(expr, expr.root()) {
        Some(poly) => {
            let mut out = String::from("lin{");
            for (offset, coeff) in &poly.terms {
                let comps: Vec<String> = offset.components().iter().map(i32::to_string).collect();
                out.push_str(&format!("({};{:016x})", comps.join(","), coeff.to_bits()));
            }
            out.push_str(&format!("k{:016x}}}", poly.constant.to_bits()));
            out
        }
        None => canonical_tree_ref(expr, expr.root()),
    };
    let mut bytes = b"an5d-stencil-fp-v1|".to_vec();
    bytes.extend((def.ndim() as u64).to_le_bytes());
    bytes.extend((def.radius() as u64).to_le_bytes());
    bytes.extend(encoding.as_bytes());
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_readers_match_the_recursive_references(def in RandomStencil::WITH_SPECIALS) {
        assert_readers_match_references(&def);
    }
}

#[test]
fn flat_readers_match_the_recursive_references_on_the_suite() {
    for def in suite::all_benchmarks() {
        assert_readers_match_references(&def);
    }
}

#[test]
fn suite_fingerprints_are_the_golden_ones() {
    let golden = include_str!("suite_fingerprints.txt");
    let suite = suite::all_benchmarks();
    assert_eq!(golden.lines().count(), suite.len());
    for (def, line) in suite.iter().zip(golden.lines()) {
        let actual = format!("{} {:016x}", def.name(), stencil_fingerprint(def));
        assert_eq!(actual, line, "a persisted tune-DB key moved");
    }
}
