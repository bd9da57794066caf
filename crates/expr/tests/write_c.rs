//! `Expr::write_c` against the renderer it replaced — a recursive one that
//! built a `format!` `String` per node — on all 21 suite expressions and
//! on one expression that uses every operator and both literal forms.

use an5d_expr::{BinOp, Expr, LiteralType, Node, Offset, UnOp};
use an5d_stencil::suite;

/// One `String` per node, as the renderer before `write_c` built it,
/// recursing from node `i` through `view` — except that an integral
/// constant of 10^15 or more ends in `.0` too, as a C floating literal
/// must (`100000000000000000000f` is no C literal).
fn reference(expr: &Expr, i: usize, access: &dyn Fn(Offset) -> String) -> String {
    match expr.view(i) {
        Node::Const(c) if c.is_finite() && c == c.trunc() => format!("{c}.0f"),
        Node::Const(c) => format!("{c}f"),
        Node::Cell(o) => access(o),
        Node::Unary(UnOp::Neg, a) => format!("(-{})", reference(expr, a, access)),
        Node::Unary(UnOp::Sqrt, a) => format!("sqrt({})", reference(expr, a, access)),
        Node::Binary(op, a, b) => {
            let symbol = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!(
                "({} {symbol} {})",
                reference(expr, a, access),
                reference(expr, b, access)
            )
        }
    }
}

/// Neighbour names in the style of the generated kernel: the streaming
/// column from registers, everything else from shared memory.
fn access_name(o: Offset) -> String {
    if o.in_plane_components().iter().all(|&c| c == 0) {
        format!("r{}", o.streaming_component() + 4)
    } else {
        format!("sm({:?})", o.in_plane_components())
    }
}

fn written(expr: &Expr) -> String {
    let mut out = String::from("prefix ");
    expr.write_c(
        &mut out,
        LiteralType::Float,
        &|out: &mut String, o: Offset| {
            out.push_str(&access_name(o));
        },
    );
    out
}

#[test]
fn write_c_matches_the_per_node_renderer_on_every_suite_expression() {
    let suite = suite::all_benchmarks();
    assert_eq!(suite.len(), 21);
    for def in suite {
        let expected = format!(
            "prefix {}",
            reference(def.expr(), def.expr().root(), &access_name)
        );
        assert_eq!(written(def.expr()), expected, "{}", def.name());
    }
}

#[test]
fn write_c_matches_the_per_node_renderer_on_every_operator_and_literal() {
    let centre = Expr::cell(&[0, 0, 0]);
    let side = Expr::cell(&[1, -2, 0]);
    let expr = -(Expr::sqrt(centre * Expr::constant(4.0)) / Expr::constant(0.1))
        + side * Expr::constant(-2.0)
        - Expr::constant(1e20) * Expr::constant(-0.0)
        + Expr::constant(f64::NAN);
    let expected = format!("prefix {}", reference(&expr, expr.root(), &access_name));
    assert_eq!(written(&expr), expected);
    for literal in [
        "4.0f",
        "0.1f",
        "-2.0f",
        "100000000000000000000.0f",
        "-0.0f",
        "NaNf",
    ] {
        assert!(
            expected.contains(literal),
            "{literal} missing from {expected}"
        );
    }
}
