//! Emission of Fig. 4-style C code from a stencil definition.
//!
//! The paper's workflow starts from hand-written C; for testing and for the
//! examples it is convenient to go the other way as well: any
//! [`StencilDef`] can be rendered back into the canonical double-buffered
//! loop nest, which the front-end must then re-detect to an equivalent
//! definition (round-trip property, covered by the crate tests and the
//! cross-crate integration tests).

use an5d_expr::{push_literal, BinOp, Expr, LiteralType, Node, Offset, UnOp};
use an5d_stencil::StencilDef;

/// Names of the spatial loop variables, outermost (streaming) first.
const SPACE_VARS: [&str; 3] = ["i", "j", "k"];

/// Render a stencil definition as the canonical C loop nest of Fig. 4.
///
/// `array` is the array name to use (the paper uses `A`); extents are
/// emitted as the symbols `I_T` and `I_S{N}…I_S1`.
#[must_use]
pub fn emit_c_source(def: &StencilDef, array: &str) -> String {
    let ndim = def.ndim();
    let rad = def.radius();
    let mut out = String::new();
    let mut indent = String::new();

    out.push_str("for (t = 0; t < I_T; t++)\n");
    for (d, &var) in SPACE_VARS.iter().enumerate().take(ndim) {
        indent.push_str("  ");
        let extent = format!("I_S{}", ndim - d);
        out.push_str(&format!(
            "{indent}for ({var} = {rad}; {var} <= {extent}; {var}++)\n"
        ));
    }
    indent.push_str("  ");

    let access = |offset: Offset| -> String {
        let mut s = format!("{array}[t%2]");
        for (d, &component) in offset.components().iter().enumerate() {
            let var = SPACE_VARS[d];
            match component.cmp(&0) {
                std::cmp::Ordering::Equal => s.push_str(&format!("[{var}]")),
                std::cmp::Ordering::Greater => s.push_str(&format!("[{var}+{component}]")),
                std::cmp::Ordering::Less => s.push_str(&format!("[{var}{component}]")),
            }
        }
        s
    };

    let mut store = format!("{array}[(t+1)%2]");
    for var in SPACE_VARS.iter().take(ndim) {
        store.push_str(&format!("[{var}]"));
    }
    out.push_str(&format!(
        "{indent}{store} = {};\n",
        render_expr(def.expr(), &access)
    ));
    out
}

/// Operator precedence used by the emitter: additive = 1, multiplicative =
/// 2, atoms = 3.
fn precedence(node: Node) -> u8 {
    match node {
        Node::Binary(BinOp::Add | BinOp::Sub, _, _) => 1,
        Node::Binary(BinOp::Mul | BinOp::Div, _, _) => 2,
        _ => 3,
    }
}

/// Precedence-aware rendering: long sums stay flat (`a + b + c + …`) rather
/// than deeply parenthesised, which keeps both the emitted code readable
/// and the re-parse of wide box stencils shallow. One loop with a stack of
/// what is left to print: a node with the least precedence its place
/// allows without parentheses, or text.
fn render_expr<F>(expr: &Expr, access: &F) -> String
where
    F: Fn(Offset) -> String,
{
    enum Step {
        Node(usize, u8),
        Text(&'static str),
    }
    let mut out = String::new();
    let mut todo = vec![Step::Node(expr.root(), 0)];
    while let Some(step) = todo.pop() {
        let (i, min_prec) = match step {
            Step::Node(i, min_prec) => (i, min_prec),
            Step::Text(text) => {
                out.push_str(text);
                continue;
            }
        };
        let node = expr.view(i);
        let own = precedence(node);
        if own < min_prec {
            out.push('(');
            todo.push(Step::Text(")"));
        }
        match node {
            Node::Const(c) => push_literal(&mut out, c, LiteralType::Float),
            Node::Cell(offset) => out.push_str(&access(offset)),
            // Unary minus binds tighter than any binary operator.
            Node::Unary(UnOp::Neg, a) => {
                out.push_str("(-");
                todo.extend([Step::Text(")"), Step::Node(a, 3)]);
            }
            Node::Unary(UnOp::Sqrt, a) => {
                out.push_str("sqrtf(");
                todo.extend([Step::Text(")"), Step::Node(a, 0)]);
            }
            Node::Binary(op, a, b) => {
                let symbol = match op {
                    BinOp::Add => " + ",
                    BinOp::Sub => " - ",
                    BinOp::Mul => " * ",
                    BinOp::Div => " / ",
                };
                // The right operand needs strictly higher precedence to keep
                // its grouping — under `+` and `*` too: floating-point
                // `a + (b + c)` is not `(a + b) + c`.
                todo.extend([
                    Step::Node(b, own + 1),
                    Step::Text(symbol),
                    Step::Node(a, own),
                ]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_stencil;
    use an5d_expr::Offset;
    use an5d_stencil::suite;

    #[test]
    fn emitted_source_has_canonical_structure() {
        let src = emit_c_source(&suite::j2d5pt(), "A");
        assert!(src.contains("for (t = 0; t < I_T; t++)"));
        assert!(src.contains("for (i = 1; i <= I_S2; i++)"));
        assert!(src.contains("for (j = 1; j <= I_S1; j++)"));
        assert!(src.contains("A[(t+1)%2][i][j] ="));
        assert!(src.contains("A[t%2][i-1][j]"));
        assert!(src.contains("/ 118.0f"));
    }

    #[test]
    fn emitted_3d_source_uses_three_spatial_loops() {
        let src = emit_c_source(&suite::star3d(2), "A");
        assert!(src.contains("for (i = 2; i <= I_S3; i++)"));
        assert!(src.contains("for (k = 2; k <= I_S1; k++)"));
        assert!(src.contains("A[(t+1)%2][i][j][k]"));
        assert!(src.contains("A[t%2][i][j][k-2]"));
    }

    #[test]
    fn round_trip_preserves_every_benchmark() {
        for def in suite::all_benchmarks() {
            let src = emit_c_source(&def, "A");
            let detected = parse_stencil(&src, def.name())
                .unwrap_or_else(|e| panic!("{}: {e}\n{src}", def.name()));
            assert_eq!(detected.def.ndim(), def.ndim(), "{}", def.name());
            assert_eq!(detected.def.radius(), def.radius(), "{}", def.name());
            assert_eq!(
                detected.def.shape_class(),
                def.shape_class(),
                "{}",
                def.name()
            );
            assert_eq!(
                detected.def.flops_per_cell(),
                def.flops_per_cell(),
                "{}",
                def.name()
            );
            // Semantic equivalence: identical values on a non-trivial resolver.
            let resolve = |o: Offset| {
                1.0 + o
                    .components()
                    .iter()
                    .enumerate()
                    .map(|(d, &c)| (d as f64 + 0.5) * 0.125 * f64::from(c))
                    .sum::<f64>()
            };
            let original = def.expr().eval(&resolve);
            let reparsed = detected.def.expr().eval(&resolve);
            assert!(
                (original - reparsed).abs() < 1e-12,
                "{}: {original} vs {reparsed}",
                def.name()
            );
        }
    }

    #[test]
    fn gradient_round_trip_keeps_nonlinearity() {
        let src = emit_c_source(&suite::gradient2d(), "A");
        assert!(src.contains("sqrtf("));
        let detected = parse_stencil(&src, "gradient2d").unwrap();
        assert!(!detected.def.is_associative());
        assert!(detected.def.diagonal_access_free());
    }
}
