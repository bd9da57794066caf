//! Property-based tests of the C frontend: emitted source parses back to
//! the definition it was emitted from (division flag included), each fact
//! `StencilDef::new` derives in its one walk equals a separate reference,
//! no input panics the parser, and the
//! parser's two limits (nesting depth, nodes of the update expression) hold
//! — an input at each limit, and a radius-7 3D box, runs the whole
//! pipeline on the 2 MiB stack a service worker has, an input past either
//! is an error, not a deep recursion.

use an5d::{
    emit_c_source, generate_cuda_for_plan, parse_stencil, suite, An5d, BinOp, BlockConfig, Expr,
    FlopCount, FrontendError, Node, Offset, OpMix, Precision, StencilDef, UnOp,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use support::RandomStencil;

mod support;

/// The parser's limits (`crates/frontend/src/parser.rs`, crate docs).
const MAX_NESTING: usize = 64;
const MAX_NODES: usize = 16_384;

fn assert_round_trip(def: &StencilDef) {
    let source = emit_c_source(def, "A");
    let detected = parse_stencil(&source, def.name()).unwrap_or_else(|e| panic!("{e}\n{source}"));
    assert_eq!(&detected.def, def, "{source}");
    // The flag `StencilDef::new` caches is the walk over the tree, on the
    // built definition and on the parsed one.
    for def in [def, &detected.def] {
        assert_eq!(
            def.contains_division(),
            def.expr().contains_division(),
            "{source}"
        );
    }
    assert_eq!(detected.array_name, "A");
    assert_eq!(detected.time_var, "t");
    assert_eq!(detected.space_vars, ["i", "j", "k"][..def.ndim()]);
}

/// The references for what `StencilDef::new` derives in one walk: each
/// fact recomputed on its own — offsets through a `BTreeSet`, the op mix
/// of a linear update from its `LinearForm`, the FLOP tally and the
/// division flag by separate recursions.
fn assert_facts_match_references(def: &StencilDef) {
    fn collect(expr: &Expr, i: usize, offsets: &mut BTreeSet<Offset>, flops: &mut FlopCount) {
        match expr.view(i) {
            Node::Const(_) => {}
            Node::Cell(offset) => {
                offsets.insert(offset);
            }
            Node::Unary(op, a) => {
                if op == UnOp::Sqrt {
                    flops.sqrt += 1;
                }
                collect(expr, a, offsets, flops);
            }
            Node::Binary(op, a, b) => {
                let rsqrt = matches!(expr.view(a), Node::Const(c) if c == 1.0)
                    && matches!(expr.view(b), Node::Unary(UnOp::Sqrt, _));
                match op {
                    BinOp::Add | BinOp::Sub => flops.add += 1,
                    BinOp::Mul => flops.mul += 1,
                    BinOp::Div if rsqrt => {}
                    BinOp::Div => flops.div += 1,
                }
                collect(expr, a, offsets, flops);
                collect(expr, b, offsets, flops);
            }
        }
    }
    fn divides(expr: &Expr, i: usize) -> bool {
        match expr.view(i) {
            Node::Const(_) | Node::Cell(_) => false,
            Node::Unary(_, a) => divides(expr, a),
            Node::Binary(op, a, b) => op == BinOp::Div || divides(expr, a) || divides(expr, b),
        }
    }

    let expr = def.expr();
    let mut offsets = BTreeSet::new();
    let mut flops = FlopCount::default();
    collect(expr, expr.root(), &mut offsets, &mut flops);
    let offsets: Vec<Offset> = offsets.into_iter().collect();
    assert_eq!(def.shape().offsets, offsets, "{expr}");
    assert_eq!(def.flop_count(), flops, "{expr}");
    assert_eq!(
        def.contains_division(),
        divides(expr, expr.root()),
        "{expr}"
    );

    let form = expr.as_linear();
    assert_eq!(def.is_associative(), form.is_some(), "{expr}");
    if let Some(form) = form {
        let k = form.terms().len();
        let mix = OpMix {
            fma: k.saturating_sub(1),
            mul: usize::from(k > 0),
            add: usize::from(form.constant() != 0.0),
            other: 0,
        };
        assert_eq!(def.op_mix(), mix, "{expr}");
    }
}

/// Every lexeme of the grammar, the characters the lexer special-cases,
/// and a few it refuses.
const LEXEMES: &[&str] = &[
    "for",
    "int",
    "t",
    "i",
    "j",
    "k",
    "A",
    "B",
    "I_T",
    "sqrtf",
    "sqrt",
    "powf",
    "0",
    "1",
    "2",
    "118",
    "0.25f",
    "5.1F",
    "2e3",
    "1e+",
    ".5",
    "1.2.3",
    "99999999999999999999",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ";",
    ",",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    "<=",
    ">",
    ">=",
    "++",
    "+=",
    "//",
    "/*",
    "*/",
    "\n",
    "\u{a0}",
    "\u{2003}",
    "@",
    "é",
    "\0",
    ".",
];

const NEST_2D: &str =
    "for (t = 0; t < I_T; t++)\n for (i = 1; i <= I_S2; i++)\n  for (j = 1; j <= I_S1; j++)\n   ";

fn soup() -> impl Strategy<Value = String> {
    // A pick is a lexeme and whether a space follows it.
    prop::collection::vec(0..2 * LEXEMES.len(), 0..160).prop_map(|picks| {
        let mut text = String::new();
        for pick in picks {
            text.push_str(LEXEMES[pick / 2]);
            if pick % 2 == 1 {
                text.push(' ');
            }
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn emitted_source_parses_back_to_the_definition(def in RandomStencil::ROUND_TRIP) {
        assert_round_trip(&def);
    }

    #[test]
    fn one_walk_derives_what_the_references_do(def in RandomStencil::ROUND_TRIP) {
        assert_facts_match_references(&def);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = parse_stencil(&String::from_utf8_lossy(&bytes), "bytes");
    }

    #[test]
    fn token_soup_never_panics(text in soup(), place in 0usize..4) {
        // Bare, and after a valid prefix that takes the soup into the loop
        // headers, the store or the update expression.
        let source = match place {
            0 => text,
            1 => format!("for (t = 0; t < {text}"),
            2 => format!("{NEST_2D}A[{text}"),
            _ => format!("{NEST_2D}A[(t+1)%2][i][j] = 0.5f * A[t%2][i-1][j] + {text}"),
        };
        let _ = parse_stencil(&source, "soup");
    }
}

#[test]
fn suite_stencils_and_fig4_round_trip_exactly() {
    for def in suite::all_benchmarks() {
        assert_round_trip(&def);
        assert_facts_match_references(&def);
    }
    let fig4 = include_str!("../benchmark/programs/fig4_j2d5pt.c");
    let detected = parse_stencil(fig4, "j2d5pt").unwrap();
    assert_eq!(detected.def, suite::j2d5pt());
    assert_round_trip(&detected.def);
}

fn update(value: &str) -> String {
    format!("{NEST_2D}A[(t+1)%2][i][j] = {value};\n")
}

/// `terms` bare reads joined by `+` (`2·terms − 1` nodes, `terms` levels
/// deep — the deepest spine a node budget buys), the first one under
/// `wraps` square roots (one node each).
fn chain(terms: usize, wraps: usize) -> String {
    let mut value = format!(
        "{}A[t%2][i-1][j]{}",
        "sqrtf(".repeat(wraps),
        ")".repeat(wraps)
    );
    for term in 1..terms {
        value.push_str(if term % 2 == 0 {
            " + A[t%2][i-1][j]"
        } else {
            " + A[t%2][i][j+1]"
        });
    }
    value
}

fn unsupported_reason(source: &str) -> String {
    match parse_stencil(source, "limits") {
        Err(FrontendError::UnsupportedStencil { reason }) => reason,
        other => panic!("expected an unsupported-stencil error, got {other:?}"),
    }
}

#[test]
fn inputs_past_a_limit_are_errors_not_recursion() {
    // On this test's own default-size stack: were the parser to follow
    // them down, 100,000 levels would overflow it in any build.
    let read = "A[t%2][i][j+1]";
    for count in [MAX_NESTING + 1, 6_000, 100_000] {
        for (open, close) in [
            ("(", ")"),
            ("-", ""),
            ("sqrtf(", ")"),
            ("A[t%2][i][", "]"),
            ("-(", ")"),
        ] {
            let nested = format!("{}{read}{}", open.repeat(count), close.repeat(count));
            for source in [
                update(&nested),
                update(&open.repeat(count)),
                format!("for (t = {nested}; t < I_T; t++)"),
                format!("for (t = 0; t < {nested}; t++)"),
                format!("{NEST_2D}A[{nested}][i][j] = {read};"),
            ] {
                let reason = unsupported_reason(&source);
                assert!(reason.contains("nest deeper than 64 levels"), "{reason}");
            }
        }
    }
    for terms in [MAX_NODES / 2 + 1, 80_000] {
        let reason = unsupported_reason(&update(&chain(terms, 0)));
        assert!(reason.contains("more than 16384 nodes"), "{reason}");
    }
    // Loops and braces nest without recursion: a count, not a limit.
    let loops = "for (i = 0; i < N; i++) ".repeat(99_999);
    let reason = unsupported_reason(&format!("for (t = 0; t < N; t++) {loops}A[0] = 1;"));
    assert!(reason.contains("found 100000 loops"), "{reason}");
    let braces = format!("{NEST_2D}{}", "{".repeat(100_000));
    assert!(matches!(
        parse_stencil(&braces, "limits"),
        Err(FrontendError::Parse { .. })
    ));
}

/// The stack a service worker runs a `"source"`-carrying request on.
const WORKER_STACK: usize = 2 << 20;

/// A 3D box stencil of `radius` as C source: `(2·radius + 1)³` weighted
/// reads summed left to right — at radius 7, 3,375 reads and 13,499 nodes.
fn box3d_source(radius: i32) -> String {
    let mut value = String::new();
    for i in -radius..=radius {
        for j in -radius..=radius {
            for k in -radius..=radius {
                if !value.is_empty() {
                    value.push_str(" + ");
                }
                value.push_str(&format!("0.0003f * A[t%2][i{i:+}][j{j:+}][k{k:+}]"));
            }
        }
    }
    format!(
        "for (t = 0; t < I_T; t++)\n for (i = {radius}; i <= I_S3; i++)\n  \
         for (j = {radius}; j <= I_S2; j++)\n   for (k = {radius}; k <= I_S1; k++)\n    \
         A[(t+1)%2][i][j][k] = {value};\n"
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "verifying the radius-7 box takes a minute on the debug build's scalar loops"
)]
fn inputs_at_the_limits_run_the_pipeline_on_a_worker_stack() {
    let at_node_limit = update(&chain(MAX_NODES / 2, 1));
    let past_node_limit = update(&chain(MAX_NODES / 2, 2));
    // Unary minuses, then parentheses; the subscripts of the read at the
    // bottom are the last level.
    let nest = |levels: usize| {
        let parens = (levels - 1) / 2;
        update(&format!(
            "0.5f * {}{}A[t%2][i][j+1]{}",
            "-".repeat(levels - 1 - parens),
            "(".repeat(parens),
            ")".repeat(parens)
        ))
    };
    let box3d7r = box3d_source(7);
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(move || {
            let flat = (
                &[32, 32][..],
                BlockConfig::new(2, &[16], None, Precision::Single).unwrap(),
            );
            let wide = (
                &[16, 20, 20][..],
                BlockConfig::new(1, &[32, 32], None, Precision::Single).unwrap(),
            );
            for (source, (interior, config)) in [
                (&at_node_limit, flat.clone()),
                (&nest(MAX_NESTING), flat),
                (&box3d7r, wide),
            ] {
                let an5d = An5d::from_c_source(source, "limits").unwrap();
                let problem = an5d.problem(interior, 4).unwrap();
                let plan = an5d.plan(&problem, &config).unwrap();
                let cuda = generate_cuda_for_plan(&plan);
                assert!(cuda.kernel_source.contains("__global__"));
                assert!(emit_c_source(an5d.def(), "A").contains("A[(t+1)%2][i]"));
                let report = an5d.verify(&problem, &config).unwrap();
                assert!(report.matches_reference);
            }
            let box3d7r = An5d::from_c_source(&box3d7r, "box3d7r").unwrap();
            assert_eq!(box3d7r.def().radius(), 7);
            assert_eq!(box3d7r.def().shape().offsets.len(), 3_375);
            assert_eq!(box3d7r.def().expr().node_count(), 13_499);
            assert_eq!(
                An5d::from_c_source(&at_node_limit, "limits")
                    .unwrap()
                    .def()
                    .expr()
                    .node_count(),
                MAX_NODES
            );
            assert!(unsupported_reason(&past_node_limit).contains("more than 16384 nodes"));
            assert!(unsupported_reason(&nest(MAX_NESTING + 1)).contains("nest deeper than 64"));
        })
        .expect("spawn a worker-sized thread")
        .join()
        .expect("the pipeline overflowed or panicked at a limit");
}
