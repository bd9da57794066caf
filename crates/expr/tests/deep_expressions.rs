//! Expressions far deeper than any stack: a 200,000-term left-nested sum
//! and a 50,000-deep chain of negations are built, evaluated, printed,
//! walked and dropped on a 64 KiB thread. A reader — or a `Drop` — that
//! recursed once per level would overflow it.

use an5d_expr::{Expr, LiteralType, Offset};

const TERMS: usize = 200_000;
const NEGATIONS: usize = 50_000;

fn on_a_small_stack(work: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(64 * 1024)
        .spawn(work)
        .expect("spawn a 64 KiB thread")
        .join()
        .expect("a reader overflowed the 64 KiB stack or failed");
}

#[test]
fn a_long_sum_is_built_used_and_dropped_without_recursion() {
    on_a_small_stack(|| {
        // A[0,1] + 0.5 + A[0,1] + 0.5 + …, left-nested.
        let terms = (0..TERMS)
            .map(|k| {
                if k % 2 == 0 {
                    Expr::cell(&[0, 1])
                } else {
                    Expr::constant(0.5)
                }
            })
            .collect();
        let sum = Expr::sum(terms);
        assert_eq!(sum.node_count(), 2 * TERMS - 1);
        assert_eq!(sum.stack_depth(), 2);

        assert_eq!(sum.eval(&|_| 1.0), 1.5 * (TERMS / 2) as f64);
        assert_eq!(sum.eval_f32(&|_| 1.0), 1.5 * (TERMS / 2) as f32);

        let mut c = String::new();
        sum.write_c(
            &mut c,
            LiteralType::Float,
            &|out: &mut String, _: Offset| out.push('x'),
        );
        assert_eq!(
            c.len(),
            (TERMS - 1) * "( + )".len() + TERMS / 2 * ("x".len() + "0.5f".len())
        );
        let opening = "(".repeat(TERMS - 1);
        assert!(c.starts_with(&format!("{opening}x + 0.5f) + x) + 0.5f)")));
        assert!(c.ends_with(" + x) + 0.5f)"));

        let facts = sum.facts();
        assert_eq!(facts.flops.add, TERMS - 1);
        assert!(facts.associative);
        assert_eq!(
            facts.shape.expect("one tap").offsets,
            [Offset::new(&[0, 1])]
        );
        drop(sum);
    });
}

#[test]
fn a_deep_negation_chain_is_built_used_and_dropped_without_recursion() {
    on_a_small_stack(|| {
        let mut chain = Expr::cell(&[1, 0]);
        for _ in 0..NEGATIONS {
            chain = -chain;
        }
        assert_eq!(chain.node_count(), NEGATIONS + 1);
        assert_eq!(chain.stack_depth(), 1);

        // An even number of negations.
        assert_eq!(chain.eval(&|_| 2.5), 2.5);
        assert_eq!(chain.eval_f32(&|_| -2.5), -2.5);

        let mut c = String::new();
        chain.write_c(
            &mut c,
            LiteralType::Float,
            &|out: &mut String, _: Offset| out.push('x'),
        );
        assert_eq!(
            c,
            format!("{}x{}", "(-".repeat(NEGATIONS), ")".repeat(NEGATIONS))
        );

        let facts = chain.facts();
        assert_eq!(facts.flops.total(), 0);
        assert!(facts.associative);
        let form = chain.as_linear().expect("a negated cell is linear");
        assert_eq!(form.terms()[0].coeff, 1.0);
        drop(chain);
    });
}
