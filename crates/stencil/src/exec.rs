//! Naive, double-buffered reference executor.
//!
//! This is the semantic ground truth for the whole reproduction: every
//! blocked execution scheme (AN5D's N.5D blocking, the STENCILGEN-style
//! variant, loop tiling, hybrid tiling) must produce the same grid as this
//! executor for the same problem and initial state. The executor follows
//! the paper's input form (Fig. 4): a time loop around a full sweep over
//! the interior, reading from `A[t % 2]` and writing to `A[(t+1) % 2]`,
//! with boundary cells held constant.

use crate::{StencilDef, StencilProblem};
use an5d_expr::{Arithmetic, BinOp, Expr, Offset, UnOp};
use an5d_grid::{DoubleBuffer, Element, Grid, GridInit};

/// Evaluate a stencil expression in the target element type `T`, with every
/// intermediate rounded to `T` — exactly what a generated `float`/`double`
/// CUDA kernel would compute. Both the reference executor and the blocked
/// executors' tests call this same function, so `f64` results are
/// bit-identical across execution schemes.
pub fn eval_expr<T, F>(expr: &Expr, resolve: &F) -> T
where
    T: Element,
    F: Fn(Offset) -> T,
{
    eval_in(expr, &mut Vec::new(), resolve)
}

/// [`eval_expr`] with `stack` as the value stack, kept across cells.
fn eval_in<T, F>(expr: &Expr, stack: &mut Vec<Value<T>>, resolve: &F) -> T
where
    T: Element,
    F: Fn(Offset) -> T,
{
    expr.evaluate(stack, &|offset| Value(resolve(offset))).0
}

/// An element as the arithmetic [`Expr::evaluate`] computes in: the
/// element's own conversion and operators.
#[derive(Clone, Copy)]
struct Value<T>(T);

impl<T: Element> Arithmetic for Value<T> {
    fn constant(value: f64) -> Self {
        Value(T::from_f64(value))
    }

    fn unary(op: UnOp, Value(x): Self) -> Self {
        Value(match op {
            UnOp::Neg => -x,
            UnOp::Sqrt => x.sqrt(),
        })
    }

    fn binary(op: BinOp, Value(x): Self, Value(y): Self) -> Self {
        Value(match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        })
    }
}

/// Apply one time-step of the stencil: read every interior cell's
/// neighbourhood from `src` and write the updated value into `dst`.
/// Boundary cells of `dst` are left untouched (they already hold the
/// boundary condition).
///
/// # Panics
///
/// Panics if the grids are smaller than the stencil footprint or have
/// mismatched shapes.
pub fn reference_step<T: Element>(def: &StencilDef, src: &Grid<T>, dst: &mut Grid<T>) {
    assert_eq!(
        src.shape(),
        dst.shape(),
        "source/destination shape mismatch"
    );
    let rad = def.radius();
    let expr = def.expr();
    let mut stack = Vec::with_capacity(expr.stack_depth());
    for idx in src.interior_indices(rad) {
        let resolve = |offset: Offset| {
            let mut neighbour = [0isize; 3];
            for (d, (&i, &o)) in idx.iter().zip(offset.components()).enumerate() {
                neighbour[d] = i as isize + o as isize;
            }
            src.at(&neighbour[..idx.len()])
                .expect("interior neighbour access stays within the padded grid")
        };
        let value = eval_in(expr, &mut stack, &resolve);
        dst.set(&idx, value);
    }
}

/// Run `steps` time-steps of the stencil over a double buffer, swapping the
/// buffers after every step (the `t % 2` pattern of the paper's input code).
pub fn run_reference_on<T: Element>(def: &StencilDef, buffer: &mut DoubleBuffer<T>, steps: usize) {
    for _ in 0..steps {
        {
            let (src, dst) = buffer.split_mut();
            reference_step(def, src, dst);
        }
        buffer.swap();
    }
}

/// Run a whole [`StencilProblem`] from a deterministic initial state and
/// return the final grid.
///
/// # Panics
///
/// Panics if the problem's grid shape is invalid (zero extent after adding
/// the halo), which cannot happen for problems built through
/// [`StencilProblem::new`].
#[must_use]
pub fn run_reference<T: Element>(problem: &StencilProblem, init: GridInit) -> Grid<T> {
    let grid = Grid::<T>::from_init(&problem.grid_shape(), init);
    let mut buffer = DoubleBuffer::new(grid);
    run_reference_on(problem.def(), &mut buffer, problem.time_steps());
    buffer.into_current()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use an5d_grid::GridDiff;

    #[test]
    fn single_step_five_point_matches_hand_computation() {
        let def = suite::j2d5pt();
        let mut src = Grid::<f64>::zeros(&[3, 3]);
        // centre neighbourhood: N=1, W=2, C=3, E=4, S=5
        src.set(&[0, 1], 1.0);
        src.set(&[1, 0], 2.0);
        src.set(&[1, 1], 3.0);
        src.set(&[1, 2], 4.0);
        src.set(&[2, 1], 5.0);
        let mut dst = src.clone();
        reference_step(&def, &src, &mut dst);
        let expected = (5.1 * 1.0 + 12.1 * 2.0 + 15.0 * 3.0 + 12.2 * 4.0 + 5.2 * 5.0) / 118.0;
        assert!((dst.get(&[1, 1]) - expected).abs() < 1e-15);
        // Boundary cells untouched.
        assert_eq!(dst.get(&[0, 1]), 1.0);
        assert_eq!(dst.get(&[2, 1]), 5.0);
    }

    #[test]
    fn boundary_cells_stay_constant_over_many_steps() {
        let def = suite::star2d(2);
        let problem = StencilProblem::new(def, &[8, 9], 7).unwrap();
        let init = GridInit::Hash { seed: 11 };
        let result = run_reference::<f64>(&problem, init);
        let original = Grid::<f64>::from_init(&problem.grid_shape(), init);
        // All cells within distance `rad` of a face are boundary cells.
        let shape = problem.grid_shape();
        for idx in Grid::<f64>::zeros(&shape).interior_indices(0) {
            let is_interior = idx.iter().zip(&shape).all(|(&i, &e)| i >= 2 && i < e - 2);
            if !is_interior {
                assert_eq!(
                    result.get(&idx),
                    original.get(&idx),
                    "boundary moved at {idx:?}"
                );
            }
        }
    }

    #[test]
    fn zero_steps_is_identity() {
        let problem = StencilProblem::new(suite::box2d(1), &[6, 6], 0).unwrap();
        let init = GridInit::Linear {
            scale: 0.25,
            offset: 1.0,
        };
        let result = run_reference::<f64>(&problem, init);
        let original = Grid::<f64>::from_init(&problem.grid_shape(), init);
        assert!(GridDiff::compute(&result, &original).unwrap().is_exact());
    }

    #[test]
    fn diffusion_style_stencils_stay_bounded() {
        for def in [suite::star2d(1), suite::box2d(2), suite::j2d5pt()] {
            let problem = StencilProblem::new(def, &[10, 10], 20).unwrap();
            let result = run_reference::<f64>(&problem, GridInit::Hash { seed: 5 });
            for &v in result.as_slice() {
                assert!(v.is_finite());
                assert!(v.abs() <= 2.0, "value {v} escaped the stable range");
            }
        }
    }

    #[test]
    fn three_dimensional_execution_updates_interior_only() {
        let def = suite::star3d(1);
        let problem = StencilProblem::new(def, &[4, 5, 6], 2).unwrap();
        let init = GridInit::Hash { seed: 3 };
        let result = run_reference::<f64>(&problem, init);
        let original = Grid::<f64>::from_init(&problem.grid_shape(), init);
        // A corner cell is boundary; it must be unchanged.
        assert_eq!(result.get(&[0, 0, 0]), original.get(&[0, 0, 0]));
        // An interior cell should generally change.
        assert_ne!(result.get(&[2, 2, 2]), original.get(&[2, 2, 2]));
    }

    #[test]
    fn f32_and_f64_runs_agree_loosely() {
        let def = suite::j2d9pt_gol();
        let problem = StencilProblem::new(def, &[12, 12], 6).unwrap();
        let init = GridInit::Hash { seed: 9 };
        let single = run_reference::<f32>(&problem, init).to_f64();
        let double = run_reference::<f64>(&problem, init);
        let diff = GridDiff::compute(&single, &double).unwrap();
        assert!(diff.max_abs < 1e-3, "precisions diverged: {diff:?}");
        assert!(diff.max_abs > 0.0, "f32 run suspiciously identical to f64");
    }

    #[test]
    fn gradient2d_nonlinear_update_is_finite_and_nontrivial() {
        let problem = StencilProblem::new(suite::gradient2d(), &[9, 9], 5).unwrap();
        let result = run_reference::<f64>(&problem, GridInit::Hash { seed: 2 });
        assert!(result.as_slice().iter().all(|v| v.is_finite()));
        let interior_changed = result
            .interior_indices(1)
            .iter()
            .any(|idx| result.get(idx) > 0.5);
        assert!(interior_changed);
    }

    #[test]
    fn eval_expr_matches_f64_expression_eval() {
        let def = suite::j2d9pt();
        let resolve64 =
            |o: Offset| 0.1 * f64::from(o.component(0)) + 0.01 * f64::from(o.component(1)) + 1.0;
        let via_expr = def.expr().eval(&resolve64);
        let via_generic: f64 = eval_expr(def.expr(), &resolve64);
        assert_eq!(via_expr, via_generic);
    }
}
