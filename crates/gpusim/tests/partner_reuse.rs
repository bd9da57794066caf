//! The partner grid a blocked run keeps for the next run of its shape and
//! precision: what a reused grid held never shows in a result.
//!
//! The slot is process-wide, so this file holds one test: no other test
//! of its process touches the slot between the runs it makes.

use an5d_gpusim::{execute_plan_on, BlockedRun};
use an5d_grid::{Element, Grid, GridInit};
use an5d_model::analytic_counters;
use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan};
use an5d_stencil::exec::run_reference;
use an5d_stencil::{suite, StencilDef, StencilProblem};

/// One blocked run: stencil, interior, steps, `bT`, `bS`, `hS_N`.
struct Case {
    def: StencilDef,
    interior: &'static [usize],
    steps: usize,
    bt: usize,
    bs: &'static [usize],
    hsn: Option<usize>,
}

impl Case {
    fn new(def: StencilDef, interior: &'static [usize], steps: usize, bt: usize) -> Self {
        let bs: &'static [usize] = if interior.len() == 3 { &[8, 8] } else { &[12] };
        Self {
            def,
            interior,
            steps,
            bt,
            bs,
            hsn: None,
        }
    }

    fn divided(mut self, hsn: usize) -> Self {
        self.hsn = Some(hsn);
        self
    }

    fn problem(&self) -> StencilProblem {
        StencilProblem::new(self.def.clone(), self.interior, self.steps).unwrap()
    }

    fn plan<T: Element>(&self, problem: &StencilProblem) -> KernelPlan {
        let config = BlockConfig::new(self.bt, self.bs, self.hsn, T::PRECISION).unwrap();
        KernelPlan::build(&self.def, problem, &config, FrameworkScheme::an5d()).unwrap()
    }

    /// Run the case from `initial`, whatever it holds.
    fn run_on<T: Element>(&self, initial: Grid<T>) -> BlockedRun<T> {
        let problem = self.problem();
        execute_plan_on(&self.plan::<T>(&problem), &problem, initial)
    }

    /// Run the case from a seeded grid and check the result bit for bit
    /// against the naive reference sweep, and its counters against the
    /// model's; returns the grid, to tell which buffer came back.
    fn run_exact<T: Element>(&self, seed: u64) -> Grid<T> {
        let problem = self.problem();
        let plan = self.plan::<T>(&problem);
        let init = GridInit::Hash { seed };
        let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
        let run = execute_plan_on(&plan, &problem, initial);
        let reference = run_reference::<T>(&problem, init);
        let name = self.def.name();
        let mut cells = run.grid.as_slice().iter().zip(reference.as_slice());
        let differ = cells.position(|(a, b)| a.into_f64().to_bits() != b.into_f64().to_bits());
        assert_eq!(
            differ,
            None,
            "{name} ({:?}): first cell off the reference",
            T::PRECISION
        );
        assert_eq!(run.counters, analytic_counters(&plan, &problem), "{name}");
        run.grid
    }

    /// A run from a NaN-filled grid: its NaN input becomes the partner the
    /// next run of its shape and precision writes into. Returns where that
    /// buffer lives.
    fn leave_nan_partner<T: Element>(&self) -> *const T {
        let shape = self.problem().grid_shape();
        let nan = Grid::<T>::from_fn(&shape, |_| T::from_f64(f64::NAN));
        let nan_input = nan.as_slice().as_ptr();
        let run = self.run_on(nan);
        assert!(
            run.grid.as_slice().iter().all(|v| v.into_f64().is_nan()),
            "{}: a NaN grid gives NaN everywhere",
            self.def.name()
        );
        nan_input
    }
}

/// Stale values in a reused partner — NaN everywhere, ring included —
/// must not reach a later run's result in either precision.
fn stale_partner_never_leaks<T: Element>() {
    // One launch each: the grid returned is the partner itself, written
    // once, so every cell of it — ring included — must have been stored.
    let once = Case::new(suite::j2d5pt(), &[20, 23], 3, 3).divided(8);
    let nan_input = once.leave_nan_partner::<T>();
    let grid = once.run_exact::<T>(11);
    assert_eq!(
        grid.as_slice().as_ptr(),
        nan_input,
        "the NaN input was the partner"
    );

    // Three launches, the last a remainder: the result is the partner
    // again, written by the first and third launch.
    for case in [
        Case::new(suite::gradient2d(), &[18, 18], 7, 3),
        Case::new(suite::star3d(1), &[9, 10, 11], 7, 3),
        Case::new(suite::j3d27pt(), &[12, 10, 10], 5, 2).divided(6),
    ] {
        let nan_input = case.leave_nan_partner::<T>();
        let grid = case.run_exact::<T>(12);
        assert_eq!(grid.as_slice().as_ptr(), nan_input, "{}", case.def.name());
    }
}

#[test]
fn a_kept_partner_is_reused_and_never_leaks() {
    // After a run of an odd number of launches, the partner kept is that
    // run's input buffer, and the next run of one launch returns it.
    let odd = Case::new(suite::j2d5pt(), &[24, 30], 7, 3);
    let first_input = {
        let problem = odd.problem();
        let initial = Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 1 });
        let pointer = initial.as_slice().as_ptr();
        let run = odd.run_on(initial);
        assert_eq!(run.counters.kernel_launches, 3);
        assert_ne!(run.grid.as_slice().as_ptr(), pointer);
        pointer
    };
    let one = Case::new(suite::j2d5pt(), &[24, 30], 2, 3);
    let grid = one.run_exact::<f64>(2);
    assert_eq!(
        grid.as_slice().as_ptr(),
        first_input,
        "the next run reuses the kept grid"
    );

    stale_partner_never_leaks::<f32>();
    stale_partner_never_leaks::<f64>();

    // A radius-2 stencil's partner, NaN-filled, reused by a radius-1
    // stencil of the same stored shape (24 × 24): the rows the wider ring
    // covered are interior now, and the narrower ring is stored anew.
    let wide = Case::new(suite::star2d(2), &[20, 20], 2, 2);
    let narrow = Case::new(suite::j2d5pt(), &[22, 22], 4, 4);
    assert_eq!(wide.problem().grid_shape(), narrow.problem().grid_shape());
    let nan_input = wide.leave_nan_partner::<f64>();
    let grid = narrow.run_exact::<f64>(3);
    assert_eq!(
        grid.as_slice().as_ptr(),
        nan_input,
        "radius 1 reuses radius 2's grid"
    );

    // Runs of another precision or another shape in between take a grid
    // of their own and still give exact results, and so does the run
    // after them.
    let a = Case::new(suite::j2d5pt(), &[20, 20], 5, 2);
    let b = Case::new(suite::j2d5pt(), &[20, 21], 5, 2);
    let c = Case::new(suite::star3d(1), &[8, 9, 10], 3, 2);
    a.run_exact::<f64>(4);
    a.run_exact::<f32>(5);
    b.run_exact::<f64>(6);
    c.run_exact::<f32>(7);
    a.run_exact::<f64>(8);
    b.run_exact::<f32>(9);
    a.run_exact::<f32>(10);
}
