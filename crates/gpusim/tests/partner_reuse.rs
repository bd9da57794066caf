//! The partner grid a blocked run is handed and leaves behind: a run
//! writes into it when the shape matches, and what it held — NaN
//! everywhere here, ring included — never shows in a result. A counting
//! allocator tells reuse from reallocation: a run handed a partner of its
//! shape allocates no grid.

use an5d_gpusim::{execute_plan_with, BlockedRun};
use an5d_grid::{Element, Grid, GridInit};
use an5d_model::analytic_counters;
use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan};
use an5d_stencil::exec::run_reference;
use an5d_stencil::{suite, StencilDef, StencilProblem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting on each thread that asks the
/// allocations of at least a given size ([`grid_allocations`]).
struct CountLarge;

thread_local! {
    /// The size an allocation must reach to count (0: not counting), and
    /// the count. Const-initialised and without a destructor, so reading
    /// it allocates nothing.
    static LARGE: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

impl CountLarge {
    fn note(size: usize) {
        // During thread teardown the slot may be gone; nothing counts then.
        let _ = LARGE.try_with(|large| {
            let (at_least, count) = large.get();
            if at_least > 0 && size >= at_least {
                large.set((at_least, count + 1));
            }
        });
    }
}

// SAFETY: every call is forwarded to `System` unchanged; `note` only
// reads and writes a thread-local `Cell`.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountLarge = CountLarge;

/// Run `f` and count the allocations of at least one `T` grid of `shape`
/// that it makes on this thread: the tests run their tiles inline, and
/// nothing else a run allocates is that large.
fn grid_allocations<T, R>(shape: &[usize], f: impl FnOnce() -> R) -> (R, usize) {
    let bytes = shape.iter().product::<usize>() * std::mem::size_of::<T>();
    LARGE.with(|large| large.set((bytes, 0)));
    let result = f();
    (result, LARGE.with(|large| large.replace((0, 0))).1)
}

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

    /// A NaN-filled grid of this case's shape.
    fn nan_grid<T: Element>(&self) -> Grid<T> {
        Grid::from_fn(&self.problem().grid_shape(), |_| T::from_f64(f64::NAN))
    }

    /// Run the case from `initial`, one tile after the other, with
    /// `partner` as the second grid.
    fn run_on<T: Element>(&self, initial: Grid<T>, partner: &mut Option<Grid<T>>) -> BlockedRun<T> {
        let problem = self.problem();
        let plan = self.plan::<T>(&problem);
        execute_plan_with(&plan, &problem, initial, partner, |tiles, run_tile| {
            for (k, mut rows) in tiles {
                run_tile(k, &mut rows);
            }
        })
    }

    /// Run the case from a seeded grid with `partner` and check the result
    /// bit for bit against the naive reference sweep, and its counters
    /// against the model's; returns the grid, to tell which buffer came
    /// back.
    fn run_exact<T: Element>(&self, seed: u64, partner: &mut Option<Grid<T>>) -> Grid<T> {
        let problem = self.problem();
        let init = GridInit::Hash { seed };
        let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
        let run = self.run_on(initial, partner);
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
        let plan = self.plan::<T>(&problem);
        assert_eq!(run.counters, analytic_counters(&plan, &problem), "{name}");
        run.grid
    }

    /// Run the case with a NaN-filled partner of its own shape, exactly,
    /// and return the grid and where the partner lived.
    fn run_on_nan<T: Element>(&self, seed: u64) -> (Grid<T>, *const T) {
        let nan = self.nan_grid::<T>();
        let nan_partner = nan.as_slice().as_ptr();
        let grid = self.run_exact(seed, &mut Some(nan));
        (grid, nan_partner)
    }
}

/// One launch: the grid returned is the partner itself, written once, so
/// every cell of it — ring included — must have been stored.
fn one_launch_stores_every_cell<T: Element>() {
    let once = Case::new(suite::j2d5pt(), &[20, 23], 3, 3).divided(8);
    let (grid, nan_partner) = once.run_on_nan::<T>(11);
    assert_eq!(
        grid.as_slice().as_ptr(),
        nan_partner,
        "the partner came back"
    );
}

#[test]
fn one_launch_stores_every_cell_of_the_partner() {
    one_launch_stores_every_cell::<f32>();
    one_launch_stores_every_cell::<f64>();
}

/// Three launches, the last a remainder: the result is the partner again,
/// written by the first and third launch.
fn three_launches_end_in_the_partner<T: Element>() {
    for case in [
        Case::new(suite::gradient2d(), &[18, 18], 7, 3),
        Case::new(suite::star3d(1), &[9, 10, 11], 7, 3),
        Case::new(suite::j3d27pt(), &[12, 10, 10], 5, 2).divided(6),
    ] {
        let (grid, nan_partner) = case.run_on_nan::<T>(12);
        assert_eq!(grid.as_slice().as_ptr(), nan_partner, "{}", case.def.name());
    }
}

#[test]
fn three_launches_in_two_and_three_dimensions_end_in_the_partner() {
    three_launches_end_in_the_partner::<f32>();
    three_launches_end_in_the_partner::<f64>();
}

#[test]
fn a_kept_partner_is_reused_and_never_leaks() {
    // After a run of an odd number of launches, the partner left is that
    // run's input buffer, and the next run of one launch returns it.
    let odd = Case::new(suite::j2d5pt(), &[24, 30], 7, 3);
    let mut partner = Some(odd.nan_grid::<f64>());
    let problem = odd.problem();
    let init = GridInit::Hash { seed: 1 };
    let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
    let input = initial.as_slice().as_ptr();
    let run = odd.run_on(initial, &mut partner);
    assert_eq!(run.grid, run_reference::<f64>(&problem, init));
    assert_eq!(run.counters.kernel_launches, 3);
    assert_ne!(run.grid.as_slice().as_ptr(), input);
    assert_eq!(
        partner.as_ref().map(|grid| grid.as_slice().as_ptr()),
        Some(input)
    );

    let one = Case::new(suite::j2d5pt(), &[24, 30], 2, 3);
    let grid = one.run_exact::<f64>(2, &mut partner);
    assert_eq!(grid.as_slice().as_ptr(), input, "the next run reuses it");

    // A run of zero steps writes nothing and leaves the partner in place.
    let kept = partner.as_ref().map(|grid| grid.as_slice().as_ptr());
    let none = Case::new(suite::j2d5pt(), &[24, 30], 0, 3);
    none.run_exact::<f64>(3, &mut partner);
    assert_eq!(partner.as_ref().map(|grid| grid.as_slice().as_ptr()), kept);
}

#[test]
fn a_radius_2_partner_serves_a_radius_1_run() {
    // A radius-2 stencil's grid, NaN-filled, as the partner of a radius-1
    // stencil of the same stored shape (24 × 24): the rows the wider ring
    // covered are interior now, and the narrower ring is stored anew.
    let wide = Case::new(suite::star2d(2), &[20, 20], 2, 2);
    let narrow = Case::new(suite::j2d5pt(), &[22, 22], 4, 4);
    assert_eq!(wide.problem().grid_shape(), narrow.problem().grid_shape());
    let nan = wide.nan_grid::<f64>();
    let nan_partner = nan.as_slice().as_ptr();
    let grid = narrow.run_exact::<f64>(3, &mut Some(nan));
    assert_eq!(
        grid.as_slice().as_ptr(),
        nan_partner,
        "radius 1 reuses radius 2's grid"
    );
}

#[test]
fn runs_of_other_shapes_in_between_replace_the_partner() {
    // One partner per precision, carried through runs of other shapes and
    // NaN-filled before each: a partner of the wrong shape is replaced by
    // a grid of the run's own, which the run leaves behind, and every
    // result is exact.
    fn sequence<T: Element>(runs: &[(&Case, u64)]) {
        let mut partner = Some(runs[1].0.nan_grid::<T>());
        for &(case, seed) in runs {
            for cell in partner.as_mut().into_iter().flat_map(Grid::as_mut_slice) {
                *cell = T::from_f64(f64::NAN);
            }
            case.run_exact::<T>(seed, &mut partner);
            let shape = partner.as_ref().map(|grid| grid.shape().to_vec());
            assert_eq!(
                shape,
                Some(case.problem().grid_shape()),
                "{}",
                case.def.name()
            );
        }
    }
    let a = Case::new(suite::j2d5pt(), &[20, 20], 5, 2);
    let b = Case::new(suite::j2d5pt(), &[20, 21], 5, 2);
    let c = Case::new(suite::star3d(1), &[8, 9, 10], 3, 2);
    sequence::<f64>(&[(&a, 4), (&b, 6), (&a, 8)]);
    sequence::<f32>(&[(&a, 5), (&c, 7), (&b, 9), (&a, 10)]);
}

#[test]
fn a_partner_of_the_runs_shape_spares_it_every_grid_allocation() {
    // Three launches: handed a partner of its shape, the run allocates no
    // grid; handed none, it allocates exactly one and leaves it behind.
    let case = Case::new(suite::j2d5pt(), &[24, 30], 7, 3);
    let problem = case.problem();
    let shape = problem.grid_shape();
    let initial = || Grid::<f64>::from_init(&shape, GridInit::Hash { seed: 13 });
    let mut partner = Some(case.nan_grid::<f64>());
    let (input, kept) = (
        initial(),
        partner.as_ref().map(|grid| grid.as_slice().as_ptr()),
    );
    let (run, grids) = grid_allocations::<f64, _>(&shape, || case.run_on(input, &mut partner));
    assert_eq!(run.counters.kernel_launches, 3);
    assert_eq!(
        grids, 0,
        "a run handed a partner of its shape allocated {grids} grids"
    );
    assert_eq!(
        run.grid.as_slice().as_ptr(),
        kept.unwrap(),
        "the partner came back"
    );

    let mut none = None;
    let input = initial();
    let (run, grids) = grid_allocations::<f64, _>(&shape, || case.run_on(input, &mut none));
    assert_eq!(grids, 1, "a run handed no partner allocated {grids} grids");
    assert_eq!(
        run.grid,
        run_reference::<f64>(&problem, GridInit::Hash { seed: 13 })
    );
    assert!(none.is_some(), "the allocated grid is left behind");
}
