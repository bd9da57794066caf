//! The central correctness property of the reproduction: for every stencil
//! and every valid blocking configuration, AN5D's N.5D-blocked execution
//! produces exactly the same result as the naive reference execution.

use an5d::reference::run_reference;
use an5d::{
    analytic_counters, execute_plan_on, suite, BlockConfig, Element, FrameworkScheme, Grid,
    GridDiff, GridInit, KernelPlan, Precision, StencilDef, StencilProblem,
};
use proptest::prelude::*;

/// Blocked execution in precision `T` must return the reference's grid bit
/// for bit and the analytic walk's counters.
fn check<T: Element>(
    def: &StencilDef,
    interior: &[usize],
    steps: usize,
    (bt, bs, hsn): (usize, &[usize], Option<usize>),
    seed: u64,
) {
    let problem = StencilProblem::new(def.clone(), interior, steps).expect("valid problem");
    let config = BlockConfig::new(bt, bs, hsn, T::PRECISION).expect("valid blocking");
    let plan = KernelPlan::build(def, &problem, &config, FrameworkScheme::an5d()).expect("plan");
    let init = GridInit::Hash { seed };
    let reference = run_reference::<T>(&problem, init);
    let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
    let blocked = execute_plan_on(&plan, &problem, initial);
    let diff = GridDiff::compute(&reference, &blocked.grid).expect("same shape");
    assert!(
        diff.is_exact(),
        "{} ({:?}) with {config}: max |diff| = {:.3e}",
        def.name(),
        T::PRECISION,
        diff.max_abs
    );
    // The analytic traffic model must agree exactly with the counted run.
    assert_eq!(
        analytic_counters(&plan, &problem),
        blocked.counters,
        "{} with {config}: analytic counters diverge from the functional run",
        def.name()
    );
}

#[test]
fn every_2d_benchmark_matches_the_reference_under_deep_temporal_blocking() {
    for def in suite::all_benchmarks()
        .into_iter()
        .filter(|d| d.ndim() == 2)
    {
        let bt = if def.radius() >= 3 { 2 } else { 4 };
        let bs = 16 + 2 * bt * def.radius();
        check::<f64>(&def, &[30, 26], 2 * bt + 1, (bt, &[bs], Some(16)), 7);
        check::<f32>(&def, &[30, 26], 2 * bt + 1, (bt, &[bs], Some(16)), 7);
    }
}

#[test]
fn every_3d_benchmark_matches_the_reference() {
    for def in suite::all_benchmarks()
        .into_iter()
        .filter(|d| d.ndim() == 3)
    {
        let bt = if def.radius() >= 2 { 1 } else { 2 };
        let bs = 6 + 2 * bt * def.radius();
        check::<f64>(&def, &[10, 9, 8], 2 * bt + 1, (bt, &[bs, bs], None), 11);
        check::<f32>(&def, &[10, 9, 8], 2 * bt + 1, (bt, &[bs, bs], None), 11);
    }
}

#[test]
fn stencilgen_scheme_produces_the_same_values_as_an5d() {
    // The register/shared-memory scheme changes resource usage, never the
    // computed values: both schemes must match the reference.
    let def = suite::j2d9pt();
    let problem = StencilProblem::new(def.clone(), &[24, 24], 5).unwrap();
    let config = BlockConfig::new(2, &[20], None, Precision::Double).unwrap();
    let init = GridInit::Hash { seed: 3 };
    let reference = run_reference::<f64>(&problem, init);
    for scheme in [FrameworkScheme::an5d(), FrameworkScheme::stencilgen()] {
        let plan = KernelPlan::build(&def, &problem, &config, scheme).unwrap();
        let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
        let run = execute_plan_on(&plan, &problem, initial);
        assert!(GridDiff::compute(&reference, &run.grid).unwrap().is_exact());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised equivalence: random first/second-order star or box
    /// stencil, random grid extents, random temporal degree, random block
    /// size and optional streaming division.
    #[test]
    fn random_configurations_match_the_reference(
        star in any::<bool>(),
        radius in 1usize..=2,
        bt in 1usize..=4,
        extra_block in 0usize..12,
        stream_div in prop_oneof![Just(None), (4usize..12).prop_map(Some)],
        height in 12usize..28,
        width in 12usize..28,
        steps in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let def = if star { suite::star2d(radius) } else { suite::box2d(radius) };
        let bs = 2 * bt * radius + 4 + extra_block;
        check::<f64>(&def, &[height, width], steps, (bt, &[bs], stream_div), seed);
    }
}
