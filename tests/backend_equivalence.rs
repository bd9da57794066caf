//! The backend-subsystem contract: the one blocked executor, at any
//! thread count, returns the grid of the naive reference sweep bit for
//! bit (`f32` and `f64`) and the counters of the analytic tile walk,
//! across suite stencils, tuned configurations and random odd geometries
//! — and the plan cache answers repeated keys with the identical plan.

use an5d::reference::run_reference;
use an5d::{
    analytic_counters, create_backend, BackendElement, BatchDriver, BatchJob, BlockConfig,
    ExecutionBackend, FrameworkScheme, Grid, GridDiff, GridInit, KernelPlan, Precision,
    SerialBackend, StencilDef, StencilProblem, VectorCpuBackend,
};
use proptest::prelude::*;
use std::sync::Arc;

/// One row of the equivalence table: `backend` executing
/// (def, interior, steps, config) from the `seed`ed initial grid in
/// `precision` must return the naive double-buffered sweep's grid bit for
/// bit and count exactly what the analytic tile walk counts.
fn assert_matches_oracles(
    backend: &dyn ExecutionBackend,
    def: &StencilDef,
    interior: &[usize],
    steps: usize,
    config: &BlockConfig,
    precision: Precision,
    seed: u64,
) {
    fn check<T: BackendElement>(
        backend: &dyn ExecutionBackend,
        def: &StencilDef,
        interior: &[usize],
        steps: usize,
        config: &BlockConfig,
        seed: u64,
    ) {
        let problem = StencilProblem::new(def.clone(), interior, steps).unwrap();
        let plan = KernelPlan::build(def, &problem, config, FrameworkScheme::an5d()).unwrap();
        let init = GridInit::Hash { seed };
        let initial = Grid::<T>::from_init(&problem.grid_shape(), init);
        let run = T::execute_on(backend, &plan, &problem, initial);
        let what = format!(
            "{} {interior:?}x{steps} with {config} in {:?} on {}",
            def.name(),
            T::PRECISION,
            backend.describe()
        );
        let diff = GridDiff::compute(&run_reference::<T>(&problem, init), &run.grid).unwrap();
        assert!(
            diff.is_exact(),
            "{what}: diverged from the reference sweep (max {:.3e} at {})",
            diff.max_abs,
            diff.worst_flat_index
        );
        assert_eq!(
            run.counters,
            analytic_counters(&plan, &problem),
            "{what}: counters differ from the analytic walk"
        );
    }
    match precision {
        Precision::Single => check::<f32>(backend, def, interior, steps, config, seed),
        Precision::Double => check::<f64>(backend, def, interior, steps, config, seed),
    }
}

/// Representative suite slice — 2D star, 2D box (non-associative path)
/// and a 3D star with streaming division — followed by the tile
/// geometries of the executor's own unit tests: second-order and
/// non-linear (sqrt, division) expressions, a 27-point 3D box, tile
/// lengths that do not divide the interior, radius-2 halos and a
/// remainder temporal block.
fn workloads() -> Vec<(StencilDef, Vec<usize>, usize, BlockConfig)> {
    use an5d::suite;
    let row = |def, interior: &[usize], steps, bt, bs: &[usize], hsn| {
        let config = BlockConfig::new(bt, bs, hsn, Precision::Double).unwrap();
        (def, interior.to_vec(), steps, config)
    };
    vec![
        row(suite::j2d5pt(), &[28, 26], 7, 3, &[12], Some(12)),
        row(suite::box2d(1), &[20, 24], 5, 2, &[10], None),
        row(suite::star3d(1), &[12, 10, 14], 5, 2, &[8, 10], Some(6)),
        row(suite::j2d5pt(), &[24, 30], 7, 3, &[16], None),
        row(suite::j2d9pt(), &[20, 26], 6, 2, &[18], None),
        row(suite::box2d(1), &[16, 16], 5, 2, &[12], None),
        row(suite::gradient2d(), &[18, 18], 4, 2, &[14], None),
        row(suite::j2d5pt(), &[32, 20], 6, 2, &[16], Some(8)),
        row(suite::star3d(1), &[10, 12, 14], 5, 2, &[10, 12], None),
        row(suite::j3d27pt(), &[12, 10, 10], 4, 1, &[8, 8], Some(6)),
        row(suite::star2d(2), &[17, 13], 5, 2, &[13], None),
        row(suite::j2d5pt(), &[9, 25], 4, 3, &[11], Some(5)),
    ]
}

#[test]
fn vector_backend_is_bit_identical_to_reference_and_serial() {
    for (def, interior, steps, config) in workloads() {
        for precision in [Precision::Single, Precision::Double] {
            let check = |backend: &dyn ExecutionBackend| {
                assert_matches_oracles(backend, &def, &interior, steps, &config, precision, 2020);
            };
            check(&SerialBackend);
            for threads in [1usize, 2, 3, 5, 8] {
                check(&VectorCpuBackend::new(threads));
            }
        }
    }
}

#[test]
fn serial_backend_is_the_vector_backend_at_one_thread() {
    fn runs_are_equal<T: BackendElement>(plan: &KernelPlan, problem: &StencilProblem) {
        let vector1 = create_backend("vector:1").unwrap();
        let initial = Grid::<T>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 11 });
        assert_eq!(
            T::execute_on(&SerialBackend, plan, problem, initial.clone()),
            T::execute_on(vector1.as_ref(), plan, problem, initial),
            "{} in {:?}",
            plan.def().name(),
            T::PRECISION
        );
    }
    for (def, interior, steps, config) in workloads() {
        let problem = StencilProblem::new(def.clone(), &interior, steps).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        runs_are_equal::<f32>(&plan, &problem);
        runs_are_equal::<f64>(&plan, &problem);
    }
}

#[test]
fn vector_backend_matches_serial_for_tuned_configs_on_every_registry_device() {
    // Each registry profile tunes to a different winning configuration;
    // whatever geometry a device's tuner picks, the executor must run it
    // bit-for-bit like the reference sweep, inline and over the pool.
    use an5d::{SearchSpace, Tuner};
    let def = an5d::suite::star2d(1);
    let interior = [40, 36];
    let problem = StencilProblem::new(def.clone(), &interior, 6).unwrap();
    let registry = an5d::standard_registry();
    assert!(registry.len() >= 4, "expected the four standard profiles");
    for (_, device) in registry.devices() {
        for precision in [Precision::Single, Precision::Double] {
            let space = SearchSpace::quick(2, precision);
            let result = Tuner::new(device.clone())
                .tune(&def, &problem, &space)
                .unwrap();
            let config = &result.best.config;
            for backend in [
                &SerialBackend as &dyn ExecutionBackend,
                &VectorCpuBackend::new(3),
            ] {
                assert_matches_oracles(backend, &def, &interior, 6, config, precision, 9);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Randomised equivalence over odd tile/halo geometries: random
    /// star/box stencil and radius, random temporal degree (with
    /// remainder blocks), deliberately odd-capable block sizes, optional
    /// streaming division, random thread counts (often more than there
    /// are tiles) and both precisions.
    #[test]
    fn vector_backend_matches_serial_on_random_odd_geometries(
        star in any::<bool>(),
        radius in 1usize..=2,
        bt in 1usize..=3,
        extra_block in 0usize..9,
        stream_div in prop_oneof![Just(None), (5usize..13).prop_map(Some)],
        height in 13usize..29,
        width in 11usize..27,
        steps in 1usize..=7,
        threads in 1usize..=6,
        double in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use an5d::suite;
        let def = if star { suite::star2d(radius) } else { suite::box2d(radius) };
        // Base of 3 over the halo keeps many drawn sizes odd.
        let bs = 2 * bt * radius + 3 + extra_block;
        let precision = if double { Precision::Double } else { Precision::Single };
        let config = BlockConfig::new(bt, &[bs], stream_div, precision).unwrap();
        for backend in [&SerialBackend as &dyn ExecutionBackend, &VectorCpuBackend::new(threads)] {
            assert_matches_oracles(backend, &def, &[height, width], steps, &config, precision, seed);
        }
    }

    /// The 3D streaming path gets its own smaller randomised sweep: odd
    /// interiors and block faces exercise the ragged final tiles in every
    /// spatial dimension plus the streaming division.
    #[test]
    fn vector_backend_matches_serial_on_random_3d_geometries(
        bt in 1usize..=2,
        extra_y in 0usize..5,
        extra_x in 0usize..5,
        stream_div in prop_oneof![Just(None), (4usize..9).prop_map(Some)],
        depth in 7usize..13,
        height in 7usize..12,
        width in 8usize..15,
        steps in 1usize..=5,
        threads in 2usize..=5,
        double in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use an5d::suite;
        let def = suite::star3d(1);
        let bs_y = 2 * bt + 3 + extra_y;
        let bs_x = 2 * bt + 3 + extra_x;
        let precision = if double { Precision::Double } else { Precision::Single };
        let config = BlockConfig::new(bt, &[bs_y, bs_x], stream_div, precision).unwrap();
        let interior = [depth, height, width];
        for backend in [&SerialBackend as &dyn ExecutionBackend, &VectorCpuBackend::new(threads)] {
            assert_matches_oracles(backend, &def, &interior, steps, &config, precision, seed);
        }
    }
}

#[test]
fn registry_backends_agree_through_the_facade() {
    // The same verification run through An5d must match regardless of the
    // backend the pipeline is wired to.
    let an5d = an5d::An5d::benchmark("j2d9pt").unwrap();
    let problem = an5d.problem(&[24, 22], 5).unwrap();
    let config = BlockConfig::new(2, &[14], None, Precision::Double).unwrap();
    assert!(create_backend("parallel").is_none());
    for spec in ["serial", "vector", "vector:3"] {
        let backend = create_backend(spec).unwrap();
        let report = an5d
            .clone()
            .with_backend(backend)
            .verify(&problem, &config)
            .unwrap();
        assert!(report.matches_reference, "{spec}: diverged");
        assert_eq!(report.max_abs_diff, 0.0, "{spec}: not bit-identical");
    }
}

#[test]
fn batch_driver_runs_a_suite_identically_on_both_backends() {
    let jobs: Vec<BatchJob> = workloads()
        .into_iter()
        .map(|(def, interior, steps, config)| BatchJob::new(def, &interior, steps, config))
        .collect();
    let serial = BatchDriver::new(Arc::new(SerialBackend)).run(&jobs);
    let pooled = BatchDriver::new(Arc::new(VectorCpuBackend::new(4))).run(&jobs);
    assert_eq!(serial.len(), jobs.len());
    for (a, b) in serial.iter().zip(&pooled) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.name, b.name);
        assert_eq!(a.checksum, b.checksum, "{}", a.name);
        assert_eq!(a.counters, b.counters, "{}", a.name);
    }
}

/// A from-scratch serial re-implementation of the Section 6.3 tuning
/// flow: enumerate → build every plan → register-prune → rank by model
/// (a stable sort of every survivor) → measure the top `top_k` under every
/// register cap → pick the best. `None` when nothing could be measured.
/// The tuner, which builds no plan in its sweep, must reproduce it bit
/// for bit.
fn serial_tune_reference(
    def: &an5d::StencilDef,
    problem: &StencilProblem,
    device: &an5d::GpuDevice,
    space: &an5d::SearchSpace,
    scheme: FrameworkScheme,
    top_k: usize,
) -> Option<an5d::TuningResult> {
    use an5d::{measure, predict, RegisterCap};
    let mut ranked: Vec<(BlockConfig, KernelPlan, f64)> = Vec::new();
    for config in space.iter() {
        let Ok(plan) = KernelPlan::build(def, problem, &config, scheme) else {
            continue;
        };
        let regs = plan.resources().registers_per_thread;
        if regs > device.max_registers_per_thread
            || regs * plan.geometry().nthr > device.registers_per_sm
        {
            continue;
        }
        let score = predict(&plan, problem, device).gflops;
        ranked.push((config, plan, score));
    }
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
    let ranked_candidates = ranked.len();
    let mut measured: Vec<an5d::TunedCandidate> = Vec::new();
    for (config, plan, predicted_gflops) in ranked.into_iter().take(top_k) {
        let mut best: Option<an5d::TunedCandidate> = None;
        for cap in RegisterCap::tuning_candidates() {
            let Ok(m) = measure(&plan, problem, device, cap) else {
                continue;
            };
            let candidate = an5d::TunedCandidate {
                config,
                register_cap: cap,
                predicted_gflops,
                measured_gflops: m.gflops,
                measured_gcells: m.gcells,
                seconds: m.seconds,
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.measured_gflops > b.measured_gflops)
            {
                best = Some(candidate);
            }
        }
        measured.extend(best);
    }
    measured.sort_by(|a, b| b.measured_gflops.total_cmp(&a.measured_gflops));
    Some(an5d::TuningResult {
        best: measured.first()?.clone(),
        measured,
        ranked_candidates,
        total_candidates: space.len(),
    })
}

/// The tuner against [`serial_tune_reference`] with the same scheme and
/// `top_k`: the whole result, and every measured candidate's config and
/// predicted score to the bit, in order.
fn assert_tunes_like_the_reference(
    def: &an5d::StencilDef,
    problem: &StencilProblem,
    device: &an5d::GpuDevice,
    space: &an5d::SearchSpace,
    scheme: FrameworkScheme,
    top_k: usize,
) {
    let what = format!(
        "{} under {} ({:?}, {} candidates)",
        def.name(),
        scheme.name(),
        space.precision(),
        space.len()
    );
    let result = an5d::Tuner::new(device.clone())
        .with_scheme(scheme)
        .with_top_k(top_k)
        .tune(def, problem, space);
    let Some(expected) = serial_tune_reference(def, problem, device, space, scheme, top_k) else {
        assert!(
            matches!(result, Err(an5d::TunerError::NoFeasibleCandidate)),
            "{what}: {result:?}"
        );
        return;
    };
    let result = result.unwrap_or_else(|e| panic!("{what}: {e}"));
    let bits = |r: &an5d::TuningResult| -> Vec<(BlockConfig, u64)> {
        let measured = r.measured.iter();
        measured
            .map(|c| (c.config, c.predicted_gflops.to_bits()))
            .collect()
    };
    assert_eq!(bits(&result), bits(&expected), "{what}");
    assert_eq!(result, expected, "{what}");
}

const SCHEMES: [fn() -> FrameworkScheme; 3] = [
    FrameworkScheme::an5d,
    FrameworkScheme::an5d_no_associative,
    FrameworkScheme::stencilgen,
];

#[test]
fn streaming_tuner_matches_a_serial_reference_sweep() {
    use an5d::{GpuDevice, SearchSpace};
    let device = GpuDevice::tesla_v100();
    for (def, space) in [
        (
            an5d::suite::star2d(1),
            SearchSpace::paper(2, Precision::Single),
        ),
        (
            an5d::suite::star3d(1),
            SearchSpace::quick(3, Precision::Single),
        ),
    ] {
        let interior: Vec<usize> = match def.ndim() {
            2 => vec![2048, 2048],
            _ => vec![128, 128, 128],
        };
        let problem = StencilProblem::new(def.clone(), &interior, 64).unwrap();
        for top_k in [1, 5, usize::MAX] {
            assert_tunes_like_the_reference(
                &def,
                &problem,
                &device,
                &space,
                FrameworkScheme::an5d(),
                top_k,
            );
        }
    }
}

/// The whole ranking — every ranked candidate measured, so `measured`
/// holds each one's config and predicted score — and the rest of the
/// `TuningResult` equal the reference's for every Table-3 stencil (radius
/// 1 to 4, 2D and 3D) under each of the three schemes on every registry
/// device, in both precisions, over the quick and the paper search space
/// at the paper's problem scale.
#[test]
fn tuning_results_equal_the_reference_across_suite_devices_and_spaces() {
    use an5d::SearchSpace;
    let registry = an5d::standard_registry();
    assert!(registry.len() >= 4);
    for def in an5d::suite::all_benchmarks() {
        let problem = StencilProblem::paper_scale(def.clone());
        for scheme in SCHEMES.map(|scheme| scheme()) {
            for (_, device) in registry.devices() {
                for precision in [Precision::Single, Precision::Double] {
                    for space in [
                        SearchSpace::quick(def.ndim(), precision),
                        SearchSpace::paper(def.ndim(), precision),
                    ] {
                        assert_tunes_like_the_reference(
                            &def,
                            &problem,
                            device,
                            &space,
                            scheme,
                            usize::MAX,
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random axes on small problems: `bT` from 0 (which no configuration
    /// takes) to 20; `bS` with no extent (refused), one, two (one of which
    /// is the stencil's rank) or three (refused), zeros among them and
    /// blocks no wider than the `2·bT·rad` halo; `hS_N` off, zero
    /// (refused) or shorter than the halo. The sweep prunes, prices and
    /// orders them as building every plan does.
    #[test]
    fn the_tuner_ranks_random_axes_like_building_every_plan(
        three_d in any::<bool>(),
        radius in 1usize..=3,
        scheme in 0usize..3,
        double in any::<bool>(),
        extents in prop::collection::vec(1usize..=48, 3),
        steps in 1usize..=12,
        bt_values in prop::collection::vec(prop_oneof![0usize..=20, 1usize..=3, 1usize..=3], 1..=4),
        bs_shapes in prop::collection::vec(0usize..6, 1..=4),
        bs_extents in prop::collection::vec(
            prop_oneof![
                Just(0usize),
                1usize..=12,
                8usize..=64,
                16usize..=128,
                8usize..=200
            ],
            12,
        ),
        hsn_values in prop::collection::vec(
            prop_oneof![
                Just(None),
                Just(Some(0usize)),
                (1usize..=6).prop_map(Some),
                (1usize..=64).prop_map(Some),
                (7usize..=128).prop_map(Some)
            ],
            1..=3,
        ),
        top_k in prop_oneof![Just(1usize), Just(3), Just(usize::MAX)],
    ) {
        let ndim = if three_d { 3 } else { 2 };
        let def = if three_d { an5d::suite::star3d(radius) } else { an5d::suite::box2d(radius) };
        let problem = StencilProblem::new(def.clone(), &extents[..ndim], steps).unwrap();
        let precision = if double { Precision::Double } else { Precision::Single };
        // Mostly the stencil's blocked rank; sometimes none, the other
        // rank, or three extents.
        let bs_values = bs_shapes
            .iter()
            .zip(bs_extents.chunks(3))
            .map(|(shape, extents)| match shape {
                0 => Vec::new(),
                1 => extents.to_vec(),
                2 => extents[..4 - ndim].to_vec(),
                _ => extents[..ndim - 1].to_vec(),
            })
            .collect();
        let space = an5d::SearchSpace::new(bt_values, bs_values, hsn_values, precision);
        let device = an5d::GpuDevice::tesla_v100();
        assert_tunes_like_the_reference(&def, &problem, &device, &space, SCHEMES[scheme](), top_k);
    }
}
