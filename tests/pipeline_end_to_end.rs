//! Cross-crate integration tests of the full AN5D pipeline: C input →
//! detection → planning → verification → model/measurement → CUDA output.

use an5d::{
    emit_c_source, measure_best_cap, parse_stencil, predict, suite, An5d, BlockConfig,
    FrameworkScheme, GpuDevice, KernelPlan, Precision, SearchSpace, StencilProblem,
};

#[test]
fn c_round_trip_and_verification_for_representative_benchmarks() {
    // One representative of every stencil family keeps this test quick
    // while exercising the whole pipeline for each shape class.
    for name in [
        "star2d2r",
        "box2d1r",
        "j2d9pt",
        "gradient2d",
        "star3d1r",
        "j3d27pt",
    ] {
        let def = suite::by_name(name).expect("known benchmark");
        // Emit canonical C and re-detect it.
        let source = emit_c_source(&def, "A");
        let detected = parse_stencil(&source, name).expect("re-detection succeeds");
        assert_eq!(detected.def.radius(), def.radius(), "{name}");
        assert_eq!(
            detected.def.flops_per_cell(),
            def.flops_per_cell(),
            "{name}"
        );

        // Verify the blocked schedule of the re-detected stencil.
        let an5d = An5d::from_def(detected.def);
        let (interior, bs): (Vec<usize>, Vec<usize>) = if def.ndim() == 2 {
            (vec![26, 24], vec![8 + 4 * def.radius()])
        } else {
            (
                vec![10, 9, 8],
                vec![6 + 2 * def.radius(), 6 + 2 * def.radius()],
            )
        };
        let problem = an5d.problem(&interior, 4).unwrap();
        let config = BlockConfig::new(1, &bs, None, Precision::Double).unwrap();
        let report = an5d.verify(&problem, &config).unwrap();
        assert!(
            report.matches_reference,
            "{name}: {:?}",
            report.max_abs_diff
        );
    }
}

#[test]
fn generated_cuda_reflects_the_tuned_configuration() {
    let an5d = An5d::benchmark("j2d5pt").unwrap();
    let device = GpuDevice::tesla_v100();
    let problem = an5d.problem(&[2048, 2048], 100).unwrap();
    let space = SearchSpace::quick(2, Precision::Single);
    let tuned = an5d.tune(&problem, &device, &space).unwrap();
    let cuda = an5d.generate_cuda(&problem, &tuned.best.config).unwrap();

    let bt = tuned.best.config.bt();
    assert!(cuda
        .kernel_source
        .contains(&format!("#define AN5D_BT {bt}")));
    assert_eq!(
        cuda.kernel_source.matches("#define CALC").count(),
        bt - 1,
        "one CALC macro per combined time-step but the last, which the STORE computes"
    );
    assert_eq!(cuda.kernel_source.matches("#define STORE(").count(), 1);
    assert!(cuda.host_source.contains(&format!("t += {bt}")));
}

#[test]
fn paper_headline_claim_holds_on_v100() {
    // AN5D (tuned) beats the STENCILGEN-style scheme at the same problem
    // scale on V100, and the Section 5 model brackets the measurement from
    // above.
    let def = suite::j2d5pt();
    let problem = StencilProblem::paper_scale(def.clone());
    let device = GpuDevice::tesla_v100();

    let an5d_config = BlockConfig::new(10, &[256], Some(256), Precision::Single).unwrap();
    let an5d_plan =
        KernelPlan::build(&def, &problem, &an5d_config, FrameworkScheme::an5d()).unwrap();
    let an5d_measured = measure_best_cap(&an5d_plan, &problem, &device).unwrap();
    let an5d_model = predict(&an5d_plan, &problem, &device);

    let sg_config = BlockConfig::sconf(2, Precision::Single);
    let sg_plan =
        KernelPlan::build(&def, &problem, &sg_config, FrameworkScheme::stencilgen()).unwrap();
    let sg_measured = measure_best_cap(&sg_plan, &problem, &device).unwrap();

    assert!(
        an5d_measured.gflops > sg_measured.gflops,
        "AN5D {} vs STENCILGEN {}",
        an5d_measured.gflops,
        sg_measured.gflops
    );
    assert!(an5d_model.gflops > an5d_measured.gflops);
    let accuracy = an5d_measured.gflops / an5d_model.gflops;
    assert!(
        accuracy > 0.25 && accuracy < 0.95,
        "model accuracy {accuracy}"
    );
}

#[test]
fn deep_temporal_blocking_pays_off_for_first_order_2d_stencils() {
    // Fig. 8's qualitative claim at a reduced problem size: bT = 8 clearly
    // beats bT = 1 for a first-order 2D stencil.
    let def = suite::star2d(1);
    let problem = StencilProblem::new(def.clone(), &[8192, 8192], 400).unwrap();
    let device = GpuDevice::tesla_v100();
    let gflops_at = |bt: usize| {
        let config = BlockConfig::new(bt, &[256], Some(256), Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        measure_best_cap(&plan, &problem, &device).unwrap().gflops
    };
    let low = gflops_at(1);
    let high = gflops_at(8);
    assert!(high > 1.5 * low, "bT=8 {high} vs bT=1 {low}");
}

#[test]
fn an_integral_constant_past_1e15_prints_as_a_floating_literal() {
    // `100000000000000000000f` is no C literal: a C++ compiler takes the
    // `f` for a user-defined literal operator.
    let source = "for (t = 0; t < I_T; t++)\n for (i = 1; i <= I_S2; i++)\n  \
                  for (j = 1; j <= I_S1; j++)\n   A[(t+1)%2][i][j] = \
                  1e20f * A[t%2][i][j+1] + 0.5f * A[t%2][i][j-1];\n";
    let printed = "100000000000000000000.0f";

    let an5d = An5d::from_c_source(source, "huge").unwrap();
    let problem = an5d.problem(&[256, 256], 10).unwrap();
    let config = BlockConfig::new(2, &[64], None, Precision::Single).unwrap();
    let cuda = an5d.generate_cuda(&problem, &config).unwrap();
    assert!(
        cuda.kernel_source.contains(printed),
        "{}",
        cuda.kernel_source
    );
    assert!(!cuda.kernel_source.contains("00f"));

    let def = parse_stencil(source, "huge").unwrap().def;
    let emitted = emit_c_source(&def, "A");
    assert!(emitted.contains(printed), "{emitted}");
    let again = parse_stencil(&emitted, "huge").unwrap().def;
    assert_eq!(again.expr(), def.expr());
}
