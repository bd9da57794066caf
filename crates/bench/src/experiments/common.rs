//! Shared helpers for the experiment harnesses.

use an5d::{
    measure_best_cap, predict, standard_registry, BlockConfig, DeviceRegistry, FrameworkScheme,
    GpuDevice, KernelPlan, Measurement, ModelPrediction, Precision, SearchSpace, StencilDef,
    StencilProblem, Tuner, TuningResult,
};

/// Build a plan under the AN5D scheme.
#[must_use]
pub fn an5d_plan(
    def: &StencilDef,
    problem: &StencilProblem,
    config: &BlockConfig,
) -> Option<KernelPlan> {
    KernelPlan::build(def, problem, config, FrameworkScheme::an5d()).ok()
}

/// The process-wide device registry every harness resolves GPUs through.
#[must_use]
pub fn device_registry() -> &'static DeviceRegistry {
    standard_registry()
}

/// A registered device by name (panics on unknown names: the harnesses
/// only ask for registry profiles).
#[must_use]
pub fn device(name: &str) -> GpuDevice {
    device_registry()
        .profile(name)
        .unwrap_or_else(|| panic!("device {name:?} is not in the registry"))
}

/// The two evaluation devices, V100 first (the paper's Fig. 6 order).
#[must_use]
pub fn devices() -> Vec<GpuDevice> {
    device_registry().paper_devices()
}

/// The two evaluated precisions, single first.
#[must_use]
pub fn precisions() -> [Precision; 2] {
    Precision::all()
}

/// The paper-scale problem for a stencil (16,384² / 512³, 1,000 steps).
#[must_use]
pub fn paper_problem(def: &StencilDef) -> StencilProblem {
    StencilProblem::paper_scale(def.clone())
}

/// The `Sconf` plan for a stencil: STENCILGEN's kernel parameters executed
/// under AN5D's scheme, with the associative optimisation disabled for 2D
/// stencils and streaming division disabled for 3D ones (Section 6.3).
///
/// # Panics
///
/// Panics if the configuration is invalid for the stencil, which only
/// happens for stencils whose radius × bT exceeds the Sconf block — the
/// paper never runs Sconf on those either.
#[must_use]
pub fn sconf_plan(def: &StencilDef, problem: &StencilProblem, precision: Precision) -> KernelPlan {
    let config = BlockConfig::sconf(def.ndim(), precision);
    let scheme = if def.ndim() == 2 {
        FrameworkScheme::an5d_no_associative()
    } else {
        FrameworkScheme::an5d()
    };
    KernelPlan::build(def, problem, &config, scheme).expect("Sconf configuration is valid")
}

/// Simulated `Sconf` measurement.
#[must_use]
pub fn sconf_measurement(
    def: &StencilDef,
    problem: &StencilProblem,
    device: &GpuDevice,
    precision: Precision,
) -> Option<Measurement> {
    let plan = sconf_plan(def, problem, precision);
    measure_best_cap(&plan, problem, device).ok()
}

/// Run the Section 6.3 tuner for a stencil at paper scale.
#[must_use]
pub fn tuned(def: &StencilDef, device: &GpuDevice, precision: Precision) -> Option<TuningResult> {
    let problem = paper_problem(def);
    let space = SearchSpace::paper(def.ndim(), precision);
    Tuner::new(device.clone()).tune(def, &problem, &space).ok()
}

/// Model prediction for an explicit configuration at paper scale.
#[must_use]
pub fn prediction_for(
    def: &StencilDef,
    config: &BlockConfig,
    device: &GpuDevice,
) -> Option<ModelPrediction> {
    let problem = paper_problem(def);
    let plan = an5d_plan(def, &problem, config)?;
    Some(predict(&plan, &problem, device))
}

/// Simulated measurement for an explicit configuration at paper scale.
#[must_use]
pub fn measurement_for(
    def: &StencilDef,
    config: &BlockConfig,
    device: &GpuDevice,
) -> Option<Measurement> {
    let problem = paper_problem(def);
    let plan = an5d_plan(def, &problem, config)?;
    measure_best_cap(&plan, &problem, device).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d::suite;

    #[test]
    fn sconf_plan_matches_section_6_3() {
        let def = suite::j2d5pt();
        let problem = paper_problem(&def);
        let plan = sconf_plan(&def, &problem, Precision::Single);
        assert_eq!(plan.config().bt(), 4);
        assert_eq!(plan.config().hsn(), Some(128));
        // 2D Sconf disables the associative optimisation.
        assert_eq!(plan.scheme(), FrameworkScheme::an5d_no_associative());

        let def3 = suite::star3d(1);
        let plan3 = sconf_plan(&def3, &paper_problem(&def3), Precision::Single);
        assert_eq!(plan3.config().hsn(), None);
        assert_eq!(plan3.scheme(), FrameworkScheme::an5d());
    }

    #[test]
    fn helpers_produce_results_for_a_representative_stencil() {
        let def = suite::star2d(1);
        let device = device("v100");
        let problem = paper_problem(&def);
        assert!(sconf_measurement(&def, &problem, &device, Precision::Single).is_some());
        let config = BlockConfig::new(8, &[256], Some(256), Precision::Single).unwrap();
        let prediction = prediction_for(&def, &config, &device).unwrap();
        let measurement = measurement_for(&def, &config, &device).unwrap();
        assert!(prediction.gflops > measurement.gflops);
    }
}
