//! The complete kernel plan: configuration + scheme + derived artefacts.
//!
//! Everything a plan carries is closed-form in `(stencil, problem, bT,
//! bS, hS_N)` — geometry, resources, and a schedule that is two integers
//! `(bT, rad)`, whose macro calls the code generator walks as it prints —
//! and all of it but the definition is `Copy`, held inline. The definition
//! is shared, not copied (cloning a `StencilDef` bumps three reference
//! counts; the tap list stays where it is). Building a plan therefore
//! allocates nothing and costs a fraction of a microsecond. The tuner's
//! sweep still builds none: it reads the two halves of the geometry
//! ([`BlockConfig::blocked_geometry`], [`BlockConfig::streaming_tiling`])
//! once per pair of axis values each depends on, and builds plans only
//! for the candidates it measures.

use crate::{
    BlockConfig, BlockGeometry, DimTiling, FrameworkScheme, KernelSchedule, OptimizationClass,
    PlanError, ResourceUsage,
};
use an5d_stencil::{StencilDef, StencilProblem};
use std::fmt;

/// A fully-derived kernel plan for one stencil problem: the object the code
/// generator prints, the simulator executes, and the performance model
/// prices.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct KernelPlan {
    def: StencilDef,
    config: BlockConfig,
    scheme: FrameworkScheme,
    class: OptimizationClass,
    geometry: BlockGeometry,
    resources: ResourceUsage,
    schedule: KernelSchedule,
}

impl KernelPlan {
    /// Build a plan, validating the configuration against the stencil and
    /// problem extents.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] if the configuration is inconsistent with the
    /// stencil (wrong blocked rank, empty compute region, …).
    pub fn build(
        def: &StencilDef,
        problem: &StencilProblem,
        config: &BlockConfig,
        scheme: FrameworkScheme,
    ) -> Result<Self, PlanError> {
        let geometry = config.geometry(problem)?;
        let class = scheme.classify(def);
        let resources = ResourceUsage::compute(config, def.radius(), class, scheme);
        let schedule = KernelSchedule::build(config, def.radius());
        Ok(Self {
            def: def.clone(),
            config: *config,
            scheme,
            class,
            geometry,
            resources,
            schedule,
        })
    }

    /// Check that `problem` is the one this plan's tiling was cut for.
    /// Everything that pairs a plan with a problem again after
    /// [`KernelPlan::build`] — the executor, the analytic counters — goes
    /// through here, because a plan's tiles on another problem's grid are
    /// silently the wrong cells.
    ///
    /// # Panics
    ///
    /// Panics if the stencil or the interior extents differ.
    pub fn assert_tiled_for(&self, problem: &StencilProblem) {
        assert_eq!(
            self.def.name(),
            problem.def().name(),
            "plan and problem describe different stencils"
        );
        let tiled = self.geometry.tilings().iter().map(DimTiling::extent);
        assert!(
            tiled.clone().eq(problem.interior().iter().copied()),
            "plan was tiled for interior {:?} but the problem's interior is {:?}",
            tiled.collect::<Vec<_>>(),
            problem.interior()
        );
    }

    /// The stencil this plan executes.
    #[must_use]
    pub fn def(&self) -> &StencilDef {
        &self.def
    }

    /// The blocking configuration.
    #[must_use]
    pub fn config(&self) -> &BlockConfig {
        &self.config
    }

    /// The framework scheme (AN5D, STENCILGEN, …).
    #[must_use]
    pub fn scheme(&self) -> FrameworkScheme {
        self.scheme
    }

    /// The optimisation class selected for this stencil under the scheme.
    #[must_use]
    pub fn class(&self) -> OptimizationClass {
        self.class
    }

    /// Derived execution geometry.
    #[must_use]
    pub fn geometry(&self) -> &BlockGeometry {
        &self.geometry
    }

    /// Derived on-chip resource usage.
    #[must_use]
    pub fn resources(&self) -> &ResourceUsage {
        &self.resources
    }

    /// The head / inner / tail macro schedule (its macro calls are walked
    /// when asked for, see [`KernelSchedule::ops`]).
    #[must_use]
    pub fn schedule(&self) -> &KernelSchedule {
        &self.schedule
    }
}

impl fmt::Display for KernelPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} plan for {}: {} [{}], {} thread blocks of {} threads, {} B shared/block, ~{} regs/thread",
            self.scheme.name(),
            self.def.name(),
            self.config,
            self.class,
            self.geometry.total_thread_blocks(),
            self.geometry.nthr,
            self.resources.shared_bytes_per_block,
            self.resources.registers_per_thread
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_grid::Precision;
    use an5d_stencil::suite;

    fn plan_for(
        def: StencilDef,
        interior: &[usize],
        bt: usize,
        bs: &[usize],
        scheme: FrameworkScheme,
    ) -> KernelPlan {
        let problem = StencilProblem::new(def.clone(), interior, 100).unwrap();
        let config = BlockConfig::new(bt, bs, Some(256), Precision::Single).unwrap();
        KernelPlan::build(&def, &problem, &config, scheme).unwrap()
    }

    #[test]
    fn an5d_plan_for_star_uses_double_buffers_and_one_store() {
        let plan = plan_for(
            suite::j2d5pt(),
            &[1024, 1024],
            4,
            &[256],
            FrameworkScheme::an5d(),
        );
        assert_eq!(plan.class(), OptimizationClass::DiagonalAccessFree);
        assert_eq!(plan.resources().shared_buffers, 2);
        assert_eq!(plan.resources().shared_stores_per_cell, 1);
        assert_eq!(plan.schedule().unroll(), 3);
        assert_eq!(plan.geometry().nthr, 256);
    }

    #[test]
    fn stencilgen_plan_uses_per_time_step_buffers() {
        let plan = plan_for(
            suite::j2d5pt(),
            &[1024, 1024],
            4,
            &[256],
            FrameworkScheme::stencilgen(),
        );
        assert_eq!(plan.resources().shared_buffers, 4);
        assert!(plan.resources().registers_per_thread > 0);
    }

    #[test]
    fn box_stencil_is_associative_under_an5d() {
        let plan = plan_for(
            suite::box2d(2),
            &[2048, 2048],
            2,
            &[256],
            FrameworkScheme::an5d(),
        );
        assert_eq!(plan.class(), OptimizationClass::Associative);
        assert_eq!(plan.resources().shared_stores_per_cell, 1);
    }

    #[test]
    fn gradient2d_is_diagonal_access_free_but_not_associative() {
        let plan = plan_for(
            suite::gradient2d(),
            &[1024, 1024],
            4,
            &[256],
            FrameworkScheme::an5d(),
        );
        assert_eq!(plan.class(), OptimizationClass::DiagonalAccessFree);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let def = suite::j2d9pt();
        let problem = StencilProblem::new(def.clone(), &[512, 512], 10).unwrap();
        let config = BlockConfig::new(16, &[64], None, Precision::Single).unwrap();
        assert!(KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).is_err());
    }

    #[test]
    fn three_dimensional_plan() {
        let def = suite::j3d27pt();
        let problem = StencilProblem::new(def.clone(), &[256, 256, 256], 100).unwrap();
        let config = BlockConfig::new(3, &[32, 32], Some(128), Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
        assert_eq!(plan.geometry().nthr, 1024);
        assert_eq!(plan.geometry().stream_blocks(), 2);
        assert_eq!(plan.class(), OptimizationClass::Associative);
    }

    #[test]
    fn display_summarises_the_plan() {
        let plan = plan_for(
            suite::j2d5pt(),
            &[1024, 1024],
            4,
            &[256],
            FrameworkScheme::an5d(),
        );
        let s = plan.to_string();
        assert!(s.contains("AN5D"));
        assert!(s.contains("j2d5pt"));
        assert!(s.contains("bT=4"));
    }
}
