//! The end-to-end AN5D pipeline.

use crate::An5dError;
use an5d_backend::{ExecutionBackend, SerialBackend};
use an5d_codegen::CudaCode;
use an5d_frontend::{emit_c_source, parse_stencil};
use an5d_gpusim::{DeviceId, GpuDevice, TrafficCounters};
use an5d_grid::{default_tolerance, Grid, GridDiff, GridInit, Precision};
use an5d_model::{measure_best_cap, predict, Measurement, ModelPrediction};
use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan};
use an5d_stencil::{exec::run_reference, suite, StencilDef, StencilProblem};
use an5d_tunedb::{TuneDb, TuneKey};
use an5d_tuner::{SearchSpace, Tuner, TuningResult};
use std::sync::Arc;

/// Result of a read-through tuning query against a persisted
/// [`TuneDb`]: the tuning result plus where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct DbTuneOutcome {
    /// The tuning result (bit-identical whether freshly tuned or read
    /// from the database).
    pub result: TuningResult,
    /// `true` when the result was answered from the database without
    /// invoking the tuner.
    pub from_db: bool,
    /// `Some(reason)` when the fresh result could not be appended to the
    /// database: the tuning result is still valid and returned, but it
    /// will not survive a restart. Callers that care about durability
    /// (the service counts these) must check; always `None` for
    /// database hits.
    pub persist_error: Option<String>,
}

/// Result of verifying a blocked execution against the naive reference.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// `true` when the blocked result matches the reference within the
    /// precision-appropriate tolerance.
    pub matches_reference: bool,
    /// Maximum absolute difference observed.
    pub max_abs_diff: f64,
    /// Tolerance used for the comparison (0 for `f64`).
    pub tolerance: f64,
    /// Work and traffic counters of the blocked execution.
    pub counters: TrafficCounters,
}

/// The AN5D pipeline for one stencil: detection/definition, planning,
/// verification, prediction, measurement, tuning and code generation.
///
/// Functional (blocked) execution goes through a pluggable
/// [`ExecutionBackend`]: [`SerialBackend`] unless the pipeline is given
/// another with [`An5d::with_backend`].
#[derive(Clone)]
pub struct An5d {
    def: StencilDef,
    scheme: FrameworkScheme,
    backend: Arc<dyn ExecutionBackend>,
}

impl std::fmt::Debug for An5d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("An5d")
            .field("def", &self.def)
            .field("scheme", &self.scheme)
            .field("backend", &self.backend.describe())
            .finish()
    }
}

impl PartialEq for An5d {
    fn eq(&self, other: &Self) -> bool {
        // Backends are semantically transparent (they never change the
        // computed values), so pipeline equality ignores them.
        self.def == other.def && self.scheme == other.scheme
    }
}

impl An5d {
    /// Build the pipeline from a C source snippet (Fig. 4 style).
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Frontend`] if the source cannot be parsed or
    /// does not match the supported stencil pattern.
    pub fn from_c_source(source: &str, name: &str) -> Result<Self, An5dError> {
        let _span = an5d_obs::Span::enter("pipeline.parse");
        let detected = parse_stencil(source, name)?;
        Ok(Self::from_def(detected.def))
    }

    /// Build the pipeline from an existing stencil definition (e.g. one of
    /// the Table 3 benchmarks in [`suite`]).
    #[must_use]
    pub fn from_def(def: StencilDef) -> Self {
        Self {
            def,
            scheme: FrameworkScheme::an5d(),
            backend: Arc::new(SerialBackend),
        }
    }

    /// Build the pipeline for a named Table 3 benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Frontend`] if the name is unknown.
    pub fn benchmark(name: &str) -> Result<Self, An5dError> {
        let def = suite::by_name(name).ok_or_else(|| {
            An5dError::Frontend(an5d_frontend::FrontendError::unsupported(format!(
                "unknown benchmark '{name}'"
            )))
        })?;
        Ok(Self::from_def(def))
    }

    /// Use a different framework scheme (e.g. the STENCILGEN-style scheme
    /// for comparisons).
    #[must_use]
    pub fn with_scheme(mut self, scheme: FrameworkScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// The framework scheme plans are built under.
    #[must_use]
    pub fn scheme(&self) -> FrameworkScheme {
        self.scheme
    }

    /// Use an explicit execution backend for blocked (functional)
    /// execution instead of [`SerialBackend`].
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn ExecutionBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The execution backend blocked runs go through.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn ExecutionBackend> {
        &self.backend
    }

    /// The stencil definition this pipeline operates on.
    #[must_use]
    pub fn def(&self) -> &StencilDef {
        &self.def
    }

    /// Render the stencil back to Fig. 4-style C source.
    #[must_use]
    pub fn c_source(&self) -> String {
        emit_c_source(&self.def, "A")
    }

    /// Create a problem over the given interior extents and time-steps.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Stencil`] if the extents do not match the
    /// stencil rank.
    pub fn problem(
        &self,
        interior: &[usize],
        time_steps: usize,
    ) -> Result<StencilProblem, An5dError> {
        Ok(StencilProblem::new(self.def.clone(), interior, time_steps)?)
    }

    /// The paper-scale problem (16,384² / 512³, 1,000 time-steps).
    #[must_use]
    pub fn paper_problem(&self) -> StencilProblem {
        StencilProblem::paper_scale(self.def.clone())
    }

    /// Build a kernel plan for a problem and blocking configuration.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Plan`] if the configuration is invalid for the
    /// stencil/problem.
    pub fn plan(
        &self,
        problem: &StencilProblem,
        config: &BlockConfig,
    ) -> Result<KernelPlan, An5dError> {
        let _span = an5d_obs::Span::enter("pipeline.plan");
        Ok(KernelPlan::build(&self.def, problem, config, self.scheme)?)
    }

    /// Execute the blocked schedule functionally and compare it against the
    /// naive reference executor.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Plan`] for invalid configurations.
    pub fn verify(
        &self,
        problem: &StencilProblem,
        config: &BlockConfig,
    ) -> Result<VerificationReport, An5dError> {
        let _span = an5d_obs::Span::enter("pipeline.verify");
        let plan = self.plan(problem, config)?;
        let init = GridInit::Hash { seed: 0x5EED };
        match config.precision() {
            Precision::Double => {
                let reference = run_reference::<f64>(problem, init);
                let initial = Grid::<f64>::from_init(&problem.grid_shape(), init);
                let blocked = self.backend.execute_f64(&plan, problem, initial);
                let diff = GridDiff::compute(&reference, &blocked.grid)
                    .expect("reference and blocked grids share a shape");
                let tolerance = default_tolerance(Precision::Double, problem.time_steps());
                Ok(VerificationReport {
                    matches_reference: diff.max_abs <= tolerance,
                    max_abs_diff: diff.max_abs,
                    tolerance,
                    counters: blocked.counters,
                })
            }
            Precision::Single => {
                let reference = run_reference::<f32>(problem, init);
                let initial = Grid::<f32>::from_init(&problem.grid_shape(), init);
                let blocked = self.backend.execute_f32(&plan, problem, initial);
                let diff = GridDiff::compute(&reference, &blocked.grid)
                    .expect("reference and blocked grids share a shape");
                let tolerance = default_tolerance(Precision::Single, problem.time_steps());
                Ok(VerificationReport {
                    matches_reference: diff.max_abs <= tolerance,
                    max_abs_diff: diff.max_abs,
                    tolerance,
                    counters: blocked.counters,
                })
            }
        }
    }

    /// Run the Section 5 performance model for a configuration on a device.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Plan`] for invalid configurations.
    pub fn predict(
        &self,
        problem: &StencilProblem,
        config: &BlockConfig,
        device: &GpuDevice,
    ) -> Result<ModelPrediction, An5dError> {
        let _span = an5d_obs::Span::enter("pipeline.predict");
        let plan = self.plan(problem, config)?;
        Ok(predict(&plan, problem, device))
    }

    /// Simulate a measurement (best register cap) for a configuration on a
    /// device.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Plan`] or [`An5dError::Infeasible`].
    pub fn measure(
        &self,
        problem: &StencilProblem,
        config: &BlockConfig,
        device: &GpuDevice,
    ) -> Result<Measurement, An5dError> {
        let _span = an5d_obs::Span::enter("pipeline.measure");
        let plan = self.plan(problem, config)?;
        Ok(measure_best_cap(&plan, problem, device)?)
    }

    /// Run the Section 6.3 tuner over a search space.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Tuner`] when no feasible candidate exists.
    pub fn tune(
        &self,
        problem: &StencilProblem,
        device: &GpuDevice,
        space: &SearchSpace,
    ) -> Result<TuningResult, An5dError> {
        let _span = an5d_obs::Span::enter("pipeline.tune");
        let tuner = Tuner::new(device.clone()).with_scheme(self.scheme);
        Ok(tuner.tune(&self.def, problem, space)?)
    }

    /// The persistence key a tuning query of this pipeline maps to:
    /// canonical stencil/space fingerprints plus the problem descriptor,
    /// the device id and the scheme's canonical name.
    #[must_use]
    pub fn tune_key(
        &self,
        problem: &StencilProblem,
        device: &DeviceId,
        space: &SearchSpace,
    ) -> TuneKey {
        let _span = an5d_obs::Span::enter("tune.key");
        TuneKey::for_query(
            &self.def,
            problem,
            device,
            space,
            self.scheme.canonical_name(),
        )
    }

    /// Like [`An5d::tune`], but *read-through* a persisted
    /// [`TuneDb`]: a stored result for this exact
    /// `(stencil, problem, device, precision, space, scheme)` key is
    /// returned without invoking the tuner; a miss runs the tuner and
    /// appends the fresh result. With `refresh` the database is bypassed
    /// and the fresh result *overwrites* the stored one
    /// (`/tune?refresh=true` in `an5d-serve`).
    ///
    /// Stored and freshly-tuned results are bit-identical — tuning is
    /// deterministic and the record codec round-trips every `f64`
    /// exactly — so read-through never changes response bytes, only
    /// whether the search ran. A stored record therefore always answers
    /// unless `refresh` is set.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Tuner`] when no feasible candidate exists.
    /// A failed *append* does not fail the query: the freshly tuned
    /// result is valid regardless of whether it could be persisted, so
    /// it is returned with the failure reported in
    /// [`DbTuneOutcome::persist_error`] — durability degrades (and the
    /// service counts it) instead of a good answer being thrown away.
    pub fn tune_with_db(
        &self,
        problem: &StencilProblem,
        device_id: &DeviceId,
        device: &GpuDevice,
        space: &SearchSpace,
        db: &TuneDb,
        refresh: bool,
    ) -> Result<DbTuneOutcome, An5dError> {
        let key = self.tune_key(problem, device_id, space);
        if !refresh {
            if let Some(result) = db.get(&key) {
                return Ok(DbTuneOutcome {
                    result,
                    from_db: true,
                    persist_error: None,
                });
            }
        }
        let result = self.tune(problem, device, space)?;
        let persist_error = db
            .put(&key, Some(self.def.name()), &result)
            .err()
            .map(|e| e.to_string());
        Ok(DbTuneOutcome {
            result,
            from_db: false,
            persist_error,
        })
    }

    /// Generate the CUDA host and kernel sources for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`An5dError::Plan`] for invalid configurations.
    pub fn generate_cuda(
        &self,
        problem: &StencilProblem,
        config: &BlockConfig,
    ) -> Result<CudaCode, An5dError> {
        let _span = an5d_obs::Span::enter("pipeline.codegen");
        let plan = self.plan(problem, config)?;
        Ok(an5d_codegen::generate(&plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j2d5pt_source() -> &'static str {
        r"
        for (t = 0; t < I_T; t++)
          for (i = 1; i <= I_S2; i++)
            for (j = 1; j <= I_S1; j++)
              A[(t+1)%2][i][j] = (5.1f * A[t%2][i-1][j] + 12.1f * A[t%2][i][j-1]
                + 15.0f * A[t%2][i][j] + 12.2f * A[t%2][i][j+1]
                + 5.2f * A[t%2][i+1][j]) / 118;
        "
    }

    #[test]
    fn pipeline_from_c_source_verifies_and_generates() {
        let an5d = An5d::from_c_source(j2d5pt_source(), "j2d5pt").unwrap();
        assert_eq!(an5d.def().name(), "j2d5pt");
        let problem = an5d.problem(&[48, 48], 9).unwrap();
        let config = BlockConfig::new(3, &[32], None, Precision::Double).unwrap();

        let report = an5d.verify(&problem, &config).unwrap();
        assert!(report.matches_reference);
        assert_eq!(report.max_abs_diff, 0.0);
        assert!(report.counters.cell_updates > 0);

        let cuda = an5d.generate_cuda(&problem, &config).unwrap();
        assert!(cuda.kernel_source.contains("__global__"));
        assert!(cuda.host_source.contains("<<<grid, block>>>"));
    }

    #[test]
    fn pipeline_from_benchmark_and_single_precision_verification() {
        let an5d = An5d::benchmark("star3d1r").unwrap();
        let problem = an5d.problem(&[12, 12, 12], 4).unwrap();
        let config = BlockConfig::new(2, &[10, 10], None, Precision::Single).unwrap();
        let report = an5d.verify(&problem, &config).unwrap();
        assert!(report.matches_reference, "diff {}", report.max_abs_diff);
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert!(matches!(
            An5d::benchmark("nope"),
            Err(An5dError::Frontend(_))
        ));
    }

    #[test]
    fn prediction_and_measurement_are_consistent() {
        let an5d = An5d::benchmark("star2d1r").unwrap();
        let problem = an5d.problem(&[4096, 4096], 100).unwrap();
        let config = BlockConfig::new(8, &[256], Some(256), Precision::Single).unwrap();
        let device = GpuDevice::tesla_v100();
        let prediction = an5d.predict(&problem, &config, &device).unwrap();
        let measurement = an5d.measure(&problem, &config, &device).unwrap();
        assert!(prediction.gflops > measurement.gflops);
        assert!(measurement.gflops > 0.0);
    }

    #[test]
    fn tuning_through_the_facade() {
        let an5d = An5d::benchmark("j2d5pt").unwrap();
        let problem = an5d.problem(&[2048, 2048], 64).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let result = an5d
            .tune(&problem, &GpuDevice::tesla_v100(), &space)
            .unwrap();
        assert!(result.best.measured_gflops > 0.0);
    }

    #[test]
    fn c_source_round_trips_through_the_facade() {
        let an5d = An5d::benchmark("j2d9pt").unwrap();
        let source = an5d.c_source();
        let reparsed = An5d::from_c_source(&source, "j2d9pt").unwrap();
        assert_eq!(reparsed.def().radius(), 2);
        assert_eq!(reparsed.def().flops_per_cell(), an5d.def().flops_per_cell());
    }

    #[test]
    fn tuning_reads_through_and_writes_back_the_db() {
        let path =
            std::env::temp_dir().join(format!("an5d-facade-tunedb-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let db = an5d_tunedb::TuneDb::open(&path).unwrap();

        let an5d = An5d::benchmark("j2d5pt").unwrap();
        let problem = an5d.problem(&[512, 512], 50).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let device_id = DeviceId::new("v100");
        let device = GpuDevice::tesla_v100();

        let cold = an5d
            .tune_with_db(&problem, &device_id, &device, &space, &db, false)
            .unwrap();
        assert!(!cold.from_db, "first query must run the tuner");
        assert_eq!(db.len(), 1, "the fresh result was appended");

        let warm = an5d
            .tune_with_db(&problem, &device_id, &device, &space, &db, false)
            .unwrap();
        assert!(warm.from_db, "second query must come from the DB");
        assert_eq!(warm.result, cold.result, "bit-identical results");

        // refresh=true bypasses the stored record and overwrites it.
        let refreshed = an5d
            .tune_with_db(&problem, &device_id, &device, &space, &db, true)
            .unwrap();
        assert!(!refreshed.from_db);
        assert_eq!(refreshed.result, cold.result);
        assert_eq!(db.stats().appends, 2, "refresh re-appended");
        assert_eq!(db.len(), 1, "still one live key");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn problem_rank_mismatch_is_reported() {
        let an5d = An5d::benchmark("j2d5pt").unwrap();
        assert!(matches!(
            an5d.problem(&[8, 8, 8], 1),
            Err(An5dError::Stencil(_))
        ));
    }
}
