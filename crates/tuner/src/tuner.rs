//! The model-guided tuning flow of Section 6.3.
//!
//! The paper tunes by model because a candidate's geometry, resources and
//! traffic are closed-form, so ranking hundreds of them costs next to
//! nothing. That holds here: a candidate is one `KernelPlan::build` — which
//! is also the validity check, together with the register heuristic on the
//! plan it returns — plus one `predict` (O(ndim), under a microsecond), and
//! neither allocates. The ranking sweep runs inline on the calling thread,
//! in candidate order, with a deadline checkpoint before every candidate;
//! it keeps each survivor's `Copy` [`BlockConfig`] and score and drops the
//! plan on the spot, and only the top-k it measures are built again.

use an5d_backend::{BackendElement, ExecutionBackend};
use an5d_gpusim::GpuDevice;
use an5d_grid::{Grid, GridInit, Precision};
use an5d_model::{measure_each_cap, predict};
use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan, RegisterCap};
use an5d_stencil::{StencilDef, StencilProblem};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::SearchSpace;

/// How many model-ranked candidates are actually "run" (simulated); the
/// paper uses the top 5.
const DEFAULT_TOP_K: usize = 5;

/// Descending, NaN-safe score comparison for candidate ranking.
///
/// Built on [`f64::total_cmp`] so the sort is a total order even when a
/// prediction or measurement goes NaN; NaN is additionally mapped *below*
/// every real score (including −∞), so a poisoned candidate can never
/// out-rank a finite one or scramble the order of its neighbours the way
/// `partial_cmp(..).unwrap_or(Equal)` silently did.
fn cmp_scores_desc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.total_cmp(&a),
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
    }
}

/// Errors produced by the tuner.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TunerError {
    /// No candidate in the search space was valid for the stencil/problem
    /// after pruning.
    NoFeasibleCandidate,
    /// The caller's deadline expired mid-tune. The run aborts cleanly
    /// rather than returning a winner ranked over a partial sweep;
    /// `completed`/`total` report how far the interrupted stage got.
    DeadlineExceeded {
        /// Candidates fully processed by the interrupted stage.
        completed: usize,
        /// Candidates the interrupted stage was asked to process.
        total: usize,
    },
}

impl fmt::Display for TunerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunerError::NoFeasibleCandidate => {
                write!(
                    f,
                    "no feasible blocking configuration found in the search space"
                )
            }
            TunerError::DeadlineExceeded { completed, total } => {
                write!(
                    f,
                    "tuning deadline exceeded after {completed}/{total} candidates"
                )
            }
        }
    }
}

impl Error for TunerError {}

/// One fully evaluated candidate configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TunedCandidate {
    /// The blocking configuration.
    pub config: BlockConfig,
    /// Best register cap found for this configuration. Always
    /// [`RegisterCap::Unlimited`] for backend-measured candidates (a CPU
    /// run has no register-cap knob; the cap sweep is a GPU-simulation
    /// concept).
    pub register_cap: RegisterCap,
    /// Performance predicted by the Section 5 model (GFLOP/s).
    pub predicted_gflops: f64,
    /// Measured performance (GFLOP/s). The provenance depends on the
    /// tuner's [`MeasurementSource`]: the *simulated* GPU throughput from
    /// `an5d_model::measure` (the default), or the real wall-clock
    /// throughput of an [`ExecutionBackend`] run
    /// ([`BackendMeasurement`]). [`TuningResult::measured_on_backend`]
    /// records which.
    pub measured_gflops: f64,
    /// Measured performance (GCell/s); same provenance as
    /// `measured_gflops`.
    pub measured_gcells: f64,
    /// Measured run time (seconds); simulated device time or real
    /// wall-clock time, per the measurement source.
    pub seconds: f64,
}

impl TunedCandidate {
    /// Model accuracy for this candidate: measured over predicted
    /// performance (the paper's Section 7.2 metric).
    ///
    /// Under the default simulated source this compares the Section 5
    /// analytic model against the `gpusim` simulation — both describe the
    /// same GPU, so the paper's 0.2–1.0 band applies. Under a
    /// backend-measured source it compares the *GPU* model prediction
    /// against *CPU* wall-clock throughput, so the ratio is a cross-device
    /// figure of merit (usually ≪ 1) rather than a model-validation
    /// metric.
    #[must_use]
    pub fn model_accuracy(&self) -> f64 {
        if self.predicted_gflops <= 0.0 {
            return 0.0;
        }
        self.measured_gflops / self.predicted_gflops
    }
}

/// Result of a tuning run: the winner plus every candidate that was
/// actually measured (the model-ranked top-k).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TuningResult {
    /// The configuration with the best measured performance.
    pub best: TunedCandidate,
    /// All measured candidates, sorted by measured performance
    /// (best first).
    pub measured: Vec<TunedCandidate>,
    /// Number of candidates surviving validity/register pruning and ranked
    /// by the model.
    pub ranked_candidates: usize,
    /// Number of raw combinations in the search space.
    pub total_candidates: usize,
    /// Provenance of the `measured_*` numbers: `true` when they are real
    /// wall-clock measurements from an [`ExecutionBackend`] run
    /// ([`BackendMeasurement`]), `false` when they come from the `gpusim`
    /// simulation (the default). Persisted with the result so a warm
    /// start never silently mixes simulated and measured winners.
    pub measured_on_backend: bool,
}

/// Where the tuner's top-k "measurements" come from.
///
/// Step 2 of the tuning flow runs each model-ranked survivor through a
/// measurement source and keeps the best [`TunedCandidate`] per
/// configuration. The default [`SimulatedMeasurement`] reproduces the
/// paper's flow against the `gpusim` device simulation;
/// [`BackendMeasurement`] replaces it with real wall-clock runs on an
/// [`ExecutionBackend`], giving the tuner a second, hardware-grounded
/// ranking signal.
pub trait MeasurementSource: fmt::Debug + Send + Sync {
    /// `true` when measurements are real wall-clock backend runs; recorded
    /// into [`TuningResult::measured_on_backend`].
    fn is_measured(&self) -> bool;

    /// Human-readable description of the source.
    fn describe(&self) -> String;

    /// Measure one ranked candidate, returning its best evaluation (for
    /// `plan.config()`) or `None` when the candidate cannot execute at all.
    fn measure_candidate(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        device: &GpuDevice,
        predicted_gflops: f64,
    ) -> Option<TunedCandidate>;
}

/// The paper's flow: "run" a candidate by simulating it on the GPU model
/// with every register cap and keep the best simulated throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimulatedMeasurement;

impl MeasurementSource for SimulatedMeasurement {
    fn is_measured(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        "simulated (gpusim)".to_string()
    }

    fn measure_candidate(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        device: &GpuDevice,
        predicted_gflops: f64,
    ) -> Option<TunedCandidate> {
        // The simulated stand-in for executing the candidate on the
        // backend device under every register cap (see
        // `an5d_model::measure_each_cap`).
        let measured_runs = {
            let _span = an5d_obs::Span::enter("tuner.measure");
            measure_each_cap(plan, problem, device)
        };
        let mut best_for_candidate: Option<TunedCandidate> = None;
        for m in measured_runs.into_iter().flatten() {
            let candidate = TunedCandidate {
                config: *plan.config(),
                register_cap: m.register_cap,
                predicted_gflops,
                measured_gflops: m.gflops,
                measured_gcells: m.gcells,
                seconds: m.seconds,
            };
            if best_for_candidate
                .as_ref()
                .is_none_or(|b| candidate.measured_gflops > b.measured_gflops)
            {
                best_for_candidate = Some(candidate);
            }
        }
        best_for_candidate
    }
}

/// Real measurements: execute the candidate's plan on an
/// [`ExecutionBackend`] and report wall-clock GFLOP/s.
///
/// The run uses the configuration's own precision (monomorphic `f32` or
/// `f64` through the [`BackendElement`] seal), a deterministic initial
/// grid, and the problem's full time-step count, so the measured time is
/// exactly the work the plan describes. The register cap is recorded as
/// [`RegisterCap::Unlimited`] — a CPU run has no register-cap knob.
#[derive(Clone)]
pub struct BackendMeasurement {
    backend: Arc<dyn ExecutionBackend>,
}

/// Seed of the deterministic initial grid every measured run starts from.
const GRID_SEED: u64 = 42;

impl fmt::Debug for BackendMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendMeasurement")
            .field("backend", &self.backend.describe())
            .finish()
    }
}

impl BackendMeasurement {
    /// Measure candidates by running them on `backend`.
    #[must_use]
    pub fn new(backend: Arc<dyn ExecutionBackend>) -> Self {
        Self { backend }
    }

    /// The backend measurements run on.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn ExecutionBackend> {
        &self.backend
    }

    fn timed_run<T: BackendElement>(&self, plan: &KernelPlan, problem: &StencilProblem) -> f64 {
        let initial =
            Grid::<T>::from_init(&problem.grid_shape(), GridInit::Hash { seed: GRID_SEED });
        let started = std::time::Instant::now();
        let run = T::execute_on(self.backend.as_ref(), plan, problem, initial);
        let seconds = started.elapsed().as_secs_f64();
        // Keep the run observable so the execution cannot be optimised
        // away, then return the wall-clock time.
        debug_assert!(!run.grid.is_empty());
        seconds
    }
}

impl MeasurementSource for BackendMeasurement {
    fn is_measured(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!("measured ({})", self.backend.describe())
    }

    fn measure_candidate(
        &self,
        plan: &KernelPlan,
        problem: &StencilProblem,
        _device: &GpuDevice,
        predicted_gflops: f64,
    ) -> Option<TunedCandidate> {
        let _span = an5d_obs::Span::enter("tuner.measure");
        let config = *plan.config();
        let seconds = match config.precision() {
            Precision::Single => self.timed_run::<f32>(plan, problem),
            Precision::Double => self.timed_run::<f64>(plan, problem),
        };
        Some(TunedCandidate {
            config,
            register_cap: RegisterCap::Unlimited,
            predicted_gflops,
            measured_gflops: problem.gflops(seconds),
            measured_gcells: problem.gcells(seconds),
            seconds,
        })
    }
}

/// The Section 6.3 tuner: prune → rank by model → measure top-k → pick best.
#[derive(Debug, Clone)]
pub struct Tuner {
    device: GpuDevice,
    scheme: FrameworkScheme,
    top_k: usize,
    source: Arc<dyn MeasurementSource>,
}

impl Tuner {
    /// Create a tuner for a device, using the AN5D scheme and the default
    /// [`SimulatedMeasurement`] source. The precision tuned for is the
    /// search space's (see [`Tuner::tune`]).
    #[must_use]
    pub fn new(device: GpuDevice) -> Self {
        Self {
            device,
            scheme: FrameworkScheme::an5d(),
            top_k: DEFAULT_TOP_K,
            source: Arc::new(SimulatedMeasurement),
        }
    }

    /// Use a different framework scheme (e.g. STENCILGEN for comparisons).
    #[must_use]
    pub fn with_scheme(mut self, scheme: FrameworkScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Change how many model-ranked candidates are measured (default 5).
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k.max(1);
        self
    }

    /// Measure top-k candidates through a different [`MeasurementSource`]
    /// (e.g. [`BackendMeasurement`] for real wall-clock runs).
    #[must_use]
    pub fn with_measurement_source(mut self, source: Arc<dyn MeasurementSource>) -> Self {
        self.source = source;
        self
    }

    /// The measurement source top-k candidates are evaluated with.
    #[must_use]
    pub fn measurement_source(&self) -> &Arc<dyn MeasurementSource> {
        &self.source
    }

    /// The device this tuner targets.
    #[must_use]
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// The Section 6.3 register heuristic, on the plan's own
    /// [`an5d_plan::ResourceUsage`]: the expected per-thread register demand
    /// must not exceed 255 registers per thread or the 65,536-register SM
    /// budget.
    fn survives_register_pruning(&self, plan: &KernelPlan) -> bool {
        let regs = plan.resources().registers_per_thread;
        if regs > self.device.max_registers_per_thread {
            return false;
        }
        regs * plan.geometry().nthr <= self.device.registers_per_sm
    }

    /// Run the full tuning flow for a stencil and problem.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::NoFeasibleCandidate`] when pruning removes every
    /// candidate or none of the measured candidates can execute on the
    /// device, and [`TunerError::DeadlineExceeded`] when the installed
    /// [`an5d_fault::Deadline`] runs out mid-tune (checkpointed before
    /// every candidate, so an expired budget never builds a plan and a
    /// mid-sweep expiry never yields a partially-ranked winner).
    pub fn tune(
        &self,
        def: &StencilDef,
        problem: &StencilProblem,
        space: &SearchSpace,
    ) -> Result<TuningResult, TunerError> {
        let total_candidates = space.len();
        // Admission checkpoint: a budget that is already gone must not
        // build a single plan.
        if an5d_fault::deadline_expired() {
            return Err(TunerError::DeadlineExceeded {
                completed: 0,
                total: total_candidates,
            });
        }

        // Step 1: rank every valid candidate with the Section 5 model. A
        // candidate is valid when its plan builds (`PlanError` otherwise:
        // wrong blocked rank, or a halo that leaves no compute region) and
        // the plan passes the register heuristic. Candidates are evaluated
        // inline on the calling thread, in candidate order: one costs a
        // plan build plus a closed-form prediction (under a microsecond,
        // no allocation), which is less than handing it to another thread
        // would. The plan is dropped once priced; the ranking keeps the
        // `Copy` configuration.
        let mut ranked: Vec<(BlockConfig, f64)> = Vec::with_capacity(total_candidates);
        let sweep_span = an5d_obs::Span::enter("tuner.rank_sweep");
        for config in space.iter() {
            // Deadline checkpoint per candidate, ahead of the plan build:
            // once the budget is gone the sweep
            // stops and the partial ranking becomes an error instead of a
            // winner. The fault point lets the chaos soak and tests
            // stretch individual candidates deterministically.
            if let Some(an5d_fault::FaultAction::Delay(d)) = an5d_fault::point("tuner.candidate") {
                std::thread::sleep(d);
            }
            // A sweep the deadline interrupted is a *partial* ranking: the
            // best candidate may be among the items that were skipped, so
            // returning a winner from it would be silently wrong.
            if an5d_fault::deadline_expired() {
                return Err(TunerError::DeadlineExceeded {
                    completed: ranked.len(),
                    total: total_candidates,
                });
            }
            let built = {
                let _span = an5d_obs::Span::enter("plan.build");
                KernelPlan::build(def, problem, &config, self.scheme)
            };
            let Ok(plan) = built else {
                continue;
            };
            if !self.survives_register_pruning(&plan) {
                continue;
            }
            let prediction = predict(&plan, problem, &self.device);
            ranked.push((config, prediction.gflops));
        }
        drop(sweep_span);
        if ranked.is_empty() {
            return Err(TunerError::NoFeasibleCandidate);
        }
        // Score-descending; the sort is stable, so candidate order breaks
        // ties.
        ranked.sort_by(|a, b| cmp_scores_desc(a.1, b.1));
        let ranked_candidates = ranked.len();

        // Step 2: "run" the model-ranked top-k through the measurement
        // source (simulated by default, wall-clock backend runs with
        // [`BackendMeasurement`]) and keep the best evaluation per
        // candidate. Their plans are built again: k builds cost less than
        // keeping every ranked plan alive through the sort.
        let mut measured: Vec<TunedCandidate> = Vec::new();
        let _measure_span = an5d_obs::Span::enter("tuner.measure_topk");
        let measure_count = ranked.len().min(self.top_k);
        for (config, predicted_gflops) in ranked.into_iter().take(self.top_k) {
            // Checkpoint between top-k measurements: abort with the
            // partial count rather than measuring past the budget.
            if an5d_fault::deadline_expired() {
                return Err(TunerError::DeadlineExceeded {
                    completed: measured.len(),
                    total: measure_count,
                });
            }
            // Fault point stretching one candidate's measurement, so
            // tests can trip the checkpoint above deterministically.
            if let Some(an5d_fault::FaultAction::Delay(d)) = an5d_fault::point("tuner.measure") {
                std::thread::sleep(d);
            }
            let plan = KernelPlan::build(def, problem, &config, self.scheme)
                .expect("a ranked configuration's plan built in the sweep");
            if let Some(c) =
                self.source
                    .measure_candidate(&plan, problem, &self.device, predicted_gflops)
            {
                measured.push(c);
            }
        }
        if measured.is_empty() {
            return Err(TunerError::NoFeasibleCandidate);
        }
        measured.sort_by(|a, b| cmp_scores_desc(a.measured_gflops, b.measured_gflops));
        let best = measured[0].clone();
        Ok(TuningResult {
            best,
            measured,
            ranked_candidates,
            total_candidates,
            measured_on_backend: self.source.is_measured(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use an5d_stencil::suite;

    fn small_problem(def: &StencilDef) -> StencilProblem {
        let interior = match def.ndim() {
            2 => vec![2048, 2048],
            _ => vec![256, 256, 256],
        };
        StencilProblem::new(def.clone(), &interior, 100).unwrap()
    }

    #[test]
    fn tuner_finds_a_configuration_for_2d_star() {
        let def = suite::star2d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(result.best.measured_gflops > 0.0);
        assert!(result.ranked_candidates > 0);
        assert!(result.ranked_candidates <= result.total_candidates);
        assert!(!result.measured.is_empty());
        assert!(result.measured.len() <= 5);
        // Measured list is sorted best-first and the winner is its head.
        for pair in result.measured.windows(2) {
            assert!(pair[0].measured_gflops >= pair[1].measured_gflops);
        }
        assert_eq!(result.best, result.measured[0]);
    }

    #[test]
    fn repeated_identical_sweeps_return_equal_results() {
        let def = suite::star2d(1);
        let problem = small_problem(&def);
        let space = SearchSpace::quick(2, Precision::Single);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let first = tuner.tune(&def, &problem, &space).unwrap();
        let second = tuner.tune(&def, &problem, &space).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn tuned_beats_bt1_baseline_for_first_order_2d() {
        // The central claim: temporal blocking pays off, so the tuned bT
        // should exceed 1 and beat the bT = 1 configuration.
        let def = suite::star2d(1);
        let problem = small_problem(&def);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let result = tuner
            .tune(&def, &problem, &SearchSpace::paper(2, Precision::Single))
            .unwrap();
        assert!(
            result.best.config.bt() > 1,
            "tuned bT = {}",
            result.best.config.bt()
        );

        let bt1 = BlockConfig::new(1, &[256], Some(256), Precision::Single).unwrap();
        let plan = KernelPlan::build(&def, &problem, &bt1, FrameworkScheme::an5d()).unwrap();
        let bt1_measured =
            an5d_model::measure(&plan, &problem, tuner.device(), RegisterCap::Unlimited).unwrap();
        assert!(result.best.measured_gflops > bt1_measured.gflops);
    }

    #[test]
    fn tuner_handles_3d_stencils() {
        let def = suite::star3d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let space = SearchSpace::quick(3, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(result.best.measured_gflops > 0.0);
        assert!(result.best.config.bs().len() == 2);
    }

    #[test]
    fn high_order_box_prefers_low_bt() {
        // Section 7.3: high-order 3D box stencils do not scale with temporal
        // blocking; the tuner should settle on bT = 1 (or at most 2).
        let def = suite::box3d(4);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let space = SearchSpace::paper(3, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(
            result.best.config.bt() <= 2,
            "box3d4r tuned to bT = {}",
            result.best.config.bt()
        );
    }

    #[test]
    fn model_accuracy_is_within_the_papers_band() {
        let def = suite::star2d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        let acc = result.best.model_accuracy();
        assert!(acc > 0.2 && acc < 1.0, "model accuracy {acc}");
    }

    #[test]
    fn empty_space_reports_no_feasible_candidate() {
        let def = suite::j2d9pt();
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        // Blocks far too small for the requested bT: every candidate fails
        // plan validation.
        let space = SearchSpace::new(vec![16], vec![vec![32]], vec![None], Precision::Single);
        let err = tuner.tune(&def, &small_problem(&def), &space).unwrap_err();
        assert_eq!(err, TunerError::NoFeasibleCandidate);
        assert!(err.to_string().contains("no feasible"));
    }

    #[test]
    fn top_k_limits_number_of_measured_candidates() {
        let def = suite::star2d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100()).with_top_k(2);
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(result.measured.len() <= 2);
    }

    #[test]
    fn nan_scoring_candidate_ranks_last_and_never_wins() {
        // Regression: ranking used `partial_cmp(..).unwrap_or(Equal)`,
        // under which a NaN score compared Equal to everything and could
        // scramble the whole order (and even surface as the winner,
        // depending on the sort's comparison sequence).
        let config = BlockConfig::new(2, &[32], None, Precision::Single).unwrap();
        let candidate = |gflops: f64| TunedCandidate {
            config,
            register_cap: RegisterCap::Unlimited,
            predicted_gflops: gflops,
            measured_gflops: gflops,
            measured_gcells: 0.0,
            seconds: 0.0,
        };
        let mut measured = [
            candidate(5.0),
            candidate(f64::NAN),
            candidate(7.0),
            candidate(f64::NEG_INFINITY),
            candidate(6.0),
        ];
        measured.sort_by(|a, b| cmp_scores_desc(a.measured_gflops, b.measured_gflops));

        let order: Vec<f64> = measured.iter().map(|c| c.measured_gflops).collect();
        assert_eq!(order[0], 7.0);
        assert_eq!(order[1], 6.0);
        assert_eq!(order[2], 5.0);
        assert_eq!(order[3], f64::NEG_INFINITY);
        assert!(order[4].is_nan(), "NaN must sort strictly last");
        assert!(
            !measured[0].measured_gflops.is_nan(),
            "a NaN-scoring candidate must never be picked as best"
        );
    }

    #[test]
    fn nan_safe_comparison_is_a_total_order() {
        use std::cmp::Ordering;
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 2.5];
        for &a in &values {
            assert_eq!(cmp_scores_desc(a, a), Ordering::Equal, "reflexive on {a}");
            for &b in &values {
                let ab = cmp_scores_desc(a, b);
                let ba = cmp_scores_desc(b, a);
                assert_eq!(ab, ba.reverse(), "antisymmetric on ({a}, {b})");
            }
        }
        assert_eq!(
            cmp_scores_desc(f64::NAN, f64::NEG_INFINITY),
            Ordering::Greater
        );
        assert_eq!(cmp_scores_desc(1.0, f64::NAN), Ordering::Less);
    }

    #[test]
    fn register_and_halo_busting_candidates_are_not_ranked() {
        // j2d9pt has radius 2, so a 32-wide block keeps a compute region
        // only for bT ≤ 7 (the halo 4·bT must stay below 32): the other
        // nine plans do not build.
        let def = suite::j2d9pt();
        let problem = StencilProblem::new(def.clone(), &[2048, 2048], 50).unwrap();
        let space = SearchSpace::new(
            (1..=16).collect(),
            vec![vec![32]],
            vec![None],
            Precision::Single,
        );
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let result = tuner.tune(&def, &problem, &space).unwrap();
        assert_eq!(result.total_candidates, 16);
        assert_eq!(result.ranked_candidates, 7, "bT 1..=7 survive");
        assert!(result.measured.iter().all(|c| c.config.bt() <= 7));

        // star2d1r at bS = 512, bT = 30 builds (halo 60) but busts the
        // 65,536-register SM budget ((4·30+20+10)·512 registers).
        let def = suite::star2d(1);
        let problem = StencilProblem::new(def.clone(), &[2048, 2048], 50).unwrap();
        let space = SearchSpace::new(vec![1, 30], vec![vec![512]], vec![None], Precision::Single);
        let busting = BlockConfig::new(30, &[512], None, Precision::Single).unwrap();
        assert!(KernelPlan::build(&def, &problem, &busting, FrameworkScheme::an5d()).is_ok());
        let result = tuner.tune(&def, &problem, &space).unwrap();
        assert_eq!(result.total_candidates, 2);
        assert_eq!(result.ranked_candidates, 1, "bT=30 busts the SM budget");
        assert_eq!(result.best.config.bt(), 1);
    }

    #[test]
    fn tuning_a_paper_space_streams_without_materialising_candidates() {
        // The full paper(3) sweep must work through the lazy iterator and
        // produce a result whose counters are consistent with the space.
        let def = suite::star3d(1);
        let problem = StencilProblem::new(def.clone(), &[128, 128, 128], 32).unwrap();
        let space = SearchSpace::paper(3, Precision::Single);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let result = tuner.tune(&def, &problem, &space).unwrap();
        assert_eq!(result.total_candidates, 64);
        assert!(result.ranked_candidates <= 64);
        assert!(result.best.measured_gflops > 0.0);
    }

    #[test]
    fn concurrent_tuning_on_the_shared_pool_is_deterministic() {
        // Four threads tuning simultaneously (each sweep inline on its own
        // thread); every run must produce the identical result.
        let def = suite::star2d(1);
        let problem = small_problem(&def);
        let space = SearchSpace::quick(2, Precision::Single);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        let baseline = tuner.tune(&def, &problem, &space).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let result = tuner.tune(&def, &problem, &space).unwrap();
                    assert_eq!(result, baseline);
                });
            }
        });
    }

    #[test]
    fn simulated_results_are_flagged_unmeasured() {
        let def = suite::star2d(1);
        let tuner = Tuner::new(GpuDevice::tesla_v100());
        assert!(!tuner.measurement_source().is_measured());
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(!result.measured_on_backend);
    }

    #[test]
    fn backend_measurement_ranks_by_wall_clock_throughput() {
        use an5d_backend::VectorCpuBackend;
        // A problem small enough to execute for real, several times over.
        let def = suite::star2d(1);
        let problem = StencilProblem::new(def.clone(), &[48, 48], 6).unwrap();
        let space = SearchSpace::quick(2, Precision::Single);
        let source = Arc::new(BackendMeasurement::new(Arc::new(VectorCpuBackend::new(2))));
        assert!(source.is_measured());
        assert!(source.describe().contains("vector"));
        let tuner = Tuner::new(GpuDevice::tesla_v100())
            .with_top_k(2)
            .with_measurement_source(source);
        let result = tuner.tune(&def, &problem, &space).unwrap();
        assert!(result.measured_on_backend);
        assert!(result.measured.len() <= 2);
        for candidate in &result.measured {
            // Wall-clock runs have no register-cap sweep and must report
            // real, positive time and throughput.
            assert_eq!(candidate.register_cap, RegisterCap::Unlimited);
            assert!(candidate.seconds > 0.0, "wall-clock time must be > 0");
            assert!(candidate.measured_gflops > 0.0);
            assert!(candidate.measured_gcells > 0.0);
        }
        // The winner heads the best-first measured list, as in the
        // simulated flow.
        assert_eq!(result.best, result.measured[0]);
    }

    #[test]
    fn stencilgen_scheme_can_be_tuned_too() {
        let def = suite::j2d5pt();
        let tuner = Tuner::new(GpuDevice::tesla_v100())
            .with_scheme(FrameworkScheme::stencilgen())
            .with_top_k(3);
        let space = SearchSpace::quick(2, Precision::Single);
        let result = tuner.tune(&def, &small_problem(&def), &space).unwrap();
        assert!(result.best.measured_gflops > 0.0);
    }
}
