//! The batch driver: fan a suite of (stencil, config) jobs across a
//! bounded number of threads, executing through any [`ExecutionBackend`].

use crate::{BackendElement, ExecutionBackend, SerialBackend};
use an5d_gpusim::TrafficCounters;
use an5d_grid::{Grid, GridInit, Precision};
use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan, PlanError};
use an5d_stencil::{StencilDef, StencilError, StencilProblem};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of batch work: a stencil, its problem extents and a blocking
/// configuration. The configuration's precision selects the element type.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// Label reported back in the [`BatchOutcome`].
    pub name: String,
    /// The stencil to execute.
    pub def: StencilDef,
    /// Interior extents of the problem grid.
    pub interior: Vec<usize>,
    /// Number of time-steps.
    pub time_steps: usize,
    /// Blocking configuration (its precision picks `f32` vs `f64`).
    pub config: BlockConfig,
    /// Deterministic initial state.
    pub init: GridInit,
}

impl BatchJob {
    /// A job labelled with the stencil's suite name.
    #[must_use]
    pub fn new(
        def: StencilDef,
        interior: &[usize],
        time_steps: usize,
        config: BlockConfig,
    ) -> Self {
        Self {
            name: def.name().to_string(),
            def,
            interior: interior.to_vec(),
            time_steps,
            config,
            init: GridInit::Hash { seed: 0x5EED },
        }
    }

    /// Override the initial grid state.
    #[must_use]
    pub fn with_init(mut self, init: GridInit) -> Self {
        self.init = init;
        self
    }
}

/// The result of one successfully executed batch job.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Job label (the stencil name unless overridden).
    pub name: String,
    /// Work/traffic counters of the run.
    pub counters: TrafficCounters,
    /// Sum of every cell of the final grid (an order-independent digest
    /// for cross-backend comparisons).
    pub checksum: f64,
    /// Wall-clock time of planning + execution for this job.
    pub elapsed: Duration,
}

/// Why a batch job could not run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchError {
    /// Job label.
    pub name: String,
    /// The underlying failure.
    pub error: BatchFailure,
}

/// The failure behind a [`BatchError`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchFailure {
    /// The problem extents were invalid for the stencil.
    Problem(StencilError),
    /// The blocking configuration was invalid for the stencil/problem.
    Plan(PlanError),
    /// The ambient request deadline (see [`an5d_fault::Deadline`]) had
    /// already expired when the job was claimed, so it was never run.
    DeadlineExceeded,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.error {
            BatchFailure::Problem(e) => write!(f, "{}: invalid problem: {e}", self.name),
            BatchFailure::Plan(e) => write!(f, "{}: invalid plan: {e}", self.name),
            BatchFailure::DeadlineExceeded => {
                write!(f, "{}: deadline exceeded before the job ran", self.name)
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Fans batch jobs across the process-wide pool
/// ([`an5d_runtime::global`]), bounded by a per-driver concurrency cap.
///
/// Jobs are claimed one at a time by the caller and its scoped helpers,
/// planned and executed on the configured [`ExecutionBackend`] (whose own
/// tile fan-out draws on the same helper budget); results are
/// returned **in input order** regardless of completion order, so batch
/// output is deterministic.
///
/// Cloning is cheap and shares the backend, so a streamed `/batch` body
/// can own a driver.
#[derive(Clone)]
pub struct BatchDriver {
    backend: Arc<dyn ExecutionBackend>,
    scheme: FrameworkScheme,
    workers: usize,
}

impl std::fmt::Debug for BatchDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchDriver")
            .field("backend", &self.backend.describe())
            .field("workers", &self.workers)
            .finish()
    }
}

impl Default for BatchDriver {
    fn default() -> Self {
        Self::new(Arc::new(SerialBackend))
    }
}

impl BatchDriver {
    /// A driver executing through `backend` with a concurrency cap of
    /// one thread per available CPU.
    #[must_use]
    pub fn new(backend: Arc<dyn ExecutionBackend>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            backend,
            scheme: FrameworkScheme::an5d(),
            workers,
        }
    }

    /// Bound the threads running jobs at once, the caller included
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Plan under a different framework scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: FrameworkScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// The execution backend jobs run on.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn ExecutionBackend> {
        &self.backend
    }

    fn run_job(&self, job: &BatchJob) -> Result<BatchOutcome, BatchError> {
        // Per-item deadline checkpoint: a long batch under an expired
        // request budget stops claiming work here — items already
        // completed keep their results, unclaimed ones fail fast.
        if an5d_fault::deadline_expired() {
            return Err(BatchError {
                name: job.name.clone(),
                error: BatchFailure::DeadlineExceeded,
            });
        }
        let started = Instant::now();
        let problem =
            StencilProblem::new(job.def.clone(), &job.interior, job.time_steps).map_err(|e| {
                BatchError {
                    name: job.name.clone(),
                    error: BatchFailure::Problem(e),
                }
            })?;
        let plan = {
            let _span = an5d_obs::Span::enter("plan.build");
            KernelPlan::build(&job.def, &problem, &job.config, self.scheme)
        }
        .map_err(|e| BatchError {
            name: job.name.clone(),
            error: BatchFailure::Plan(e),
        })?;

        let (counters, checksum) = match job.config.precision() {
            Precision::Single => {
                let initial = Grid::<f32>::from_init(&problem.grid_shape(), job.init);
                let run = f32::execute_on(self.backend.as_ref(), &plan, &problem, initial);
                let checksum: f64 = run.grid.as_slice().iter().map(|&v| f64::from(v)).sum();
                (run.counters, checksum)
            }
            Precision::Double => {
                let initial = Grid::<f64>::from_init(&problem.grid_shape(), job.init);
                let run = f64::execute_on(self.backend.as_ref(), &plan, &problem, initial);
                let checksum: f64 = run.grid.as_slice().iter().sum();
                (run.counters, checksum)
            }
        };
        Ok(BatchOutcome {
            name: job.name.clone(),
            counters,
            checksum,
            elapsed: started.elapsed(),
        })
    }

    /// Run every job, returning per-job results in input order.
    ///
    /// # Panics
    ///
    /// Panics if a job panics (propagating the original panic).
    pub fn run(&self, jobs: &[BatchJob]) -> Vec<Result<BatchOutcome, BatchError>> {
        let _span = an5d_obs::Span::enter("batch.run");
        an5d_runtime::global()
            .map_indexed_limited(self.workers, jobs.len(), |index| self.run_job(&jobs[index]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorCpuBackend;
    use an5d_stencil::suite;

    fn jobs() -> Vec<BatchJob> {
        let config2d = |bt: usize| BlockConfig::new(bt, &[12], None, Precision::Double).unwrap();
        vec![
            BatchJob::new(suite::j2d5pt(), &[20, 20], 4, config2d(2)),
            BatchJob::new(suite::star2d(1), &[18, 22], 5, config2d(1)),
            BatchJob::new(suite::box2d(1), &[16, 16], 3, config2d(2)),
            // Repeat of the first job.
            BatchJob::new(suite::j2d5pt(), &[20, 20], 4, config2d(2)),
        ]
    }

    #[test]
    fn batch_results_preserve_input_order() {
        let driver = BatchDriver::new(Arc::new(SerialBackend)).with_workers(3);
        let results = driver.run(&jobs());
        assert_eq!(results.len(), 4);
        let outcomes: Vec<&BatchOutcome> = results
            .iter()
            .map(|r| r.as_ref().expect("job runs"))
            .collect();
        assert_eq!(outcomes[0].name, "j2d5pt");
        assert_eq!(outcomes[1].name, "star2d1r");
        assert_eq!(outcomes[2].name, "box2d1r");
        // Identical duplicate job: identical counters and checksum.
        assert_eq!(outcomes[0].counters, outcomes[3].counters);
        assert_eq!(outcomes[0].checksum, outcomes[3].checksum);
    }

    #[test]
    fn serial_and_parallel_backends_agree_on_batch_checksums() {
        let serial = BatchDriver::new(Arc::new(SerialBackend)).with_workers(1);
        let parallel = BatchDriver::new(Arc::new(VectorCpuBackend::new(3))).with_workers(2);
        let a = serial.run(&jobs());
        let b = parallel.run(&jobs());
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.checksum, y.checksum, "{}", x.name);
            assert_eq!(x.counters, y.counters, "{}", x.name);
        }
    }

    #[test]
    fn invalid_jobs_report_errors_without_aborting_the_batch() {
        let mut all = jobs();
        // Rank mismatch: 3 extents for a 2D stencil.
        all.insert(
            1,
            BatchJob::new(
                suite::j2d5pt(),
                &[8, 8, 8],
                2,
                BlockConfig::new(1, &[8], None, Precision::Double).unwrap(),
            ),
        );
        let driver = BatchDriver::default().with_workers(2);
        let results = driver.run(&all);
        assert_eq!(results.len(), 5);
        assert!(results[1].is_err());
        assert!(results[0].is_ok() && results[2].is_ok());
        let message = results[1].as_ref().unwrap_err().to_string();
        assert!(message.contains("j2d5pt"), "{message}");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        assert!(BatchDriver::default().run(&[]).is_empty());
    }

    #[test]
    fn single_precision_jobs_run_too() {
        let config = BlockConfig::new(2, &[12], None, Precision::Single).unwrap();
        let job = BatchJob::new(suite::j2d5pt(), &[16, 16], 3, config);
        let results = BatchDriver::default().run(&[job]);
        let outcome = results[0].as_ref().unwrap();
        assert!(outcome.counters.cell_updates > 0);
        assert!(outcome.checksum.is_finite());
    }
}
