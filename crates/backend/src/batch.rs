//! The batch driver: plan and execute (stencil, config) jobs, one after
//! the other on the calling thread, through any [`ExecutionBackend`].

use crate::{BackendElement, ExecutionBackend, SerialBackend};
use an5d_gpusim::TrafficCounters;
use an5d_grid::{Grid, GridInit, Precision};
use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan, PlanError};
use an5d_stencil::{StencilDef, StencilError, StencilProblem};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of batch work: a stencil, its problem extents, a blocking
/// configuration and the framework scheme to plan it under. The
/// configuration's precision selects the element type.
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
    /// Framework scheme the job is planned under.
    pub scheme: FrameworkScheme,
}

impl BatchJob {
    /// A job labelled with the stencil's suite name, planned under the
    /// AN5D scheme.
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
            scheme: FrameworkScheme::an5d(),
        }
    }

    /// Override the initial grid state.
    #[must_use]
    pub fn with_init(mut self, init: GridInit) -> Self {
        self.init = init;
        self
    }

    /// Plan under a different framework scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: FrameworkScheme) -> Self {
        self.scheme = scheme;
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

/// Plans and executes batch jobs on one [`ExecutionBackend`].
///
/// A job is a function call: [`BatchDriver::run_job`] plans and executes
/// it on the calling thread, and the only threads it may start are the
/// backend's, for the tiles of a temporal block. Everything about a job
/// that can differ between requests — the scheme included — is on the
/// [`BatchJob`]; the driver holds only the backend.
///
/// Cloning is cheap and shares the backend.
#[derive(Clone)]
pub struct BatchDriver {
    backend: Arc<dyn ExecutionBackend>,
}

impl std::fmt::Debug for BatchDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchDriver")
            .field("backend", &self.backend.describe())
            .finish()
    }
}

impl Default for BatchDriver {
    fn default() -> Self {
        Self::new(Arc::new(SerialBackend))
    }
}

impl BatchDriver {
    /// A driver executing through `backend`.
    #[must_use]
    pub fn new(backend: Arc<dyn ExecutionBackend>) -> Self {
        Self { backend }
    }

    /// The execution backend jobs run on.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn ExecutionBackend> {
        &self.backend
    }

    /// Plan and execute one job on the calling thread.
    ///
    /// # Errors
    ///
    /// Reports extents or a configuration the stencil rejects, and
    /// refuses the job when the ambient request deadline has expired.
    pub fn run_job(&self, job: &BatchJob) -> Result<BatchOutcome, BatchError> {
        let _span = an5d_obs::Span::enter("batch.run");
        // Per-job deadline checkpoint: a long batch under an expired
        // request budget stops here — jobs already completed keep their
        // results, the rest fail fast.
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
            KernelPlan::build(&job.def, &problem, &job.config, job.scheme)
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

    /// [`BatchDriver::run_job`] over every job, in input order.
    pub fn run(&self, jobs: &[BatchJob]) -> Vec<Result<BatchOutcome, BatchError>> {
        jobs.iter().map(|job| self.run_job(job)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorCpuBackend;
    use an5d_gpusim::BlockedRun;
    use an5d_stencil::suite;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

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

    /// 3 extents for a 2D stencil.
    fn rank_mismatch() -> BatchJob {
        let config = BlockConfig::new(1, &[8], None, Precision::Double).unwrap();
        BatchJob::new(suite::j2d5pt(), &[8, 8, 8], 2, config)
    }

    #[test]
    fn batch_results_preserve_input_order() {
        let driver = BatchDriver::new(Arc::new(SerialBackend));
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
        let serial = BatchDriver::new(Arc::new(SerialBackend));
        let parallel = BatchDriver::new(Arc::new(VectorCpuBackend::new(3)));
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
        all.insert(1, rank_mismatch());
        let driver = BatchDriver::default();
        let results = driver.run(&all);
        assert_eq!(results.len(), 5);
        assert!(results[1].is_err());
        assert!(results[0].is_ok() && results[2].is_ok());
        let message = results[1].as_ref().unwrap_err().to_string();
        assert!(message.contains("j2d5pt"), "{message}");
    }

    /// [`SerialBackend`], except that the request's deadline runs out
    /// while the `expire_in`-th execution is under way.
    struct ExpiringBackend {
        expire_in: AtomicUsize,
        expired: Mutex<Option<an5d_fault::DeadlineGuard>>,
    }

    impl ExpiringBackend {
        fn tick(&self) {
            if self.expire_in.fetch_sub(1, Ordering::Relaxed) == 1 {
                let guard = an5d_fault::Deadline::in_ms(0).install();
                *self.expired.lock().unwrap() = Some(guard);
            }
        }
    }

    impl ExecutionBackend for ExpiringBackend {
        fn name(&self) -> &'static str {
            "expiring"
        }
        fn execute_f32(
            &self,
            plan: &KernelPlan,
            problem: &StencilProblem,
            initial: Grid<f32>,
        ) -> BlockedRun<f32> {
            self.tick();
            SerialBackend.execute_f32(plan, problem, initial)
        }
        fn execute_f64(
            &self,
            plan: &KernelPlan,
            problem: &StencilProblem,
            initial: Grid<f64>,
        ) -> BlockedRun<f64> {
            self.tick();
            SerialBackend.execute_f64(plan, problem, initial)
        }
    }

    #[test]
    fn an_expired_deadline_refuses_every_later_job_in_input_order() {
        let mut all = jobs();
        // Fails before it reaches the backend.
        all.insert(1, rank_mismatch());
        // The budget runs out during the second execution, i.e. job 2.
        let backend = Arc::new(ExpiringBackend {
            expire_in: AtomicUsize::new(2),
            expired: Mutex::new(None),
        });
        let results = BatchDriver::new(Arc::clone(&backend) as _).run(&all);
        drop(backend.expired.lock().unwrap().take());

        let unhurried = BatchDriver::default().run(&all);
        assert_eq!(results.len(), 5);
        // Jobs up to the one the deadline caught mid-run keep their results…
        for k in [0, 2] {
            let (hurried, calm) = (results[k].as_ref().unwrap(), unhurried[k].as_ref().unwrap());
            assert_eq!(
                (&hurried.name, hurried.checksum),
                (&calm.name, calm.checksum)
            );
        }
        assert!(matches!(&results[1], Err(e) if matches!(e.error, BatchFailure::Problem(_))));
        // …every later one is refused, under its own name.
        for (job, result) in all.iter().zip(&results).skip(3) {
            let e = result.as_ref().unwrap_err();
            assert_eq!(
                (&e.name, &e.error),
                (&job.name, &BatchFailure::DeadlineExceeded)
            );
        }
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
