//! Pluggable execution backends for the AN5D reproduction.
//!
//! The functional executor in `an5d-gpusim` defines *what* a blocked run
//! computes; this crate decides *how* that work is scheduled onto the host
//! machine. It is the horizontal-scaling seam of the system: everything
//! above it (the `an5d` facade pipeline, the tuner, the `an5d-bench`
//! experiment harnesses) asks for an [`ExecutionBackend`] by name instead
//! of hard-wiring a call into the executor, so suites of experiments can
//! switch execution strategies — or adopt future GPU/FFI backends — with
//! no code changes.
//!
//! Three building blocks:
//!
//! * [`ExecutionBackend`] implementations. There is one executor — the
//!   row-kernel tile executor of `an5d-gpusim` (the stencil expression
//!   compiled into a fused-operand tape evaluated over contiguous
//!   stride-1 row slices, the shape the compiler autovectorizes) under
//!   one temporal-block driver — and the only choice is how many threads run
//!   tiles at once: [`VectorCpuBackend`] fans the independent spatial
//!   tiles of each temporal block out over the scoped helper threads of
//!   `an5d-runtime` with a concurrency cap of N, and
//!   [`SerialBackend`] is the same backend with a cap of one (every tile
//!   inline on the caller). Because each tile reads only the immutable
//!   input grid, writes a disjoint region of the output grid, and
//!   computes every cell through the scalar operation sequence of the
//!   naive reference sweep, every thread count produces **bit-identical**
//!   grids (for `f32` and `f64` alike) and identical counter totals;
//! * [`BatchDriver`] — builds a job's plan under the job's scheme and
//!   executes it through any [`ExecutionBackend`], on the calling thread;
//!   a suite of jobs is a loop over them. The tiles of a launch are the
//!   only thing that fans out;
//! * [`PlanCache`] — a plain `Mutex`-guarded LRU over built plans, keyed
//!   by (stencil name, problem extents, [`BlockConfig`],
//!   [`FrameworkScheme`]). A plan costs microseconds to build, so nothing
//!   in the library plans through it; `an5d-serve` keeps one behind
//!   `/plan`, `/predict` and `/codegen`.
//!
//! # Backend selection
//!
//! Backends are registered by name (see [`create_backend`] /
//! [`available_backends`]). The library reads no environment: the
//! binaries that honour `AN5D_BACKEND` ([`BACKEND_ENV`]) resolve the spec
//! in their `main` and pass the backend down.
//!
//! ```text
//! serial        # tiles inline on the caller (what `An5d` defaults to)
//! vector        # tiles on up to one thread per CPU
//! vector:8      # tiles on at most 8 threads
//! ```
//!
//! `vector:N` is a cap, not a count: at most N threads run tiles, the
//! caller included, and never more helpers than CPUs process-wide.
//!
//! # Example
//!
//! ```
//! use an5d_backend::{BackendElement, ExecutionBackend, SerialBackend, VectorCpuBackend};
//! use an5d_grid::{Grid, GridInit, Precision};
//! use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan};
//! use an5d_stencil::{suite, StencilProblem};
//!
//! let def = suite::j2d5pt();
//! let problem = StencilProblem::new(def.clone(), &[24, 24], 5).unwrap();
//! let config = BlockConfig::new(2, &[12], None, Precision::Double).unwrap();
//! let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
//! let initial = Grid::<f64>::from_init(&problem.grid_shape(), GridInit::Hash { seed: 1 });
//!
//! let serial = SerialBackend.execute_f64(&plan, &problem, initial.clone());
//! let pooled = VectorCpuBackend::new(4).execute_f64(&plan, &problem, initial);
//! assert_eq!(serial.grid, pooled.grid);          // bit-identical
//! assert_eq!(serial.counters, pooled.counters);  // deterministic counters
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod batch;
mod cache;
mod registry;

pub use backend::{BackendElement, ExecutionBackend, SerialBackend, VectorCpuBackend};
pub use batch::{BatchDriver, BatchError, BatchFailure, BatchJob, BatchOutcome};
pub use cache::{CacheStats, PlanCache};
pub use registry::{available_backends, create_backend, BACKEND_ENV};

// Re-exported so backend users can name the key/config types without an
// extra dependency edge.
pub use an5d_gpusim::{BlockedRun, TrafficCounters};
pub use an5d_plan::{BlockConfig, FrameworkScheme};
