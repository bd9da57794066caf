//! AN5D: automated stencil framework for high-degree temporal blocking —
//! a Rust reproduction of the CGO 2020 paper by Matsumura, Zohouri, Wahib,
//! Endo and Matsuoka.
//!
//! This crate is the user-facing facade: it re-exports the building blocks
//! (grids, stencil definitions, blocking plans, the GPU execution model,
//! the performance model, the tuner, the CUDA code generator and the
//! baselines) and offers the [`An5d`] pipeline type that strings them
//! together the way the original tool does:
//!
//! ```text
//!   C source ──detect──▶ StencilDef ──plan──▶ KernelPlan ──▶ CUDA code
//!                                        │                  (codegen)
//!                                        ├──▶ blocked execution + counters
//!                                        │    (gpusim, bit-checked vs naive)
//!                                        ├──▶ Section 5 model prediction
//!                                        └──▶ simulated measurement / tuning
//! ```
//!
//! # Quick start
//!
//! ```
//! use an5d::{An5d, BlockConfig, GpuDevice, Precision};
//!
//! // Fig. 4 of the paper: a 5-point Jacobi stencil in plain C.
//! let source = r#"
//! for (t = 0; t < I_T; t++)
//!   for (i = 1; i <= I_S2; i++)
//!     for (j = 1; j <= I_S1; j++)
//!       A[(t+1)%2][i][j] = (5.1f * A[t%2][i-1][j] + 12.1f * A[t%2][i][j-1]
//!         + 15.0f * A[t%2][i][j] + 12.2f * A[t%2][i][j+1]
//!         + 5.2f * A[t%2][i+1][j]) / 118;
//! "#;
//!
//! let an5d = An5d::from_c_source(source, "j2d5pt")?;
//! let problem = an5d.problem(&[256, 256], 20)?;
//! let config = BlockConfig::new(4, &[128], Some(128), Precision::Single)?;
//!
//! // Verify the blocked schedule against the naive reference…
//! let report = an5d.verify(&problem, &config)?;
//! assert!(report.matches_reference);
//!
//! // …and generate the CUDA code the original framework would emit.
//! let cuda = an5d.generate_cuda(&problem, &config)?;
//! assert!(cuda.kernel_source.contains("__global__"));
//! # Ok::<(), an5d::An5dError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod pipeline;

pub use error::An5dError;
pub use pipeline::{An5d, DbTuneOutcome, VerificationReport};

// Re-exports: the complete toolkit, grouped by layer.
pub use an5d_grid::{
    default_tolerance, DoubleBuffer, Element, Grid, GridDiff, GridInit, Precision,
};

pub use an5d_expr::{
    BinOp, Expr, FlopCount, LinearForm, Node, Offset, OpMix, ShapeInfo, StencilShapeClass, UnOp,
};

pub use an5d_stencil::{exec as reference, suite, StencilDef, StencilError, StencilProblem};

pub use an5d_frontend::{emit_c_source, parse_stencil, DetectedStencil, FrontendError};

pub use an5d_plan::{
    expected_shared_reads, practical_shared_reads, BlockConfig, BlockGeometry, FrameworkScheme,
    KernelPlan, KernelSchedule, OptimizationClass, PlanError, RegisterCap, ResourceUsage,
};

pub use an5d_gpusim::{
    execute_plan, execute_plan_on, simulate, standard_registry, temporal_chunks, BlockedRun,
    Bottleneck, DeviceId, DeviceRegistry, GpuDevice, InfeasibleConfig, Occupancy, SimulatedTime,
    TileContext, TileRun, TileSpec, TrafficCounters, WorkloadProfile,
};

pub use an5d_backend::{
    available_backends, create_backend, BackendElement, BatchDriver, BatchError, BatchFailure,
    BatchJob, BatchOutcome, CacheStats, ExecutionBackend, PlanCache, SerialBackend,
    VectorCpuBackend, BACKEND_ENV,
};

pub use an5d_runtime::{global as global_pool, PoolStats, ScopedPool};

/// Observability primitives (histograms, spans, trace ring) re-exported
/// for facade users; see the `an5d-obs` crate docs.
pub use an5d_obs as obs;

pub use an5d_model::{
    analytic_counters, measure, measure_best_cap, predict, thread_classes, Measurement,
    ModelPrediction, ThreadClasses,
};

pub use an5d_tuner::{
    problem_fingerprint, stencil_fingerprint, SearchSpace, TunedCandidate, Tuner, TunerError,
    TuningResult,
};

pub use an5d_tunedb::{Record as TuneRecord, TuneDb, TuneDbStats, TuneKey, TUNE_DB_ENV};

pub use an5d_codegen::{generate as generate_cuda_for_plan, kernel_name_for, CudaCode};

pub use an5d_baselines::{
    hybrid_measurement, loop_tiling_measurement, stencilgen_measurement, BaselineResult,
};
