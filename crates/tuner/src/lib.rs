//! Model-guided parameter tuning for AN5D blocking configurations
//! (Section 6.3 of the paper).
//!
//! The tuner walks the paper's parameter space (`bT`, `bS_i`, `hS_N`)
//! without building a plan per candidate. A candidate is *valid* when its
//! `(bT, bS)` pair has a blocked geometry (no [`an5d_plan::PlanError`]:
//! the blocked rank matches and the halo leaves a compute region) and the
//! pair's register estimate passes the hardware limits; nothing else
//! decides validity, and a [`an5d_plan::KernelPlan`] builds exactly for
//! the valid ones. It ranks the valid candidates with the Section 5
//! performance model, priced from per-dimension tile sums taken once per
//! pair of axis values, builds plans for the top-k, "runs" them and
//! returns the configuration with the best measured performance — exactly
//! the Tuned flow of the paper. A run is the `gpusim` simulation of the
//! target GPU under every `-maxrregcount` cap of the paper
//! ([`an5d_model::measure_best_cap`]), so [`TunedCandidate::model_accuracy`]
//! compares two descriptions of the same device.
//!
//! # Example
//!
//! ```
//! use an5d_tuner::{SearchSpace, Tuner};
//! use an5d_stencil::{suite, StencilProblem};
//! use an5d_gpusim::standard_registry;
//! use an5d_grid::Precision;
//!
//! let def = suite::j2d5pt();
//! let problem = StencilProblem::new(def.clone(), &[2048, 2048], 100).unwrap();
//! let device = standard_registry().profile("v100").unwrap();
//! let tuner = Tuner::new(device);
//! let space = SearchSpace::paper(def.ndim(), Precision::Single);
//! let result = tuner.tune(&def, &problem, &space).unwrap();
//! assert!(result.best.measured_gflops > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
mod space;
mod tuner;

pub use fingerprint::{fnv1a64, problem_fingerprint, stencil_fingerprint};
pub use space::SearchSpace;
pub use tuner::{TunedCandidate, Tuner, TunerError, TuningResult};
