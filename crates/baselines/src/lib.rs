//! Baseline stencil execution schemes the AN5D paper compares against
//! (Fig. 6 and Fig. 7):
//!
//! * **Loop tiling** — PPCG's default spatial-only tiling: every time-step
//!   round-trips through global memory ([`loop_tiling_measurement`]);
//! * **Hybrid tiling** — hexagonal tiling over time plus one spatial
//!   dimension combined with classical wavefront tiling over the rest; it
//!   avoids redundant computation but blocks *all* spatial dimensions (no
//!   streaming), which limits its block sizes ([`hybrid_measurement`]);
//! * **STENCILGEN** — N.5D blocking with shifting register allocation and
//!   one shared-memory buffer per combined time-step ([`stencilgen_measurement`]).
//!
//! Because the original binaries/kernels cannot be run in this
//! environment, each baseline is expressed as an analytic workload profile
//! (traffic, compute, occupancy) priced by the same `an5d-gpusim` timing
//! layer the AN5D measurements use, so the relative positions in Fig. 6
//! come from the schemes' actual resource behaviour rather than hard-coded
//! numbers. The STENCILGEN baseline plans with the real planner under
//! `FrameworkScheme::stencilgen()` (shifting registers, one buffer per
//! time-step) at the paper's `Sconf`, so its resource usage is the one
//! Table 1 and Fig. 7 report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hybrid;
mod loop_tiling;
mod stencilgen;

use serde::Serialize;

/// A simulated baseline measurement (one bar of Fig. 6).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BaselineResult {
    /// Framework name as it appears in the paper's legend.
    pub framework: String,
    /// Simulated run time in seconds.
    pub seconds: f64,
    /// Throughput in GFLOP/s.
    pub gflops: f64,
    /// Throughput in GCell/s.
    pub gcells: f64,
}

pub use hybrid::hybrid_measurement;
pub use loop_tiling::loop_tiling_measurement;
pub use stencilgen::stencilgen_measurement;
