//! N.5D blocking plans, kernel schedules and resource analysis for AN5D.
//!
//! This crate implements the planning half of the AN5D framework
//! (Sections 4.1 and 4.2 of the CGO 2020 paper): given a stencil definition
//! and a blocking configuration `(bT, bS_i, hS_N)` it derives
//!
//! * the execution geometry — thread-block size `nthr`, compute region,
//!   halo widths and **the tile decomposition**: [`BlockGeometry`] carries
//!   one [`DimTiling`] per dimension (streaming dimension first), whose
//!   [`DimTiling::tiles`] are the [`DimTile`]s — what each writes back,
//!   loads and updates — that the executor runs and the performance model
//!   sums over. This crate is the only place that cuts a dimension into
//!   tiles; the thread-block counts `ntb` / `n'tb` are the lengths of those
//!   lists, and a plan remembers which extents it was tiled for
//!   ([`KernelPlan::assert_tiled_for`]). The geometry is two halves: the
//!   [`BlockedGeometry`] of `(bT, bS)`, which decides validity, and the
//!   streaming tiling of `(bT, hS_N)`, so a sweep can derive each once;
//! * the on-chip resource usage — registers per thread (fixed vs shifting
//!   allocation, Section 4.2.1 / Fig. 3), shared-memory footprint
//!   (double buffering vs one buffer per combined time-step, Section 4.2.2 /
//!   Table 1), shared-memory stores per cell, and a register-spill estimate
//!   used when a `-maxrregcount` cap is applied (Section 6.3);
//! * the kernel schedule — the head / inner / tail macro sequence of Fig. 5
//!   that the code generator prints and whose structure the tests check.
//!
//! A [`FrameworkScheme`] is one of the paper's three — AN5D, AN5D without
//! the associative optimisation (`Sconf`), and the STENCILGEN-style scheme
//! — and answers Table 1's questions itself: whether it shifts registers,
//! how many shared buffers `bT` time-steps take, and which
//! [`OptimizationClass`] a stencil falls in. [`ResourceUsage::compute`]
//! reads those answers, so the Table 1 / Fig. 7 comparisons run both
//! frameworks through the same formulas.
//!
//! # Example
//!
//! ```
//! use an5d_plan::{BlockConfig, FrameworkScheme, KernelPlan};
//! use an5d_stencil::{suite, StencilProblem};
//! use an5d_grid::Precision;
//!
//! let def = suite::j2d5pt();
//! let problem = StencilProblem::new(def.clone(), &[512, 512], 100).unwrap();
//! let config = BlockConfig::new(4, &[256], Some(256), Precision::Single).unwrap();
//! let plan = KernelPlan::build(&def, &problem, &config, FrameworkScheme::an5d()).unwrap();
//!
//! assert_eq!(plan.resources().shared_buffers, 2);          // double buffering
//! assert_eq!(plan.resources().shared_stores_per_cell, 1);  // star stencil
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod plan;
mod resources;
mod schedule;
mod scheme;
mod tiling;

pub use config::{BlockConfig, BlockGeometry, BlockedGeometry, PlanError, MAX_BLOCKED_DIMS};
pub use plan::KernelPlan;
pub use resources::{expected_shared_reads, practical_shared_reads, RegisterCap, ResourceUsage};
pub use schedule::{KernelSchedule, MacroOp, Phase, RegSlot, RegWindow};
pub use scheme::{FrameworkScheme, OptimizationClass};
pub use tiling::{DimTile, DimTiling};

/// A tuning candidate is a stack value: a configuration and everything a
/// plan derives from it but the shared definition own no heap memory.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<BlockConfig>();
    copy::<BlockGeometry>();
    copy::<BlockedGeometry>();
    copy::<ResourceUsage>();
    copy::<KernelSchedule>();
    assert!(!std::mem::needs_drop::<BlockConfig>());
    assert!(!std::mem::needs_drop::<BlockGeometry>());
    assert!(!std::mem::needs_drop::<BlockedGeometry>());
    assert!(!std::mem::needs_drop::<ResourceUsage>());
    assert!(!std::mem::needs_drop::<KernelSchedule>());
};
