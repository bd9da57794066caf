//! Functional and analytical GPU execution model — the evaluation substrate
//! of the AN5D reproduction.
//!
//! The original paper evaluates generated CUDA on NVIDIA Tesla P100/V100
//! GPUs. The reproduction runs without a GPU, so this crate substitutes a
//! two-level execution model for them:
//!
//! 1. **Functional execution** ([`exec`]): the N.5D-blocked schedule is run
//!    thread-block by thread-block on the CPU, with the same overlapped
//!    halos, shrinking valid regions, stream-block overlap and remainder
//!    handling as the generated kernel — so its numerical output can be
//!    compared bit-for-bit against the naive reference, and global/shared
//!    traffic and redundant work are *counted* rather than estimated.
//! 2. **Analytical timing** (`timing`): counted (or analytically derived)
//!    work is converted to a simulated run time using the device data of
//!    Table 4 plus the efficiency derates the paper itself reports
//!    (shared-memory efficiency, double-precision-division slow-down,
//!    occupancy limits, register-spill penalty).
//!
//! The paper's own Section 5 model lives in the separate `an5d-model`
//! crate; keeping "simulated measurement" and "model prediction" apart is
//! what lets the harness reproduce the paper's model-accuracy analysis
//! (Section 7.2).

// One `unsafe` block, allowed where it stands: the call of the AVX2 row
// kernel after run-time detection (`exec::RowKernel::eval_into`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod device;
pub mod exec;
mod occupancy;
mod profile;
mod registry;
pub(crate) mod timing;

pub use counters::TrafficCounters;
pub use device::GpuDevice;
pub use exec::{
    execute_plan, execute_plan_on, execute_plan_with, row_kernel_isa, temporal_chunks, BlockedRun,
    TileContext, TileRun, TileSpec,
};
pub use occupancy::Occupancy;
pub use profile::WorkloadProfile;
pub use registry::{standard_registry, DeviceId, DeviceRegistry};
pub use timing::{simulate, wave_efficiency, Bottleneck, InfeasibleConfig, SimulatedTime};
