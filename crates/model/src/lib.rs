//! The Section 5 performance model of the AN5D paper.
//!
//! The model predicts kernel run time from first principles:
//!
//! 1. classify the launched threads (out-of-bound / boundary / redundant /
//!    valid) and derive the global-memory, shared-memory and compute work
//!    they perform ([`analytic_counters`]);
//! 2. price that work against the device's peak compute throughput
//!    (adjusted by the ALU-mix efficiency `effALU`) and its *measured*
//!    global/shared-memory bandwidths (Table 4);
//! 3. apply the SM-utilisation efficiency `effSM` and take the maximum of
//!    the three bottleneck times ([`predict`](fn@predict)).
//!
//! Steps 1–3 read nothing of a plan but its per-dimension tile sums and a
//! few scalars ([`PlanSums`]), and one function prices those ([`price`]):
//! [`predict()`] feeds it a built plan's, the tuner's sweep sums it put
//! together per axis without building a plan.
//!
//! The same traffic analysis also feeds the *simulated measurement* path
//! ([`measure`](fn@measure)), which additionally applies the efficiency derates the
//! paper only discovered empirically (shared-memory efficiency of the
//! device, double-precision-division slow-down, occupancy and spill
//! effects). Keeping the two paths separate is what lets the harness
//! reproduce the paper's model-accuracy numbers (Section 7.2) rather than
//! trivially comparing a model against itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod predict;
mod traffic;

pub use measure::{measure, measure_best_cap, Measurement};
pub use predict::{predict, price, ModelPrediction};
pub use traffic::{
    analytic_counters, thread_classes, PlanSums, StencilCost, ThreadClasses, TileSums,
};
