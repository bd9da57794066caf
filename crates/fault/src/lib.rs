//! Deterministic fault injection and per-request deadlines.
//!
//! The crate is std-only and dependency-free so every layer of the
//! stack (tunedb appends, the reactor's socket I/O, the tuner's sweep
//! loop) can consult it without widening the build graph. Two building
//! blocks live here:
//!
//! * [`FaultPlan`] — a seeded, process-wide table of named injection
//!   points. Code under test calls [`point`] with a registered name
//!   such as `"tunedb.append"`; when a plan is installed and the
//!   rule for that point triggers, the call yields a [`FaultAction`]
//!   (an injected error, a delay, or a short read/write). Triggers are
//!   either counter-based (`every:N`) or drawn from a seeded splitmix64
//!   stream (`1/N`), so the fault sequence for a given seed and call
//!   sequence is fully deterministic — the chaos soak runs the same
//!   faults on every run with the same seed. When no plan is installed
//!   every probe is a single relaxed atomic load.
//! * [`Deadline`] — a wall-clock budget threaded through a request.
//!   Parsed from the `x-an5d-deadline-ms` header at the HTTP layer,
//!   installed on the worker thread ([`Deadline::install`], mirroring
//!   `TraceContext`), captured into worker-pool batches, and
//!   checkpointed between tuner candidates so a long sweep aborts
//!   cleanly instead of running past the client's patience.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadline;
mod plan;

pub use deadline::{current_deadline, deadline_expired, Deadline, DeadlineGuard};
pub use plan::{
    fired, injected, install, installed, journal, point, uninstall, FaultAction, FaultPlan,
    FiredFault, FAULTS_ENV,
};
