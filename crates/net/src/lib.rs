//! Event-loop primitives for the `an5d-serve` connection layer.
//!
//! The build environment has no crates.io access (no `mio`, no `libc`
//! crate), so this crate carries the two pieces of a single-threaded
//! reactor that need the OS, on `std` alone. It builds on unix only:
//!
//! * [`Poller`] — level-triggered readiness over `poll(2)` via a minimal
//!   FFI declaration (std already links libc on unix). This is the only
//!   `unsafe` in the workspace, quarantined here so `an5d-service` can
//!   keep its `#![forbid(unsafe_code)]`.
//! * [`wake()`] — a wake channel over a unix socket pair: worker threads
//!   nudge the reactor out of `poll` without signals.
//!
//! Connection deadlines are plain data and live with the reactor in
//! `an5d-service`. Design rationale (ROADMAP "event-driven connection
//! layer"): exactly like AN5D's temporal blocking holds registers only
//! while useful work happens, the reactor holds a worker thread only
//! while a *ready*, fully-parsed request needs CPU — parked idle
//! connections cost one `pollfd` entry and one deadline each, nothing
//! more.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod poll;
mod wake;

pub use poll::{Event, Interest, Poller};
pub use wake::{wake, WakeReceiver, Waker};
