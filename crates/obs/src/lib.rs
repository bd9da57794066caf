//! Observability primitives shared by every layer of the AN5D stack.
//!
//! The crate is std-only and dependency-free so that leaf crates
//! (`an5d-runtime`, `an5d-backend`, `an5d-tunedb`, …) can depend on it
//! without widening the build graph. Four building blocks live here:
//!
//! * [`Registry`] — a typed metrics registry (family = name + help +
//!   counter|gauge|histogram; series = label set → a [`Counter`] or
//!   [`Gauge`] cell, a shared [`Histogram`], or a closure sampled at
//!   scrape). A series is registered once, where it is recorded, and
//!   every exposition format is a view over [`Registry::snapshot`].
//! * [`Histogram`] — a lock-free log-linear (HDR-style) latency histogram.
//!   Recording is a single relaxed atomic increment; [`HistogramSnapshot`]s
//!   are mergeable and answer nearest-rank quantile queries (p50/p95/p99/
//!   p999) with a bounded relative error of 1/32 (~3.1%).
//! * [`Span`] / [`ActiveTrace`] — a cooperative tracing API. A service
//!   request begins an [`ActiveTrace`]; instrumented stages then call
//!   [`Span::enter`], which is a no-op unless a trace is active on the
//!   current thread. [`TraceContext`] carries the active trace across
//!   worker-pool threads so fan-out work nests under the submitting span.
//! * [`TraceRing`] — a bounded FIFO ring of recently completed traces,
//!   queryable by trace ID (backs the service's `GET /trace` endpoint).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod registry;
mod ring;
mod trace;

pub use histogram::{Histogram, HistogramSnapshot, RELATIVE_ERROR_DENOM};
pub use registry::{
    Counter, FamilySnapshot, Gauge, Kind, Labels, Registry, Sample, SeriesSnapshot,
};
pub use ring::TraceRing;
pub use trace::{
    current_context, ActiveTrace, ContextGuard, FinishedTrace, Span, SpanRecord, TraceContext,
    TraceId, MAX_SPANS_PER_TRACE,
};
