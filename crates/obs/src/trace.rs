//! Request traces with nested, cross-thread spans.
//!
//! A trace is begun by the component that owns a request (the service's
//! `dispatch`) via [`ActiveTrace::begin`]; it installs itself in a
//! thread-local slot so any code on the same thread can open a nested
//! [`Span`] without plumbing a handle through every signature. When no
//! trace is active, `Span::enter` is a no-op costing one TLS read, so
//! leaf crates can instrument unconditionally.
//!
//! Fan-out work (e.g. the backend's tile fan-out) captures
//! the submitting thread's [`TraceContext`] and installs it on the helper
//! via [`TraceContext::install`]; spans opened there attach under the
//! submitting span, so a trace tree can cross threads.
//!
//! All clocks are monotonic ([`Instant`]); span offsets and durations are
//! microseconds relative to the trace start.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Hard cap on recorded spans per trace; later spans are counted as
/// dropped instead of growing the buffer without bound.
pub(crate) const MAX_SPANS_PER_TRACE: usize = 512;

/// A per-process-unique request/trace identifier, rendered as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Allocate the next process-unique ID.
    ///
    /// IDs mix a per-process nonce (PID xor wall-clock nanoseconds at
    /// first use) with a monotone counter through an odd multiplier, so
    /// they are unique within a process and unlikely to collide across
    /// processes.
    #[must_use]
    pub fn next() -> Self {
        static NONCE: OnceLock<u64> = OnceLock::new();
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let nonce = *NONCE.get_or_init(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
                .unwrap_or(0);
            nanos ^ (u64::from(std::process::id()) << 32)
        });
        let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
        Self(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ nonce)
    }

    /// Parse a 16-hex-digit ID as rendered by [`fmt::Display`].
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        u64::from_str_radix(text.trim(), 16).ok().map(Self)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One completed (or still-open) span inside a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name, e.g. `"plan.build"`.
    pub name: &'static str,
    /// Index of the parent span in the trace's span list, if nested.
    pub parent: Option<u32>,
    /// Start offset from the trace start, microseconds.
    pub start_us: u64,
    /// Span duration, microseconds (filled when the span closes).
    pub dur_us: u64,
}

#[derive(Debug)]
struct TraceInner {
    id: TraceId,
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

impl TraceInner {
    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its index unless the trace is full.
    fn open(&self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() >= MAX_SPANS_PER_TRACE {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let index = u32::try_from(spans.len()).ok()?;
        // `u64::MAX` marks a still-open span; `close` (or `finish`, for
        // spans a panic unwound past) replaces it with the real duration.
        spans.push(SpanRecord {
            name,
            parent,
            start_us: self.elapsed_us(),
            dur_us: u64::MAX,
        });
        Some(index)
    }

    fn close(&self, index: u32) {
        let now = self.elapsed_us();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = spans.get_mut(index as usize) {
            span.dur_us = now.saturating_sub(span.start_us);
        }
    }
}

thread_local! {
    /// The trace active on this thread plus the currently open span index.
    static CURRENT: RefCell<Option<(Arc<TraceInner>, Option<u32>)>> = const { RefCell::new(None) };
}

/// A snapshot of the active trace that can be shipped to another thread.
///
/// Captured with [`current_context`] at fan-out submission time and
/// re-installed on the worker with [`TraceContext::install`].
#[derive(Debug, Clone)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
    parent: Option<u32>,
}

impl TraceContext {
    /// Install this context on the current thread until the guard drops.
    #[must_use]
    pub fn install(&self) -> ContextGuard {
        let previous = CURRENT.with(|c| c.replace(Some((Arc::clone(&self.inner), self.parent))));
        ContextGuard { previous }
    }
}

/// Capture the trace active on this thread, if any.
#[must_use]
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|(inner, parent)| TraceContext {
            inner: Arc::clone(inner),
            parent: *parent,
        })
    })
}

/// Restores the previously active trace context when dropped.
#[derive(Debug)]
pub struct ContextGuard {
    previous: Option<(Arc<TraceInner>, Option<u32>)>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

/// An in-progress trace, installed on the creating thread.
///
/// Dropping the trace (or calling [`ActiveTrace::finish`]) uninstalls it;
/// `finish` additionally returns the collected [`FinishedTrace`].
#[derive(Debug)]
pub struct ActiveTrace {
    inner: Option<Arc<TraceInner>>,
}

impl ActiveTrace {
    /// Begin a trace with a fresh ID and install it on this thread.
    #[must_use]
    pub fn begin() -> Self {
        let inner = Arc::new(TraceInner {
            id: TraceId::next(),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner), None)));
        Self { inner: Some(inner) }
    }

    /// This trace's ID (as echoed in the `x-an5d-trace` header).
    #[must_use]
    pub fn id(&self) -> TraceId {
        self.inner.as_ref().expect("trace already finished").id
    }

    /// Close the trace and collect its spans.
    #[must_use]
    pub fn finish(mut self) -> FinishedTrace {
        let inner = self.inner.take().expect("trace already finished");
        Self::uninstall(&inner);
        let total_us = inner.elapsed_us();
        let mut spans = inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        // Close any span left open (a panic unwound past its guard).
        for span in &mut spans {
            if span.dur_us == u64::MAX {
                span.dur_us = total_us.saturating_sub(span.start_us);
            }
        }
        FinishedTrace {
            id: inner.id,
            total_us,
            dropped: inner.dropped.load(Ordering::Relaxed),
            spans,
        }
    }

    fn uninstall(inner: &Arc<TraceInner>) {
        CURRENT.with(|c| {
            let mut current = c.borrow_mut();
            if let Some((active, _)) = current.as_ref() {
                if Arc::ptr_eq(active, inner) {
                    *current = None;
                }
            }
        });
    }
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            Self::uninstall(&inner);
        }
    }
}

/// A completed trace: the span tree plus end-to-end duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// The trace's unique ID.
    pub id: TraceId,
    /// End-to-end duration in microseconds (the root duration).
    pub total_us: u64,
    /// Spans that were dropped after the 512 a trace keeps.
    pub dropped: u64,
    /// Recorded spans in open order; `parent` indexes into this list.
    pub spans: Vec<SpanRecord>,
}

impl FinishedTrace {
    /// Name of the first top-level span (the request's endpoint), if any.
    #[must_use]
    pub fn root_name(&self) -> Option<&'static str> {
        self.spans
            .iter()
            .find(|s| s.parent.is_none())
            .map(|s| s.name)
    }
}

/// An RAII guard for one instrumented stage.
///
/// [`Span::enter`] records a span under the thread's active trace (and
/// makes it the parent of spans opened before the guard drops); with no
/// active trace it does nothing.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    state: Option<SpanState>,
}

#[derive(Debug)]
struct SpanState {
    inner: Arc<TraceInner>,
    index: Option<u32>,
    previous_parent: Option<u32>,
}

impl Span {
    /// Open a span named `name` under the current trace, if one is active.
    pub fn enter(name: &'static str) -> Self {
        let state = CURRENT.with(|c| {
            let mut current = c.borrow_mut();
            let (inner, parent) = current.as_mut()?;
            let previous_parent = *parent;
            let index = inner.open(name, previous_parent);
            if index.is_some() {
                *parent = index;
            }
            Some(SpanState {
                inner: Arc::clone(inner),
                index,
                previous_parent,
            })
        });
        Self { state }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        if let Some(index) = state.index {
            state.inner.close(index);
            CURRENT.with(|c| {
                let mut current = c.borrow_mut();
                if let Some((inner, parent)) = current.as_mut() {
                    if Arc::ptr_eq(inner, &state.inner) && *parent == Some(index) {
                        *parent = state.previous_parent;
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_round_trip() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        assert_eq!(TraceId::parse(&a.to_string()), Some(a));
        assert_eq!(a.to_string().len(), 16);
        assert_eq!(TraceId::parse("not hex"), None);
    }

    #[test]
    fn spans_without_an_active_trace_are_noops() {
        let span = Span::enter("orphan");
        drop(span);
        assert!(current_context().is_none());
    }

    #[test]
    fn spans_nest_and_restore_their_parent() {
        let trace = ActiveTrace::begin();
        {
            let _outer = Span::enter("outer");
            {
                let _inner = Span::enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _sibling = Span::enter("sibling");
        }
        let _top = Span::enter("top");
        let finished = trace.finish();
        assert!(current_context().is_none());
        let names: Vec<_> = finished.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("sibling", Some(0)),
                ("top", None),
            ]
        );
        assert!(finished.spans[1].dur_us >= 1_000);
        assert!(finished.spans[0].dur_us >= finished.spans[1].dur_us);
        let top_level: u64 = finished
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_us)
            .sum();
        assert!(top_level <= finished.total_us);
        assert_eq!(finished.root_name(), Some("outer"));
    }

    #[test]
    fn contexts_carry_traces_across_threads() {
        let trace = ActiveTrace::begin();
        let _submit = Span::enter("submit");
        let context = current_context().expect("context");
        let worker = std::thread::spawn(move || {
            let _guard = context.install();
            let _span = Span::enter("worker");
        });
        worker.join().unwrap();
        drop(_submit);
        let finished = trace.finish();
        let worker_span = finished
            .spans
            .iter()
            .find(|s| s.name == "worker")
            .expect("worker span recorded");
        let submit_index = finished
            .spans
            .iter()
            .position(|s| s.name == "submit")
            .unwrap();
        assert_eq!(
            worker_span.parent,
            Some(u32::try_from(submit_index).unwrap())
        );
    }

    #[test]
    fn span_cap_counts_drops_instead_of_growing() {
        let trace = ActiveTrace::begin();
        for _ in 0..(MAX_SPANS_PER_TRACE + 10) {
            let _span = Span::enter("burst");
        }
        let finished = trace.finish();
        assert_eq!(finished.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(finished.dropped, 10);
    }
}
