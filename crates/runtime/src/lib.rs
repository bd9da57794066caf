//! Scoped, caller-participating fan-out for the AN5D workspace.
//!
//! AN5D's host loop launches one kernel per temporal block, and the
//! thread blocks of one launch are independent (§4.3.1): on the CPU that
//! is one fork-join per launch, and it is the workspace's one parallel
//! site — the CPU backend's tile fan-out (`execute_blocked` in
//! `an5d-backend`), written as [`ScopedPool::for_each_limited`]: helper
//! threads are started inside one `std::thread::scope` and are gone when
//! the call returns. Nothing stays resident between calls, nothing is
//! queued and there is nothing to configure; starting and joining a
//! helper costs ≈ 15 µs against fan-outs of milliseconds.
//!
//! * **Dynamic per-item scheduling.** Work arrives as an iterator behind
//!   a mutex, and every serving thread claims the next item as soon as it
//!   has finished its previous one, so imbalance is bounded by one item.
//! * **Caller participates.** The calling thread always executes items
//!   itself; helpers merely help. Every call can therefore finish on its
//!   caller alone, and a cap of 1 is a plain serial loop.
//! * **One helper budget.** Helpers are borrowed from a per-pool budget —
//!   the machine's available parallelism for the [`global`] pool — and
//!   returned when the call ends. No library code fans out from inside an
//!   item, but callers do fan out side by side (the service's dispatch
//!   workers each run an `/execute` on `vector:N`); together they never
//!   run more helpers than the budget. A call that finds it empty, or is
//!   capped at 1, runs inline and starts no thread.
//! * **Determinism is the caller's contract.** The pool only changes
//!   *which thread* runs an item and *when*; a caller that needs
//!   deterministic output gives every item its own place to write (the
//!   backend hands each tile its carved output rows) and aggregates in
//!   canonical order, so results are bit-identical to a serial run.
//! * **Panic propagation.** A panicking item stops further claims, and
//!   its payload resurfaces on the calling thread once every helper has
//!   been joined.
//! * **Context hand-over.** Helpers run under the submitting thread's
//!   trace context and deadline, so spans opened by items nest under the
//!   submitting span and checkpoints inside items burn the same budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use an5d_fault::Deadline;
use an5d_obs::{Histogram, HistogramSnapshot, TraceContext};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Lifetime totals of a [`ScopedPool`]'s completed fan-outs ("batches").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Items executed, by callers and helpers alike.
    pub items_executed: u64,
    /// Batches fully completed.
    pub batches_executed: u64,
    /// Total wall-clock time of completed batches, in microseconds
    /// (measured on the calling thread, helper start and join included).
    pub total_batch_micros: u64,
}

/// A budget of helper threads and the totals of the fan-outs that drew on
/// it. See the crate docs for the execution model.
#[derive(Debug)]
pub struct ScopedPool {
    /// Helpers of the budget that no fan-out has borrowed right now. A
    /// plain count that publishes no data (a helper gets its work through
    /// the scope that starts it), hence `Relaxed` throughout.
    idle_helpers: AtomicUsize,
    items_executed: AtomicU64,
    /// Wall time of completed batches, µs; its count and sum are the
    /// batch totals of [`PoolStats`].
    batch_wall: Histogram,
}

/// Helpers borrowed from a pool's budget, returned on drop — also when
/// the fan-out that borrowed them unwinds.
struct Borrowed<'a> {
    idle_helpers: &'a AtomicUsize,
    count: usize,
}

impl Drop for Borrowed<'_> {
    fn drop(&mut self) {
        self.idle_helpers.fetch_add(self.count, Ordering::Relaxed);
    }
}

impl ScopedPool {
    /// A pool whose fan-outs together run at most `helpers` helper threads
    /// at a time. `0` is allowed: every call then runs inline on its
    /// caller.
    #[must_use]
    pub fn new(helpers: usize) -> Self {
        Self {
            idle_helpers: AtomicUsize::new(helpers),
            items_executed: AtomicU64::new(0),
            batch_wall: Histogram::new(),
        }
    }

    /// Totals of the batches completed so far.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            items_executed: self.items_executed.load(Ordering::Relaxed),
            batches_executed: self.batch_wall.count(),
            total_batch_micros: self.batch_wall.sum(),
        }
    }

    /// Histogram snapshot of completed-batch wall times, microseconds.
    #[must_use]
    pub fn batch_wall_snapshot(&self) -> HistogramSnapshot {
        self.batch_wall.snapshot()
    }

    /// Take up to `wanted` helpers out of the budget.
    fn borrow_helpers(&self, wanted: usize) -> Borrowed<'_> {
        let mut count = 0;
        let _ = self
            .idle_helpers
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |idle| {
                count = wanted.min(idle);
                Some(idle - count)
            });
        Borrowed {
            idle_helpers: &self.idle_helpers,
            count,
        }
    }

    /// Run `task` once per item of `items` on at most `max_active` threads
    /// — the caller plus helpers borrowed from the budget — each claiming
    /// the next item when it has finished its last. Returns when every
    /// item has run; panics (after all helpers have been joined) if any
    /// item panicked. A limit of 1 runs everything inline on the calling
    /// thread.
    ///
    /// Item execution order and thread assignment are unspecified — use
    /// indexed items (e.g. `iter.enumerate()`) and order-restoring
    /// aggregation where determinism matters.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `task` or by the iterator.
    pub fn for_each_limited<I, F>(&self, max_active: usize, items: I, task: F)
    where
        I: IntoIterator,
        I::IntoIter: Send,
        F: Fn(<I::IntoIter as Iterator>::Item) + Sync,
    {
        let started = Instant::now();
        // Fused: threads keep asking after the first `None`.
        let items = items.into_iter().fuse();
        let most_useful = items.size_hint().1.unwrap_or(usize::MAX);
        let helpers = self.borrow_helpers(max_active.min(most_useful).saturating_sub(1));
        let items = Mutex::new(items);
        let stop = AtomicBool::new(false);
        let first_panic: Mutex<Option<PanicPayload>> = Mutex::new(None);

        // Claim and run items until none is left or one has panicked.
        let serve = || {
            let mut executed = 0;
            while !stop.load(Ordering::Relaxed) {
                let ran_one = catch_unwind(AssertUnwindSafe(|| {
                    // The lock is held for `next()` only, never while the
                    // item runs. It is poisoned only when `next()` itself
                    // panicked: that panic is on its way to the caller and
                    // there is nothing left to claim.
                    let item = items.lock().ok().and_then(|mut items| items.next());
                    item.map(&task).is_some()
                }));
                match ran_one {
                    Ok(true) => executed += 1,
                    Ok(false) => break,
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        first_panic
                            .lock()
                            .expect("the panic slot is never held across a panic")
                            .get_or_insert(payload);
                    }
                }
            }
            self.items_executed.fetch_add(executed, Ordering::Relaxed);
        };

        let context = an5d_obs::current_context();
        let deadline = an5d_fault::current_deadline();
        let help = || {
            let _trace_guard = context.as_ref().map(TraceContext::install);
            let _deadline_guard = deadline.map(Deadline::install);
            serve();
        };
        std::thread::scope(|scope| {
            for _ in 0..helpers.count {
                // A helper the OS will not start is help not had; the
                // caller serves every item regardless.
                let helper = std::thread::Builder::new();
                if helper.spawn_scoped(scope, help).is_err() {
                    break;
                }
            }
            serve();
        });

        // A panicking batch counts too: its wall time was spent.
        self.batch_wall.record_duration(started.elapsed());
        let first_panic = first_panic
            .into_inner()
            .expect("the panic slot is never held across a panic");
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }
}

static GLOBAL: OnceLock<ScopedPool> = OnceLock::new();

/// The process-wide pool behind the CPU execution backend's tile
/// fan-out: a helper budget of the machine's available parallelism (the
/// caller of a fan-out comes on top).
#[must_use]
pub fn global() -> &'static ScopedPool {
    GLOBAL.get_or_init(|| {
        ScopedPool::new(std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Every item on any thread, no cap.
    fn for_each<I, F>(pool: &ScopedPool, items: I, task: F)
    where
        I: IntoIterator,
        I::IntoIter: Send,
        F: Fn(<I::IntoIter as Iterator>::Item) + Sync,
    {
        pool.for_each_limited(usize::MAX, items, task);
    }

    fn idle(pool: &ScopedPool) -> usize {
        pool.idle_helpers.load(Ordering::Relaxed)
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let pool = ScopedPool::new(3);
        let counter = AtomicUsize::new(0);
        for_each(&pool, 0..1000, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.into_inner(), 1000);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ScopedPool::new(0);
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        for_each(&pool, 0..16, |_| {
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 16);
    }

    #[test]
    fn concurrency_cap_of_one_is_serial() {
        let pool = ScopedPool::new(4);
        let caller = std::thread::current().id();
        pool.for_each_limited(1, 0..64, |_| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!(idle(&pool), 4, "a cap of one borrows no helper");
        });
    }

    #[test]
    fn concurrency_cap_bounds_parallelism() {
        let pool = ScopedPool::new(8);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // The first three items meet at the barrier, so the cap is reached…
        let all_three = Barrier::new(3);
        pool.for_each_limited(3, 0..200, |i| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            if i < 3 {
                all_three.wait();
            }
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        // …and never exceeded.
        assert_eq!(peak.into_inner(), 3);
    }

    #[test]
    fn workers_actually_help() {
        let pool = ScopedPool::new(1);
        let seen = Mutex::new(std::collections::HashSet::new());
        // Two items that cannot finish without each other.
        let both = Barrier::new(2);
        for_each(&pool, 0..2, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            both.wait();
        });
        assert_eq!(seen.into_inner().unwrap().len(), 2);
    }

    #[test]
    fn nested_batches_complete_even_when_workers_are_saturated() {
        // Every outer item starts an inner batch on the same pool; with a
        // budget of 2 the inner batches must be able to finish on their
        // callers alone.
        let pool = ScopedPool::new(2);
        let total = AtomicUsize::new(0);
        for_each(&pool, 0..16, |_| {
            for_each(&pool, 0..16, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 16 * 16);
    }

    #[test]
    fn nested_fan_outs_never_exceed_outer_callers_plus_budget() {
        let pool = ScopedPool::new(2);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // The outer fan-out lends out the whole budget, so the caller and
        // both helpers each run an inner fan-out inline; their first items
        // meet at the barrier.
        let all_three = Barrier::new(3);
        pool.for_each_limited(4, 0..8, |outer| {
            pool.for_each_limited(4, 0..8, |inner| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                if outer < 3 && inner == 0 {
                    all_three.wait();
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
            });
        });
        assert_eq!(peak.into_inner(), 1 + 2, "one outer caller plus the budget");
        assert_eq!(idle(&pool), 2);
    }

    #[test]
    fn item_panics_propagate_to_the_caller() {
        let pool = ScopedPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for_each(&pool, 0..100, |i| {
                assert!(i != 57, "boom at {i}");
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 57"), "{message}");
        // The pool stays usable after a panicking batch.
        let ran = AtomicUsize::new(0);
        for_each(&pool, 0..4, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 4);
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller_and_returns_the_helpers() {
        let pool = ScopedPool::new(1);
        let caller = std::thread::current().id();
        // One item each for the caller and the helper, finished together.
        let both = Barrier::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for_each(&pool, 0..2, |_| {
                assert_eq!(idle(&pool), 0, "the helper is on loan");
                both.wait();
                assert!(std::thread::current().id() == caller, "boom on the helper");
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "boom on the helper");
        assert_eq!(idle(&pool), 1, "the unwinding fan-out returned its helper");
        // So the next fan-out gets help again: these two items need it.
        for_each(&pool, 0..2, |_| {
            both.wait();
        });
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let pool = ScopedPool::new(2);
        for_each(&pool, std::iter::empty::<usize>(), |_| unreachable!());
    }

    #[test]
    fn global_pool_is_a_singleton() {
        assert!(std::ptr::eq(global(), global()));
    }

    #[test]
    fn stats_count_items_batches_and_wall_time() {
        let pool = ScopedPool::new(2);
        assert_eq!(pool.stats(), PoolStats::default());
        for_each(&pool, 0..100, |_| {
            std::thread::sleep(std::time::Duration::from_micros(10));
        });
        for_each(&pool, 0..28, |_| {});
        let stats = pool.stats();
        assert_eq!(stats.items_executed, 128);
        assert_eq!(stats.batches_executed, 2);
        assert!(stats.total_batch_micros > 0, "the sleepy batch took time");
    }

    #[test]
    fn batches_record_their_wall_time_histogram() {
        let pool = ScopedPool::new(2);
        for_each(&pool, 0..64, |_| {
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        let wall = pool.batch_wall_snapshot();
        assert_eq!(wall.count(), 1);
        assert!(wall.max() > 0);
        assert_eq!(wall.sum(), pool.stats().total_batch_micros);
    }

    #[test]
    fn pool_items_attach_spans_under_the_submitting_trace() {
        let pool = ScopedPool::new(3);
        let trace = an5d_obs::ActiveTrace::begin();
        {
            let _sweep = an5d_obs::Span::enter("sweep");
            for_each(&pool, 0..32, |_| {
                let _span = an5d_obs::Span::enter("item");
                std::thread::sleep(std::time::Duration::from_micros(100));
            });
        }
        let finished = trace.finish();
        let sweep_index = finished
            .spans
            .iter()
            .position(|s| s.name == "sweep")
            .expect("sweep span") as u32;
        let items: Vec<_> = finished.spans.iter().filter(|s| s.name == "item").collect();
        assert_eq!(items.len(), 32);
        assert!(
            items.iter().all(|s| s.parent == Some(sweep_index)),
            "every pool item span must nest under the submitting span"
        );
    }

    #[test]
    fn pool_items_see_the_submitting_deadline() {
        let pool = ScopedPool::new(1);
        let deadline = Deadline::after(std::time::Duration::from_secs(3600));
        let _guard = deadline.install();
        // One item each for the caller and the helper.
        let both = Barrier::new(2);
        for_each(&pool, 0..2, |_| {
            both.wait();
            assert_eq!(an5d_fault::current_deadline(), Some(deadline));
        });
    }
}
