//! A shared, persistent worker pool for the AN5D workspace.
//!
//! Before this crate existed, every parallel site in the workspace —
//! tuner candidate ranking, the CPU backend's tile fan-out, the
//! `BatchDriver` job queue and plan-cache warming — spawned fresh OS
//! threads through `std::thread::scope` on **every call**. That is
//! correct but wasteful: a tuning sweep over a paper-scale search space
//! pays thread create/join once per `tune()`, and the static
//! `chunks(n)` splits those sites used load-balance badly when per-item
//! costs vary (one unlucky chunk of expensive plans serialises the whole
//! sweep).
//!
//! [`WorkerPool`] replaces all of that with one set of long-lived worker
//! threads and **dynamic per-item scheduling**: work arrives as an
//! iterator protected by a mutex, and every participating thread claims
//! the next item as soon as it finishes its previous one, so imbalance
//! is bounded by a single item rather than a whole chunk.
//!
//! Design notes (all std, no external crates):
//!
//! * **Caller participates.** The thread that calls [`WorkerPool::for_each`]
//!   always executes items itself; pool workers merely help. This makes
//!   nested use (a batch job that internally fans tiles out on the same
//!   pool) deadlock-free — every call can finish on the calling thread
//!   alone even when all workers are busy — and makes a pool with zero
//!   worker threads a correct serial executor.
//! * **Determinism is the caller's contract.** The pool only changes
//!   *which thread* runs an item and *when*; callers that need
//!   deterministic output index their results (see
//!   [`WorkerPool::map_indexed`]) and aggregate in canonical order, so
//!   results are bit-identical to a serial run.
//! * **Panic propagation.** A panicking item stops the batch, and the
//!   panic payload resurfaces on the calling thread once every helper
//!   has stopped — the same observable behaviour as a panicking
//!   `std::thread::scope` worker.
//!
//! The process-wide pool is obtained with [`global`]; its thread count
//! defaults to the available parallelism and can be overridden with the
//! `AN5D_POOL_THREADS` environment variable (`0` disables the workers
//! entirely, leaving callers to run inline).

#![warn(missing_docs)]

use an5d_obs::{Histogram, HistogramSnapshot, TraceContext};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Environment variable overriding the global pool's worker-thread count.
///
/// Accepted values are unsigned integers; `0` means "no pool workers"
/// (every parallel site runs inline on its calling thread). Anything
/// unparsable is ignored with a note on stderr.
pub const POOL_THREADS_ENV: &str = "AN5D_POOL_THREADS";

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Type-erased source of work for one batch: `run_one` claims the next
/// item from the underlying iterator and executes it.
trait BatchRunner: Sync {
    /// Claim one item and run it. Returns `false` when the source is
    /// exhausted (nothing was run).
    fn run_one(&self) -> bool;
}

/// The concrete runner behind [`WorkerPool::for_each`]: a mutex-guarded
/// iterator plus the item closure. The iterator lock is held only for
/// `next()`, never while the item runs.
struct IterRunner<I, F> {
    iter: Mutex<I>,
    task: F,
}

impl<I, F> BatchRunner for IterRunner<I, F>
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    fn run_one(&self) -> bool {
        let item = {
            // A poisoned lock means `next()` itself panicked on another
            // thread; that panic is already being propagated, so keep
            // claiming rather than double-panicking here.
            let mut iter = match self.iter.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            iter.next()
        };
        match item {
            Some(item) => {
                (self.task)(item);
                true
            }
            None => false,
        }
    }
}

/// Raw pointer to a caller-stack [`BatchRunner`].
///
/// Validity protocol (upheld by [`WorkerPool::for_each_limited`]): the
/// pointee outlives the batch because the owning call frame returns only
/// once the batch is exhausted **and** `active == 0`; helpers touch the
/// pointer only between a successful `Batch::register` and their
/// `Batch::serve` deregistration, and registration is refused once the
/// batch is exhausted.
struct RunnerPtr(*const dyn BatchRunner);

// SAFETY: the pointee is `Sync` (the `BatchRunner` trait requires it)
// and the validity protocol above guarantees it is alive whenever a
// registered helper dereferences it.
unsafe impl Send for RunnerPtr {}
unsafe impl Sync for RunnerPtr {}

struct BatchState {
    /// Threads currently executing items of this batch (the caller
    /// counts itself from the start).
    active: usize,
    /// Set when the iterator runs dry or an item panics; no further
    /// registrations or claims happen afterwards.
    exhausted: bool,
    /// First panic payload observed while running items.
    panic: Option<PanicPayload>,
}

/// Shared bookkeeping for one `for_each` call. Held in an `Arc` so a
/// stale registry entry can never dangle; only the `runner` pointer is
/// borrowed from the caller's stack (see [`RunnerPtr`]).
struct Batch {
    runner: RunnerPtr,
    /// Upper bound on concurrently executing threads (caller included).
    max_active: usize,
    /// Items executed so far by every thread serving this batch; flushed
    /// into the pool-wide totals when the batch completes.
    items: AtomicU64,
    state: Mutex<BatchState>,
    /// Signalled when `active` drops to zero on an exhausted batch.
    done: Condvar,
    /// Trace active on the submitting thread, if any; helpers install it
    /// so spans they open nest under the submitting span.
    context: Option<TraceContext>,
    /// Deadline active on the submitting thread, if any; helpers install
    /// it so checkpoints inside items see the request's budget.
    deadline: Option<an5d_fault::Deadline>,
    /// Submission time, for the queue-wait histogram.
    submitted: Instant,
    /// Set by the first helper to claim the batch (gates the queue-wait
    /// sample: batches the caller drains alone never waited in queue).
    claimed: AtomicBool,
}

impl Batch {
    /// Try to join this batch as a helper; refused when the batch is
    /// exhausted or already at its concurrency cap.
    fn register(&self) -> bool {
        let mut state = self.state.lock().expect("pool batch poisoned");
        if state.exhausted || state.active >= self.max_active {
            return false;
        }
        state.active += 1;
        true
    }

    fn is_exhausted(&self) -> bool {
        self.state.lock().expect("pool batch poisoned").exhausted
    }

    /// Run items until the batch is exhausted, then deregister. Must be
    /// called exactly once per successful registration (the caller's
    /// initial `active = 1` counts as a registration).
    fn serve(&self) {
        // SAFETY: this thread is registered (`active` counts it), so per
        // the `RunnerPtr` protocol the runner is alive until `serve`
        // deregisters below.
        let runner = unsafe { &*self.runner.0 };
        // Adopt the submitter's trace so spans opened by items attach
        // under the submitting span (a no-op re-install on the caller).
        let _trace_guard = self.context.as_ref().map(TraceContext::install);
        // Likewise adopt the submitter's deadline: a checkpoint deep in
        // an item must burn the same budget on every serving thread.
        let _deadline_guard = self.deadline.map(an5d_fault::Deadline::install);
        loop {
            if self.is_exhausted() {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| runner.run_one())) {
                Ok(true) => {
                    self.items.fetch_add(1, Ordering::Relaxed);
                }
                Ok(false) => {
                    self.state.lock().expect("pool batch poisoned").exhausted = true;
                    break;
                }
                Err(payload) => {
                    let mut state = self.state.lock().expect("pool batch poisoned");
                    if state.panic.is_none() {
                        state.panic = Some(payload);
                    }
                    state.exhausted = true;
                    break;
                }
            }
        }
        let mut state = self.state.lock().expect("pool batch poisoned");
        state.active -= 1;
        if state.active == 0 {
            self.done.notify_all();
        }
    }
}

struct PoolShared {
    /// Batches with potentially unclaimed work, oldest first. Workers
    /// remove entries they observe to be exhausted; the owning caller
    /// removes its own entry before returning.
    registry: Mutex<VecDeque<Arc<Batch>>>,
    work_available: Condvar,
    shutdown: AtomicBool,
    /// Lifetime totals for [`PoolStats`], updated as each batch
    /// completes.
    items_executed: AtomicU64,
    batches_executed: AtomicU64,
    total_batch_micros: AtomicU64,
    max_batch_micros: AtomicU64,
    /// Wall time of completed batches (submission to completion), µs.
    batch_wall: Histogram,
    /// Time between a batch's publication and its first helper claim, µs.
    /// Batches fully drained by their caller contribute no sample.
    queue_wait: Histogram,
}

/// Point-in-time observability snapshot of a [`WorkerPool`] — surfaced
/// through `an5d-serve`'s `/stats` so a fleet operator can see how busy
/// the shared execution substrate is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent worker threads.
    pub workers: usize,
    /// Batches currently registered with unclaimed work (the pool's
    /// queue depth at snapshot time).
    pub queued_batches: usize,
    /// Items executed by completed batches (an in-flight batch's items
    /// are flushed into this total when it finishes).
    pub items_executed: u64,
    /// Batches fully completed.
    pub batches_executed: u64,
    /// Total wall-clock time of completed batches, in microseconds
    /// (measured on the calling thread, submission to completion).
    pub total_batch_micros: u64,
    /// Worst completed-batch wall time in microseconds.
    pub max_batch_micros: u64,
}

impl PoolStats {
    /// Mean completed-batch wall time in microseconds (0 with no
    /// completed batches).
    #[must_use]
    pub fn mean_batch_micros(&self) -> u64 {
        self.total_batch_micros
            .checked_div(self.batches_executed)
            .unwrap_or(0)
    }
}

/// A pool of persistent worker threads executing dynamically scheduled
/// item batches. See the crate docs for the execution model.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `threads` persistent workers. `0` is allowed and
    /// yields a pool on which every call runs inline on the caller.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            registry: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            items_executed: AtomicU64::new(0),
            batches_executed: AtomicU64::new(0),
            total_batch_micros: AtomicU64::new(0),
            max_batch_micros: AtomicU64::new(0),
            batch_wall: Histogram::new(),
            queue_wait: Histogram::new(),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("an5d-pool-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            threads,
            handles,
        }
    }

    /// Number of persistent worker threads (callers always add
    /// themselves on top while a batch of theirs is running).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Observability snapshot: queue depth, items executed and batch
    /// wall-time totals.
    ///
    /// # Panics
    ///
    /// Panics if the pool registry mutex was poisoned by a panicking
    /// thread.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let queued_batches = self
            .shared
            .registry
            .lock()
            .expect("pool registry poisoned")
            .len();
        PoolStats {
            workers: self.threads,
            queued_batches,
            items_executed: self.shared.items_executed.load(Ordering::Relaxed),
            batches_executed: self.shared.batches_executed.load(Ordering::Relaxed),
            total_batch_micros: self.shared.total_batch_micros.load(Ordering::Relaxed),
            max_batch_micros: self.shared.max_batch_micros.load(Ordering::Relaxed),
        }
    }

    /// Histogram snapshot of completed-batch wall times, microseconds.
    #[must_use]
    pub fn batch_wall_snapshot(&self) -> HistogramSnapshot {
        self.shared.batch_wall.snapshot()
    }

    /// Histogram snapshot of batch queue waits (publication to first
    /// helper claim), microseconds.
    #[must_use]
    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.shared.queue_wait.snapshot()
    }

    /// Run `task` once per item of `items`, claiming items dynamically
    /// across the calling thread and every free pool worker. Returns
    /// when every item has run; panics (after all helpers have stopped)
    /// if any item panicked.
    ///
    /// Item execution order and thread assignment are unspecified — use
    /// indexed items (e.g. `iter.enumerate()`) and order-restoring
    /// aggregation where determinism matters.
    pub fn for_each<I, F>(&self, items: I, task: F)
    where
        I: IntoIterator,
        I::IntoIter: Send,
        F: Fn(<I::IntoIter as Iterator>::Item) + Sync,
    {
        self.for_each_limited(usize::MAX, items, task);
    }

    /// Like [`WorkerPool::for_each`], but with at most `max_active`
    /// threads (the caller included) executing items concurrently. A
    /// limit of 1 runs everything inline on the calling thread.
    pub fn for_each_limited<I, F>(&self, max_active: usize, items: I, task: F)
    where
        I: IntoIterator,
        I::IntoIter: Send,
        F: Fn(<I::IntoIter as Iterator>::Item) + Sync,
    {
        let runner = IterRunner {
            iter: Mutex::new(items.into_iter()),
            task,
        };
        let runner_ptr: *const (dyn BatchRunner + '_) = &runner;
        // SAFETY: lifetime erasure only; the `RunnerPtr` validity
        // protocol guarantees no dereference after this frame returns.
        let runner_ptr: *const (dyn BatchRunner + 'static) =
            unsafe { std::mem::transmute(runner_ptr) };
        let started = Instant::now();
        let batch = Arc::new(Batch {
            runner: RunnerPtr(runner_ptr),
            max_active: max_active.max(1),
            items: AtomicU64::new(0),
            // The caller is registered from the start.
            state: Mutex::new(BatchState {
                active: 1,
                exhausted: false,
                panic: None,
            }),
            done: Condvar::new(),
            context: an5d_obs::current_context(),
            deadline: an5d_fault::current_deadline(),
            submitted: started,
            claimed: AtomicBool::new(false),
        });

        let published = self.threads > 0 && batch.max_active > 1;
        if published {
            let mut registry = self.shared.registry.lock().expect("pool registry poisoned");
            registry.push_back(Arc::clone(&batch));
            drop(registry);
            self.shared.work_available.notify_all();
        }

        // The caller works too; by the time `serve` returns the batch is
        // exhausted, so no new helper can register.
        batch.serve();

        // Wait for helpers still finishing their last item.
        {
            let mut state = batch.state.lock().expect("pool batch poisoned");
            while state.active > 0 {
                state = batch.done.wait(state).expect("pool batch poisoned");
            }
        }

        if published {
            let mut registry = self.shared.registry.lock().expect("pool registry poisoned");
            registry.retain(|entry| !Arc::ptr_eq(entry, &batch));
        }

        // Flush this batch into the pool-wide observability totals
        // (panicking batches count too: their wall time was spent).
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.shared
            .items_executed
            .fetch_add(batch.items.load(Ordering::Relaxed), Ordering::Relaxed);
        self.shared.batches_executed.fetch_add(1, Ordering::Relaxed);
        self.shared
            .total_batch_micros
            .fetch_add(micros, Ordering::Relaxed);
        self.shared
            .max_batch_micros
            .fetch_max(micros, Ordering::Relaxed);
        self.shared.batch_wall.record(micros);

        let panic = batch
            .state
            .lock()
            .expect("pool batch poisoned")
            .panic
            .take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Run `task(i)` for every `i < len` and collect the results in index
    /// order — the pool equivalent of a `map` over `0..len`, bit-identical
    /// to the serial loop regardless of scheduling.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `task`.
    #[must_use]
    pub fn map_indexed<T, F>(&self, len: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_indexed_limited(usize::MAX, len, task)
    }

    /// [`WorkerPool::map_indexed`] with a concurrency cap (caller
    /// included), for sites that expose a configurable worker count.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `task`.
    #[must_use]
    pub fn map_indexed_limited<T, F>(&self, max_active: usize, len: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
        self.for_each_limited(max_active, 0..len, |index| {
            *slots[index].lock().expect("pool result slot poisoned") = Some(task(index));
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("pool result slot poisoned")
                    .expect("every index was executed")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Set the flag while holding the registry lock so a worker
            // between its shutdown check and its condvar wait cannot miss
            // the notification.
            let _guard = self.shared.registry.lock().expect("pool registry poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.work_available.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let batch = {
            let mut registry = shared.registry.lock().expect("pool registry poisoned");
            loop {
                let mut picked = None;
                let mut index = 0;
                while index < registry.len() {
                    let entry = &registry[index];
                    if entry.register() {
                        if !entry.claimed.swap(true, Ordering::Relaxed) {
                            shared.queue_wait.record_duration(entry.submitted.elapsed());
                        }
                        picked = Some(Arc::clone(entry));
                        break;
                    }
                    if entry.is_exhausted() {
                        // Finished batch still parked in the registry:
                        // drop it so the queue stays short.
                        registry.remove(index);
                    } else {
                        // At its concurrency cap: leave it for its
                        // registered executors and look further.
                        index += 1;
                    }
                }
                if let Some(batch) = picked {
                    break batch;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                registry = shared
                    .work_available
                    .wait(registry)
                    .expect("pool registry poisoned");
            }
        };
        batch.serve();
    }
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide shared pool used by the CPU execution backends and
/// the batch driver.
///
/// Created on first use with [`default_threads`] workers; the pool lives
/// for the rest of the process (its threads park on a condvar while
/// idle).
#[must_use]
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
}

/// Worker-thread count the global pool starts with: `AN5D_POOL_THREADS`
/// when set to a valid unsigned integer, otherwise the machine's
/// available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(value) = std::env::var(POOL_THREADS_ENV) {
        match value.trim().parse::<usize>() {
            Ok(threads) => return threads,
            Err(_) => {
                eprintln!(
                    "warning: ignoring invalid {POOL_THREADS_ENV}={value:?} \
                     (expected an unsigned integer); using available parallelism"
                );
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_item_exactly_once() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        pool.for_each(0..1000, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.into_inner(), 1000);
    }

    #[test]
    fn map_indexed_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map_indexed(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 0);
        let main_thread = std::thread::current().id();
        let out = pool.map_indexed(16, |i| {
            assert_eq!(std::thread::current().id(), main_thread);
            i + 1
        });
        assert_eq!(out[15], 16);
    }

    #[test]
    fn concurrency_cap_of_one_is_serial() {
        let pool = WorkerPool::new(4);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.for_each_limited(1, 0..64, |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.into_inner(), 1);
    }

    #[test]
    fn concurrency_cap_bounds_parallelism() {
        let pool = WorkerPool::new(8);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.for_each_limited(3, 0..200, |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
    }

    #[test]
    fn workers_actually_help() {
        let pool = WorkerPool::new(4);
        let seen = Mutex::new(std::collections::HashSet::new());
        pool.for_each(0..512, |_| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(
            seen.into_inner().unwrap().len() > 1,
            "512 sleepy items should be spread across more than one thread"
        );
    }

    #[test]
    fn nested_batches_complete_even_when_workers_are_saturated() {
        // Every outer item starts an inner batch on the same pool; with
        // only 2 workers the inner batches must be able to finish on
        // their callers alone.
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        pool.for_each(0..16, |_| {
            pool.for_each(0..16, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), 16 * 16);
    }

    #[test]
    fn item_panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(0..100, |i| {
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
        assert_eq!(pool.map_indexed(4, |i| i).len(), 4);
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.for_each(std::iter::empty::<usize>(), |_| unreachable!());
        assert!(pool.map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn sequential_batches_reuse_the_same_pool() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.for_each(0..round, |i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), round * (round + 1) / 2);
        }
    }

    #[test]
    fn dropping_the_pool_joins_its_workers() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.for_each(0..128, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // must not hang
        assert_eq!(counter.into_inner(), 128);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
    }

    #[test]
    fn stats_count_items_batches_and_wall_time() {
        let pool = WorkerPool::new(2);
        assert_eq!(
            pool.stats(),
            PoolStats {
                workers: 2,
                ..PoolStats::default()
            }
        );
        pool.for_each(0..100, |_| {
            std::thread::sleep(std::time::Duration::from_micros(10));
        });
        pool.for_each(0..28, |_| {});
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.queued_batches, 0, "no batch in flight at snapshot");
        assert_eq!(stats.items_executed, 128);
        assert_eq!(stats.batches_executed, 2);
        assert!(stats.total_batch_micros > 0, "the sleepy batch took time");
        assert!(stats.max_batch_micros <= stats.total_batch_micros);
        assert!(stats.mean_batch_micros() <= stats.max_batch_micros);
        assert_eq!(PoolStats::default().mean_batch_micros(), 0);
    }

    #[test]
    fn batches_record_wall_and_queue_histograms() {
        let pool = WorkerPool::new(2);
        pool.for_each(0..64, |_| {
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        let wall = pool.batch_wall_snapshot();
        assert_eq!(wall.count(), 1);
        assert!(wall.max() > 0);
        assert_eq!(wall.sum(), pool.stats().total_batch_micros);
        // Queue wait only samples batches a helper actually claimed.
        assert!(pool.queue_wait_snapshot().count() <= 1);
    }

    #[test]
    fn pool_items_attach_spans_under_the_submitting_trace() {
        let pool = WorkerPool::new(3);
        let trace = an5d_obs::ActiveTrace::begin();
        {
            let _sweep = an5d_obs::Span::enter("sweep");
            pool.for_each(0..32, |_| {
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
    fn default_threads_is_positive_without_an_override() {
        // The env var may or may not be set in the test environment;
        // either way the parse path must yield a usable pool size when
        // it is unset.
        if std::env::var(POOL_THREADS_ENV).is_err() {
            assert!(default_threads() >= 1);
        }
    }
}
