//! A long-lived, std-only work-stealing thread pool shared by every
//! parallel section of the translator: the pipeline's stages, the opt
//! scheduler, and the memory-model enumerators.
//!
//! This is a leaf crate (its only dependency is `lasagne-trace`, for the
//! poison-recovering lock helper and the queue-depth histogram), so the
//! crates beneath the translator can fan out on the same threads without
//! depending on the translator itself. `lasagne::pipeline` re-exports it
//! as `lasagne::pipeline::pool`.
//!
//! Before this module existed, every parallel section spawned fresh
//! [`std::thread::scope`] workers and joined them at the section's end.
//! At Phoenix scale that overhead dominated: `BENCH_pipeline.json`
//! recorded jobs=4 running at 0.68× of jobs=1, with milliseconds of
//! spawn cost and barrier wait for microseconds of work per function.
//! A [`Pool`] amortizes the spawn: worker threads are created once
//! (lazily, growing to the largest `jobs` ever requested), then park on a
//! condition variable between sections and are woken by task submission.
//!
//! # Structure
//!
//! * One global **injector** queue receives tasks submitted from threads
//!   outside the pool (the pipeline orchestrator, test harnesses).
//! * One **deque per worker slot** receives tasks submitted *by* that
//!   worker (nested `par_map` calls, e.g. a litmus sweep inside a
//!   pipeline stage). A worker pops its own deque LIFO for locality and
//!   **steals** FIFO from its siblings when idle.
//! * Idle workers **park** under an epoch-guarded condvar: a worker reads
//!   the wake epoch, re-scans every queue, and only sleeps if the epoch
//!   is unchanged — a submission bumps the epoch first and then notifies,
//!   so the classic lost-wakeup race cannot occur (a bounded
//!   `wait_timeout` re-scan backstops it regardless).
//!
//! # Invariants
//!
//! * **Slot-stable trace tracks.** Worker slot `w` calls
//!   [`lasagne_trace::set_current_track`]`(w + 1)` exactly once at spawn,
//!   so a Chrome trace shows one stable track per pool slot for the whole
//!   process lifetime (track 0 is the submitting thread).
//! * **Panic propagation.** A panic inside a [`Pool::par_map`] work item
//!   is caught in the executing worker, carried across the pool, and
//!   re-raised with [`std::panic::resume_unwind`] on the *calling*
//!   thread — a panicking work item surfaces as a pipeline panic, never
//!   as a hang or a dead worker. [`Pool::shutdown`] additionally joins
//!   every worker thread and propagates any worker-loop panic.
//! * **No work after join.** `par_map` returns only once every one of its
//!   runner tasks has signalled completion; no closure reference escapes
//!   the call. Blocked callers *help*: while waiting they pop and execute
//!   queued tasks, which is what makes nested `par_map` (work items that
//!   themselves fan out on the same pool) deadlock-free — every queued
//!   task is eventually executed by some non-blocked thread, and a
//!   runner queued after its section already drained exits immediately.
//! * **Determinism.** The pool schedules *when and where* a work item
//!   runs, never what it computes; [`Pool::par_map`] writes result `i`
//!   into slot `i`, so output order is input order for every `jobs`
//!   value and every steal pattern.
//!
//! # Example
//!
//! ```
//! use lasagne_pool::Pool;
//!
//! let squares = Pool::shared().par_map(4, (0..64u64).collect(), |_, v| v * v);
//! assert_eq!(squares, (0..64u64).map(|v| v * v).collect::<Vec<_>>());
//!
//! // Nested fan-out on the same pool is fine: blocked callers execute
//! // queued tasks instead of idling.
//! let nested = Pool::shared().par_map(4, (0..8u64).collect(), |_, v| {
//!     Pool::shared()
//!         .par_map(4, (0..8u64).collect(), move |_, w| v * w)
//!         .into_iter()
//!         .sum::<u64>()
//! });
//! assert_eq!(nested[3], 3 * 28);
//! ```

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use lasagne_trace::{lock_clean, Histogram};

/// Maps `f` over `items` on up to `jobs` workers of the process-wide
/// shared work-stealing pool ([`Pool::shared`]), returning results in
/// input order.
///
/// Workers claim indices from an atomic counter; result `i` is written to
/// slot `i`, so the output vector is independent of scheduling. With
/// `jobs <= 1` (or one item) this degenerates to a plain serial map —
/// the serial and parallel paths run the *same* closure on the *same*
/// items, which is what makes `--jobs N` byte-identical to `--jobs 1`.
/// Nested calls are fine: a work item that itself calls `par_map` (e.g. a
/// litmus sweep inside a pipeline stage) submits to the same pool, and
/// blocked callers execute queued tasks while they wait.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    Pool::shared().par_map(jobs, items, f)
}

/// [`par_map`] that also measures each runner slot's barrier wait: the
/// time between a runner finishing its last claimed item and the slowest
/// runner reaching the section's completion latch. The second vector has
/// one entry per runner slot and is empty when the map ran serially
/// (`jobs <= 1` or at most one item) — no barrier, no wait.
///
/// This is where `--timings`' `barrier_wait_nanos` counters come from: a
/// schedule whose work items are badly balanced shows up as a few slots
/// with large waits, without changing any output byte.
pub fn par_map_waits<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> (Vec<R>, Vec<u128>)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    Pool::shared().par_map_waits(jobs, items, f)
}

/// A queued unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Inclusive upper bounds of the queue-depth histogram buckets: the
/// number of already-pending tasks observed at each submission. Depth 0
/// means the pool was drained when the task arrived (workers keep up);
/// sustained high buckets mean sections are submitting faster than the
/// workers retire.
pub const QUEUE_DEPTH_BOUNDS: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

thread_local! {
    /// `(pool identity, slot + 1)` of the pool worker running this
    /// thread; `(0, 0)` for non-workers. Routes nested submissions to the
    /// worker's own deque.
    static WORKER: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Counters and queue-depth buckets describing everything a [`Pool`] has
/// done so far (monotonic since pool creation, except `workers`).
/// Snapshot before and after a region and subtract with
/// [`PoolStats::since`] to attribute activity to that region — this is
/// how the `--timings` schema-4 `"pool"` block is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads currently spawned.
    pub workers: u64,
    /// Tasks ever submitted.
    pub submitted: u64,
    /// Tasks ever executed (by a worker or by a helping caller).
    pub executed: u64,
    /// Tasks taken from **another** thread's deque: a sibling worker (or
    /// an external helping caller) draining a worker's deque because its
    /// own queues were empty. Injector pickups are not steals, and a
    /// worker popping its *own* deque — directly or while helping a
    /// nested join — is not a steal either. A schedule whose fan-outs are
    /// all submitted by the orchestrator therefore legitimately records
    /// zero steals: every task lands in the injector and is claimed
    /// injector-first. Steals only appear when nested sections load a
    /// worker's deque faster than its owner can drain it.
    pub steals: u64,
    /// Times a worker went to sleep with every queue empty.
    pub parks: u64,
    /// Pending-task depth observed at each submission, bucketed by
    /// [`QUEUE_DEPTH_BOUNDS`].
    pub queue_depth: Histogram,
}

impl PoolStats {
    /// The activity recorded in `self` but not in `earlier` (`workers` is
    /// kept from `self` — it is a level, not a counter).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            workers: self.workers,
            submitted: self.submitted.saturating_sub(earlier.submitted),
            executed: self.executed.saturating_sub(earlier.executed),
            steals: self.steals.saturating_sub(earlier.steals),
            parks: self.parks.saturating_sub(earlier.parks),
            queue_depth: self.queue_depth.diff(&earlier.queue_depth),
        }
    }
}

/// Completion latch for one `par_map` section: counts outstanding runner
/// tasks; the last one notifies the (possibly sleeping) caller.
struct Latch {
    left: Mutex<usize>,
    cv: Condvar,
}

/// Signals `latch` when dropped — runs even if the runner unwinds, which
/// is what keeps a panicking work item from hanging its section.
struct SignalOnDrop(Arc<Latch>);

impl Drop for SignalOnDrop {
    fn drop(&mut self) {
        let mut left = lock_clean(&self.0.left);
        *left -= 1;
        if *left == 0 {
            self.0.cv.notify_all();
        }
    }
}

struct Inner {
    /// Tasks submitted from outside the pool.
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker slot; workers push nested submissions here.
    /// The list only grows (up to the largest requested worker count).
    deques: Mutex<Vec<Arc<Mutex<VecDeque<Task>>>>>,
    /// Join handles of spawned workers, indexed by slot.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Wake epoch: bumped (then broadcast) by every submission, read by
    /// workers before scanning queues so a concurrent submission is never
    /// missed by a parking worker.
    wake: Mutex<u64>,
    wake_cv: Condvar,
    shutdown: AtomicBool,
    /// Submitted-but-not-yet-executed task count (the queue depth).
    pending: AtomicUsize,
    submitted: AtomicU64,
    executed: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    depth: Mutex<Histogram>,
}

impl Inner {
    fn identity(self: &Arc<Inner>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// The worker slot of the current thread, if it is one of *this*
    /// pool's workers. Used both to route nested submissions to the
    /// submitting worker's own deque and to let a worker that blocks on a
    /// nested join keep draining its own deque LIFO — without counting
    /// those pops as steals.
    fn current_slot(self: &Arc<Inner>) -> Option<usize> {
        let me = self.identity();
        WORKER.with(|w| {
            let (pool, slot) = w.get();
            if pool == me && slot > 0 {
                Some(slot - 1)
            } else {
                None
            }
        })
    }

    /// Queues `task` and wakes the workers. A submission from a pool
    /// worker goes to that worker's own deque (popped LIFO for locality,
    /// stolen FIFO by siblings); everything else goes to the injector.
    fn submit(self: &Arc<Inner>, task: Task) {
        let depth = self.pending.fetch_add(1, Ordering::Relaxed);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        lock_clean(&self.depth).record(depth as u64);
        let mut task = Some(task);
        let own = self.current_slot();
        if let Some(w) = own {
            let deque = lock_clean(&self.deques).get(w).cloned();
            if let Some(d) = deque {
                lock_clean(&d).push_back(task.take().expect("task not yet queued"));
            }
        }
        if let Some(t) = task.take() {
            lock_clean(&self.injector).push_back(t);
        }
        *lock_clean(&self.wake) += 1;
        self.wake_cv.notify_all();
    }

    /// Pops a task: own deque (LIFO) → injector (FIFO) → steal from a
    /// sibling deque (FIFO). `slot` is `None` for helping callers that
    /// are not pool workers; only the sibling-deque pickup counts as a
    /// steal.
    fn find_task(&self, slot: Option<usize>) -> Option<Task> {
        if let Some(w) = slot {
            let own = lock_clean(&self.deques).get(w).cloned();
            if let Some(d) = own {
                if let Some(t) = lock_clean(&d).pop_back() {
                    return Some(t);
                }
            }
        }
        if let Some(t) = lock_clean(&self.injector).pop_front() {
            return Some(t);
        }
        let deques: Vec<Arc<Mutex<VecDeque<Task>>>> = lock_clean(&self.deques).clone();
        for (j, d) in deques.iter().enumerate() {
            if slot == Some(j) {
                continue;
            }
            if let Some(t) = lock_clean(d).pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Runs one task, absorbing its panic: runner closures carry their
    /// own panic payload back to the section's caller (see
    /// [`Pool::par_map`]), so the worker thread itself must survive.
    fn execute(&self, task: Task) {
        self.pending.fetch_sub(1, Ordering::Relaxed);
        self.executed.fetch_add(1, Ordering::Relaxed);
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

fn worker_main(inner: Arc<Inner>, slot: usize) {
    // One stable Chrome-trace track per pool slot, for the lifetime of
    // the process (track 0 is the orchestrator).
    lasagne_trace::set_current_track(slot as u32 + 1);
    let me = inner.identity();
    WORKER.with(|w| w.set((me, slot + 1)));
    loop {
        let epoch = *lock_clean(&inner.wake);
        if let Some(t) = inner.find_task(Some(slot)) {
            inner.execute(t);
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let guard = lock_clean(&inner.wake);
        if *guard == epoch {
            // Nothing arrived since the scan began; park. The timeout is
            // a belt-and-braces re-scan, not a correctness requirement.
            inner.parks.fetch_add(1, Ordering::Relaxed);
            let _ = inner
                .wake_cv
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A handle to a work-stealing pool; clones share the same workers.
/// See the [module docs](self) for structure and invariants.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &lock_clean(&self.inner.handles).len())
            .field("pending", &self.inner.pending.load(Ordering::Relaxed))
            .finish()
    }
}

impl Pool {
    /// Creates a private pool with `workers` threads spawned up front
    /// (possibly zero — [`Pool::par_map`] grows the pool on demand).
    /// Prefer [`Pool::shared`] outside of tests: one process-wide pool
    /// keeps the worker count bounded and the caches warm.
    pub fn new(workers: usize) -> Pool {
        let pool = Pool {
            inner: Arc::new(Inner {
                injector: Mutex::new(VecDeque::new()),
                deques: Mutex::new(Vec::new()),
                handles: Mutex::new(Vec::new()),
                wake: Mutex::new(0),
                wake_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                pending: AtomicUsize::new(0),
                submitted: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                depth: Mutex::new(Histogram::new(&QUEUE_DEPTH_BOUNDS)),
            }),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// The process-wide shared pool: spawned lazily, grown to the largest
    /// worker count any caller has requested, never shut down. Every
    /// `lasagne::pipeline::Pipeline` and every [`par_map`] call rides
    /// this pool by default, so
    /// one `report` sweep, a `difftest` run, and nested litmus
    /// enumerations all reuse the same threads.
    pub fn shared() -> &'static Pool {
        static SHARED: OnceLock<Pool> = OnceLock::new();
        SHARED.get_or_init(|| Pool::new(0))
    }

    /// Grows the pool to at least `n` workers (never shrinks; no-op after
    /// [`Pool::shutdown`]).
    pub fn ensure_workers(&self, n: usize) {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut handles = lock_clean(&self.inner.handles);
        let current = handles.len();
        if current >= n {
            return;
        }
        {
            let mut deques = lock_clean(&self.inner.deques);
            while deques.len() < n {
                deques.push(Arc::new(Mutex::new(VecDeque::new())));
            }
        }
        for slot in current..n {
            let inner = Arc::clone(&self.inner);
            let h = std::thread::Builder::new()
                .name(format!("lasagne-pool-{slot}"))
                .spawn(move || worker_main(inner, slot))
                .expect("spawn pool worker");
            handles.push(h);
        }
    }

    /// Worker threads currently spawned.
    pub fn workers(&self) -> usize {
        lock_clean(&self.inner.handles).len()
    }

    /// A snapshot of the pool's lifetime counters and queue-depth
    /// buckets. Pair two snapshots with [`PoolStats::since`] to measure
    /// one region.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers() as u64,
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            executed: self.inner.executed.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            parks: self.inner.parks.load(Ordering::Relaxed),
            queue_depth: lock_clean(&self.inner.depth).clone(),
        }
    }

    /// Maps `f` over `items` on up to `jobs` pool workers, returning
    /// results in input order. Result `i` lands in slot `i`, so the
    /// output is byte-identical for every `jobs` value and every steal
    /// pattern; with `jobs <= 1` (or at most one item) this degenerates
    /// to a plain serial map running the same closure on the same items.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f` (the section still
    /// drains: every queued runner completes before the panic is
    /// re-raised on the caller).
    pub fn par_map<T, R, F>(&self, jobs: usize, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.par_map_waits(jobs, items, f).0
    }

    /// [`Pool::par_map`] that also measures each runner slot's barrier
    /// wait: the time between a runner finishing its last claimed item
    /// and the slowest runner reaching the section's completion latch.
    /// The second vector has one entry per runner slot and is empty when
    /// the map ran serially — no barrier, no wait.
    pub fn par_map_waits<T, R, F>(&self, jobs: usize, items: Vec<T>, f: F) -> (Vec<R>, Vec<u128>)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = jobs.max(1).min(n);
        if workers <= 1 || self.inner.shutdown.load(Ordering::Acquire) {
            let out = items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
            return (out, Vec::new());
        }
        self.ensure_workers(workers);
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let finished: Vec<Mutex<Option<Instant>>> =
            (0..workers).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let runner = |slot: usize| {
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let Some(item) = lock_clean(&slots[i]).take() else {
                    break;
                };
                match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(r) => *lock_clean(&results[i]) = Some(r),
                    Err(p) => {
                        let mut first = lock_clean(&panic);
                        if first.is_none() {
                            *first = Some(p);
                        }
                        break;
                    }
                }
            }
            *lock_clean(&finished[slot]) = Some(Instant::now());
        };
        self.run_runners(workers, &runner);
        if let Some(p) = lock_clean(&panic).take() {
            resume_unwind(p);
        }
        let join = Instant::now();
        let waits = finished
            .into_iter()
            .map(|m| {
                let t = m
                    .into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("runner recorded finish time");
                join.duration_since(t).as_nanos()
            })
            .collect();
        let out = results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("claimed item completed")
            })
            .collect();
        (out, waits)
    }

    /// Submits `runner(0) .. runner(k-1)` as pool tasks and blocks until
    /// all `k` have completed, executing queued tasks itself while it
    /// waits (the help is what makes nested sections deadlock-free).
    fn run_runners<F>(&self, k: usize, runner: &F)
    where
        F: Fn(usize) + Sync,
    {
        let latch = Arc::new(Latch {
            left: Mutex::new(k),
            cv: Condvar::new(),
        });
        // SAFETY: every submitted task signals `latch` before it is
        // dropped (`SignalOnDrop` runs even on unwind) and this function
        // does not return until the latch reaches zero, so the erased
        // reference never outlives the borrow it came from.
        let runner: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                runner as &(dyn Fn(usize) + Sync),
            )
        };
        for slot in 0..k {
            let latch = Arc::clone(&latch);
            self.inner.submit(Box::new(move || {
                let _signal = SignalOnDrop(latch);
                runner(slot);
            }));
        }
        // A worker blocked on its own nested join helps as *itself*: it
        // drains its own deque LIFO first (where its nested runner tasks
        // just landed) instead of stealing them FIFO — which used to be
        // both a locality loss and a steals-counter lie.
        let own_slot = self.inner.current_slot();
        loop {
            if *lock_clean(&latch.left) == 0 {
                break;
            }
            if let Some(t) = self.inner.find_task(own_slot) {
                self.inner.execute(t);
                continue;
            }
            let left = lock_clean(&latch.left);
            if *left == 0 {
                break;
            }
            // Sleep briefly, then re-scan: a task submitted by a nested
            // section could otherwise wait for a parked worker while this
            // thread — the only one guaranteed to be awake — idles.
            let _ = latch
                .cv
                .wait_timeout(left, Duration::from_millis(1))
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops the workers (after draining every queued task), joins their
    /// threads, and propagates any worker panic. Subsequent `par_map`
    /// calls on this pool run serially. Only meaningful for private
    /// [`Pool::new`] pools — the [`Pool::shared`] pool lives as long as
    /// the process.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            *lock_clean(&self.inner.wake) += 1;
        }
        self.inner.wake_cv.notify_all();
        let handles = std::mem::take(&mut *lock_clean(&self.inner.handles));
        for h in handles {
            if let Err(p) = h.join() {
                resume_unwind(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_is_input_ordered_for_every_jobs_value() {
        let pool = Pool::new(0);
        for jobs in [1, 2, 3, 8, 64] {
            let out = pool.par_map(jobs, (0..200u64).collect(), |i, v| {
                assert_eq!(i as u64, v);
                v * 3
            });
            assert_eq!(out, (0..200u64).map(|v| v * 3).collect::<Vec<_>>());
        }
        let empty: Vec<u64> = pool.par_map(4, Vec::new(), |_, v| v);
        assert!(empty.is_empty());
        pool.shutdown();
    }

    #[test]
    fn pool_grows_to_largest_request_and_counts_activity() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 0);
        pool.par_map(3, (0..16u32).collect(), |_, v| v);
        assert_eq!(pool.workers(), 3);
        pool.par_map(5, (0..16u32).collect(), |_, v| v);
        assert_eq!(pool.workers(), 5);
        // A serial map never touches the pool.
        let before = pool.stats();
        pool.par_map(1, (0..16u32).collect(), |_, v| v);
        let delta = pool.stats().since(&before);
        assert_eq!(delta.submitted, 0);
        assert_eq!(delta.executed, 0);
        let s = pool.stats();
        assert_eq!(s.submitted, s.executed, "all submitted tasks executed");
        assert_eq!(s.queue_depth.total, s.submitted);
        pool.shutdown();
    }

    #[test]
    fn nested_par_map_on_one_pool_does_not_deadlock() {
        let pool = Pool::new(2);
        let out = pool.par_map(2, (0..6u64).collect(), |_, v| {
            pool.par_map(2, (0..6u64).collect(), move |_, w| v * w)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, (0..6u64).map(|v| v * 15).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn work_item_panic_propagates_to_caller_and_pool_survives() {
        let pool = Pool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(2, (0..8u32).collect(), |_, v| {
                assert!(v != 5, "boom at {v}");
                v
            })
        }));
        assert!(r.is_err(), "panic was swallowed");
        // The pool is still usable afterwards.
        let out = pool.par_map(2, (0..8u32).collect(), |_, v| v + 1);
        assert_eq!(out, (1..9u32).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn stats_delta_isolates_a_region() {
        let pool = Pool::new(0);
        pool.par_map(4, (0..32u32).collect(), |_, v| v);
        let before = pool.stats();
        pool.par_map(4, (0..32u32).collect(), |_, v| v);
        let delta = pool.stats().since(&before);
        assert_eq!(delta.submitted, 4, "one runner task per slot");
        assert_eq!(delta.queue_depth.total, 4);
        pool.shutdown();
    }
}
