//! # em-pool
//!
//! A shared worker pool for the perturbation engine: a dependency-free
//! work queue over `std::thread`, consistent with the workspace's
//! hermetic-substrate rule (no external crates).
//!
//! The pool exists because perturbation-based explainers issue the same
//! shape of work over and over — "evaluate this closure for indices
//! `0..n`" — and spawning scoped threads per call both pays thread
//! start-up cost on every explanation and (with fixed equal-split
//! chunking) load-imbalances whenever task costs are heterogeneous.
//! Here, workers are started once and pull indices from a shared atomic
//! counter, so fast tasks never wait on slow ones and the threads are
//! reused across explainer calls.
//!
//! ## Determinism
//!
//! [`WorkerPool::run`] assigns each index exactly once and the task
//! writes results keyed by index, so outputs are independent of which
//! thread claims which index. Every caller in this workspace relies on
//! that: same seed → bitwise-identical results at any worker count.
//!
//! ## Re-entrancy
//!
//! A task executing on the pool may itself call [`WorkerPool::run`]
//! (pair-level parallelism in `em-eval` nests explainer query loops).
//! Nested calls are detected via a thread-local flag and executed
//! inline on the calling thread — never queued — so the pool cannot
//! deadlock on itself. A top-level call that finds another submitter's
//! batch holding the pool runs inline too, rather than waiting for it:
//! the other batch's tasks may be waiting on something the caller holds.
//!
//! ## Panics
//!
//! A panicking task is caught where it ran and counted as done, so the
//! batch still completes on every thread; once the pool is released,
//! `run` re-raises the first payload on the submitting thread.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, TryLockError};
use std::thread::JoinHandle;

thread_local! {
    /// True while this thread is executing pool tasks (worker threads
    /// while claiming, and the submitting thread while participating).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// One published batch of indexed tasks.
///
/// The closure pointer is lifetime-erased: [`WorkerPool::run`] does not
/// return until every claimed index has finished, so the pointee (a
/// closure on the submitter's stack) outlives every dereference.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    /// The submitter's span position at publication; workers adopt it so
    /// fanned-out work keeps accumulating under the submitting span.
    ctx: em_obs::SpanContext,
    /// Next index to claim.
    next: AtomicUsize,
    total: usize,
    /// Indices not yet completed; `run` returns when this hits zero.
    pending: AtomicUsize,
    /// Participant slots taken (the submitter holds slot 0).
    participants: AtomicUsize,
    /// Cap on participating threads (submitter included).
    max_participants: usize,
    /// The first task panic's payload, re-raised by `run` on the
    /// submitter once the batch is done.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: the raw closure pointer is only dereferenced between job
// publication and completion, during which `run` keeps the closure
// alive; the closure itself is `Sync` so shared calls are sound.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim and execute indices until the queue is exhausted.
    fn work(&self, shared: &Shared) {
        let _ctx = em_obs::enter_context(self.ctx);
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.total {
                return;
            }
            // SAFETY: see the Send/Sync justification above.
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                self.panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
            if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last task done: wake the submitter. Taking the lock
                // before notifying closes the lost-wakeup race with a
                // submitter that has checked `pending` but not yet
                // parked on the condvar.
                let _guard = shared.state.lock().unwrap();
                shared.done.notify_all();
            }
        }
    }
}

/// Condvar-protected pool state.
struct State {
    job: Option<Arc<Job>>,
    /// Bumped on every publication so a worker never re-enters a job it
    /// has already drained.
    epoch: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on publication and shutdown.
    wake: Condvar,
    /// Signalled when a job's last task completes.
    done: Condvar,
}

/// A fixed set of worker threads executing indexed task batches.
///
/// `run` is the only entry point. One batch holds the pool at a time,
/// and a submitter that finds it held runs its batch inline, so a pool
/// can be shared freely (e.g. the process-wide [`global`] pool).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Held by the batch that owns the pool; other submitters run
    /// inline rather than wait for it.
    issue: Mutex<()>,
}

impl WorkerPool {
    /// Start a pool with `workers` helper threads. The submitting
    /// thread always participates in `run`, so total parallelism is
    /// `workers + 1`. `workers == 0` is valid: every `run` executes
    /// inline.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("em-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            issue: Mutex::new(()),
        }
    }

    /// Number of helper threads (not counting submitters).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Execute `task(i)` for every `i in 0..total`, using at most
    /// `max_threads` threads (submitter included), and return once all
    /// indices have completed.
    ///
    /// Falls back to an inline sequential loop on the caller when:
    /// - `max_threads <= 1`, or the pool has no workers;
    /// - the batch is tiny (`total < 2`);
    /// - the call is nested inside a pool task;
    /// - another submitter's batch holds the pool. Waiting for it could
    ///   deadlock: its tasks may be blocked on a lock the caller holds.
    ///
    /// Results are keyed by index, so the path taken never shows in them.
    ///
    /// If a task panics, every other index still runs exactly once, and
    /// `run` then re-raises the first panic on the caller, with the pool
    /// released and ready for the next batch.
    pub fn run(&self, total: usize, max_threads: usize, task: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        // Counted before the inline-vs-pooled branch: the branch taken
        // depends on nesting (schedule-dependent under concurrent
        // submitters), but the number of batches and tasks does not.
        em_obs::counter!("pool/runs", 1);
        em_obs::counter!("pool/tasks", total as u64);
        let inline = || (0..total).for_each(task);
        let nested = IN_POOL.with(|f| f.get());
        if max_threads <= 1 || self.workers.is_empty() || nested || total < 2 {
            return inline();
        }
        let issue = match self.issue.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return inline(),
        };
        // SAFETY: erases the borrow's lifetime. `run` does not return
        // until `pending` reaches zero, i.e. after the last dereference,
        // and the trailing `state.job = None` drop of the published Arc
        // means no worker can observe this job afterwards.
        let task_erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
        };
        let job = Arc::new(Job {
            task: task_erased as *const (dyn Fn(usize) + Sync),
            ctx: em_obs::current_context(),
            next: AtomicUsize::new(0),
            total,
            pending: AtomicUsize::new(total),
            participants: AtomicUsize::new(1),
            max_participants: max_threads.max(1),
            panic: Mutex::new(None),
        });

        {
            let mut state = self.shared.state.lock().unwrap();
            state.job = Some(Arc::clone(&job));
            state.epoch = state.epoch.wrapping_add(1);
            self.shared.wake.notify_all();
        }

        // Participate: the submitter is participant 0.
        IN_POOL.with(|f| f.set(true));
        job.work(&self.shared);
        IN_POOL.with(|f| f.set(false));

        // Wait for workers still finishing claimed indices.
        let mut state = self.shared.state.lock().unwrap();
        while job.pending.load(Ordering::SeqCst) != 0 {
            state = self.shared.done.wait(state).unwrap();
        }
        state.job = None;
        drop(state);
        drop(issue);
        let panicked = job
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    }

    /// Execute `task(i)` for every `i in 0..total` in consecutive
    /// bounded batches of at most `batch` indices, with a barrier
    /// between batches. The streaming pipeline shards its candidate
    /// stream this way so at most `batch` tasks' worth of intermediate
    /// state is ever live at once — the memory bound that keeps peak
    /// RSS flat regardless of `total`.
    ///
    /// Index assignment is identical to `total/batch` successive
    /// [`WorkerPool::run`] calls, so the determinism contract (outputs
    /// keyed by index, independent of thread count) carries over.
    pub fn run_batched(
        &self,
        total: usize,
        batch: usize,
        max_threads: usize,
        task: &(dyn Fn(usize) + Sync),
    ) {
        let batch = batch.max(1);
        let mut start = 0;
        while start < total {
            let len = batch.min(total - start);
            self.run(len, max_threads, &|i| task(start + i));
            start += len;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL.with(|f| f.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = &state.job {
                    if state.epoch != seen_epoch {
                        seen_epoch = state.epoch;
                        break Arc::clone(job);
                    }
                }
                state = shared.wake.wait(state).unwrap();
            }
        };
        // Respect the job's thread cap: claim a participant slot or
        // skip the job entirely (the epoch is already marked seen).
        if job.participants.fetch_add(1, Ordering::SeqCst) < job.max_participants {
            job.work(shared);
        }
    }
}

/// The process-wide pool, sized to the machine: one helper thread fewer
/// than `available_parallelism`, as the submitting thread supplies the
/// last lane.
/// Callers pass their own `max_threads` to [`WorkerPool::run`], so a
/// budget of 1 still executes inline regardless of pool size.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let lanes = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        WorkerPool::new(lanes.saturating_sub(1))
    })
}

/// The thread budget a `threads: 0` ("auto") option resolves to: every
/// helper thread of the [`global`] pool plus the submitting thread.
pub fn default_threads() -> usize {
    global().workers() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    fn collect_squares(pool: &WorkerPool, n: usize, threads: usize) -> Vec<u64> {
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run(n, threads, &|i| {
            out[i].store((i as u64) * (i as u64) + 1, Ordering::SeqCst);
        });
        out.into_iter().map(|a| a.into_inner()).collect()
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        for n in [1usize, 2, 7, 64, 257] {
            let got = collect_squares(&pool, n, 4);
            let want: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        assert_eq!(collect_squares(&pool, 10, 8), collect_squares(&pool, 10, 1));
    }

    #[test]
    fn pool_is_reusable_across_many_batches() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(17, 3, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50 * 17);
    }

    #[test]
    fn nested_runs_execute_inline_without_deadlock() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.run(8, 4, &|_| {
            pool.run(5, 4, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 5);
    }

    #[test]
    fn thread_cap_is_respected() {
        let pool = WorkerPool::new(7);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run(64, 2, &|_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak concurrency {} exceeded cap 2",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn batched_run_covers_every_index_once() {
        let pool = WorkerPool::new(3);
        for (n, batch) in [(0usize, 4usize), (1, 4), (10, 3), (12, 4), (257, 64)] {
            let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run_batched(n, batch, 4, &|i| {
                out[i].fetch_add(i as u64 + 1, Ordering::SeqCst);
            });
            let got: Vec<u64> = out.into_iter().map(|a| a.into_inner()).collect();
            let want: Vec<u64> = (1..=n as u64).collect();
            assert_eq!(got, want, "n={n} batch={batch}");
        }
    }

    #[test]
    fn global_pool_is_shared_and_alive() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        let counter = AtomicUsize::new(0);
        global().run(9, 4, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 9);
    }

    /// Run `f` on its own thread and fail if it has not finished within
    /// `secs`: a deadlocked or hung pool fails the test instead of
    /// hanging the suite.
    fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(()) => runner.join().unwrap(),
            // The runner panicked: re-raise its assertion.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("timed out after {secs} s")
            }
        }
    }

    fn on_worker() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("em-pool-"))
    }

    /// Mark the side this task runs on, then wait until tasks have
    /// started on both the submitter and the worker: a batch of a
    /// one-worker pool is forced onto both threads without relying on
    /// timing. A pool that never reaches its worker fails `within`.
    fn meet(sides: &[AtomicBool; 2]) {
        sides[usize::from(on_worker())].store(true, Ordering::SeqCst);
        while !sides.iter().all(|side| side.load(Ordering::SeqCst)) {
            std::thread::yield_now();
        }
    }

    /// A one-worker pool runs a batch whose first task on the chosen
    /// side panics; `run` must re-raise it only after every index ran
    /// once, and then run clean batches on both threads, from this
    /// thread and from another.
    fn panicking_task_is_reraised_and_the_pool_survives(panic_on_worker: bool) {
        within(30, move || {
            let pool = WorkerPool::new(1);
            let n = 64;
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let sides = [AtomicBool::new(false), AtomicBool::new(false)];
            let fired = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(n, 2, &|i| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    meet(&sides);
                    if on_worker() == panic_on_worker && !fired.swap(true, Ordering::SeqCst) {
                        panic!("task {i} failed");
                    }
                });
            }));
            let payload = caught.expect_err("the task's panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.starts_with("task "), "{message}");
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(r.load(Ordering::SeqCst), 1, "index {i}");
            }

            let clean_batch = |pool: &WorkerPool| {
                let sides = [AtomicBool::new(false), AtomicBool::new(false)];
                pool.run(n, 2, &|_| meet(&sides));
            };
            clean_batch(&pool);
            std::thread::scope(|scope| {
                scope.spawn(|| clean_batch(&pool));
            });
        });
    }

    #[test]
    fn a_task_panic_on_the_submitter_is_reraised_and_the_pool_survives() {
        panicking_task_is_reraised_and_the_pool_survives(false);
    }

    #[test]
    fn a_task_panic_on_a_worker_is_reraised_and_the_pool_survives() {
        panicking_task_is_reraised_and_the_pool_survives(true);
    }

    /// Thread A holds a mutex and submits a batch while a task of thread
    /// B's batch, which holds the pool, waits for that mutex. A must run
    /// its batch inline instead of waiting for the pool.
    #[test]
    fn a_submitter_never_waits_for_another_submitters_batch() {
        within(30, || {
            let pool = WorkerPool::new(1);
            let m = Mutex::new(());
            let (a_holds_m, b_may_start) = std::sync::mpsc::channel();
            let (b_task_waits, a_may_submit) = std::sync::mpsc::channel();
            let a_ran = AtomicUsize::new(0);
            let (pool, m, a_ran_ref) = (&pool, &m, &a_ran);
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _held = m.lock().unwrap();
                    a_holds_m.send(()).unwrap();
                    a_may_submit.recv().unwrap();
                    pool.run(8, 2, &|_| {
                        a_ran_ref.fetch_add(1, Ordering::SeqCst);
                    });
                });
                scope.spawn(move || {
                    b_may_start.recv().unwrap();
                    pool.run(2, 2, &|i| {
                        if i == 0 {
                            b_task_waits.send(()).unwrap();
                            drop(m.lock().unwrap());
                        }
                    });
                });
            });
            assert_eq!(a_ran.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn results_do_not_depend_on_worker_count() {
        let want: Vec<u64> = (0..199u64).map(|i| i * i + 1).collect();
        for workers in [0usize, 1, 2, 7] {
            let pool = WorkerPool::new(workers);
            assert_eq!(collect_squares(&pool, 199, 8), want, "workers={workers}");
        }
    }
}
