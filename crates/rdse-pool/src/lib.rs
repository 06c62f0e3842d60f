//! Persistent thread pool for the rdse workspace.
//!
//! The portfolio segments of `explore_parallel`, the corpus runner's
//! scenario fan-out and the serve worker shards used to spin up their
//! own threads, so thread creation was paid once per barrier. [`Pool`]
//! pays it once per process: a fixed set of workers parks on a
//! condition variable and drains two kinds of queues:
//!
//! * a shared **injector** fed by [`Pool::run`], and
//! * a per-worker **pinned** lane fed by [`Pool::submit_pinned`].
//!   Jobs pinned to the same lane execute serially in submission order
//!   on that lane's worker, which is what the serve front-end's shard
//!   routing relies on.
//!
//! A worker pops its pinned lane first, then the injector.
//!
//! # Design notes
//!
//! All queues live under a **single mutex**. Jobs in this workspace are
//! coarse (an annealing segment, a corpus scenario, a served job —
//! milliseconds to seconds each), so queue traffic is far too cold for
//! per-queue locks or lock-free deques to matter; one lock keeps the
//! invariants trivially auditable.
//!
//! [`Pool::run`] is a *scoped* barrier: it accepts non-`'static`
//! closures, blocks until all of them ran, and while blocked the
//! calling thread **helps drain the injector** instead of idling.
//! Helping makes nested fan-out (a corpus scenario running on the pool
//! that itself runs a portfolio on the pool) deadlock-free: a waiting
//! caller always either executes a queued job or sleeps with the
//! injector empty. It never takes a job from a pinned lane, whose jobs
//! must run on their own worker, in order.
//!
//! A panicking task fails its own scope ([`Pool::run`] re-raises the
//! first payload after the barrier) without taking down any worker
//! thread.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    injector: VecDeque<Job>,
    pinned: Vec<VecDeque<Job>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    available: Condvar,
}

/// Ignore mutex poisoning: queue operations never unwind while holding
/// the lock (job bodies run outside it), so a poisoned lock still
/// guards a consistent queue state.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    /// Parks until the next queue change, ignoring poisoning as [`lock`] does.
    fn wait<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.available.wait(st).unwrap_or_else(|e| e.into_inner())
    }

    fn worker_main(self: Arc<Self>, w: usize) {
        let mut st = lock(&self.state);
        loop {
            let job = st.pinned[w].pop_front().or_else(|| st.injector.pop_front());
            if let Some(job) = job {
                drop(st);
                // Containment: a panicking fire-and-forget job (pinned
                // lane) must not take the worker down. Scoped jobs
                // catch their own panics and re-raise at the barrier.
                let _ = catch_unwind(AssertUnwindSafe(job));
                st = lock(&self.state);
            } else if st.shutdown {
                // Drain-then-exit: only leave once nothing is poppable.
                break;
            } else {
                st = self.wait(st);
            }
        }
    }
}

/// A persistent pool of worker threads. See the [crate docs](crate)
/// for the queueing model.
///
/// Dropping the pool drains every queue (pinned lanes included) and
/// joins the workers, so fire-and-forget work submitted before the
/// drop still runs — the serve front-end's drain-then-exit shutdown is
/// exactly this `Drop`.
pub struct Pool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl Pool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                injector: VecDeque::new(),
                pinned: (0..threads).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rdse-pool-{w}"))
                    .spawn(move || inner.worker_main(w))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { inner, handles }
    }

    /// The process-wide shared pool, sized to the machine's available
    /// parallelism. Created on first use; lives for the process.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Pool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Runs `tasks` to completion on the pool (a scoped barrier).
    ///
    /// The calling thread helps drain the injector while it waits, so
    /// this may be called from inside a pool job without deadlocking.
    /// If any task panics, the remaining tasks still run and the first
    /// panic payload is re-raised here after the barrier; the workers
    /// survive.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let remaining = AtomicUsize::new(tasks.len());
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

        {
            let mut st = lock(&self.inner.state);
            for task in tasks {
                let remaining = &remaining;
                let first_panic = &first_panic;
                let inner = &*self.inner;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    remaining.fetch_sub(1, Ordering::Release);
                    // Wake the owner without a missed-wakeup window: it
                    // holds the state lock from its latch check until it
                    // parks, so acquiring the lock here serializes this
                    // notify against that check.
                    let _guard = lock(&inner.state);
                    inner.available.notify_all();
                });
                // SAFETY: the job only borrows `tasks`' captures, the
                // latch and the pool, all of which outlive the barrier
                // below — this function does not return (or unwind)
                // until `remaining` hits zero, and nothing between here
                // and the barrier panics (queue pushes aside, which
                // would abort on OOM rather than unwind).
                let job: Job = unsafe { std::mem::transmute(job) };
                st.injector.push_back(job);
            }
            self.inner.available.notify_all();
        }

        let mut st = lock(&self.inner.state);
        while remaining.load(Ordering::Acquire) != 0 {
            if let Some(job) = st.injector.pop_front() {
                drop(st);
                // Queued jobs are wrappers that catch their own panics;
                // this call cannot unwind past the barrier.
                job();
                st = lock(&self.inner.state);
            } else {
                st = self.inner.wait(st);
            }
        }
        drop(st);

        let payload = first_panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Enqueues a fire-and-forget job on worker lane `lane % threads`.
    ///
    /// Jobs pinned to the same lane run serially in submission order on
    /// that lane's worker, and nothing else ever runs them — per-lane
    /// state needs no locking against other jobs of the same lane. A
    /// panicking job is contained by the worker (the lane keeps
    /// draining).
    pub fn submit_pinned<F: FnOnce() + Send + 'static>(&self, lane: usize, job: F) {
        let mut st = lock(&self.inner.state);
        let lane = lane % st.pinned.len();
        st.pinned[lane].push_back(Box::new(job));
        self.inner.available.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            self.inner.available.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Boxes `f` as a scoped pool task.
    fn task<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn scoped_run_borrows_stack_data() {
        let pool = Pool::new(2);
        let mut data = [0u64; 8];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = i as u64 + 1;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(data, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn panicking_task_fails_its_scope_not_the_pool() {
        let pool = Pool::new(2);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("boom")),
                Box::new(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
                Box::new(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
            ];
            pool.run(tasks);
        }));
        assert!(result.is_err(), "panic must propagate to the scope owner");
        // The sibling tasks still ran and the pool is still alive.
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        let mut sums = [0; 2];
        let [a, b] = &mut sums;
        pool.run(vec![task(|| *a = 1 + 1), task(|| *b = 2 + 2)]);
        assert_eq!(sums, [2, 4]);
    }

    #[test]
    fn panicking_pinned_job_does_not_kill_the_lane() {
        let pool = Pool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        pool.submit_pinned(0, || panic!("pinned boom"));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            pool.submit_pinned(0, move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Drop drains the lane before joining the worker.
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pinned_jobs_on_one_lane_run_in_submission_order() {
        let pool = Pool::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32 {
            let log = Arc::clone(&log);
            pool.submit_pinned(1, move || {
                log.lock().unwrap().push(i);
            });
        }
        drop(pool);
        let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
        assert_eq!(log, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_run_inside_a_pinned_job_never_runs_pinned_work() {
        let pool = Arc::new(Pool::new(2));
        // Each lane-0 job reports `(job id, whether the scoped run was
        // still waiting when it ran)` in the order the jobs ran.
        let (log_tx, log_rx) = std::sync::mpsc::channel();
        let waiting = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (queued_tx, queued_rx) = std::sync::mpsc::channel::<()>();
        {
            let (p, log_tx, waiting) = (Arc::clone(&pool), log_tx.clone(), Arc::clone(&waiting));
            pool.submit_pinned(0, move || {
                // Hold the lane until the later lane-0 jobs are queued,
                // so the scoped run below waits with them pending.
                queued_rx.recv().unwrap();
                waiting.store(true, Ordering::SeqCst);
                let tasks = (0..8)
                    .map(|_| task(|| std::thread::sleep(std::time::Duration::from_millis(2))))
                    .collect();
                p.run(tasks);
                drop(p);
                waiting.store(false, Ordering::SeqCst);
                log_tx.send((0, false)).unwrap();
            });
        }
        for i in 1..=6 {
            let (log_tx, waiting) = (log_tx.clone(), Arc::clone(&waiting));
            pool.submit_pinned(0, move || {
                log_tx.send((i, waiting.load(Ordering::SeqCst))).unwrap();
            });
        }
        queued_tx.send(()).unwrap();
        let log: Vec<_> = (0..=6).map(|_| log_rx.recv().unwrap()).collect();
        let expected: Vec<_> = (0..=6).map(|i| (i, false)).collect();
        assert_eq!(log, expected);
        // Job 0 released its handle before reporting, so this thread
        // owns the last one and the drop joins the workers here.
        drop(Arc::try_unwrap(pool).expect("no job holds the pool any more"));
    }

    #[test]
    fn nested_run_from_a_worker_does_not_deadlock() {
        let pool = Pool::new(2);
        let pool = &pool;
        // Saturate the pool with jobs that themselves fan out: the
        // inner barrier must help-drain rather than park forever.
        let mut totals = [0i32; 4];
        let tasks = totals
            .iter_mut()
            .enumerate()
            .map(|(i, total)| {
                task(move || {
                    let i = i as i32;
                    let mut parts = [0i32; 8];
                    pool.run(
                        parts
                            .iter_mut()
                            .enumerate()
                            .map(|(j, part)| task(move || *part = i * 8 + j as i32))
                            .collect(),
                    );
                    *total = parts.iter().sum();
                })
            })
            .collect();
        pool.run(tasks);
        let expected: Vec<i32> = (0..4).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(totals.to_vec(), expected);
    }

    #[test]
    fn single_thread_pool_still_completes_scoped_work() {
        let pool = Pool::new(1);
        let mut out = [0; 16];
        pool.run(
            out.iter_mut()
                .enumerate()
                .map(|(i, slot)| task(move || *slot = i * 3))
                .collect(),
        );
        assert_eq!(out.to_vec(), (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }
}
