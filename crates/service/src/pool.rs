//! A fixed-size thread pool over `std::sync` primitives (no external
//! dependencies): one shared job queue, workers parked on a condvar, and
//! one fan-out primitive ([`ThreadPool::scatter`]) that the thread asking
//! for it works on too.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::sync::{lock_clean, wait_clean};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared job queue. An idle worker waits on `ready` — never inside
/// the mutex — so a queued job wakes exactly one thread, and none when
/// every worker is busy.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Workers waiting on `ready`.
    idle: usize,
    /// The pool is dropping: workers exit once `jobs` runs dry.
    closed: bool,
}

impl Queue {
    /// The next job, waiting for one if need be; `None` once the pool has
    /// closed and every queued job has been handed out.
    fn next(&self) -> Option<Job> {
        let mut state = lock_clean(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            state = wait_clean(&self.ready, state);
            state.idle -= 1;
        }
    }
}

/// One [`ThreadPool::scatter`] call: the job, the cursor its workers claim
/// indices from, and the result slots with a count of how many are in.
struct Scatter<T, F> {
    len: usize,
    job: F,
    next: AtomicUsize,
    results: Mutex<(Vec<Option<T>>, usize)>,
    all_in: Condvar,
}

impl<T, F: Fn(usize) -> T> Scatter<T, F> {
    /// Claims and runs jobs until the cursor runs out. A panicking job
    /// leaves `None` in its slot and is counted like any other, so the
    /// caller's wait always ends.
    fn work(&self) {
        loop {
            // ordering: Relaxed — the cursor only deals out distinct
            // indices; results are published under the `results` mutex.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            let out = catch_unwind(AssertUnwindSafe(|| (self.job)(i))).ok();
            let mut results = lock_clean(&self.results);
            if let Some(slot) = results.0.get_mut(i) {
                *slot = out;
            }
            results.1 += 1;
            if results.1 == self.len {
                self.all_in.notify_one();
            }
        }
    }
}

/// Runs `job(0) .. job(len - 1)` on the calling thread and returns their
/// results in index order, `None` where a job panicked: what
/// [`ThreadPool::scatter`] does when it takes no helper, for a caller that
/// has no pool at hand.
pub(crate) fn run_each<T>(len: usize, job: impl Fn(usize) -> T) -> Vec<Option<T>> {
    (0..len)
        .map(|i| catch_unwind(AssertUnwindSafe(|| job(i))).ok())
        .collect()
}

/// Fixed worker pool. Jobs run in submission order per worker pickup;
/// ordered fan-out goes through [`ThreadPool::scatter`].
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    queue: Arc<Queue>,
}

impl ThreadPool {
    /// Spawns `threads` workers (0 = one per available core).
    pub fn new(threads: usize) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let queue = Arc::new(Queue::default());
        // A failed spawn (thread exhaustion) degrades the pool instead of
        // panicking: remaining workers carry the load, and if none spawned
        // at all, `execute` runs jobs inline on the caller.
        let workers = (0..threads)
            .filter_map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("ustr-service-{i}"))
                    .spawn(move || {
                        // A panicking job loses its own result, never its
                        // worker: the unwind stops here and the thread goes
                        // back to the queue.
                        while let Some(job) = queue.next() {
                            drop(catch_unwind(AssertUnwindSafe(job)));
                        }
                    })
                    .ok()
            })
            .collect();
        Self { workers, queue }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one job. If no worker ever spawned, the job runs inline on
    /// the caller: slower, but every submitted job still completes exactly
    /// once.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if self.workers.is_empty() {
            return job();
        }
        let wake = {
            let mut state = lock_clean(&self.queue.state);
            state.jobs.push_back(Box::new(job));
            state.idle > 0
        };
        if wake {
            self.queue.ready.notify_one();
        }
    }

    /// Runs `job(0) .. job(len - 1)` and returns their results in index
    /// order, `None` where a job panicked. The calling thread claims jobs
    /// from a shared cursor beside at most `min(len - 1, threads, helpers)`
    /// helper tickets on the queue, and the call returns once `len` results
    /// are counted in — so it completes even when every worker is busy, and
    /// a job running *on* the pool may scatter onto it. A ticket that
    /// starts late finds the cursor spent and returns at once. With
    /// `helpers == 0` — a fan-out expected to cost less than waking a
    /// worker does — the caller runs every job itself and touches neither
    /// the queue nor any other thread.
    pub fn scatter<T, F>(&self, len: usize, helpers: usize, job: F) -> Vec<Option<T>>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let tickets = len.saturating_sub(1).min(self.threads()).min(helpers);
        if tickets == 0 {
            return run_each(len, job);
        }
        let scatter = Arc::new(Scatter {
            len,
            job,
            next: AtomicUsize::new(0),
            results: Mutex::new(((0..len).map(|_| None).collect(), 0)),
            all_in: Condvar::new(),
        });
        for _ in 0..tickets {
            let scatter = Arc::clone(&scatter);
            self.execute(move || scatter.work());
        }
        scatter.work();
        let mut results = lock_clean(&scatter.results);
        while results.1 < len {
            results = wait_clean(&scatter.all_in, results);
        }
        std::mem::take(&mut results.0)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the queue makes every worker exit once it runs dry.
        lock_clean(&self.queue.state).closed = true;
        self.queue.ready.notify_all();
        // A job may hold the last handle to this pool's owner, so the drop
        // can run *on* a worker. That thread cannot join itself; it exits
        // on its own when the job returns and it finds the queue closed.
        let current = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != current {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Barrier;
    use std::time::Duration;

    /// Runs `test` on its own thread and fails — instead of hanging the
    /// suite — when it deadlocks (or panics).
    fn watchdog(test: impl FnOnce() + Send + 'static) {
        let (done, finished) = channel();
        std::thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the test body deadlocked or panicked");
    }

    fn squares(len: usize) -> Vec<Option<usize>> {
        (0..len).map(|i| Some(i * i)).collect()
    }

    #[test]
    fn a_panicking_job_does_not_cost_the_pool_its_worker() {
        watchdog(|| {
            let pool = ThreadPool::new(1);
            pool.execute(|| panic!("injected job panic"));
            let (ran_on, reported) = channel();
            pool.execute(move || ran_on.send(std::thread::current().id()).unwrap());
            // Still a pool thread — not the inline fallback on the caller.
            assert_ne!(reported.recv().unwrap(), std::thread::current().id());
        });
    }

    #[test]
    fn a_pool_job_scatters_onto_its_own_busy_pool() {
        // The pool's only worker is the one asking: unless the caller
        // works its own fan-out, nobody ever will.
        watchdog(|| {
            let pool = Arc::new(ThreadPool::new(1));
            let (tx, rx) = channel();
            let handle = Arc::clone(&pool);
            pool.execute(move || tx.send(handle.scatter(8, usize::MAX, |i| i * i)).unwrap());
            assert_eq!(rx.recv().unwrap(), squares(8));
        });
    }

    #[test]
    fn two_pool_jobs_scatter_at_once_on_a_two_thread_pool() {
        watchdog(|| {
            let pool = Arc::new(ThreadPool::new(2));
            // Both workers are inside a job before either scatters.
            let both_running = Arc::new(Barrier::new(2));
            let (tx, rx) = channel();
            for _ in 0..2 {
                let (handle, both_running, tx) =
                    (Arc::clone(&pool), Arc::clone(&both_running), tx.clone());
                pool.execute(move || {
                    both_running.wait();
                    tx.send(handle.scatter(8, usize::MAX, |i| i * i)).unwrap();
                });
            }
            assert_eq!(rx.recv().unwrap(), squares(8));
            assert_eq!(rx.recv().unwrap(), squares(8));
        });
    }

    #[test]
    fn a_panicking_scatter_job_leaves_none_in_its_slot() {
        watchdog(|| {
            let pool = ThreadPool::new(2);
            let got = pool.scatter(5, usize::MAX, |i| {
                assert!(i != 2, "injected scatter panic");
                i
            });
            assert_eq!(got, vec![Some(0), Some(1), None, Some(3), Some(4)]);
            assert!(pool.scatter(0, usize::MAX, |i| i).is_empty());
        });
    }

    #[test]
    fn zero_helpers_keeps_the_whole_fan_out_on_the_caller() {
        watchdog(|| {
            let pool = ThreadPool::new(2);
            let caller = std::thread::current().id();
            let got = pool.scatter(5, 0, move |i| {
                assert!(i != 2, "injected scatter panic");
                std::thread::current().id() == caller
            });
            assert_eq!(
                got,
                vec![Some(true), Some(true), None, Some(true), Some(true)]
            );
        });
    }

    #[test]
    fn the_last_handle_can_drop_inside_a_job() {
        watchdog(|| {
            let pool = Arc::new(ThreadPool::new(2));
            let (release, released) = channel::<()>();
            let (done, finished) = channel();
            let last = Arc::clone(&pool);
            pool.execute(move || {
                released.recv().unwrap();
                drop(last); // ThreadPool::drop, on one of its own workers
                done.send(()).unwrap();
            });
            drop(pool);
            release.send(()).unwrap();
            finished.recv().unwrap();
        });
    }

    #[test]
    fn runs_every_job_across_workers() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (done, results) = channel();
        for i in 0..100usize {
            let counter = Arc::clone(&counter);
            let done = done.clone();
            pool.execute(move || {
                counter.fetch_add(i, Ordering::SeqCst);
                done.send(()).unwrap();
            });
        }
        for _ in 0..100 {
            results.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), (0..100).sum());
    }

    #[test]
    fn zero_threads_means_one_per_core() {
        let pool = ThreadPool::new(0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(pool.threads(), cores);
        let (done, results) = channel();
        pool.execute(move || done.send(42).unwrap());
        assert_eq!(results.recv().unwrap(), 42);
    }

    #[test]
    fn drop_joins_cleanly_with_queued_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Dropping waits for workers; queued jobs all run first because
            // a worker exits only once the closed queue has run dry.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }
}
