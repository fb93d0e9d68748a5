//! A fixed-size thread pool over `std::sync` primitives (no external
//! dependencies): one shared job queue, workers parked on a channel.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::sync::lock_clean;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed worker pool. Jobs run in submission order per worker pickup;
/// callers that need ordered results tag jobs with their own indices.
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    sender: Option<Sender<Job>>,
}

impl ThreadPool {
    /// Spawns `threads` workers (0 = one per available core).
    pub fn new(threads: usize) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let (sender, receiver): (Sender<Job>, Receiver<Job>) = channel();
        let receiver = Arc::new(Mutex::new(receiver));
        // A failed spawn (thread exhaustion) degrades the pool instead of
        // panicking: remaining workers carry the load, and if none spawned
        // at all, `execute` runs jobs inline on the caller.
        let workers = (0..threads)
            .filter_map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("ustr-service-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = lock_clean(&receiver);
                            guard.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // sender dropped: shut down
                        }
                    })
                    .ok()
            })
            .collect();
        Self {
            workers,
            sender: Some(sender),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one job. If the workers are gone (none spawned, or every
    /// one exited), the job runs inline on the caller: slower, but every
    /// submitted job still completes exactly once.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        match &self.sender {
            Some(sender) => {
                if let Err(returned) = sender.send(job) {
                    (returned.0)();
                }
            }
            None => job(),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's recv() fail and exit.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
            // the channel drains before recv() errors.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }
}
