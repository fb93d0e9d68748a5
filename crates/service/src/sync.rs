//! Poison-recovering wrappers over `std::sync` locking.
//!
//! The serving crates must not panic (see `INVARIANTS.md`): a panicking
//! worker poisons every mutex it holds, and `lock().unwrap()` then turns
//! one dead request into a cascade that takes the whole server down. These
//! helpers recover the guard from a poisoned lock instead. That is sound
//! here because every critical section in this workspace either (a) only
//! reads, (b) writes a single field atomically-enough that a torn update is
//! impossible, or (c) is followed by validation that treats inconsistent
//! state as a per-request error — and the alternative (propagating the
//! poison) is strictly worse: it converts one failure into total outage.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] that recovers the guard on poison.
pub fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A multi-producer queue that *wakes* its single consumer instead of
/// blocking it: every push from a pool worker (or any thread) lands under a
/// short lock, and the transition from empty to non-empty fires a
/// caller-supplied wake callback — in the network server, a poller waker
/// that interrupts the event loop's `wait`.
///
/// This is the pool→event-loop handoff primitive: a request job on the
/// engine's [`ThreadPool`] finishes its query, pushes the framed response
/// here, and the event loop (which must never block on a channel — it
/// blocks *only* in the poller) drains the whole batch on its next pass.
/// Wakes are coalesced: pushes onto an already-non-empty queue skip the
/// callback, because the consumer drains everything at once and a pending
/// wake is already in flight. The consumer must therefore always
/// [`WakeQueue::drain`] to empty — draining partially could strand items
/// until the next unrelated wake.
///
/// [`ThreadPool`]: crate::ThreadPool
pub struct WakeQueue<T> {
    items: Mutex<std::collections::VecDeque<T>>,
    wake: Box<dyn Fn() + Send + Sync>,
}

impl<T> WakeQueue<T> {
    /// Creates an empty queue whose empty→non-empty transitions call
    /// `wake`. The callback runs on the pushing thread with no lock held,
    /// so it may do small amounts of I/O (a waker datagram) but must not
    /// block indefinitely.
    pub fn new(wake: impl Fn() + Send + Sync + 'static) -> Self {
        Self {
            items: Mutex::new(std::collections::VecDeque::new()),
            wake: Box::new(wake),
        }
    }

    /// Enqueues `item`; fires the wake callback when the queue was empty.
    pub fn push(&self, item: T) {
        let was_empty = {
            let mut items = lock_clean(&self.items);
            let was_empty = items.is_empty();
            items.push_back(item);
            was_empty
        };
        if was_empty {
            (self.wake)();
        }
    }

    /// Takes everything queued so far (possibly nothing — wakes coalesce,
    /// and a poller can wake for other reasons).
    pub fn drain(&self) -> std::collections::VecDeque<T> {
        std::mem::take(&mut *lock_clean(&self.items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_clean_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7usize));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_clean(&m), 7);
    }

    #[test]
    fn wake_queue_wakes_once_per_empty_to_nonempty_transition() {
        let wakes = Arc::new(Mutex::new(0usize));
        let counter = Arc::clone(&wakes);
        let queue = WakeQueue::new(move || *counter.lock().unwrap() += 1);

        queue.push(1);
        queue.push(2);
        queue.push(3);
        assert_eq!(*wakes.lock().unwrap(), 1, "pushes onto non-empty coalesce");
        assert_eq!(queue.drain().into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);

        queue.push(4);
        assert_eq!(*wakes.lock().unwrap(), 2, "a drained queue wakes again");
        assert_eq!(queue.drain().into_iter().collect::<Vec<_>>(), vec![4]);
        assert!(queue.drain().is_empty(), "draining empty is a no-op");
    }

    #[test]
    fn wake_queue_collects_pushes_from_many_threads() {
        let wakes = Arc::new(Mutex::new(0usize));
        let counter = Arc::clone(&wakes);
        let queue = Arc::new(WakeQueue::new(move || *counter.lock().unwrap() += 1));

        let mut handles = Vec::new();
        for t in 0..8 {
            let queue = Arc::clone(&queue);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    queue.push(t * 100 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<i32> = queue.drain().into_iter().collect();
        all.sort_unstable();
        assert_eq!(all.len(), 800, "every push survives");
        assert_eq!(all.first(), Some(&0));
        assert_eq!(all.last(), Some(&799));
        let woke = *wakes.lock().unwrap();
        assert!((1..=800).contains(&woke), "wakes are coalesced, never lost");
    }
}
