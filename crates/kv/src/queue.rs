//! Bounded per-shard request queues, the shard claim, and the wakeup
//! gate.
//!
//! Each shard owns one [`BoundedQueue`]; connection threads are the
//! producers. The bound is the service's backpressure: a full queue
//! makes [`BoundedQueue::try_push`] fail immediately and the connection
//! replies `BUSY` (load shedding) instead of buffering without limit.
//!
//! The consumer is whichever producer *claims* the queue. A producer
//! pushes its item first and then calls [`BoundedQueue::try_claim`];
//! the claim succeeds only while no other thread holds it. The owner
//! drains until it sees the queue empty and then
//! [`BoundedQueue::release`]s the claim, which fails (the claim is
//! kept) if an item arrived in between. The `owned` flag, the items and
//! the release test share one mutex, so no item is ever stranded: a
//! producer whose claim failed pushed *before* that attempt, and the
//! owner that made it fail sees the item before it can release.
//!
//! A [`Gate`] is a one-waiter eventcount: `notify` sets a flag and
//! wakes the waiter, `wait` blocks until the flag is set and clears it.
//! A notify that races ahead of the wait just leaves the flag set, so
//! wakeups can be spurious but never lost.

use std::collections::VecDeque;

use hcf_util::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity (backpressure — shed the request).
    Full(T),
    /// The queue was closed for shutdown.
    Closed(T),
}

#[derive(Debug)]
struct QueueState<T> {
    buf: VecDeque<T>,
    closed: bool,
    /// Some thread holds the consumer claim.
    owned: bool,
}

/// A bounded MPSC queue with a consumer claim. Producers never block;
/// the claim's holder drains non-blockingly.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(QueueState {
                buf: VecDeque::with_capacity(cap),
                closed: false,
                owned: false,
            }),
            cap,
        }
    }

    /// Enqueues `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.state.lock();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.buf.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        g.buf.push_back(item);
        Ok(())
    }

    /// Moves up to `max` items into `out`. Returns `false` once the
    /// queue is closed — but items queued before the close are still
    /// drained first, so a `false` with an empty `out` means fully
    /// drained *and* closed: the consumer may retire this queue.
    pub fn drain(&self, max: usize, out: &mut Vec<T>) -> bool {
        let mut g = self.state.lock();
        let n = g.buf.len().min(max);
        out.extend(g.buf.drain(..n));
        !g.closed
    }

    /// Takes the consumer claim if no thread holds it. Closing the
    /// queue does not stop claims: items pushed before the close still
    /// need a consumer.
    pub fn try_claim(&self) -> bool {
        let mut g = self.state.lock();
        !std::mem::replace(&mut g.owned, true)
    }

    /// Gives the claim back if the queue is empty. Returns `false`, with
    /// the claim still held, when items are queued: the caller must
    /// drain them and try again.
    pub fn release(&self) -> bool {
        let mut g = self.state.lock();
        let released = g.buf.is_empty();
        if released {
            g.owned = false;
        }
        released
    }

    /// Items currently queued (the shard's backlog).
    pub fn len(&self) -> usize {
        self.state.lock().buf.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes fail, queued items still drain.
    pub fn close(&self) {
        self.state.lock().closed = true;
    }
}

/// A one-waiter eventcount: `notify` sets a flag and wakes the waiter;
/// `wait` blocks until the flag is set, then clears it.
#[derive(Debug, Default)]
pub struct Gate {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    /// Creates a gate with no pending signal.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Signals the gate (idempotent until consumed by `wait`).
    pub fn notify(&self) {
        *self.flag.lock() = true;
        self.cv.notify_one();
    }

    /// Blocks until signalled, consuming the signal.
    pub fn wait(&self) {
        let mut g = self.flag.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn push_drain_fifo() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        let mut out = Vec::new();
        assert!(q.drain(2, &mut out));
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.len(), 1);
        assert!(q.drain(8, &mut out));
        assert_eq!(out, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_sheds() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        let mut out = Vec::new();
        q.drain(1, &mut out);
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_retires() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        let mut out = Vec::new();
        assert!(!q.drain(8, &mut out), "closed");
        assert_eq!(out, vec![1], "pre-close items still drain");
        out.clear();
        assert!(!q.drain(8, &mut out) && out.is_empty(), "fully retired");
    }

    #[test]
    fn claim_succeeds_only_while_free() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        assert!(q.try_claim(), "a free queue can be claimed");
        assert!(!q.try_claim(), "a second claim fails while owned");
        let mut out = Vec::new();
        q.drain(8, &mut out);
        assert!(q.release());
        assert!(q.try_claim(), "a released queue can be claimed again");
    }

    #[test]
    fn pushes_queue_while_owned() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        assert!(q.try_claim());
        q.try_push(2).unwrap();
        assert!(!q.try_claim(), "the pusher waits; the owner serves it");
        let mut out = Vec::new();
        q.drain(8, &mut out);
        assert_eq!(out, vec![1, 2], "the owner drains every queued item");
    }

    #[test]
    fn no_release_while_items_are_queued() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        assert!(q.try_claim());
        let mut out = Vec::new();
        q.drain(8, &mut out);
        // An item pushed between the owner's drain and its release.
        q.try_push(2).unwrap();
        assert!(!q.release(), "release refused: the queue is not empty");
        assert!(!q.try_claim(), "and the claim is still held");
        out.clear();
        q.drain(8, &mut out);
        assert_eq!(out, vec![2]);
        assert!(q.release());
    }

    #[test]
    fn close_while_owned_still_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        assert!(q.try_claim());
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        let mut out = Vec::new();
        assert!(!q.drain(8, &mut out), "closed");
        assert_eq!(out, vec![1, 2], "queued items still drain");
        assert!(q.release());
        assert!(q.try_claim(), "claims work after the close");
    }

    #[test]
    fn claimed_consumers_serve_every_push() {
        // Each producer pushes, then serves the queue if its claim
        // succeeds, as the server's connection threads do; every item
        // must be consumed exactly once with no dedicated consumer. The
        // bound holds every item: a producer that loses the claim moves
        // on without waiting.
        let q = BoundedQueue::new(2000);
        let served = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, served) = (&q, &served);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..500 {
                        q.try_push(t * 1000 + i).unwrap();
                        if !q.try_claim() {
                            continue;
                        }
                        loop {
                            out.clear();
                            q.drain(64, &mut out);
                            served.fetch_add(out.len() as u64, Ordering::Relaxed);
                            if out.is_empty() && q.release() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(served.into_inner(), 2000);
        assert!(q.is_empty());
    }

    #[test]
    fn gate_never_loses_a_prior_notify() {
        let gate = Gate::new();
        gate.notify();
        gate.notify(); // coalesces
        gate.wait(); // returns immediately: flag was set before the wait
    }

    #[test]
    fn producers_and_consumer_across_threads() {
        let q = Arc::new(BoundedQueue::new(1024));
        let gate = Arc::new(Gate::new());
        let consumer = {
            let (q, gate) = (q.clone(), gate.clone());
            std::thread::spawn(move || {
                let mut got = 0u64;
                let mut out = Vec::new();
                loop {
                    out.clear();
                    let open = q.drain(64, &mut out);
                    got += out.len() as u64;
                    if out.is_empty() {
                        if !open {
                            return got;
                        }
                        gate.wait();
                    }
                }
            })
        };
        std::thread::scope(|s| {
            for t in 0..4 {
                let (q, gate) = (q.clone(), gate.clone());
                s.spawn(move || {
                    for i in 0..500 {
                        loop {
                            match q.try_push(t * 1000 + i) {
                                Ok(()) => break,
                                Err(PushError::Full(_)) => std::thread::yield_now(),
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                        gate.notify();
                    }
                });
            }
        });
        q.close();
        gate.notify();
        assert_eq!(consumer.join().unwrap(), 2000);
    }
}
