//! The runtime abstraction: thread identity, time, and cost accounting.
//!
//! All code in this workspace (the STM, the HCF framework, the data
//! structures) is written against the [`Runtime`] trait instead of calling
//! `std::thread`/`Instant` directly. Two implementations exist:
//!
//! * [`RealRuntime`] (this module) — a thin pass-through for ordinary
//!   multi-threaded execution; `advance` is a no-op and `now` is wall time.
//! * `LockstepRuntime` (in the `hcf-sim` crate) — a deterministic
//!   discrete-event scheduler that admits exactly one thread at a time (the
//!   one with the smallest virtual clock) and charges virtual cycles per
//!   memory access according to a machine cost model. The *same* algorithm
//!   code then reproduces the paper's 36/72-thread scaling figures on a
//!   single physical core.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hcf_util::sync::Mutex;

use crate::txset::TxnScratch;

/// The kind of a memory access, for cost accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A transactional or direct load.
    Read,
    /// A transactional store (encounter time) or direct store. Transfers
    /// line ownership to the accessing thread in cost models that track
    /// coherence.
    Write,
}

/// Transaction lifecycle events, for cost accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxEvent {
    /// A transaction began.
    Begin,
    /// A transaction committed.
    Commit,
    /// A transaction aborted.
    Abort,
}

/// Aggregate memory-access statistics reported by a runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemAccessStats {
    /// Accesses that hit a line already owned by the accessing thread.
    pub hits: u64,
    /// Accesses to a line owned by another thread on the same socket.
    pub local_misses: u64,
    /// Accesses to a line owned by a thread on a different socket.
    pub remote_misses: u64,
}

impl MemAccessStats {
    /// Total number of accesses.
    pub fn total(&self) -> u64 {
        self.hits + self.local_misses + self.remote_misses
    }

    /// Total number of coherence misses.
    pub fn misses(&self) -> u64 {
        self.local_misses + self.remote_misses
    }
}

/// Thread identity, virtual time, and cost hooks.
///
/// Implementations must be cheap: `mem_access` is called on every
/// transactional load/store.
pub trait Runtime: Send + Sync {
    /// A dense identifier for the calling thread, in `0..max_threads`.
    /// Assignments are stable for the lifetime of the thread.
    fn thread_id(&self) -> usize;

    /// Charge `cycles` of work to the calling thread. In the lockstep
    /// runtime this may park the caller until it holds the minimum virtual
    /// clock again; callers must therefore never hold an OS mutex across a
    /// call to `advance`.
    fn advance(&self, cycles: u64);

    /// Cooperative pause inside a spin loop. Must make progress in virtual
    /// time so spinners do not starve the simulation.
    fn yield_now(&self);

    /// Cooperative pause after the `attempt`-th consecutive failed try of
    /// a spin loop (0-based). Spin loops call this instead of
    /// [`yield_now`](Runtime::yield_now) so each runtime can pick a waiting
    /// strategy: the default forwards to `yield_now` — which keeps the
    /// deterministic lockstep schedule (and therefore every figure output)
    /// unchanged — while [`RealRuntime`] overrides it with bounded
    /// exponential backoff, preventing livelock when many OS threads spin
    /// on few cores.
    fn backoff(&self, attempt: u32) {
        let _ = attempt;
        self.yield_now();
    }

    /// Current time. Nanoseconds of wall time for the real runtime, virtual
    /// cycles for the lockstep runtime.
    fn now(&self) -> u64;

    /// Account (and, in simulation, charge) one memory access to `line`.
    fn mem_access(&self, line: usize, kind: AccessKind);

    /// Account a transaction lifecycle event.
    fn tx_event(&self, event: TxEvent);

    /// Whether this runtime simulates virtual time.
    fn is_simulated(&self) -> bool {
        false
    }

    /// Memory-access statistics accumulated so far (zeros if the runtime
    /// does not track coherence).
    fn mem_stats(&self) -> MemAccessStats {
        MemAccessStats::default()
    }

    /// Hands out a pooled [`TxnScratch`] for a transaction beginning on
    /// the calling thread. The default keeps a small per-OS-thread pool
    /// (correct for both runtimes: the lockstep scheduler pins each
    /// virtual thread to its own OS thread), so after warm-up repeated
    /// transactions perform no allocator calls at all.
    fn take_scratch(&self) -> TxnScratch {
        crate::txset::pool_take()
    }

    /// Returns a scratch taken with [`take_scratch`](Runtime::take_scratch)
    /// once its transaction finishes. The scratch is reset before being
    /// pooled; only capacity survives the round trip.
    fn put_scratch(&self, scratch: TxnScratch) {
        crate::txset::pool_put(scratch)
    }
}

/// Monotonically increasing token distinguishing [`RealRuntime`]
/// instances, so the per-thread id cache cannot leak an id across
/// runtimes. Starts at 1; token 0 marks an empty cache slot.
static RUNTIME_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(runtime token, dense id)` of the most recent [`RealRuntime`] this
    /// thread resolved its id against. A matching token answers
    /// [`RealRuntime::thread_id`] without touching the shared registry —
    /// which is called on every operation and used to take a global mutex
    /// each time.
    static CACHED_ID: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Thread-id bookkeeping behind [`RealRuntime`]: the live assignments plus
/// a free list so ids vacated by exited (unregistered) threads are reused
/// instead of growing past an engine's `max_threads` bound.
#[derive(Debug, Default)]
struct IdRegistry {
    map: HashMap<std::thread::ThreadId, usize>,
    free: Vec<usize>,
    /// High-water mark: the next never-used id.
    next: usize,
}

impl IdRegistry {
    fn assign(&mut self, t: std::thread::ThreadId) -> usize {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = self.next;
            self.next += 1;
            id
        });
        self.map.insert(t, id);
        id
    }
}

/// Pass-through runtime for ordinary execution: threads run freely, time is
/// wall time, and the per-access cost hook does nothing.
///
/// Neither cost hook counts anything: `mem_access` runs on every
/// transactional and direct load and store, and `tx_event` on every
/// begin, commit and abort, while the executors' `ExecStats` already
/// count each speculative attempt and its outcome, which is what every
/// report reads.
pub struct RealRuntime {
    start: Instant,
    token: u64,
    ids: Mutex<IdRegistry>,
}

impl RealRuntime {
    /// Creates a new real runtime. Thread ids are assigned densely in the
    /// order threads first touch the runtime (or explicitly register).
    pub fn new() -> Self {
        RealRuntime {
            // RealRuntime's whole point is timing real threads on real
            // hardware; only the lockstep runtime is deterministic.
            start: Instant::now(), // hcf-lint: allow(no-wall-clock)
            token: RUNTIME_TOKEN.fetch_add(1, Ordering::Relaxed),
            ids: Mutex::new(IdRegistry::default()),
        }
    }

    /// Explicitly registers the calling thread, returning a guard that
    /// releases its dense id (for reuse by later threads) on drop.
    ///
    /// Threads that merely call [`Runtime::thread_id`] are registered
    /// implicitly and *never* unregistered — acceptable for a fixed worker
    /// set, but any thread churn (a pool respawning workers, short-lived
    /// helper threads) would then grow ids without bound and eventually
    /// trip an engine's `tid < max_threads` check. Churning callers must
    /// hold a [`ThreadSlot`] for the thread's lifetime instead. If the
    /// thread already has an id (implicit or from an earlier guard), the
    /// guard adopts it rather than allocating a second one.
    pub fn register(self: &Arc<Self>) -> ThreadSlot {
        let thread = std::thread::current().id();
        let id = {
            let mut ids = self.ids.lock();
            match ids.map.get(&thread) {
                Some(&id) => id,
                None => ids.assign(thread),
            }
        };
        CACHED_ID.set((self.token, id));
        ThreadSlot {
            rt: Arc::clone(self),
            id,
            thread,
            _not_send: PhantomData,
        }
    }

    #[cold]
    fn thread_id_slow(&self) -> usize {
        let thread = std::thread::current().id();
        let mut ids = self.ids.lock();
        let id = match ids.map.get(&thread) {
            Some(&id) => id,
            None => ids.assign(thread),
        };
        drop(ids);
        CACHED_ID.set((self.token, id));
        id
    }
}

/// RAII registration of one thread with one [`RealRuntime`] (see
/// [`RealRuntime::register`]). Dropping the guard returns the dense id to
/// the runtime's free list. Deliberately `!Send`: it must be dropped on
/// the thread it registered, both because the id belongs to that thread
/// and so the drop can invalidate the thread-local id cache.
pub struct ThreadSlot {
    rt: Arc<RealRuntime>,
    id: usize,
    thread: std::thread::ThreadId,
    _not_send: PhantomData<*const ()>,
}

impl ThreadSlot {
    /// The dense id this guard holds.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        let mut ids = self.rt.ids.lock();
        if ids.map.remove(&self.thread) == Some(self.id) {
            ids.free.push(self.id);
        }
        drop(ids);
        if CACHED_ID.get() == (self.rt.token, self.id) {
            CACHED_ID.set((0, 0));
        }
    }
}

impl fmt::Debug for ThreadSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadSlot").field("id", &self.id).finish()
    }
}

impl Default for RealRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for RealRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RealRuntime")
            .field("threads", &self.ids.lock().next)
            .finish()
    }
}

impl Runtime for RealRuntime {
    fn thread_id(&self) -> usize {
        // Hot path: one thread-local read. The registry mutex is only
        // taken the first time a thread touches this runtime.
        let (token, id) = CACHED_ID.get();
        if token == self.token {
            return id;
        }
        self.thread_id_slow()
    }

    fn advance(&self, _cycles: u64) {}

    fn yield_now(&self) {
        std::thread::yield_now();
    }

    fn backoff(&self, attempt: u32) {
        // Bounded exponential backoff: a few cheap busy-spins while the
        // wait is likely short, then scheduler yields, then brief sleeps
        // so persistent spinners (e.g. an owner waiting on its combiner)
        // cannot monopolize a core when threads outnumber cores.
        if attempt < 4 {
            for _ in 0..(1u32 << attempt) {
                std::hint::spin_loop();
            }
        } else if attempt < 20 {
            std::thread::yield_now();
        } else {
            let micros = 1u64 << (attempt - 20).min(6); // 1 µs .. 64 µs
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
    }

    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn mem_access(&self, _line: usize, _kind: AccessKind) {}

    fn tx_event(&self, _event: TxEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn thread_ids_are_dense_and_stable() {
        let rt = Arc::new(RealRuntime::new());
        let id0 = rt.thread_id();
        assert_eq!(id0, rt.thread_id(), "stable within a thread");
        let rt2 = rt.clone();
        let other = std::thread::spawn(move || rt2.thread_id()).join().unwrap();
        assert_ne!(id0, other);
        assert!(other < 2);
    }

    #[test]
    fn now_is_monotonic() {
        let rt = RealRuntime::new();
        let a = rt.now();
        let b = rt.now();
        assert!(b >= a);
    }

    #[test]
    fn not_simulated() {
        assert!(!RealRuntime::new().is_simulated());
    }

    #[test]
    fn cached_id_distinguishes_runtimes() {
        // Two runtimes touched alternately from one thread must keep
        // separate (and stable) assignments despite the thread-local cache.
        let a = RealRuntime::new();
        let b = RealRuntime::new();
        let ia = a.thread_id();
        let ib = b.thread_id();
        assert_eq!(a.thread_id(), ia);
        assert_eq!(b.thread_id(), ib);
        assert_eq!(a.thread_id(), ia);
    }

    #[test]
    fn registered_slots_are_recycled() {
        let rt = Arc::new(RealRuntime::new());
        // Many more short-lived threads than any engine's max_threads;
        // with explicit registration every one of them reuses id 0.
        for _ in 0..16 {
            let rt2 = rt.clone();
            let id = std::thread::spawn(move || {
                let slot = rt2.register();
                assert_eq!(slot.id(), rt2.thread_id());
                slot.id()
            })
            .join()
            .unwrap();
            assert_eq!(id, 0, "vacated id was not reused");
        }
    }

    #[test]
    fn slot_drop_invalidates_cache_and_frees_id() {
        let rt = Arc::new(RealRuntime::new());
        let slot = rt.register();
        assert_eq!(slot.id(), 0);
        drop(slot);
        // Another thread claims the freed id 0...
        let rt2 = rt.clone();
        std::thread::spawn(move || {
            let _slot = rt2.register();
            assert_eq!(rt2.thread_id(), 0);
            // hold until joined
            std::thread::sleep(std::time::Duration::from_millis(1));
        })
        .join()
        .unwrap();
        // ...and this thread, whose cache was invalidated, re-registers
        // implicitly with a fresh id instead of the stale cached 0.
        assert_eq!(rt.thread_id(), 0, "id freed again after the helper exited");
    }

    #[test]
    fn register_adopts_existing_implicit_id() {
        let rt = Arc::new(RealRuntime::new());
        let implicit = rt.thread_id();
        let slot = rt.register();
        assert_eq!(slot.id(), implicit);
        assert_eq!(rt.thread_id(), implicit);
    }

    #[test]
    fn scratch_round_trip_via_trait() {
        let rt = RealRuntime::new();
        let mut s = rt.take_scratch();
        s.writes.insert(1, 2);
        rt.put_scratch(s);
        let s2 = rt.take_scratch();
        assert!(s2.is_clean(), "pooled scratch must come back reset");
        rt.put_scratch(s2);
    }

    #[test]
    fn backoff_terminates_at_all_attempt_levels() {
        let rt = RealRuntime::new();
        for attempt in [0, 1, 3, 4, 19, 20, 26, 40, u32::MAX] {
            rt.backoff(attempt);
        }
    }
}
