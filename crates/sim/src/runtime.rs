//! The lockstep implementation of [`hcf_tmem::Runtime`].

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcf_tmem::runtime::{AccessKind, MemAccessStats, Runtime, TxEvent};

use crate::cost::CostModel;
use crate::sched::LockstepScheduler;
use crate::topology::Topology;

thread_local! {
    /// The calling thread's simulated id, set by
    /// [`LockstepRuntime::run_threads`].
    static SIM_TID: Cell<Option<usize>> = const { Cell::new(None) };
    /// Locally accumulated cycles not yet synchronized with the scheduler
    /// (bounded by [`CostModel::sync_quantum`]).
    static PENDING: Cell<u64> = const { Cell::new(0) };
}

/// Per-line coherence state, packed into one word:
/// bits 56..64 `writer_tid + 1`, bits 40..56 the cache epoch the entry was
/// recorded in (stale epoch = evicted), bits 0..40 a reader-presence bloom
/// over `tid % 40`.
const WRITER_SHIFT: u32 = 56;
const EPOCH_SHIFT: u32 = 40;
const EPOCH_MASK: u64 = 0xFFFF;
const BLOOM_BITS: u32 = 40;
const BLOOM_MASK: u64 = (1 << EPOCH_SHIFT) - 1;

#[inline]
fn bloom_bit(tid: usize) -> u64 {
    1 << (tid as u32 % BLOOM_BITS)
}

/// Deterministic discrete-event runtime: virtual clocks, a machine cost
/// model, and a coherence approximation. See the [crate docs](crate).
pub struct LockstepRuntime {
    sched: LockstepScheduler,
    topology: Topology,
    cost: CostModel,
    n_threads: usize,
    /// Static per-thread SMT sharing (the thread set is pinned and fixed
    /// for the whole run, like the paper's experiments).
    smt_shared: Vec<bool>,
    /// Socket of each thread, cached.
    socket: Vec<usize>,
    /// Per-line coherence state.
    owners: Vec<AtomicU64>,
    /// Total memory accesses; drives the cache-capacity epoch.
    accesses: AtomicU64,
    hits: AtomicU64,
    local_misses: AtomicU64,
    remote_misses: AtomicU64,
}

impl LockstepRuntime {
    /// Creates a runtime for `n_threads` simulated threads pinned on
    /// `topology`, tracking coherence over `n_lines` memory lines.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` exceeds the topology's logical CPUs.
    pub fn new(topology: Topology, n_threads: usize, cost: CostModel, n_lines: usize) -> Self {
        assert!(n_threads >= 1);
        assert!(
            n_threads <= topology.logical_cpus(),
            "{n_threads} threads exceed {} logical CPUs",
            topology.logical_cpus()
        );
        LockstepRuntime {
            sched: LockstepScheduler::new(n_threads),
            topology,
            cost,
            n_threads,
            smt_shared: (0..n_threads)
                .map(|t| topology.shares_core(t, n_threads))
                .collect(),
            socket: (0..n_threads).map(|t| topology.socket_of(t)).collect(),
            owners: (0..n_lines).map(|_| AtomicU64::new(0)).collect(),
            accesses: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            local_misses: AtomicU64::new(0),
            remote_misses: AtomicU64::new(0),
        }
    }

    /// The modeled topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Elapsed virtual time of the whole run so far (max over threads).
    pub fn elapsed(&self) -> u64 {
        self.sched.max_time()
    }

    /// Spawns `n_threads` OS threads running `body(tid)` in lockstep and
    /// joins them. Charges per-op overhead etc. through the usual hooks as
    /// the body executes.
    pub fn run_threads<F>(self: &Arc<Self>, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        std::thread::scope(|s| {
            for tid in 0..self.n_threads {
                let rt = Arc::clone(self);
                let body = &body;
                s.spawn(move || {
                    SIM_TID.set(Some(tid));
                    PENDING.set(0);
                    rt.sched.register(tid);
                    body(tid);
                    rt.flush_pending(tid);
                    rt.sched.finish(tid);
                    SIM_TID.set(None);
                });
            }
        });
    }

    fn tid(&self) -> usize {
        SIM_TID
            .get()
            .expect("calling thread is not registered with the lockstep runtime")
    }

    fn flush_pending(&self, tid: usize) {
        let p = PENDING.replace(0);
        if p > 0 {
            self.sched.advance(tid, p);
        }
    }

    fn charge(&self, tid: usize, cycles: u64) {
        let cycles = self.cost.smt_adjust(cycles, self.smt_shared[tid]);
        let p = PENDING.get() + cycles;
        if p >= self.cost.sync_quantum {
            PENDING.set(0);
            self.sched.advance(tid, p);
        } else {
            PENDING.set(p);
        }
    }

    /// Cost of one access, updating the coherence approximation. Only the
    /// turn-holding thread runs, so the relaxed atomics are effectively
    /// single-threaded.
    fn access_cost(&self, tid: usize, line: usize, kind: AccessKind) -> u64 {
        let Some(owner) = self.owners.get(line) else {
            // Line outside the tracked range (should not happen; memory
            // and runtime are sized together). Treat as a hit.
            return self.cost.l1_hit;
        };
        let epoch =
            (self.accesses.fetch_add(1, Ordering::Relaxed) / self.cost.cache_epoch) & EPOCH_MASK;
        let mut tag = owner.load(Ordering::Relaxed);
        let mut evicted = false;
        if (tag >> EPOCH_SHIFT) & EPOCH_MASK != epoch {
            // Capacity decay: everything cached in an earlier epoch has
            // been evicted; the line is memory-resident again.
            tag = 0;
            evicted = true;
        }
        let epoch_bits = epoch << EPOCH_SHIFT;
        let writer = (tag >> WRITER_SHIFT) as usize;
        let bit = bloom_bit(tid);
        match kind {
            AccessKind::Read => {
                if !evicted && tag & bit != 0 {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.cost.l1_hit
                } else {
                    owner.store(
                        (tag & BLOOM_MASK) | bit | epoch_bits | ((writer as u64) << WRITER_SHIFT),
                        Ordering::Relaxed,
                    );
                    self.miss_cost(tid, writer)
                }
            }
            AccessKind::Write => {
                let exclusive = !evicted && writer == tid + 1 && (tag & BLOOM_MASK) == bit;
                owner.store(
                    ((tid as u64 + 1) << WRITER_SHIFT) | bit | epoch_bits,
                    Ordering::Relaxed,
                );
                if exclusive {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.cost.l1_hit
                } else {
                    self.miss_cost(tid, writer)
                }
            }
        }
    }

    fn miss_cost(&self, tid: usize, writer_plus_one: usize) -> u64 {
        if writer_plus_one == 0 {
            self.local_misses.fetch_add(1, Ordering::Relaxed);
            self.cost.cold_miss
        } else {
            let w = writer_plus_one - 1;
            // Prefill and setup run on an unregistered thread and may
            // record writer ids beyond the simulated range; treat those
            // as memory-resident (cold).
            if w >= self.n_threads {
                self.local_misses.fetch_add(1, Ordering::Relaxed);
                self.cost.cold_miss
            } else if self.socket[w] == self.socket[tid] {
                self.local_misses.fetch_add(1, Ordering::Relaxed);
                self.cost.local_miss
            } else {
                self.remote_misses.fetch_add(1, Ordering::Relaxed);
                self.cost.remote_miss
            }
        }
    }

    /// Charges the fixed per-operation overhead (called by the driver
    /// between operations).
    pub fn charge_op_overhead(&self) {
        let tid = self.tid();
        self.charge(tid, self.cost.op_overhead);
    }
}

impl Runtime for LockstepRuntime {
    fn thread_id(&self) -> usize {
        self.tid()
    }

    fn advance(&self, cycles: u64) {
        let tid = self.tid();
        self.charge(tid, cycles);
    }

    fn yield_now(&self) {
        let tid = self.tid();
        // A spin iteration must always reach the scheduler: the value the
        // spinner is waiting for can only change while another thread runs.
        let cycles = self
            .cost
            .smt_adjust(self.cost.yield_quantum, self.smt_shared[tid]);
        let p = PENDING.replace(0) + cycles;
        self.sched.advance(tid, p);
    }

    fn now(&self) -> u64 {
        let tid = self.tid();
        self.sched.time_of(tid) + PENDING.get()
    }

    fn mem_access(&self, line: usize, kind: AccessKind) {
        let tid = self.tid();
        let cost = self.access_cost(tid, line, kind);
        self.charge(tid, cost);
    }

    fn tx_event(&self, event: TxEvent) {
        let tid = self.tid();
        let cost = match event {
            TxEvent::Begin => self.cost.tx_begin,
            TxEvent::Commit => self.cost.tx_commit,
            TxEvent::Abort => self.cost.tx_abort,
        };
        self.charge(tid, cost);
    }

    fn is_simulated(&self) -> bool {
        true
    }

    fn mem_stats(&self) -> MemAccessStats {
        MemAccessStats {
            hits: self.hits.load(Ordering::Relaxed),
            local_misses: self.local_misses.load(Ordering::Relaxed),
            remote_misses: self.remote_misses.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for LockstepRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockstepRuntime")
            .field("threads", &self.n_threads)
            .field("topology", &self.topology)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(n: usize) -> Arc<LockstepRuntime> {
        Arc::new(LockstepRuntime::new(
            Topology::x5_2(),
            n,
            CostModel::exact(),
            1024,
        ))
    }

    #[test]
    fn threads_get_their_sim_ids() {
        let rt = runtime(3);
        let ids = hcf_util::sync::Mutex::new(Vec::new());
        rt.run_threads(|tid| {
            assert_eq!(rt.thread_id(), tid);
            ids.lock().push(tid);
        });
        let mut ids = ids.into_inner();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn advance_accumulates_virtual_time() {
        let rt = runtime(1);
        rt.run_threads(|_| {
            rt.advance(100);
            rt.advance(50);
            assert_eq!(rt.now(), 150);
        });
        assert_eq!(rt.elapsed(), 150);
    }

    #[test]
    fn repeated_reads_become_hits() {
        let rt = runtime(1);
        rt.run_threads(|_| {
            rt.mem_access(5, AccessKind::Read); // cold
            rt.mem_access(5, AccessKind::Read); // hit
            rt.mem_access(5, AccessKind::Read); // hit
        });
        let s = rt.mem_stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn writer_invalidates_reader() {
        let rt = runtime(2);
        rt.run_threads(|tid| {
            if tid == 0 {
                rt.mem_access(7, AccessKind::Read); // cold
                rt.advance(1000); // let t1 write meanwhile
                rt.mem_access(7, AccessKind::Read); // miss again: t1 wrote
            } else {
                rt.advance(500);
                rt.mem_access(7, AccessKind::Write);
                rt.advance(1000);
            }
        });
        let s = rt.mem_stats();
        assert!(s.local_misses >= 2, "stats: {s:?}");
    }

    #[test]
    fn remote_misses_cost_more_than_local() {
        // Threads 0 and 36 are on different sockets of the X5-2... but a
        // 37-thread run is slow in exact mode; check the cost function
        // directly instead.
        let rt = LockstepRuntime::new(Topology::x5_2(), 72, CostModel::default(), 64);
        // Simulate: thread 40 wrote line 3, thread 2 reads it.
        rt.owners[3].store((41u64) << WRITER_SHIFT | bloom_bit(40), Ordering::Relaxed);
        let c_remote = rt.access_cost(2, 3, AccessKind::Read);
        rt.owners[4].store((4u64) << WRITER_SHIFT | bloom_bit(3), Ordering::Relaxed);
        let c_local = rt.access_cost(2, 4, AccessKind::Read);
        assert_eq!(c_remote, rt.cost.remote_miss);
        assert_eq!(c_local, rt.cost.local_miss);
        assert!(c_remote > c_local);
    }

    #[test]
    fn exclusive_write_is_a_hit() {
        let rt = runtime(1);
        rt.run_threads(|_| {
            rt.mem_access(9, AccessKind::Write); // cold
            rt.mem_access(9, AccessKind::Write); // exclusive hit
        });
        let s = rt.mem_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn smt_sharing_slows_threads() {
        // 19 threads on one socket: thread 0 shares its core with 18.
        let rt = Arc::new(LockstepRuntime::new(
            Topology::x5_2_single_socket(),
            19,
            CostModel::exact(),
            16,
        ));
        let t0 = std::sync::atomic::AtomicU64::new(0);
        let t1 = std::sync::atomic::AtomicU64::new(0);
        rt.run_threads(|tid| {
            rt.advance(100);
            if tid == 0 {
                t0.store(rt.now(), Ordering::Relaxed);
            } else if tid == 1 {
                t1.store(rt.now(), Ordering::Relaxed);
            }
        });
        // Thread 0 shares with 18 (slowed 3/2); thread 1's sibling (19)
        // is not running.
        assert_eq!(t0.load(Ordering::Relaxed), 150);
        assert_eq!(t1.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn deterministic_interleaving() {
        let run = || {
            let rt = runtime(4);
            let trace = hcf_util::sync::Mutex::new(Vec::new());
            rt.run_threads(|tid| {
                for i in 0..20u64 {
                    rt.mem_access((tid * 7 + i as usize) % 64, AccessKind::Write);
                    trace.lock().push((tid, rt.now()));
                }
            });
            trace.into_inner()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_thread_panics() {
        let rt = runtime(1);
        let _ = rt.thread_id();
    }
}
