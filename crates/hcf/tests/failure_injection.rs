//! Failure injection: the engine must survive hostile `DataStructure`
//! implementations — capacity blowups, partial `run_multi` results,
//! pathological chunk sizes — without losing or duplicating operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcf_core::{DataStructure, HcfConfig, HcfEngine, PhasePolicy, SelectPolicy};
use hcf_tmem::{Addr, DirectCtx, MemCtx, RealRuntime, TMem, TMemConfig, TxResult};

/// A counter whose transactional runs blow the read capacity every
/// `fail_every`-th invocation (per engine), forcing the capacity-abort
/// path; under the lock it always succeeds.
struct CapacityBomb {
    counter: Addr,
    scratch: Addr,
    scratch_words: u64,
    invocations: AtomicU64,
    fail_every: u64,
}

impl DataStructure for CapacityBomb {
    type Op = u64;
    type Res = u64;

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &u64) -> TxResult<u64> {
        let n = self.invocations.fetch_add(1, Ordering::Relaxed);
        if ctx.is_transactional() && n.is_multiple_of(self.fail_every) {
            // Touch far more lines than the read capacity allows.
            for i in 0..self.scratch_words {
                ctx.read(self.scratch + i)?;
            }
        }
        let v = ctx.read(self.counter)?;
        ctx.write(self.counter, v + op)?;
        Ok(v + op)
    }
}

#[test]
fn capacity_aborts_fall_through_to_the_lock() {
    let mem = Arc::new(TMem::new(TMemConfig {
        words: 1 << 16,
        words_per_line_log2: 0,
        read_cap_lines: 64,
        write_cap_lines: 64,
    }));
    let rt = Arc::new(RealRuntime::new());
    let counter = mem.alloc_direct(1).unwrap();
    let scratch = mem.alloc_direct(1024).unwrap();
    let ds = Arc::new(CapacityBomb {
        counter,
        scratch,
        scratch_words: 512,
        invocations: AtomicU64::new(1), // avoid failing the very first op
        fail_every: 3,
    });
    let engine = Arc::new(HcfEngine::new(ds, mem.clone(), rt.clone(), HcfConfig::new(5)).unwrap());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let engine = engine.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    engine.execute(1);
                }
            });
        }
    });
    assert_eq!(engine.execute(0), 800);
    let stats = engine.stats();
    assert_eq!(stats.total_ops(), 801);
    assert!(stats.htm_capacity > 0, "the bomb never went off");
    // Capacity aborts break out of the attempt loop early, pushing the
    // operation into the later phases (a retry there may succeed on HTM —
    // the bomb only fires on a subset of invocations — or under the lock).
    let beyond_private: u64 = stats.completed_by_phase()[1..].iter().sum();
    assert!(
        beyond_private > 0,
        "capacity aborts must push operations past TryPrivate: {stats:?}"
    );
}

/// `run_multi` that applies exactly one operation per call, exercising
/// the engine's retire/re-chunk loop to its extreme.
struct OneAtATime {
    counter: Addr,
}

impl DataStructure for OneAtATime {
    type Op = u64;
    type Res = u64;

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &u64) -> TxResult<u64> {
        let v = ctx.read(self.counter)?;
        ctx.write(self.counter, v + op)?;
        Ok(v + op)
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[u64],
        out: &mut Vec<(usize, u64)>,
    ) -> TxResult<()> {
        // Deliberately ignore all but the *last* op in the chunk (also
        // exercises non-zero indices).
        let i = ops.len() - 1;
        out.push((i, self.run_seq(ctx, &ops[i])?));
        Ok(())
    }
}

#[test]
fn partial_run_multi_still_completes_everything() {
    let mem = Arc::new(TMem::new(TMemConfig::small_word_granular()));
    let rt = Arc::new(RealRuntime::new());
    let counter = mem.alloc_direct(1).unwrap();
    let ds = Arc::new(OneAtATime { counter });
    let cfg = HcfConfig::new(5).with_default_policy(PhasePolicy {
        try_private: 0,
        try_visible: 0,
        try_combining: 2,
        select: SelectPolicy::All,
        specialized: false,
    });
    let engine = Arc::new(HcfEngine::new(ds, mem.clone(), rt.clone(), cfg).unwrap());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let engine = engine.clone();
            s.spawn(move || {
                for _ in 0..150 {
                    engine.execute(1);
                }
            });
        }
    });
    let mut ctx = DirectCtx::new(&mem, rt.as_ref());
    assert_eq!(ctx.read(counter).unwrap(), 600);
    assert_eq!(engine.stats().total_ops(), 600);
}

/// A data structure with `max_multi() == 1`: every combining transaction
/// carries a single operation.
struct ChunkOfOne {
    counter: Addr,
}

impl DataStructure for ChunkOfOne {
    type Op = u64;
    type Res = u64;

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &u64) -> TxResult<u64> {
        let v = ctx.read(self.counter)?;
        ctx.write(self.counter, v + op)?;
        Ok(v + op)
    }

    fn max_multi(&self) -> usize {
        1
    }
}

#[test]
fn chunk_size_one_is_exact() {
    let mem = Arc::new(TMem::new(TMemConfig::small_word_granular()));
    let rt = Arc::new(RealRuntime::new());
    let counter = mem.alloc_direct(1).unwrap();
    let ds = Arc::new(ChunkOfOne { counter });
    let cfg =
        HcfConfig::new(5).with_default_policy(PhasePolicy::combining_first(3).specialized(true));
    let engine = Arc::new(HcfEngine::new(ds, mem.clone(), rt.clone(), cfg).unwrap());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let engine = engine.clone();
            s.spawn(move || {
                for _ in 0..150 {
                    engine.execute(1);
                }
            });
        }
    });
    assert_eq!(engine.execute(0), 600);
}

/// Out-of-memory inside speculation: the transactional path aborts with
/// OOM (non-transient), and the operation completes under the lock where
/// the allocation is satisfied by recycling.
struct AllocHungry {
    head: Addr,
}

impl DataStructure for AllocHungry {
    type Op = ();
    type Res = u64;

    fn run_seq(&self, ctx: &mut dyn MemCtx, _op: &()) -> TxResult<u64> {
        // Allocate a node, link it, then immediately unlink and free the
        // previous one — steady-state live set of one node.
        let n = ctx.alloc(4)?;
        let old = ctx.read(self.head)?;
        ctx.write(self.head, n.0)?;
        if old != 0 {
            ctx.free(Addr(old), 4);
        }
        Ok(n.0)
    }
}

#[test]
fn allocation_churn_is_stable_under_tiny_pool() {
    // Pool barely fits the structures + a handful of nodes; recycling
    // must keep the engine alive indefinitely.
    let mem = Arc::new(TMem::new(TMemConfig::default().with_words(512)));
    let rt = Arc::new(RealRuntime::new());
    let head = mem.alloc_direct(1).unwrap();
    let ds = Arc::new(AllocHungry { head });
    let engine = Arc::new(HcfEngine::new(ds, mem.clone(), rt.clone(), HcfConfig::new(4)).unwrap());
    std::thread::scope(|s| {
        for _ in 0..3 {
            let engine = engine.clone();
            s.spawn(move || {
                for _ in 0..300 {
                    engine.execute(());
                }
            });
        }
    });
    assert_eq!(engine.stats().total_ops(), 900);
}

/// Operations that free and re-allocate aggressively while readers
/// traverse: the recycling + version-bump protocol must keep readers
/// consistent (no panics, no wrong sums).
#[test]
fn recycling_under_readers_is_consistent() {
    struct PairSwap {
        slots: Addr, // two slots holding node addresses; nodes hold (a, b) with a + b == 100
    }
    impl DataStructure for PairSwap {
        type Op = bool; // true = writer (reallocate), false = reader (check sum)
        type Res = u64;
        fn run_seq(&self, ctx: &mut dyn MemCtx, op: &bool) -> TxResult<u64> {
            if *op {
                let fresh = ctx.alloc(2)?;
                let cur = ctx.read(self.slots)?;
                let split = (cur * 7 + 13) % 101;
                ctx.write(fresh, split)?;
                ctx.write(fresh + 1, 100 - split)?;
                let old = ctx.read(self.slots + 1)?;
                ctx.write(self.slots + 1, cur)?;
                ctx.write(self.slots, fresh.0)?;
                if old != 0 {
                    ctx.free(Addr(old), 2);
                }
                Ok(split)
            } else {
                let n = Addr(ctx.read(self.slots)?);
                if n.is_null() {
                    return Ok(100);
                }
                let a = ctx.read(n)?;
                let b = ctx.read(n + 1)?;
                Ok(a + b)
            }
        }
    }

    let mem = Arc::new(TMem::new(TMemConfig::default()));
    let rt = Arc::new(RealRuntime::new());
    let slots = mem.alloc_direct(2).unwrap();
    let ds = Arc::new(PairSwap { slots });
    // Seed one node.
    {
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        let n = ctx.alloc(2).unwrap();
        ctx.write(n, 40).unwrap();
        ctx.write(n + 1, 60).unwrap();
        ctx.write(slots, n.0).unwrap();
    }
    let engine = Arc::new(HcfEngine::new(ds, mem.clone(), rt.clone(), HcfConfig::new(6)).unwrap());
    std::thread::scope(|s| {
        for t in 0..5u64 {
            let engine = engine.clone();
            s.spawn(move || {
                for i in 0..300 {
                    let writer = (t + i) % 3 == 0;
                    let r = engine.execute(writer);
                    if !writer {
                        assert_eq!(r, 100, "reader saw a torn pair");
                    }
                }
            });
        }
    });
}
