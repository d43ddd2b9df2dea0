//! Cross-crate integration: multi-threaded correctness on the real
//! runtime, for every variant. Even on few cores, OS preemption plus the
//! STM's fine-grained conflict detection exercise the interesting races
//! (delegation hand-off, combiner selection vs. owner transactions, lock
//! subscription).

use std::sync::Arc;

use hcf_core::{Executor, Variant};
use hcf_ds::{
    Deque, DequeDs, DequeOp, HashTable, HashTableDs, MapOp, PqOp, SkipListPq, SkipListPqDs, Stack,
    StackDs, StackOp,
};
use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};

const THREADS: usize = 6;
const OPS: u64 = 300;

fn harness<D, B, V>(
    variant: Variant,
    build: B,
    body: impl Fn(&dyn Executor<D>, u64) + Sync,
    verify: V,
) where
    D: hcf_core::DataStructure,
    B: FnOnce(&mut dyn hcf_tmem::MemCtx) -> hcf_tmem::TxResult<(Arc<D>, hcf_core::HcfConfig)>,
    V: FnOnce(&mut dyn hcf_tmem::MemCtx, &D),
{
    let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 20)));
    let rt = Arc::new(RealRuntime::new());
    let (ds, cfg) = {
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        build(&mut ctx).expect("setup")
    };
    let exec = variant
        .build(ds.clone(), mem.clone(), rt.clone(), THREADS, 10, cfg)
        .expect("executor");
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let exec = exec.clone();
            let body = &body;
            s.spawn(move || body(exec.as_ref(), t));
        }
    });
    assert_eq!(exec.exec_stats().total_ops(), THREADS as u64 * OPS);
    let mut ctx = DirectCtx::new(&mem, rt.as_ref());
    verify(&mut ctx, &ds);
}

#[test]
fn hashtable_exact_counts_under_contention() {
    for v in Variant::ALL {
        harness(
            v,
            |ctx| {
                Ok((
                    Arc::new(HashTableDs::new(HashTable::create(ctx, 16)?)),
                    HashTableDs::hcf_config(THREADS),
                ))
            },
            |exec, t| {
                // Each thread owns a disjoint key range; inserts them all,
                // removes the odd ones.
                for i in 0..OPS / 2 {
                    let k = t * 10_000 + i;
                    assert_eq!(exec.execute(MapOp::Insert(k, t)), None);
                }
                for i in 0..OPS / 2 {
                    let k = t * 10_000 + i;
                    if i % 2 == 1 {
                        assert_eq!(exec.execute(MapOp::Remove(k)), Some(t));
                    } else {
                        assert_eq!(exec.execute(MapOp::Find(k)), Some(t), "{v}");
                    }
                }
            },
            |ctx, ds: &HashTableDs| {
                assert!(ds.table().check_invariants(ctx).unwrap());
                let expected = THREADS as u64 * (OPS / 4);
                assert_eq!(ds.table().len(ctx).unwrap(), expected, "{v}");
            },
        );
    }
}

#[test]
fn stack_conserves_values() {
    use hcf_util::sync::Mutex;
    for v in Variant::ALL {
        let popped = Mutex::new(Vec::<u64>::new());
        let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 20)));
        let rt = Arc::new(RealRuntime::new());
        let (ds, cfg) = {
            let mut ctx = DirectCtx::new(&mem, rt.as_ref());
            (
                Arc::new(StackDs::new(Stack::create(&mut ctx).unwrap())),
                StackDs::hcf_config(THREADS),
            )
        };
        let exec = v
            .build(ds.clone(), mem.clone(), rt.clone(), THREADS, 10, cfg)
            .expect("executor");
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let exec = exec.clone();
                let popped = &popped;
                s.spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..OPS {
                        if i % 2 == 0 {
                            exec.execute(StackOp::Push(t * 100_000 + i));
                        } else if let Some(x) = exec.execute(StackOp::Pop) {
                            local.push(x);
                        }
                    }
                    popped.lock().extend(local);
                });
            }
        });
        let mut all = popped.into_inner();
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        all.extend(ds.stack().collect(&mut ctx).unwrap());
        all.sort_unstable();
        // Every pushed value accounted for exactly once.
        let pushed = THREADS as u64 * OPS / 2;
        assert_eq!(all.len() as u64, pushed, "{v}: conservation violated");
        all.dedup();
        assert_eq!(all.len() as u64, pushed, "{v}: duplicated value");
    }
}

#[test]
fn pq_drains_in_global_order_per_thread() {
    for v in [Variant::Hcf, Variant::Fc, Variant::Tle] {
        let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 21)));
        let rt = Arc::new(RealRuntime::new());
        let (ds, cfg) = {
            let mut ctx = DirectCtx::new(&mem, rt.as_ref());
            let pq = SkipListPq::create(&mut ctx).unwrap();
            for k in 0..2_000u64 {
                pq.insert(&mut ctx, k, k).unwrap();
            }
            (
                Arc::new(SkipListPqDs::new(pq)),
                SkipListPqDs::hcf_config(THREADS),
            )
        };
        let exec = v
            .build(ds.clone(), mem.clone(), rt.clone(), THREADS, 10, cfg)
            .expect("executor");
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let exec = exec.clone();
                s.spawn(move || {
                    let mut last = None;
                    for _ in 0..OPS {
                        let got = exec.execute(PqOp::RemoveMin);
                        // Each thread's removals are monotonically
                        // increasing (min-queue semantics).
                        if let (Some(prev), Some(cur)) = (last, got) {
                            assert!(cur > prev, "{v}: got {cur} after {prev}");
                        }
                        if got.is_some() {
                            last = got;
                        }
                    }
                });
            }
        });
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        assert_eq!(
            ds.pq().len(&mut ctx).unwrap(),
            2_000 - THREADS as u64 * OPS,
            "{v}"
        );
        assert!(ds.pq().check_invariants(&mut ctx).unwrap());
    }
}

#[test]
fn deque_specialized_combiners_are_safe() {
    for v in [Variant::Hcf, Variant::TleFc] {
        let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 20)));
        let rt = Arc::new(RealRuntime::new());
        let (ds, cfg) = {
            let mut ctx = DirectCtx::new(&mem, rt.as_ref());
            (
                Arc::new(DequeDs::new(Deque::create(&mut ctx).unwrap())),
                DequeDs::hcf_config(THREADS),
            )
        };
        let exec = v
            .build(ds.clone(), mem.clone(), rt.clone(), THREADS, 10, cfg)
            .expect("executor");
        let pushes = std::sync::atomic::AtomicU64::new(0);
        let pops = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let exec = exec.clone();
                let pushes = &pushes;
                let pops = &pops;
                s.spawn(move || {
                    for i in 0..OPS {
                        let op = match (t + i) % 4 {
                            0 => DequeOp::PushLeft(i),
                            1 => DequeOp::PopLeft,
                            2 => DequeOp::PushRight(i),
                            _ => DequeOp::PopRight,
                        };
                        let is_push = matches!(op, DequeOp::PushLeft(_) | DequeOp::PushRight(_));
                        let r = exec.execute(op);
                        if is_push {
                            pushes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        } else if r.is_some() {
                            pops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        assert!(ds.deque().check_invariants(&mut ctx).unwrap());
        let len = ds.deque().len(&mut ctx).unwrap();
        use std::sync::atomic::Ordering;
        assert_eq!(
            len,
            pushes.load(Ordering::Relaxed) - pops.load(Ordering::Relaxed),
            "{v}: size accounting broken"
        );
    }
}
