//! Cross-crate integration: every synchronization variant computes the
//! same results as a sequential reference execution.
//!
//! Single-threaded, so results must agree *per operation* (there is only
//! one legal linearization), for every data structure in the suite.

use std::sync::Arc;

use hcf_core::{DataStructure, HcfConfig, Variant};
use hcf_tmem::{DirectCtx, MemCtx, RealRuntime, TMem, TMemConfig, TxResult};
use hcf_util::rng::*;

/// Runs `ops` through `variant` on a fresh instance built by `build`,
/// returning per-op results and the final collected contents.
fn run_variant<D, B, C>(
    variant: Variant,
    build: B,
    collect: C,
    ops: &[D::Op],
    hcf: impl Fn(usize) -> HcfConfig,
) -> (Vec<D::Res>, Vec<u64>)
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx) -> TxResult<Arc<D>>,
    C: FnOnce(&mut dyn MemCtx, &D) -> Vec<u64>,
{
    let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 20)));
    let rt = Arc::new(RealRuntime::new());
    let ds = {
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        build(&mut ctx).expect("setup")
    };
    let exec = variant
        .build(ds.clone(), mem.clone(), rt.clone(), 4, 10, hcf(4))
        .expect("executor");
    let results: Vec<D::Res> = ops.iter().map(|op| exec.execute(op.clone())).collect();
    let contents = {
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        collect(&mut ctx, &ds)
    };
    (results, contents)
}

#[test]
fn hashtable_all_variants_agree() {
    use hcf_ds::{HashTable, HashTableDs, MapOp};
    let mut rng = StdRng::seed_from_u64(41);
    let ops: Vec<MapOp> = (0..600)
        .map(|_| {
            let k = rng.random_range(0..64);
            match rng.random_range(0..3) {
                0 => MapOp::Insert(k, rng.random_range(0..1000)),
                1 => MapOp::Remove(k),
                _ => MapOp::Find(k),
            }
        })
        .collect();
    let mut reference: Option<(Vec<Option<u64>>, Vec<u64>)> = None;
    for v in Variant::ALL {
        let out = run_variant(
            v,
            |ctx| Ok(Arc::new(HashTableDs::new(HashTable::create(ctx, 32)?))),
            |ctx, ds: &HashTableDs| {
                let mut pairs = ds.table().collect(ctx).unwrap();
                pairs.sort_unstable();
                pairs.into_iter().map(|(k, val)| k * 10_000 + val).collect()
            },
            &ops,
            HashTableDs::hcf_config,
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "{v} diverged"),
        }
    }
}

#[test]
fn avl_all_variants_agree() {
    use hcf_ds::{AvlDs, AvlMode, AvlTree, SetOp};
    let mut rng = StdRng::seed_from_u64(42);
    let ops: Vec<SetOp> = (0..600)
        .map(|_| {
            let k = rng.random_range(0..64);
            match rng.random_range(0..3) {
                0 => SetOp::Insert(k),
                1 => SetOp::Remove(k),
                _ => SetOp::Contains(k),
            }
        })
        .collect();
    let mut reference: Option<(Vec<bool>, Vec<u64>)> = None;
    for v in Variant::ALL {
        let out = run_variant(
            v,
            |ctx| {
                Ok(Arc::new(AvlDs::new(
                    AvlTree::create(ctx)?,
                    AvlMode::Selective,
                )))
            },
            |ctx, ds: &AvlDs| {
                assert!(ds.tree().check_invariants(ctx).unwrap());
                ds.tree().collect(ctx).unwrap()
            },
            &ops,
            |t| AvlDs::hcf_config(t, &AvlMode::Selective),
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "{v} diverged"),
        }
    }
}

#[test]
fn pq_all_variants_agree() {
    use hcf_ds::{PqOp, SkipListPq, SkipListPqDs};
    let mut rng = StdRng::seed_from_u64(43);
    let ops: Vec<PqOp> = (0..600)
        .map(|_| {
            if rng.random_bool(0.6) {
                PqOp::Insert(rng.random_range(0..256), rng.random_range(0..1000))
            } else {
                PqOp::RemoveMin
            }
        })
        .collect();
    let mut reference: Option<(Vec<Option<u64>>, Vec<u64>)> = None;
    for v in Variant::ALL {
        let out = run_variant(
            v,
            |ctx| Ok(Arc::new(SkipListPqDs::new(SkipListPq::create(ctx)?))),
            |ctx, ds: &SkipListPqDs| {
                assert!(ds.pq().check_invariants(ctx).unwrap());
                ds.pq()
                    .collect(ctx)
                    .unwrap()
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect()
            },
            &ops,
            SkipListPqDs::hcf_config,
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "{v} diverged"),
        }
    }
}

#[test]
fn deque_all_variants_agree() {
    use hcf_ds::{Deque, DequeDs, DequeOp};
    let mut rng = StdRng::seed_from_u64(44);
    let ops: Vec<DequeOp> = (0..600)
        .map(|_| match rng.random_range(0..4) {
            0 => DequeOp::PushLeft(rng.random_range(0..1000)),
            1 => DequeOp::PopLeft,
            2 => DequeOp::PushRight(rng.random_range(0..1000)),
            _ => DequeOp::PopRight,
        })
        .collect();
    let mut reference: Option<(Vec<Option<u64>>, Vec<u64>)> = None;
    for v in Variant::ALL {
        let out = run_variant(
            v,
            |ctx| Ok(Arc::new(DequeDs::new(Deque::create(ctx)?))),
            |ctx, ds: &DequeDs| {
                assert!(ds.deque().check_invariants(ctx).unwrap());
                ds.deque().collect(ctx).unwrap()
            },
            &ops,
            DequeDs::hcf_config,
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "{v} diverged"),
        }
    }
}

#[test]
fn stack_all_variants_agree() {
    use hcf_ds::{Stack, StackDs, StackOp};
    let mut rng = StdRng::seed_from_u64(45);
    let ops: Vec<StackOp> = (0..600)
        .map(|_| {
            if rng.random_bool(0.55) {
                StackOp::Push(rng.random_range(0..1000))
            } else {
                StackOp::Pop
            }
        })
        .collect();
    let mut reference: Option<(Vec<Option<u64>>, Vec<u64>)> = None;
    for v in Variant::ALL {
        let out = run_variant(
            v,
            |ctx| Ok(Arc::new(StackDs::new(Stack::create(ctx)?))),
            |ctx, ds: &StackDs| ds.stack().collect(ctx).unwrap(),
            &ops,
            StackDs::hcf_config,
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "{v} diverged"),
        }
    }
}

#[test]
fn queue_all_variants_agree() {
    use hcf_ds::{Queue, QueueDs, QueueOp};
    let mut rng = StdRng::seed_from_u64(46);
    let ops: Vec<QueueOp> = (0..600)
        .map(|_| {
            if rng.random_bool(0.55) {
                QueueOp::Enqueue(rng.random_range(0..1000))
            } else {
                QueueOp::Dequeue
            }
        })
        .collect();
    let mut reference: Option<(Vec<Option<u64>>, Vec<u64>)> = None;
    for v in Variant::ALL {
        let out = run_variant(
            v,
            |ctx| Ok(Arc::new(QueueDs::new(Queue::create(ctx)?))),
            |ctx, ds: &QueueDs| {
                assert!(ds.queue().check_invariants(ctx).unwrap());
                ds.queue().collect(ctx).unwrap()
            },
            &ops,
            QueueDs::hcf_config,
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "{v} diverged"),
        }
    }
}

#[test]
fn sorted_list_all_variants_agree() {
    use hcf_ds::{ListOp, SortedList, SortedListDs};
    let mut rng = StdRng::seed_from_u64(47);
    let ops: Vec<ListOp> = (0..600)
        .map(|_| {
            let k = rng.random_range(0..48);
            match rng.random_range(0..3) {
                0 => ListOp::Insert(k),
                1 => ListOp::Remove(k),
                _ => ListOp::Contains(k),
            }
        })
        .collect();
    let mut reference: Option<(Vec<bool>, Vec<u64>)> = None;
    for v in Variant::ALL {
        let out = run_variant(
            v,
            |ctx| Ok(Arc::new(SortedListDs::new(SortedList::create(ctx)?))),
            |ctx, ds: &SortedListDs| {
                assert!(ds.list().check_invariants(ctx).unwrap());
                ds.list().collect(ctx).unwrap()
            },
            &ops,
            SortedListDs::hcf_config,
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(*r, out, "{v} diverged"),
        }
    }
}
