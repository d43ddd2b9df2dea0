//! Property-based tests: every data structure against its `std` model,
//! including the combining `run_multi` paths, with `proptest_lite`
//! shrinking (halving sizes, failure-seed reporting).

use hcf_util::ptest::{
    any_bool, btree_set_of, one_of, option_of, tuple2, u64s, u8s, usizes, vec_of, Gen,
};
use hcf_util::{prop_assert, prop_assert_eq, proptest_lite};

use hcf_core::DataStructure;
use hcf_ds::*;
use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};

fn mem() -> (TMem, RealRuntime) {
    (
        TMem::new(TMemConfig::default().with_words(1 << 19)),
        RealRuntime::new(),
    )
}

#[derive(Clone, Debug)]
enum MapStep {
    Insert(u64, u64),
    Remove(u64),
    Find(u64),
    InsertN(Vec<(u64, u64)>),
}

fn map_step() -> Gen<MapStep> {
    let key = || u64s(0..48);
    one_of(vec![
        tuple2(key(), u64s(0..1000)).map(|(k, v)| MapStep::Insert(k, v)),
        key().map(MapStep::Remove),
        key().map(MapStep::Find),
        vec_of(tuple2(key(), u64s(0..1000)), 1..6).map(MapStep::InsertN),
    ])
}

fn set_op() -> Gen<(u8, u64)> {
    tuple2(u8s(0..3), u64s(0..32))
}

proptest_lite! {
    cases = 64;

    fn hashtable_matches_model(steps in vec_of(map_step(), 1..120)) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = HashTable::create(&mut ctx, 8).unwrap();
        let mut model = std::collections::HashMap::new();
        for s in steps {
            match s {
                MapStep::Insert(k, v) => {
                    prop_assert_eq!(t.insert(&mut ctx, k, v).unwrap(), model.insert(k, v));
                }
                MapStep::Remove(k) => {
                    prop_assert_eq!(t.remove(&mut ctx, k).unwrap(), model.remove(&k));
                }
                MapStep::Find(k) => {
                    prop_assert_eq!(t.find(&mut ctx, k).unwrap(), model.get(&k).copied());
                }
                MapStep::InsertN(pairs) => {
                    let got = t.insert_n(&mut ctx, &pairs).unwrap();
                    let want: Vec<Option<u64>> =
                        pairs.iter().map(|&(k, v)| model.insert(k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert!(t.check_invariants(&mut ctx).unwrap());
        }
        prop_assert_eq!(t.len(&mut ctx).unwrap(), model.len() as u64);
    }

    fn avl_matches_model(ops in vec_of(tuple2(u8s(0..3), u64s(0..40)), 1..200)) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = AvlTree::create(&mut ctx).unwrap();
        let mut model = std::collections::BTreeSet::new();
        for (op, k) in ops {
            match op {
                0 => prop_assert_eq!(t.insert(&mut ctx, k).unwrap(), model.insert(k)),
                1 => prop_assert_eq!(t.remove(&mut ctx, k).unwrap(), model.remove(&k)),
                _ => prop_assert_eq!(t.contains(&mut ctx, k).unwrap(), model.contains(&k)),
            }
            prop_assert!(t.check_invariants(&mut ctx).unwrap());
        }
        prop_assert_eq!(t.collect(&mut ctx).unwrap(), model.into_iter().collect::<Vec<_>>());
    }

    /// The combined/eliminated AVL `run_multi` is equivalent to replaying
    /// the batch in sorted-by-key order (its chosen linearization).
    fn avl_run_multi_equiv(
        prefill in btree_set_of(u64s(0..32), 0..16),
        batch in vec_of(set_op(), 1..12),
    ) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ta = AvlTree::create(&mut ctx).unwrap();
        let tb = AvlTree::create(&mut ctx).unwrap();
        for &k in &prefill {
            ta.insert(&mut ctx, k).unwrap();
            tb.insert(&mut ctx, k).unwrap();
        }
        let ops: Vec<SetOp> = batch
            .iter()
            .map(|&(op, k)| match op {
                0 => SetOp::Insert(k),
                1 => SetOp::Remove(k),
                _ => SetOp::Contains(k),
            })
            .collect();
        let dsa = AvlDs::new(ta, AvlMode::HelpAll);
        let mut got = Vec::new();
        dsa.run_multi(&mut ctx, &ops, &mut got).unwrap();
        got.sort_by_key(|&(i, _)| i);

        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| ops[i].key());
        let dsb = AvlDs::new(tb, AvlMode::NoCombine);
        let mut want: Vec<(usize, bool)> = order
            .iter()
            .map(|&i| (i, dsb.run_seq(&mut ctx, &ops[i]).unwrap()))
            .collect();
        want.sort_by_key(|&(i, _)| i);
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            dsa.tree().collect(&mut ctx).unwrap(),
            dsb.tree().collect(&mut ctx).unwrap()
        );
        prop_assert!(dsa.tree().check_invariants(&mut ctx).unwrap());
    }

    fn pq_matches_model(ops in vec_of(tuple2(any_bool(), u64s(0..64)), 1..150)) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let pq = SkipListPq::create(&mut ctx).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (ins, k) in ops {
            if ins {
                let expect = !model.contains_key(&k);
                prop_assert_eq!(pq.insert(&mut ctx, k, k * 3).unwrap(), expect);
                if expect {
                    model.insert(k, k * 3);
                }
            } else {
                prop_assert_eq!(pq.remove_min(&mut ctx).unwrap(), model.pop_first());
            }
        }
        prop_assert!(pq.check_invariants(&mut ctx).unwrap());
        prop_assert_eq!(
            pq.collect(&mut ctx).unwrap(),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    /// Stack and deque elimination `run_multi` both equal in-order replay.
    fn stack_run_multi_equiv(
        prefill in vec_of(u64s(1000..2000), 0..5),
        batch in vec_of(option_of(u64s(0..100)), 1..15),
    ) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let sa = Stack::create(&mut ctx).unwrap();
        let sb = Stack::create(&mut ctx).unwrap();
        for &v in &prefill {
            sa.push(&mut ctx, v).unwrap();
            sb.push(&mut ctx, v).unwrap();
        }
        let ops: Vec<StackOp> = batch
            .iter()
            .map(|o| match o {
                Some(v) => StackOp::Push(*v),
                None => StackOp::Pop,
            })
            .collect();
        let dsa = StackDs::new(sa);
        let dsb = StackDs::new(sb);
        let mut got = Vec::new();
        dsa.run_multi(&mut ctx, &ops, &mut got).unwrap();
        got.sort_by_key(|&(i, _)| i);
        let want: Vec<(usize, Option<u64>)> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| (i, dsb.run_seq(&mut ctx, op).unwrap()))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            dsa.stack().collect(&mut ctx).unwrap(),
            dsb.stack().collect(&mut ctx).unwrap()
        );
    }

    fn deque_run_multi_equiv(
        prefill in vec_of(u64s(1000..2000), 0..5),
        batch in vec_of(option_of(u64s(0..100)), 1..15),
        left in any_bool(),
    ) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let da = Deque::create(&mut ctx).unwrap();
        let db = Deque::create(&mut ctx).unwrap();
        for &v in &prefill {
            da.push(&mut ctx, deque::End::Left, v).unwrap();
            db.push(&mut ctx, deque::End::Left, v).unwrap();
        }
        let ops: Vec<DequeOp> = batch
            .iter()
            .map(|o| match (o, left) {
                (Some(v), true) => DequeOp::PushLeft(*v),
                (None, true) => DequeOp::PopLeft,
                (Some(v), false) => DequeOp::PushRight(*v),
                (None, false) => DequeOp::PopRight,
            })
            .collect();
        let dsa = DequeDs::new(da);
        let dsb = DequeDs::new(db);
        let mut got = Vec::new();
        dsa.run_multi(&mut ctx, &ops, &mut got).unwrap();
        got.sort_by_key(|&(i, _)| i);
        let want: Vec<(usize, Option<u64>)> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| (i, dsb.run_seq(&mut ctx, op).unwrap()))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            dsa.deque().collect(&mut ctx).unwrap(),
            dsb.deque().collect(&mut ctx).unwrap()
        );
        prop_assert!(dsa.deque().check_invariants(&mut ctx).unwrap());
    }

    fn queue_matches_model(ops in vec_of(option_of(u64s(0..1000)), 1..150)) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let q = Queue::create(&mut ctx).unwrap();
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    q.enqueue(&mut ctx, v).unwrap();
                    model.push_back(v);
                }
                None => {
                    prop_assert_eq!(q.dequeue(&mut ctx).unwrap(), model.pop_front());
                }
            }
            prop_assert!(q.check_invariants(&mut ctx).unwrap());
        }
        prop_assert_eq!(
            q.collect(&mut ctx).unwrap(),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    /// Batch operations are equivalent to their singleton expansions.
    fn queue_batches_equiv(
        prefill in vec_of(u64s(0..100), 0..8),
        batch in vec_of(u64s(0..100), 0..8),
        take in usizes(0..12),
    ) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let a = Queue::create(&mut ctx).unwrap();
        let b = Queue::create(&mut ctx).unwrap();
        for &v in &prefill {
            a.enqueue(&mut ctx, v).unwrap();
            b.enqueue(&mut ctx, v).unwrap();
        }
        a.enqueue_n(&mut ctx, &batch).unwrap();
        for &v in &batch {
            b.enqueue(&mut ctx, v).unwrap();
        }
        let ma = a.dequeue_n(&mut ctx, take).unwrap();
        let mb: Vec<_> = (0..take).map(|_| b.dequeue(&mut ctx).unwrap()).collect();
        prop_assert_eq!(ma, mb);
        prop_assert_eq!(a.collect(&mut ctx).unwrap(), b.collect(&mut ctx).unwrap());
        prop_assert!(a.check_invariants(&mut ctx).unwrap());
    }

    fn sorted_list_matches_model(ops in vec_of(set_op(), 1..150)) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let l = SortedList::create(&mut ctx).unwrap();
        let mut model = std::collections::BTreeSet::new();
        for (op, k) in ops {
            match op {
                0 => prop_assert_eq!(l.insert(&mut ctx, k).unwrap(), model.insert(k)),
                1 => prop_assert_eq!(l.remove(&mut ctx, k).unwrap(), model.remove(&k)),
                _ => prop_assert_eq!(l.contains(&mut ctx, k).unwrap(), model.contains(&k)),
            }
            prop_assert!(l.check_invariants(&mut ctx).unwrap());
        }
        prop_assert_eq!(l.collect(&mut ctx).unwrap(), model.into_iter().collect::<Vec<_>>());
    }

    /// The single-sweep batch application equals sorted-order replay.
    fn sorted_list_sweep_equiv(
        prefill in btree_set_of(u64s(0..24), 0..12),
        batch in vec_of(tuple2(u8s(0..3), u64s(0..24)), 1..14),
    ) {
        let (m, rt) = mem();
        let mut ctx = DirectCtx::new(&m, &rt);
        let la = SortedList::create(&mut ctx).unwrap();
        let lb = SortedList::create(&mut ctx).unwrap();
        for &k in &prefill {
            la.insert(&mut ctx, k).unwrap();
            lb.insert(&mut ctx, k).unwrap();
        }
        let ops: Vec<ListOp> = batch
            .iter()
            .map(|&(op, k)| match op {
                0 => ListOp::Insert(k),
                1 => ListOp::Remove(k),
                _ => ListOp::Contains(k),
            })
            .collect();
        let mut got = Vec::new();
        la.apply_sweep(&mut ctx, &ops, &mut got).unwrap();
        got.sort_by_key(|&(i, _)| i);
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| ops[i].key());
        let dsb = SortedListDs::new(lb);
        let mut want: Vec<(usize, bool)> = order
            .iter()
            .map(|&i| (i, dsb.run_seq(&mut ctx, &ops[i]).unwrap()))
            .collect();
        want.sort_by_key(|&(i, _)| i);
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            la.collect(&mut ctx).unwrap(),
            dsb.list().collect(&mut ctx).unwrap()
        );
        prop_assert!(la.check_invariants(&mut ctx).unwrap());
    }
}
