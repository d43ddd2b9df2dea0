//! A sorted singly-linked-list set — the structure where combining's
//! *algorithmic* advantage is largest, and the one §4's related work
//! (lazy lists with combining-on-locks, Drachsler-Cohen & Petrank)
//! targets with far more machinery.
//!
//! Every operation traverses from the head, so a single operation costs
//! O(n) — and on HTM the traversal puts the whole prefix in the read
//! set, making long lists both capacity-hungry and conflict-fragile
//! (any update near the head aborts every reader behind it): a known
//! TLE pathology. Combining turns N delegated operations into **one**
//! shared sweep: sort the batch by key and apply it left-to-right in a
//! single traversal, O(n + N log N) instead of N·O(n).
//!
//! # Node layout (2 words)
//!
//! ```text
//! [0] key   [1] next
//! ```

use hcf_core::{DataStructure, HcfConfig, PhasePolicy, SelectPolicy};
use hcf_tmem::{Addr, MemCtx, TxResult};

const NODE_WORDS: usize = 2;
const F_KEY: u64 = 0;
const F_NEXT: u64 = 1;

/// The sequential sorted-list set (ascending, unique keys).
#[derive(Clone, Copy, Debug)]
pub struct SortedList {
    /// Anchor holding the first node (line-padded).
    head: Addr,
}

impl SortedList {
    /// Creates an empty set.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn create(ctx: &mut dyn MemCtx) -> TxResult<Self> {
        Ok(SortedList {
            head: ctx.alloc_line()?,
        })
    }

    /// Walks to the first node with `key >= k`, returning
    /// `(prev_link_addr, node)`: `prev_link_addr` is the word holding the
    /// pointer to `node` (the head anchor or a `next` field).
    fn locate(&self, ctx: &mut dyn MemCtx, k: u64) -> TxResult<(Addr, Addr)> {
        let mut link = self.head;
        let mut cur = Addr(ctx.read(link)?);
        while !cur.is_null() && ctx.read(cur + F_KEY)? < k {
            link = cur + F_NEXT;
            cur = Addr(ctx.read(link)?);
        }
        Ok((link, cur))
    }

    /// Membership test.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn contains(&self, ctx: &mut dyn MemCtx, k: u64) -> TxResult<bool> {
        let (_, cur) = self.locate(ctx, k)?;
        Ok(!cur.is_null() && ctx.read(cur + F_KEY)? == k)
    }

    /// Inserts `k`; `true` if it was absent.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn insert(&self, ctx: &mut dyn MemCtx, k: u64) -> TxResult<bool> {
        let (link, cur) = self.locate(ctx, k)?;
        if !cur.is_null() && ctx.read(cur + F_KEY)? == k {
            return Ok(false);
        }
        let node = ctx.alloc(NODE_WORDS)?;
        ctx.write(node + F_KEY, k)?;
        ctx.write(node + F_NEXT, cur.0)?;
        ctx.write(link, node.0)?;
        Ok(true)
    }

    /// Removes `k`; `true` if it was present.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn remove(&self, ctx: &mut dyn MemCtx, k: u64) -> TxResult<bool> {
        let (link, cur) = self.locate(ctx, k)?;
        if cur.is_null() || ctx.read(cur + F_KEY)? != k {
            return Ok(false);
        }
        let next = ctx.read(cur + F_NEXT)?;
        ctx.write(link, next)?;
        ctx.free(cur, NODE_WORDS);
        Ok(true)
    }

    /// Number of keys (O(n)).
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn len(&self, ctx: &mut dyn MemCtx) -> TxResult<u64> {
        Ok(self.collect(ctx)?.len() as u64)
    }

    /// `true` when empty.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn is_empty(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        Ok(ctx.read(self.head)? == 0)
    }

    /// All keys, ascending.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn collect(&self, ctx: &mut dyn MemCtx) -> TxResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut cur = Addr(ctx.read(self.head)?);
        while !cur.is_null() {
            out.push(ctx.read(cur + F_KEY)?);
            cur = Addr(ctx.read(cur + F_NEXT)?);
        }
        Ok(out)
    }

    /// Validates strict ascending order.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn check_invariants(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        let keys = self.collect(ctx)?;
        Ok(keys.windows(2).all(|w| w[0] < w[1]))
    }

    /// The single-sweep combined application (see the module docs):
    /// results are pushed onto `out` as `(index into ops, result)`. The
    /// chosen linearization is "ascending key order, batch order within a
    /// key".
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn apply_sweep(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[ListOp],
        out: &mut Vec<(usize, bool)>,
    ) -> TxResult<()> {
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| ops[i].key());

        // Forward sweep state: `link` is the address of the pointer to
        // `cur`; both only ever move rightward.
        let mut link = self.head;
        let mut cur = Addr(ctx.read(link)?);

        let mut g = 0;
        while g < order.len() {
            let key = ops[order[g]].key();
            let mut end = g;
            while end < order.len() && ops[order[end]].key() == key {
                end += 1;
            }
            // Advance the sweep to the first node with key >= `key`.
            while !cur.is_null() && ctx.read(cur + F_KEY)? < key {
                link = cur + F_NEXT;
                cur = Addr(ctx.read(link)?);
            }
            let before = !cur.is_null() && ctx.read(cur + F_KEY)? == key;
            let mut present = before;
            for &i in &order[g..end] {
                let res = match ops[i] {
                    ListOp::Insert(_) => {
                        let r = !present;
                        present = true;
                        r
                    }
                    ListOp::Remove(_) => {
                        let r = present;
                        present = false;
                        r
                    }
                    ListOp::Contains(_) => present,
                };
                out.push((i, res));
            }
            if present != before {
                if present {
                    // Net insert before `cur`.
                    let node = ctx.alloc(NODE_WORDS)?;
                    ctx.write(node + F_KEY, key)?;
                    ctx.write(node + F_NEXT, cur.0)?;
                    ctx.write(link, node.0)?;
                    // The sweep resumes after the new node.
                    link = node + F_NEXT;
                } else {
                    // Net remove of `cur` (== key).
                    let next = ctx.read(cur + F_NEXT)?;
                    ctx.write(link, next)?;
                    ctx.free(cur, NODE_WORDS);
                    cur = Addr(next);
                }
            }
            g = end;
        }
        Ok(())
    }
}

/// Sorted-list operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListOp {
    /// Insert a key; `true` if it was absent.
    Insert(u64),
    /// Remove a key; `true` if it was present.
    Remove(u64),
    /// Membership test.
    Contains(u64),
}

impl ListOp {
    /// The key this operation addresses.
    pub fn key(&self) -> u64 {
        match *self {
            ListOp::Insert(k) | ListOp::Remove(k) | ListOp::Contains(k) => k,
        }
    }
}

/// [`DataStructure`] wrapper: one array, help-everyone, single-sweep
/// `run_multi`, specialized contention control.
#[derive(Clone, Copy, Debug)]
pub struct SortedListDs {
    list: SortedList,
}

impl SortedListDs {
    /// Wraps a list.
    pub fn new(list: SortedList) -> Self {
        SortedListDs { list }
    }

    /// The underlying list.
    pub fn list(&self) -> &SortedList {
        &self.list
    }

    /// Tuned configuration: a couple of private attempts (they pay off
    /// for operations near the head and at low thread counts), then
    /// combining — the sweep amortizes the traversal.
    pub fn hcf_config(max_threads: usize) -> HcfConfig {
        HcfConfig::new(max_threads).with_default_policy(PhasePolicy {
            try_private: 2,
            try_visible: 1,
            try_combining: 5,
            select: SelectPolicy::All,
            specialized: true,
        })
    }
}

impl DataStructure for SortedListDs {
    type Op = ListOp;
    type Res = bool;

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &ListOp) -> TxResult<bool> {
        match *op {
            ListOp::Insert(k) => self.list.insert(ctx, k),
            ListOp::Remove(k) => self.list.remove(ctx, k),
            ListOp::Contains(k) => self.list.contains(ctx, k),
        }
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[ListOp],
        out: &mut Vec<(usize, bool)>,
    ) -> TxResult<()> {
        self.list.apply_sweep(ctx, ops, out)
    }

    fn max_multi(&self) -> usize {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};
    use std::collections::BTreeSet;

    fn setup() -> (TMem, RealRuntime) {
        (TMem::new(TMemConfig::default()), RealRuntime::new())
    }

    #[test]
    fn insert_contains_remove() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let l = SortedList::create(&mut ctx).unwrap();
        assert!(!l.contains(&mut ctx, 5).unwrap());
        assert!(l.insert(&mut ctx, 5).unwrap());
        assert!(!l.insert(&mut ctx, 5).unwrap());
        assert!(l.insert(&mut ctx, 3).unwrap());
        assert!(l.insert(&mut ctx, 7).unwrap());
        assert_eq!(l.collect(&mut ctx).unwrap(), vec![3, 5, 7]);
        assert!(l.check_invariants(&mut ctx).unwrap());
        assert!(l.remove(&mut ctx, 5).unwrap());
        assert!(!l.remove(&mut ctx, 5).unwrap());
        assert_eq!(l.collect(&mut ctx).unwrap(), vec![3, 7]);
    }

    #[test]
    fn matches_btreeset_on_random_ops() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let l = SortedList::create(&mut ctx).unwrap();
        let mut model = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(21);
        for step in 0..2000 {
            let k = rng.random_range(0..64u64);
            match rng.random_range(0..3) {
                0 => assert_eq!(l.insert(&mut ctx, k).unwrap(), model.insert(k)),
                1 => assert_eq!(l.remove(&mut ctx, k).unwrap(), model.remove(&k)),
                _ => assert_eq!(l.contains(&mut ctx, k).unwrap(), model.contains(&k)),
            }
            if step % 256 == 0 {
                assert!(l.check_invariants(&mut ctx).unwrap());
            }
        }
        assert_eq!(
            l.collect(&mut ctx).unwrap(),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweep_inserts_removes_eliminates() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let l = SortedList::create(&mut ctx).unwrap();
        for k in [10, 20, 30] {
            l.insert(&mut ctx, k).unwrap();
        }
        let ops = [
            ListOp::Insert(5),
            ListOp::Remove(20),
            ListOp::Insert(25),
            ListOp::Insert(5),    // duplicate in batch: second loses
            ListOp::Contains(30), // untouched key
            ListOp::Insert(20),   // reinsert after the remove (same key group)
        ];
        let mut res = Vec::new();
        l.apply_sweep(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        let vals: Vec<bool> = res.iter().map(|&(_, b)| b).collect();
        // Key-20 group in batch order: Remove(20)=true, Insert(20)=true.
        assert_eq!(vals, vec![true, true, true, false, true, true]);
        assert_eq!(l.collect(&mut ctx).unwrap(), vec![5, 10, 20, 25, 30]);
        assert!(l.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn sweep_net_remove_then_next_group() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let l = SortedList::create(&mut ctx).unwrap();
        for k in [1, 2, 3] {
            l.insert(&mut ctx, k).unwrap();
        }
        // Remove consecutive nodes in one sweep (exercises the sweep
        // state after an unlink).
        let ops = [ListOp::Remove(1), ListOp::Remove(2), ListOp::Insert(4)];
        let mut res = Vec::new();
        l.apply_sweep(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        assert!(res.iter().all(|&(_, b)| b));
        assert_eq!(l.collect(&mut ctx).unwrap(), vec![3, 4]);
    }

    #[test]
    fn sweep_matches_sorted_replay() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..100 {
            let la = SortedList::create(&mut ctx).unwrap();
            let lb = SortedList::create(&mut ctx).unwrap();
            for k in 0..16 {
                if rng.random_bool(0.5) {
                    la.insert(&mut ctx, k).unwrap();
                    lb.insert(&mut ctx, k).unwrap();
                }
            }
            let ops: Vec<ListOp> = (0..10)
                .map(|_| {
                    let k = rng.random_range(0..16u64);
                    match rng.random_range(0..3) {
                        0 => ListOp::Insert(k),
                        1 => ListOp::Remove(k),
                        _ => ListOp::Contains(k),
                    }
                })
                .collect();
            let mut sweep = Vec::new();
            la.apply_sweep(&mut ctx, &ops, &mut sweep).unwrap();
            sweep.sort_by_key(|&(i, _)| i);
            // Reference: replay in (key, batch-order) sequence.
            let mut order: Vec<usize> = (0..ops.len()).collect();
            order.sort_by_key(|&i| ops[i].key());
            let dsb = SortedListDs::new(lb);
            let mut want: Vec<(usize, bool)> = order
                .iter()
                .map(|&i| (i, dsb.run_seq(&mut ctx, &ops[i]).unwrap()))
                .collect();
            want.sort_by_key(|&(i, _)| i);
            assert_eq!(sweep, want);
            assert_eq!(
                la.collect(&mut ctx).unwrap(),
                dsb.list().collect(&mut ctx).unwrap()
            );
            assert!(la.check_invariants(&mut ctx).unwrap());
        }
    }

    #[test]
    fn empty_sweep_is_noop() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let l = SortedList::create(&mut ctx).unwrap();
        l.insert(&mut ctx, 1).unwrap();
        let mut res = Vec::new();
        l.apply_sweep(&mut ctx, &[], &mut res).unwrap();
        assert!(res.is_empty());
        assert_eq!(l.collect(&mut ctx).unwrap(), vec![1]);
    }
}
