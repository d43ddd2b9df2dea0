//! The §3.4 AVL-tree-based set.
//!
//! A classic height-balanced binary search tree, plus "a few trivial
//! changes" from the paper: a **root-key look-aside** word that
//! `should_help` reads (without touching the tree) to select only
//! operations falling in the same root subtree as the combiner's own, and
//! a `run_multi` that sorts selected operations by key and **combines and
//! eliminates** same-key operations so each key costs one lookup plus at
//! most one structural change.
//!
//! Height bookkeeping writes only when a height actually changes and stops
//! propagating as soon as the subtree height is stable — otherwise every
//! insert would dirty its whole path and uniform workloads would not
//! parallelize (the property the paper's TLE baseline relies on).
//!
//! # Node layout (4 words)
//!
//! ```text
//! [0] key   [1] left   [2] right   [3] height
//! ```

use hcf_core::{DataStructure, HcfConfig, PhasePolicy, SelectPolicy};
use hcf_tmem::{Addr, MemCtx, TxResult};

const NODE_WORDS: usize = 4;
const F_KEY: u64 = 0;
const F_LEFT: u64 = 1;
const F_RIGHT: u64 = 2;
const F_HEIGHT: u64 = 3;

/// Header layout: `[0]` root, `[1]` root-key look-aside.
const H_ROOT: u64 = 0;
const H_ROOT_KEY: u64 = 1;

/// The sequential AVL set.
#[derive(Clone, Copy, Debug)]
pub struct AvlTree {
    header: Addr,
}

impl AvlTree {
    /// Creates an empty set.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn create(ctx: &mut dyn MemCtx) -> TxResult<Self> {
        let header = ctx.alloc(2)?;
        Ok(AvlTree { header })
    }

    /// The root-key look-aside address (read directly by `should_help`).
    pub fn root_key_addr(&self) -> Addr {
        self.header + H_ROOT_KEY
    }

    fn height(&self, ctx: &mut dyn MemCtx, node: Addr) -> TxResult<u64> {
        if node.is_null() {
            Ok(0)
        } else {
            ctx.read(node + F_HEIGHT)
        }
    }

    fn balance(&self, ctx: &mut dyn MemCtx, node: Addr) -> TxResult<i64> {
        let left = Addr(ctx.read(node + F_LEFT)?);
        let right = Addr(ctx.read(node + F_RIGHT)?);
        let l = self.height(ctx, left)?;
        let r = self.height(ctx, right)?;
        Ok(l as i64 - r as i64)
    }

    /// Recomputes `node`'s height, writing only on change. Returns it.
    fn fix_height(&self, ctx: &mut dyn MemCtx, node: Addr) -> TxResult<u64> {
        let left = Addr(ctx.read(node + F_LEFT)?);
        let right = Addr(ctx.read(node + F_RIGHT)?);
        let l = self.height(ctx, left)?;
        let r = self.height(ctx, right)?;
        let h = 1 + l.max(r);
        if ctx.read(node + F_HEIGHT)? != h {
            ctx.write(node + F_HEIGHT, h)?;
        }
        Ok(h)
    }

    fn rotate_right(&self, ctx: &mut dyn MemCtx, node: Addr) -> TxResult<Addr> {
        let l = Addr(ctx.read(node + F_LEFT)?);
        let lr = ctx.read(l + F_RIGHT)?;
        ctx.write(node + F_LEFT, lr)?;
        ctx.write(l + F_RIGHT, node.0)?;
        self.fix_height(ctx, node)?;
        self.fix_height(ctx, l)?;
        Ok(l)
    }

    fn rotate_left(&self, ctx: &mut dyn MemCtx, node: Addr) -> TxResult<Addr> {
        let r = Addr(ctx.read(node + F_RIGHT)?);
        let rl = ctx.read(r + F_LEFT)?;
        ctx.write(node + F_RIGHT, rl)?;
        ctx.write(r + F_LEFT, node.0)?;
        self.fix_height(ctx, node)?;
        self.fix_height(ctx, r)?;
        Ok(r)
    }

    /// Rebalances `node` if needed, returning the subtree's (possibly new)
    /// root.
    fn rebalance(&self, ctx: &mut dyn MemCtx, node: Addr) -> TxResult<Addr> {
        let bf = self.balance(ctx, node)?;
        if bf > 1 {
            let l = Addr(ctx.read(node + F_LEFT)?);
            let l_left = Addr(ctx.read(l + F_LEFT)?);
            let l_right = Addr(ctx.read(l + F_RIGHT)?);
            let ll = self.height(ctx, l_left)?;
            let lr = self.height(ctx, l_right)?;
            if ll < lr {
                let new_l = self.rotate_left(ctx, l)?;
                ctx.write(node + F_LEFT, new_l.0)?;
            }
            self.rotate_right(ctx, node)
        } else if bf < -1 {
            let r = Addr(ctx.read(node + F_RIGHT)?);
            let r_left = Addr(ctx.read(r + F_LEFT)?);
            let r_right = Addr(ctx.read(r + F_RIGHT)?);
            let rl = self.height(ctx, r_left)?;
            let rr = self.height(ctx, r_right)?;
            if rr < rl {
                let new_r = self.rotate_right(ctx, r)?;
                ctx.write(node + F_RIGHT, new_r.0)?;
            }
            self.rotate_left(ctx, node)
        } else {
            Ok(node)
        }
    }

    /// Writes child `new` into `parent`'s slot (or the root), and keeps
    /// the root-key look-aside in sync when the root changes.
    fn set_child(
        &self,
        ctx: &mut dyn MemCtx,
        parent: Option<(Addr, bool)>,
        old: Addr,
        new: Addr,
    ) -> TxResult<()> {
        if old == new {
            return Ok(());
        }
        match parent {
            Some((p, went_left)) => {
                let f = if went_left { F_LEFT } else { F_RIGHT };
                ctx.write(p + f, new.0)?;
            }
            None => {
                ctx.write(self.header + H_ROOT, new.0)?;
                let rk = if new.is_null() {
                    0
                } else {
                    ctx.read(new + F_KEY)?
                };
                ctx.write(self.header + H_ROOT_KEY, rk)?;
            }
        }
        Ok(())
    }

    /// Walks the recorded path bottom-up fixing heights and rebalancing.
    /// Stops early once a subtree's height is unchanged and it is
    /// balanced — ancestors cannot be affected past that point.
    fn repair_path(&self, ctx: &mut dyn MemCtx, path: &mut Vec<(Addr, bool)>) -> TxResult<()> {
        while let Some((node, _)) = path.pop() {
            let before = ctx.read(node + F_HEIGHT)?;
            let after = self.fix_height(ctx, node)?;
            let new_node = self.rebalance(ctx, node)?;
            let parent = path.last().copied();
            self.set_child(ctx, parent, node, new_node)?;
            let final_h = self.height(ctx, new_node)?;
            if new_node == node && after == before && final_h == before {
                break;
            }
        }
        // Keep the look-aside honest even when no root rotation happened
        // but the root key itself changed (two-child removal swaps keys).
        let root = Addr(ctx.read(self.header + H_ROOT)?);
        if !root.is_null() {
            let rk = ctx.read(root + F_KEY)?;
            if ctx.read(self.header + H_ROOT_KEY)? != rk {
                ctx.write(self.header + H_ROOT_KEY, rk)?;
            }
        }
        Ok(())
    }

    /// Membership test.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn contains(&self, ctx: &mut dyn MemCtx, key: u64) -> TxResult<bool> {
        let mut cur = Addr(ctx.read(self.header + H_ROOT)?);
        while !cur.is_null() {
            let k = ctx.read(cur + F_KEY)?;
            if k == key {
                return Ok(true);
            }
            cur = Addr(ctx.read(cur + if key < k { F_LEFT } else { F_RIGHT })?);
        }
        Ok(false)
    }

    /// Inserts `key`; returns `true` if it was absent.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn insert(&self, ctx: &mut dyn MemCtx, key: u64) -> TxResult<bool> {
        let mut path: Vec<(Addr, bool)> = Vec::new();
        let mut cur = Addr(ctx.read(self.header + H_ROOT)?);
        while !cur.is_null() {
            let k = ctx.read(cur + F_KEY)?;
            if k == key {
                return Ok(false);
            }
            let left = key < k;
            path.push((cur, left));
            cur = Addr(ctx.read(cur + if left { F_LEFT } else { F_RIGHT })?);
        }
        let node = ctx.alloc(NODE_WORDS)?;
        ctx.write(node + F_KEY, key)?;
        ctx.write(node + F_HEIGHT, 1)?;
        match path.last().copied() {
            Some((p, left)) => {
                ctx.write(p + if left { F_LEFT } else { F_RIGHT }, node.0)?;
            }
            None => {
                ctx.write(self.header + H_ROOT, node.0)?;
                ctx.write(self.header + H_ROOT_KEY, key)?;
            }
        }
        self.repair_path(ctx, &mut path)?;
        Ok(true)
    }

    /// Removes `key`; returns `true` if it was present.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn remove(&self, ctx: &mut dyn MemCtx, key: u64) -> TxResult<bool> {
        let mut path: Vec<(Addr, bool)> = Vec::new();
        let mut cur = Addr(ctx.read(self.header + H_ROOT)?);
        let mut target = Addr::NULL;
        while !cur.is_null() {
            let k = ctx.read(cur + F_KEY)?;
            if k == key {
                target = cur;
                break;
            }
            let left = key < k;
            path.push((cur, left));
            cur = Addr(ctx.read(cur + if left { F_LEFT } else { F_RIGHT })?);
        }
        if target.is_null() {
            return Ok(false);
        }

        let left = Addr(ctx.read(target + F_LEFT)?);
        let right = Addr(ctx.read(target + F_RIGHT)?);
        if !left.is_null() && !right.is_null() {
            // Two children: overwrite target's key with its successor's
            // key and delete the successor node instead.
            path.push((target, false));
            let mut succ = right;
            loop {
                let sl = Addr(ctx.read(succ + F_LEFT)?);
                if sl.is_null() {
                    break;
                }
                path.push((succ, true));
                succ = sl;
            }
            let sk = ctx.read(succ + F_KEY)?;
            ctx.write(target + F_KEY, sk)?;
            if target == Addr(ctx.read(self.header + H_ROOT)?) {
                ctx.write(self.header + H_ROOT_KEY, sk)?;
            }
            let child = Addr(ctx.read(succ + F_RIGHT)?);
            let parent = path.last().copied();
            self.set_child(ctx, parent, succ, child)?;
            ctx.free(succ, NODE_WORDS);
        } else {
            let child = if left.is_null() { right } else { left };
            let parent = path.last().copied();
            self.set_child(ctx, parent, target, child)?;
            ctx.free(target, NODE_WORDS);
        }
        self.repair_path(ctx, &mut path)?;
        Ok(true)
    }

    /// Number of keys (in-order walk; O(n)).
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
        Ok(ctx.read(self.header + H_ROOT)? == 0)
    }

    /// All keys in ascending order.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn collect(&self, ctx: &mut dyn MemCtx) -> TxResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut cur = Addr(ctx.read(self.header + H_ROOT)?);
        loop {
            while !cur.is_null() {
                stack.push(cur);
                cur = Addr(ctx.read(cur + F_LEFT)?);
            }
            let Some(node) = stack.pop() else { break };
            out.push(ctx.read(node + F_KEY)?);
            cur = Addr(ctx.read(node + F_RIGHT)?);
        }
        Ok(out)
    }

    /// Validates AVL invariants: BST order, height bookkeeping, balance
    /// factors in `[-1, 1]`, and look-aside consistency.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn check_invariants(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        let root = Addr(ctx.read(self.header + H_ROOT)?);
        if !root.is_null() {
            let rk = ctx.read(root + F_KEY)?;
            if ctx.read(self.header + H_ROOT_KEY)? != rk {
                return Ok(false);
            }
        }
        Ok(self.check_node(ctx, root, None, None)?.is_some())
    }

    /// Returns `Some(height)` when the subtree is a valid AVL tree within
    /// the `(lo, hi)` key bounds.
    fn check_node(
        &self,
        ctx: &mut dyn MemCtx,
        node: Addr,
        lo: Option<u64>,
        hi: Option<u64>,
    ) -> TxResult<Option<u64>> {
        if node.is_null() {
            return Ok(Some(0));
        }
        let k = ctx.read(node + F_KEY)?;
        if lo.is_some_and(|l| k <= l) || hi.is_some_and(|h| k >= h) {
            return Ok(None);
        }
        let left = Addr(ctx.read(node + F_LEFT)?);
        let right = Addr(ctx.read(node + F_RIGHT)?);
        let Some(lh) = self.check_node(ctx, left, lo, Some(k))? else {
            return Ok(None);
        };
        let Some(rh) = self.check_node(ctx, right, Some(k), hi)? else {
            return Ok(None);
        };
        let h = 1 + lh.max(rh);
        let stored = ctx.read(node + F_HEIGHT)?;
        let balanced = (lh as i64 - rh as i64).abs() <= 1;
        Ok((stored == h && balanced).then_some(h))
    }
}

/// Set operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetOp {
    /// Insert a key; `true` if it was absent.
    Insert(u64),
    /// Remove a key; `true` if it was present.
    Remove(u64),
    /// Membership test.
    Contains(u64),
}

impl SetOp {
    /// The key this operation addresses.
    pub fn key(&self) -> u64 {
        match *self {
            SetOp::Insert(k) | SetOp::Remove(k) | SetOp::Contains(k) => k,
        }
    }
}

/// Combining strategy of the [`AvlDs`] wrapper — the §3.4 variants,
/// including the ablations discussed at the end of that section.
#[derive(Clone, Debug, Default)]
pub enum AvlMode {
    /// The paper's preferred variant: one publication array, a combiner
    /// selects only operations on keys in the same root subtree as its
    /// own (via the look-aside), and `run_multi` sorts/combines/eliminates.
    #[default]
    Selective,
    /// Ablation: combine/eliminate, but help every announced operation.
    HelpAll,
    /// Ablation: help everyone but replay operations one by one (no
    /// combining or elimination).
    NoCombine,
    /// The other §2.4 selection mechanism: combine only operations on
    /// the *same key* as the combiner's own (maximal elimination, minimal
    /// batch footprint).
    SameKey,
}

/// [`DataStructure`] wrapper for the AVL set.
#[derive(Debug)]
pub struct AvlDs {
    tree: AvlTree,
    mode: AvlMode,
}

impl AvlDs {
    /// Wraps a tree with the given combining mode.
    pub fn new(tree: AvlTree, mode: AvlMode) -> Self {
        AvlDs { tree, mode }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &AvlTree {
        &self.tree
    }

    /// The HCF configuration used by the §3.4 experiment (default 2/3/5
    /// policy; selection behaviour comes from the mode).
    ///
    /// All modes enable the §2.4 *specialized* contention control: the
    /// combiner keeps the selection lock for its whole session, so owners
    /// of announced operations abort their speculative attempts cheaply
    /// (at subscription, before touching the tree) instead of piling onto
    /// the hot keys — the "more efficient auxiliary lock" the paper
    /// describes. Non-announced operations still speculate freely.
    pub fn hcf_config(max_threads: usize, mode: &AvlMode) -> HcfConfig {
        let select = match mode {
            AvlMode::Selective | AvlMode::SameKey => SelectPolicy::ShouldHelp,
            AvlMode::HelpAll | AvlMode::NoCombine => SelectPolicy::All,
        };
        HcfConfig::new(max_threads).with_default_policy(
            PhasePolicy::hcf_default()
                .with_select(select)
                .specialized(true),
        )
    }
}

impl DataStructure for AvlDs {
    type Op = SetOp;
    type Res = bool;

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &SetOp) -> TxResult<bool> {
        match *op {
            SetOp::Insert(k) => self.tree.insert(ctx, k),
            SetOp::Remove(k) => self.tree.remove(ctx, k),
            SetOp::Contains(k) => self.tree.contains(ctx, k),
        }
    }

    fn should_help(&self, ctx: &mut dyn MemCtx, mine: &SetOp, other: &SetOp) -> bool {
        match self.mode {
            AvlMode::SameKey => mine.key() == other.key(),
            AvlMode::Selective => {
                // Same root subtree as my own operation, judged by the
                // look-aside (a heuristic direct read — correctness does
                // not depend on it being current).
                let root_key = ctx.read(self.tree.root_key_addr()).unwrap_or(0);
                (mine.key() >= root_key) == (other.key() >= root_key)
            }
            _ => true,
        }
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[SetOp],
        out: &mut Vec<(usize, bool)>,
    ) -> TxResult<()> {
        if matches!(self.mode, AvlMode::NoCombine) {
            for (i, op) in ops.iter().enumerate() {
                out.push((i, self.run_seq(ctx, op)?));
            }
            return Ok(());
        }
        // Sort by key (stable on batch order within a key), then combine
        // and eliminate per key group: one membership lookup, a simulated
        // run of the group's operations against that presence bit, and at
        // most one structural tree update.
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| ops[i].key());
        let mut g = 0;
        while g < order.len() {
            let key = ops[order[g]].key();
            let mut end = g;
            while end < order.len() && ops[order[end]].key() == key {
                end += 1;
            }
            let before = self.tree.contains(ctx, key)?;
            let mut present = before;
            for &i in &order[g..end] {
                let res = match ops[i] {
                    SetOp::Insert(_) => {
                        let r = !present;
                        present = true;
                        r
                    }
                    SetOp::Remove(_) => {
                        let r = present;
                        present = false;
                        r
                    }
                    SetOp::Contains(_) => present,
                };
                out.push((i, res));
            }
            if present != before {
                if present {
                    self.tree.insert(ctx, key)?;
                } else {
                    self.tree.remove(ctx, key)?;
                }
            }
            g = end;
        }
        Ok(())
    }

    fn max_multi(&self) -> usize {
        // Small chunks keep each combining transaction's footprint (and
        // therefore its conflict cross-section) modest, so batches commit
        // speculatively instead of falling back to the lock.
        8
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
        let t = AvlTree::create(&mut ctx).unwrap();
        assert!(!t.contains(&mut ctx, 5).unwrap());
        assert!(t.insert(&mut ctx, 5).unwrap());
        assert!(!t.insert(&mut ctx, 5).unwrap());
        assert!(t.contains(&mut ctx, 5).unwrap());
        assert!(t.remove(&mut ctx, 5).unwrap());
        assert!(!t.remove(&mut ctx, 5).unwrap());
        assert!(t.is_empty(&mut ctx).unwrap());
    }

    #[test]
    fn stays_balanced_on_sorted_inserts() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = AvlTree::create(&mut ctx).unwrap();
        for k in 0..256 {
            assert!(t.insert(&mut ctx, k).unwrap());
            assert!(t.check_invariants(&mut ctx).unwrap(), "after insert {k}");
        }
        assert_eq!(t.len(&mut ctx).unwrap(), 256);
        assert_eq!(t.collect(&mut ctx).unwrap(), (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn stays_balanced_on_reverse_removes() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = AvlTree::create(&mut ctx).unwrap();
        for k in 0..128 {
            t.insert(&mut ctx, k).unwrap();
        }
        for k in (0..128).rev() {
            assert!(t.remove(&mut ctx, k).unwrap());
            assert!(t.check_invariants(&mut ctx).unwrap(), "after remove {k}");
        }
        assert!(t.is_empty(&mut ctx).unwrap());
    }

    #[test]
    fn two_child_removal() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = AvlTree::create(&mut ctx).unwrap();
        for k in [50, 25, 75, 10, 30, 60, 90, 27, 35] {
            t.insert(&mut ctx, k).unwrap();
        }
        assert!(t.remove(&mut ctx, 25).unwrap()); // two children
        assert!(t.check_invariants(&mut ctx).unwrap());
        assert!(!t.contains(&mut ctx, 25).unwrap());
        assert!(t.contains(&mut ctx, 27).unwrap());
        assert!(t.remove(&mut ctx, 50).unwrap()); // possibly the root
        assert!(t.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn root_key_lookaside_tracks_root() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = AvlTree::create(&mut ctx).unwrap();
        // Sorted inserts force root rotations.
        for k in 1..=64 {
            t.insert(&mut ctx, k).unwrap();
            assert!(t.check_invariants(&mut ctx).unwrap());
        }
        for k in [1, 5, 9, 13, 17, 33] {
            t.remove(&mut ctx, k).unwrap();
            assert!(t.check_invariants(&mut ctx).unwrap());
        }
    }

    #[test]
    fn matches_btreeset_on_random_ops() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = AvlTree::create(&mut ctx).unwrap();
        let mut model = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..3000 {
            let k = rng.random_range(0..128u64);
            match rng.random_range(0..3) {
                0 => assert_eq!(t.insert(&mut ctx, k).unwrap(), model.insert(k)),
                1 => assert_eq!(t.remove(&mut ctx, k).unwrap(), model.remove(&k)),
                _ => assert_eq!(t.contains(&mut ctx, k).unwrap(), model.contains(&k)),
            }
            if step % 256 == 0 {
                assert!(t.check_invariants(&mut ctx).unwrap());
            }
        }
        assert_eq!(
            t.collect(&mut ctx).unwrap(),
            model.iter().copied().collect::<Vec<_>>()
        );
        assert!(t.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn run_multi_combines_and_eliminates() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = AvlTree::create(&mut ctx).unwrap();
        t.insert(&mut ctx, 10).unwrap();
        let ds = AvlDs::new(t, AvlMode::HelpAll);
        // Two inserts of the same absent key: only the first "takes
        // effect" (paper's example); insert+remove of an absent key nets
        // to nothing.
        let ops = [
            SetOp::Insert(5),
            SetOp::Insert(5),
            SetOp::Remove(10),
            SetOp::Insert(7),
            SetOp::Remove(7),
            SetOp::Contains(5),
        ];
        let mut res = Vec::new();
        ds.run_multi(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        let vals: Vec<bool> = res.iter().map(|&(_, b)| b).collect();
        assert_eq!(vals, vec![true, false, true, true, true, true]);
        let mut c = DirectCtx::new(&m, &rt);
        assert!(ds.tree().contains(&mut c, 5).unwrap());
        assert!(!ds.tree().contains(&mut c, 7).unwrap());
        assert!(!ds.tree().contains(&mut c, 10).unwrap());
        assert!(ds.tree().check_invariants(&mut c).unwrap());
    }

    #[test]
    fn run_multi_matches_sequential_semantics() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let ta = AvlTree::create(&mut ctx).unwrap();
            let tb = AvlTree::create(&mut ctx).unwrap();
            for k in 0..16 {
                if rng.random_bool(0.5) {
                    ta.insert(&mut ctx, k).unwrap();
                    tb.insert(&mut ctx, k).unwrap();
                }
            }
            let ops: Vec<SetOp> = (0..12)
                .map(|_| {
                    let k = rng.random_range(0..16u64);
                    match rng.random_range(0..3) {
                        0 => SetOp::Insert(k),
                        1 => SetOp::Remove(k),
                        _ => SetOp::Contains(k),
                    }
                })
                .collect();
            let dsa = AvlDs::new(ta, AvlMode::HelpAll);
            let mut multi = Vec::new();
            dsa.run_multi(&mut ctx, &ops, &mut multi).unwrap();
            multi.sort_by_key(|&(i, _)| i);
            // The combined linearization applies ops grouped by key, in
            // batch order within each group. Replay that order on tb.
            let mut order: Vec<usize> = (0..ops.len()).collect();
            order.sort_by_key(|&i| ops[i].key());
            let dsb = AvlDs::new(tb, AvlMode::NoCombine);
            let mut seq: Vec<(usize, bool)> = order
                .iter()
                .map(|&i| (i, dsb.run_seq(&mut ctx, &ops[i]).unwrap()))
                .collect();
            seq.sort_by_key(|&(i, _)| i);
            assert_eq!(multi, seq);
            assert_eq!(
                dsa.tree().collect(&mut ctx).unwrap(),
                dsb.tree().collect(&mut ctx).unwrap()
            );
        }
    }

    #[test]
    fn selective_should_help_splits_by_subtree() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = AvlTree::create(&mut ctx).unwrap();
        for k in [50, 25, 75] {
            t.insert(&mut ctx, k).unwrap();
        }
        let ds = AvlDs::new(t, AvlMode::Selective);
        let mine = SetOp::Insert(10);
        assert!(ds.should_help(&mut ctx, &mine, &SetOp::Remove(20)));
        assert!(!ds.should_help(&mut ctx, &mine, &SetOp::Remove(80)));
        let mine_r = SetOp::Contains(90);
        assert!(ds.should_help(&mut ctx, &mine_r, &SetOp::Insert(60)));
        assert!(!ds.should_help(&mut ctx, &mine_r, &SetOp::Insert(10)));
    }
}
