//! The §1 motivating example: a skip-list-based priority queue.
//!
//! `Insert` operations on random keys touch disjoint towers and
//! parallelize well on HTM; `RemoveMin` operations all fight over the
//! head's level-0 successor and *always* conflict — but they combine
//! trivially (one traversal removes n minima). HCF gives each class its
//! own publication array: inserts run the full four-phase pipeline, while
//! remove-mins skip the first two phases' HTM attempts and go straight to
//! combining ([`PhasePolicy::combining_first`]).
//!
//! Tower levels are a deterministic function of the key, so the structure
//! is identical across synchronization variants (fair comparisons) and
//! across reruns (deterministic experiments).
//!
//! # Node layout (`3 + level` words)
//!
//! ```text
//! [0] key   [1] value   [2] level   [3..3+level] next pointers
//! ```

use hcf_core::{DataStructure, HcfConfig, PhasePolicy};
use hcf_tmem::{Addr, MemCtx, TxResult};

const F_KEY: u64 = 0;
const F_VAL: u64 = 1;
const F_LEVEL: u64 = 2;
const F_NEXT: u64 = 3;

/// Maximum tower height.
pub const MAX_LEVEL: usize = 16;

/// Header layout: `[0..MAX_LEVEL]` head next-pointers.
#[derive(Clone, Copy, Debug)]
pub struct SkipListPq {
    head: Addr,
}

impl SkipListPq {
    /// Creates an empty priority queue.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn create(ctx: &mut dyn MemCtx) -> TxResult<Self> {
        let head = ctx.alloc(MAX_LEVEL)?;
        Ok(SkipListPq { head })
    }

    /// Deterministic tower height for `key`: geometric(1/2) derived from
    /// a splitmix64 of the key.
    pub fn level_of(key: u64) -> usize {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    }

    #[inline]
    fn head_next(&self, level: usize) -> Addr {
        self.head + level as u64
    }

    #[inline]
    fn node_next(node: Addr, level: usize) -> Addr {
        node + F_NEXT + level as u64
    }

    /// Inserts `(key, value)`; returns `false` (no change) if the key is
    /// already present.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn insert(&self, ctx: &mut dyn MemCtx, key: u64, value: u64) -> TxResult<bool> {
        // `update[l]` = the last node at level l with key < `key` (the
        // head acts as a virtual node).
        let mut update = [Addr::NULL; MAX_LEVEL];
        let mut cur = Addr::NULL; // NULL stands for the head
        for l in (0..MAX_LEVEL).rev() {
            loop {
                let next_addr = if cur.is_null() {
                    self.head_next(l)
                } else {
                    Self::node_next(cur, l)
                };
                let next = Addr(ctx.read(next_addr)?);
                if next.is_null() || ctx.read(next + F_KEY)? >= key {
                    break;
                }
                cur = next;
            }
            update[l] = cur;
        }
        let after = {
            let a = if cur.is_null() {
                self.head_next(0)
            } else {
                Self::node_next(cur, 0)
            };
            Addr(ctx.read(a)?)
        };
        if !after.is_null() && ctx.read(after + F_KEY)? == key {
            return Ok(false);
        }
        let level = Self::level_of(key);
        let node = ctx.alloc(3 + level)?;
        ctx.write(node + F_KEY, key)?;
        ctx.write(node + F_VAL, value)?;
        ctx.write(node + F_LEVEL, level as u64)?;
        for (l, &pred) in update.iter().enumerate().take(level) {
            let pred_next = if pred.is_null() {
                self.head_next(l)
            } else {
                Self::node_next(pred, l)
            };
            let succ = ctx.read(pred_next)?;
            ctx.write(Self::node_next(node, l), succ)?;
            ctx.write(pred_next, node.0)?;
        }
        Ok(true)
    }

    /// Removes and returns the minimum `(key, value)`, if any. Always
    /// reads and writes the head's level-0 pointer — the designed
    /// contention point.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn remove_min(&self, ctx: &mut dyn MemCtx) -> TxResult<Option<(u64, u64)>> {
        let first = Addr(ctx.read(self.head_next(0))?);
        if first.is_null() {
            return Ok(None);
        }
        let key = ctx.read(first + F_KEY)?;
        let value = ctx.read(first + F_VAL)?;
        let level = ctx.read(first + F_LEVEL)? as usize;
        // The minimum is the first node of every level it participates in.
        for l in 0..level {
            let succ = ctx.read(Self::node_next(first, l))?;
            debug_assert!(ctx.peek(self.head_next(l)).is_none_or(|h| h == first.0));
            ctx.write(self.head_next(l), succ)?;
        }
        ctx.free(first, 3 + level);
        Ok(Some((key, value)))
    }

    /// The current minimum without removing it.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn peek_min(&self, ctx: &mut dyn MemCtx) -> TxResult<Option<(u64, u64)>> {
        let first = Addr(ctx.read(self.head_next(0))?);
        if first.is_null() {
            return Ok(None);
        }
        Ok(Some((ctx.read(first + F_KEY)?, ctx.read(first + F_VAL)?)))
    }

    /// Number of elements (level-0 walk; O(n)).
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn len(&self, ctx: &mut dyn MemCtx) -> TxResult<u64> {
        let mut n = 0;
        let mut cur = Addr(ctx.read(self.head_next(0))?);
        while !cur.is_null() {
            n += 1;
            cur = Addr(ctx.read(Self::node_next(cur, 0))?);
        }
        Ok(n)
    }

    /// `true` when empty.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn is_empty(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        Ok(ctx.read(self.head_next(0))? == 0)
    }

    /// All `(key, value)` pairs in ascending key order.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn collect(&self, ctx: &mut dyn MemCtx) -> TxResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        let mut cur = Addr(ctx.read(self.head_next(0))?);
        while !cur.is_null() {
            out.push((ctx.read(cur + F_KEY)?, ctx.read(cur + F_VAL)?));
            cur = Addr(ctx.read(Self::node_next(cur, 0))?);
        }
        Ok(out)
    }

    /// Validates skip-list invariants: sorted level-0 list, and every
    /// level-l list is the subsequence of level-0 nodes with height > l.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn check_invariants(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        let base = self.collect(ctx)?;
        if !base.windows(2).all(|w| w[0].0 < w[1].0) {
            return Ok(false);
        }
        for l in 1..MAX_LEVEL {
            let mut expected = Vec::new();
            let mut cur = Addr(ctx.read(self.head_next(0))?);
            while !cur.is_null() {
                if ctx.read(cur + F_LEVEL)? as usize > l {
                    expected.push(cur);
                }
                cur = Addr(ctx.read(Self::node_next(cur, 0))?);
            }
            let mut actual = Vec::new();
            let mut cur = Addr(ctx.read(self.head_next(l))?);
            while !cur.is_null() {
                actual.push(cur);
                cur = Addr(ctx.read(Self::node_next(cur, l))?);
            }
            if expected != actual {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Priority-queue operations, with the array split from §2.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PqOp {
    /// Insert a `(key, value)` pair; `Some(key)` echoes success, `None`
    /// means the key was already present.
    Insert(u64, u64),
    /// Remove the minimum; returns its key (values are checked through
    /// [`SkipListPq::collect`] in tests).
    RemoveMin,
}

/// Publication array holding `RemoveMin` (combining-first policy).
pub const ARRAY_REMOVE_MIN: usize = 0;
/// Publication array holding `Insert` (full four-phase policy).
pub const ARRAY_INSERTS: usize = 1;

/// [`DataStructure`] wrapper for the priority queue.
#[derive(Clone, Copy, Debug)]
pub struct SkipListPqDs {
    pq: SkipListPq,
}

impl SkipListPqDs {
    /// Wraps a priority queue.
    pub fn new(pq: SkipListPq) -> Self {
        SkipListPqDs { pq }
    }

    /// The underlying queue.
    pub fn pq(&self) -> &SkipListPq {
        &self.pq
    }

    /// The §2.1 customization: `RemoveMin` announces and goes straight to
    /// the combining phases — with the §2.4 specialized contention
    /// control, since every `RemoveMin` is known to conflict with every
    /// other (one combiner at a time, owners back off cheaply); `Insert`
    /// runs the full pipeline.
    pub fn hcf_config(max_threads: usize) -> HcfConfig {
        HcfConfig::new(max_threads)
            .with_policy(
                ARRAY_REMOVE_MIN,
                PhasePolicy::combining_first(5).specialized(true),
            )
            .with_policy(ARRAY_INSERTS, PhasePolicy::hcf_default())
    }
}

impl DataStructure for SkipListPqDs {
    type Op = PqOp;
    type Res = Option<u64>;

    fn num_arrays(&self) -> usize {
        2
    }

    fn array_of(&self, op: &PqOp) -> usize {
        match op {
            PqOp::RemoveMin => ARRAY_REMOVE_MIN,
            PqOp::Insert(..) => ARRAY_INSERTS,
        }
    }

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &PqOp) -> TxResult<Option<u64>> {
        match *op {
            PqOp::Insert(k, v) => Ok(self.pq.insert(ctx, k, v)?.then_some(k)),
            PqOp::RemoveMin => Ok(self.pq.remove_min(ctx)?.map(|(k, _)| k)),
        }
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[PqOp],
        out: &mut Vec<(usize, Option<u64>)>,
    ) -> TxResult<()> {
        // Combine: one session serves every selected RemoveMin, in
        // batch order, before the batch's inserts.
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, PqOp::RemoveMin) {
                out.push((i, self.pq.remove_min(ctx)?.map(|(k, _)| k)));
            }
        }
        for (i, op) in ops.iter().enumerate() {
            if let PqOp::Insert(k, v) = *op {
                out.push((i, self.pq.insert(ctx, k, v)?.then_some(k)));
            }
        }
        Ok(())
    }

    fn max_multi(&self) -> usize {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};

    fn setup() -> (TMem, RealRuntime) {
        (TMem::new(TMemConfig::default()), RealRuntime::new())
    }

    #[test]
    fn insert_and_remove_min_in_order() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let pq = SkipListPq::create(&mut ctx).unwrap();
        for k in [5u64, 3, 9, 1, 7] {
            assert!(pq.insert(&mut ctx, k, k * 10).unwrap());
        }
        assert!(!pq.insert(&mut ctx, 3, 999).unwrap(), "duplicate rejected");
        assert!(pq.check_invariants(&mut ctx).unwrap());
        let mut drained = Vec::new();
        while let Some((k, v)) = pq.remove_min(&mut ctx).unwrap() {
            assert_eq!(v, k * 10);
            drained.push(k);
        }
        assert_eq!(drained, vec![1, 3, 5, 7, 9]);
        assert!(pq.is_empty(&mut ctx).unwrap());
        assert_eq!(pq.remove_min(&mut ctx).unwrap(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let pq = SkipListPq::create(&mut ctx).unwrap();
        pq.insert(&mut ctx, 4, 40).unwrap();
        assert_eq!(pq.peek_min(&mut ctx).unwrap(), Some((4, 40)));
        assert_eq!(pq.len(&mut ctx).unwrap(), 1);
    }

    #[test]
    fn levels_are_deterministic_and_bounded() {
        for k in 0..1000 {
            let l = SkipListPq::level_of(k);
            assert!((1..=MAX_LEVEL).contains(&l));
            assert_eq!(l, SkipListPq::level_of(k));
        }
        // Roughly geometric: about half the keys at level 1.
        let ones = (0..1000).filter(|&k| SkipListPq::level_of(k) == 1).count();
        assert!(
            (300..700).contains(&ones),
            "level-1 fraction {ones}/1000 is not near 1/2"
        );
    }

    #[test]
    fn invariants_hold_on_random_workload() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let pq = SkipListPq::create(&mut ctx).unwrap();
        let mut model = std::collections::BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..2000 {
            if rng.random_bool(0.6) {
                let k = rng.random_range(0..256u64);
                let v = rng.random();
                let expected = !model.contains_key(&k);
                assert_eq!(pq.insert(&mut ctx, k, v).unwrap(), expected);
                if expected {
                    model.insert(k, v);
                }
            } else {
                let expect = model.pop_first();
                assert_eq!(pq.remove_min(&mut ctx).unwrap(), expect);
            }
            if step % 256 == 0 {
                assert!(pq.check_invariants(&mut ctx).unwrap());
            }
        }
        assert_eq!(
            pq.collect(&mut ctx).unwrap(),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ds_routes_and_combines() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = SkipListPqDs::new(SkipListPq::create(&mut ctx).unwrap());
        assert_eq!(ds.array_of(&PqOp::RemoveMin), ARRAY_REMOVE_MIN);
        assert_eq!(ds.array_of(&PqOp::Insert(1, 1)), ARRAY_INSERTS);
        ds.pq().insert(&mut ctx, 1, 10).unwrap();
        ds.pq().insert(&mut ctx, 2, 20).unwrap();
        let ops = [PqOp::RemoveMin, PqOp::RemoveMin, PqOp::RemoveMin];
        let mut res = Vec::new();
        ds.run_multi(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        assert_eq!(res, vec![(0, Some(1)), (1, Some(2)), (2, None)]);
    }

    #[test]
    fn mixed_run_multi_applies_removals_first() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = SkipListPqDs::new(SkipListPq::create(&mut ctx).unwrap());
        ds.pq().insert(&mut ctx, 5, 50).unwrap();
        let ops = [PqOp::Insert(1, 10), PqOp::RemoveMin];
        let mut res = Vec::new();
        ds.run_multi(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        // RemoveMin linearizes before the batch's inserts: it takes 5.
        assert_eq!(res, vec![(0, Some(1)), (1, Some(5))]);
        assert_eq!(ds.pq().len(&mut ctx).unwrap(), 1);
    }
}
