//! The §2.4 example: a double-ended queue with one publication array per
//! end.
//!
//! Operations on opposite ends of a (non-tiny) deque touch disjoint nodes
//! and can run concurrently on HTM, but operations on the *same* end
//! always conflict — a perfect fit for HCF's "multiple publication arrays
//! with separate combiners" mechanism. Per §2.4 we use the *specialized*
//! variant: each end's combiner holds the selection lock for its whole
//! session, which suppresses the conflicting TryVisible attempts of that
//! end's other threads while the other end proceeds untouched.
//!
//! `run_multi` performs same-end push/pop **elimination**: within a
//! combined batch, a pop takes the value of the most recent unmatched
//! push directly (LIFO at an end), and only the net surplus of pushes
//! touches the structure.
//!
//! # Node layout (3 words)
//!
//! ```text
//! [0] value   [1] toward-left neighbour   [2] toward-right neighbour
//! ```

use hcf_core::{DataStructure, HcfConfig, PhasePolicy};
use hcf_tmem::{Addr, MemCtx, TxResult};

const NODE_WORDS: usize = 3;
const F_VAL: u64 = 0;
const F_LEFTWARD: u64 = 1;
const F_RIGHTWARD: u64 = 2;

/// The sequential deque.
///
/// The two end anchors live on *separate cache lines*: they are the two
/// independent contention points the §2.4 per-end combiners exploit, and
/// placing them on one line would let false sharing serialize them.
#[derive(Clone, Copy, Debug)]
pub struct Deque {
    left: Addr,
    right: Addr,
}

/// Which end an operation works on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum End {
    /// The left end.
    Left,
    /// The right end.
    Right,
}

impl End {
    /// The other end.
    pub fn opposite(self) -> End {
        match self {
            End::Left => End::Right,
            End::Right => End::Left,
        }
    }
}

impl Deque {
    /// Creates an empty deque.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn create(ctx: &mut dyn MemCtx) -> TxResult<Self> {
        let left = ctx.alloc_line()?;
        let right = ctx.alloc_line()?;
        Ok(Deque { left, right })
    }

    fn ends(&self, end: End) -> (Addr, u64, u64) {
        // (anchor word, outward field, inward field) for this end.
        match end {
            End::Left => (self.left, F_LEFTWARD, F_RIGHTWARD),
            End::Right => (self.right, F_RIGHTWARD, F_LEFTWARD),
        }
    }

    /// Pushes `value` at `end`.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn push(&self, ctx: &mut dyn MemCtx, end: End, value: u64) -> TxResult<()> {
        let (h, outward, inward) = self.ends(end);
        let (oh, _, _) = self.ends(end.opposite());
        let node = ctx.alloc(NODE_WORDS)?;
        ctx.write(node + F_VAL, value)?;
        let old = Addr(ctx.read(h)?);
        ctx.write(node + inward, old.0)?;
        if old.is_null() {
            ctx.write(oh, node.0)?;
        } else {
            ctx.write(old + outward, node.0)?;
        }
        ctx.write(h, node.0)?;
        Ok(())
    }

    /// Pops from `end`, returning the value if non-empty.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn pop(&self, ctx: &mut dyn MemCtx, end: End) -> TxResult<Option<u64>> {
        let (h, outward, inward) = self.ends(end);
        let (oh, _, _) = self.ends(end.opposite());
        let node = Addr(ctx.read(h)?);
        if node.is_null() {
            return Ok(None);
        }
        let value = ctx.read(node + F_VAL)?;
        let next = Addr(ctx.read(node + inward)?);
        ctx.write(h, next.0)?;
        if next.is_null() {
            ctx.write(oh, 0)?;
        } else {
            ctx.write(next + outward, 0)?;
        }
        ctx.free(node, NODE_WORDS);
        Ok(Some(value))
    }

    /// Number of elements (O(n)).
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
        Ok(ctx.read(self.left)? == 0)
    }

    /// Values from left to right.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn collect(&self, ctx: &mut dyn MemCtx) -> TxResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut cur = Addr(ctx.read(self.left)?);
        while !cur.is_null() {
            out.push(ctx.read(cur + F_VAL)?);
            cur = Addr(ctx.read(cur + F_RIGHTWARD)?);
        }
        Ok(out)
    }

    /// Validates that left-to-right and right-to-left traversals agree.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn check_invariants(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        let ltr = self.collect(ctx)?;
        let mut rtl = Vec::new();
        let mut cur = Addr(ctx.read(self.right)?);
        while !cur.is_null() {
            rtl.push(ctx.read(cur + F_VAL)?);
            cur = Addr(ctx.read(cur + F_LEFTWARD)?);
        }
        rtl.reverse();
        Ok(ltr == rtl)
    }
}

/// Deque operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DequeOp {
    /// Push a value on the left end.
    PushLeft(u64),
    /// Pop from the left end.
    PopLeft,
    /// Push a value on the right end.
    PushRight(u64),
    /// Pop from the right end.
    PopRight,
}

impl DequeOp {
    /// The end this operation works on.
    pub fn end(&self) -> End {
        match self {
            DequeOp::PushLeft(_) | DequeOp::PopLeft => End::Left,
            DequeOp::PushRight(_) | DequeOp::PopRight => End::Right,
        }
    }
}

/// [`DataStructure`] wrapper for the deque: one publication array per end,
/// specialized combiners, same-end push/pop elimination.
#[derive(Clone, Copy, Debug)]
pub struct DequeDs {
    deque: Deque,
}

impl DequeDs {
    /// Wraps a deque.
    pub fn new(deque: Deque) -> Self {
        DequeDs { deque }
    }

    /// The underlying deque.
    pub fn deque(&self) -> &Deque {
        &self.deque
    }

    /// §2.4 configuration: per-end arrays whose combiners hold the
    /// selection lock for their whole session (specialized variant) and go
    /// straight to combining (same-end HTM attempts would mostly conflict).
    pub fn hcf_config(max_threads: usize) -> HcfConfig {
        HcfConfig::new(max_threads)
            .with_default_policy(PhasePolicy::combining_first(5).specialized(true))
    }
}

impl DataStructure for DequeDs {
    type Op = DequeOp;
    type Res = Option<u64>;

    fn num_arrays(&self) -> usize {
        2
    }

    fn array_of(&self, op: &DequeOp) -> usize {
        match op.end() {
            End::Left => 0,
            End::Right => 1,
        }
    }

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &DequeOp) -> TxResult<Option<u64>> {
        match *op {
            DequeOp::PushLeft(v) => {
                self.deque.push(ctx, End::Left, v)?;
                Ok(Some(v))
            }
            DequeOp::PushRight(v) => {
                self.deque.push(ctx, End::Right, v)?;
                Ok(Some(v))
            }
            DequeOp::PopLeft => self.deque.pop(ctx, End::Left),
            DequeOp::PopRight => self.deque.pop(ctx, End::Right),
        }
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[DequeOp],
        out: &mut Vec<(usize, Option<u64>)>,
    ) -> TxResult<()> {
        // Same-end elimination: run the batch in order against a local
        // buffer of not-yet-applied pushes for this end; a pop consumes
        // the newest buffered push without touching the structure. The
        // buffered surplus is applied at the end, preserving order.
        let end = match ops.first() {
            Some(op) => op.end(),
            None => return Ok(()),
        };
        let mut buffered: Vec<u64> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            debug_assert_eq!(op.end(), end, "mixed ends in one array");
            match *op {
                DequeOp::PushLeft(v) | DequeOp::PushRight(v) => {
                    buffered.push(v);
                    out.push((i, Some(v)));
                }
                DequeOp::PopLeft | DequeOp::PopRight => {
                    let v = match buffered.pop() {
                        Some(v) => Some(v), // eliminated pair
                        None => self.deque.pop(ctx, end)?,
                    };
                    out.push((i, v));
                }
            }
        }
        for v in buffered {
            self.deque.push(ctx, end, v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};
    use std::collections::VecDeque;

    fn setup() -> (TMem, RealRuntime) {
        (TMem::new(TMemConfig::default()), RealRuntime::new())
    }

    #[test]
    fn push_pop_both_ends() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let d = Deque::create(&mut ctx).unwrap();
        d.push(&mut ctx, End::Left, 2).unwrap();
        d.push(&mut ctx, End::Left, 1).unwrap();
        d.push(&mut ctx, End::Right, 3).unwrap();
        assert_eq!(d.collect(&mut ctx).unwrap(), vec![1, 2, 3]);
        assert!(d.check_invariants(&mut ctx).unwrap());
        assert_eq!(d.pop(&mut ctx, End::Left).unwrap(), Some(1));
        assert_eq!(d.pop(&mut ctx, End::Right).unwrap(), Some(3));
        assert_eq!(d.pop(&mut ctx, End::Right).unwrap(), Some(2));
        assert_eq!(d.pop(&mut ctx, End::Left).unwrap(), None);
        assert!(d.is_empty(&mut ctx).unwrap());
    }

    #[test]
    fn single_element_cross_end() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let d = Deque::create(&mut ctx).unwrap();
        d.push(&mut ctx, End::Left, 7).unwrap();
        assert_eq!(d.pop(&mut ctx, End::Right).unwrap(), Some(7));
        assert!(d.is_empty(&mut ctx).unwrap());
        assert!(d.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn matches_vecdeque_on_random_ops() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let d = Deque::create(&mut ctx).unwrap();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut rng = StdRng::seed_from_u64(3);
        for step in 0..2000 {
            match rng.random_range(0..4) {
                0 => {
                    let v = rng.random();
                    d.push(&mut ctx, End::Left, v).unwrap();
                    model.push_front(v);
                }
                1 => {
                    let v = rng.random();
                    d.push(&mut ctx, End::Right, v).unwrap();
                    model.push_back(v);
                }
                2 => assert_eq!(d.pop(&mut ctx, End::Left).unwrap(), model.pop_front()),
                _ => assert_eq!(d.pop(&mut ctx, End::Right).unwrap(), model.pop_back()),
            }
            if step % 256 == 0 {
                assert!(d.check_invariants(&mut ctx).unwrap());
            }
        }
        assert_eq!(
            d.collect(&mut ctx).unwrap(),
            model.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ds_routes_by_end() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = DequeDs::new(Deque::create(&mut ctx).unwrap());
        assert_eq!(ds.array_of(&DequeOp::PushLeft(1)), 0);
        assert_eq!(ds.array_of(&DequeOp::PopLeft), 0);
        assert_eq!(ds.array_of(&DequeOp::PushRight(1)), 1);
        assert_eq!(ds.array_of(&DequeOp::PopRight), 1);
    }

    #[test]
    fn run_multi_eliminates_push_pop_pairs() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = DequeDs::new(Deque::create(&mut ctx).unwrap());
        ds.deque().push(&mut ctx, End::Left, 100).unwrap();
        let ops = [
            DequeOp::PushLeft(1),
            DequeOp::PushLeft(2),
            DequeOp::PopLeft, // takes 2 (eliminated)
            DequeOp::PopLeft, // takes 1 (eliminated)
            DequeOp::PopLeft, // takes 100 from the structure
            DequeOp::PopLeft, // empty
            DequeOp::PushLeft(3),
        ];
        let mut res = Vec::new();
        ds.run_multi(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        let vals: Vec<Option<u64>> = res.iter().map(|&(_, v)| v).collect();
        assert_eq!(
            vals,
            vec![Some(1), Some(2), Some(2), Some(1), Some(100), None, Some(3)]
        );
        assert_eq!(ds.deque().collect(&mut ctx).unwrap(), vec![3]);
    }

    #[test]
    fn run_multi_matches_sequential_replay() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let da = DequeDs::new(Deque::create(&mut ctx).unwrap());
            let db = DequeDs::new(Deque::create(&mut ctx).unwrap());
            for i in 0..rng.random_range(0..4) {
                da.deque().push(&mut ctx, End::Left, 1000 + i).unwrap();
                db.deque().push(&mut ctx, End::Left, 1000 + i).unwrap();
            }
            let ops: Vec<DequeOp> = (0..10)
                .map(|j| {
                    if rng.random_bool(0.5) {
                        DequeOp::PushLeft(j)
                    } else {
                        DequeOp::PopLeft
                    }
                })
                .collect();
            let mut multi = Vec::new();
            da.run_multi(&mut ctx, &ops, &mut multi).unwrap();
            multi.sort_by_key(|&(i, _)| i);
            let seq: Vec<(usize, Option<u64>)> = ops
                .iter()
                .enumerate()
                .map(|(i, op)| (i, db.run_seq(&mut ctx, op).unwrap()))
                .collect();
            assert_eq!(multi, seq);
            assert_eq!(
                da.deque().collect(&mut ctx).unwrap(),
                db.deque().collect(&mut ctx).unwrap()
            );
        }
    }
}
