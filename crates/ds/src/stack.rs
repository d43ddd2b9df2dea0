//! A stack: the honesty-check structure (§3.1).
//!
//! Every operation reads and writes the top-of-stack pointer, so *nothing*
//! parallelizes on HTM — the paper explicitly notes one "should not expect
//! HCF always to be the winner when the contention is high, e.g., when
//! experimenting with a stack". The experiment built on this module checks
//! that expectation: FC (and HCF's combining phases, which here degenerate
//! to FC plus wasted HTM attempts) dominate TLE. Push/pop elimination in
//! `run_multi` is the one optimization combining offers.
//!
//! # Node layout (2 words)
//!
//! ```text
//! [0] value   [1] next
//! ```

use hcf_core::{DataStructure, HcfConfig, PhasePolicy};
use hcf_tmem::{Addr, MemCtx, TxResult};

const NODE_WORDS: usize = 2;
const F_VAL: u64 = 0;
const F_NEXT: u64 = 1;

/// Header layout: `[0]` top node.
const H_TOP: u64 = 0;

/// The sequential stack.
#[derive(Clone, Copy, Debug)]
pub struct Stack {
    header: Addr,
}

impl Stack {
    /// Creates an empty stack.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn create(ctx: &mut dyn MemCtx) -> TxResult<Self> {
        let header = ctx.alloc(1)?;
        Ok(Stack { header })
    }

    /// Pushes `value`.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn push(&self, ctx: &mut dyn MemCtx, value: u64) -> TxResult<()> {
        let node = ctx.alloc(NODE_WORDS)?;
        ctx.write(node + F_VAL, value)?;
        let top = ctx.read(self.header + H_TOP)?;
        ctx.write(node + F_NEXT, top)?;
        ctx.write(self.header + H_TOP, node.0)?;
        Ok(())
    }

    /// Pops the most recently pushed value, if any.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn pop(&self, ctx: &mut dyn MemCtx) -> TxResult<Option<u64>> {
        let top = Addr(ctx.read(self.header + H_TOP)?);
        if top.is_null() {
            return Ok(None);
        }
        let value = ctx.read(top + F_VAL)?;
        let next = ctx.read(top + F_NEXT)?;
        ctx.write(self.header + H_TOP, next)?;
        ctx.free(top, NODE_WORDS);
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
        Ok(ctx.read(self.header + H_TOP)? == 0)
    }

    /// Values from top to bottom.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn collect(&self, ctx: &mut dyn MemCtx) -> TxResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut cur = Addr(ctx.read(self.header + H_TOP)?);
        while !cur.is_null() {
            out.push(ctx.read(cur + F_VAL)?);
            cur = Addr(ctx.read(cur + F_NEXT)?);
        }
        Ok(out)
    }
}

/// Stack operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackOp {
    /// Push a value (echoed back as the result).
    Push(u64),
    /// Pop the top value.
    Pop,
}

/// [`DataStructure`] wrapper for the stack with push/pop elimination.
#[derive(Clone, Copy, Debug)]
pub struct StackDs {
    stack: Stack,
}

impl StackDs {
    /// Wraps a stack.
    pub fn new(stack: Stack) -> Self {
        StackDs { stack }
    }

    /// The underlying stack.
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// Configuration for the honesty-check experiment: a couple of
    /// private attempts (they will mostly fail), then combining.
    pub fn hcf_config(max_threads: usize) -> HcfConfig {
        HcfConfig::new(max_threads).with_default_policy(PhasePolicy {
            try_private: 1,
            try_visible: 1,
            try_combining: 3,
            ..PhasePolicy::hcf_default()
        })
    }
}

impl DataStructure for StackDs {
    type Op = StackOp;
    type Res = Option<u64>;

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &StackOp) -> TxResult<Option<u64>> {
        match *op {
            StackOp::Push(v) => {
                self.stack.push(ctx, v)?;
                Ok(Some(v))
            }
            StackOp::Pop => self.stack.pop(ctx),
        }
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[StackOp],
        out: &mut Vec<(usize, Option<u64>)>,
    ) -> TxResult<()> {
        // Same elimination as the deque: pops consume the newest buffered
        // push; only the surplus touches memory.
        let mut buffered: Vec<u64> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                StackOp::Push(v) => {
                    buffered.push(v);
                    out.push((i, Some(v)));
                }
                StackOp::Pop => {
                    let v = match buffered.pop() {
                        Some(v) => Some(v),
                        None => self.stack.pop(ctx)?,
                    };
                    out.push((i, v));
                }
            }
        }
        for v in buffered {
            self.stack.push(ctx, v)?;
        }
        Ok(())
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
    fn lifo_order() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let s = Stack::create(&mut ctx).unwrap();
        assert_eq!(s.pop(&mut ctx).unwrap(), None);
        for v in 1..=5 {
            s.push(&mut ctx, v).unwrap();
        }
        assert_eq!(s.collect(&mut ctx).unwrap(), vec![5, 4, 3, 2, 1]);
        for v in (1..=5).rev() {
            assert_eq!(s.pop(&mut ctx).unwrap(), Some(v));
        }
        assert!(s.is_empty(&mut ctx).unwrap());
    }

    #[test]
    fn matches_vec_on_random_ops() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let s = Stack::create(&mut ctx).unwrap();
        let mut model = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2000 {
            if rng.random_bool(0.55) {
                let v = rng.random();
                s.push(&mut ctx, v).unwrap();
                model.push(v);
            } else {
                assert_eq!(s.pop(&mut ctx).unwrap(), model.pop());
            }
        }
        let mut top_down = s.collect(&mut ctx).unwrap();
        top_down.reverse();
        assert_eq!(top_down, model);
    }

    #[test]
    fn run_multi_elimination() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = StackDs::new(Stack::create(&mut ctx).unwrap());
        ds.stack().push(&mut ctx, 100).unwrap();
        let ops = [
            StackOp::Push(1),
            StackOp::Pop, // eliminated with Push(1)
            StackOp::Pop, // takes 100
            StackOp::Pop, // empty
            StackOp::Push(2),
        ];
        let mut res = Vec::new();
        ds.run_multi(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        let vals: Vec<Option<u64>> = res.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![Some(1), Some(1), Some(100), None, Some(2)]);
        assert_eq!(ds.stack().collect(&mut ctx).unwrap(), vec![2]);
    }

    #[test]
    fn run_multi_matches_sequential_replay() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let sa = StackDs::new(Stack::create(&mut ctx).unwrap());
            let sb = StackDs::new(Stack::create(&mut ctx).unwrap());
            for i in 0..rng.random_range(0..4) {
                sa.stack().push(&mut ctx, 1000 + i).unwrap();
                sb.stack().push(&mut ctx, 1000 + i).unwrap();
            }
            let ops: Vec<StackOp> = (0..10)
                .map(|j| {
                    if rng.random_bool(0.5) {
                        StackOp::Push(j)
                    } else {
                        StackOp::Pop
                    }
                })
                .collect();
            let mut multi = Vec::new();
            sa.run_multi(&mut ctx, &ops, &mut multi).unwrap();
            multi.sort_by_key(|&(i, _)| i);
            let seq: Vec<(usize, Option<u64>)> = ops
                .iter()
                .enumerate()
                .map(|(i, op)| (i, sb.run_seq(&mut ctx, op).unwrap()))
                .collect();
            assert_eq!(multi, seq);
            assert_eq!(
                sa.stack().collect(&mut ctx).unwrap(),
                sb.stack().collect(&mut ctx).unwrap()
            );
        }
    }
}
