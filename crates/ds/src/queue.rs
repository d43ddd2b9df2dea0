//! A FIFO queue — the classic flat-combining showcase (Hendler et al.,
//! the paper's reference 11, evaluate FC on queues), and a natural HCF
//! structure: enqueues all conflict on the tail anchor, dequeues on the
//! head anchor, but an enqueue and a dequeue on a non-empty queue touch
//! disjoint nodes and parallelize on HTM. HCF therefore gives each
//! operation class its own publication array with a specialized combiner,
//! like the §2.4 deque.
//!
//! Combining: `enqueue_n` links the whole batch locally and attaches it
//! with a single tail update; `dequeue_n` detaches n nodes with a single
//! head update. Elimination between pending enqueues and dequeues is
//! *not* performed — FIFO order makes push/pop pairing illegal unless the
//! queue is empty, which `run_multi` does exploit for the empty-queue
//! case.
//!
//! # Node layout (2 words)
//!
//! ```text
//! [0] value   [1] next (toward the tail)
//! ```

use hcf_core::{DataStructure, HcfConfig, PhasePolicy};
use hcf_tmem::{Addr, MemCtx, TxResult};

const NODE_WORDS: usize = 2;
const F_VAL: u64 = 0;
const F_NEXT: u64 = 1;

/// The sequential FIFO queue. Head and tail anchors live on separate
/// cache lines (see the deque for why this padding is load-bearing).
#[derive(Clone, Copy, Debug)]
pub struct Queue {
    /// Oldest node (next to dequeue), or null when empty.
    head: Addr,
    /// Newest node, or null when empty.
    tail: Addr,
}

impl Queue {
    /// Creates an empty queue.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn create(ctx: &mut dyn MemCtx) -> TxResult<Self> {
        let head = ctx.alloc_line()?;
        let tail = ctx.alloc_line()?;
        Ok(Queue { head, tail })
    }

    /// Appends `value` at the tail.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn enqueue(&self, ctx: &mut dyn MemCtx, value: u64) -> TxResult<()> {
        let node = ctx.alloc(NODE_WORDS)?;
        ctx.write(node + F_VAL, value)?;
        let tail = Addr(ctx.read(self.tail)?);
        if tail.is_null() {
            ctx.write(self.head, node.0)?;
        } else {
            ctx.write(tail + F_NEXT, node.0)?;
        }
        ctx.write(self.tail, node.0)?;
        Ok(())
    }

    /// Removes and returns the oldest value, if any.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn dequeue(&self, ctx: &mut dyn MemCtx) -> TxResult<Option<u64>> {
        let node = Addr(ctx.read(self.head)?);
        if node.is_null() {
            return Ok(None);
        }
        let value = ctx.read(node + F_VAL)?;
        let next = ctx.read(node + F_NEXT)?;
        ctx.write(self.head, next)?;
        if next == 0 {
            ctx.write(self.tail, 0)?;
        }
        ctx.free(node, NODE_WORDS);
        Ok(Some(value))
    }

    /// Combined enqueue: links the batch locally, then attaches it with
    /// one tail update (plus one head update if the queue was empty).
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn enqueue_n(&self, ctx: &mut dyn MemCtx, values: &[u64]) -> TxResult<()> {
        let Some((&first_val, rest)) = values.split_first() else {
            return Ok(());
        };
        let first = ctx.alloc(NODE_WORDS)?;
        ctx.write(first + F_VAL, first_val)?;
        let mut last = first;
        for &v in rest {
            let n = ctx.alloc(NODE_WORDS)?;
            ctx.write(n + F_VAL, v)?;
            ctx.write(last + F_NEXT, n.0)?;
            last = n;
        }
        let tail = Addr(ctx.read(self.tail)?);
        if tail.is_null() {
            ctx.write(self.head, first.0)?;
        } else {
            ctx.write(tail + F_NEXT, first.0)?;
        }
        ctx.write(self.tail, last.0)?;
        Ok(())
    }

    /// Combined dequeue of up to `n` values with a single head update.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn dequeue_n(&self, ctx: &mut dyn MemCtx, n: usize) -> TxResult<Vec<Option<u64>>> {
        let mut out = Vec::with_capacity(n);
        let mut cur = Addr(ctx.read(self.head)?);
        let mut detached = 0;
        while detached < n && !cur.is_null() {
            out.push(Some(ctx.read(cur + F_VAL)?));
            let next = Addr(ctx.read(cur + F_NEXT)?);
            ctx.free(cur, NODE_WORDS);
            cur = next;
            detached += 1;
        }
        ctx.write(self.head, cur.0)?;
        if cur.is_null() {
            ctx.write(self.tail, 0)?;
        }
        out.resize(n, None);
        Ok(out)
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
        Ok(ctx.read(self.head)? == 0)
    }

    /// Values from head (oldest) to tail (newest).
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn collect(&self, ctx: &mut dyn MemCtx) -> TxResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut cur = Addr(ctx.read(self.head)?);
        while !cur.is_null() {
            out.push(ctx.read(cur + F_VAL)?);
            cur = Addr(ctx.read(cur + F_NEXT)?);
        }
        Ok(out)
    }

    /// Validates the head/tail anchors against the chain.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn check_invariants(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        let head = Addr(ctx.read(self.head)?);
        let tail = Addr(ctx.read(self.tail)?);
        if head.is_null() || tail.is_null() {
            return Ok(head.is_null() && tail.is_null());
        }
        // Tail must be the last chain node and point nowhere.
        let mut cur = head;
        loop {
            let next = Addr(ctx.read(cur + F_NEXT)?);
            if next.is_null() {
                return Ok(cur == tail);
            }
            cur = next;
        }
    }
}

/// Queue operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueOp {
    /// Append a value (echoed back as the result).
    Enqueue(u64),
    /// Remove the oldest value.
    Dequeue,
}

/// Publication array holding `Dequeue`.
pub const ARRAY_DEQUEUE: usize = 0;
/// Publication array holding `Enqueue`.
pub const ARRAY_ENQUEUE: usize = 1;

/// [`DataStructure`] wrapper for the queue: per-class arrays with
/// specialized combiners, `enqueue_n`/`dequeue_n` combining.
#[derive(Clone, Copy, Debug)]
pub struct QueueDs {
    queue: Queue,
}

impl QueueDs {
    /// Wraps a queue.
    pub fn new(queue: Queue) -> Self {
        QueueDs { queue }
    }

    /// The underlying queue.
    pub fn queue(&self) -> &Queue {
        &self.queue
    }

    /// Per-end arrays; both classes always conflict internally, so both
    /// go straight to (specialized) combining, like the deque.
    pub fn hcf_config(max_threads: usize) -> HcfConfig {
        HcfConfig::new(max_threads)
            .with_default_policy(PhasePolicy::combining_first(5).specialized(true))
    }
}

impl DataStructure for QueueDs {
    type Op = QueueOp;
    type Res = Option<u64>;

    fn num_arrays(&self) -> usize {
        2
    }

    fn array_of(&self, op: &QueueOp) -> usize {
        match op {
            QueueOp::Dequeue => ARRAY_DEQUEUE,
            QueueOp::Enqueue(_) => ARRAY_ENQUEUE,
        }
    }

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &QueueOp) -> TxResult<Option<u64>> {
        match *op {
            QueueOp::Enqueue(v) => {
                self.queue.enqueue(ctx, v)?;
                Ok(Some(v))
            }
            QueueOp::Dequeue => self.queue.dequeue(ctx),
        }
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[QueueOp],
        out: &mut Vec<(usize, Option<u64>)>,
    ) -> TxResult<()> {
        // One array holds only enqueues, the other only dequeues.
        match ops.first() {
            Some(QueueOp::Enqueue(_)) => {
                let values: Vec<u64> = ops
                    .iter()
                    .map(|op| match op {
                        QueueOp::Enqueue(v) => *v,
                        QueueOp::Dequeue => unreachable!("mixed classes in one array"),
                    })
                    .collect();
                self.queue.enqueue_n(ctx, &values)?;
                for (i, v) in values.into_iter().enumerate() {
                    out.push((i, Some(v)));
                }
            }
            Some(QueueOp::Dequeue) => {
                debug_assert!(ops.iter().all(|op| matches!(op, QueueOp::Dequeue)));
                let got = self.queue.dequeue_n(ctx, ops.len())?;
                for (i, v) in got.into_iter().enumerate() {
                    out.push((i, v));
                }
            }
            None => {}
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
    use std::collections::VecDeque;

    fn setup() -> (TMem, RealRuntime) {
        (TMem::new(TMemConfig::default()), RealRuntime::new())
    }

    #[test]
    fn fifo_order() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let q = Queue::create(&mut ctx).unwrap();
        assert_eq!(q.dequeue(&mut ctx).unwrap(), None);
        for v in 1..=5 {
            q.enqueue(&mut ctx, v).unwrap();
        }
        assert_eq!(q.collect(&mut ctx).unwrap(), vec![1, 2, 3, 4, 5]);
        assert!(q.check_invariants(&mut ctx).unwrap());
        for v in 1..=5 {
            assert_eq!(q.dequeue(&mut ctx).unwrap(), Some(v));
        }
        assert!(q.is_empty(&mut ctx).unwrap());
        assert!(q.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn drain_and_refill() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let q = Queue::create(&mut ctx).unwrap();
        q.enqueue(&mut ctx, 1).unwrap();
        assert_eq!(q.dequeue(&mut ctx).unwrap(), Some(1));
        // Tail must have been reset; a new enqueue must be visible.
        q.enqueue(&mut ctx, 2).unwrap();
        assert_eq!(q.collect(&mut ctx).unwrap(), vec![2]);
        assert!(q.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn matches_vecdeque_on_random_ops() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let q = Queue::create(&mut ctx).unwrap();
        let mut model = VecDeque::new();
        let mut rng = StdRng::seed_from_u64(13);
        for step in 0..2000 {
            if rng.random_bool(0.55) {
                let v = rng.random();
                q.enqueue(&mut ctx, v).unwrap();
                model.push_back(v);
            } else {
                assert_eq!(q.dequeue(&mut ctx).unwrap(), model.pop_front());
            }
            if step % 256 == 0 {
                assert!(q.check_invariants(&mut ctx).unwrap());
            }
        }
        assert_eq!(
            q.collect(&mut ctx).unwrap(),
            model.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn enqueue_n_matches_repeated_enqueue() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let a = Queue::create(&mut ctx).unwrap();
        let b = Queue::create(&mut ctx).unwrap();
        a.enqueue(&mut ctx, 100).unwrap();
        b.enqueue(&mut ctx, 100).unwrap();
        a.enqueue_n(&mut ctx, &[1, 2, 3]).unwrap();
        for v in [1, 2, 3] {
            b.enqueue(&mut ctx, v).unwrap();
        }
        assert_eq!(a.collect(&mut ctx).unwrap(), b.collect(&mut ctx).unwrap());
        assert!(a.check_invariants(&mut ctx).unwrap());
        // Empty batch is a no-op.
        a.enqueue_n(&mut ctx, &[]).unwrap();
        assert_eq!(a.len(&mut ctx).unwrap(), 4);
    }

    #[test]
    fn dequeue_n_matches_repeated_dequeue() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let a = Queue::create(&mut ctx).unwrap();
        let b = Queue::create(&mut ctx).unwrap();
        for v in 0..6 {
            a.enqueue(&mut ctx, v).unwrap();
            b.enqueue(&mut ctx, v).unwrap();
        }
        let multi = a.dequeue_n(&mut ctx, 8).unwrap();
        let single: Vec<_> = (0..8).map(|_| b.dequeue(&mut ctx).unwrap()).collect();
        assert_eq!(multi, single);
        assert!(a.is_empty(&mut ctx).unwrap());
        assert!(a.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn ds_routes_and_combines() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = QueueDs::new(Queue::create(&mut ctx).unwrap());
        assert_eq!(ds.array_of(&QueueOp::Dequeue), ARRAY_DEQUEUE);
        assert_eq!(ds.array_of(&QueueOp::Enqueue(1)), ARRAY_ENQUEUE);

        let mut res = Vec::new();
        ds.run_multi(
            &mut ctx,
            &[QueueOp::Enqueue(7), QueueOp::Enqueue(8)],
            &mut res,
        )
        .unwrap();
        res.sort_by_key(|&(i, _)| i);
        assert_eq!(res, vec![(0, Some(7)), (1, Some(8))]);

        let mut res = Vec::new();
        ds.run_multi(
            &mut ctx,
            &[QueueOp::Dequeue, QueueOp::Dequeue, QueueOp::Dequeue],
            &mut res,
        )
        .unwrap();
        res.sort_by_key(|&(i, _)| i);
        assert_eq!(res, vec![(0, Some(7)), (1, Some(8)), (2, None)]);
        assert!(ds.queue().check_invariants(&mut ctx).unwrap());
    }
}
