//! The sequential data-structure interface the framework runs.

use hcf_tmem::{MemCtx, TxResult};

/// A sequentially implemented data structure, expressed over
/// [`MemCtx`] so the framework can run it speculatively or under a lock.
///
/// This is the paper's operation-descriptor interface (§2.2): the
/// programmer must provide [`run_seq`](DataStructure::run_seq); the
/// framework supplies workable defaults for
/// [`should_help`](DataStructure::should_help) (help everyone) and
/// [`run_multi`](DataStructure::run_multi) (replay each selected operation
/// sequentially), which a data structure can override to implement
/// combining and elimination.
///
/// Implementations must be deterministic functions of the memory reachable
/// through `ctx` (plus the op arguments): the framework may run an
/// operation several times speculatively, keeping only one committed
/// execution.
pub trait DataStructure: Send + Sync + 'static {
    /// Operation descriptor payload (arguments).
    type Op: Clone + Send + Sync + std::fmt::Debug + 'static;
    /// Operation result.
    type Res: Clone + Send + Sync + std::fmt::Debug + 'static;

    /// Number of publication arrays this structure wants. Operations are
    /// partitioned among arrays by [`array_of`](DataStructure::array_of);
    /// each array has its own combiner and phase policy. (§2.1: "there
    /// could be multiple publication arrays, where each operation may
    /// reside in only one of them".)
    fn num_arrays(&self) -> usize {
        1
    }

    /// Which publication array `op` belongs to, in
    /// `0..self.num_arrays()`. Must be a pure function of `op`.
    fn array_of(&self, _op: &Self::Op) -> usize {
        0
    }

    /// Applies one operation sequentially. Runs inside a transaction or
    /// under the data-structure lock; propagate aborts with `?`.
    ///
    /// # Errors
    ///
    /// Transactional aborts (conflict/capacity/explicit) when running
    /// speculatively.
    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &Self::Op) -> TxResult<Self::Res>;

    /// Combiner selection predicate: should a combiner whose own operation
    /// is `mine` also take responsibility for `other`? Called with the
    /// array's selection lock held; `ctx` is a *direct* context suitable
    /// for cheap heuristic reads (e.g. the AVL root-key look-aside).
    /// Defaults to helping every announced operation.
    fn should_help(&self, _ctx: &mut dyn MemCtx, _mine: &Self::Op, _other: &Self::Op) -> bool {
        true
    }

    /// Applies several selected operations, combined and/or eliminated
    /// according to the data structure's semantics. Pushes
    /// `(index into ops, result)` onto `out` for every operation it
    /// applied; it may apply only a prefix/subset, in which case the
    /// framework calls it again with the remainder (possibly in a fresh
    /// transaction).
    ///
    /// The framework passes an empty `out` whose capacity it reuses from
    /// call to call, so a combiner allocates no result vector. After an
    /// `Err`, whatever was pushed is discarded.
    ///
    /// The default implementation replays each operation via
    /// [`run_seq`](DataStructure::run_seq) with no combining.
    ///
    /// When called under the lock (non-transactional `ctx`) it must apply
    /// at least one operation so the combiner makes progress.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[Self::Op],
        out: &mut Vec<(usize, Self::Res)>,
    ) -> TxResult<()> {
        for (i, op) in ops.iter().enumerate() {
            out.push((i, self.run_seq(ctx, op)?));
        }
        Ok(())
    }

    /// Upper bound on how many operations the framework hands to a single
    /// [`run_multi`](DataStructure::run_multi) call. Smaller chunks make
    /// individual combining transactions more likely to fit and commit
    /// (§2.2: "we invoke runMulti multiple times to allow an
    /// implementation where it executes only some of the selected
    /// operations at each call").
    fn max_multi(&self) -> usize {
        usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{Addr, RealRuntime, TMem, TMemConfig};

    struct OneWord {
        a: Addr,
    }

    impl DataStructure for OneWord {
        type Op = u64;
        type Res = u64;
        fn run_seq(&self, ctx: &mut dyn MemCtx, op: &u64) -> TxResult<u64> {
            let v = ctx.read(self.a)?;
            ctx.write(self.a, v + op)?;
            Ok(v + op)
        }
    }

    #[test]
    fn default_run_multi_replays_all_in_order() {
        let mem = TMem::new(TMemConfig::small_word_granular());
        let rt = RealRuntime::new();
        let a = mem.alloc_direct(1).unwrap();
        let ds = OneWord { a };
        let mut ctx = hcf_tmem::DirectCtx::new(&mem, &rt);
        let mut res = Vec::new();
        ds.run_multi(&mut ctx, &[1, 2, 3], &mut res).unwrap();
        assert_eq!(res, vec![(0, 1), (1, 3), (2, 6)]);
        assert_eq!(mem.read_direct(&rt, a), 6);
    }

    #[test]
    fn defaults() {
        let mem = TMem::new(TMemConfig::small_word_granular());
        let rt = RealRuntime::new();
        let a = mem.alloc_direct(1).unwrap();
        let ds = OneWord { a };
        assert_eq!(ds.num_arrays(), 1);
        assert_eq!(ds.array_of(&5), 0);
        assert_eq!(ds.max_multi(), usize::MAX);
        let mut ctx = hcf_tmem::DirectCtx::new(&mem, &rt);
        assert!(ds.should_help(&mut ctx, &1, &2));
    }
}
