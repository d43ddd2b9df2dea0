//! Linearizability checking over recorded simulation histories.
//!
//! The paper's correctness claim (§2.3) is that HCF turns a sequential
//! data structure into a *linearizable* concurrent one. The deterministic
//! lockstep runtime makes that testable end-to-end: with
//! [`CostModel::exact`](crate::CostModel::exact) (scheduler sync on every
//! event), the scheduler's min-clock invariant guarantees that recorded
//! virtual timestamps are consistent with the real execution order — if
//! operation X's response timestamp is strictly below operation Y's
//! invocation timestamp, X really did complete before Y began. A recorded
//! history can therefore be checked against a sequential specification
//! with the classic Wing & Gong algorithm (here with memoization on
//! (remaining-set, spec-state)).
//!
//! The search is exponential in the worst case but near-linear for the
//! low-concurrency histories the tests record (≲ a dozen threads, a few
//! hundred operations).

use std::collections::HashSet;
use std::hash::Hash;

/// A sequential specification: a deterministic state machine.
pub trait SeqSpec: Clone + Eq + Hash {
    /// Operation type.
    type Op: Clone;
    /// Result type.
    type Res: PartialEq;

    /// Applies `op`, returning its result.
    fn apply(&mut self, op: &Self::Op) -> Self::Res;
}

/// One completed operation in a history.
#[derive(Clone, Debug)]
pub struct OpSpan<O, R> {
    /// Executing thread.
    pub tid: usize,
    /// Virtual time just before the executor was entered.
    pub invoke: u64,
    /// Virtual time just after it returned.
    pub response: u64,
    /// The operation.
    pub op: O,
    /// Its observed result.
    pub res: R,
}

/// Bitset over history indices, hashable for memoization.
#[derive(Clone, PartialEq, Eq, Hash)]
struct DoneSet(Vec<u64>);

impl DoneSet {
    fn new(n: usize) -> Self {
        DoneSet(vec![0; n.div_ceil(64)])
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Checks whether `history` is linearizable with respect to `init`.
///
/// Returns `true` if some total order of the operations (a) respects
/// real-time precedence — `x` before `y` whenever
/// `x.response < y.invoke` — and (b) replays against the specification
/// with every operation producing its observed result.
pub fn check_linearizable<S: SeqSpec>(init: S, history: &[OpSpan<S::Op, S::Res>]) -> bool {
    let n = history.len();
    if n == 0 {
        return true;
    }
    let mut done = DoneSet::new(n);
    let mut memo: HashSet<(DoneSet, S)> = HashSet::new();
    dfs(&init, history, &mut done, 0, &mut memo)
}

fn dfs<S: SeqSpec>(
    state: &S,
    history: &[OpSpan<S::Op, S::Res>],
    done: &mut DoneSet,
    n_done: usize,
    memo: &mut HashSet<(DoneSet, S)>,
) -> bool {
    let n = history.len();
    if n_done == n {
        return true;
    }
    if !memo.insert((done.clone(), state.clone())) {
        return false; // already explored this configuration
    }
    // The earliest response among remaining ops bounds which ops may
    // linearize next: candidate i must have invoked before every other
    // remaining op responded.
    let min_response = (0..n)
        .filter(|&i| !done.get(i))
        .map(|i| history[i].response)
        .min()
        .unwrap();
    for i in 0..n {
        if done.get(i) || history[i].invoke > min_response {
            continue;
        }
        let mut next = state.clone();
        if next.apply(&history[i].op) != history[i].res {
            continue;
        }
        done.set(i);
        if dfs(&next, history, done, n_done + 1, memo) {
            done.clear(i);
            return true;
        }
        done.clear(i);
    }
    false
}

// ---------------------------------------------------------------------
// History recording
// ---------------------------------------------------------------------

use std::sync::Arc;

use hcf_util::rng::*;
use hcf_util::sync::Mutex;

use hcf_core::{DataStructure, HcfConfig, Variant};
use hcf_tmem::runtime::Runtime;
use hcf_tmem::{DirectCtx, MemCtx, RealRuntime, TMem, TxResult};

use crate::driver::SimConfig;
use crate::runtime::LockstepRuntime;

/// Runs `ops_per_thread` operations per thread under `variant` on the
/// lockstep runtime and records the complete history with virtual
/// timestamps, for [`check_linearizable`].
///
/// # Panics
///
/// Panics unless `cfg.cost.sync_quantum == 1`: with coarser quanta the
/// recorded timestamps are only approximately ordered and the checker
/// could report false violations.
pub fn record_history<D, B, G>(
    cfg: &SimConfig,
    variant: Variant,
    build: B,
    gen: G,
    ops_per_thread: usize,
) -> Vec<OpSpan<D::Op, D::Res>>
where
    D: DataStructure,
    D::Res: Clone,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync,
{
    assert_eq!(
        cfg.cost.sync_quantum, 1,
        "linearizability recording requires the exact cost model"
    );
    let mem = Arc::new(TMem::new(cfg.tmem.clone()));
    let setup_rt = RealRuntime::new();
    let (ds, hcf_config) = {
        let mut ctx = DirectCtx::new(&mem, &setup_rt);
        build(&mut ctx, cfg.threads).expect("experiment setup failed")
    };
    let runtime = Arc::new(LockstepRuntime::new(
        cfg.topology,
        cfg.threads,
        cfg.cost,
        mem.config().lines(),
    ));
    let rt_dyn: Arc<dyn Runtime> = runtime.clone();
    let executor = variant
        .build(ds, mem.clone(), rt_dyn, cfg.threads, 10, hcf_config)
        .expect("executor construction failed");

    let spans: Mutex<Vec<OpSpan<D::Op, D::Res>>> = Mutex::new(Vec::new());
    runtime.run_threads(|tid| {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(tid as u64));
        let mut local = Vec::with_capacity(ops_per_thread);
        for _ in 0..ops_per_thread {
            let op = gen(tid, &mut rng);
            let invoke = runtime.now();
            let res = executor.execute(op.clone());
            let response = runtime.now();
            local.push(OpSpan {
                tid,
                invoke,
                response,
                op,
                res,
            });
        }
        spans.lock().extend(local);
    });
    spans.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A register: write returns the old value, read returns the current.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Reg(u64);

    #[derive(Clone, Debug)]
    enum RegOp {
        Write(u64),
        Read,
    }

    impl SeqSpec for Reg {
        type Op = RegOp;
        type Res = u64;
        fn apply(&mut self, op: &RegOp) -> u64 {
            match op {
                RegOp::Write(v) => std::mem::replace(&mut self.0, *v),
                RegOp::Read => self.0,
            }
        }
    }

    fn span(tid: usize, invoke: u64, response: u64, op: RegOp, res: u64) -> OpSpan<RegOp, u64> {
        OpSpan {
            tid,
            invoke,
            response,
            op,
            res,
        }
    }

    #[test]
    fn empty_history_ok() {
        assert!(check_linearizable(Reg(0), &[]));
    }

    #[test]
    fn sequential_history_ok() {
        let h = vec![
            span(0, 0, 1, RegOp::Write(5), 0),
            span(0, 2, 3, RegOp::Read, 5),
            span(0, 4, 5, RegOp::Write(7), 5),
            span(0, 6, 7, RegOp::Read, 7),
        ];
        assert!(check_linearizable(Reg(0), &h));
    }

    #[test]
    fn stale_read_after_completed_write_rejected() {
        // Write(5) completes at t=1; a read starting at t=2 returns 0.
        let h = vec![
            span(0, 0, 1, RegOp::Write(5), 0),
            span(1, 2, 3, RegOp::Read, 0),
        ];
        assert!(!check_linearizable(Reg(0), &h));
    }

    #[test]
    fn overlapping_ops_may_reorder() {
        // The read overlaps the write, so either order is legal; result 0
        // means it linearized before the write.
        let h = vec![
            span(0, 0, 5, RegOp::Write(5), 0),
            span(1, 2, 3, RegOp::Read, 0),
        ];
        assert!(check_linearizable(Reg(0), &h));
        // ...and result 5 means after.
        let h2 = vec![
            span(0, 0, 5, RegOp::Write(5), 0),
            span(1, 2, 3, RegOp::Read, 5),
        ];
        assert!(check_linearizable(Reg(0), &h2));
    }

    #[test]
    fn inconsistent_write_results_rejected() {
        // Both writes claim to have seen 0 as the old value.
        let h = vec![
            span(0, 0, 1, RegOp::Write(5), 0),
            span(1, 2, 3, RegOp::Write(6), 0),
        ];
        assert!(!check_linearizable(Reg(0), &h));
    }

    /// Map spec used by the end-to-end tests in `tests/lincheck_e2e.rs`.
    #[derive(Clone, PartialEq, Eq, Hash, Default)]
    struct MapSpec(BTreeMap<u64, u64>);

    #[derive(Clone, Debug)]
    enum MapOp {
        Insert(u64, u64),
        Remove(u64),
        Find(u64),
    }

    impl SeqSpec for MapSpec {
        type Op = MapOp;
        type Res = Option<u64>;
        fn apply(&mut self, op: &MapOp) -> Option<u64> {
            match op {
                MapOp::Insert(k, v) => self.0.insert(*k, *v),
                MapOp::Remove(k) => self.0.remove(k),
                MapOp::Find(k) => self.0.get(k).copied(),
            }
        }
    }

    #[test]
    fn map_interleaving_found() {
        let h = vec![
            OpSpan {
                tid: 0,
                invoke: 0,
                response: 10,
                op: MapOp::Insert(1, 100),
                res: None,
            },
            OpSpan {
                tid: 1,
                invoke: 2,
                response: 4,
                op: MapOp::Find(1),
                res: Some(100),
            },
            OpSpan {
                tid: 2,
                invoke: 5,
                response: 7,
                op: MapOp::Remove(1),
                res: Some(100),
            },
            OpSpan {
                tid: 1,
                invoke: 11,
                response: 12,
                op: MapOp::Find(1),
                res: None,
            },
        ];
        assert!(check_linearizable(MapSpec::default(), &h));
    }

    #[test]
    fn deep_history_terminates() {
        // 200 sequential increments through the register spec.
        let mut h = Vec::new();
        for i in 0..200u64 {
            h.push(span(0, 2 * i, 2 * i + 1, RegOp::Write(i + 1), i));
        }
        assert!(check_linearizable(Reg(0), &h));
    }
}
