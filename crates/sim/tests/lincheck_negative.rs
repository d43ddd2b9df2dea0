//! The linearizability checker must have teeth: histories produced by a
//! deliberately *broken* executor — one that occasionally lies about
//! results — must be rejected, using the same recording pipeline as the
//! positive tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcf_core::{DataStructure, ExecStatsSnapshot, Executor, HcfConfig, HcfEngine};
use hcf_sim::lincheck::{check_linearizable, OpSpan, SeqSpec};
use hcf_sim::{CostModel, LockstepRuntime, Topology};
use hcf_tmem::{Addr, DirectCtx, MemCtx, RealRuntime, Runtime, TMem, TMemConfig, TxResult};
use hcf_util::rng::*;
use hcf_util::sync::Mutex;

/// A register with fetch-and-add semantics.
struct Reg {
    a: Addr,
}

impl DataStructure for Reg {
    type Op = u64;
    type Res = u64;
    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &u64) -> TxResult<u64> {
        let v = ctx.read(self.a)?;
        ctx.write(self.a, v + op)?;
        Ok(v)
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct RegSpec(u64);

impl SeqSpec for RegSpec {
    type Op = u64;
    type Res = u64;
    fn apply(&mut self, op: &u64) -> u64 {
        let old = self.0;
        self.0 += op;
        old
    }
}

/// Wraps a correct executor but corrupts every `lie_every`-th result.
struct Liar<D: DataStructure> {
    inner: Arc<dyn Executor<D>>,
    count: AtomicU64,
    lie_every: u64,
}

impl Executor<Reg> for Liar<Reg> {
    fn execute(&self, op: u64) -> u64 {
        let truth = self.inner.execute(op);
        if self
            .count
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.lie_every)
        {
            truth.wrapping_add(1_000_000) // a result no legal order explains
        } else {
            truth
        }
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.inner.exec_stats()
    }

    fn name(&self) -> &'static str {
        "Liar"
    }
}

fn record(lie_every: Option<u64>) -> Vec<OpSpan<u64, u64>> {
    let threads = 4;
    let mem = Arc::new(TMem::new(TMemConfig::small_word_granular()));
    let setup = RealRuntime::new();
    let a = {
        let mut ctx = DirectCtx::new(&mem, &setup);
        ctx.alloc_line().unwrap()
    };
    let ds = Arc::new(Reg { a });
    let runtime = Arc::new(LockstepRuntime::new(
        Topology::x5_2_single_socket(),
        threads,
        CostModel::exact(),
        mem.config().lines(),
    ));
    let rt: Arc<dyn Runtime> = runtime.clone();
    let engine: Arc<dyn Executor<Reg>> =
        Arc::new(HcfEngine::new(ds, mem, rt, HcfConfig::new(threads)).unwrap());
    let exec: Arc<dyn Executor<Reg>> = match lie_every {
        Some(n) => Arc::new(Liar {
            inner: engine,
            count: AtomicU64::new(1),
            lie_every: n,
        }),
        None => engine,
    };

    let spans = Mutex::new(Vec::new());
    runtime.run_threads(|tid| {
        let mut rng = StdRng::seed_from_u64(tid as u64);
        let mut local = Vec::new();
        for _ in 0..15 {
            let op = rng.random_range(1..5u64);
            let invoke = runtime.now();
            let res = exec.execute(op);
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

#[test]
fn honest_executor_passes() {
    let history = record(None);
    assert_eq!(history.len(), 60);
    assert!(check_linearizable(RegSpec::default(), &history));
}

#[test]
fn lying_executor_is_caught() {
    let history = record(Some(17));
    assert!(
        !check_linearizable(RegSpec::default(), &history),
        "checker accepted a corrupted history"
    );
}
