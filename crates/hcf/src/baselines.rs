//! Standalone implementations of the baselines evaluated in §3 that need
//! no publication machinery: global lock, TLE and SCM.
//!
//! FC and the naive TLE+FC composition are [`HcfEngine`](crate::HcfEngine)
//! itself under the §2.4 configurations
//! [`HcfConfig::fc`](crate::HcfConfig::fc) and
//! [`HcfConfig::tle_fc`](crate::HcfConfig::tle_fc);
//! [`Variant::build`](crate::Variant::build) constructs them that way.
//!
//! Each lock path publishes its stores at the lock's acquisition version
//! ([`DirectCtx::under_lock`]), which is sound because every transaction
//! here subscribes to that lock before its first read.

use std::fmt;
use std::sync::Arc;

use hcf_tmem::{DirectCtx, ElidableLock, MemCtx, Runtime, TMem, TxCtx, TxResult};

use crate::ds::DataStructure;
use crate::executor::Executor;
use crate::stats::{ExecStats, ExecStatsSnapshot, Phase};

/// Every operation runs under a single global lock.
pub struct LockExecutor<D: DataStructure> {
    ds: Arc<D>,
    mem: Arc<TMem>,
    rt: Arc<dyn Runtime>,
    lock: ElidableLock,
    stats: ExecStats,
}

impl<D: DataStructure> LockExecutor<D> {
    /// Builds the executor, allocating its lock in `mem`.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new(ds: Arc<D>, mem: Arc<TMem>, rt: Arc<dyn Runtime>) -> TxResult<Self> {
        let lock = ElidableLock::new(mem.clone())?;
        Ok(LockExecutor {
            ds,
            mem,
            rt,
            lock,
            stats: ExecStats::new(1),
        })
    }
}

impl<D: DataStructure> Executor<D> for LockExecutor<D> {
    fn execute(&self, op: D::Op) -> D::Res {
        let rt = self.rt.as_ref();
        let acquired = self.lock.lock(rt);
        self.stats.lock_acquired();
        let mut ctx = DirectCtx::under_lock(&self.mem, rt, acquired);
        let res = self
            .ds
            .run_seq(&mut ctx, &op)
            .expect("run_seq cannot abort under the lock");
        self.lock.unlock(rt);
        self.stats.completed(0, Phase::Lock);
        res
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        "Lock"
    }
}

impl<D: DataStructure> fmt::Debug for LockExecutor<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockExecutor").finish_non_exhaustive()
    }
}

/// Transactional lock elision: speculate up to `attempts` times, then take
/// the lock.
pub struct TleExecutor<D: DataStructure> {
    ds: Arc<D>,
    mem: Arc<TMem>,
    rt: Arc<dyn Runtime>,
    lock: ElidableLock,
    attempts: u32,
    stats: ExecStats,
}

impl<D: DataStructure> TleExecutor<D> {
    /// Builds the executor with the given HTM attempt budget.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new(ds: Arc<D>, mem: Arc<TMem>, rt: Arc<dyn Runtime>, attempts: u32) -> TxResult<Self> {
        let lock = ElidableLock::new(mem.clone())?;
        Ok(TleExecutor {
            ds,
            mem,
            rt,
            lock,
            attempts,
            stats: ExecStats::new(1),
        })
    }

    fn try_htm(&self, op: &D::Op) -> Option<D::Res> {
        let rt = self.rt.as_ref();
        self.stats.attempt(0);
        let mut tx = self.mem.begin(rt);
        let body = {
            let mut ctx = TxCtx::new(&mut tx);
            ctx.subscribe(&self.lock)
                .and_then(|()| self.ds.run_seq(&mut ctx, op))
        };
        match body {
            Ok(res) => match tx.commit() {
                Ok(()) => {
                    self.stats.commit(0);
                    Some(res)
                }
                Err(c) => {
                    self.stats.abort(c);
                    None
                }
            },
            Err(c) => {
                let c = tx.rollback(c);
                self.stats.abort(c);
                None
            }
        }
    }

    fn run_locked(&self, op: &D::Op) -> D::Res {
        let rt = self.rt.as_ref();
        let acquired = self.lock.lock(rt);
        self.stats.lock_acquired();
        let mut ctx = DirectCtx::under_lock(&self.mem, rt, acquired);
        let res = self
            .ds
            .run_seq(&mut ctx, op)
            .expect("run_seq cannot abort under the lock");
        self.lock.unlock(rt);
        res
    }
}

impl<D: DataStructure> Executor<D> for TleExecutor<D> {
    fn execute(&self, op: D::Op) -> D::Res {
        for attempt in 0..self.attempts {
            if let Some(res) = self.try_htm(&op) {
                self.stats.completed(0, Phase::Private);
                return res;
            }
            self.rt.backoff(attempt);
        }
        let res = self.run_locked(&op);
        self.stats.completed(0, Phase::Lock);
        res
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        "TLE"
    }
}

impl<D: DataStructure> fmt::Debug for TleExecutor<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TleExecutor")
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

/// Software-assisted conflict management (Afek et al., reference 1 of
/// the paper): TLE plus an
/// *auxiliary lock* that serializes threads whose transactions abort, so
/// they retry speculatively one at a time instead of stampeding to the
/// fallback lock. Transactions do not subscribe to the auxiliary lock —
/// it throttles threads, it does not forbid speculation.
pub struct ScmExecutor<D: DataStructure> {
    ds: Arc<D>,
    mem: Arc<TMem>,
    rt: Arc<dyn Runtime>,
    lock: ElidableLock,
    aux: ElidableLock,
    attempts: u32,
    stats: ExecStats,
}

impl<D: DataStructure> ScmExecutor<D> {
    /// Builds the executor with the given total HTM attempt budget.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new(ds: Arc<D>, mem: Arc<TMem>, rt: Arc<dyn Runtime>, attempts: u32) -> TxResult<Self> {
        let lock = ElidableLock::new(mem.clone())?;
        let aux = ElidableLock::new(mem.clone())?;
        Ok(ScmExecutor {
            ds,
            mem,
            rt,
            lock,
            aux,
            attempts,
            stats: ExecStats::new(1),
        })
    }
}

impl<D: DataStructure> Executor<D> for ScmExecutor<D> {
    fn execute(&self, op: D::Op) -> D::Res {
        let rt = self.rt.as_ref();
        let mut aux_held = false;
        let mut result = None;
        for attempt in 0..self.attempts {
            self.stats.attempt(0);
            let mut tx = self.mem.begin(rt);
            let body = {
                let mut ctx = TxCtx::new(&mut tx);
                ctx.subscribe(&self.lock)
                    .and_then(|()| self.ds.run_seq(&mut ctx, &op))
            };
            let outcome = match body {
                Ok(res) => tx.commit().map(|()| res),
                Err(c) => Err(tx.rollback(c)),
            };
            match outcome {
                Ok(res) => {
                    self.stats.commit(0);
                    self.stats.completed(0, Phase::Private);
                    result = Some(res);
                    break;
                }
                Err(c) => {
                    self.stats.abort(c);
                    if !c.is_transient() {
                        break;
                    }
                    // After the first failed attempt, serialize behind the
                    // auxiliary lock before retrying speculatively.
                    if !aux_held && attempt + 1 < self.attempts {
                        self.aux.lock(rt);
                        aux_held = true;
                    }
                    rt.backoff(attempt);
                }
            }
        }
        let res = match result {
            Some(res) => res,
            None => {
                let acquired = self.lock.lock(rt);
                self.stats.lock_acquired();
                let mut ctx = DirectCtx::under_lock(&self.mem, rt, acquired);
                let res = self
                    .ds
                    .run_seq(&mut ctx, &op)
                    .expect("run_seq cannot abort under the lock");
                self.lock.unlock(rt);
                self.stats.completed(0, Phase::Lock);
                res
            }
        };
        if aux_held {
            self.aux.unlock(rt);
        }
        res
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        "SCM"
    }
}

impl<D: DataStructure> fmt::Debug for ScmExecutor<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScmExecutor")
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HcfConfig;
    use crate::executor::Variant;
    use hcf_tmem::{Addr, MemCtx, RealRuntime, TMemConfig};

    struct OneCounter {
        a: Addr,
    }

    #[derive(Clone, Debug)]
    enum Op {
        Add(u64),
        Get,
    }

    impl DataStructure for OneCounter {
        type Op = Op;
        type Res = u64;
        fn run_seq(&self, ctx: &mut dyn MemCtx, op: &Op) -> hcf_tmem::TxResult<u64> {
            match op {
                Op::Add(d) => {
                    let v = ctx.read(self.a)?;
                    ctx.write(self.a, v + d)?;
                    Ok(v + d)
                }
                Op::Get => ctx.read(self.a),
            }
        }
    }

    fn build(v: Variant) -> Arc<dyn Executor<OneCounter>> {
        let rt = Arc::new(RealRuntime::new());
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let a = mem.alloc_direct(1).unwrap();
        let ds = Arc::new(OneCounter { a });
        v.build(ds, mem, rt, 8, 10, HcfConfig::new(8)).unwrap()
    }

    #[test]
    fn every_variant_computes_the_same_answers() {
        for v in Variant::ALL {
            let e = build(v);
            assert_eq!(e.execute(Op::Add(3)), 3, "{v}");
            assert_eq!(e.execute(Op::Add(4)), 7, "{v}");
            assert_eq!(e.execute(Op::Get), 7, "{v}");
            assert_eq!(e.name(), v.name());
        }
    }

    #[test]
    fn every_variant_is_exact_under_contention() {
        for v in Variant::ALL {
            let e = build(v);
            let threads = 4;
            let per = 100;
            let mut hs = Vec::new();
            for _ in 0..threads {
                let e = e.clone();
                hs.push(std::thread::spawn(move || {
                    for _ in 0..per {
                        e.execute(Op::Add(1));
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(e.execute(Op::Get), (threads * per) as u64, "{v}");
        }
    }

    #[test]
    fn lock_variant_never_speculates() {
        let e = build(Variant::Lock);
        e.execute(Op::Add(1));
        let s = e.exec_stats();
        assert_eq!(s.htm_attempts, 0);
        assert_eq!(s.lock_acqs, 1);
        assert_eq!(s.completed_by_phase(), [0, 0, 0, 1]);
    }

    #[test]
    fn tle_uncontended_never_locks() {
        let e = build(Variant::Tle);
        for _ in 0..50 {
            e.execute(Op::Add(1));
        }
        let s = e.exec_stats();
        assert_eq!(s.lock_acqs, 0);
        assert_eq!(s.completed_by_phase(), [50, 0, 0, 0]);
    }

    #[test]
    fn scm_uncontended_never_locks() {
        let e = build(Variant::Scm);
        for _ in 0..50 {
            e.execute(Op::Add(1));
        }
        let s = e.exec_stats();
        assert_eq!(s.lock_acqs, 0);
        assert_eq!(s.htm_commits, 50);
    }

    #[test]
    fn fc_always_locks() {
        let e = build(Variant::Fc);
        for _ in 0..10 {
            e.execute(Op::Add(1));
        }
        let s = e.exec_stats();
        assert_eq!(s.htm_attempts, 0);
        assert_eq!(s.completed_by_phase(), [0, 0, 0, 10]);
    }

    #[test]
    fn tle_fc_uncontended_behaves_like_tle() {
        let e = build(Variant::TleFc);
        for _ in 0..50 {
            e.execute(Op::Add(1));
        }
        let s = e.exec_stats();
        assert_eq!(s.lock_acqs, 0);
        assert_eq!(s.completed_by_phase(), [50, 0, 0, 0]);
    }
}
