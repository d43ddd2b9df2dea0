//! The four-phase HCF execution engine (§2.1–§2.4 of the paper).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use hcf_tmem::{AbortCause, DirectCtx, ElidableLock, MemCtx, Runtime, TMem, TxCtx, TxResult};

use crate::arm::{Arm, ArmSelector};
use crate::ds::DataStructure;
use crate::policy::{PhasePolicy, SelectPolicy};
use crate::pubarray::PubArray;
use crate::record::{Batch, OpStatus, PubRecord};
use crate::stats::{ExecStats, ExecStatsSnapshot, Phase};

/// Marks a retired batch entry until `retire` compacts it away.
const RETIRED: usize = usize::MAX;

/// Construction-time configuration of an [`HcfEngine`].
#[derive(Clone, Debug)]
pub struct HcfConfig {
    /// Upper bound on concurrently participating threads (sizes the
    /// publication arrays; thread ids must stay below it).
    pub max_threads: usize,
    default_policy: PhasePolicy,
    overrides: Vec<(usize, PhasePolicy)>,
    name: &'static str,
    /// Whether the engine may switch to its FC arm (see [`crate::arm`]).
    /// Off for the FC and TLE+FC baselines, which must stay what their
    /// names say.
    select_arm: bool,
}

impl HcfConfig {
    /// Full HCF with the paper's default 2/3/5 budgets on every array.
    pub fn new(max_threads: usize) -> Self {
        HcfConfig {
            max_threads,
            default_policy: PhasePolicy::hcf_default(),
            overrides: Vec::new(),
            name: "HCF",
            select_arm: true,
        }
    }

    /// Flat combining expressed as an HCF configuration (§2.4).
    pub fn fc(max_threads: usize) -> Self {
        HcfConfig {
            max_threads,
            default_policy: PhasePolicy::fc_like(),
            overrides: Vec::new(),
            name: "FC",
            select_arm: false,
        }
    }

    /// The naive TLE+FC composition of §3.3.
    pub fn tle_fc(max_threads: usize, attempts: u32) -> Self {
        HcfConfig {
            max_threads,
            default_policy: PhasePolicy::tle_fc_like(attempts),
            overrides: Vec::new(),
            name: "TLE+FC",
            select_arm: false,
        }
    }

    /// Overrides the policy used for every array without an explicit
    /// override.
    pub fn with_default_policy(mut self, p: PhasePolicy) -> Self {
        self.default_policy = p;
        self
    }

    /// Overrides the policy for one publication array.
    pub fn with_policy(mut self, array: usize, p: PhasePolicy) -> Self {
        self.overrides.retain(|&(a, _)| a != array);
        self.overrides.push((array, p));
        self
    }

    /// Sets the display name reported by [`Executor::name`](crate::Executor::name).
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    fn policy_for(&self, array: usize) -> PhasePolicy {
        self.overrides
            .iter()
            .find(|&&(a, _)| a == array)
            .map(|&(_, p)| p)
            .unwrap_or(self.default_policy)
    }
}

/// The HCF engine: executes operations of a [`DataStructure`] through the
/// TryPrivate → TryVisible → TryCombining → CombineUnderLock pipeline.
pub struct HcfEngine<D: DataStructure> {
    ds: Arc<D>,
    mem: Arc<TMem>,
    rt: Arc<dyn Runtime>,
    /// The data-structure lock every transaction subscribes to.
    lock: ElidableLock,
    arrays: Vec<PubArray>,
    /// Packed [`PhasePolicy`] per array; mutable at run time (§2.4: "the
    /// customization may be dynamic") — see [`HcfEngine::set_policy`].
    /// These are the configured arm's policies.
    policies: Vec<AtomicU64>,
    /// Chooses between the configured policies and FC by measured cost;
    /// `None` on a simulated runtime and for the FC/TLE+FC baselines.
    selector: Option<ArmSelector>,
    /// `recs[t]` is thread `t`'s publication record (§2.2), created at its
    /// first announcement (so kv shards, which finish every op in
    /// TryPrivate, allocate none) and reused for every later one. Slots
    /// store thread ids; combiners find the announced op here.
    ///
    /// Exactly-once and reuse (§2.3): the slot decides who applies an
    /// announced op (the owner's TryVisible read-and-clear or a combiner's
    /// clear under the selection lock; either clear fails the other), and
    /// only the winner moves the record past `Announced`. A combiner copies
    /// the op at selection, stores the result, publishes `Done` and never
    /// touches the record again. The owner overwrites the op and resets the
    /// status only at its next announcement, after it saw `Done` and took
    /// the result, so no combiner sees a record reused under it and no
    /// result is taken twice.
    #[allow(clippy::type_complexity)]
    recs: Vec<OnceLock<Box<PubRecord<D::Op, D::Res>>>>,
    stats: ExecStats,
    name: &'static str,
    max_threads: usize,
}

enum VisibleOutcome<R> {
    Applied(R),
    Helped,
    Exhausted,
}

impl<D: DataStructure> HcfEngine<D> {
    /// Builds an engine over `ds`, allocating the lock and
    /// `ds.num_arrays()` publication arrays in `mem`.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion from the allocations.
    pub fn new(
        ds: Arc<D>,
        mem: Arc<TMem>,
        rt: Arc<dyn Runtime>,
        config: HcfConfig,
    ) -> TxResult<Self> {
        let n = ds.num_arrays().max(1);
        let lock = ElidableLock::new(mem.clone())?;
        // The ds lock is the fallback lock of §2.1: every phase's
        // transactions subscribe to it, which the sanitizer verifies.
        #[cfg(feature = "txsan")]
        lock.mark_fallback();
        let selector = (config.select_arm && !rt.is_simulated()).then(ArmSelector::default);
        let mut arrays = Vec::with_capacity(n);
        let mut policies = Vec::with_capacity(n);
        for a in 0..n {
            arrays.push(PubArray::new(mem.clone(), config.max_threads)?);
            policies.push(AtomicU64::new(config.policy_for(a).pack()));
        }
        Ok(HcfEngine {
            ds,
            mem,
            rt,
            lock,
            arrays,
            policies,
            selector,
            recs: (0..config.max_threads).map(|_| OnceLock::new()).collect(),
            stats: ExecStats::new(n),
            name: config.name,
            max_threads: config.max_threads,
        })
    }

    /// The underlying data structure.
    pub fn ds(&self) -> &Arc<D> {
        &self.ds
    }

    /// The data-structure lock (exposed for tests and diagnostics).
    pub fn ds_lock(&self) -> &ElidableLock {
        &self.lock
    }

    /// Framework statistics accumulated so far.
    pub fn stats(&self) -> ExecStatsSnapshot {
        let mut s = self.stats.snapshot();
        if let Some(sel) = &self.selector {
            s.arm = sel.stats();
        }
        s
    }

    /// The configured policy for array `aid`: the one in force while
    /// [`HcfEngine::arm`] is [`Arm::Configured`].
    pub fn policy(&self, aid: usize) -> PhasePolicy {
        PhasePolicy::unpack(self.policies[aid].load(Ordering::Relaxed))
    }

    /// The arm in force (see [`crate::arm`]); always
    /// [`Arm::Configured`] when the engine runs no selector.
    pub fn arm(&self) -> Arm {
        self.selector
            .as_ref()
            .map_or(Arm::Configured, ArmSelector::arm)
    }

    /// Replaces array `aid`'s configured policy at run time. Operations
    /// already in flight finish under the policy they started with;
    /// correctness is unaffected either way (§2.2: configuration "cannot
    /// affect the correctness, but only the performance").
    pub fn set_policy(&self, aid: usize, p: PhasePolicy) {
        self.policies[aid].store(p.pack(), Ordering::Relaxed);
    }

    /// Number of publication arrays.
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    /// Executes one operation to completion, possibly delegating it to (or
    /// acting as) a combiner. Linearizes between invocation and return
    /// (§2.3).
    pub fn execute(&self, op: D::Op) -> D::Res {
        let Some(sel) = &self.selector else {
            return self.run(op, Arm::Configured);
        };
        let arm = sel.arm();
        if !ArmSelector::sample_this_op() {
            return self.run(op, arm);
        }
        let start = self.rt.now();
        let res = self.run(op, arm);
        let ns = self.rt.now().saturating_sub(start);
        sel.record(arm, ns, || self.stats.private_and_total());
        res
    }

    /// `execute` under the policies of `arm`.
    fn run(&self, op: D::Op, arm: Arm) -> D::Res {
        let tid = self.rt.thread_id();
        assert!(
            tid < self.max_threads,
            "thread id {tid} exceeds configured max_threads {}",
            self.max_threads
        );
        let aid = self.ds.array_of(&op);
        let pol = match arm {
            Arm::Configured => self.policy(aid),
            Arm::Fc => PhasePolicy::fc_like(),
        };

        // Phase 1: TryPrivate.
        if let Some(res) = self.try_private(&op, aid, &pol) {
            self.stats.completed(aid, Phase::Private);
            return res;
        }
        if arm == Arm::Fc {
            if let Some(res) = self.run_alone(&op, aid) {
                return res;
            }
        }

        // Announce: record (op, then status) first, then the slot; a
        // combiner that observes the slot finds the op in the record.
        let rec = self.recs[tid].get_or_init(Box::default);
        rec.announce(op.clone());
        self.arrays[aid].announce(self.rt.as_ref(), tid);

        // Phase 2: TryVisible.
        match self.try_visible(rec, &op, tid, aid, &pol) {
            VisibleOutcome::Applied(res) => {
                self.stats.completed(aid, Phase::Visible);
                return res;
            }
            VisibleOutcome::Helped => return self.await_result(rec),
            VisibleOutcome::Exhausted => {}
        }

        // Phases 3 and 4: TryCombining, CombineUnderLock.
        self.combine(op, tid, aid, &pol)
    }

    /// The FC arm's degree-1 fast path: when no slot of any array is
    /// announced and the data-structure lock is free, apply `op` under the
    /// lock without announcing it, as `LockExecutor` would. Otherwise
    /// `None`, and the op takes the announce → select → combine path.
    ///
    /// Exactly-once holds trivially: the op is never published, so no
    /// combiner can select it. Isolation is phase 4's: every transaction
    /// subscribes to `self.lock` first (`attempt`), and `try_lock`
    /// quiesces write-backs as `lock` does. The scan is only a racy hint
    /// that no announced op is waiting for a combiner; an op announced
    /// just after it is combined as usual once the lock is free. The op
    /// counts as a degree-1 session completed under one lock acquisition,
    /// so the stats read as if it had combined alone.
    fn run_alone(&self, op: &D::Op, aid: usize) -> Option<D::Res> {
        let rt = self.rt.as_ref();
        if self.arrays.iter().any(|pa| pa.any_announced(rt)) {
            return None;
        }
        let acquired = self.lock.try_lock(rt)?;
        let res = self
            .ds
            .run_seq(&mut DirectCtx::under_lock(&self.mem, rt, acquired), op)
            .expect("run_seq cannot abort under the lock");
        self.lock.unlock(rt);
        self.stats.session(aid, 1);
        self.stats.lock_acquired();
        self.stats.completed(aid, Phase::Lock);
        Some(res)
    }

    /// One speculative attempt: runs `body` in a transaction subscribed to
    /// the data-structure lock, commits it or rolls it back, and counts
    /// the outcome.
    fn attempt<T>(
        &self,
        aid: usize,
        body: impl FnOnce(&mut dyn MemCtx) -> TxResult<T>,
    ) -> TxResult<T> {
        self.stats.attempt(aid);
        let mut tx = self.mem.begin(self.rt.as_ref());
        let ran = {
            let mut ctx = TxCtx::new(&mut tx);
            ctx.subscribe(&self.lock).and_then(|()| body(&mut ctx))
        };
        let out = match ran {
            Ok(v) => tx.commit().map(|()| v),
            Err(c) => Err(tx.rollback(c)),
        };
        match &out {
            Ok(_) => self.stats.commit(aid),
            Err(c) => self.stats.abort(*c),
        }
        out
    }

    fn try_private(&self, op: &D::Op, aid: usize, pol: &PhasePolicy) -> Option<D::Res> {
        for attempt in 0..pol.try_private {
            match self.attempt(aid, |ctx| self.ds.run_seq(ctx, op)) {
                Ok(res) => return Some(res),
                Err(c) if !c.is_transient() => break,
                Err(_) => self.rt.backoff(attempt),
            }
        }
        None
    }

    fn try_visible(
        &self,
        rec: &PubRecord<D::Op, D::Res>,
        op: &D::Op,
        tid: usize,
        aid: usize,
        pol: &PhasePolicy,
    ) -> VisibleOutcome<D::Res> {
        let pa = &self.arrays[aid];
        let slot = pa.slot(tid);
        for attempt in 0..pol.try_visible {
            if rec.status() != OpStatus::Announced {
                return VisibleOutcome::Helped;
            }
            let applied = self.attempt(aid, |ctx| {
                ctx.subscribe(&pa.selection)?;
                if rec.status() != OpStatus::Announced {
                    ctx.explicit_abort(AbortCause::STATUS_CHANGED)?;
                }
                // Exactly-once linchpin: read-and-clear our slot inside
                // the transaction. A combiner's selection clears the
                // slot with a version-bumping direct write, so this
                // transaction cannot commit once we have been selected.
                let tag = ctx.read(slot)?;
                debug_assert_eq!(tag, PubArray::tag(tid));
                let res = self.ds.run_seq(ctx, op)?;
                ctx.write(slot, 0)?;
                Ok(res)
            });
            match applied {
                Ok(res) => {
                    rec.set_status(OpStatus::Done);
                    return VisibleOutcome::Applied(res);
                }
                Err(AbortCause::Explicit(AbortCause::STATUS_CHANGED)) => {
                    return VisibleOutcome::Helped
                }
                Err(c) if !c.is_transient() => break,
                Err(_) => self.rt.backoff(attempt),
            }
        }
        VisibleOutcome::Exhausted
    }

    /// Phases 3 and 4: become a combiner for array `aid`.
    fn combine(&self, op: D::Op, tid: usize, aid: usize, pol: &PhasePolicy) -> D::Res {
        let rt = self.rt.as_ref();
        let pa = &self.arrays[aid];
        let rec = self.rec(tid);

        pa.selection.lock(rt);
        // While we competed for the selection lock another combiner may
        // have selected (and perhaps completed) our operation.
        if rec.status() != OpStatus::Announced {
            pa.selection.unlock(rt);
            return self.await_result(rec);
        }
        // The buffers leave the record for the session, so no mutex is
        // held across a TMem access.
        let mut batch = std::mem::take(&mut *rec.batch.lock());
        let Batch { tids, ops, results } = &mut batch;
        self.choose_ops_to_help(op, tid, aid, pol, tids, ops);
        if !pol.specialized {
            pa.selection.unlock(rt);
        }
        self.stats.session(aid, tids.len());

        // Phase 3: apply selected operations in transactions.
        let mut attempts = 0;
        while !tids.is_empty() && attempts < pol.try_combining {
            attempts += 1;
            let chunk = tids.len().min(self.ds.max_multi().max(1));
            results.clear();
            match self.attempt(aid, |ctx| self.ds.run_multi(ctx, &ops[..chunk], results)) {
                Ok(()) => self.retire(aid, chunk, tids, ops, results, Phase::Combining),
                Err(c) if !c.is_transient() => break,
                Err(_) => rt.backoff(attempts),
            }
        }

        // Phase 4: apply the rest under the data-structure lock.
        if !tids.is_empty() {
            let acquired = self.lock.lock(rt);
            self.stats.lock_acquired();
            while !tids.is_empty() {
                let chunk = tids.len().min(self.ds.max_multi().max(1));
                // Every transaction on the data structure subscribes to
                // `self.lock` first (`attempt`), as `under_lock` requires.
                let mut ctx = DirectCtx::under_lock(&self.mem, rt, acquired);
                results.clear();
                self.ds
                    .run_multi(&mut ctx, &ops[..chunk], results)
                    .expect("run_multi cannot abort under the lock");
                assert!(
                    !results.is_empty(),
                    "run_multi must make progress under the lock"
                );
                self.retire(aid, chunk, tids, ops, results, Phase::Lock);
            }
            self.lock.unlock(rt);
        }
        if pol.specialized {
            pa.selection.unlock(rt);
        }

        *rec.batch.lock() = batch;
        debug_assert_eq!(rec.status(), OpStatus::Done);
        rec.take_result()
    }

    /// `chooseOpsToHelp` (§2.2): select announced operations from the
    /// array into the empty `tids`/`ops` buffers, always including our own
    /// `op` first. Caller holds the selection lock, which (a) serializes
    /// selection per array, and (b) — because its acquisition quiesced
    /// in-flight commits and TryVisible transactions subscribe to it —
    /// freezes slot removals for the duration of the scan. New
    /// announcements may appear mid-scan and are simply picked up or left
    /// for the next combiner.
    fn choose_ops_to_help(
        &self,
        op: D::Op,
        tid: usize,
        aid: usize,
        pol: &PhasePolicy,
        tids: &mut Vec<usize>,
        ops: &mut Vec<D::Op>,
    ) {
        let rt = self.rt.as_ref();
        let pa = &self.arrays[aid];

        debug_assert_ne!(self.mem.peek(pa.slot(tid)), 0, "own slot vanished");
        self.rec(tid).set_status(OpStatus::BeingHelped);
        pa.clear(rt, tid);
        tids.push(tid);
        ops.push(op);

        if pol.select != SelectPolicy::OwnOnly {
            let mut heur = DirectCtx::new(&self.mem, rt);
            // Scan every slot first, then decide in ascending tid order,
            // keeping the chosen ids in place behind our own.
            pa.scan(rt, tids);
            let mut kept = 1;
            for i in 1..tids.len() {
                let t = tids[i];
                debug_assert_ne!(t, tid, "own slot was cleared before the scan");
                let other = self.rec(t);
                debug_assert_eq!(other.status(), OpStatus::Announced);
                ops.push(other.op());
                let take = pol.select == SelectPolicy::All
                    || self.ds.should_help(&mut heur, &ops[0], &ops[kept]);
                if take {
                    other.set_status(OpStatus::BeingHelped);
                    pa.clear(rt, t);
                    tids[kept] = t;
                    kept += 1;
                } else {
                    ops.pop();
                }
            }
            tids.truncate(kept);
        }
    }

    /// Publishes the results of one successful `run_multi` call on the
    /// first `chunk` batch entries, then drops the applied ones in one
    /// order-preserving compaction.
    fn retire(
        &self,
        aid: usize,
        chunk: usize,
        tids: &mut Vec<usize>,
        ops: &mut Vec<D::Op>,
        results: &mut Vec<(usize, D::Res)>,
        phase: Phase,
    ) {
        for (i, res) in results.drain(..) {
            debug_assert!(i < chunk, "run_multi returned an index outside the chunk");
            debug_assert_ne!(tids[i], RETIRED, "run_multi returned a duplicate index");
            // Our last touch of record `tids[i]`: it publishes `Done`.
            self.rec(tids[i]).complete(res);
            self.stats.completed(aid, phase);
            tids[i] = RETIRED;
        }
        let mut entry = tids.iter();
        ops.retain(|_| entry.next() != Some(&RETIRED));
        tids.retain(|&t| t != RETIRED);
    }

    /// Thread `t`'s record; it exists once `t` has announced.
    fn rec(&self, t: usize) -> &PubRecord<D::Op, D::Res> {
        self.recs[t]
            .get()
            .expect("an announced thread has a record")
    }

    /// Spin until a combiner finishes our operation, then return its
    /// result. (§2.2: "the owner waits for the combiner to complete the
    /// operation by spinning on the status field".)
    fn await_result(&self, rec: &PubRecord<D::Op, D::Res>) -> D::Res {
        let mut attempt = 0u32;
        while rec.status() != OpStatus::Done {
            self.rt.backoff(attempt);
            attempt = attempt.saturating_add(1);
        }
        rec.take_result()
    }
}

impl<D: DataStructure> fmt::Debug for HcfEngine<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HcfEngine")
            .field("name", &self.name)
            .field("arrays", &self.arrays.len())
            .field("max_threads", &self.max_threads)
            .finish()
    }
}

impl<D: DataStructure> crate::executor::Executor<D> for HcfEngine<D> {
    fn execute(&self, op: D::Op) -> D::Res {
        HcfEngine::execute(self, op)
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.stats()
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{Addr, MemCtx, RealRuntime, Runtime, TMemConfig};

    /// Counters with per-op array routing: even slots -> array 0, odd ->
    /// array 1. Lets tests drive multi-array behaviour.
    struct Counters {
        base: Addr,
        n: u64,
        arrays: usize,
    }

    #[derive(Clone, Debug)]
    enum COp {
        Add(u64, u64),
        Get(u64),
    }

    impl DataStructure for Counters {
        type Op = COp;
        type Res = u64;

        fn num_arrays(&self) -> usize {
            self.arrays
        }

        fn array_of(&self, op: &COp) -> usize {
            let s = match op {
                COp::Add(s, _) | COp::Get(s) => *s,
            };
            (s as usize) % self.arrays
        }

        fn run_seq(&self, ctx: &mut dyn MemCtx, op: &COp) -> TxResult<u64> {
            match op {
                COp::Add(s, d) => {
                    let a = self.base + (s % self.n);
                    let v = ctx.read(a)?;
                    ctx.write(a, v + d)?;
                    Ok(v + d)
                }
                COp::Get(s) => ctx.read(self.base + (s % self.n)),
            }
        }
    }

    fn setup(arrays: usize, cfg: HcfConfig) -> (Arc<TMem>, Arc<RealRuntime>, HcfEngine<Counters>) {
        let rt = Arc::new(RealRuntime::new());
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let base = mem.alloc_direct(16).unwrap();
        let ds = Arc::new(Counters {
            base,
            n: 16,
            arrays,
        });
        let engine = HcfEngine::new(ds, mem.clone(), rt.clone(), cfg).unwrap();
        (mem, rt, engine)
    }

    #[test]
    fn single_thread_all_phases_private() {
        let (_m, _rt, e) = setup(1, HcfConfig::new(4));
        for i in 0..10 {
            assert_eq!(e.execute(COp::Add(0, 1)), i + 1);
        }
        let s = e.stats();
        assert_eq!(s.total_ops(), 10);
        assert_eq!(s.completed_by_phase(), [10, 0, 0, 0]);
        assert_eq!(s.lock_acqs, 0);
    }

    #[test]
    fn fc_config_completes_under_lock() {
        let (_m, _rt, e) = setup(1, HcfConfig::fc(4));
        assert_eq!(e.execute(COp::Add(0, 5)), 5);
        assert_eq!(e.execute(COp::Get(0)), 5);
        let s = e.stats();
        assert_eq!(s.completed_by_phase(), [0, 0, 0, 2]);
        assert_eq!(s.lock_acqs, 2);
        assert_eq!(s.htm_attempts, 0);
    }

    #[test]
    fn fc_arm_alone_takes_the_lock_without_announcing() {
        let (_m, rt, e) = setup(2, HcfConfig::new(4));
        for i in 0..10 {
            assert_eq!(e.run(COp::Add(0, 1), Arm::Fc), i + 1);
        }
        assert_eq!(e.run(COp::Get(1), Arm::Fc), 0);
        // Counted as if each op had combined alone under the lock.
        let s = e.stats();
        assert_eq!(s.completed_by_phase(), [0, 0, 0, 11]);
        assert_eq!(s.lock_acqs, 11);
        assert_eq!(s.htm_attempts, 0);
        assert_eq!((s.arrays[0].sessions, s.arrays[1].sessions), (10, 1));
        assert_eq!(s.arrays[0].degree_hist[0], 10);
        assert!((s.avg_degree() - 1.0).abs() < 1e-12);
        assert!(!e.ds_lock().is_locked(rt.as_ref()));
        // Nothing was announced, so no publication record exists.
        assert!(e.recs.iter().all(|r| r.get().is_none()));
    }

    #[test]
    fn fc_arm_announces_while_any_array_has_an_announcement() {
        let (_m, rt, e) = setup(2, HcfConfig::new(4));
        // A stale announcement on array 1 (thread 3 never runs) sends an
        // array-0 op down the combining path, which scans array 0 only.
        e.arrays[1].announce(rt.as_ref(), 3);
        assert_eq!(e.run(COp::Add(0, 1), Arm::Fc), 1);
        let tid = rt.thread_id();
        assert!(e.recs[tid].get().is_some(), "the op was announced");
        e.arrays[1].clear(rt.as_ref(), 3);
        assert_eq!(e.run(COp::Add(0, 1), Arm::Fc), 2);
        let s = e.stats();
        assert_eq!(s.completed_by_phase(), [0, 0, 0, 2]);
        assert_eq!((s.lock_acqs, s.arrays[0].sessions), (2, 2));
    }

    #[test]
    fn tle_config_uses_private_phase() {
        let (_m, _rt, e) = setup(
            1,
            HcfConfig::new(4)
                .with_default_policy(PhasePolicy::tle_like(10))
                .named("TLE(hcf)"),
        );
        assert_eq!(e.execute(COp::Add(1, 2)), 2);
        let s = e.stats();
        assert_eq!(s.completed_by_phase(), [1, 0, 0, 0]);
    }

    #[test]
    fn combining_first_goes_to_phase_three() {
        let (_m, _rt, e) = setup(
            1,
            HcfConfig::new(4).with_default_policy(PhasePolicy::combining_first(5)),
        );
        assert_eq!(e.execute(COp::Add(0, 3)), 3);
        let s = e.stats();
        // Single thread: the combiner helps only itself, on HTM.
        assert_eq!(s.completed_by_phase(), [0, 0, 1, 0]);
        assert_eq!(s.arrays[0].sessions, 1);
        assert!((s.arrays[0].avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_arrays_route_operations() {
        let (_m, _rt, e) = setup(2, HcfConfig::fc(4));
        e.execute(COp::Add(0, 1)); // array 0
        e.execute(COp::Add(1, 1)); // array 1
        e.execute(COp::Add(3, 1)); // array 1
        let s = e.stats();
        assert_eq!(s.arrays[0].total(), 1);
        assert_eq!(s.arrays[1].total(), 2);
    }

    #[test]
    fn results_are_correct_under_contention() {
        let (_m, _rt, e) = setup(2, HcfConfig::new(8));
        let e = Arc::new(e);
        let threads = 4;
        let per = 200;
        let mut hs = Vec::new();
        for t in 0..threads {
            let e = e.clone();
            hs.push(std::thread::spawn(move || {
                for i in 0..per {
                    // Everyone hammers slots 0 and 1 to force conflicts.
                    e.execute(COp::Add((t + i) % 2, 1));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let total = e.execute(COp::Get(0)) + e.execute(COp::Get(1));
        assert_eq!(total, threads * per);
        let s = e.stats();
        assert_eq!(s.total_ops(), threads * per + 2);
    }

    #[test]
    fn specialized_variant_is_correct() {
        let (_m, _rt, e) = setup(
            1,
            HcfConfig::new(8)
                .with_default_policy(PhasePolicy::combining_first(3).specialized(true)),
        );
        let e = Arc::new(e);
        let mut hs = Vec::new();
        for _ in 0..4 {
            let e = e.clone();
            hs.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    e.execute(COp::Add(0, 1));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(e.execute(COp::Get(0)), 400);
    }

    #[test]
    #[should_panic(expected = "max_threads")]
    fn too_many_threads_panics() {
        let (_m, _rt, e) = setup(1, HcfConfig::new(1));
        let e = Arc::new(e);
        // Consume tid 0 on this thread...
        e.execute(COp::Get(0));
        // ...then a second thread must trip the assertion.
        let e2 = e.clone();
        let r = std::thread::spawn(move || e2.execute(COp::Get(0))).join();
        std::panic::resume_unwind(r.unwrap_err());
    }
}
