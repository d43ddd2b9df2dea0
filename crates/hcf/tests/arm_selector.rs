//! The engine's cost-measuring arm selector, driven by a runtime whose
//! clock the test scripts: every `now()` call advances it by a set step,
//! so each timed `execute` measures exactly that step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcf_core::{Arm, DataStructure, HcfConfig, HcfEngine, PhasePolicy};
use hcf_tmem::{
    AccessKind, Addr, MemCtx, RealRuntime, Runtime, TMem, TMemConfig, TxEvent, TxResult,
};

/// Operations per selector epoch (one op in 8 is timed, 512 samples
/// close an epoch).
const EPOCH: u64 = 4096;

/// A real runtime with a scripted clock.
struct Scripted {
    inner: RealRuntime,
    clock: AtomicU64,
    /// What one `now()` call advances the clock by.
    step: AtomicU64,
    simulated: bool,
}

impl Scripted {
    fn new(simulated: bool) -> Arc<Scripted> {
        Arc::new(Scripted {
            inner: RealRuntime::new(),
            clock: AtomicU64::new(0),
            step: AtomicU64::new(1),
            simulated,
        })
    }
}

impl Runtime for Scripted {
    fn thread_id(&self) -> usize {
        self.inner.thread_id()
    }
    fn advance(&self, cycles: u64) {
        self.inner.advance(cycles)
    }
    fn yield_now(&self) {
        self.inner.yield_now()
    }
    fn backoff(&self, attempt: u32) {
        self.inner.backoff(attempt)
    }
    fn now(&self) -> u64 {
        self.clock
            .fetch_add(self.step.load(Ordering::Relaxed), Ordering::Relaxed)
    }
    fn mem_access(&self, line: usize, kind: AccessKind) {
        self.inner.mem_access(line, kind)
    }
    fn tx_event(&self, event: TxEvent) {
        self.inner.tx_event(event)
    }
    fn is_simulated(&self) -> bool {
        self.simulated
    }
}

/// Two counters, each in its own publication array. Also counts how
/// operations reach the lock: `run_seq` on a direct context is the FC
/// arm's degree-1 fast path, `run_multi` on one is a combining session
/// in phase 4.
struct Counters {
    base: Addr,
    alone: AtomicU64,
    sessions_under_lock: AtomicU64,
    combined_under_lock: AtomicU64,
}

impl Counters {
    fn apply(&self, ctx: &mut dyn MemCtx, op: &COp) -> TxResult<u64> {
        match *op {
            COp::Add(s) => {
                let a = self.base + s % 2;
                let v = ctx.read(a)? + 1;
                ctx.write(a, v)?;
                Ok(v)
            }
            COp::Get(s) => ctx.read(self.base + s % 2),
        }
    }
}

#[derive(Clone, Debug)]
enum COp {
    Add(u64),
    Get(u64),
}

impl DataStructure for Counters {
    type Op = COp;
    type Res = u64;

    fn num_arrays(&self) -> usize {
        2
    }

    fn array_of(&self, op: &COp) -> usize {
        match op {
            COp::Add(s) | COp::Get(s) => (*s % 2) as usize,
        }
    }

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &COp) -> TxResult<u64> {
        if !ctx.is_transactional() {
            self.alone.fetch_add(1, Ordering::Relaxed);
        }
        self.apply(ctx, op)
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[COp],
        out: &mut Vec<(usize, u64)>,
    ) -> TxResult<()> {
        if !ctx.is_transactional() {
            self.sessions_under_lock.fetch_add(1, Ordering::Relaxed);
            self.combined_under_lock
                .fetch_add(ops.len() as u64, Ordering::Relaxed);
        }
        for (i, op) in ops.iter().enumerate() {
            out.push((i, self.apply(ctx, op)?));
        }
        Ok(())
    }
}

fn engine(rt: &Arc<Scripted>, cfg: HcfConfig) -> HcfEngine<Counters> {
    let mem = Arc::new(TMem::new(TMemConfig::small_word_granular()));
    let base = mem.alloc_direct(2).unwrap();
    let ds = Counters {
        base,
        alone: AtomicU64::new(0),
        sessions_under_lock: AtomicU64::new(0),
        combined_under_lock: AtomicU64::new(0),
    };
    HcfEngine::new(Arc::new(ds), mem, rt.clone(), cfg).unwrap()
}

/// Never completes in TryPrivate, so the selector has something to win.
fn combining_first() -> HcfConfig {
    HcfConfig::new(8).with_default_policy(PhasePolicy::combining_first(5))
}

/// Runs `epochs` epochs on one thread, timing each op at `cost[arm]`, and
/// returns the arm each epoch ran under.
fn drive(rt: &Scripted, e: &HcfEngine<Counters>, epochs: usize, cost: [u64; 2]) -> Vec<Arm> {
    let mut seen = Vec::new();
    for _ in 0..epochs {
        seen.push(e.arm());
        for i in 0..EPOCH {
            rt.step.store(cost[e.arm() as usize], Ordering::Relaxed);
            e.execute(COp::Add(i));
        }
    }
    seen
}

fn arms(spec: &str) -> Vec<Arm> {
    spec.chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| if c == 'F' { Arm::Fc } else { Arm::Configured })
        .collect()
}

#[test]
fn a_cheaper_fc_arm_is_found_and_the_configured_arm_reprobed_on_schedule() {
    let rt = Scripted::new(false);
    let e = engine(&rt, combining_first());
    let seen = drive(&rt, &e, 20, [1800, 1000]);
    // One configured epoch, one FC probe, FC from then on with
    // configured probes after 2, 4 and 8 FC epochs.
    assert_eq!(seen, arms("C F FF C FFFF C FFFFFFFF C F"));
    let s = e.stats().arm;
    assert!(s.selecting);
    assert_eq!(s.in_force, Arm::Fc);
    assert_eq!(s.switches, 7);
    assert_eq!(s.ns_per_op, [1800, 1000]);
    // Every op went somewhere; the FC epochs ran under the lock.
    let st = e.stats();
    assert_eq!(st.total_ops(), 20 * EPOCH);
    assert_eq!(st.completed_by_phase()[3], 16 * EPOCH);
}

#[test]
fn an_all_private_engine_never_leaves_the_configured_arm() {
    let rt = Scripted::new(false);
    // Single-threaded, the default policy finishes every op in TryPrivate.
    let e = engine(&rt, HcfConfig::new(8));
    let seen = drive(&rt, &e, 8, [1000, 1]);
    assert!(seen.iter().all(|&a| a == Arm::Configured), "{seen:?}");
    let s = e.stats().arm;
    assert!(s.selecting);
    assert_eq!(s.switches, 0);
    assert_eq!(s.ns_per_op, [1000, 0]);
    assert_eq!(e.stats().completed_by_phase()[0], 8 * EPOCH);
}

#[test]
fn a_simulated_runtime_never_selects_or_reads_the_clock() {
    let rt = Scripted::new(true);
    let e = engine(&rt, combining_first());
    let seen = drive(&rt, &e, 6, [1800, 1000]);
    assert!(seen.iter().all(|&a| a == Arm::Configured), "{seen:?}");
    assert!(!e.stats().arm.selecting);
    assert_eq!(e.stats().arm.switches, 0);
    assert_eq!(rt.clock.load(Ordering::Relaxed), 0);
}

#[test]
fn the_fc_and_tle_fc_baselines_never_switch() {
    for cfg in [HcfConfig::fc(8), HcfConfig::tle_fc(8, 2)] {
        let rt = Scripted::new(false);
        let e = engine(&rt, cfg);
        // Whichever arm is measured cheaper, there is no selector to act.
        let seen = drive(&rt, &e, 4, [1000, 1]);
        assert!(seen.iter().all(|&a| a == Arm::Configured), "{seen:?}");
        assert!(!e.stats().arm.selecting);
        assert_eq!(e.stats().arm.switches, 0);
        assert_eq!(rt.clock.load(Ordering::Relaxed), 0);
    }
}

/// Four threads cross arm switches while FC-arm ops mix the degree-1
/// fast path with announced ops that combiners apply under the same
/// lock; every op must still apply exactly once.
#[test]
fn switching_arms_under_load_keeps_exactly_once() {
    let rt = Scripted::new(false);
    let e = engine(&rt, combining_first());
    let threads = 4u64;
    let per = 3 * EPOCH;
    std::thread::scope(|s| {
        for t in 0..threads {
            let (e, rt) = (&e, &rt);
            s.spawn(move || {
                let mut x = t + 1;
                for i in 0..per {
                    // Pseudo-random steps (xorshift) around a cheaper FC
                    // arm, so the configured arm is re-probed on schedule.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let base = [1500, 800][e.arm() as usize];
                    rt.step.store(base + x % 1000, Ordering::Relaxed);
                    e.execute(COp::Add(t + i));
                }
            });
        }
    });
    let total = e.execute(COp::Get(0)) + e.execute(COp::Get(1));
    assert_eq!(total, threads * per);
    let st = e.stats();
    assert_eq!(st.total_ops(), threads * per + 2);
    // 12 epochs: FC probed after the first, the configured arm re-probed
    // after 2 and 4 FC epochs.
    assert!(st.arm.switches >= 3, "{:?}", st.arm);

    let ds = e.ds();
    let alone = ds.alone.load(Ordering::Relaxed);
    let sessions = ds.sessions_under_lock.load(Ordering::Relaxed);
    let combined = ds.combined_under_lock.load(Ordering::Relaxed);
    assert!(alone > 0, "no op took the fast path");
    assert!(sessions > 0, "no announced op reached the lock");
    // A fast-path op counts as one lock acquisition and one lock-phase
    // completion, like a phase-4 session (one `run_multi` call here).
    assert_eq!(st.lock_acqs, alone + sessions);
    assert_eq!(st.completed_by_phase()[3], alone + combined);
}
