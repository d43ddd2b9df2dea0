//! Native-mode smoke tests: every synchronization variant on real OS
//! threads, with recorded histories checked for linearizability; the
//! watchdog catching a deliberately stalled executor; thread-id
//! recycling keeping a long-lived engine usable from short-lived threads;
//! and the run's elapsed time covering the workers, not the watchdog.
//!
//! These are the wall-clock counterparts of `lincheck_e2e.rs` — same
//! sequential specification, but genuine preemptive interleavings instead
//! of the lockstep schedule.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hcf_core::{ExecStatsSnapshot, Executor, HcfConfig, Variant};
use hcf_ds::{HashTable, HashTableDs, MapOp};
use hcf_sim::lincheck::{check_linearizable, SeqSpec};
use hcf_sim::native::{run_native, run_native_with, NativeConfig, NativeError};
use hcf_tmem::{MemCtx, RealRuntime, TMem, TMemConfig, TxResult};
use hcf_util::rng::*;

#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct MapSpec(BTreeMap<u64, u64>);

impl SeqSpec for MapSpec {
    type Op = MapOp;
    type Res = Option<u64>;
    fn apply(&mut self, op: &MapOp) -> Option<u64> {
        match *op {
            MapOp::Insert(k, v) => self.0.insert(k, v),
            MapOp::Remove(k) => self.0.remove(&k),
            MapOp::Find(k) => self.0.get(&k).copied(),
        }
    }
}

fn build_map(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<HashTableDs>, HcfConfig)> {
    // Tiny table and key space: maximal conflicts and delegation.
    let t = HashTable::create(ctx, 4)?;
    Ok((
        Arc::new(HashTableDs::new(t)),
        HashTableDs::hcf_config(threads),
    ))
}

fn conflict_gen(_tid: usize, rng: &mut StdRng) -> MapOp {
    let k = rng.random_range(0..6u64);
    match rng.random_range(0..3) {
        0 => MapOp::Insert(k, rng.random_range(0..100)),
        1 => MapOp::Remove(k),
        _ => MapOp::Find(k),
    }
}

/// Every variant completes a contended 4-thread run before the watchdog
/// fires, with exact operation accounting and a linearizable history.
#[test]
fn all_variants_native_runs_are_linearizable() {
    for v in Variant::ALL {
        let cfg = NativeConfig::new(4)
            .with_ops(40)
            .with_seed(11)
            .with_watchdog_ms(10_000)
            .with_history(true);
        let (r, history) = run_native(&cfg, v, build_map, conflict_gen)
            .unwrap_or_else(|e| panic!("{v} stalled: {e}"));
        assert_eq!(r.total_ops, 160, "{v} lost operations");
        assert_eq!(r.exec.total_ops(), 160, "{v} stats disagree");
        assert_eq!(history.len(), 160);
        assert!(
            check_linearizable(MapSpec::default(), &history),
            "{v} produced a non-linearizable native history"
        );
    }
}

/// `elapsed_ns` runs from the earliest worker start to the latest worker
/// end: it lies inside the call (which spawns and joins the workers),
/// covers every worker's operations, and does not wait for the
/// watchdog's next poll, which a spawn-to-join clock would count.
#[test]
fn elapsed_time_covers_the_workers_and_not_the_watchdog_poll() {
    let mut cfg = NativeConfig::new(2)
        .with_ops(50)
        .with_seed(5)
        .with_history(true);
    cfg.poll_ms = 300;
    let call = Instant::now();
    let (r, history) = run_native(&cfg, Variant::Hcf, build_map, conflict_gen)
        .unwrap_or_else(|e| panic!("stalled: {e}"));
    let call_ns = call.elapsed().as_nanos() as u64;
    assert!(r.elapsed_ns > 0);
    assert!(
        r.elapsed_ns <= call_ns,
        "elapsed {} ns outside the {call_ns} ns call",
        r.elapsed_ns
    );
    for tid in 0..cfg.threads {
        let ops = history.iter().filter(|s| s.tid == tid);
        let first_invoke = ops.clone().map(|s| s.invoke).min().expect("worker ran");
        let last_response = ops.map(|s| s.response).max().expect("worker ran");
        assert!(
            r.elapsed_ns >= last_response - first_invoke,
            "elapsed {} ns shorter than worker {tid}'s {} ns of operations",
            r.elapsed_ns,
            last_response - first_invoke
        );
    }
    // 100 hash-table operations take well under a millisecond; the
    // watchdog sleeps a whole poll period before it sees them done.
    assert!(
        r.elapsed_ns < cfg.poll_ms * 1_000_000 / 2,
        "elapsed {} ns includes the watchdog's poll",
        r.elapsed_ns
    );
}

/// An executor that accepts one operation per thread and then wedges,
/// simulating a livelocked combiner that never answers its requests.
struct StalledExecutor;

impl Executor<HashTableDs> for StalledExecutor {
    fn execute(&self, _op: MapOp) -> Option<u64> {
        loop {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    fn exec_stats(&self) -> ExecStatsSnapshot {
        ExecStatsSnapshot::default()
    }
    fn name(&self) -> &'static str {
        "stalled"
    }
}

/// The watchdog converts a hung executor into a structured error with
/// stall diagnostics instead of hanging the harness forever.
#[test]
fn watchdog_detects_stalled_executor() {
    let cfg = NativeConfig::new(2).with_ops(10).with_watchdog_ms(250);
    let err = run_native_with(
        &cfg,
        Variant::Fc,
        build_map,
        |_ds, _mem, _rt, _threads, _hcf| Arc::new(StalledExecutor) as Arc<dyn Executor<_>>,
        conflict_gen,
    )
    .expect_err("a wedged executor must trip the watchdog");
    match err {
        NativeError::Stalled {
            variant,
            completed_ops,
            per_thread_ops,
            threads_done,
            threads,
            stalled_for_ms,
        } => {
            assert_eq!(variant, Variant::Fc);
            assert_eq!(completed_ops, 0, "no op can complete");
            assert_eq!(per_thread_ops, vec![0, 0]);
            assert_eq!(threads_done, 0);
            assert_eq!(threads, 2);
            assert!(stalled_for_ms >= 250);
        }
    }
}

/// A long-lived engine built for 4 slots stays usable from many more than
/// 4 short-lived OS threads, as long as each registers (and thereby
/// releases) its dense id — the id-recycling fix in action. Without the
/// registration guard the 5th thread would receive id 4 and trip the
/// engine's `tid < max_threads` bound.
#[test]
fn engine_outlives_many_short_lived_threads() {
    let max_threads = 4;
    let mem = Arc::new(TMem::new(TMemConfig::default()));
    let setup_rt = RealRuntime::new();
    let (ds, hcf) = {
        let mut ctx = hcf_tmem::DirectCtx::new(&mem, &setup_rt);
        build_map(&mut ctx, max_threads).unwrap()
    };
    let rt = Arc::new(RealRuntime::new());
    let executor = Variant::Hcf
        .build(
            ds,
            mem,
            rt.clone() as Arc<dyn hcf_tmem::Runtime>,
            max_threads,
            10,
            hcf,
        )
        .unwrap();

    for round in 0..12u64 {
        let rt = rt.clone();
        let executor = executor.clone();
        std::thread::spawn(move || {
            let slot = rt.register();
            assert!(slot.id() < max_threads, "id {} not recycled", slot.id());
            let mut rng = StdRng::seed_from_u64(round);
            for _ in 0..20 {
                executor.execute(conflict_gen(0, &mut rng));
            }
        })
        .join()
        .expect("short-lived worker failed");
    }
    assert_eq!(executor.exec_stats().total_ops(), 12 * 20);
}
