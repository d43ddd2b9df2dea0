//! Native execution: real `std::thread` workers over [`RealRuntime`].
//!
//! Everything else in this crate measures the framework on the
//! deterministic lockstep runtime; this module is its wall-clock
//! counterpart. [`run_native`] executes any [`Variant`] on OS threads
//! against the software-HTM substrate with:
//!
//! * seeded per-thread workload generation (the same [`crate::workload`]
//!   generators as the lockstep driver — thread `t` draws from
//!   `seed + t`, so a run is *workload*-reproducible even though the
//!   interleaving is not),
//! * per-thread operation counters and an operation-latency profile
//!   (p50/p90/p99/max in nanoseconds),
//! * a stop flag and a watchdog: if no thread completes an operation for
//!   [`NativeConfig::watchdog_ms`], the run returns a structured
//!   [`NativeError::Stalled`] instead of hanging — livelock and lost-wakeup
//!   bugs become test failures with diagnostics attached,
//! * optional history recording: every operation's invoke/response
//!   timestamps (monotonic nanoseconds from the shared [`RealRuntime`]
//!   clock) are captured as [`OpSpan`]s, suitable for post-hoc
//!   linearizability validation with [`crate::lincheck::check_linearizable`].
//!
//! Timestamp soundness for the checker: `invoke` is read *before* the
//! executor is entered and `response` *after* it returns, so recorded
//! spans contain the true operation window. If one span's `response` is
//! below another's `invoke`, the first operation really did complete
//! before the second began (the monotonic clock is shared by all
//! threads); overlap is never under-reported, only over-reported, which
//! can only make the checker more permissive, never wrong.
//!
//! Wall-clock throughput from this driver depends on the host's core
//! count and scheduler; see `DESIGN.md` ("Native execution mode") for
//! what these numbers do and do not mean next to the lockstep figures.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hcf_util::rng::*;
use hcf_util::sync::Mutex;

use hcf_core::{DataStructure, ExecStatsSnapshot, Executor, HcfConfig, Variant};
use hcf_tmem::runtime::Runtime;
use hcf_tmem::{DirectCtx, MemCtx, RealRuntime, TMem, TMemConfig, TxResult};

use crate::lincheck::OpSpan;
use crate::progress::{Liveness, ProgressMeter, StallTracker};

/// Configuration of one native (real-thread) stress run.
#[derive(Clone, Debug)]
pub struct NativeConfig {
    /// Number of OS worker threads (also the executor's `max_threads`).
    pub threads: usize,
    /// Operations each worker executes before exiting.
    pub ops_per_thread: u64,
    /// Workload RNG seed (thread `t` uses `seed + t`).
    pub seed: u64,
    /// Transactional-memory configuration.
    pub tmem: TMemConfig,
    /// Total HTM attempt budget for the speculative baselines (the paper
    /// gives every HTM variant 10).
    pub attempts: u32,
    /// Watchdog deadline: if no operation completes for this long, the
    /// run fails with [`NativeError::Stalled`].
    pub watchdog_ms: u64,
    /// Watchdog polling period.
    pub poll_ms: u64,
    /// Record an [`OpSpan`] per operation for linearizability checking.
    /// Costs memory proportional to the total operation count.
    pub record_history: bool,
}

impl NativeConfig {
    /// A sensible default: 1 000 ops/thread, seed `0xC0FFEE`, budget 10,
    /// 5 s watchdog, no history.
    pub fn new(threads: usize) -> Self {
        NativeConfig {
            threads,
            ops_per_thread: 1_000,
            seed: 0xC0FFEE,
            tmem: TMemConfig::default(),
            attempts: 10,
            watchdog_ms: 5_000,
            poll_ms: 10,
            record_history: false,
        }
    }

    /// Builder-style ops-per-thread override.
    pub fn with_ops(mut self, ops: u64) -> Self {
        self.ops_per_thread = ops;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style watchdog override.
    pub fn with_watchdog_ms(mut self, ms: u64) -> Self {
        self.watchdog_ms = ms.max(1);
        self
    }

    /// Builder-style history-recording toggle.
    pub fn with_history(mut self, record: bool) -> Self {
        self.record_history = record;
        self
    }

    /// Builder-style memory-configuration override.
    pub fn with_tmem(mut self, tmem: TMemConfig) -> Self {
        self.tmem = tmem;
        self
    }
}

/// Operation-latency profile of one run, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of measured operations.
    pub count: u64,
    /// Mean latency.
    pub mean_ns: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 90th-percentile latency.
    pub p90_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Builds the profile from an unsorted sample of latencies.
    fn from_samples(mut samples: Vec<u64>) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let pct = |p: f64| samples[(((n - 1) as f64) * p).round() as usize];
        LatencyStats {
            count: n as u64,
            mean_ns: samples.iter().sum::<u64>() / n as u64,
            p50_ns: pct(0.50),
            p90_ns: pct(0.90),
            p99_ns: pct(0.99),
            max_ns: samples[n - 1],
        }
    }
}

/// The result of one completed native run.
#[derive(Clone, Debug)]
pub struct NativeRunResult {
    /// Synchronization scheme measured.
    pub variant: Variant,
    /// Worker-thread count.
    pub threads: usize,
    /// Operations completed (sum over threads).
    pub total_ops: u64,
    /// Wall-clock duration of the measurement: the latest worker's end
    /// stamp minus the earliest worker's start stamp, so neither thread
    /// spawning nor the watchdog's polling period is counted.
    pub elapsed_ns: u64,
    /// Operations completed by each worker.
    pub per_thread_ops: Vec<u64>,
    /// Operation-latency profile.
    pub latency: LatencyStats,
    /// Framework statistics (exact: taken after joining the workers).
    pub exec: ExecStatsSnapshot,
}

impl NativeRunResult {
    /// Throughput in operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.total_ops as f64 * 1e9 / self.elapsed_ns as f64
        }
    }

    /// Speculative abort rate in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        self.exec.abort_rate()
    }
}

/// The recorded history of a run: one [`OpSpan`] per operation. Empty
/// unless [`NativeConfig::record_history`] was set.
pub type NativeHistory<D> = Vec<OpSpan<<D as DataStructure>::Op, <D as DataStructure>::Res>>;

/// Structured failure of a native run.
#[derive(Clone, Debug)]
pub enum NativeError {
    /// The watchdog saw no operation complete for the configured deadline:
    /// the executor livelocked, deadlocked, or lost a delegated operation.
    /// The stuck worker threads are left behind (detached) — they cannot
    /// be cancelled from outside — so a stalled run leaks its workers
    /// until the process exits; treat this error as fatal diagnostics,
    /// not a recoverable condition.
    Stalled {
        /// Scheme under test.
        variant: Variant,
        /// Operations that did complete before the stall.
        completed_ops: u64,
        /// Per-worker completion counts at the time of the stall (the
        /// all-zero pattern distinguishes "stuck from the start" from a
        /// mid-run livelock).
        per_thread_ops: Vec<u64>,
        /// Workers that had already finished.
        threads_done: usize,
        /// Total worker count.
        threads: usize,
        /// How long the watchdog waited without progress.
        stalled_for_ms: u64,
    },
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::Stalled {
                variant,
                completed_ops,
                per_thread_ops,
                threads_done,
                threads,
                stalled_for_ms,
            } => write!(
                f,
                "{variant}: no commit progress for {stalled_for_ms} ms \
                 ({completed_ops} ops completed, {threads_done}/{threads} \
                 workers done, per-thread {per_thread_ops:?})"
            ),
        }
    }
}

impl std::error::Error for NativeError {}

/// State shared between the workers and the watchdog.
struct Shared {
    stop: AtomicBool,
    meter: ProgressMeter,
}

/// What one worker hands back on completion.
struct WorkerOut<D: DataStructure> {
    /// Runtime clock just before the first operation.
    start_ns: u64,
    /// Runtime clock just after the last operation.
    end_ns: u64,
    latencies: Vec<u64>,
    spans: Vec<OpSpan<D::Op, D::Res>>,
}

/// Runs one native stress measurement of `variant`.
///
/// `build` creates and prefills the data structure through a direct
/// context (single-threaded, before the workers start) and returns the
/// structure plus the HCF configuration used if `variant == Variant::Hcf`;
/// `gen` draws the next operation for a thread — the same contract as
/// [`crate::driver::run`], so lockstep and native runs share builders and
/// workloads.
///
/// # Errors
///
/// [`NativeError::Stalled`] if the watchdog detects a livelock/stall.
///
/// # Panics
///
/// Panics if setup fails, or if a worker thread panics (the panic is
/// re-raised after the remaining workers finish).
pub fn run_native<D, B, G>(
    cfg: &NativeConfig,
    variant: Variant,
    build: B,
    gen: G,
) -> Result<(NativeRunResult, NativeHistory<D>), NativeError>
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync + 'static,
{
    run_native_with(
        cfg,
        variant,
        build,
        |ds, mem, rt, threads, hcf_config| {
            variant
                .build(ds, mem, rt, threads, cfg.attempts, hcf_config)
                .expect("executor construction failed")
        },
        gen,
    )
}

/// Like [`run_native`], but with a caller-supplied executor factory —
/// used to measure executors outside the [`Variant`] set (e.g. the
/// adaptive engine) and to fault-inject stalls in the watchdog tests.
/// `variant` only labels the result.
///
/// # Errors
///
/// [`NativeError::Stalled`] if the watchdog detects a livelock/stall.
///
/// # Panics
///
/// Panics if setup fails or a worker thread panics.
pub fn run_native_with<D, B, F, G>(
    cfg: &NativeConfig,
    variant: Variant,
    build: B,
    make_exec: F,
    gen: G,
) -> Result<(NativeRunResult, NativeHistory<D>), NativeError>
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    F: FnOnce(Arc<D>, Arc<TMem>, Arc<dyn Runtime>, usize, HcfConfig) -> Arc<dyn Executor<D>>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync + 'static,
{
    assert!(cfg.threads >= 1, "need at least one worker");
    let mem = Arc::new(TMem::new(cfg.tmem.clone()));
    // Setup runs on its own runtime so the main thread never consumes a
    // dense id on the measurement runtime: workers get exactly
    // 0..threads, all below the executor's max_threads.
    let setup_rt = RealRuntime::new();
    let (ds, hcf_config) = {
        let mut ctx = DirectCtx::new(&mem, &setup_rt);
        build(&mut ctx, cfg.threads).expect("experiment setup failed")
    };

    let rt = Arc::new(RealRuntime::new());
    let rt_dyn: Arc<dyn Runtime> = rt.clone();
    let executor = make_exec(ds, mem, rt_dyn, cfg.threads, hcf_config);

    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        meter: ProgressMeter::new(cfg.threads),
    });
    let outs: Arc<Vec<Mutex<Option<WorkerOut<D>>>>> =
        Arc::new((0..cfg.threads).map(|_| Mutex::new(None)).collect());
    let gen = Arc::new(gen);

    // `done` must advance even if a worker panics (otherwise the watchdog
    // would misreport the panic as a stall); the unwind is then re-raised
    // from the join below.
    struct ExitGuard {
        shared: Arc<Shared>,
    }
    impl Drop for ExitGuard {
        fn drop(&mut self) {
            self.shared.meter.mark_done();
        }
    }

    let mut handles = Vec::with_capacity(cfg.threads);
    for tid in 0..cfg.threads {
        let rt = rt.clone();
        let executor = executor.clone();
        let shared = shared.clone();
        let outs = outs.clone();
        let gen = gen.clone();
        let ops_per_thread = cfg.ops_per_thread;
        let seed = cfg.seed.wrapping_add(tid as u64);
        let record = cfg.record_history;
        handles.push(std::thread::spawn(move || {
            let _exit = ExitGuard {
                shared: shared.clone(),
            };
            // Explicit registration: the slot is freed when the worker
            // exits, so repeated runs (or respawned workers) on a shared
            // runtime never outgrow `max_threads`.
            let _slot = rt.register();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut latencies = Vec::with_capacity(ops_per_thread as usize);
            let mut spans = Vec::new();
            let start_ns = rt.now();
            for _ in 0..ops_per_thread {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
                let op = gen(tid, &mut rng);
                let recorded_op = record.then(|| op.clone());
                let invoke = rt.now();
                let res = executor.execute(op);
                let response = rt.now();
                latencies.push(response.saturating_sub(invoke));
                if let Some(op) = recorded_op {
                    spans.push(OpSpan {
                        tid,
                        invoke,
                        response,
                        op,
                        res,
                    });
                }
                shared.meter.record(tid, 1);
            }
            let end_ns = rt.now();
            *outs[tid].lock() = Some(WorkerOut {
                start_ns,
                end_ns,
                latencies,
                spans,
            });
        }));
    }

    // Watchdog: poll the per-thread completion counters; any increment
    // anywhere counts as progress (see `crate::progress` for the shared
    // semantics). `ExecStats` mid-run snapshots would work too (their
    // relaxed counters are documented monotonic), but the dedicated
    // counters keep the probe independent of executor instrumentation.
    let mut tracker = StallTracker::new(cfg.watchdog_ms.saturating_mul(1_000_000), rt.now());
    loop {
        if shared.meter.all_done() {
            break;
        }
        std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
        if let Liveness::Stalled(idle_ns) = tracker.observe(shared.meter.total(), rt.now()) {
            // Ask well-behaved workers to wind down, then abandon the
            // stuck ones: a thread spinning inside `execute` cannot be
            // cancelled, so the handles are dropped (detached).
            shared.stop.store(true, Ordering::Relaxed);
            return Err(NativeError::Stalled {
                variant,
                completed_ops: shared.meter.total(),
                per_thread_ops: shared.meter.per_worker(),
                threads_done: shared.meter.done(),
                threads: cfg.threads,
                stalled_for_ms: idle_ns / 1_000_000,
            });
        }
    }
    let mut panicked = false;
    for h in handles {
        panicked |= h.join().is_err();
    }
    assert!(!panicked, "native worker panicked ({variant})");

    let mut latencies = Vec::new();
    let mut history = Vec::new();
    let (mut first_start, mut last_end) = (u64::MAX, 0);
    for slot in outs.iter() {
        let out = slot.lock().take().expect("worker exited without reporting");
        first_start = first_start.min(out.start_ns);
        last_end = last_end.max(out.end_ns);
        latencies.extend(out.latencies);
        history.extend(out.spans);
    }
    let per_thread_ops: Vec<u64> = shared.meter.per_worker();
    Ok((
        NativeRunResult {
            variant,
            threads: cfg.threads,
            total_ops: per_thread_ops.iter().sum(),
            elapsed_ns: last_end.saturating_sub(first_start),
            per_thread_ops,
            latency: LatencyStats::from_samples(latencies),
            exec: executor.exec_stats(),
        },
        history,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::MapWorkload;
    use hcf_ds::{HashTable, HashTableDs, MapOp};

    fn build_table(
        ctx: &mut dyn MemCtx,
        threads: usize,
    ) -> TxResult<(Arc<HashTableDs>, HcfConfig)> {
        let t = HashTable::create(ctx, 64)?;
        for k in 0..32 {
            t.insert(ctx, k * 2, k)?;
        }
        Ok((
            Arc::new(HashTableDs::new(t)),
            HashTableDs::hcf_config(threads),
        ))
    }

    fn map_gen(find_pct: u32) -> impl Fn(usize, &mut StdRng) -> MapOp + Send + Sync + 'static {
        let w = MapWorkload {
            key_range: 64,
            find_pct,
        };
        move |_tid, rng| w.op(rng)
    }

    #[test]
    fn single_thread_native_run_completes() {
        let cfg = NativeConfig::new(1).with_ops(200);
        let (r, h) = run_native(&cfg, Variant::Hcf, build_table, map_gen(80)).unwrap();
        assert_eq!(r.total_ops, 200);
        assert_eq!(r.per_thread_ops, vec![200]);
        assert_eq!(r.exec.total_ops(), 200);
        assert!(r.elapsed_ns > 0);
        assert!(r.ops_per_sec() > 0.0);
        assert_eq!(r.latency.count, 200);
        assert!(r.latency.p50_ns <= r.latency.p99_ns);
        assert!(r.latency.p99_ns <= r.latency.max_ns);
        assert!(h.is_empty(), "history off by default");
    }

    #[test]
    fn multi_thread_native_run_counts_are_exact() {
        let cfg = NativeConfig::new(4).with_ops(150);
        let (r, _) = run_native(&cfg, Variant::Tle, build_table, map_gen(40)).unwrap();
        assert_eq!(r.total_ops, 4 * 150);
        assert_eq!(r.exec.total_ops(), r.total_ops);
        assert!(r.per_thread_ops.iter().all(|&o| o == 150));
    }

    #[test]
    fn history_recording_produces_full_spans() {
        let cfg = NativeConfig::new(3).with_ops(50).with_history(true);
        let (r, h) = run_native(&cfg, Variant::Hcf, build_table, map_gen(60)).unwrap();
        assert_eq!(h.len() as u64, r.total_ops);
        for s in &h {
            assert!(s.invoke <= s.response);
            assert!(s.tid < 3);
        }
    }

    #[test]
    fn workload_streams_are_seed_reproducible() {
        // Same seed: same multiset of generated operations (the
        // interleaving differs; the per-thread op streams do not).
        let ops = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = map_gen(50);
            (0..100).map(|_| g(0, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(format!("{:?}", ops(7)), format!("{:?}", ops(7)));
    }

    #[test]
    fn latency_stats_percentiles() {
        let l = LatencyStats::from_samples((1..=100).collect());
        assert_eq!(l.count, 100);
        assert_eq!(l.p50_ns, 51);
        assert_eq!(l.p90_ns, 90);
        assert_eq!(l.p99_ns, 99);
        assert_eq!(l.max_ns, 100);
        assert_eq!(
            LatencyStats::from_samples(Vec::new()),
            LatencyStats::default()
        );
    }

    #[test]
    fn stalled_error_formats_diagnostics() {
        let e = NativeError::Stalled {
            variant: Variant::Fc,
            completed_ops: 17,
            per_thread_ops: vec![17, 0],
            threads_done: 0,
            threads: 2,
            stalled_for_ms: 250,
        };
        let msg = e.to_string();
        assert!(msg.contains("FC"), "{msg}");
        assert!(msg.contains("250 ms"), "{msg}");
        assert!(msg.contains("17 ops"), "{msg}");
    }
}
