//! The experiment driver: fixed-virtual-duration throughput runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcf_util::rng::*;

use hcf_core::{DataStructure, ExecStatsSnapshot, HcfConfig, Variant};
use hcf_tmem::runtime::{MemAccessStats, Runtime};
use hcf_tmem::{DirectCtx, MemCtx, RealRuntime, TMem, TMemConfig, TxResult};

use crate::cost::CostModel;
use crate::runtime::LockstepRuntime;
use crate::topology::Topology;

/// Configuration of one simulated throughput run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine model.
    pub topology: Topology,
    /// Cycle costs.
    pub cost: CostModel,
    /// Number of simulated threads.
    pub threads: usize,
    /// Virtual duration of the measurement in cycles (threads stop
    /// starting new operations once their clock passes this).
    pub duration: u64,
    /// Workload RNG seed (thread `t` uses `seed + t`).
    pub seed: u64,
    /// Transactional-memory configuration.
    pub tmem: TMemConfig,
}

impl SimConfig {
    /// A sensible default: single-socket X5-2, default costs, 2M-cycle
    /// measurement (≈ 0.9 ms at the paper's 2.3 GHz).
    pub fn new(threads: usize) -> Self {
        SimConfig {
            topology: Topology::x5_2_single_socket(),
            cost: CostModel::default(),
            threads,
            duration: 2_000_000,
            seed: 0xC0FFEE,
            tmem: TMemConfig::default(),
        }
    }

    /// Builder-style duration override.
    pub fn with_duration(mut self, cycles: u64) -> Self {
        self.duration = cycles;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style topology override.
    pub fn with_topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Simulated thread count.
    pub threads: usize,
    /// Synchronization scheme measured.
    pub variant: Variant,
    /// Operations completed.
    pub total_ops: u64,
    /// Elapsed virtual cycles (max thread clock).
    pub elapsed: u64,
    /// Framework statistics.
    pub exec: ExecStatsSnapshot,
    /// Coherence statistics.
    pub mem: MemAccessStats,
}

impl RunResult {
    /// Throughput in operations per million virtual cycles.
    pub fn throughput(&self) -> f64 {
        if self.elapsed == 0 {
            0.0
        } else {
            self.total_ops as f64 * 1e6 / self.elapsed as f64
        }
    }

    /// Throughput in operations per second at the modeled clock rate
    /// (the paper's X5-2 runs at 2.3 GHz).
    pub fn ops_per_sec(&self, ghz: f64) -> f64 {
        self.throughput() * ghz * 1e3
    }

    /// Coherence misses per completed operation.
    pub fn misses_per_op(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.mem.misses() as f64 / self.total_ops as f64
        }
    }
}

/// Runs one simulated throughput measurement.
///
/// `build` creates and prefills the data structure through a direct
/// context (it runs single-threaded, before the simulation starts) and
/// returns the structure plus the HCF configuration to use if
/// `variant == Variant::Hcf`. `gen` draws the next operation for a thread.
///
/// # Panics
///
/// Panics if setup fails (pool exhaustion) — experiment configurations
/// are static, so this is a programming error, not a runtime condition.
pub fn run<D, B, G>(cfg: &SimConfig, variant: Variant, build: B, gen: G) -> RunResult
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync,
{
    run_with(
        cfg,
        variant,
        build,
        |ds, mem, rt, threads, hcf_config| {
            variant
                .build(ds, mem, rt, threads, 10, hcf_config)
                .expect("executor construction failed")
        },
        gen,
    )
}

/// Like [`run`], but with a caller-supplied executor factory — used to
/// measure executors outside the [`Variant`] set (e.g. the adaptive
/// engine). `variant` only labels the result.
pub fn run_with<D, B, F, G>(
    cfg: &SimConfig,
    variant: Variant,
    build: B,
    make_exec: F,
    gen: G,
) -> RunResult
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    F: FnOnce(
        Arc<D>,
        Arc<TMem>,
        Arc<dyn hcf_tmem::Runtime>,
        usize,
        HcfConfig,
    ) -> Arc<dyn hcf_core::Executor<D>>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync,
{
    run_loop(cfg, variant, build, make_exec, gen, |_| {})
}

/// The one lockstep run loop behind [`run_with`] and [`run_timeline`]:
/// builds the structure and the executor, runs `cfg.threads` simulated
/// threads until the deadline, and calls `after_op` with the thread's
/// virtual time after each operation it completes.
fn run_loop<D, B, F, G>(
    cfg: &SimConfig,
    variant: Variant,
    build: B,
    make_exec: F,
    gen: G,
    after_op: impl Fn(u64) + Sync,
) -> RunResult
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    F: FnOnce(
        Arc<D>,
        Arc<TMem>,
        Arc<dyn hcf_tmem::Runtime>,
        usize,
        HcfConfig,
    ) -> Arc<dyn hcf_core::Executor<D>>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync,
{
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
    let rt_dyn: Arc<dyn hcf_tmem::Runtime> = runtime.clone();
    let executor = make_exec(ds, mem, rt_dyn, cfg.threads, hcf_config);

    let total_ops = AtomicU64::new(0);
    let deadline = cfg.duration;
    runtime.run_threads(|tid| {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(tid as u64));
        let mut ops = 0u64;
        while runtime.now() < deadline {
            runtime.charge_op_overhead();
            executor.execute(gen(tid, &mut rng));
            after_op(runtime.now());
            ops += 1;
        }
        total_ops.fetch_add(ops, Ordering::Relaxed);
    });

    RunResult {
        threads: cfg.threads,
        variant,
        total_ops: total_ops.load(Ordering::Relaxed),
        elapsed: runtime.elapsed(),
        exec: executor.exec_stats(),
        mem: runtime.mem_stats(),
    }
}

/// Runs one measurement with the transactional sanitizer attached and
/// returns the event log next to the result.
///
/// The session opens before the memory is created (so allocation-time
/// stores are part of the log) and closes after every simulated thread has
/// joined. For the replay checker's strict, total-order interpretation to
/// be sound the execution must be serialized — pass a [`CostModel`] with
/// `sync_quantum == 1` ([`CostModel::exact`]), which makes ring order equal
/// execution order under the lockstep scheduler.
///
/// # Panics
///
/// Panics if setup fails or if another sanitizer session is active.
#[cfg(feature = "txsan")]
pub fn run_sanitized<D, B, G>(
    cfg: &SimConfig,
    variant: Variant,
    build: B,
    gen: G,
) -> (RunResult, hcf_tmem::san::SanLog)
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync,
{
    assert_eq!(
        cfg.cost.sync_quantum, 1,
        "sanitized runs need per-access lockstep (CostModel::exact)"
    );
    let session = hcf_tmem::san::SanSession::start();
    let result = run(cfg, variant, build, gen);
    (result, session.finish())
}

/// A [`run`] that additionally buckets completed operations by virtual
/// time, exposing throughput *within* a run — e.g. to watch the adaptive
/// controller converge.
///
/// Returns the run result plus `ops_per_bucket`, where bucket `i` counts
/// operations whose completion time fell in
/// `[i * bucket_cycles, (i+1) * bucket_cycles)`.
pub fn run_timeline<D, B, F, G>(
    cfg: &SimConfig,
    variant: Variant,
    build: B,
    make_exec: F,
    gen: G,
    bucket_cycles: u64,
) -> (RunResult, Vec<u64>)
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    F: FnOnce(
        Arc<D>,
        Arc<TMem>,
        Arc<dyn hcf_tmem::Runtime>,
        usize,
        HcfConfig,
    ) -> Arc<dyn hcf_core::Executor<D>>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync,
{
    assert!(bucket_cycles > 0);
    let n_buckets = (cfg.duration / bucket_cycles + 2) as usize;
    let buckets: Vec<AtomicU64> = (0..n_buckets).map(|_| AtomicU64::new(0)).collect();
    let result = run_loop(cfg, variant, build, make_exec, gen, |now| {
        let b = ((now / bucket_cycles) as usize).min(n_buckets - 1);
        buckets[b].fetch_add(1, Ordering::Relaxed);
    });
    let timeline = buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    (result, timeline)
}

/// Aggregate of several [`run`]s with different seeds (the paper reports
/// the mean of five runs and notes the standard deviation, §3.2).
#[derive(Clone, Debug)]
pub struct MultiRunResult {
    /// The individual runs.
    pub runs: Vec<RunResult>,
}

impl MultiRunResult {
    /// Mean throughput (ops per million cycles).
    pub fn mean_throughput(&self) -> f64 {
        self.runs.iter().map(RunResult::throughput).sum::<f64>() / self.runs.len() as f64
    }

    /// Sample standard deviation of the throughput.
    pub fn std_throughput(&self) -> f64 {
        if self.runs.len() < 2 {
            return 0.0;
        }
        let m = self.mean_throughput();
        let var = self
            .runs
            .iter()
            .map(|r| (r.throughput() - m).powi(2))
            .sum::<f64>()
            / (self.runs.len() - 1) as f64;
        var.sqrt()
    }

    /// Relative standard deviation in percent (the paper reports "a few
    /// percents or less ... up to 9.5% in the worst case").
    pub fn rel_std_pct(&self) -> f64 {
        let m = self.mean_throughput();
        if m == 0.0 {
            0.0
        } else {
            100.0 * self.std_throughput() / m
        }
    }

    /// The run whose throughput is closest to the mean (representative
    /// run for detailed statistics).
    pub fn representative(&self) -> &RunResult {
        let m = self.mean_throughput();
        self.runs
            .iter()
            .min_by(|a, b| {
                (a.throughput() - m)
                    .abs()
                    .total_cmp(&(b.throughput() - m).abs())
            })
            .expect("at least one run")
    }
}

/// Runs the same experiment `n_runs` times with seeds `seed`, `seed+1`, …
/// and aggregates. `build` is re-invoked per run via `make_build`.
pub fn run_seeds<D, B, G>(
    cfg: &SimConfig,
    variant: Variant,
    n_runs: usize,
    make_build: impl Fn() -> B,
    gen: &G,
) -> MultiRunResult
where
    D: DataStructure,
    B: FnOnce(&mut dyn MemCtx, usize) -> TxResult<(Arc<D>, HcfConfig)>,
    G: Fn(usize, &mut StdRng) -> D::Op + Send + Sync,
{
    assert!(n_runs >= 1);
    let runs = (0..n_runs)
        .map(|i| {
            let cfg_i = cfg
                .clone()
                .with_seed(cfg.seed.wrapping_add(i as u64 * 7919));
            run(&cfg_i, variant, make_build(), gen)
        })
        .collect();
    MultiRunResult { runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::MapWorkload;
    use hcf_ds::{HashTable, HashTableDs, MapOp};

    fn tiny_cfg(threads: usize) -> SimConfig {
        let mut c = SimConfig::new(threads);
        c.duration = 120_000;
        c
    }

    fn build_table(
        ctx: &mut dyn MemCtx,
        threads: usize,
    ) -> TxResult<(Arc<HashTableDs>, HcfConfig)> {
        let t = HashTable::create(ctx, 256)?;
        for k in 0..128 {
            t.insert(ctx, k * 2, k)?;
        }
        Ok((
            Arc::new(HashTableDs::new(t)),
            HashTableDs::hcf_config(threads),
        ))
    }

    fn map_gen(find_pct: u32) -> impl Fn(usize, &mut StdRng) -> MapOp + Send + Sync {
        let w = MapWorkload {
            key_range: 256,
            find_pct,
        };
        move |_tid, rng| w.op(rng)
    }

    #[test]
    fn single_thread_run_completes() {
        let r = run(&tiny_cfg(1), Variant::Hcf, build_table, map_gen(90));
        assert!(r.total_ops > 0, "no ops completed");
        assert!(r.elapsed >= 120_000);
        assert_eq!(r.exec.total_ops(), r.total_ops);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn multi_thread_run_is_deterministic() {
        let a = run(&tiny_cfg(4), Variant::Hcf, build_table, map_gen(40));
        let b = run(&tiny_cfg(4), Variant::Hcf, build_table, map_gen(40));
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.exec, b.exec);
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&tiny_cfg(2), Variant::Tle, build_table, map_gen(40));
        let b = run(
            &tiny_cfg(2).with_seed(123),
            Variant::Tle,
            build_table,
            map_gen(40),
        );
        // Extremely unlikely to coincide exactly.
        assert!(a.total_ops != b.total_ops || a.elapsed != b.elapsed);
    }

    #[test]
    fn all_variants_complete_ops() {
        for v in Variant::ALL {
            let r = run(&tiny_cfg(2), v, build_table, map_gen(80));
            assert!(r.total_ops > 0, "{v} completed nothing");
            assert_eq!(r.exec.total_ops(), r.total_ops, "{v} stats mismatch");
        }
    }

    #[test]
    fn read_only_tle_scales() {
        // 100% finds: 4 TLE threads should complete clearly more ops per
        // unit virtual time than 1 thread.
        let one = run(&tiny_cfg(1), Variant::Tle, build_table, map_gen(100));
        let four = run(&tiny_cfg(4), Variant::Tle, build_table, map_gen(100));
        assert!(
            four.throughput() > one.throughput() * 2.0,
            "no scaling: 1t={:.1} 4t={:.1}",
            one.throughput(),
            four.throughput()
        );
    }

    #[test]
    fn run_timeline_buckets_sum_to_total() {
        let cfg = tiny_cfg(3);
        let (r, buckets) = run_timeline(
            &cfg,
            Variant::Hcf,
            build_table,
            |ds, mem, rt, threads, hcf| {
                Variant::Hcf
                    .build(ds, mem, rt, threads, 10, hcf)
                    .expect("executor")
            },
            map_gen(60),
            20_000,
        );
        assert_eq!(buckets.iter().sum::<u64>(), r.total_ops);
        assert!(buckets.len() >= (cfg.duration / 20_000) as usize);
        assert!(buckets[0] > 0, "no ops in the first bucket");
    }

    #[test]
    fn run_seeds_aggregates() {
        let m = run_seeds(&tiny_cfg(2), Variant::Hcf, 3, || build_table, &map_gen(80));
        assert_eq!(m.runs.len(), 3);
        assert!(m.mean_throughput() > 0.0);
        assert!(m.std_throughput() >= 0.0);
        assert!(
            m.rel_std_pct() < 50.0,
            "seeds wildly divergent: {:.1}%",
            m.rel_std_pct()
        );
        let rep = m.representative();
        assert!(m.runs.iter().any(|r| r.total_ops == rep.total_ops));
    }

    #[test]
    fn run_seeds_single_run_has_zero_std() {
        let m = run_seeds(&tiny_cfg(1), Variant::Lock, 1, || build_table, &map_gen(50));
        assert_eq!(m.std_throughput(), 0.0);
        assert_eq!(m.rel_std_pct(), 0.0);
    }

    #[test]
    fn lock_variant_does_not_scale() {
        let one = run(&tiny_cfg(1), Variant::Lock, build_table, map_gen(100));
        let four = run(&tiny_cfg(4), Variant::Lock, build_table, map_gen(100));
        assert!(
            four.throughput() < one.throughput() * 1.5,
            "lock scaled unexpectedly: 1t={:.1} 4t={:.1}",
            one.throughput(),
            four.throughput()
        );
    }
}
