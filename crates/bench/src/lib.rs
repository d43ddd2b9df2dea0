//! # hcf-bench — experiment harness
//!
//! One module per figure of the paper; the `bin/` targets print CSV to
//! stdout and save copies under `target/figures/`. See `EXPERIMENTS.md`
//! at the workspace root for the mapping and the measured results.
//!
//! Environment knobs (all optional):
//!
//! * `HCF_DURATION` — virtual cycles per measurement (default
//!   [`DEFAULT_DURATION`]).
//! * `HCF_THREADS` — comma-separated thread counts overriding the sweep.
//! * `HCF_SEED` — workload seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use hcf_util::rng::*;

use hcf_core::{HcfConfig, Variant};
use hcf_ds::{AvlDs, AvlMode, AvlTree, HashTable, HashTableDs, SkipListPq, SkipListPqDs};
use hcf_sim::{
    driver::{run, RunResult, SimConfig},
    topology::Topology,
    workload::{MapWorkload, PqWorkload, SetWorkload},
};
use hcf_tmem::{MemCtx, TMemConfig, TxResult};

/// Default virtual measurement window (cycles). ~0.65 ms at 2.3 GHz.
pub const DEFAULT_DURATION: u64 = 1_500_000;

/// Thread counts swept on one socket (paper x-axes go to 36 = 18 cores
/// × 2 SMT).
pub const SINGLE_SOCKET_THREADS: &[usize] = &[1, 2, 4, 8, 12, 18, 24, 30, 36];

/// Thread counts swept across both sockets (figure 2(b) goes to 72).
pub const DUAL_SOCKET_THREADS: &[usize] = &[1, 2, 4, 8, 12, 18, 24, 30, 36, 48, 60, 72];

/// Reads the virtual duration knob.
pub fn duration() -> u64 {
    std::env::var("HCF_DURATION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_DURATION)
}

/// Reads the seed knob.
pub fn seed() -> u64 {
    std::env::var("HCF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Reads the thread-sweep knob, defaulting to `default`.
pub fn thread_sweep(default: &[usize]) -> Vec<usize> {
    match std::env::var("HCF_THREADS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

/// A CSV sink that tees to stdout and `target/figures/<name>.csv`.
#[derive(Debug)]
pub struct Csv {
    file: Option<std::fs::File>,
}

impl Csv {
    /// Opens the sink and writes the header line.
    pub fn new(name: &str, header: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
        let file = std::fs::create_dir_all(&dir)
            .ok()
            .and_then(|()| std::fs::File::create(dir.join(format!("{name}.csv"))).ok());
        let mut csv = Csv { file };
        csv.line(header);
        csv
    }

    /// Writes one line.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{s}");
        }
    }
}

/// Simulation config for a single-socket run (most figures).
pub fn sim_config(threads: usize) -> SimConfig {
    SimConfig::new(threads)
        .with_duration(duration())
        .with_seed(seed())
}

/// Simulation config for the dual-socket figure 2(b).
pub fn sim_config_dual(threads: usize) -> SimConfig {
    sim_config(threads).with_topology(Topology::x5_2())
}

// ---------------------------------------------------------------------
// Hash table (figures 2, 3, 4)
// ---------------------------------------------------------------------

/// Paper §3.3 parameters: 16K keys, 16K buckets, table prefilled to half
/// the key range.
pub const HASH_KEY_RANGE: u64 = 16 * 1024;

/// Builds and prefills the §3.3 hash table.
///
/// # Errors
///
/// Propagates pool exhaustion.
pub fn build_hash(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<HashTableDs>, HcfConfig)> {
    let t = HashTable::create(ctx, HASH_KEY_RANGE)?;
    let mut rng = StdRng::seed_from_u64(seed() ^ 0xF00D);
    let mut inserted = 0;
    while inserted < HASH_KEY_RANGE / 2 {
        let k = rng.random_range(0..HASH_KEY_RANGE);
        if t.insert(ctx, k, k)?.is_none() {
            inserted += 1;
        }
    }
    Ok((
        Arc::new(HashTableDs::new(t)),
        HashTableDs::hcf_config(threads),
    ))
}

/// A `TMemConfig` big enough for the 16K-entry hash table.
pub fn hash_tmem() -> TMemConfig {
    TMemConfig::default().with_words(1 << 21)
}

/// Runs one hash-table point.
pub fn hash_point(threads: usize, variant: Variant, find_pct: u32, dual: bool) -> RunResult {
    let mut cfg = if dual {
        sim_config_dual(threads)
    } else {
        sim_config(threads)
    };
    cfg.tmem = hash_tmem();
    let w = MapWorkload {
        key_range: HASH_KEY_RANGE,
        find_pct,
    };
    run(&cfg, variant, build_hash, move |_tid, rng: &mut StdRng| {
        w.op(rng)
    })
}

// ---------------------------------------------------------------------
// AVL set (figure 5)
// ---------------------------------------------------------------------

/// Paper §3.4 parameters: keys in [0..1023], Zipfian θ = 0.9, prefill to
/// half the range.
pub const AVL_KEY_RANGE: u64 = 1024;
/// Zipf skew used in figure 5.
pub const AVL_THETA: f64 = 0.9;

/// Builds and prefills the §3.4 AVL set in the given combining mode.
///
/// # Errors
///
/// Propagates pool exhaustion.
pub fn build_avl(
    ctx: &mut dyn MemCtx,
    threads: usize,
    mode: AvlMode,
) -> TxResult<(Arc<AvlDs>, HcfConfig)> {
    let t = AvlTree::create(ctx)?;
    let mut rng = StdRng::seed_from_u64(seed() ^ 0xBEEF);
    let mut inserted = 0;
    while inserted < AVL_KEY_RANGE / 2 {
        if t.insert(ctx, rng.random_range(0..AVL_KEY_RANGE))? {
            inserted += 1;
        }
    }
    let config = AvlDs::hcf_config(threads, &mode);
    Ok((Arc::new(AvlDs::new(t, mode)), config))
}

/// Runs one AVL point with the paper's preferred (Selective) HCF mode.
pub fn avl_point(threads: usize, variant: Variant, find_pct: u32) -> RunResult {
    avl_point_mode(threads, variant, find_pct, AvlMode::Selective)
}

/// Runs one AVL point with an explicit combining mode (ablations).
pub fn avl_point_mode(threads: usize, variant: Variant, find_pct: u32, mode: AvlMode) -> RunResult {
    let cfg = sim_config(threads);
    let w = SetWorkload::new(AVL_KEY_RANGE, AVL_THETA, find_pct);
    run(
        &cfg,
        variant,
        move |ctx, th| build_avl(ctx, th, mode),
        move |_tid, rng: &mut StdRng| w.op(rng),
    )
}

// ---------------------------------------------------------------------
// Priority queue (extension X1)
// ---------------------------------------------------------------------

/// Builds and prefills the skip-list priority queue.
///
/// # Errors
///
/// Propagates pool exhaustion.
pub fn build_pq(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<SkipListPqDs>, HcfConfig)> {
    let pq = SkipListPq::create(ctx)?;
    let mut rng = StdRng::seed_from_u64(seed() ^ 0xACE);
    let mut inserted = 0;
    while inserted < 4096 {
        if pq.insert(ctx, rng.random_range(0..1 << 20), rng.random())? {
            inserted += 1;
        }
    }
    Ok((
        Arc::new(SkipListPqDs::new(pq)),
        SkipListPqDs::hcf_config(threads),
    ))
}

/// Runs one priority-queue point.
pub fn pq_point(threads: usize, variant: Variant, insert_pct: u32) -> RunResult {
    let mut cfg = sim_config(threads);
    cfg.tmem = TMemConfig::default().with_words(1 << 21);
    let w = PqWorkload {
        key_range: 1 << 20,
        insert_pct,
    };
    run(&cfg, variant, build_pq, move |_tid, rng: &mut StdRng| {
        w.op(rng)
    })
}

/// Formats a throughput CSV row.
pub fn throughput_row(figure: &str, workload: &str, r: &RunResult) -> String {
    format!(
        "{figure},{workload},{},{},{},{},{:.2},{:.4},{},{:.3},{:.3}",
        r.variant,
        r.threads,
        r.total_ops,
        r.elapsed,
        r.throughput(),
        r.exec.abort_rate(),
        r.exec.lock_acqs,
        r.exec.avg_degree(),
        r.misses_per_op(),
    )
}

/// The standard throughput CSV header.
pub const THROUGHPUT_HEADER: &str = "figure,workload,variant,threads,ops,cycles,ops_per_mcycle,abort_rate,lock_acqs,avg_degree,misses_per_op";

// ---------------------------------------------------------------------
// Deque and stack (extensions X2, X3)
// ---------------------------------------------------------------------

use hcf_ds::{Deque, DequeDs, Stack, StackDs};
use hcf_sim::workload::{DequeWorkload, StackWorkload};

/// Builds and prefills the §2.4 deque.
///
/// # Errors
///
/// Propagates pool exhaustion.
pub fn build_deque(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<DequeDs>, HcfConfig)> {
    let d = Deque::create(ctx)?;
    for i in 0..1024 {
        d.push(ctx, hcf_ds::deque::End::Left, i)?;
    }
    Ok((Arc::new(DequeDs::new(d)), DequeDs::hcf_config(threads)))
}

/// Runs one deque point.
pub fn deque_point(threads: usize, variant: Variant) -> RunResult {
    let cfg = sim_config(threads);
    let w = DequeWorkload;
    run(&cfg, variant, build_deque, move |_tid, rng: &mut StdRng| {
        w.op(rng)
    })
}

/// Builds and prefills the stack.
///
/// # Errors
///
/// Propagates pool exhaustion.
pub fn build_stack(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<StackDs>, HcfConfig)> {
    let s = Stack::create(ctx)?;
    for i in 0..1024 {
        s.push(ctx, i)?;
    }
    Ok((Arc::new(StackDs::new(s)), StackDs::hcf_config(threads)))
}

/// Runs one stack point.
pub fn stack_point(threads: usize, variant: Variant, push_pct: u32) -> RunResult {
    let cfg = sim_config(threads);
    let w = StackWorkload { push_pct };
    run(&cfg, variant, build_stack, move |_tid, rng: &mut StdRng| {
        w.op(rng)
    })
}

use hcf_ds::{Queue, QueueDs};
use hcf_sim::workload::QueueWorkload;

/// Builds and prefills the FIFO queue.
///
/// # Errors
///
/// Propagates pool exhaustion.
pub fn build_queue(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<QueueDs>, HcfConfig)> {
    let q = Queue::create(ctx)?;
    for i in 0..1024 {
        q.enqueue(ctx, i)?;
    }
    Ok((Arc::new(QueueDs::new(q)), QueueDs::hcf_config(threads)))
}

/// Runs one FIFO-queue point.
pub fn queue_point(threads: usize, variant: Variant, enqueue_pct: u32) -> RunResult {
    let cfg = sim_config(threads);
    let w = QueueWorkload { enqueue_pct };
    run(&cfg, variant, build_queue, move |_tid, rng: &mut StdRng| {
        w.op(rng)
    })
}

use hcf_ds::{SortedList, SortedListDs};
use hcf_sim::workload::ListWorkload;

/// Builds and prefills the sorted-list set (512-key range, half full —
/// long traversals by design).
///
/// # Errors
///
/// Propagates pool exhaustion.
pub fn build_list(
    ctx: &mut dyn MemCtx,
    threads: usize,
) -> TxResult<(Arc<SortedListDs>, HcfConfig)> {
    let l = SortedList::create(ctx)?;
    let mut rng = StdRng::seed_from_u64(seed() ^ 0x1157);
    let mut n = 0;
    while n < 256 {
        if l.insert(ctx, rng.random_range(0..512))? {
            n += 1;
        }
    }
    Ok((
        Arc::new(SortedListDs::new(l)),
        SortedListDs::hcf_config(threads),
    ))
}

/// Runs one sorted-list point.
pub fn list_point(threads: usize, variant: Variant, find_pct: u32) -> RunResult {
    let mut cfg = sim_config(threads);
    cfg.tmem = TMemConfig::default().with_words(1 << 20);
    let w = ListWorkload {
        key_range: 512,
        find_pct,
    };
    run(&cfg, variant, build_list, move |_tid, rng: &mut StdRng| {
        w.op(rng)
    })
}
